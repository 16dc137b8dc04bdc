"""Ready-made discrimination scenarios and the consecutive-measurement builder.

A scenario bundles a spin-chain observable, an apparatus construction, an
initial state, and the verdict the protocol is expected to reach.  The
builtins cover the canonical cases: a Lüders device, a full von Neumann
device that resolves a degenerate eigenspace in a rotated basis, devices
made of consecutive single-site measurements (full and partial von
Neumann), and a non-degenerate observable for which the question is
undecidable in principle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL
from .apparatus import (
    MeasurementApparatus,
    make_full_von_neumann,
    make_luders,
    make_partial,
)
from .protocol import StageKind, Verdict, resolve_target
from .quantum import (
    PureState,
    Refinement,
    SpectralDecomposition,
    build_spin_operator,
    spectral_decompose,
)

TermList = tuple[tuple[float, str], ...]


def resolve_expression(sites: int | None, expr) -> np.ndarray:
    """Turn a term list or an explicit matrix into an operator matrix."""
    if isinstance(expr, np.ndarray):
        m = linalg.as_matrix(expr)
        if not linalg.is_hermitian(m):
            raise ValueError("explicit observable matrix is not Hermitian")
        if sites is not None and m.shape[0] != 2**sites:
            raise ValueError(
                f"matrix dimension {m.shape[0]} does not match {sites} sites"
            )
        return m
    if sites is None:
        raise ValueError("sites must be given when an observable uses terms")
    return build_spin_operator(sites, list(expr))


@dataclass(frozen=True)
class LudersSpec:
    """Apparatus that keeps every eigenspace whole."""


@dataclass(frozen=True)
class FullVonNeumannSpec:
    """Apparatus that resolves every eigenspace into rank-1 blocks.

    ``eigenbasis[k]`` optionally replaces the canonical basis of eigenspace
    ``k`` with explicit amplitude vectors; ``None`` keeps the canonical one.
    """

    eigenbasis: tuple[tuple[tuple[complex, ...], ...] | None, ...] | None = None


@dataclass(frozen=True)
class PartialSpec:
    """Apparatus with explicit blocks over the canonical eigenbases."""

    blocks: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass(frozen=True)
class ConsecutiveSpec:
    """Apparatus realised by measuring the listed observables in sequence."""

    observables: tuple  # of TermList or explicit matrices


ApparatusSpec = LudersSpec | FullVonNeumannSpec | PartialSpec | ConsecutiveSpec


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible discrimination setup.

    ``expected_verdict`` is set on the builtins as a regression target;
    scenarios loaded from files carry no expectation.
    """

    name: str
    summary: str
    sites: int | None
    observable_expr: "TermList | np.ndarray"
    apparatus_spec: ApparatusSpec
    initial_state: tuple[complex, ...] | None  # None: derived from the target
    target_eigenvalue: float | None
    expected_verdict: Verdict | None = None
    expected_detected_at: StageKind | None = None

    def observable(self) -> np.ndarray:
        return resolve_expression(self.sites, self.observable_expr)


def build_consecutive(
    base: SpectralDecomposition, observables: Sequence[np.ndarray]
) -> MeasurementApparatus:
    """The apparatus realised by Lüders-measuring the observables in sequence.

    All listed observables must commute with one another and with the base
    observable.  The sequence then projects onto the joint eigenspaces, so
    each base eigenspace is carved into the blocks that the joint
    eigenspaces cut out of it.  A sequence that resolves every degeneracy
    yields a full von Neumann device; one that resolves part of it yields a
    partial von Neumann device; measuring the base observable itself yields
    the Lüders device back.
    """
    mats = [linalg.as_matrix(o) for o in observables]
    if not mats:
        raise ValueError("no observables given")
    for m in mats:
        if m.shape[0] != base.dim:
            raise ValueError("observable dimension does not match the base")
        if not linalg.is_hermitian(m):
            raise ValueError("consecutive observables must be Hermitian")
    scale = max(1.0, max(float(np.max(np.abs(m))) for m in mats))
    b = base.basis
    group = np.repeat(np.arange(base.group_count), base.multiplicities)
    off = group[:, None] != group
    for i, a in enumerate(mats):
        for c in mats[i + 1 :]:
            if np.max(np.abs(a @ c - c @ a)) > DEFAULT_TOL * scale * scale:
                raise ValueError("consecutive observables must pairwise commute")
        # a commutes with the base exactly when B^H a B is block diagonal.
        if np.max(np.abs(b.conj().T @ a @ b)[off], initial=0.0) > DEFAULT_TOL * scale:
            raise ValueError(
                "consecutive observables must commute with the base observable"
            )
    cells = []
    for s, n in zip(base.starts, base.multiplicities):
        # Each cell is a column block, which a refiner splits into one block
        # per eigenspace of its restriction to the cell.  Dividing that by
        # ``scale`` keeps a cell on which a refiner is constant whole at any
        # scale: rounding grows with the refiner, the grouping threshold not.
        refined = [b[:, s : s + n]]
        for m in mats:
            refined = [
                cell @ sub.T
                for cell in refined
                for sub in spectral_decompose(
                    cell.conj().T @ m @ cell / scale
                ).eigenbasis
            ]
        cells.append(refined)
    return MeasurementApparatus(Refinement(
        base,
        np.hstack([cell for refined in cells for cell in refined]),
        tuple(tuple(cell.shape[1] for cell in refined) for refined in cells),
    ))


def default_initial_state(
    decomp: SpectralDecomposition, target_group: int
) -> PureState:
    """Uniform superposition over the target eigenspace plus one outside component.

    This populates the selection step and every auxiliary outcome of the
    eigenspace, so no branch of the protocol starves.
    """
    parts = list(decomp.eigenbasis[target_group])
    for k, group in enumerate(decomp.eigenbasis):
        if k != target_group:
            parts.append(group[0])
            break
    vec = np.sum(parts, axis=0)
    return PureState(vec / np.linalg.norm(vec))


def instantiate(
    scenario: Scenario,
) -> tuple[np.ndarray, SpectralDecomposition, MeasurementApparatus, PureState]:
    """Build the observable, its decomposition, the apparatus, and the state."""
    observable = scenario.observable()
    decomp = spectral_decompose(observable)
    spec = scenario.apparatus_spec
    if isinstance(spec, LudersSpec):
        app = make_luders(decomp)
    elif isinstance(spec, FullVonNeumannSpec):
        choice = None
        if spec.eigenbasis is not None:
            choice = [
                None if group is None else [np.asarray(v, dtype=complex) for v in group]
                for group in spec.eigenbasis
            ]
        app = make_full_von_neumann(decomp, choice)
    elif isinstance(spec, PartialSpec):
        app = make_partial(decomp, spec.blocks)
    elif isinstance(spec, ConsecutiveSpec):
        mats = [
            resolve_expression(scenario.sites, expr) for expr in spec.observables
        ]
        app = build_consecutive(decomp, mats)
    else:
        raise TypeError(f"unknown apparatus spec {spec!r}")
    if scenario.initial_state is not None:
        if len(scenario.initial_state) != decomp.dim:
            raise ValueError(
                f"initial state has dimension {len(scenario.initial_state)} "
                f"but the observable has dimension {decomp.dim}"
            )
        state = PureState(np.asarray(scenario.initial_state, dtype=complex))
    else:
        k = resolve_target(decomp, scenario.target_eigenvalue)
        state = default_initial_state(decomp, 0 if k is None else k)
    return observable, decomp, app, state


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def builtin_scenarios() -> tuple[Scenario, ...]:
    """The five stock scenarios, with stable names for the command line."""
    two_site_z = ((1.0, "ZI"), (1.0, "IZ"))
    three_site_z12 = ((1.0, "ZII"), (1.0, "IZI"))
    plus_minus = (0.0, _INV_SQRT2, _INV_SQRT2, 0.0)
    minus_plus = (0.0, _INV_SQRT2, -_INV_SQRT2, 0.0)
    return (
        Scenario(
            name="s1-luders-2spin",
            summary="two spins, total z-spin, Lüders device: accepted",
            sites=2,
            observable_expr=two_site_z,
            apparatus_spec=LudersSpec(),
            initial_state=None,
            target_eigenvalue=None,
            expected_verdict=Verdict.LUDERS,
            expected_detected_at=None,
        ),
        Scenario(
            name="s2-vn-total-spin",
            summary="two spins, device resolves the degenerate eigenspace "
            "into total-spin states: caught by the first pass",
            sites=2,
            observable_expr=two_site_z,
            apparatus_spec=FullVonNeumannSpec(
                eigenbasis=(None, (plus_minus, minus_plus), None)
            ),
            initial_state=None,
            target_eigenvalue=None,
            expected_verdict=Verdict.NON_LUDERS,
            expected_detected_at=StageKind.SIGMA,
        ),
        Scenario(
            name="s3-consecutive",
            summary="two spins, consecutive single-site z measurements: "
            "caught by the second pass",
            sites=2,
            observable_expr=two_site_z,
            apparatus_spec=ConsecutiveSpec(
                observables=(((1.0, "ZI"),), ((1.0, "IZ"),))
            ),
            initial_state=None,
            target_eigenvalue=None,
            expected_verdict=Verdict.NON_LUDERS,
            expected_detected_at=StageKind.SIGMA_PRIME,
        ),
        Scenario(
            name="s4-partial-3spin",
            summary="three spins, consecutive z on sites 1 and 2 leaves "
            "rank-2 blocks: partial von Neumann, caught by the second pass",
            sites=3,
            observable_expr=three_site_z12,
            apparatus_spec=ConsecutiveSpec(
                observables=(((1.0, "ZII"),), ((1.0, "IZI"),))
            ),
            initial_state=None,
            target_eigenvalue=0.0,
            expected_verdict=Verdict.NON_LUDERS,
            expected_detected_at=StageKind.SIGMA_PRIME,
        ),
        Scenario(
            name="s5-nondegenerate",
            summary="two spins, non-degenerate observable: the reduction "
            "rules coincide, nothing to discriminate",
            sites=2,
            observable_expr=((2.0, "ZI"), (1.0, "IZ")),
            apparatus_spec=LudersSpec(),
            initial_state=None,
            target_eigenvalue=None,
            expected_verdict=Verdict.INDETERMINATE,
            expected_detected_at=None,
        ),
    )


def get_builtin(name: str) -> Scenario:
    for scenario in builtin_scenarios():
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in builtin_scenarios())
    raise KeyError(f"unknown scenario {name!r}; known scenarios: {known}")
