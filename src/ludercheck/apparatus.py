"""Black-box measurement apparatuses built over a hidden refinement.

An apparatus measures a base observable, but internally it may resolve each
degenerate eigenspace into finer blocks before reporting the coarse
eigenvalue.  The refinement is construct-time data: the public surface
exposes only sampled outcomes and the exact outcome-labelled channel, never
the block structure.  :meth:`MeasurementApparatus.reveal_refinement` exists
solely for ground-truth oracles and gated diagnostics; the discrimination
protocol must never call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL
from .quantum import (
    DensityMatrix,
    Refinement,
    SpectralDecomposition,
    collapse,
    spread_labels,
)


class Stage(Enum):
    """Protocol positions at which a single measurement can occur."""

    SIGMA_1 = "SIGMA_1"
    APPARATUS_A = "APPARATUS_A"
    SIGMA_2 = "SIGMA_2"
    SIGMA_PRIME_1 = "SIGMA_PRIME_1"
    APPARATUS_A_2 = "APPARATUS_A_2"
    SIGMA_PRIME_2 = "SIGMA_PRIME_2"


@dataclass(frozen=True)
class MeasurementRecord:
    """One measurement event in a sampled protocol run."""

    system_id: int
    stage: Stage
    label: float
    timestamp_index: int


def _labels_close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-6 * (1.0 + abs(b)))


class MeasurementApparatus:
    """A measurement device for a base observable with hidden reduction rule.

    Outcomes carry the base observable's eigenvalues (or a caller-supplied
    relabelling that is constant on eigenspaces, which amounts to the same
    outcomes).  State reduction follows the hidden refinement: the state is
    projected onto one refinement block, chosen by the Born rule.
    """

    def __init__(
        self,
        refinement: Refinement,
        output_map: Callable[[float], float] | None = None,
    ):
        self._refinement = refinement
        base = refinement.base
        if output_map is not None:
            for k, group_labels in enumerate(refinement.labels):
                expected = base.eigenvalues[k]
                for lab in group_labels:
                    got = float(output_map(lab))
                    if not _labels_close(got, expected):
                        raise ValueError(
                            f"output map sends refined label {lab} to {got}, "
                            f"but every block of eigenspace {k} must map to "
                            f"{expected}"
                        )
        # Flat block layout: columns of one unitary matrix, block spans as
        # (start, stop) slices, and the eigenspace index per block.
        cols = []
        spans = []
        groups = []
        offset = 0
        for k, cells in enumerate(refinement.blocks):
            for cell in cells:
                for i in cell:
                    cols.append(refinement.basis[k][i])
                spans.append((offset, offset + len(cell)))
                groups.append(k)
                offset += len(cell)
        self._basis = np.column_stack(cols)
        self._spans = tuple(spans)
        self._groups = tuple(groups)
        self._starts = np.array([s for s, _ in spans])

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def outcome_labels(self) -> tuple[float, ...]:
        """The coarse outcome labels, i.e. the base observable's eigenvalues."""
        return self._refinement.base.eigenvalues

    def reveal_refinement(self) -> Refinement:
        """Ground-truth access for oracles and gated diagnostics only."""
        return self._refinement

    def measure_sampled(
        self, states: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Measure every row of ``states``: sample a block, project, renormalise.

        One ``rng.random(len(states))`` draw picks the blocks.  Returns the
        coarse outcome of each row, as an index into :attr:`outcome_labels`,
        and the reduced rows.
        """
        if states.shape[1] != self.dim:
            raise ValueError("state dimension does not match the apparatus")
        blocks, post = collapse(
            self._basis, self._starts, states, rng.random(len(states))
        )
        return np.take(self._groups, blocks), post

    def channel_exact(
        self, rho: DensityMatrix
    ) -> list[tuple[float, float, DensityMatrix]]:
        """The exact outcome-labelled channel on a density matrix.

        Returns ``(label, probability, branch_state)`` per coarse outcome in
        descending label order, omitting outcomes of numerically zero
        probability.  Probabilities sum to one.
        """
        if rho.dim != self.dim:
            raise ValueError("state dimension does not match the apparatus")
        per_group: dict[int, np.ndarray] = {}
        for (lo, hi), k in zip(self._spans, self._groups):
            block = self._basis[:, lo:hi]
            inner = block.conj().T @ rho.matrix @ block
            branch = block @ inner @ block.conj().T
            if k in per_group:
                per_group[k] = per_group[k] + branch
            else:
                per_group[k] = branch
        out = []
        for k in sorted(per_group):
            acc = per_group[k]
            prob = float(np.trace(acc).real)
            if prob <= DEFAULT_TOL:
                continue
            out.append(
                (self._refinement.base.eigenvalues[k], prob, DensityMatrix(acc / prob))
            )
        return out


def _device(base: SpectralDecomposition, basis, blocks) -> MeasurementApparatus:
    """An apparatus over ``basis`` and ``blocks`` with spread refined labels."""
    labels = spread_labels(base.eigenvalues, [len(cells) for cells in blocks])
    return MeasurementApparatus(
        Refinement(base=base, basis=basis, blocks=blocks, labels=labels)
    )


def make_luders(base: SpectralDecomposition) -> MeasurementApparatus:
    """An apparatus that reduces by the Lüders rule: one block per eigenspace."""
    blocks = tuple((tuple(range(n)),) for n in base.multiplicities)
    return _device(base, base.eigenbasis, blocks)


def make_full_von_neumann(
    base: SpectralDecomposition,
    eigenbasis_choice: Sequence[Sequence[np.ndarray] | None] | None = None,
) -> MeasurementApparatus:
    """An apparatus that resolves every eigenspace into rank-1 blocks.

    ``eigenbasis_choice`` optionally replaces the canonical basis of each
    eigenspace (``None`` entries keep the canonical one); the choice fixes
    which orthonormal directions the reduction projects onto.
    """
    basis = []
    for k, group in enumerate(base.eigenbasis):
        choice = None
        if eigenbasis_choice is not None:
            if len(eigenbasis_choice) != base.group_count:
                raise ValueError("need one basis choice (or None) per eigenspace")
            choice = eigenbasis_choice[k]
        if choice is None:
            basis.append(group)
        else:
            basis.append(tuple(linalg.as_vector(v).copy() for v in choice))
    blocks = tuple(tuple((i,) for i in range(n)) for n in base.multiplicities)
    return _device(base, tuple(basis), blocks)


def make_partial(
    base: SpectralDecomposition,
    blocks: Sequence[Sequence[Sequence[int]]],
) -> MeasurementApparatus:
    """An apparatus with caller-chosen blocks over the canonical eigenbases.

    ``blocks[k]`` must partition ``0..n_k - 1``; cells of size > 1 keep
    Lüders-style coherence inside themselves, so the device is a partial
    von Neumann measurement in general.
    """
    cells = tuple(
        tuple(tuple(int(i) for i in cell) for cell in group) for group in blocks
    )
    return _device(base, base.eigenbasis, cells)
