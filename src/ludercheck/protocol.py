"""The black-box discrimination protocol for the Lüders rule.

Given an apparatus that claims to measure a base observable, the protocol
decides from outcome statistics alone whether the apparatus reduces states
by the Lüders rule on a chosen degenerate eigenspace.  It prepares a
subensemble that returned the target eigenvalue, then interleaves the
apparatus between two measurements of an auxiliary non-degenerate
observable ``sigma``: if any system's second ``sigma`` outcome differs
from its first, the reduction was not Lüders.  A second pass swaps in an
auxiliary ``sigma_prime`` whose eigenvectors overlap every ``sigma``
eigenvector of the eigenspace, which catches the remaining case where the
hidden blocks happen to be diagonal in the ``sigma`` basis.  Consistency
in both passes identifies the Lüders rule: exactly, in exact mode, and up
to a quantified false-acceptance bound in sampled mode.  Pass two reuses
every trial of a consistent pass one, each already in the ``sigma``
eigenvector of its first outcome; since ``sigma_prime`` is measured first
and its eigenvectors are unbiased with respect to every such vector, no one
``sigma`` outcome needs to be singled out.

Both modes run the same passes over weighted pure rows, each held as a
row number into a small table of distinct states: the initial state or its
mixture components, the auxiliary eigenvectors after an auxiliary outcome,
and the apparatus's reductions of those.  Each measurement layer (the
selection, each auxiliary measurement, each apparatus use) is one table-row
transition: a kernel, the apparatus's ``branches`` or
:func:`ludercheck.quantum.measure_pure`, takes only the table and
enumerates each row's branches once, with its Born weight and its reduced
row in the next table, so outcomes stay integer indices until they reach
the evidence and the transcript.  The protocol asks the apparatus for
nothing but ``dim``, ``outcome_labels`` and ``branches``.

:func:`discriminate` builds one engine per run, :class:`Exact` or
:class:`Sampled`, which owns all that depends on the mode.  Its ``draw``
builds the unselected ensemble, and its ``measure`` runs a kernel once on
a table and returns ``(group, outcome, weight, next table, next index)``
for rows grouped by system or by trial.  The exact engine returns every
``(group, next row)`` of non-zero weight from one product of the group x
table weight matrix and the table x next-row Born matrix, so it builds no
density matrix.  The sampled engine holds the run's generator, draws one
branch per row through :func:`ludercheck.quantum.pick_branches`, and alone
keeps transcript records and quotes a false-acceptance bound.  A block of
Born weight at most DEFAULT_TOL is dropped in either mode, so it is never
drawn.  The probes, sigma's outcomes inside the target eigenspace, come
from :func:`ludercheck.quantum.build_sigma`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .apparatus import MeasurementApparatus
from .linalg import DEFAULT_TOL, hermitian_eig
from .quantum import (
    DensityMatrix,
    PureState,
    Refinement,
    SpectralDecomposition,
    build_sigma,
    build_sigma_prime,
    closest_label,
    measure_pure,
    pick_branches,
    renumber,
    spectral_decompose,
)


class Mode(Enum):
    EXACT = "exact"
    SAMPLED = "sampled"


class StageKind(Enum):
    """A protocol pass; pass ``p`` records transcript stages ``2 * p + step``."""

    SIGMA = "SIGMA"
    SIGMA_PRIME = "SIGMA_PRIME"


#: Transcript stage names: per pass, the auxiliary measurements before and
#: after the apparatus.  The apparatus outcome is not recorded: in a
#: completed run it is always the target eigenvalue.
STAGE_NAMES = ("SIGMA_1", "SIGMA_2", "SIGMA_PRIME_1", "SIGMA_PRIME_2")


class Verdict(Enum):
    LUDERS = "LUDERS"
    NON_LUDERS = "NON_LUDERS"
    INDETERMINATE = "INDETERMINATE"


class RepeatabilityError(RuntimeError):
    """The apparatus failed to reproduce the selected eigenvalue; aborting."""


class EmptySelectionError(ValueError):
    """No system survived a selection step; retry with a larger ensemble."""


def _check_type(name: str, value, kind: type):
    """Raise ValueError naming ``name`` unless ``value`` is a non-bool ``kind``."""
    if isinstance(value, bool) or not isinstance(value, kind):
        what = "an integer" if kind is numbers.Integral else "a real number"
        raise ValueError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters for :func:`discriminate`.

    ``target_eigenvalue`` of ``None`` selects the first degenerate
    eigenvalue in descending order; only sampled mode reads ``seed``.  The
    false-acceptance bound takes p* from the target eigenspace's dimension
    (:data:`P_STAR`), and every numerical threshold is fixed: a branch that
    holds at most DEFAULT_TOL of its system's weight is dropped, and the CLI
    report records that constant as ``config.tol``.
    """

    mode: Mode = Mode.EXACT
    ensemble_size: int = 1000
    target_eigenvalue: float | None = None
    seed: int | None = None

    def validate(self):
        if not isinstance(self.mode, Mode):
            raise ValueError(f"mode must be a Mode, got {self.mode!r}")
        _check_type("ensemble_size", self.ensemble_size, numbers.Integral)
        if self.seed is not None:
            _check_type("seed", self.seed, numbers.Integral)
        if self.target_eigenvalue is not None:
            _check_type("target_eigenvalue", self.target_eigenvalue, numbers.Real)
        if self.mode is Mode.SAMPLED and self.ensemble_size < 1:
            raise ValueError("sampled mode needs ensemble_size >= 1")
        target = self.target_eigenvalue
        if target is not None and not math.isfinite(target):
            raise ValueError(f"target_eigenvalue must be finite, got {target}")
        if self.seed is not None and self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True, eq=False)
class Transcript:
    """The measurement records of a sampled run, held as parallel arrays.

    Record ``i`` is system ``system_ids[i]`` measured at stage
    ``STAGE_NAMES[stages[i]]`` with outcome ``labels[i]``; its timestamp is
    its position ``i``.  The CLI report writes record ``i`` as the row
    ``[system_ids[i], STAGE_NAMES[stages[i]], labels[i]]`` at index ``i``.
    Each sampled system has two records per pass, its first and second
    auxiliary outcomes.  An exact run has no records.
    """

    system_ids: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    stages: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    labels: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return len(self.system_ids)


@dataclass(frozen=True)
class StageResult:
    """Evidence gathered by one auxiliary-observable pass.

    A trial is one system in sampled mode and one reached first auxiliary
    outcome (a probe) in exact mode.  ``mismatch_count`` counts the trials
    whose second outcome differs from the first (with more than DEFAULT_TOL
    of the trial's weight, in exact mode).  ``branch_support`` gives, per
    reached first outcome in label order, the distribution of the second
    outcome: empirical frequencies when sampled, Born weights when exact.
    Auxiliary outcomes of the target eigenspace that no trial reached are
    listed in ``unprobed_labels`` rather than silently skipped.
    """

    stage: StageKind
    consistent: bool
    observed_first_labels: tuple[float, ...]
    mismatch_count: int
    trials: int
    branch_support: tuple[tuple[float, tuple[tuple[float, float], ...]], ...]
    unprobed_labels: tuple[float, ...] = ()


@dataclass(frozen=True)
class Classification:
    """The protocol's verdict with its supporting evidence.

    ``false_acceptance_log10_bound`` is set on a sampled LUDERS verdict on an
    eigenspace whose dimension n is in :data:`P_STAR`: ``log10`` of
    ``(1 - P_STAR[n])**trials`` for a projective refinement, with ``trials``
    the fewest of any pass, kept as a logarithm so that it never underflows.
    """

    verdict: Verdict
    detected_at: StageKind | None
    evidence: tuple[StageResult, ...]
    false_acceptance_log10_bound: float | None
    transcript: Transcript
    target_eigenvalue: float | None = None


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Systems selected for one protocol pass, as weighted pure rows.

    Row ``i`` is the normalised pure state ``table[index[i]]`` of system
    ``ids[i]`` and stands for ``weights[i]`` of the run.  ``table`` holds
    distinct states, which many rows may share and no row may need.  A
    :class:`Sampled` engine keeps one row of weight one per selected system,
    with its id in the unselected ensemble.  An :class:`Exact` engine
    follows a single system, id 0, over one row per table state it reaches,
    weighted by its Born probability.
    """

    table: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    ids: np.ndarray


#: Certified p*(n): the least chance, over non-Lüders projective refinements
#: of an n-dimensional eigenspace, that a trial is disturbed in either pass.
#: At n = 2 the only such refinement is rank-one blocks {u, u_perp}.  With
#: x = sin^2(2 theta), theta u's angle to the sigma basis and phi its
#: relative phase, pass one disturbs with d1 = x/2 and pass two with
#: d2 = (1 - x cos^2 phi)/2, so a trial survives both with chance at most
#: (1 - x/2)(1 + x)/2 <= 9/16, the maximum at x = 1/2: the pi/8 rotation.
P_STAR = {2: 7 / 16}


def required_ensemble_size(p_star: float, confidence: float) -> int:
    """Smallest N with (1 - p_star)**N <= confidence."""
    if not 0.0 < p_star < 1.0:
        raise ValueError("p_star must lie strictly between 0 and 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    miss = 1.0 - p_star
    n = max(1, math.ceil(math.log(confidence) / math.log(miss) - 1e-12))
    while miss**n > confidence:
        n += 1
    while n > 1 and miss ** (n - 1) <= confidence:
        n -= 1
    return n


def classify_refinement_oracle(refinement: Refinement, k: int) -> Verdict:
    """Ground truth from the hidden structure: Lüders iff eigenspace k is one block."""
    if not 0 <= k < refinement.base.group_count:
        raise ValueError(f"eigenspace index {k} out of range")
    return Verdict.LUDERS if refinement.block_count(k) == 1 else Verdict.NON_LUDERS


def _as_pure_mixture(
    initial: PureState | DensityMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve an initial state into a pure-state mixture.

    Returns the cumulative mixture weights, ending at exactly 1, and the
    component state vectors as rows.
    """
    if isinstance(initial, PureState):
        return np.ones(1), initial.vector[None, :]
    # Mixture weights are the eigenvalues of the density matrix.
    w, v = hermitian_eig(initial.matrix)
    keep = w > DEFAULT_TOL
    if not keep.any():
        raise ValueError("initial density matrix has no positive-weight component")
    cdf = np.cumsum(w[keep])
    return cdf / cdf[-1], v[:, keep].T


class Sampled:
    """Sampled mode: every row is one system, and a measurement draws its branch."""

    def __init__(self, size: int, seed: int | None):
        self.size = size
        self.rng = np.random.default_rng(seed)
        self.records: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def draw(self, cdf, components):
        """``size`` systems of weight one, each picking a mixture component."""
        pick = np.searchsorted(cdf, self.rng.random(self.size), side="right")
        return Ensemble(components, pick, np.ones(self.size), np.arange(self.size))

    def measure(self, kernel, table, index, weights, group):
        """One branch per row, drawn from its table row's enumerated branches."""
        rows, outcomes, w, post, post_index = kernel(table)
        pick = pick_branches(rows, w, index, self.rng.random(len(index)))
        return group, outcomes[pick], weights, post, post_index[pick]

    def record(self, ids, stage, first, second):
        """System ``ids[i]`` saw ``first[i]`` at ``stage``, then ``second[i]``."""
        labels = np.empty(2 * len(ids))
        labels[0::2], labels[1::2] = first, second
        self.records.append((
            np.repeat(ids, 2), np.tile(stage + np.arange(2), len(ids)), labels
        ))

    def transcript(self) -> Transcript:
        """Every recorded pass, in order."""
        return Transcript(*(np.concatenate(part) for part in zip(*self.records)))

    def bound(self, evidence, n) -> float | None:
        """``log10`` of a consistent run's false-acceptance bound, if P_STAR has n."""
        if n not in P_STAR:
            return None
        # Pass two reuses pass one's trials, so one pass's trials count.
        return min(s.trials for s in evidence) * math.log10(1.0 - P_STAR[n])


class Exact:
    """Exact mode: one system, and a measurement multiplies Born matrices."""

    def draw(self, cdf, components):
        """Every mixture component, weighted by its probability."""
        return Ensemble(
            components, np.arange(len(cdf)), np.diff(cdf, prepend=0.0),
            np.zeros(len(cdf), dtype=np.int64),
        )

    def measure(self, kernel, table, index, weights, group):
        """Each group's weight over the table, times the table's Born matrix."""
        rows, outcomes, w, post, post_index = kernel(table)
        size = len(table)
        held = np.bincount(group * size + index, weights, (int(group.max()) + 1) * size)
        born = np.zeros((size, len(post)))
        # A reduced row lies in one block, so a table row reaches it once.
        born[rows, post_index] = w
        reached = held.reshape(-1, size) @ born
        group, row = reached.nonzero()
        outcome = np.empty(len(post), dtype=outcomes.dtype)
        outcome[post_index] = outcomes
        return group, outcome[row], reached[group, row], post, row

    def record(self, ids, stage, first, second):
        pass

    def transcript(self) -> Transcript:
        return Transcript()

    def bound(self, evidence, n) -> None:
        return None


def prepare_ensemble(
    initial: PureState | DensityMatrix,
    app: MeasurementApparatus,
    target: int,
    engine: Sampled | Exact,
) -> Ensemble:
    """Measure the initial state and keep what returned outcome ``target``.

    ``target`` indexes ``app.outcome_labels``.  A sampled engine draws its
    ``size`` systems from the initial state and keeps those whose apparatus
    outcome matched, with their ids.  An exact engine enumerates every
    branch of every mixture component and keeps the target outcome's rows.
    """
    drawn = engine.draw(*_as_pure_mixture(initial))
    system, coarse, weights, table, index = engine.measure(
        app.branches, drawn.table, drawn.index, drawn.weights, drawn.ids
    )
    kept = coarse == target
    # Some system must keep more than DEFAULT_TOL of its weight.
    selected = np.bincount(system, weights * kept)
    if not (selected > DEFAULT_TOL * np.bincount(system, weights)).any():
        raise EmptySelectionError(
            f"nothing returned eigenvalue {app.outcome_labels[target]}; the "
            "initial state may be orthogonal to its eigenspace, or a sampled "
            "ensemble too small -- retry with a larger ensemble_size"
        )
    # The selected systems' table holds only the states they are in.
    used, index = renumber(index[kept], len(table))
    return Ensemble(table[used], index, weights[kept], system[kept])


def run_stage(
    ensemble: Ensemble,
    aux: SpectralDecomposition,
    app: MeasurementApparatus,
    target: int,
    probes: np.ndarray,
    kind: StageKind,
    engine: Sampled | Exact,
) -> tuple[StageResult, Ensemble]:
    """One pass: auxiliary measurement, apparatus, auxiliary measurement again.

    ``target`` indexes ``app.outcome_labels`` and ``probes`` holds the
    auxiliary outcomes inside the target eigenspace.  The first auxiliary
    measurement groups by system: a trial is a system and a first outcome,
    one state since ``aux`` is non-degenerate.  The apparatus and the second
    auxiliary measurement group by trial, and one weighted table of first
    against second outcomes gives the evidence.  Returns the evidence and
    the trials, each in its first outcome's eigenvector, which after a
    consistent pass is the ensemble of a follow-up pass.  The ``engine``
    measures and receives each trial's two outcome labels as records.
    Raises :class:`RepeatabilityError` if a selected state lies outside the
    target eigenspace or the apparatus fails to reproduce the target
    outcome.
    """
    n = aux.group_count
    observe = partial(measure_pure, aux)
    system, first, weights, table, index = engine.measure(
        observe, ensemble.table, ensemble.index, ensemble.weights, ensemble.ids
    )
    # A trial is a system and a first outcome; it counts when it holds more
    # than DEFAULT_TOL of its system's weight.
    system_weight = np.bincount(ensemble.ids, ensemble.weights)
    live = weights > DEFAULT_TOL * system_weight[system]
    first = first[live]
    outside = np.ones(n, dtype=bool)
    outside[probes] = False
    if outside[first].any():
        raise RepeatabilityError(
            "a selected state is not in the eigenspace of eigenvalue "
            f"{app.outcome_labels[target]}; the apparatus does not measure "
            "the base observable"
        )
    # After a non-degenerate outcome the state is that outcome's eigenvector.
    trials = Ensemble(table, index[live], weights[live], system[live])

    trial, coarse, weights, table, index = engine.measure(
        app.branches, trials.table, trials.index, trials.weights,
        np.arange(len(first)),
    )
    kept = coarse == target
    reproduced = np.bincount(trial, weights * kept, len(first))
    if (reproduced < (1.0 - 1e-6) * trials.weights).any():
        raise RepeatabilityError(
            f"apparatus failed to reproduce eigenvalue "
            f"{app.outcome_labels[target]} on a selected state; it does not "
            "measure the base observable"
        )
    trial, second, weights, _, _ = engine.measure(
        observe, table, index[kept], weights[kept], trial[kept]
    )
    first_of, labels = first[trial], aux.eigenvalues
    values = np.array(labels)
    engine.record(
        trials.ids, 2 * tuple(StageKind).index(kind), values[first], values[second]
    )
    table = np.bincount(first_of * n + second, weights, minlength=n * n)
    table = table.reshape(n, n)
    reached = table.sum(axis=1)
    moved = np.bincount(trial, weights * (second != first_of), len(first))
    mismatches = int(np.count_nonzero(moved > DEFAULT_TOL * reproduced))
    # A second outcome has support when it holds more than DEFAULT_TOL of its
    # first outcome's weight: an exact run's first outcome is one trial, and
    # a sampled trial weighs one.
    a, b = np.nonzero(table > DEFAULT_TOL * reached[:, None])
    frequency = (table[a, b] / reached[a]).tolist()
    support_of = {x: [] for x in np.flatnonzero(reached).tolist()}
    for x, y, f in zip(a.tolist(), b.tolist(), frequency):
        support_of[x].append((labels[y], f))
    # Each first outcome's earliest trial gives the order of observation.
    seen = np.full(n, len(first))
    np.minimum.at(seen, first, np.arange(len(first)))
    observed = np.argsort(seen, kind="stable")[: np.count_nonzero(seen < len(first))]
    result = StageResult(
        stage=kind,
        consistent=mismatches == 0,
        observed_first_labels=tuple(labels[a] for a in observed),
        mismatch_count=mismatches,
        trials=len(first),
        branch_support=tuple(
            (labels[a], tuple(pairs)) for a, pairs in support_of.items()
        ),
        unprobed_labels=tuple(labels[a] for a in probes if not reached[a]),
    )
    return result, trials


def resolve_target(
    decomp: SpectralDecomposition, target_eigenvalue: float | None
) -> int | None:
    """The eigenspace to interrogate, or None when the verdict is indeterminate.

    It is the group of ``target_eigenvalue`` if that is degenerate, and with
    no target eigenvalue the first degenerate group.
    """
    if target_eigenvalue is not None:
        k = decomp.group_index(target_eigenvalue)
        return k if decomp.multiplicities[k] >= 2 else None
    for k, n in enumerate(decomp.multiplicities):
        if n >= 2:
            return k
    return None


def discriminate(
    initial: PureState | DensityMatrix,
    app: MeasurementApparatus,
    observable: np.ndarray,
    config: ProtocolConfig | None = None,
) -> Classification:
    """Decide whether the apparatus reduces states by the Lüders rule.

    The verdict concerns the target eigenspace: NON_LUDERS as soon as one
    pass shows a disturbed auxiliary outcome, LUDERS when both passes are
    consistent, INDETERMINATE when the target eigenvalue is non-degenerate
    (the reduction rules then coincide and nothing can distinguish them).
    Raises ValueError if the apparatus acts on another dimension than the
    observable, and :class:`RepeatabilityError` if it has no outcome for the
    target eigenvalue.
    """
    if config is None:
        config = ProtocolConfig()
    config.validate()
    decomp = spectral_decompose(observable)
    if app.dim != decomp.dim:
        raise ValueError(
            f"the apparatus acts on dimension {app.dim}, the observable on "
            f"dimension {decomp.dim}"
        )
    k = resolve_target(decomp, config.target_eigenvalue)
    if k is None:
        return Classification(
            verdict=Verdict.INDETERMINATE,
            detected_at=None,
            evidence=(),
            false_acceptance_log10_bound=None,
            transcript=Transcript(),
        )
    target_label = decomp.eigenvalues[k]
    target = closest_label(app.outcome_labels, target_label)
    if target is None:
        raise RepeatabilityError(
            f"the apparatus has no outcome {target_label}; it does not "
            "measure the base observable"
        )
    sampled = config.mode is Mode.SAMPLED
    engine = Sampled(config.ensemble_size, config.seed) if sampled else Exact()

    ensemble = prepare_ensemble(initial, app, target, engine)
    sigma, owner = build_sigma(decomp)
    # sigma_prime keeps sigma's outcomes, so both share these indices.
    probes = np.flatnonzero(owner == k)
    first, trials = run_stage(
        ensemble, sigma, app, target, probes, StageKind.SIGMA, engine
    )
    evidence = (first,)
    if first.consistent:
        second, _ = run_stage(
            trials, build_sigma_prime(sigma, probes), app, target, probes,
            StageKind.SIGMA_PRIME, engine,
        )
        evidence = (first, second)
    detected = next((s.stage for s in evidence if not s.consistent), None)
    return Classification(
        verdict=Verdict.LUDERS if detected is None else Verdict.NON_LUDERS,
        detected_at=detected,
        evidence=evidence,
        false_acceptance_log10_bound=(
            engine.bound(evidence, len(probes)) if detected is None else None
        ),
        transcript=engine.transcript(),
        target_eigenvalue=target_label,
    )
