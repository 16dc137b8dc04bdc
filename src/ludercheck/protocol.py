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
selection, each auxiliary measurement, each apparatus use) is one kernel
call on all rows at once; Born weights and reductions are computed once per
table row, so per-system work is gathers of indices and weights, and
outcomes stay integer indices until they reach the evidence and the
transcript.  The mode picks the kernel, nothing else: sampled mode draws
one branch per system through :func:`ludercheck.quantum.collapse`, exact
mode enumerates every branch through :func:`ludercheck.quantum.branches`
and so builds no density matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .apparatus import MeasurementApparatus
from .linalg import DEFAULT_TOL, hermitian_eig
from .quantum import (
    DensityMatrix,
    PureState,
    Refinement,
    SpectralDecomposition,
    branches,
    build_sigma,
    build_sigma_prime,
    closest_label,
    measure_pure,
    renumber,
    sigma_entries_in_group,
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


@dataclass(frozen=True)
class ProtocolConfig:
    """Run parameters for :func:`discriminate`.

    ``target_eigenvalue`` of ``None`` selects the first degenerate
    eigenvalue in descending order.  ``min_disturbance`` is the per-system
    mismatch probability assumed of any non-Lüders apparatus, at the pass
    that detects it, when quoting the sampled-mode false-acceptance bound
    ``(1 - p)**trials``.  Every numerical threshold is fixed: a branch that
    holds at most DEFAULT_TOL of its system's weight is dropped, and the CLI
    report records that constant as ``config.tol``.
    """

    mode: Mode = Mode.EXACT
    ensemble_size: int = 1000
    target_eigenvalue: float | None = None
    min_disturbance: float = 0.5
    seed: int | None = None

    def validate(self):
        if self.mode is Mode.SAMPLED and self.ensemble_size < 1:
            raise ValueError("sampled mode needs ensemble_size >= 1")
        if not 0.0 < self.min_disturbance < 1.0:
            raise ValueError("min_disturbance must lie strictly between 0 and 1")


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

    @classmethod
    def concatenate(cls, parts: list[Transcript]) -> Transcript:
        if not parts:
            return cls()
        return cls(
            np.concatenate([t.system_ids for t in parts]),
            np.concatenate([t.stages for t in parts]),
            np.concatenate([t.labels for t in parts]),
        )

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

    ``false_acceptance_log10_bound`` is set on a sampled LUDERS verdict:
    ``log10`` of ``(1 - min_disturbance)**trials``, with ``trials`` the
    fewest of any pass, kept as a logarithm so that it never underflows.
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
    distinct states, which many rows may share and no row may need.  Sampled
    mode keeps one row of weight one per selected system, with its id in the
    unselected ensemble.  Exact mode follows a single system, id 0, over rows
    weighted by their Born probabilities.
    """

    table: np.ndarray
    index: np.ndarray
    weights: np.ndarray
    ids: np.ndarray


def required_ensemble_size(min_disturbance: float, confidence: float) -> int:
    """Smallest N with (1 - min_disturbance)**N <= confidence."""
    if not 0.0 < min_disturbance < 1.0:
        raise ValueError("min_disturbance must lie strictly between 0 and 1")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    miss = 1.0 - min_disturbance
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


class _Sampled:
    """Sampled mode: every row is one system, and a measurement draws its branch."""

    def __init__(self, size: int, rng: np.random.Generator):
        self.size = size
        self.rng = rng

    def draw(self, cdf, components):
        """``size`` systems of weight one, each picking a mixture component."""
        pick = np.searchsorted(cdf, self.rng.random(self.size), side="right")
        return Ensemble(components, pick, np.ones(self.size), np.arange(self.size))

    def observe(self, aux, table, index, weights):
        return np.arange(len(index)), measure_pure(aux, table, index, self.rng), weights

    def apparatus(self, app, table, index, weights):
        outcomes, post, post_index = app.measure_sampled(table, index, self.rng)
        return np.arange(len(index)), outcomes, weights, post, post_index


class _Exact:
    """Exact mode: one system over Born-weighted rows, every branch enumerated."""

    def draw(self, cdf, components):
        """Every mixture component, weighted by its probability."""
        return Ensemble(
            components, np.arange(len(cdf)), np.diff(cdf, prepend=0.0),
            np.zeros(len(cdf), dtype=np.int64),
        )

    def observe(self, aux, table, index, weights):
        return branches(table @ aux.basis.conj(), aux.starts, index, weights)

    def apparatus(self, app, table, index, weights):
        return app.branches(table, index, weights)


def _kernel(config: ProtocolConfig, rng: np.random.Generator) -> _Sampled | _Exact:
    """What the mode picks: the measurement kernels.

    ``draw`` builds the unselected ensemble from a mixture.  ``apparatus``
    measures weighted rows ``table[index]`` and returns, per kept branch, its
    source row, outcome index and weight, and the reduced states as a table
    with each branch's row in it; ``observe`` does the same for a
    non-degenerate auxiliary observable without the reduced states, which
    are its eigenvectors.
    """
    if config.mode is Mode.SAMPLED:
        return _Sampled(config.ensemble_size, rng)
    return _Exact()


def prepare_ensemble(
    initial: PureState | DensityMatrix,
    app: MeasurementApparatus,
    target: int,
    config: ProtocolConfig,
    rng: np.random.Generator,
) -> Ensemble:
    """Measure the initial state and keep what returned outcome ``target``.

    ``target`` indexes ``app.outcome_labels``.  Sampled mode draws
    ``ensemble_size`` systems from the initial state and keeps those whose
    apparatus outcome matched, with their ids.  Exact mode enumerates every
    branch of every mixture component and keeps the target outcome's rows.
    """
    kernel = _kernel(config, rng)
    drawn = kernel.draw(*_as_pure_mixture(initial))
    rows, coarse, weights, table, index = kernel.apparatus(
        app, drawn.table, drawn.index, drawn.weights
    )
    kept = coarse == target
    # Some system must keep more than DEFAULT_TOL of its weight.
    system = drawn.ids[rows]
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


def _merge(keys: np.ndarray, weights: np.ndarray, size: int) -> tuple[np.ndarray, ...]:
    """Distinct ``keys`` (in ``0..size-1``) ascending, with their summed weights.

    Strictly increasing keys (one sampled row per system) pass through unmerged."""
    if (keys[1:] > keys[:-1]).all():
        return keys, weights
    keys, number = renumber(keys, size)
    return keys, np.bincount(number, weights)


def run_stage(
    ensemble: Ensemble,
    aux: SpectralDecomposition,
    app: MeasurementApparatus,
    target: int,
    probes: np.ndarray,
    kind: StageKind,
    config: ProtocolConfig,
    rng: np.random.Generator,
    transcript: list[Transcript] | None = None,
) -> tuple[StageResult, Ensemble]:
    """One pass: auxiliary measurement, apparatus, auxiliary measurement again.

    ``target`` indexes ``app.outcome_labels`` and ``probes`` holds the
    auxiliary outcomes inside the target eigenspace.  The rows of one system
    that reach the same first outcome are one state, since ``aux`` is
    non-degenerate, and merge into one trial.  Every row keeps its trial's
    index, and one weighted table of first against second outcomes gives
    the evidence.  Returns the evidence and the trials, each in its first
    outcome's eigenvector, which after a consistent pass is the ensemble of
    a follow-up pass.  A given ``transcript`` receives the pass's records;
    only sampled rows, which stay one per system, make records.  Raises
    :class:`RepeatabilityError` if a selected state lies outside the target
    eigenspace or the apparatus fails to reproduce the target outcome.
    """
    kernel = _kernel(config, rng)
    n = aux.group_count
    rows, first, weights = kernel.observe(
        aux, ensemble.table, ensemble.index, ensemble.weights
    )
    # A trial is a system and a first outcome, keyed in system-major order;
    # it counts when it holds more than DEFAULT_TOL of its system's weight.
    keys, weights = _merge(
        ensemble.ids[rows] * n + first, weights, (int(ensemble.ids.max()) + 1) * n
    )
    system_weight = np.bincount(ensemble.ids, ensemble.weights)
    live = weights > DEFAULT_TOL * system_weight[keys // n]
    keys, weights = keys[live], weights[live]
    first = keys % n
    outside = np.ones(n, dtype=bool)
    outside[probes] = False
    if outside[first].any():
        raise RepeatabilityError(
            "a selected state is not in the eigenspace of eigenvalue "
            f"{app.outcome_labels[target]}; the apparatus does not measure "
            "the base observable"
        )
    # After a non-degenerate outcome the state is that outcome's eigenvector:
    # the trials' table holds the reached ones.
    reached, index = renumber(first, n)
    trials = Ensemble(aux.basis.T[reached], index, weights, keys // n)

    rows, coarse, weights, table, index = kernel.apparatus(
        app, trials.table, trials.index, trials.weights
    )
    kept = coarse == target
    reproduced = np.bincount(rows, weights * kept, len(first))
    if (reproduced < (1.0 - 1e-6) * trials.weights).any():
        raise RepeatabilityError(
            f"apparatus failed to reproduce eigenvalue "
            f"{app.outcome_labels[target]} on a selected state; it does not "
            "measure the base observable"
        )
    rows2, second, weights = kernel.observe(aux, table, index[kept], weights[kept])
    trial = rows[kept][rows2]
    first_of, labels = first[trial], aux.eigenvalues
    if transcript is not None:
        # Per system, its two records in measurement order.
        transcript.append(Transcript(
            np.repeat(trials.ids, 2),
            np.tile(2 * tuple(StageKind).index(kind) + np.arange(2), len(first)),
            np.column_stack([np.take(labels, first), np.take(labels, second)]).ravel(),
        ))
    table = np.bincount(first_of * n + second, weights, minlength=n * n)
    table = table.reshape(n, n)
    reached = table.sum(axis=1)
    moved = np.bincount(trial, weights * (second != first_of), len(first))
    mismatches = int(np.count_nonzero(moved > DEFAULT_TOL * reproduced))
    # A second outcome has support when some trial reached it with more
    # than DEFAULT_TOL of that trial's weight.
    cells, cell_weights = _merge(trial * n + second, weights, len(first) * n)
    heavy = cells[cell_weights > DEFAULT_TOL * reproduced[cells // n]]
    support = np.zeros((n, n), dtype=bool)
    support[first[heavy // n], heavy % n] = True
    a, b = np.nonzero(support)
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


def resolve_target(decomp: SpectralDecomposition, config: ProtocolConfig) -> int | None:
    """The eigenspace to interrogate, or None when the verdict is indeterminate."""
    if config.target_eigenvalue is not None:
        k = decomp.group_index(config.target_eigenvalue)
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
    k = resolve_target(decomp, config)
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
    rng = np.random.default_rng(config.seed)
    transcript = [] if config.mode is Mode.SAMPLED else None

    ensemble = prepare_ensemble(initial, app, target, config, rng)
    sigma = build_sigma(decomp)
    # sigma_prime keeps sigma's outcomes, so both share these indices.
    probes = sigma_entries_in_group(decomp, sigma, k)
    first, trials = run_stage(
        ensemble, sigma, app, target, probes, StageKind.SIGMA, config, rng,
        transcript,
    )
    evidence = (first,)
    if first.consistent:
        second, _ = run_stage(
            trials, build_sigma_prime(sigma, probes), app, target, probes,
            StageKind.SIGMA_PRIME, config, rng, transcript,
        )
        evidence = (first, second)
    detected = next((s.stage for s in evidence if not s.consistent), None)
    bound = None
    if detected is None and config.mode is Mode.SAMPLED:
        # Either pass alone may have to detect, so only one pass's trials count.
        bound = min(s.trials for s in evidence) * math.log10(
            1.0 - config.min_disturbance
        )
    return Classification(
        verdict=Verdict.LUDERS if detected is None else Verdict.NON_LUDERS,
        detected_at=detected,
        evidence=evidence,
        false_acceptance_log10_bound=bound,
        transcript=Transcript.concatenate(transcript or []),
        target_eigenvalue=target_label,
    )
