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
in both passes identifies the Lüders rule: exactly, in the exact channel
mode, and up to a quantified false-acceptance bound in sampled mode.

Sampled mode runs the ensemble as arrays: each measurement layer (the
selection, each auxiliary measurement, each apparatus use) acts on every
system at once through :func:`ludercheck.quantum.collapse`, and outcomes
stay integer indices until they reach the transcript and the evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .apparatus import (
    MeasurementApparatus,
    MeasurementRecord,
    Stage,
    _labels_close,
)
from .linalg import DEFAULT_TOL, hermitian_eig
from .quantum import (
    DensityMatrix,
    PureState,
    Refinement,
    SpectralDecomposition,
    build_sigma,
    build_sigma_prime,
    measure_pure,
    spectral_decompose,
    _sigma_entries_in_group,
)


class Mode(Enum):
    EXACT = "exact"
    SAMPLED = "sampled"


class StageKind(Enum):
    SIGMA = "SIGMA"
    SIGMA_PRIME = "SIGMA_PRIME"


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
    mismatch probability assumed of any non-Lüders apparatus when quoting
    the sampled-mode false-acceptance bound ``(1 - p)**trials``.
    """

    mode: Mode = Mode.EXACT
    ensemble_size: int = 1000
    target_eigenvalue: float | None = None
    min_disturbance: float = 0.5
    confidence: float = 1e-3
    tol: float = DEFAULT_TOL
    grouping_threshold: float | None = None
    seed: int | None = None

    def validate(self):
        if self.mode is Mode.SAMPLED and self.ensemble_size < 1:
            raise ValueError("sampled mode needs ensemble_size >= 1")
        if not 0.0 < self.min_disturbance < 1.0:
            raise ValueError("min_disturbance must lie strictly between 0 and 1")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


_STAGES = tuple(Stage)


@dataclass(frozen=True, eq=False)
class Transcript:
    """The measurement records of a sampled run, held as parallel arrays.

    Record ``i`` is system ``system_ids[i]`` measured at stage
    ``tuple(Stage)[stages[i]]`` with outcome ``labels[i]``; its timestamp is
    its position ``i``.  Iterating yields :class:`MeasurementRecord` objects.
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

    def __iter__(self):
        for i, (sid, stage, label) in enumerate(zip(
            self.system_ids.tolist(), self.stages.tolist(), self.labels.tolist()
        )):
            yield MeasurementRecord(sid, _STAGES[stage], label, i)

    def __eq__(self, other):
        if not isinstance(other, Transcript):
            return NotImplemented
        return (
            np.array_equal(self.system_ids, other.system_ids)
            and np.array_equal(self.stages, other.stages)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass(frozen=True)
class StageResult:
    """Evidence gathered by one auxiliary-observable pass.

    Sampled mode counts per-system mismatches between the two auxiliary
    measurements.  In both modes ``branch_support`` gives, per reached first
    outcome in label order, the distribution of the second outcome: exact
    Born weights in exact mode, empirical first-to-second frequencies over
    the systems in sampled mode.  Outcomes of the eigenspace that an
    exact-mode ensemble state cannot reach are listed in ``unprobed_labels``
    rather than silently skipped.
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
    """The protocol's verdict with its supporting evidence."""

    verdict: Verdict
    detected_at: StageKind | None
    evidence: tuple[StageResult, ...]
    false_acceptance_bound: float | None
    transcript: Transcript
    target_eigenvalue: float | None = None
    reference_label: float | None = None


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Systems selected for one protocol pass.

    Sampled mode carries the selected systems as arrays: ``ids`` holds each
    system's id in the unselected ensemble and row ``i`` of ``states`` its
    normalised pure state.  Exact mode carries the one branch density matrix
    the selection produces.
    """

    provenance: str
    ids: np.ndarray | None = None
    states: np.ndarray | None = None
    state: DensityMatrix | None = None

    @property
    def size(self) -> int:
        return len(self.ids) if self.ids is not None else 0


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
    initial: PureState | DensityMatrix, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve an initial state into a pure-state mixture for sampling.

    Returns the cumulative mixture weights, ending at exactly 1, and the
    component state vectors as rows.
    """
    if isinstance(initial, PureState):
        return np.ones(1), initial.vector[None, :]
    # Mixture weights are the eigenvalues of the density matrix.
    w, v = hermitian_eig(initial.matrix, tol)
    keep = w > tol
    if not keep.any():
        raise ValueError("initial density matrix has no positive-weight component")
    cdf = np.cumsum(w[keep])
    return cdf / cdf[-1], v[:, keep].T


def _coarse_index(app: MeasurementApparatus, label: float) -> int:
    """The index of ``label`` among the apparatus outcomes, or -1 if absent."""
    for i, lab in enumerate(app.outcome_labels):
        if _labels_close(lab, label):
            return i
    return -1


def prepare_ensemble(
    initial: PureState | DensityMatrix,
    app: MeasurementApparatus,
    target_label: float,
    config: ProtocolConfig,
    rng: np.random.Generator,
) -> Ensemble:
    """Measure the initial state and keep what returned the target eigenvalue.

    Sampled mode draws ``ensemble_size`` systems from the initial state,
    measures each with the apparatus, and keeps those whose outcome matched;
    system ids from the unselected ensemble are preserved.  Exact mode takes
    the matching branch of the exact channel.
    """
    if config.mode is Mode.SAMPLED:
        cdf, components = _as_pure_mixture(initial, config.tol)
        # One draw per system picks its mixture component.
        pick = np.searchsorted(cdf, rng.random(config.ensemble_size), side="right")
        coarse, post = app.measure_sampled(components[pick], rng)
        ids = np.flatnonzero(coarse == _coarse_index(app, target_label))
        if len(ids) == 0:
            raise EmptySelectionError(
                f"no system returned eigenvalue {target_label}; the initial "
                "state may be orthogonal to its eigenspace, or the ensemble "
                "is too small -- retry with a larger ensemble_size"
            )
        return Ensemble(
            provenance=f"selected label {target_label} from "
            f"{config.ensemble_size} systems",
            ids=ids,
            states=post[ids],
        )
    rho = initial.density() if isinstance(initial, PureState) else initial
    for label, prob, branch in app.channel_exact(rho):
        if _labels_close(label, target_label):
            return Ensemble(
                provenance=f"exact branch for label {target_label} "
                f"(weight {prob})",
                state=branch,
            )
    raise EmptySelectionError(
        f"the initial state is orthogonal to the eigenspace of {target_label}"
    )


_STAGE_RECORDS = {
    StageKind.SIGMA: (Stage.SIGMA_1, Stage.APPARATUS_A, Stage.SIGMA_2),
    StageKind.SIGMA_PRIME: (
        Stage.SIGMA_PRIME_1,
        Stage.APPARATUS_A_2,
        Stage.SIGMA_PRIME_2,
    ),
}


def run_stage(
    ensemble: Ensemble,
    aux: SpectralDecomposition,
    app: MeasurementApparatus,
    base: SpectralDecomposition,
    target_group: int,
    kind: StageKind,
    config: ProtocolConfig,
    rng: np.random.Generator,
    transcript: list[Transcript] | None = None,
) -> tuple[StageResult, dict[float, Ensemble]]:
    """One pass: auxiliary measurement, apparatus, auxiliary measurement again.

    Returns the stage evidence and, keyed by first auxiliary outcome, the
    subensembles available for a follow-up pass.  In sampled mode the pass's
    measurement records are appended to ``transcript`` when it is given.
    Raises :class:`RepeatabilityError` if the apparatus ever fails to
    reproduce the target eigenvalue on a selected system.
    """
    target_label = base.eigenvalues[target_group]
    if config.mode is Mode.SAMPLED:
        return _run_stage_sampled(
            ensemble, aux, app, target_label, kind, rng, transcript
        )
    return _run_stage_exact(ensemble, aux, app, base, target_group, kind, config)


def _run_stage_sampled(ensemble, aux, app, target_label, kind, rng, transcript):
    if ensemble.states is None:
        raise ValueError("sampled mode needs an ensemble of tracked systems")
    first, states = measure_pure(aux, ensemble.states, rng)
    coarse, states = app.measure_sampled(states, rng)
    wrong = np.flatnonzero(coarse != _coarse_index(app, target_label))
    if len(wrong):
        raise RepeatabilityError(
            f"apparatus returned {app.outcome_labels[coarse[wrong[0]]]} on a "
            f"system selected for {target_label}; it does not measure the "
            "base observable"
        )
    second, states = measure_pure(aux, states, rng)
    if transcript is not None:
        labels = np.array(aux.eigenvalues)
        # Per system, its three records in measurement order.
        transcript.append(Transcript(
            np.repeat(ensemble.ids, 3),
            np.tile([_STAGES.index(s) for s in _STAGE_RECORDS[kind]], len(first)),
            np.column_stack([
                labels[first], np.take(app.outcome_labels, coarse), labels[second]
            ]).ravel(),
        ))
    n = aux.group_count
    table = np.bincount(first * n + second, minlength=n * n).reshape(n, n)
    reached = table.sum(axis=1)
    support = tuple(
        (aux.eigenvalues[a], tuple(
            (aux.eigenvalues[b], float(table[a, b] / reached[a]))
            for b in np.flatnonzero(table[a])
        ))
        for a in np.flatnonzero(reached)
    )
    _, first_seen = np.unique(first, return_index=True)
    observed = first[np.sort(first_seen)]
    mismatches = int(np.count_nonzero(first != second))
    result = StageResult(
        stage=kind,
        consistent=mismatches == 0,
        observed_first_labels=tuple(aux.eigenvalues[a] for a in observed),
        mismatch_count=mismatches,
        trials=len(first),
        branch_support=support,
    )
    subensembles = {}
    for a in observed:
        members = first == a
        subensembles[aux.eigenvalues[a]] = Ensemble(
            provenance=f"{ensemble.provenance} -> {kind.value} outcome "
            f"{aux.eigenvalues[a]}",
            ids=ensemble.ids[members],
            states=states[members],
        )
    return result, subensembles


def _run_stage_exact(ensemble, aux, app, base, target_group, kind, config):
    if ensemble.state is None:
        raise ValueError("exact mode needs an ensemble density matrix")
    tol = config.tol
    rho = ensemble.state.matrix
    target_label = base.eigenvalues[target_group]
    entries = _sigma_entries_in_group(base, aux, target_group)
    probed = []
    unprobed = []
    for label, vec in entries:
        weight = float((vec.conj() @ rho @ vec).real)
        if weight > tol:
            probed.append((label, vec, weight))
        else:
            unprobed.append(label)
    if not probed:
        raise EmptySelectionError(
            "the ensemble state is orthogonal to every auxiliary outcome of "
            "the target eigenspace"
        )
    mismatches = 0
    supports = []
    subensembles = {}
    for label, vec, _ in probed:
        branches = app.channel_exact(PureState(vec).density())
        branch = None
        for coarse, prob, state in branches:
            if _labels_close(coarse, target_label):
                branch = (prob, state)
                break
        if branch is None or branch[0] < 1.0 - 1e-6:
            raise RepeatabilityError(
                f"apparatus failed to reproduce eigenvalue {target_label} on "
                "an eigenspace state; it does not measure the base observable"
            )
        second = branch[1].matrix
        dist = []
        point_mass = False
        for lab2, vec2 in entries:
            q = float((vec2.conj() @ second @ vec2).real)
            if q > tol:
                dist.append((lab2, q))
            if lab2 == label and q >= 1.0 - tol:
                point_mass = True
        if not point_mass:
            mismatches += 1
        supports.append((label, tuple(dist)))
        subensembles[label] = Ensemble(
            provenance=f"{ensemble.provenance} -> {kind.value} outcome {label}",
            state=PureState(vec).density(),
        )
    result = StageResult(
        stage=kind,
        consistent=mismatches == 0,
        observed_first_labels=tuple(label for label, _, _ in probed),
        mismatch_count=mismatches,
        trials=len(probed),
        branch_support=tuple(supports),
        unprobed_labels=tuple(unprobed),
    )
    return result, subensembles


def _resolve_target(decomp: SpectralDecomposition, config: ProtocolConfig) -> int | None:
    """The eigenspace to interrogate, or None when the verdict is indeterminate."""
    if config.target_eigenvalue is not None:
        k = decomp.group_index(config.target_eigenvalue)
        return k if decomp.multiplicities[k] >= 2 else None
    for k, n in enumerate(decomp.multiplicities):
        if n >= 2:
            return k
    return None


def _exact_reference(ensemble: Ensemble, probed_labels, base, aux, target_group):
    """Highest-probability first outcome; ties go to the earliest label."""
    rho = ensemble.state.matrix
    best = None
    for label, vec in _sigma_entries_in_group(base, aux, target_group):
        if label not in probed_labels:
            continue
        weight = float((vec.conj() @ rho @ vec).real)
        if best is None or weight > best[1] + 1e-12:
            best = (label, weight)
    return best[0]


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
    """
    if config is None:
        config = ProtocolConfig()
    config.validate()
    decomp = spectral_decompose(
        observable, config.grouping_threshold, tol=config.tol
    )
    target_group = _resolve_target(decomp, config)
    if target_group is None:
        return Classification(
            verdict=Verdict.INDETERMINATE,
            detected_at=None,
            evidence=(),
            false_acceptance_bound=None,
            transcript=Transcript(),
        )
    target_label = decomp.eigenvalues[target_group]
    rng = np.random.default_rng(config.seed)
    transcript: list[Transcript] = []

    ensemble = prepare_ensemble(initial, app, target_label, config, rng)
    _, sigma = build_sigma(decomp)
    first, subensembles = run_stage(
        ensemble, sigma, app, decomp, target_group, StageKind.SIGMA,
        config, rng, transcript,
    )
    if not first.consistent:
        return Classification(
            verdict=Verdict.NON_LUDERS,
            detected_at=StageKind.SIGMA,
            evidence=(first,),
            false_acceptance_bound=None,
            transcript=Transcript.concatenate(transcript),
            target_eigenvalue=target_label,
        )

    if config.mode is Mode.SAMPLED:
        reference = first.observed_first_labels[0]
    else:
        reference = _exact_reference(
            ensemble, set(first.observed_first_labels), decomp, sigma, target_group
        )
    in_group = [lab for lab, _ in _sigma_entries_in_group(decomp, sigma, target_group)]
    reference_index = in_group.index(reference)
    _, sigma_prime = build_sigma_prime(decomp, sigma, target_group, reference_index)
    if reference not in subensembles or (
        config.mode is Mode.SAMPLED and subensembles[reference].size == 0
    ):
        raise EmptySelectionError(
            f"no system left with auxiliary outcome {reference}; retry with a "
            "larger ensemble_size"
        )
    second, _ = run_stage(
        subensembles[reference], sigma_prime, app, decomp, target_group,
        StageKind.SIGMA_PRIME, config, rng, transcript,
    )
    if not second.consistent:
        return Classification(
            verdict=Verdict.NON_LUDERS,
            detected_at=StageKind.SIGMA_PRIME,
            evidence=(first, second),
            false_acceptance_bound=None,
            transcript=Transcript.concatenate(transcript),
            target_eigenvalue=target_label,
            reference_label=reference,
        )
    bound = None
    if config.mode is Mode.SAMPLED:
        bound = (1.0 - config.min_disturbance) ** (first.trials + second.trials)
    return Classification(
        verdict=Verdict.LUDERS,
        detected_at=None,
        evidence=(first, second),
        false_acceptance_bound=bound,
        transcript=Transcript.concatenate(transcript),
        target_eigenvalue=target_label,
        reference_label=reference,
    )
