"""Tests for the three-pass discrimination protocol."""

import dataclasses
import inspect
import itertools
import math

import numpy as np
import pytest

import ludercheck.protocol
from ludercheck.apparatus import (
    make_full_von_neumann,
    make_luders,
    make_partial,
)
from ludercheck.protocol import (
    STAGE_NAMES,
    EmptySelectionError,
    Exact,
    Mode,
    RepeatabilityError,
    ProtocolConfig,
    Sampled,
    StageKind,
    Transcript,
    Verdict,
    classify_refinement_oracle,
    discriminate,
    prepare_ensemble,
    required_ensemble_size,
)
from ludercheck.quantum import (
    DensityMatrix,
    PureState,
    build_sigma,
    build_sigma_prime,
    build_spin_operator,
    closest_label,
    spectral_decompose,
)
from ludercheck.scenarios import (
    build_consecutive,
    default_initial_state,
    get_builtin,
    instantiate,
)

from conftest import (
    KrausDevice,
    projectors,
    random_density,
    random_unitary,
    same_transcript,
    set_partitions,
    sigma_entries_in_group,
)

from test_quantum import (
    MINUS_PLUS,
    PHI_MINUS,
    PHI_PLUS,
    PLUS_MINUS,
    PLUS_PLUS,
    total_z,
)


def phi_apparatus():
    d = spectral_decompose(total_z())
    basis = ((PLUS_PLUS,), (PHI_PLUS, PHI_MINUS), (np.array([0, 0, 0, 1],
                                                            dtype=complex),))
    return make_full_von_neumann(d, eigenbasis_choice=basis)


DEFAULT_PSI = PureState((PLUS_MINUS + MINUS_PLUS + PLUS_PLUS) / np.sqrt(3))


def test_protocol_source_never_touches_the_refinement():
    # the decision procedure must treat the apparatus as a black box
    source = inspect.getsource(ludercheck.protocol)
    assert ".reveal_refinement" not in source
    assert "._refinement" not in source


def test_required_ensemble_size_reference_points():
    assert required_ensemble_size(0.5, 1e-3) == 10
    assert required_ensemble_size(0.1, 1e-2) == 44


def test_required_ensemble_size_matches_brute_force():
    for p_star in (0.3, 0.5, 0.75, 0.9):
        for delta in (0.1, 0.01, 0.001):
            n = required_ensemble_size(p_star, delta)
            # smallest n whose false-acceptance bound reaches delta
            assert (1 - p_star) ** n <= delta
            assert n == 0 or (1 - p_star) ** (n - 1) > delta


def test_required_ensemble_size_rejects_bad_arguments():
    with pytest.raises(ValueError):
        required_ensemble_size(0.0, 0.01)
    with pytest.raises(ValueError):
        required_ensemble_size(0.5, 0.0)
    with pytest.raises(ValueError):
        required_ensemble_size(1.5, 0.01)


def test_classify_refinement_oracle():
    d = spectral_decompose(total_z())
    assert classify_refinement_oracle(
        make_luders(d).reveal_refinement(), 1) is Verdict.LUDERS
    assert classify_refinement_oracle(
        phi_apparatus().reveal_refinement(), 1) is Verdict.NON_LUDERS
    # non-degenerate groups are Lüders by construction
    assert classify_refinement_oracle(
        make_luders(d).reveal_refinement(), 0) is Verdict.LUDERS


def test_prepare_ensemble_exact_selects_branch():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    ens = prepare_ensemble(DEFAULT_PSI, app, 1, Exact())
    states = ens.table[ens.index]
    # one system, id 0, whose rows carry the selection probability 2/3
    assert len(states) >= 1 and not ens.ids.any()
    assert ens.weights.sum() == pytest.approx(2.0 / 3.0)
    # the kept rows make up the projection onto the degenerate eigenspace
    kept = (ens.weights[:, None, None] * states[:, :, None]
            * states[:, None, :].conj()).sum(axis=0) / ens.weights.sum()
    expected = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert np.allclose(kept, expected, atol=1e-12)


def test_prepare_ensemble_sampled_keeps_matching_systems():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    ens = prepare_ensemble(DEFAULT_PSI, app, 1, Sampled(300, seed=1))
    states = ens.table[ens.index]
    assert 0 < len(states) < 300
    assert np.all(ens.weights == 1.0) and np.all(np.diff(ens.ids) > 0)
    # around two thirds of preparations land in the target eigenspace
    assert len(states) == pytest.approx(200, abs=40)
    for state in states:
        assert abs(np.vdot(PHI_PLUS, state)) == pytest.approx(1.0)


def test_prepare_ensemble_raises_when_nothing_matches():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    with pytest.raises(EmptySelectionError):
        prepare_ensemble(PureState(PLUS_PLUS), app, 1, Sampled(50, seed=3))


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SAMPLED])
def test_apparatus_for_another_observable_fails_repeatability(mode):
    # same spectrum as total z, different eigenspaces: the device keeps
    # (|+-> - |-+>)/sqrt(2) from |+->, and a sigma outcome on that state
    # leaves the device's 0 eigenspace with probability one half
    other = build_spin_operator(2, ((1.0, "XI"), (1.0, "IX")))
    app = make_luders(spectral_decompose(other))
    cfg = ProtocolConfig(mode=mode, ensemble_size=200, seed=4,
                         target_eigenvalue=0.0)
    with pytest.raises(RepeatabilityError):
        discriminate(PureState(PLUS_MINUS), app, total_z(), cfg)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SAMPLED])
def test_apparatus_of_another_dimension_is_a_usage_error(mode):
    # a two-spin device cannot measure three-spin total z
    app = make_full_von_neumann(spectral_decompose(total_z()))
    cfg = ProtocolConfig(mode=mode, seed=1, target_eigenvalue=1.0)
    with pytest.raises(ValueError, match="dimension") as err:
        discriminate(DEFAULT_PSI, app, total_z(3), cfg)
    assert not isinstance(err.value, EmptySelectionError)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SAMPLED])
def test_non_hermitian_observable_is_rejected(mode):
    # a skew of 0.4 in one entry is far outside the Hermiticity tolerance
    skewed = total_z()
    skewed[0, 1] = 0.4
    app = make_luders(spectral_decompose(total_z()))
    cfg = ProtocolConfig(mode=mode, ensemble_size=200, seed=1)
    with pytest.raises(ValueError, match="not Hermitian"):
        discriminate(DEFAULT_PSI, app, skewed, cfg)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SAMPLED])
def test_apparatus_without_the_target_outcome_fails_repeatability(mode):
    # total z plus one has the outcomes 3, 1 and -1, none of them 0
    app = make_luders(spectral_decompose(total_z() + np.eye(4)))
    cfg = ProtocolConfig(mode=mode, seed=1, target_eigenvalue=0.0)
    with pytest.raises(RepeatabilityError, match="no outcome 0.0"):
        discriminate(DEFAULT_PSI, app, total_z(), cfg)


@pytest.mark.parametrize("mode", [Mode.EXACT, Mode.SAMPLED])
def test_target_outcome_on_another_eigenspace_fails_repeatability(mode):
    # the device has the outcome 0 on the span of |-+> and |-->, the
    # observable on the span of |++> and |+->
    app = make_luders(spectral_decompose(np.diag([1.0, 1.0, 0.0, 0.0])))
    cfg = ProtocolConfig(mode=mode, ensemble_size=200, seed=1,
                         target_eigenvalue=0.0)
    with pytest.raises(RepeatabilityError, match="not in the eigenspace"):
        discriminate(DEFAULT_PSI, app, np.diag([0.0, 0.0, 1.0, 1.0]), cfg)


def test_exact_luders_two_spins():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    result = discriminate(DEFAULT_PSI, app, total_z(),
                          ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.LUDERS
    assert result.detected_at is None
    assert result.target_eigenvalue == 0.0
    assert [s.stage for s in result.evidence] == [StageKind.SIGMA,
                                                  StageKind.SIGMA_PRIME]
    assert all(s.consistent for s in result.evidence)
    assert same_transcript(result.transcript, Transcript())


def test_exact_von_neumann_detected_at_first_pass():
    result = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(),
                          ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA
    assert len(result.evidence) == 1
    stage = result.evidence[0]
    assert not stage.consistent
    # each probe state is half disturbed: support {same: 1/2, other: 1/2}
    for _, support in stage.branch_support:
        probs = sorted(p for _, p in support)
        assert probs == pytest.approx([0.5, 0.5])


def test_exact_computational_refinement_slips_past_first_pass():
    # blocks aligned with sigma's eigenvectors pass the first stage
    # and are caught by the rotated second pass
    d = spectral_decompose(total_z())
    app = make_full_von_neumann(d)
    result = discriminate(DEFAULT_PSI, app, total_z(),
                          ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA_PRIME
    assert result.evidence[0].consistent
    assert not result.evidence[1].consistent
    # mismatch probability in the rotated basis is exactly one half
    for _, support in result.evidence[1].branch_support:
        same = max(p for _, p in support)
        assert same == pytest.approx(0.5)


def test_exact_partial_three_spin_blocks():
    terms = ((1.0, "ZII"), (1.0, "IZI"))
    a = build_spin_operator(3, terms)
    d = spectral_decompose(a)
    blocks = (((0, 1),), ((0, 1), (2, 3)), ((0, 1),))
    app = make_partial(d, blocks)
    psi = PureState(np.ones(8, dtype=complex) / np.sqrt(8))
    result = discriminate(psi, app, a, ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA_PRIME


def test_interleaved_sigma_labels():
    # sigma's labels 10.012004, 10.004, 9.012004, 9.004 alternate between
    # the two eigenspaces, so neither owns a contiguous range of outcomes.
    a = np.diag([1.001, 1.001, 1.0, 1.0]).astype(complex)
    d = spectral_decompose(a)
    sigma, _ = build_sigma(d)
    assert sigma.eigenvalues == pytest.approx((10.012004, 10.004, 9.012004, 9.004))
    for k, owned in enumerate(([0, 2], [1, 3])):
        probes = sigma_entries_in_group(d, sigma, k)
        assert probes.tolist() == owned
        prime = build_sigma_prime(sigma, probes)
        assert prime.eigenvalues == sigma.eigenvalues
        rest = [i for i in range(4) if i not in owned]
        assert np.array_equal(prime.basis[:, rest], sigma.basis[:, rest])
        assert not np.allclose(prime.basis[:, owned], sigma.basis[:, owned])
        for app in (make_luders(d), make_full_von_neumann(d)):
            truth = classify_refinement_oracle(app.reveal_refinement(), k)
            for mode in Mode:
                result = discriminate(
                    default_initial_state(d, k), app, a,
                    ProtocolConfig(mode=mode, ensemble_size=400, seed=k,
                                   target_eigenvalue=d.eigenvalues[k]),
                )
                assert result.verdict is truth
                if truth is Verdict.NON_LUDERS:
                    assert result.detected_at is StageKind.SIGMA_PRIME


def test_exact_auto_target_picks_first_degenerate_group():
    d = spectral_decompose(total_z())
    result = discriminate(DEFAULT_PSI, make_luders(d), total_z(),
                          ProtocolConfig())
    assert result.target_eigenvalue == 0.0


def test_exact_nondegenerate_observable_is_indeterminate():
    sigma = build_spin_operator(2, ((2.0, "ZI"), (1.0, "IZ")))
    d = spectral_decompose(sigma)
    result = discriminate(DEFAULT_PSI, make_luders(d), sigma, ProtocolConfig())
    assert result.verdict is Verdict.INDETERMINATE
    assert result.evidence == ()


def test_exact_stage_support_for_luders_case():
    d = spectral_decompose(total_z())
    result = discriminate(DEFAULT_PSI, make_luders(d), total_z(),
                          ProtocolConfig(target_eigenvalue=0.0))
    stage = result.evidence[0]
    # both probe vectors reachable, each reproduces itself with certainty
    assert stage.trials == 2
    assert stage.mismatch_count == 0
    for first, support in stage.branch_support:
        assert support == ((first, pytest.approx(1.0)),)


def test_exact_unreachable_probe_vectors_are_reported():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    # |+-> is itself a probe direction and orthogonal to the other one
    result = discriminate(PureState(PLUS_MINUS), app, total_z(),
                          ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.LUDERS
    sigma_stage = result.evidence[0]
    assert sigma_stage.trials == 1
    assert len(sigma_stage.unprobed_labels) == 1
    # the rotated pass mixes the group, so both probes become reachable
    assert result.evidence[1].trials == 2
    assert result.evidence[1].unprobed_labels == ()


def test_sampled_luders_accepts_with_bound():
    d = spectral_decompose(total_z())
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=200, seed=11,
                         target_eigenvalue=0.0)
    result = discriminate(DEFAULT_PSI, make_luders(d), total_z(), cfg)
    assert result.verdict is Verdict.LUDERS
    # either pass alone may have to detect, so the bound counts one pass
    first, second = result.evidence
    assert first.trials == second.trials
    bound = result.false_acceptance_log10_bound
    assert bound == pytest.approx(first.trials * math.log10(9 / 16))
    assert bound < -3


def test_sampled_bound_is_true_and_tight_at_dimension_two():
    # The pi/8 rotation of s1's target eigenspace disturbs a trial in pass
    # one or pass two with probability exactly p*(2) = 7/16, the least of any
    # non-Lüders refinement, so it is accepted as often as the bound allows.
    observable, d, _, _ = instantiate(get_builtin("s1-luders-2spin"))
    k = d.group_index(0.0)
    e1, e2 = d.eigenbasis[k]
    c, s = math.cos(math.pi / 8), math.sin(math.pi / 8)
    choice = [None] * d.group_count
    choice[k] = (c * e1 + s * e2, -s * e1 + c * e2)
    app = make_full_von_neumann(d, choice)
    initial = PureState((e1 + e2) / math.sqrt(2))
    seeds = range(2000)
    results = [
        discriminate(initial, app, observable, ProtocolConfig(
            mode=Mode.SAMPLED, ensemble_size=3, target_eigenvalue=0.0, seed=seed))
        for seed in seeds
    ]
    # Every system is selected, so every run quotes the bound of 3 trials.
    assert {r.evidence[0].trials for r in results} == {3}
    accepted = [r for r in results if r.verdict is Verdict.LUDERS]
    (bound,) = {r.false_acceptance_log10_bound for r in accepted}
    q = 10**bound
    expected, sd = len(seeds) * q, math.sqrt(len(seeds) * q * (1 - q))
    assert abs(len(accepted) - expected) <= 4 * sd


def test_sampled_von_neumann_is_caught(rng):
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=200, seed=12,
                         target_eigenvalue=0.0)
    result = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg)
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA
    stage = result.evidence[0]
    assert stage.mismatch_count > 0
    # mismatch rate concentrates near one half
    assert stage.mismatch_count / stage.trials == pytest.approx(0.5, abs=0.15)


def test_stage_names_are_four_positions_two_per_pass():
    assert STAGE_NAMES == ("SIGMA_1", "SIGMA_2", "SIGMA_PRIME_1", "SIGMA_PRIME_2")
    # pass p owns stages 2p and 2p + 1, in measurement order
    assert [s.value for s in StageKind] == ["SIGMA", "SIGMA_PRIME"]
    for p, kind in enumerate(StageKind):
        assert STAGE_NAMES[2 * p: 2 * p + 2] == (f"{kind.value}_1", f"{kind.value}_2")


def test_sampled_transcript_has_four_stage_kinds_and_ordering():
    d = spectral_decompose(total_z())
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=120, seed=5,
                         target_eigenvalue=0.0)
    result = discriminate(DEFAULT_PSI, make_luders(d), total_z(), cfg)
    records = result.transcript
    assert len(records)
    assert len(records.stages) == len(records.labels) == len(records)
    names = {STAGE_NAMES[stage] for stage in records.stages.tolist()}
    assert names == set(STAGE_NAMES)
    # per system, timestamps (positions) strictly increase, and so do stages
    for sid in np.unique(records.system_ids):
        times = np.flatnonzero(records.system_ids == sid)
        assert np.all(np.diff(times) > 0)
        assert np.all(np.diff(records.stages[times]) > 0)


def sampled_builtin(name, **config):
    scenario = get_builtin(name)
    observable, _, app, initial = instantiate(scenario)
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=2000, seed=5,
                         target_eigenvalue=scenario.target_eigenvalue, **config)
    return discriminate(initial, app, observable, cfg)


def test_sampled_evidence_is_pinned_for_a_fixed_seed():
    # Recorded from the engine before the exact and sampled passes merged:
    # a fixed seed must keep drawing the same systems and outcomes.
    s2 = sampled_builtin("s2-vn-total-spin")
    assert s2.detected_at is StageKind.SIGMA
    (sigma,) = s2.evidence
    assert (sigma.trials, sigma.mismatch_count) == (1311, 646)
    assert sigma.observed_first_labels == (2.0, 1.0)
    assert sigma.branch_support == (
        (2.0, ((2.0, 334 / 684), (1.0, 350 / 684))),
        (1.0, ((2.0, 296 / 627), (1.0, 331 / 627))),
    )
    s3 = sampled_builtin("s3-consecutive")
    assert s3.detected_at is StageKind.SIGMA_PRIME
    sigma, prime = s3.evidence
    assert (sigma.trials, sigma.mismatch_count) == (1311, 0)
    assert sigma.observed_first_labels == (2.0, 1.0)
    assert sigma.branch_support == ((2.0, ((2.0, 1.0),)), (1.0, ((1.0, 1.0),)))
    # pass two reuses all of pass one's trials
    assert (prime.trials, prime.mismatch_count) == (1311, 659)
    assert prime.observed_first_labels == (1.0, 2.0)
    assert prime.branch_support == (
        (2.0, ((2.0, 314 / 646), (1.0, 332 / 646))),
        (1.0, ((2.0, 327 / 665), (1.0, 338 / 665))),
    )


@pytest.mark.parametrize(
    "name", ["s1-luders-2spin", "s3-consecutive", "s4-partial-3spin"]
)
def test_sampled_pass_two_reuses_every_pass_one_trial(name):
    result = sampled_builtin(name)
    first, second = result.evidence
    assert first.consistent
    assert second.trials == first.trials
    # two records per system and pass, the first pass's before the second's
    records = result.transcript
    assert len(records) == 4 * first.trials
    for p in range(2):
        part = slice(2 * p * first.trials, 2 * (p + 1) * first.trials)
        ids, stages = records.system_ids[part], records.stages[part]
        assert np.array_equal(stages, np.tile([2 * p, 2 * p + 1], first.trials))
        assert np.array_equal(ids[0::2], ids[1::2])
        assert np.all(np.diff(ids[0::2]) > 0)
        if p:
            assert np.array_equal(ids, records.system_ids[: 2 * first.trials])


def test_sampled_runs_are_reproducible():
    d = spectral_decompose(total_z())
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=150, seed=21,
                         target_eigenvalue=0.0)
    r1 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg)
    r2 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg)
    assert r1.verdict == r2.verdict
    assert r1.evidence == r2.evidence
    assert same_transcript(r1.transcript, r2.transcript)


def test_sampled_seeds_differ():
    cfg1 = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=150, seed=21,
                          target_eigenvalue=0.0)
    cfg2 = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=150, seed=22,
                          target_eigenvalue=0.0)
    r1 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg1)
    r2 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg2)
    assert not same_transcript(r1.transcript, r2.transcript)


def test_mixed_initial_state_is_supported():
    d = spectral_decompose(total_z())
    rho = DensityMatrix(np.eye(4) / 4)
    result = discriminate(rho, make_luders(d), total_z(),
                          ProtocolConfig(target_eigenvalue=0.0))
    assert result.verdict is Verdict.LUDERS
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=300, seed=8,
                         target_eigenvalue=0.0)
    result = discriminate(rho, phi_apparatus(), total_z(), cfg)
    assert result.verdict is Verdict.NON_LUDERS


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=0).validate()
    ProtocolConfig().validate()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_config_rejects_a_non_finite_target_eigenvalue(value):
    with pytest.raises(ValueError, match="target_eigenvalue must be finite"):
        ProtocolConfig(target_eigenvalue=value).validate()
    d = spectral_decompose(total_z())
    for mode in Mode:
        with pytest.raises(ValueError, match="target_eigenvalue must be finite"):
            discriminate(DEFAULT_PSI, make_luders(d), total_z(),
                         ProtocolConfig(mode=mode, target_eigenvalue=value, seed=1))


def test_config_rejects_a_negative_seed():
    for mode in Mode:
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            ProtocolConfig(mode=mode, seed=-1).validate()
        ProtocolConfig(mode=mode, seed=0).validate()


def test_target_eigenvalue_must_exist():
    d = spectral_decompose(total_z())
    with pytest.raises(ValueError):
        discriminate(DEFAULT_PSI, make_luders(d), total_z(),
                     ProtocolConfig(target_eigenvalue=7.0))


def test_target_on_simple_eigenvalue_is_indeterminate():
    d = spectral_decompose(total_z())
    result = discriminate(DEFAULT_PSI, make_luders(d), total_z(),
                          ProtocolConfig(target_eigenvalue=2.0))
    assert result.verdict is Verdict.INDETERMINATE


def test_required_ensemble_size_one_system_suffices_near_certainty():
    # a single trial already beats the confidence goal
    assert required_ensemble_size(0.99, 0.5) == 1
    assert required_ensemble_size(0.999, 0.01) == 1


def test_prepare_ensemble_binomial_selection_at_scale():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    n = 10_000
    psi = PureState((PLUS_PLUS + PLUS_MINUS) / np.sqrt(2))
    ens = prepare_ensemble(psi, app, 1, Sampled(n, seed=5))
    # keep probability one half: 5 sigma around 5000
    assert abs(len(ens.index) - n / 2) <= 5 * np.sqrt(n / 4)


def test_sampled_twenty_systems_always_catch_the_basis_refiner():
    # per-system mismatch chance is one half, so twenty systems miss
    # with probability 2**-20 per stage; a hundred runs must all detect
    psi = PureState(PLUS_MINUS)
    for seed in range(7000, 7100):
        cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=20, seed=seed,
                             target_eigenvalue=0.0)
        result = discriminate(psi, phi_apparatus(), total_z(), cfg)
        assert result.verdict is Verdict.NON_LUDERS


def test_exact_discriminate_from_a_pure_state_builds_no_density_matrix(
    monkeypatch,
):
    built = []
    original = DensityMatrix.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(DensityMatrix, "__post_init__", counting)
    terms = tuple((1.0, "I" * i + "Z" + "I" * (5 - i)) for i in range(6))
    a = build_spin_operator(6, terms)
    d = spectral_decompose(a)
    verdicts = [
        discriminate(default_initial_state(d, 3), app, a,
                     ProtocolConfig(target_eigenvalue=0.0)).verdict
        for app in (make_luders(d), make_full_von_neumann(d))
    ]
    assert verdicts == [Verdict.LUDERS, Verdict.NON_LUDERS]
    assert built == []
    # the counter is live: an explicit density is counted
    DensityMatrix(np.eye(2) / 2)
    assert built == [1]


def reference_exact_discriminate(initial, app, observable, target_eigenvalue):
    """The exact protocol on density matrices, one probe at a time.

    Every state is a validated DensityMatrix that passes through
    ``app.channel_exact``.  Pass two starts from the mixture of every probed
    sigma state, each weighted by its first-pass probability.  Returns per
    pass the evidence fields, then the pass that detected a mismatch.
    """
    d = spectral_decompose(observable)
    k = d.group_index(target_eigenvalue)
    target = d.eigenvalues[k]

    def target_branch(state):
        branches = app.channel_exact(state)
        i = closest_label([label for label, _, _ in branches], target)
        return (0.0, None) if i is None else branches[i][1:]

    def weight(rho, v):
        return float(np.vdot(v, rho.matrix @ v).real)

    def run(rho, aux):
        entries = [
            (aux.eigenvalues[i], aux.eigenbasis[i][0])
            for i in sigma_entries_in_group(d, aux, k)
        ]
        weights = [weight(rho, v) for _, v in entries]
        probed = [i for i, w in enumerate(weights) if w > 1e-9]
        support, mismatches, mixture = [], 0, 0.0
        for i in probed:
            label, v = entries[i]
            probe = DensityMatrix(np.outer(v, v.conj()))
            prob, post = target_branch(probe)
            assert prob >= 1.0 - 1e-6
            second = [weight(post, u) for _, u in entries]
            mismatches += second[i] < 1.0 - 1e-9
            support.append((label, tuple(
                (entries[j][0], p) for j, p in enumerate(second) if p > 1e-9
            )))
            mixture = mixture + weights[i] * probe.matrix
        evidence = (
            tuple(entries[i][0] for i in probed),
            tuple(entries[i][0] for i, w in enumerate(weights) if w <= 1e-9),
            mismatches,
            tuple(support),
        )
        return evidence, DensityMatrix(mixture / np.trace(mixture).real)

    if isinstance(initial, PureState):
        initial = DensityMatrix(np.outer(initial.vector, initial.vector.conj()))
    _, rho = target_branch(initial)
    sigma, _ = build_sigma(d)
    first, probed = run(rho, sigma)
    if first[2]:
        return (first,), StageKind.SIGMA
    sigma_prime = build_sigma_prime(sigma, sigma_entries_in_group(d, sigma, k))
    second, _ = run(probed, sigma_prime)
    return (first, second), StageKind.SIGMA_PRIME if second[2] else None


def assert_exact_matches_reference(initial, app, observable, target):
    result = discriminate(initial, app, observable,
                          ProtocolConfig(target_eigenvalue=target))
    passes, detected_at = reference_exact_discriminate(
        initial, app, observable, target
    )
    assert result.detected_at is detected_at
    assert len(result.evidence) == len(passes)
    for stage, (observed, unprobed, mismatches, support) in zip(
        result.evidence, passes
    ):
        assert stage.observed_first_labels == observed
        assert stage.unprobed_labels == unprobed
        assert stage.mismatch_count == mismatches
        assert len(stage.branch_support) == len(support)
        for (first, got), (first_ref, want) in zip(stage.branch_support, support):
            assert first == first_ref
            assert [lab for lab, _ in got] == [lab for lab, _ in want]
            for (_, p), (_, p_ref) in zip(got, want):
                assert abs(p - p_ref) <= 1e-12


def test_exact_passes_match_the_channel_reference_on_c1_refinements():
    observables = [
        total_z(),
        build_spin_operator(3, ((1.0, "ZII"), (1.0, "IZI"))),
        np.diag([5.0, 5.0, 3.0, 3.0]).astype(complex),
        np.diag([2.0, 2.0, 2.0, 0.0, 0.0, -1.0]).astype(complex),
    ]
    rng = np.random.default_rng(4243)
    for base in observables:
        dim = base.shape[0]
        u = random_unitary(dim, rng)
        a = u @ base @ u.conj().T
        a = (a + a.conj().T) / 2
        d = spectral_decompose(a)
        mixed = DensityMatrix(random_density(dim, rng, rank=3))
        per_group = [
            [tuple(sorted(tuple(sorted(c)) for c in p))
             for p in set_partitions(range(n))]
            for n in d.multiplicities
        ]
        for combo in itertools.product(*per_group):
            app = make_partial(d, combo)
            for k, n in enumerate(d.multiplicities):
                if n < 2:
                    continue
                for initial in (default_initial_state(d, k), mixed):
                    assert_exact_matches_reference(
                        initial, app, a, d.eigenvalues[k]
                    )


def test_exact_passes_match_the_channel_reference_on_six_spins():
    rng = np.random.default_rng(4244)
    terms = tuple((1.0, "I" * i + "Z" + "I" * (5 - i)) for i in range(6))
    u = random_unitary(64, rng)
    a = u @ build_spin_operator(6, terms) @ u.conj().T
    a = (a + a.conj().T) / 2
    d = spectral_decompose(a)
    app = make_full_von_neumann(d, [
        None if n == 1
        else tuple((np.column_stack(group) @ random_unitary(n, rng)).T)
        for n, group in zip(d.multiplicities, d.eigenbasis)
    ])
    mixed = DensityMatrix(random_density(64, rng, rank=3))
    for k in (2, 3):
        for initial in (default_initial_state(d, k), mixed):
            assert_exact_matches_reference(initial, app, a, d.eigenvalues[k])


def six_spin_total_z():
    """Six-spin total z, d = 64, and its spectral decomposition."""
    a = build_spin_operator(6, tuple(
        (1.0, "I" * i + "Z" + "I" * (5 - i)) for i in range(6)
    ))
    return a, spectral_decompose(a)


def test_exact_passes_match_the_channel_reference_at_the_cap():
    # Every degenerate eigenspace of six-spin total z (n = 6, 15, 20, 15, 6)
    # with a Lüders, a full von Neumann and a two-site consecutive device.
    a, d = six_spin_total_z()
    site_z = [build_spin_operator(6, ((1.0, "I" * i + "Z" + "I" * (5 - i)),))
              for i in (0, 1)]
    mixed = DensityMatrix(random_density(64, np.random.default_rng(4245), rank=3))
    for app in (make_luders(d), make_full_von_neumann(d),
                build_consecutive(d, site_z)):
        for k, n in enumerate(d.multiplicities):
            if n > 1:
                for initial in (default_initial_state(d, k), mixed):
                    assert_exact_matches_reference(initial, app, a, d.eigenvalues[k])


def test_exact_enumeration_is_bounded_by_the_table(monkeypatch):
    # Each measurement enumerates each table row's branches once, at most d
    # of them, however many trials share the row: pass two of a full von
    # Neumann device on a 20-dimensional eigenspace builds nothing of size n^3.
    a, d = six_spin_total_z()
    app = make_full_von_neumann(d)
    calls = []

    def recording(kernel, table_at):
        def wrapped(*args):
            found = kernel(*args)
            calls.append((len(args[table_at]), found[0]))
            return found
        return wrapped

    monkeypatch.setattr(ludercheck.protocol, "measure_pure",
                        recording(ludercheck.protocol.measure_pure, 1))
    monkeypatch.setattr(app, "branches", recording(app.branches, 0))
    k = d.multiplicities.index(20)
    result = discriminate(default_initial_state(d, k), app, a,
                          ProtocolConfig(target_eigenvalue=d.eigenvalues[k]))
    assert result.detected_at is StageKind.SIGMA_PRIME
    assert len(calls) == 7
    for size, rows in calls:
        assert 0 <= rows.min() and rows.max() < size
        assert len(rows) <= size * d.dim


def s1_kraus_run(kraus, config=None):
    """discriminate on s1's observable at target 0 with a Kraus device."""
    observable, d, _, initial = instantiate(get_builtin("s1-luders-2spin"))
    device = KrausDevice(d.eigenvalues, kraus(d))
    config = ProtocolConfig() if config is None else config
    return discriminate(initial, device, observable,
                        dataclasses.replace(config, target_eigenvalue=0.0))


def luders_then_a_phase(theta):
    """Lüders, then e^{i theta} on one vector of the target eigenspace.

    That vector is a sigma eigenvector: pass one cannot see the phase, pass
    two can.
    """
    def kraus(d):
        k = d.group_index(0.0)
        v = d.eigenbasis[k][0]
        phase = np.eye(d.dim) + (np.exp(1j * theta) - 1) * np.outer(v, v.conj())
        return [(j, phase @ p) for j, p in enumerate(projectors(d))]

    return kraus


def luders_mixed_with_a_random_von_neumann(q):
    """Lüders, or with probability q the target eigenspace in a random basis.

    The random basis disturbs sigma eigenvectors already.
    """
    def kraus(d):
        k = d.group_index(0.0)
        rotated = d.eigenbasis[k].T @ random_unitary(2, np.random.default_rng(7))
        ops = [(j, np.sqrt(1 - q) * p) for j, p in enumerate(projectors(d))]
        ops += [(j, np.sqrt(q) * p) for j, p in enumerate(projectors(d)) if j != k]
        ops += [(k, np.sqrt(q) * np.outer(b, b.conj())) for b in rotated.T]
        return ops

    return kraus


def does_not_repeat(d):
    """Outcome j is reported, but the state leaves for a rotated eigenspace."""
    u = random_unitary(d.dim, np.random.default_rng(8))
    return [(j, u @ p) for j, p in enumerate(projectors(d))]


@pytest.mark.parametrize("theta, verdict, detected_at", [
    (0.0, Verdict.LUDERS, None),
    (1e-3, Verdict.NON_LUDERS, StageKind.SIGMA_PRIME),
    (0.3, Verdict.NON_LUDERS, StageKind.SIGMA_PRIME),
])
def test_exact_kraus_luders_then_a_phase(theta, verdict, detected_at):
    result = s1_kraus_run(luders_then_a_phase(theta))
    assert result.verdict is verdict
    assert result.detected_at is detected_at


@pytest.mark.parametrize("q", [1e-6, 1e-2, 0.5])
def test_exact_kraus_luders_mixed_with_a_random_von_neumann(q):
    result = s1_kraus_run(luders_mixed_with_a_random_von_neumann(q))
    assert result.verdict is Verdict.NON_LUDERS
    assert result.detected_at is StageKind.SIGMA


def test_exact_kraus_device_that_does_not_repeat_fails():
    with pytest.raises(RepeatabilityError):
        s1_kraus_run(does_not_repeat)


# Sampled mode asks the device for nothing but dim, outcome_labels and
# branches too.  Each size gives at least 20 expected mismatches to a
# disturbing device, so the verdict does not hinge on the seed; theta = 1e-3
# and q = 1e-6 disturb too little to be seen at these sizes.
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kraus, size, verdict, detected_at", [
    (luders_then_a_phase(0.0), 2000, Verdict.LUDERS, None),
    (luders_then_a_phase(0.3), 2000, Verdict.NON_LUDERS, StageKind.SIGMA_PRIME),
    (luders_mixed_with_a_random_von_neumann(0.5), 2000,
     Verdict.NON_LUDERS, StageKind.SIGMA),
    (luders_mixed_with_a_random_von_neumann(1e-2), 10_000,
     Verdict.NON_LUDERS, StageKind.SIGMA),
], ids=["phase-0", "phase-0.3", "mixed-0.5", "mixed-0.01"])
def test_sampled_kraus_devices(kraus, size, verdict, detected_at, seed):
    config = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=size, seed=seed)
    result = s1_kraus_run(kraus, config)
    assert result.verdict is verdict
    assert result.detected_at is detected_at
    if verdict is Verdict.LUDERS:
        assert [s.mismatch_count for s in result.evidence] == [0, 0]
        assert result.false_acceptance_log10_bound < 0
    else:
        assert result.evidence[-1].mismatch_count > 0


def test_sampled_kraus_device_that_does_not_repeat_fails():
    config = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=2000, seed=0)
    with pytest.raises(RepeatabilityError):
        s1_kraus_run(does_not_repeat, config)
