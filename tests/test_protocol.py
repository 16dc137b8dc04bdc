"""Tests for the three-pass discrimination protocol."""

import inspect
import math

import numpy as np
import pytest

import ludercheck.protocol
from ludercheck.apparatus import make_full_von_neumann, make_luders, make_partial
from ludercheck.protocol import (
    EmptySelectionError,
    Mode,
    RepeatabilityError,
    ProtocolConfig,
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
    build_spin_operator,
    spectral_decompose,
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
    cfg = ProtocolConfig()
    ens = prepare_ensemble(DEFAULT_PSI, app, 0.0, cfg, None)
    assert ens.state is not None
    # the kept branch is the projection onto the degenerate eigenspace
    expected = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert np.allclose(ens.state.matrix, expected, atol=1e-12)


def test_prepare_ensemble_sampled_keeps_matching_systems():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=300, seed=1)
    rng = np.random.default_rng(1)
    ens = prepare_ensemble(DEFAULT_PSI, app, 0.0, cfg, rng)
    assert 0 < ens.size < 300
    # around two thirds of preparations land in the target eigenspace
    assert ens.size == pytest.approx(200, abs=40)
    for state in ens.states:
        assert abs(np.vdot(PHI_PLUS, state)) == pytest.approx(1.0)


def test_prepare_ensemble_raises_when_nothing_matches():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=50, seed=3)
    rng = np.random.default_rng(3)
    with pytest.raises(EmptySelectionError):
        prepare_ensemble(PureState(PLUS_PLUS), app, 0.0, cfg, rng)


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
    assert result.transcript == Transcript()


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
    trials = sum(s.trials for s in result.evidence)
    assert result.false_acceptance_bound == pytest.approx(0.5**trials)
    assert result.false_acceptance_bound < 1e-3


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


def test_sampled_transcript_has_six_stage_kinds_and_ordering():
    d = spectral_decompose(total_z())
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=120, seed=5,
                         target_eigenvalue=0.0)
    result = discriminate(DEFAULT_PSI, make_luders(d), total_z(), cfg)
    assert result.transcript
    stages = {r.stage.name for r in result.transcript}
    assert stages == {"SIGMA_1", "APPARATUS_A", "SIGMA_2",
                      "SIGMA_PRIME_1", "APPARATUS_A_2", "SIGMA_PRIME_2"}
    # per system, timestamps strictly increase
    by_system = {}
    for rec in result.transcript:
        by_system.setdefault(rec.system_id, []).append(rec.timestamp_index)
    for times in by_system.values():
        assert times == sorted(times)
        assert len(set(times)) == len(times)
    # apparatus outcomes in the transcript repeat the preparation label
    for rec in result.transcript:
        if rec.stage.name.startswith("APPARATUS"):
            assert rec.label == 0.0


def test_sampled_runs_are_reproducible():
    d = spectral_decompose(total_z())
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=150, seed=21,
                         target_eigenvalue=0.0)
    r1 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg)
    r2 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg)
    assert r1.verdict == r2.verdict
    assert r1.evidence == r2.evidence
    assert r1.transcript == r2.transcript


def test_sampled_seeds_differ():
    cfg1 = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=150, seed=21,
                          target_eigenvalue=0.0)
    cfg2 = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=150, seed=22,
                          target_eigenvalue=0.0)
    r1 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg1)
    r2 = discriminate(DEFAULT_PSI, phi_apparatus(), total_z(), cfg2)
    assert r1.transcript != r2.transcript


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
    with pytest.raises(ValueError):
        ProtocolConfig(min_disturbance=0.0).validate()
    with pytest.raises(ValueError):
        ProtocolConfig(confidence=1.5).validate()
    ProtocolConfig().validate()


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
    cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=n, seed=5)
    rng = np.random.default_rng(5)
    psi = PureState((PLUS_PLUS + PLUS_MINUS) / np.sqrt(2))
    ens = prepare_ensemble(psi, app, 0.0, cfg, rng)
    # keep probability one half: 5 sigma around 5000
    assert abs(ens.size - n / 2) <= 5 * np.sqrt(n / 4)


def test_sampled_twenty_systems_always_catch_the_basis_refiner():
    # per-system mismatch chance is one half, so twenty systems miss
    # with probability 2**-20 per stage; a hundred runs must all detect
    psi = PureState(PLUS_MINUS)
    for seed in range(7000, 7100):
        cfg = ProtocolConfig(mode=Mode.SAMPLED, ensemble_size=20, seed=seed,
                             target_eigenvalue=0.0)
        result = discriminate(psi, phi_apparatus(), total_z(), cfg)
        assert result.verdict is Verdict.NON_LUDERS
