"""Tests for the black-box measurement apparatus."""

import numpy as np
import pytest

from ludercheck.apparatus import (
    MeasurementApparatus,
    Stage,
    make_full_von_neumann,
    make_luders,
    make_partial,
)
from ludercheck.quantum import (
    DensityMatrix,
    PureState,
    luders_channel,
    spectral_decompose,
)

from test_quantum import (
    MINUS_MINUS,
    MINUS_PLUS,
    PHI_MINUS,
    PHI_PLUS,
    PLUS_MINUS,
    PLUS_PLUS,
    total_z,
)


def phi_apparatus():
    """Apparatus resolving the degenerate eigenspace into |phi+->."""
    d = spectral_decompose(total_z())
    basis = ((PLUS_PLUS,), (PHI_PLUS, PHI_MINUS), (MINUS_MINUS,))
    return make_full_von_neumann(d, eigenbasis_choice=basis)


def test_stage_enum_has_exactly_six_members():
    assert len(Stage) == 6
    names = {s.name for s in Stage}
    assert names == {
        "SIGMA_1", "APPARATUS_A", "SIGMA_2",
        "SIGMA_PRIME_1", "APPARATUS_A_2", "SIGMA_PRIME_2",
    }


def test_outcome_labels_are_the_base_eigenvalues():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    assert app.outcome_labels == (2.0, 0.0, -2.0)
    assert app.dim == 4


def test_luders_apparatus_preserves_eigenspace_superposition():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()))
    branches = app.channel_exact(rho)
    assert len(branches) == 1
    label, p, post = branches[0]
    assert label == 0.0 and p == pytest.approx(1.0)
    assert np.allclose(post.matrix, rho.matrix, atol=1e-12)


def test_full_von_neumann_dephases_the_eigenspace():
    app = phi_apparatus()
    rho = DensityMatrix(np.outer(PLUS_MINUS, PLUS_MINUS.conj()))
    branches = app.channel_exact(rho)
    assert len(branches) == 1
    label, p, post = branches[0]
    assert label == 0.0 and p == pytest.approx(1.0)
    # |+-> = (|phi+> + |phi->)/sqrt(2) decoheres to an even mixture
    expected = 0.5 * np.outer(PHI_PLUS, PHI_PLUS.conj()) \
        + 0.5 * np.outer(PHI_MINUS, PHI_MINUS.conj())
    assert np.allclose(post.matrix, expected, atol=1e-12)


def test_computational_refinement_splits_phi_plus():
    d = spectral_decompose(total_z())
    app = make_full_von_neumann(d)  # canonical basis |+->, |-+>
    rho = DensityMatrix(np.outer(PHI_PLUS, PHI_PLUS.conj()))
    (label, p, post), = app.channel_exact(rho)
    assert label == 0.0 and p == pytest.approx(1.0)
    expected = 0.5 * np.outer(PLUS_MINUS, PLUS_MINUS.conj()) \
        + 0.5 * np.outer(MINUS_PLUS, MINUS_PLUS.conj())
    assert np.allclose(post.matrix, expected, atol=1e-12)


def test_channel_exact_drops_zero_probability_branches():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    rho = DensityMatrix(np.outer(PLUS_PLUS, PLUS_PLUS.conj()))
    branches = app.channel_exact(rho)
    assert [label for label, _, _ in branches] == [2.0]


def test_channel_exact_branches_sum_to_identity_action(rng):
    d = spectral_decompose(total_z())
    blocks = (((0,),), ((0,), (1,)), ((0,),))
    app = make_partial(d, blocks)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = z @ z.conj().T
    rho = DensityMatrix(m / np.trace(m).real)
    branches = app.channel_exact(rho)
    assert sum(p for _, p, _ in branches) == pytest.approx(1.0)
    for _, p, post in branches:
        assert np.trace(post.matrix).real == pytest.approx(1.0)


def test_measure_sampled_is_repeatable(rng):
    app = phi_apparatus()
    states = np.tile((PLUS_MINUS + PLUS_PLUS) / np.sqrt(2), (50, 1))
    label, post = app.measure_sampled(states, rng)
    label2, post2 = app.measure_sampled(post, rng)
    assert np.array_equal(label2, label)
    overlaps = np.abs(np.sum(post.conj() * post2, axis=1))
    assert overlaps == pytest.approx(np.ones(50))


def test_measure_sampled_statistics_match_channel(rng):
    app = phi_apparatus()
    states = np.tile(PLUS_MINUS, (3000, 1))
    index, post = app.measure_sampled(states, rng)
    labels = np.take(app.outcome_labels, index)
    counts = dict(zip(*np.unique(labels, return_counts=True)))
    overlaps = np.abs(post[labels == 0.0] @ PHI_PLUS.conj()) ** 2
    assert counts == {0.0: 3000}
    # half the collapses land on |phi+>, half on |phi->
    assert np.mean(overlaps) == pytest.approx(0.5, abs=0.05)
    assert set(np.round(overlaps, 6)) == {0.0, 1.0}


def test_output_map_constant_on_eigenspaces_is_accepted():
    d = spectral_decompose(total_z())
    ref = make_full_von_neumann(d).reveal_refinement()
    eigenvalue_of = {}
    for k, group in enumerate(ref.labels):
        for lab in group:
            eigenvalue_of[lab] = d.eigenvalues[k]
    app = MeasurementApparatus(ref, output_map=eigenvalue_of.get)
    assert app.outcome_labels == (2.0, 0.0, -2.0)


def test_output_map_rejects_refined_labels_leaking_out():
    # a map that emits the refined label itself would distinguish blocks
    d = spectral_decompose(total_z())
    ref = make_full_von_neumann(d).reveal_refinement()
    with pytest.raises(ValueError):
        MeasurementApparatus(ref, output_map=lambda lab: lab)


def test_reveal_refinement_reports_ground_truth():
    d = spectral_decompose(total_z())
    assert make_luders(d).reveal_refinement().is_luders()
    assert phi_apparatus().reveal_refinement().is_full_von_neumann()
    blocks = (((0,),), ((0, 1),), ((0,),))
    partial = make_partial(d, blocks)
    assert partial.reveal_refinement().block_count(1) == 1


def test_make_partial_three_spins_rank_two_blocks():
    sites = 3
    terms = ((1.0, "ZII"), (1.0, "IZI"))
    from ludercheck.quantum import build_spin_operator
    d = spectral_decompose(build_spin_operator(sites, terms))
    assert d.multiplicities == (2, 4, 2)
    # split the middle eigenspace into two rank-2 cells
    blocks = (((0, 1),), ((0, 1), (2, 3)), ((0, 1),))
    app = make_partial(d, blocks)
    ref = app.reveal_refinement()
    assert ref.block_count(1) == 2
    assert not ref.is_luders() and not ref.is_full_von_neumann()
    sub = ref.sub_projector(1, 0)
    assert np.trace(sub).real == pytest.approx(2.0)


def test_sampled_frequencies_match_exact_channel():
    app = phi_apparatus()
    state = PureState((PLUS_PLUS + PLUS_MINUS + MINUS_MINUS) / np.sqrt(3))
    expected = {lab: p for lab, p, _ in
                app.channel_exact(DensityMatrix(
                    np.outer(state.vector, state.vector.conj())))}
    rng = np.random.default_rng(2024)
    n = 10_000
    index, _ = app.measure_sampled(np.tile(state.vector, (n, 1)), rng)
    labels, tallies = np.unique(np.take(app.outcome_labels, index),
                                return_counts=True)
    counts = dict(zip(labels.tolist(), tallies.tolist()))
    assert set(counts) == set(expected)
    for lab, p in expected.items():
        bound = 5 * np.sqrt(n * p * (1 - p))
        assert abs(counts[lab] - n * p) <= bound


def test_luders_apparatus_channel_matches_quantum_channel(rng):
    d = spectral_decompose(total_z())
    app = make_luders(d)
    z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = z @ z.conj().T
    rho = DensityMatrix(m / np.trace(m).real)
    summed = sum(p * post.matrix for _, p, post in app.channel_exact(rho))
    assert np.allclose(summed, luders_channel(d, rho).matrix, atol=1e-12)


def test_channel_exact_splits_orthogonal_superposition():
    d = spectral_decompose(total_z())
    app = make_luders(d)
    psi = (PLUS_PLUS + PLUS_MINUS) / np.sqrt(2)
    branches = app.channel_exact(DensityMatrix(np.outer(psi, psi.conj())))
    assert [lab for lab, _, _ in branches] == [2.0, 0.0]
    for (lab, p, post), pure in zip(branches, (PLUS_PLUS, PLUS_MINUS)):
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(post.matrix, np.outer(pure, pure.conj()), atol=1e-12)


def test_channel_exact_on_maximally_mixed_weights_by_degeneracy():
    mixed = DensityMatrix(np.eye(4) / 4)
    for app in (phi_apparatus(),
                make_luders(spectral_decompose(total_z()))):
        probs = {lab: p for lab, p, _ in app.channel_exact(mixed)}
        assert probs[2.0] == pytest.approx(0.25, abs=1e-12)
        assert probs[0.0] == pytest.approx(0.5, abs=1e-12)
        assert probs[-2.0] == pytest.approx(0.25, abs=1e-12)
