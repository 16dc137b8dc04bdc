"""Tests for states, spectral data, reduction rules, and observable builders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ludercheck.quantum import (
    DensityMatrix,
    OutcomeDistribution,
    PureState,
    Refinement,
    TOTAL_SPIN_SQ,
    born_distribution,
    build_sigma,
    build_sigma_prime,
    build_spin_operator,
    collapse,
    luders_channel,
    luders_update,
    measure_pure,
    sample_outcome,
    spectral_decompose,
)

from conftest import random_density, random_state, random_unitary

SQ2 = np.sqrt(2.0)

# computational basis for two spins: |++>, |+->, |-+>, |-->
PLUS_PLUS = np.array([1, 0, 0, 0], dtype=complex)
PLUS_MINUS = np.array([0, 1, 0, 0], dtype=complex)
MINUS_PLUS = np.array([0, 0, 1, 0], dtype=complex)
MINUS_MINUS = np.array([0, 0, 0, 1], dtype=complex)
PHI_PLUS = (PLUS_MINUS + MINUS_PLUS) / SQ2
PHI_MINUS = (PLUS_MINUS - MINUS_PLUS) / SQ2


def total_z(sites=2):
    terms = []
    for i in range(sites):
        word = "".join("Z" if j == i else "I" for j in range(sites))
        terms.append((1.0, word))
    return build_spin_operator(sites, tuple(terms))


def test_pure_state_normalizes_and_rejects_bad_norm():
    s = PureState(2 * PLUS_MINUS / 2.000000001)
    assert np.isclose(np.linalg.norm(s.vector), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))


def test_outcome_distribution_drops_zero_entries():
    d = OutcomeDistribution(((1.0, 0.5), (2.0, 0.5), (3.0, 0.0)))
    assert d.outcomes == ((1.0, 0.5), (2.0, 0.5))
    assert d.probability(3.0) == 0.0


def test_spectral_decompose_two_spin_total_z():
    d = spectral_decompose(total_z())
    assert d.eigenvalues == (2.0, 0.0, -2.0)
    assert d.multiplicities == (1, 2, 1)
    assert d.group_count == 3
    # projector on the degenerate eigenspace
    assert np.allclose(d.projectors[1], np.diag([0, 1, 1, 0]))


def test_spectral_decompose_groups_near_degenerate_pairs():
    a = np.diag([1.0, 1.0 + 1e-12, 0.0])
    d = spectral_decompose(a)
    assert d.group_count == 2
    assert d.multiplicities == (2, 1)


def test_spectral_decompose_resolution_completeness():
    rng = np.random.default_rng(2)
    u = random_unitary(5, rng)
    a = u @ np.diag([3.0, 3.0, 1.0, 1.0, -2.0]) @ u.conj().T
    d = spectral_decompose(a)
    total = sum(d.projectors)
    assert np.allclose(total, np.eye(5), atol=1e-9)
    recon = sum(w * p for w, p in zip(d.eigenvalues, d.projectors))
    assert np.allclose(recon, a, atol=1e-8)


def test_canonical_basis_of_diagonal_observable_is_index_ordered():
    d = spectral_decompose(np.diag([3.0, -1.0, 3.0, 0.0]))
    assert d.eigenvalues[0] == pytest.approx(3.0)
    e = np.eye(4)
    assert len(d.eigenbasis[0]) == 2
    assert np.allclose(d.eigenbasis[0][0], e[0], atol=1e-12)
    assert np.allclose(d.eigenbasis[0][1], e[2], atol=1e-12)


@pytest.mark.parametrize("spectrum", [
    [3.0, 3.0, 3.0, -1.0],
    [2.0, 2.0, 2.0, -1.0, -1.0, 5.0],
    [1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, -2.0],
])
def test_canonical_basis_depends_on_the_eigenprojectors_only(spectrum):
    # V and V @ W give the same observable when W is unitary inside each
    # degenerate block; the eigensolver sees two different roundings of it.
    dim = len(spectrum)
    rng = np.random.default_rng(5)
    v = random_unitary(dim, rng)
    w = np.zeros((dim, dim), dtype=complex)
    for value in set(spectrum):
        idx = [i for i, x in enumerate(spectrum) if x == value]
        w[np.ix_(idx, idx)] = random_unitary(len(idx), rng)
    decomps = []
    for basis in (v, v @ w):
        a = (basis * np.array(spectrum)) @ basis.conj().T
        decomps.append(spectral_decompose((a + a.conj().T) / 2))
    d1, d2 = decomps
    assert d1.multiplicities == d2.multiplicities
    for g1, g2 in zip(d1.eigenbasis, d2.eigenbasis):
        assert np.max(np.abs(np.array(g1) - np.array(g2))) <= 1e-9
    sigma1, sd1 = build_sigma(d1)
    sigma2, sd2 = build_sigma(d2)
    assert np.max(np.abs(sigma1 - sigma2)) <= 1e-9
    k = next(i for i, n in enumerate(d1.multiplicities) if n >= 2)
    prime1, _ = build_sigma_prime(d1, sd1, k)
    prime2, _ = build_sigma_prime(d2, sd2, k)
    assert np.max(np.abs(prime1 - prime2)) <= 1e-9


def test_group_index_lookup():
    d = spectral_decompose(total_z())
    assert d.group_index(0.0) == 1
    assert d.group_index(2.0) == 0
    with pytest.raises(ValueError):
        d.group_index(1.0)


def test_born_distribution_on_maximally_mixed():
    d = spectral_decompose(total_z())
    dist = born_distribution(d, DensityMatrix(np.eye(4) / 4))
    assert dist.outcomes == ((2.0, 0.25), (0.0, 0.5), (-2.0, 0.25))


def test_born_distribution_accepts_pure_state():
    d = spectral_decompose(total_z())
    dist = born_distribution(d, PureState(PLUS_MINUS))
    assert dist.probability(0.0) == pytest.approx(1.0)


def test_luders_update_keeps_superposition_within_eigenspace():
    d = spectral_decompose(total_z())
    psi = (PLUS_MINUS + MINUS_PLUS + PLUS_PLUS) / np.sqrt(3)
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    prob, branch = luders_update(d, rho, 1)
    assert prob == pytest.approx(2.0 / 3.0)
    post = branch.normalized()
    # the post state is the pure projection |phi+>, not a mixture
    expected = np.outer(PHI_PLUS, PHI_PLUS.conj())
    assert np.allclose(post.matrix, expected, atol=1e-12)


def test_luders_channel_equals_branch_sum():
    d = spectral_decompose(total_z())
    psi = (PLUS_PLUS + PLUS_MINUS + MINUS_PLUS + MINUS_MINUS) / 2
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    mixed = luders_channel(d, rho)
    recon = np.zeros((4, 4), dtype=complex)
    total = 0.0
    for k in range(d.group_count):
        p, branch = luders_update(d, rho, k)
        total += p
        recon += branch.matrix
    assert total == pytest.approx(1.0)
    assert np.allclose(mixed.matrix, recon, atol=1e-12)
    # coherence between eigenspaces is erased, coherence inside survives
    assert mixed.matrix[0, 1] == pytest.approx(0.0)
    assert mixed.matrix[1, 2] == pytest.approx(0.25)


def test_sample_outcome_follows_distribution():
    rng = np.random.default_rng(0)
    dist = OutcomeDistribution(((1.0, 0.75), (-1.0, 0.25)))
    draws = [sample_outcome(dist, rng) for _ in range(4000)]
    assert np.mean([x == 1.0 for x in draws]) == pytest.approx(0.75, abs=0.03)


def test_measure_pure_collapses_and_renormalizes(rng):
    d = spectral_decompose(total_z())
    psi = (PLUS_MINUS + PLUS_PLUS) / SQ2
    index, post = measure_pure(d, psi[None, :], rng)
    label = d.eigenvalues[index[0]]
    assert label in (2.0, 0.0)
    assert np.isclose(np.linalg.norm(post[0]), 1.0)
    if label == 0.0:
        assert abs(np.vdot(PLUS_MINUS, post[0])) == pytest.approx(1.0)


def test_measure_pure_statistics(rng):
    d = spectral_decompose(total_z())
    psi = (PLUS_MINUS + PLUS_PLUS) / SQ2
    index, _ = measure_pure(d, np.tile(psi, (2000, 1)), rng)
    labels = np.take(d.eigenvalues, index)
    assert np.mean(labels == 2.0) == pytest.approx(0.5, abs=0.05)


# collapse kernel: a random orthonormal basis of C^6 in blocks of 2, 1 and 3
KERNEL_STARTS = np.array([0, 2, 3])
KERNEL_SPANS = ((0, 2), (2, 3), (3, 6))


def test_collapse_block_frequencies_match_born_weights():
    rng = np.random.default_rng(31)
    basis = random_unitary(6, rng)
    psi = random_state(6, rng)
    born = [np.linalg.norm(basis[:, lo:hi].conj().T @ psi) ** 2
            for lo, hi in KERNEL_SPANS]
    n = 10_000
    k, _ = collapse(basis, KERNEL_STARTS, np.tile(psi, (n, 1)), rng.random(n))
    counts = np.bincount(k, minlength=3)
    for count, p in zip(counts, born):
        assert abs(count - n * p) <= 5 * np.sqrt(n * p * (1 - p))


def test_collapse_rows_are_unit_and_lie_in_their_block():
    rng = np.random.default_rng(32)
    basis = random_unitary(6, rng)
    states = np.array([random_state(6, rng) for _ in range(500)])
    k, post = collapse(basis, KERNEL_STARTS, states, rng.random(500))
    assert np.allclose(np.linalg.norm(post, axis=1), 1.0, atol=1e-12)
    for block, (lo, hi) in enumerate(KERNEL_SPANS):
        rows = post[k == block]
        assert len(rows) > 0
        projector = basis[:, lo:hi] @ basis[:, lo:hi].conj().T
        assert np.allclose(rows @ projector.T, rows, atol=1e-12)


def test_collapse_rejects_a_row_orthogonal_to_every_block():
    rng = np.random.default_rng(33)
    basis = random_unitary(6, rng)
    states = np.array([random_state(6, rng), np.zeros(6), random_state(6, rng)])
    with pytest.raises(ValueError):
        collapse(basis, KERNEL_STARTS, states, rng.random(3))


def test_build_spin_operator_two_site_sum():
    a = build_spin_operator(2, ((1.0, "ZI"), (1.0, "IZ")))
    assert np.allclose(a, np.diag([2.0, 0.0, 0.0, -2.0]))


def test_build_spin_operator_weighted():
    sigma = build_spin_operator(2, ((2.0, "ZI"), (1.0, "IZ")))
    assert np.allclose(sigma, np.diag([3.0, 1.0, -1.0, -3.0]))


def test_build_spin_operator_rejects_bad_input():
    with pytest.raises(ValueError):
        build_spin_operator(2, ((1.0, "ZIZ"),))
    with pytest.raises(ValueError):
        build_spin_operator(2, ((1.0, "QZ"),))
    with pytest.raises(ValueError):
        build_spin_operator(0, ((1.0, ""),))


def test_total_spin_squared_spectrum():
    # triplet value 4, singlet value 0 on two sites
    s2 = build_spin_operator(2, ((1.0, TOTAL_SPIN_SQ),))
    d = spectral_decompose(s2)
    assert d.eigenvalues == pytest.approx((4.0, 0.0))
    assert d.multiplicities == (3, 1)
    # the singlet is (|+-> - |-+>)/sqrt(2)
    singlet = d.eigenbasis[1][0]
    assert abs(np.vdot(PHI_MINUS, singlet)) == pytest.approx(1.0)


def test_refined_total_z_spectrum():
    # total z plus squared total spin resolves the degeneracy: {6, 4, 2, 0}
    ap = build_spin_operator(2, ((1.0, "ZI"), (1.0, "IZ"), (1.0, TOTAL_SPIN_SQ)))
    d = spectral_decompose(ap)
    assert d.eigenvalues == pytest.approx((6.0, 4.0, 2.0, 0.0), abs=1e-9)
    assert d.multiplicities == (1, 1, 1, 1)
    # eigenvectors: |++>, |phi+>, |-->, |phi->
    for vec, expect in zip(d.eigenbasis, (PLUS_PLUS, PHI_PLUS, MINUS_MINUS,
                                          PHI_MINUS)):
        assert abs(np.vdot(expect, vec[0])) == pytest.approx(1.0, abs=1e-9)


def test_refinement_validates_block_structure():
    d = spectral_decompose(total_z())
    basis = (PLUS_PLUS,), (PLUS_MINUS, MINUS_PLUS), (MINUS_MINUS,)
    blocks = ((0,),), ((0,), (1,)), ((0,),)
    labels = (2.0,), (0.5, -0.5), (-2.0,)
    r = Refinement(base=d, basis=basis, blocks=blocks, labels=labels)
    assert r.block_count(1) == 2
    assert not r.is_luders()
    assert r.is_full_von_neumann()
    assert np.allclose(r.sub_projector(1, 0), np.diag([0, 1, 0, 0]))


def test_refinement_luders_shape():
    d = spectral_decompose(total_z())
    basis = (PLUS_PLUS,), (PLUS_MINUS, MINUS_PLUS), (MINUS_MINUS,)
    blocks = ((0,),), ((0, 1),), ((0,),)
    labels = (2.0,), (0.0,), (-2.0,)
    r = Refinement(base=d, basis=basis, blocks=blocks, labels=labels)
    assert r.is_luders()
    assert not r.is_full_von_neumann()


def test_refinement_rejects_wrong_span():
    d = spectral_decompose(total_z())
    basis = (PLUS_PLUS,), (PLUS_MINUS, PLUS_PLUS), (MINUS_MINUS,)
    blocks = ((0,),), ((0, 1),), ((0,),)
    labels = (2.0,), (0.0,), (-2.0,)
    with pytest.raises(ValueError):
        Refinement(base=d, basis=basis, blocks=blocks, labels=labels)


def test_refinement_rejects_duplicate_labels():
    d = spectral_decompose(total_z())
    basis = (PLUS_PLUS,), (PLUS_MINUS, MINUS_PLUS), (MINUS_MINUS,)
    blocks = ((0,),), ((0,), (1,)), ((0,),)
    labels = (2.0,), (0.5, 0.5), (-2.0,)
    with pytest.raises(ValueError):
        Refinement(base=d, basis=basis, blocks=blocks, labels=labels)


def test_build_sigma_labels_and_commutation():
    d = spectral_decompose(total_z())
    sigma, sd = build_sigma(d)
    # spread constant 4 * (1 + 2) = 12: labels 2*12+1, 1, 2, -2*12+1
    assert sd.eigenvalues == (25.0, 2.0, 1.0, -23.0)
    assert all(n == 1 for n in sd.multiplicities)
    a = total_z()
    assert np.allclose(sigma @ a, a @ sigma, atol=1e-12)


def test_build_sigma_eigenvectors_refine_base():
    rng = np.random.default_rng(9)
    u = random_unitary(4, rng)
    a = u @ np.diag([1.0, 1.0, -1.0, -1.0]) @ u.conj().T
    d = spectral_decompose(a)
    sigma, sd = build_sigma(d)
    assert np.allclose(sigma @ a, a @ sigma, atol=1e-9)
    assert sd.group_count == 4


def test_build_sigma_prime_mixes_within_target_group():
    d = spectral_decompose(total_z())
    sigma, sd = build_sigma(d)
    sp, spd = build_sigma_prime(d, sd, 1)
    # same label set, same behaviour outside the target eigenspace
    assert spd.eigenvalues == sd.eigenvalues
    a = total_z()
    assert np.allclose(sp @ a, a @ sp, atol=1e-12)
    assert np.linalg.norm(sp @ sigma - sigma @ sp) > 0.1
    # each sigma-prime vector in the group overlaps every sigma vector
    for w, vec in zip(spd.eigenvalues, spd.eigenbasis):
        if w not in (1.0, 2.0):
            continue
        for sw, svec in zip(sd.eigenvalues, sd.eigenbasis):
            if sw in (1.0, 2.0):
                assert abs(np.vdot(svec[0], vec[0])) == pytest.approx(
                    1 / SQ2, abs=1e-9
                )


def test_build_sigma_prime_dft_weights_follow_group_size():
    a = np.diag([5.0, 5.0, 5.0, 1.0])
    d = spectral_decompose(a)
    _, sd = build_sigma(d)
    _, spd = build_sigma_prime(d, sd, 0)
    group_labels = {sd.eigenvalues[i] for i in range(3)}
    for w, vec in zip(spd.eigenvalues, spd.eigenbasis):
        if w in group_labels:
            assert np.allclose(np.abs(vec[0][:3]), 1 / np.sqrt(3), atol=1e-9)


def test_build_sigma_prime_rejects_non_degenerate_group():
    d = spectral_decompose(total_z())
    _, sd = build_sigma(d)
    with pytest.raises(ValueError):
        build_sigma_prime(d, sd, 0)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_luders_channel_preserves_trace_and_positivity(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    spectrum = rng.integers(-2, 3, size=dim).astype(float)
    u = random_unitary(dim, rng)
    a = u @ np.diag(spectrum) @ u.conj().T
    d = spectral_decompose(a)
    rho = DensityMatrix(random_density(dim, rng))
    mixed = luders_channel(d, rho)
    assert np.trace(mixed.matrix).real == pytest.approx(1.0, abs=1e-9)
    assert np.linalg.eigvalsh(mixed.matrix).min() > -1e-9
    # idempotent: measuring twice non-selectively changes nothing
    again = luders_channel(d, mixed)
    assert np.allclose(again.matrix, mixed.matrix, atol=1e-9)
    total = 0.0
    for k in range(d.group_count):
        p, branch = luders_update(d, rho, k)
        total += p
        if p > 1e-9:
            post = branch.normalized()
            assert np.linalg.eigvalsh(post.matrix).min() > -1e-9
    assert total == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_born_probabilities_match_projector_traces(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 9))
    u = random_unitary(dim, rng)
    spectrum = rng.integers(-3, 4, size=dim).astype(float)
    a = u @ np.diag(spectrum) @ u.conj().T
    d = spectral_decompose(a)
    rho = random_density(dim, rng)
    dist = born_distribution(d, DensityMatrix(rho))
    for w, p in zip(d.eigenvalues, d.projectors):
        expected = np.trace(p @ rho).real
        assert dist.probability(w) == pytest.approx(max(expected, 0.0), abs=1e-9)


def test_born_on_refined_observable_splits_plus_minus():
    # |+-> is an equal mixture of the 4- and 0-eigenvectors of the
    # degeneracy-lifted observable
    ap = build_spin_operator(2, ((1.0, "ZI"), (1.0, "IZ"), (1.0, TOTAL_SPIN_SQ)))
    d = spectral_decompose(ap)
    dist = born_distribution(d, PureState(PLUS_MINUS))
    # the zero-probability outcomes 6 and 2 are dropped
    labels = [lab for lab, _ in dist.outcomes]
    probs = [p for _, p in dist.outcomes]
    assert labels == pytest.approx([4.0, 0.0], abs=1e-9)
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_luders_update_on_superposition_across_groups():
    d = spectral_decompose(total_z())
    psi = PureState((PLUS_PLUS + PLUS_MINUS) / SQ2)
    rho = DensityMatrix(np.outer(psi.vector, psi.vector.conj()))
    k = d.group_index(0.0)
    prob, branch = luders_update(d, rho, k)
    assert prob == pytest.approx(0.5, abs=1e-12)
    # unnormalised branch is |+-><+-| / 2
    assert np.allclose(branch.matrix,
                       np.outer(PLUS_MINUS, PLUS_MINUS.conj()) / 2, atol=1e-12)


def test_build_sigma_commutes_for_random_observables():
    rng = np.random.default_rng(404)
    for trial in range(50):
        dim = int(rng.integers(2, 9))
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (z + z.conj().T) / 2
        # cluster some eigenvalues so degenerate groups appear too
        if trial % 2:
            vals, vecs = np.linalg.eigh(a)
            vals = np.round(vals)
            a = (vecs * vals) @ vecs.conj().T
        d = spectral_decompose(a)
        sigma, sd = build_sigma(d)
        scale = max(1.0, np.linalg.norm(a)) * max(1.0, np.linalg.norm(sigma))
        assert np.max(np.abs(sigma @ a - a @ sigma)) <= 1e-10 * scale
        assert all(n == 1 for n in sd.multiplicities)


def test_spectral_reassembly_at_larger_dimensions():
    rng = np.random.default_rng(405)
    for dim in (2, 5, 9, 16):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        vals = np.repeat(rng.normal(size=(dim + 1) // 2), 2)[:dim]
        q, _ = np.linalg.qr(z)
        a = (q * vals) @ q.conj().T
        a = (a + a.conj().T) / 2
        d = spectral_decompose(a)
        rebuilt = sum(
            lam * p for lam, p in zip(d.eigenvalues, d.projectors)
        )
        assert np.max(np.abs(rebuilt - a)) <= 1e-9 * max(1.0, np.linalg.norm(a))
