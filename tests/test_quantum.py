"""Tests for states, spectral data, reduction rules, and observable builders."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ludercheck.apparatus import make_luders
from ludercheck.linalg import MAX_DIM, hermitian_eig
from ludercheck.quantum import (
    MAX_SITES,
    DensityMatrix,
    PureState,
    Refinement,
    SpectralDecomposition,
    TOTAL_SPIN_SQ,
    build_sigma,
    build_sigma_prime,
    build_spin_operator,
    closest_label,
    _canonical_basis,
    measure_pure,
    pick_branches,
    reductions,
    renumber,
    spectral_decompose,
    spread_labels,
)

from conftest import (
    full_von_neumann,
    is_luders,
    luders_channel,
    observable_matrix,
    projectors,
    random_density,
    random_state,
    random_unitary,
    sigma_entries_in_group,
    sub_projector,
)

SQ2 = np.sqrt(2.0)

# computational basis for two spins: |++>, |+->, |-+>, |-->
PLUS_PLUS = np.array([1, 0, 0, 0], dtype=complex)
PLUS_MINUS = np.array([0, 1, 0, 0], dtype=complex)
MINUS_PLUS = np.array([0, 0, 1, 0], dtype=complex)
MINUS_MINUS = np.array([0, 0, 0, 1], dtype=complex)
PHI_PLUS = (PLUS_MINUS + MINUS_PLUS) / SQ2
PHI_MINUS = (PLUS_MINUS - MINUS_PLUS) / SQ2

# one system in the only row of a one-row state table
ONE_ROW = np.zeros(1, dtype=int)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_pure_state_rejects_a_non_finite_amplitude(bad):
    # checked before the norm, so no RuntimeWarning, which the suite turns
    # into an error, comes out of the division
    with pytest.raises(ValueError, match="non-finite"):
        PureState(np.array([bad, 0, 0, 0]))


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("dim", [2, 64])
def test_density_matrix_positivity_boundary(dim):
    """Every eigenvalue must be >= -1e-9: -2e-9 is rejected, -5e-10 accepted."""
    u = np.eye(dim) if dim == 2 else random_unitary(dim, np.random.default_rng(7))
    for smallest, accepted in ((-2e-9, False), (-5e-10, True)):
        w = np.full(dim, (1.0 - smallest) / (dim - 1))
        w[-1] = smallest
        m = (u * w) @ u.conj().T
        if accepted:
            assert DensityMatrix(m).dim == dim
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(m)


def test_spectral_decompose_two_spin_total_z():
    d = spectral_decompose(total_z())
    assert d.eigenvalues == (2.0, 0.0, -2.0)
    assert d.multiplicities == (1, 2, 1)
    assert d.group_count == 3
    # projector on the degenerate eigenspace
    assert np.allclose(projectors(d)[1], np.diag([0, 1, 1, 0]))


def test_non_degenerate_labels_are_the_eigenvalues_bit_for_bit(rng):
    # a one-member group's label is its eigenvalue itself, not a mean
    u = random_unitary(64, rng)
    m = (u * rng.normal(size=64)) @ u.conj().T
    m = 0.5 * (m + m.conj().T)
    d = spectral_decompose(m)
    assert d.multiplicities == (1,) * 64
    w, _ = hermitian_eig(m)
    assert np.array_equal(np.array(d.eigenvalues), w)
    assert all(type(label) is float for label in d.eigenvalues)


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
    total = sum(projectors(d))
    assert np.allclose(total, np.eye(5), atol=1e-9)
    recon = sum(w * p for w, p in zip(d.eigenvalues, projectors(d)))
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
    (sd1, _), (sd2, _) = build_sigma(d1), build_sigma(d2)
    sigma1, sigma2 = observable_matrix(sd1), observable_matrix(sd2)
    assert np.max(np.abs(sigma1 - sigma2)) <= 1e-9
    k = next(i for i, n in enumerate(d1.multiplicities) if n >= 2)
    prime1 = observable_matrix(
        build_sigma_prime(sd1, sigma_entries_in_group(d1, sd1, k))
    )
    prime2 = observable_matrix(
        build_sigma_prime(sd2, sigma_entries_in_group(d2, sd2, k))
    )
    assert np.max(np.abs(prime1 - prime2)) <= 1e-9


SIX_SPIN_SPECTRUM = np.repeat([6.0, 4, 2, 0, -2, -4, -6], [1, 6, 15, 20, 15, 6, 1])


def rotated_six_spin_total_z(seed):
    u = random_unitary(64, np.random.default_rng(seed))
    a = (u * SIX_SPIN_SPECTRUM) @ u.conj().T
    return (a + a.conj().T) / 2


def test_derived_projectors_at_d64_with_degeneracies():
    a = rotated_six_spin_total_z(31)
    d = spectral_decompose(a)
    assert d.multiplicities == (1, 6, 15, 20, 15, 6, 1)
    ps = projectors(d)
    assert np.max(np.abs(sum(ps) - np.eye(64))) <= 1e-12
    for i, p in enumerate(ps):
        for j, q in enumerate(ps):
            want = p if i == j else np.zeros_like(p)
            assert np.max(np.abs(p @ q - want)) <= 1e-12
    rebuilt = sum(lam * p for lam, p in zip(d.eigenvalues, ps))
    assert np.max(np.abs(rebuilt - a)) <= 1e-9


def mgs_canonical_basis(projector, rank):
    """Reference: modified Gram-Schmidt over P e_i, one vector at a time."""
    basis = []
    for i in range(projector.shape[0]):
        r = projector[:, i].copy()
        for q in basis:
            r -= (q.conj() @ r) * q
        norm = float(np.linalg.norm(r))
        if norm > 1e-3:
            basis.append(r / norm)
            if len(basis) == rank:
                break
    return basis


def assert_canonical_basis_matches_mgs(v, multiplicities):
    """_canonical_basis(v, multiplicities) against the reference, per eigenspace."""
    got = _canonical_basis(v, multiplicities)
    assert got.shape == v.shape
    for s, n in zip(np.cumsum(multiplicities) - multiplicities, multiplicities):
        vg = v[:, s : s + n]
        want = mgs_canonical_basis(vg @ vg.conj().T, n)
        assert len(want) == n
        assert np.max(np.abs(got[:, s : s + n].T - np.array(want))) <= 1e-12
    return got


def test_canonical_basis_matches_per_column_gram_schmidt():
    rng = np.random.default_rng(33)
    for dim, rank in ((4, 2), (8, 5), (64, 20), (64, 1)):
        assert_canonical_basis_matches_mgs(random_unitary(dim, rng)[:, :rank], (rank,))
    # several eigenspaces, one stack: a full basis of C^8 in blocks of 3, 1, 4
    assert_canonical_basis_matches_mgs(random_unitary(8, rng), (3, 1, 4))


def test_canonical_basis_skips_zero_columns_of_a_diagonal_projector():
    e = np.eye(8)
    v = e[:, [1, 3, 4, 7, 0, 2, 5, 6]].astype(complex)
    assert np.array_equal(_canonical_basis(v, (4, 4)), v)
    # any other eigenvectors of the same projectors give the same basis
    w = np.zeros((8, 8), dtype=complex)
    rng = np.random.default_rng(34)
    w[:4, :4], w[4:, 4:] = random_unitary(4, rng), random_unitary(4, rng)
    got = assert_canonical_basis_matches_mgs(v @ w, (4, 4))
    assert np.max(np.abs(got - v)) <= 1e-12


def test_canonical_basis_skips_a_parallel_column_inside_the_block():
    # the two-spin triplet: P e_1 and P e_2 are both (e_1 + e_2) / 2, so
    # column 2 is skipped after its block and column 3 completes the basis
    triplet = np.zeros((4, 3), dtype=complex)
    triplet[0, 0] = triplet[3, 2] = 1.0
    triplet[1, 1] = triplet[2, 1] = np.sqrt(0.5)
    singlet = np.array([[0.0], [np.sqrt(0.5)], [-np.sqrt(0.5)], [0.0]])
    rng = np.random.default_rng(35)
    v = np.hstack([triplet @ random_unitary(3, rng), singlet])
    got = assert_canonical_basis_matches_mgs(v, (3, 1))
    assert np.max(np.abs(got[:, :3] - triplet)) <= 1e-12


def isometry_with_leading_rows(rows, dim):
    """A dim x n isometry whose first rows are ``rows``; imaginary rows complete it."""
    rows = np.asarray(rows, dtype=complex)
    lam, u = np.linalg.eigh((np.eye(rows.shape[1]) - rows.conj().T @ rows).real)
    rest = 1j * (np.sqrt(np.clip(lam, 0.0, None)) * u).T
    v = np.vstack([rows, rest, np.zeros((dim - len(rows) - len(rest), rows.shape[1]))])
    assert np.max(np.abs(v.conj().T @ v - np.eye(rows.shape[1]))) <= 1e-12
    return v


@pytest.mark.parametrize("factor", [1 - 1e-5, 1 + 1e-5])
def test_canonical_basis_at_the_residual_threshold(factor):
    # column 1's residual against column 0 is factor * 1e-3
    v = isometry_with_leading_rows([[0.5, 0.0], [0.5, 1e-3 * factor]], 5)
    got = assert_canonical_basis_matches_mgs(v, (2,))
    # an accepted column i leaves component i of its vector real and positive;
    # below the threshold the imaginary column 2 gives the second vector
    assert np.isclose(got[1, 1], 1e-3 * factor, rtol=0.0, atol=1e-12) == (factor > 1)
    # column 0's norm is factor * 1e-3: below, column 1 gives the vector
    v = isometry_with_leading_rows([[1e-3 * factor], [-0.6j]], 4)
    got = assert_canonical_basis_matches_mgs(v, (1,))
    assert np.isclose(got[1, 0], -0.6j if factor > 1 else 0.6, rtol=0.0, atol=1e-12)


def test_canonical_basis_with_rank_one_eigenspaces():
    rng = np.random.default_rng(36)
    for dim in (1, 2, 8, 64):
        assert_canonical_basis_matches_mgs(random_unitary(dim, rng), (1,) * dim)


@pytest.mark.parametrize("seed", [31, 32, 33, 34])
def test_canonical_basis_of_rotated_six_spin_spectrum(seed):
    _, v = hermitian_eig(rotated_six_spin_total_z(seed))
    assert_canonical_basis_matches_mgs(v, (1, 6, 15, 20, 15, 6, 1))


def pairwise_spread_labels(eigenvalues, counts):
    """Reference: the smallest gap found by comparing every pair of labels."""
    spread = 4.0 * (1.0 + max(abs(a) for a in eigenvalues))
    for _ in range(200):
        labels = tuple(
            tuple(a * spread + j for j in range(1, n + 1))
            for a, n in zip(eigenvalues, counts)
        )
        flat = [x for group in labels for x in group]
        gap = (
            min(abs(x - y) for i, x in enumerate(flat) for y in flat[i + 1:])
            if len(flat) > 1
            else 1.0
        )
        if gap > 1e-9 * (1.0 + max(abs(x) for x in flat)):
            return labels
        spread *= 2.0
    raise ValueError("could not separate refined labels")


@settings(deadline=None, max_examples=200)
@given(st.lists(
    st.tuples(
        st.one_of(
            st.integers(-6, 6).map(lambda n: n / 4),
            st.floats(-50, 50, allow_nan=False),
        ),
        st.integers(1, 12),
    ),
    min_size=1, max_size=6, unique_by=lambda t: t[0],
))
# Labels 1..9 of eigenvalue 0 meet label 1 * 8 + 1 of eigenvalue 1 at the
# default spread 8, which forces one doubling (two for the second example).
@example([(1.0, 1), (0.0, 9)])
@example([(0.5, 3), (0.0, 12), (-0.5, 3)])
def test_spread_labels_matches_pairwise_minimum(spectrum):
    eigenvalues = [a for a, _ in spectrum]
    counts = [n for _, n in spectrum]
    try:
        want = pairwise_spread_labels(eigenvalues, counts)
    except ValueError:
        with pytest.raises(ValueError, match="could not separate"):
            spread_labels(eigenvalues, counts)
        return
    assert spread_labels(eigenvalues, counts) == want


def test_spread_labels_doubles_until_labels_separate():
    assert spread_labels([1.0, 0.0], [1, 9])[0] == (17.0,)
    assert spread_labels([1.0, 0.0], [1, 8])[0] == (9.0,)


def test_group_index_lookup():
    d = spectral_decompose(total_z())
    assert d.group_index(0.0) == 1
    assert d.group_index(2.0) == 0
    for missing in (1.0, float("nan")):
        with pytest.raises(ValueError):
            d.group_index(missing)


def test_closest_label_tolerance_scales_with_the_value():
    labels = (1e6, 2.0, 0.0)
    assert closest_label(labels, 2.0 + 2e-6) == 1
    assert closest_label(labels, 2.0 + 4e-6) is None
    assert closest_label(labels, 1e-6) == 2
    assert closest_label(labels, 1e6 + 0.5) == 0
    assert closest_label(labels, 1e6 + 1.5) is None
    # of two labels in reach the closer one wins, and a tie the earlier one
    assert closest_label((1.0, 1.0 + 1e-6), 1.0 + 0.9e-6) == 1
    assert closest_label((1.0 + 2**-20, 1.0 - 2**-20), 1.0) == 0


def test_site_cap_is_the_dimension_cap():
    assert 2**MAX_SITES == MAX_DIM
    build_spin_operator(MAX_SITES, ((1.0, "Z" * MAX_SITES),))
    for sites in (0, MAX_SITES + 1):
        with pytest.raises(ValueError, match=f"between 1 and 6, got {sites}"):
            build_spin_operator(sites, ((1.0, "Z" * max(sites, 1)),))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_closest_label_finds_nothing_near_a_non_finite_value(value):
    # at +-inf the scaled tolerance is itself infinite and would admit any label
    assert closest_label((2.0, 0.0, -2.0), value) is None
    assert closest_label((math.inf, -math.inf), value) is None


def luders_branches(d, rho):
    """The Lüders branches of a density matrix, enumerated over its eigenrows.

    Returns per outcome of ``d`` its probability and its unnormalised branch
    sum of w |r><r| over the reduced rows r.
    """
    w, v = np.linalg.eigh(rho)
    rows, outcomes, born, table, index = make_luders(d).branches(v.T)
    weights, post = np.clip(w, 0.0, None)[rows] * born, table[index]
    probs = np.bincount(outcomes, weights, minlength=d.group_count)
    parts = np.zeros((d.group_count,) + rho.shape, dtype=complex)
    np.add.at(parts, outcomes, weights[:, None, None]
              * post[:, :, None] * post[:, None, :].conj())
    return probs, parts


def test_born_distribution_on_maximally_mixed():
    d = spectral_decompose(total_z())
    probs, _ = luders_branches(d, np.eye(4) / 4)
    assert probs == pytest.approx([0.25, 0.5, 0.25], abs=1e-12)


def test_born_distribution_accepts_pure_state():
    d = spectral_decompose(total_z())
    table = PureState(PLUS_MINUS).vector[None, :]
    _, outcomes, probs, _, _ = reductions(d.basis, d.starts, table)
    assert outcomes.tolist() == [d.group_index(0.0)]
    assert probs == pytest.approx([1.0])


def test_luders_update_keeps_superposition_within_eigenspace():
    d = spectral_decompose(total_z())
    psi = (PLUS_MINUS + MINUS_PLUS + PLUS_PLUS) / np.sqrt(3)
    rows, outcomes, weights, table, index = make_luders(d).branches(psi[None, :])
    post = table[index]
    assert outcomes.tolist() == [0, 1]
    assert weights[1] == pytest.approx(2.0 / 3.0)
    # the post state is the pure projection |phi+>, not a mixture
    assert abs(np.vdot(PHI_PLUS, post[1])) == pytest.approx(1.0, abs=1e-12)


# The luders_channel tests check the conftest reference that criterion 6 and
# the apparatus tests rely on.
def test_luders_channel_equals_branch_sum():
    d = spectral_decompose(total_z())
    psi = (PLUS_PLUS + PLUS_MINUS + MINUS_PLUS + MINUS_MINUS) / 2
    rho = DensityMatrix(np.outer(psi, psi.conj()))
    mixed = luders_channel(d, rho)
    probs, parts = luders_branches(d, rho.matrix)
    recon = parts.sum(axis=0)
    total = probs.sum()
    assert total == pytest.approx(1.0)
    assert np.allclose(mixed.matrix, recon, atol=1e-12)
    # coherence between eigenspaces is erased, coherence inside survives
    assert mixed.matrix[0, 1] == pytest.approx(0.0)
    assert mixed.matrix[1, 2] == pytest.approx(0.25)


def test_measure_pure_collapses_and_renormalizes():
    # one draw over measure_pure's branches picks the outcome the Lüders
    # apparatus reduces to with the same draw
    d = spectral_decompose(total_z())
    psi = (PLUS_MINUS + PLUS_PLUS) / SQ2
    rows, outcomes, weights, _, _ = measure_pure(d, psi[None, :])
    assert rows.tolist() == [0, 0]
    assert [d.eigenvalues[k] for k in outcomes] == [2.0, 0.0]
    assert weights == pytest.approx([0.5, 0.5])
    pick = pick_branches(rows, weights, ONE_ROW, np.random.default_rng(3).random(1))
    reduced, table, index = make_luders(d).measure_sampled(
        psi[None, :], ONE_ROW, np.random.default_rng(3)
    )
    post = table[index]
    assert np.array_equal(reduced, outcomes[pick])
    assert np.isclose(np.linalg.norm(post[0]), 1.0)
    if d.eigenvalues[reduced[0]] == 0.0:
        assert abs(np.vdot(PLUS_MINUS, post[0])) == pytest.approx(1.0)
    # a non-degenerate observable's reduced states are its eigenvectors
    sigma, _ = build_sigma(d)
    rows, outcomes, _, table, index = measure_pure(sigma, psi[None, :])
    assert np.array_equal(table[index], sigma.basis.T[outcomes])


def test_measure_pure_of_a_degenerate_observable_reduces_by_luders(rng):
    # a degenerate decomposition's branches are the Lüders apparatus's: the
    # same rows, outcomes and weights, and each reduced state the renormalised
    # eigenspace projection, up to a global phase
    u = random_unitary(8, rng)
    d = spectral_decompose((u * np.array([3.0, 3, 3, 3, 1, 1, 1, -2])) @ u.conj().T)
    states = np.array([random_state(8, rng) for _ in range(3)])
    rows, outcomes, w, table, post_index = measure_pure(d, states)
    want = make_luders(d).branches(states)
    assert np.array_equal(rows, want[0]) and np.array_equal(outcomes, want[1])
    assert np.allclose(w, want[2], rtol=0, atol=1e-12)
    post, luders = table[post_index], want[3][want[4]]
    overlap = np.abs(np.sum(post.conj() * luders, axis=1))
    assert np.allclose(overlap, 1.0, rtol=0, atol=1e-12)
    p = projectors(d)
    for row, k, v in zip(rows, outcomes, post):
        reduced = p[k] @ states[row]
        phase = np.vdot(v, reduced) / np.linalg.norm(reduced)
        assert np.allclose(v * phase, reduced / np.linalg.norm(reduced), atol=1e-12)


def test_measure_pure_statistics(rng):
    d = spectral_decompose(total_z())
    psi = (PLUS_MINUS + PLUS_PLUS) / SQ2
    rows, outcomes, weights, _, _ = measure_pure(d, psi[None, :])
    pick = pick_branches(rows, weights, np.zeros(2000, dtype=int), rng.random(2000))
    labels = np.take(d.eigenvalues, outcomes[pick])
    assert np.mean(labels == 2.0) == pytest.approx(0.5, abs=0.05)


# The sampling kernel, reductions then pick_branches: a random orthonormal
# basis of C^6 in blocks of 2, 1 and 3
KERNEL_STARTS = np.array([0, 2, 3])
KERNEL_SPANS = ((0, 2), (2, 3), (3, 6))


def sampled_blocks(basis, starts, table, index, u):
    """Each system's block: every table row's branches, then one drawn."""
    rows, blocks, weights, _, _ = reductions(basis, starts, table)
    return blocks[pick_branches(rows, weights, index, u)]


def test_collapse_block_frequencies_match_born_weights():
    rng = np.random.default_rng(31)
    basis = random_unitary(6, rng)
    psi = random_state(6, rng)
    born = [np.linalg.norm(basis[:, lo:hi].conj().T @ psi) ** 2
            for lo, hi in KERNEL_SPANS]
    n = 10_000
    k = sampled_blocks(basis, KERNEL_STARTS, psi[None, :],
                       np.zeros(n, dtype=int), rng.random(n))
    counts = np.bincount(k, minlength=3)
    for count, p in zip(counts, born):
        assert abs(count - n * p) <= 5 * np.sqrt(n * p * (1 - p))


def test_collapse_rows_are_unit_and_lie_in_their_block():
    # an apparatus whose blocks span the kernel blocks reduces each row onto
    # the block the kernel picks with the same draws
    rng = np.random.default_rng(32)
    basis = random_unitary(6, rng)
    states = np.array([random_state(6, rng) for _ in range(500)])
    rows = np.arange(500)
    k = sampled_blocks(basis, KERNEL_STARTS, states, rows,
                       np.random.default_rng(9).random(500))
    base = spectral_decompose(basis @ np.diag([3.0, 3, 2, 1, 1, 1]) @ basis.conj().T)
    reduced, table, index = make_luders(base).measure_sampled(
        states, rows, np.random.default_rng(9)
    )
    post = table[index]
    assert np.array_equal(reduced, k)
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
        sampled_blocks(basis, KERNEL_STARTS, states, np.arange(3), rng.random(3))


def test_collapse_over_a_table_matches_collapse_over_its_rows():
    # drawing from each table row's CDF is the same as drawing from a copy
    # of the row per system, for every u
    rng = np.random.default_rng(34)
    basis = random_unitary(6, rng)
    for size in (1, 5, 40):
        table = np.array([random_state(6, rng) for _ in range(size)])
        index = rng.integers(0, size, 2000)
        u = rng.random(2000)
        k = sampled_blocks(basis, KERNEL_STARTS, table, index, u)
        rows = sampled_blocks(basis, KERNEL_STARTS, table[index],
                              np.arange(2000), u)
        assert np.array_equal(k, rows)


def test_collapse_matches_the_cdf_rule_at_its_boundaries():
    # The rule on the full systems x blocks CDF: block k is chosen when
    # cdf[k-1] <= u * total < cdf[k].  Amplitudes 0.5 and 1 give dyadic block
    # weights, so u * total lands exactly on CDF values, and blocks 1 and 3
    # of the first and third rows, and 0 and 4 of the second, weigh zero.
    starts = np.array([0, 1, 2, 4, 5])

    def cdf_rule(amps, index, u):
        born = np.add.reduceat(np.abs(amps) ** 2, starts, axis=1)
        cdf = np.cumsum(born, axis=1)[index]
        chosen = np.count_nonzero(cdf <= (u * cdf[:, -1])[:, None], axis=1)
        return chosen, born[index, chosen]

    amps = np.array([
        [0.5, 0, 0.5, 0.5, 0, 0.5],    # weights 1/4, 0, 1/2, 0, 1/4
        [0, 0.5, 0.5, 0.5, 0.5, 0],    # weights 0, 1/4, 1/2, 1/4, 0
        [1.0, 0, 1.0, 1.0, 0, 1.0],    # weights 1, 0, 2, 0, 1: total 4
    ], dtype=complex)
    u = np.array([0.0, 0.25, 0.5, 0.75, 1 - 2.0**-53, 0.1, 0.9])
    index = np.repeat(np.arange(3), len(u))
    u = np.tile(u, 3)
    want, weight = cdf_rule(amps, index, u)
    got = sampled_blocks(np.eye(6), starts, amps, index, u)
    assert np.array_equal(got, want)
    assert np.all(weight > 0)
    assert got.tolist()[:5] == [0, 2, 2, 4, 4]
    assert got.tolist()[7:12] == [1, 2, 2, 3, 3]
    # random tables with zero-weight blocks, against the same rule
    rng = np.random.default_rng(35)
    amps = np.array([random_state(6, rng) for _ in range(8)])
    amps[:, [1, 4]] = 0.0
    index = rng.integers(0, 8, 5000)
    u = rng.random(5000)
    got = sampled_blocks(np.eye(6), starts, amps, index, u)
    assert np.array_equal(got, cdf_rule(amps, index, u)[0])
    assert not np.isin(got, [1, 3]).any()


def test_pick_branches_over_rows_of_different_branch_counts():
    # Row 0 has one branch, row 1 two that no system refers to, and row 2
    # three of weights 1, 0 and 3 (cdf 1, 1, 4): u * total = 1 lands on the
    # CDF value shared by branches 3 and 4, and the zero-weight branch 4 is
    # never taken.
    rows = np.array([0, 1, 1, 2, 2, 2])
    weights = np.array([0.7, 0.5, 0.5, 1.0, 0.0, 3.0])
    index = np.array([0, 0, 2, 2, 2, 2, 2])
    u = np.array([0.0, 1 - 2.0**-53, 0.0, 0.2499, 0.25, 0.5, 1 - 2.0**-53])
    assert pick_branches(rows, weights, index, u).tolist() == [0, 0, 3, 3, 5, 5, 5]


def test_renumber_matches_unique():
    rng = np.random.default_rng(37)
    for n, size in ((0, 4), (1, 1), (7, 30), (10_000, 24)):
        keys = rng.integers(0, size, n)
        distinct, number = renumber(keys, size)
        want, inverse = np.unique(keys, return_inverse=True)
        assert np.array_equal(distinct, want)
        assert np.array_equal(number, inverse)


def test_branches_checks_every_row_it_enumerates():
    # A kernel enumerates every table row, so an orthogonal row raises even
    # when no system is in it; a table without that row does not.
    rng = np.random.default_rng(35)
    basis = random_unitary(6, rng)
    table = np.array([random_state(6, rng), np.zeros(6), random_state(6, rng)])
    with pytest.raises(ValueError):
        sampled_blocks(basis, KERNEL_STARTS, table, np.array([0, 2, 2, 0]),
                       rng.random(4))
    rows, _, _, _, _ = reductions(basis, KERNEL_STARTS, table[[2, 0]])
    assert set(rows.tolist()) == {0, 1}
    with pytest.raises(ValueError):
        reductions(basis, KERNEL_STARTS, table[[2, 1]])


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
    basis = np.column_stack((PLUS_PLUS, PLUS_MINUS, MINUS_PLUS, MINUS_MINUS))
    blocks = (1,), (1, 1), (1,)
    r = Refinement(base=d, basis=basis, blocks=blocks)
    assert r.block_count(1) == 2
    assert not is_luders(r)
    assert full_von_neumann(r)
    assert np.allclose(sub_projector(r, 1, 0), np.diag([0, 1, 0, 0]))


def test_constructors_freeze_copies_not_the_callers_arrays():
    d = spectral_decompose(total_z())
    v = np.column_stack((PLUS_PLUS, PLUS_MINUS, MINUS_PLUS, MINUS_MINUS))
    r = Refinement(base=d, basis=v, blocks=((1,), (1, 1), (1,)))
    b = np.eye(4, dtype=complex)
    s = SpectralDecomposition((1.0,), (4,), b)
    assert v.flags.writeable and b.flags.writeable
    assert not r.basis.flags.writeable
    assert r.basis.flags.c_contiguous and r.basis.dtype == complex
    assert not s.basis.flags.writeable
    v[:, 1] = MINUS_PLUS
    b[:] = 0.0
    assert np.array_equal(r.basis[:, 1], PLUS_MINUS)
    assert np.array_equal(s.basis, np.eye(4))


def test_refinement_luders_shape():
    d = spectral_decompose(total_z())
    basis = np.column_stack((PLUS_PLUS, PLUS_MINUS, MINUS_PLUS, MINUS_MINUS))
    r = Refinement(base=d, basis=basis, blocks=((1,), (2,), (1,)))
    assert is_luders(r)
    assert not full_von_neumann(r)


def test_refinement_rejects_wrong_span():
    # unitary, but its eigenspace-1 columns mix |++> into |+->
    d = spectral_decompose(total_z())
    basis = np.column_stack(((PLUS_PLUS + PLUS_MINUS) / SQ2,
                             (PLUS_PLUS - PLUS_MINUS) / SQ2,
                             MINUS_PLUS, MINUS_MINUS))
    blocks = (1,), (2,), (1,)
    with pytest.raises(ValueError, match="group 0: basis does not span"):
        Refinement(base=d, basis=basis, blocks=blocks)


def test_refinement_rejects_columns_swapped_between_eigenspaces():
    # still a unitary, so only the span check can catch it
    d = spectral_decompose(total_z())
    basis = np.column_stack((PLUS_MINUS, PLUS_PLUS, MINUS_PLUS, MINUS_MINUS))
    with pytest.raises(ValueError, match="group 0: basis does not span the eigenspace"):
        Refinement(base=d, basis=basis, blocks=((1,), (2,), (1,)))


def test_refinement_rejects_block_sizes_that_are_not_a_partition():
    d = spectral_decompose(total_z())
    basis = np.column_stack((PLUS_PLUS, PLUS_MINUS, MINUS_PLUS, MINUS_MINUS))
    for sizes in ((1,), (1, 2), (2, 0), ()):
        with pytest.raises(ValueError, match="group 1: block sizes"):
            Refinement(base=d, basis=basis, blocks=((1,), sizes, (1,)))
    with pytest.raises(ValueError, match="one block partition per eigenvalue group"):
        Refinement(base=d, basis=basis, blocks=((1,), (2,)))


def test_refinement_rejects_a_non_unitary_basis():
    d = spectral_decompose(total_z())
    basis = np.column_stack((PLUS_PLUS, PLUS_MINUS, 1.001 * MINUS_PLUS, MINUS_MINUS))
    with pytest.raises(ValueError, match="group 1: basis is not orthonormal"):
        Refinement(base=d, basis=basis, blocks=((1,), (2,), (1,)))
    with pytest.raises(ValueError, match="basis has shape"):
        Refinement(base=d, basis=basis[:, :3], blocks=((1,), (2,), (1,)))


def test_build_sigma_labels_and_commutation():
    d = spectral_decompose(total_z())
    sd, _ = build_sigma(d)
    sigma = observable_matrix(sd)
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
    sd, _ = build_sigma(d)
    sigma = observable_matrix(sd)
    assert np.allclose(sigma @ a, a @ sigma, atol=1e-9)
    assert sd.group_count == 4


def test_sigma_entries_in_group_and_straddling_vectors():
    d = spectral_decompose(total_z())
    sigma, _ = build_sigma(d)
    inside = sigma_entries_in_group(d, sigma, 1)
    assert inside.tolist() == [1, 2]
    assert [sigma.eigenvalues[i] for i in inside] == list(sigma.eigenvalues[1:3])
    # Fourier mixtures of |++>, |+->, |-+> have weight 2/3 in eigenspace 1
    # and 1/3 in eigenspace 0: mostly inside and mostly outside straddle.
    omega = np.exp(2j * np.pi / 3)
    mixed = [
        (PLUS_PLUS + omega**j * PLUS_MINUS + omega ** (2 * j) * MINUS_PLUS)
        / np.sqrt(3)
        for j in range(3)
    ]
    bad, _ = build_sigma(spectral_decompose(
        sum((j + 1) * np.outer(v, v.conj()) for j, v in enumerate(mixed))
    ))
    for k in (0, 1):
        with pytest.raises(ValueError, match="straddles eigenspaces"):
            sigma_entries_in_group(d, bad, k)


@pytest.mark.parametrize("name", ["total_z", "rotated_six_spin", "interleaved"])
def test_build_sigma_owner_matches_the_overlap_reference(name):
    a = {
        "total_z": total_z(),
        "rotated_six_spin": rotated_six_spin_total_z(7),
        # sigma's labels alternate between the two eigenspaces
        "interleaved": np.diag([1.001, 1.001, 1.0, 1.0]).astype(complex),
    }[name]
    d = spectral_decompose(a)
    sigma, owner = build_sigma(d)
    assert owner.shape == (d.dim,)
    for k in range(d.group_count):
        probes = np.flatnonzero(owner == k)
        assert np.array_equal(probes, sigma_entries_in_group(d, sigma, k))
        assert len(probes) == d.multiplicities[k]


def test_build_sigma_prime_mixes_within_target_group():
    d = spectral_decompose(total_z())
    sd, _ = build_sigma(d)
    sigma = observable_matrix(sd)
    spd = build_sigma_prime(sd, sigma_entries_in_group(d, sd, 1))
    sp = observable_matrix(spd)
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
    sd, _ = build_sigma(d)
    spd = build_sigma_prime(sd, sigma_entries_in_group(d, sd, 0))
    group_labels = {sd.eigenvalues[i] for i in range(3)}
    for w, vec in zip(spd.eigenvalues, spd.eigenbasis):
        if w in group_labels:
            assert np.allclose(np.abs(vec[0][:3]), 1 / np.sqrt(3), atol=1e-9)


def test_build_sigma_prime_rejects_non_degenerate_group():
    d = spectral_decompose(total_z())
    sd, _ = build_sigma(d)
    with pytest.raises(ValueError):
        build_sigma_prime(sd, sigma_entries_in_group(d, sd, 0))


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
    probs, parts = luders_branches(d, rho.matrix)
    for p, branch in zip(probs, parts):
        if p > 1e-9:
            assert np.linalg.eigvalsh(branch / p).min() > -1e-9
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(parts.sum(axis=0), mixed.matrix, atol=1e-9)


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
    probs, _ = luders_branches(d, rho)
    for prob, p in zip(probs, projectors(d)):
        expected = np.trace(p @ rho).real
        assert prob == pytest.approx(max(expected, 0.0), abs=1e-9)


def test_born_on_refined_observable_splits_plus_minus():
    # |+-> is an equal mixture of the 4- and 0-eigenvectors of the
    # degeneracy-lifted observable
    ap = build_spin_operator(2, ((1.0, "ZI"), (1.0, "IZ"), (1.0, TOTAL_SPIN_SQ)))
    d = spectral_decompose(ap)
    _, outcomes, probs, _, _ = reductions(d.basis, d.starts, PLUS_MINUS[None, :])
    # the zero-probability outcomes 6 and 2 are dropped
    labels = np.take(d.eigenvalues, outcomes)
    assert labels == pytest.approx([4.0, 0.0], abs=1e-9)
    assert probs == pytest.approx([0.5, 0.5], abs=1e-12)


def test_luders_update_on_superposition_across_groups():
    d = spectral_decompose(total_z())
    psi = PureState((PLUS_PLUS + PLUS_MINUS) / SQ2)
    probs, parts = luders_branches(d, np.outer(psi.vector, psi.vector.conj()))
    k = d.group_index(0.0)
    assert probs[k] == pytest.approx(0.5, abs=1e-12)
    # unnormalised branch is |+-><+-| / 2
    assert np.allclose(parts[k],
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
        sd, _ = build_sigma(d)
        sigma = observable_matrix(sd)
        scale = max(1.0, np.linalg.norm(a)) * max(1.0, np.linalg.norm(sigma))
        assert np.max(np.abs(sigma @ a - a @ sigma)) <= 1e-10 * scale
        assert all(n == 1 for n in sd.multiplicities)
        # descending labels over a column permutation of the base basis
        assert list(sd.eigenvalues) == sorted(sd.eigenvalues, reverse=True)
        assert sorted(v.tobytes() for v in sd.basis.T) == sorted(
            v.tobytes() for v in d.basis.T
        )


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
            lam * p for lam, p in zip(d.eigenvalues, projectors(d))
        )
        assert np.max(np.abs(rebuilt - a)) <= 1e-9 * max(1.0, np.linalg.norm(a))
