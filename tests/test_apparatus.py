"""Tests for the black-box measurement apparatus."""

import numpy as np
import pytest

from ludercheck.apparatus import (
    make_full_von_neumann,
    make_luders,
    make_partial,
)
from ludercheck.quantum import (
    DensityMatrix,
    PureState,
    build_sigma,
    build_sigma_prime,
    sigma_entries_in_group,
    spectral_decompose,
)

from conftest import (
    full_von_neumann,
    is_luders,
    luders_channel,
    projectors,
    random_density,
    random_state,
    random_unitary,
    sub_projector,
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
    table = ((PLUS_MINUS + PLUS_PLUS) / np.sqrt(2))[None, :]
    label, post, index = app.measure_sampled(table, np.zeros(50, dtype=int), rng)
    label2, post2, index2 = app.measure_sampled(post, index, rng)
    assert np.array_equal(label2, label)
    overlaps = np.abs(np.sum(post[index].conj() * post2[index2], axis=1))
    assert overlaps == pytest.approx(np.ones(50))


def test_measure_sampled_statistics_match_channel(rng):
    app = phi_apparatus()
    index, table, rows = app.measure_sampled(
        PLUS_MINUS[None, :], np.zeros(3000, dtype=int), rng
    )
    post = table[rows]
    labels = np.take(app.outcome_labels, index)
    counts = dict(zip(*np.unique(labels, return_counts=True)))
    overlaps = np.abs(post[labels == 0.0] @ PHI_PLUS.conj()) ** 2
    assert counts == {0.0: 3000}
    # half the collapses land on |phi+>, half on |phi->
    assert np.mean(overlaps) == pytest.approx(0.5, abs=0.05)
    assert set(np.round(overlaps, 6)) == {0.0, 1.0}


def test_measure_sampled_reduces_each_row_and_block_once():
    # 10^4 systems spread over 3 distinct states: the reduced table holds one
    # row per reached rank-one block, that block's basis column, which every
    # state reaching the block shares, and one row per reached pair of state
    # and larger block, the state's renormalised projection onto the block
    from ludercheck.quantum import build_spin_operator
    d = spectral_decompose(build_spin_operator(3, ((1.0, "ZII"), (1.0, "IZI"))))
    app = make_partial(d, (((0, 1),), ((0,), (1, 3), (2,)), ((0,), (1,))))
    ref = app.reveal_refinement()
    rng = np.random.default_rng(36)
    table = np.array([random_state(8, rng) for _ in range(3)])
    index = rng.integers(0, 3, 10_000)
    outcomes, post, post_index = app.measure_sampled(table, index, rng)
    assert sorted(set(post_index.tolist())) == list(range(len(post)))
    rows_of = {}
    for row, k, p in set(zip(index.tolist(), outcomes.tolist(), post_index.tolist())):
        sizes = ref.blocks[k]
        firsts = d.starts[k] + np.cumsum((0,) + sizes[:-1])
        keys = []
        for b, (n, first) in enumerate(zip(sizes, firsts)):
            if n == 1:
                if np.array_equal(post[p], ref.basis[:, first]):
                    keys.append((k, b))
                continue
            reduced = sub_projector(ref, k, b) @ table[row]
            reduced /= np.linalg.norm(reduced)
            if np.allclose(post[p], reduced, rtol=0, atol=1e-12):
                keys.append((k, b, row))
        assert len(keys) == 1
        rows_of.setdefault(keys[0], set()).add(p)
    assert all(len(rows) == 1 for rows in rows_of.values())
    assert len(rows_of) == len(post)
    # both kinds of row are present: 4 rank-one blocks, 2 larger ones x 3 states
    assert sorted(len(key) for key in rows_of) == [2] * 4 + [3] * 6


def test_full_von_neumann_shares_one_row_per_basis_column():
    # n sigma-prime rows of a six-dimensional eigenspace each reach all n
    # rank-one blocks: n^2 branches, but only the n basis columns as states
    d = spectral_decompose(total_z(4))
    k = d.multiplicities.index(6)
    sigma = build_sigma(d)
    probes = sigma_entries_in_group(d, sigma, k)
    table = build_sigma_prime(sigma, probes).basis.T[probes]
    n = len(probes)
    app = make_full_von_neumann(d)
    rows, coarse, w, post, index = app.branches(table)
    assert len(rows) == n * n and set(coarse.tolist()) == {k}
    assert w == pytest.approx(np.full(n * n, 1.0 / n), abs=1e-12)
    assert len(post) == n
    assert np.array_equal(post, d.basis.T[d.starts[k] : d.starts[k] + n])
    assert index.tolist() == list(range(n)) * n


def test_reveal_refinement_reports_ground_truth():
    d = spectral_decompose(total_z())
    assert is_luders(make_luders(d).reveal_refinement())
    assert full_von_neumann(phi_apparatus().reveal_refinement())
    blocks = (((0,),), ((0, 1),), ((0,),))
    partial = make_partial(d, blocks)
    assert partial.reveal_refinement().block_count(1) == 1


def test_builders_reject_malformed_choices():
    d = spectral_decompose(total_z())
    with pytest.raises(ValueError, match="group 1: blocks are not a partition of 0..1"):
        make_partial(d, (((0,),), ((0,), (0, 1)), ((0,),)))
    with pytest.raises(ValueError, match="group 1: blocks are not a partition of 0..1"):
        make_partial(d, (((0,),), ((0, 1), ()), ((0,),)))
    with pytest.raises(ValueError, match="one block partition per eigenvalue group"):
        make_partial(d, (((0,),), ((0, 1),)))
    with pytest.raises(ValueError, match="group 1: expected 2 basis vectors, got 1"):
        make_full_von_neumann(d, (None, (PHI_PLUS,), None))
    with pytest.raises(ValueError, match="group 1: basis vector 1 has dimension 3"):
        make_full_von_neumann(d, (None, (PHI_PLUS, PHI_MINUS[:3]), None))


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
    assert not is_luders(ref) and not full_von_neumann(ref)
    sub = sub_projector(ref, 1, 0)
    assert np.trace(sub).real == pytest.approx(2.0)
    assert np.allclose(sub @ sub, sub, atol=1e-12)


def test_sampled_frequencies_match_exact_channel():
    app = phi_apparatus()
    state = PureState((PLUS_PLUS + PLUS_MINUS + MINUS_MINUS) / np.sqrt(3))
    expected = {lab: p for lab, p, _ in
                app.channel_exact(DensityMatrix(
                    np.outer(state.vector, state.vector.conj())))}
    rng = np.random.default_rng(2024)
    n = 10_000
    index, _, _ = app.measure_sampled(
        state.vector[None, :], np.zeros(n, dtype=int), rng
    )
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


def rotated_partial_apparatus(spectrum, rng):
    """A Haar-rotated observable and an apparatus over random blocks.

    The canonical columns of each eigenspace are permuted at random and cut
    into a random number of consecutive cells, so that the cells, as index
    sets of the canonical basis, are not contiguous in general.
    """
    u = random_unitary(len(spectrum), rng)
    base = spectral_decompose((u * np.asarray(spectrum, float)) @ u.conj().T)
    blocks = []
    for n in base.multiplicities:
        cells = np.array_split(rng.permutation(n), rng.integers(1, n + 1))
        blocks.append(tuple(tuple(int(i) for i in cell) for cell in cells))
    return make_partial(base, blocks)


def per_block_channel(app, rho):
    """Reference: sum over the blocks of P_b rho P_b, grouped by coarse label."""
    ref = app.reveal_refinement()
    out = []
    for k, label in enumerate(app.outcome_labels):
        acc = sum(
            sub_projector(ref, k, b) @ rho @ sub_projector(ref, k, b)
            for b in range(ref.block_count(k))
        )
        prob = float(np.trace(acc).real)
        if prob > 1e-9:
            out.append((label, prob, acc / prob))
    return out


@pytest.mark.parametrize("spectrum", [
    [1, 1, 1, 0],
    [3, 3, 3, 3, 1, 1, 1, -2],
    np.repeat([6, 4, 2, 0, -2, -4, -6], [1, 6, 15, 20, 15, 6, 1]),
], ids=["d4", "d8", "d64"])
def test_channel_exact_matches_per_block_reference(spectrum):
    rng = np.random.default_rng(len(spectrum))
    for _ in range(3):
        app = rotated_partial_apparatus(spectrum, rng)
        mixed = random_density(app.dim, rng)
        # The same state with eigenspace 1 projected out: that outcome has
        # zero probability and must be left out.
        q = np.eye(app.dim) - projectors(app.reveal_refinement().base)[1]
        off = q @ mixed @ q
        for rho in (mixed, off / np.trace(off).real):
            got = app.channel_exact(DensityMatrix(rho))
            want = per_block_channel(app, rho)
            assert [lab for lab, _, _ in got] == [lab for lab, _, _ in want]
            for (_, p, post), (_, p_ref, post_ref) in zip(got, want):
                assert abs(p - p_ref) <= 1e-12
                assert np.max(np.abs(post.matrix - post_ref)) <= 1e-12
        assert app.outcome_labels[1] not in [lab for lab, _, _ in got]


@pytest.mark.parametrize("spectrum", [
    [1, 1, 1, 0],
    [3, 3, 3, 3, 1, 1, 1, -2],
    np.repeat([6, 4, 2, 0, -2, -4, -6], [1, 6, 15, 20, 15, 6, 1]),
], ids=["d4", "d8", "d64"])
def test_branches_sum_to_the_exact_channel(spectrum):
    rng = np.random.default_rng(200 + len(spectrum))
    dim = len(spectrum)
    u = random_unitary(dim, rng)
    base = spectral_decompose((u * np.asarray(spectrum, float)) @ u.conj().T)
    halves = tuple(
        (tuple(range(n // 2)), tuple(range(n // 2, n))) if n > 1 else ((0,),)
        for n in base.multiplicities
    )
    devices = (make_luders(base), make_partial(base, halves),
               make_full_von_neumann(base))
    # A pure state, a rank-3 mixture of non-orthogonal rows, and a pure state
    # with eigenspace 1 projected out, whose outcome must not be reached.
    off = random_state(dim, rng)
    off = off - projectors(base)[1] @ off
    inputs = (
        (random_state(dim, rng)[None, :], np.ones(1)),
        (np.array([random_state(dim, rng) for _ in range(3)]),
         np.array([0.5, 0.3, 0.2])),
        ((off / np.linalg.norm(off))[None, :], np.ones(1)),
    )
    for app in devices:
        ref = app.reveal_refinement()
        for states, weights in inputs:
            rho = (weights[:, None, None] * states[:, :, None]
                   * states[:, None, :].conj()).sum(axis=0)
            rows, coarse, row_w, table, index = app.branches(states)
            w, post = weights[rows] * row_w, table[index]
            want = app.channel_exact(DensityMatrix(rho))
            assert sorted(set(coarse.tolist())) == [
                app.outcome_labels.index(lab) for lab, _, _ in want
            ]
            for lab, p, branch in want:
                mine = coarse == app.outcome_labels.index(lab)
                got = (w[mine, None, None] * post[mine, :, None]
                       * post[mine, None, :].conj()).sum(axis=0)
                assert np.max(np.abs(got - p * branch.matrix)) <= 1e-12
            # every block of Born weight above 1e-9 is reached, no other one
            born = np.array([
                [np.linalg.norm(sub_projector(ref, k, b) @ s) ** 2
                 for k in range(base.group_count)
                 for b in range(ref.block_count(k))]
                for s in states
            ])
            assert len(rows) == np.count_nonzero(born > 1e-9)
            assert np.all(row_w > 1e-9)
            assert np.allclose(np.linalg.norm(post, axis=1), 1.0, atol=1e-12)
        assert 1 not in coarse.tolist()
        with pytest.raises(ValueError):
            app.branches(np.array([random_state(dim, rng), np.zeros(dim)]))
