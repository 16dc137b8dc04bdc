"""Unit tests for the dense linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ludercheck.linalg import (
    as_matrix,
    as_vector,
    hermitian_eig,
    is_hermitian,
    projector_from_vectors,
)

from conftest import apply_spectral_function, random_unitary


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_oversized():
    with pytest.raises(ValueError):
        as_matrix(np.eye(65))


def test_as_vector_rejects_matrix_input():
    with pytest.raises(ValueError):
        as_vector(np.zeros((2, 2)))


def test_predicates_on_simple_matrices():
    h = np.array([[1, 1j], [-1j, 0]], dtype=complex)
    assert is_hermitian(h)
    assert not is_hermitian(h + np.array([[0, 1e-3], [0, 0]]))
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert is_hermitian(p) and np.allclose(p @ p, p)
    assert not np.allclose((2 * p) @ (2 * p), 2 * p)


def test_hermitian_eig_diagonal_matrix():
    w, v = hermitian_eig(np.diag([3.0, -1.0, 3.0, 0.0]))
    assert np.allclose(w, [3.0, 3.0, 0.0, -1.0])
    # eigenvectors form a unitary
    assert np.allclose(v @ v.conj().T, np.eye(4), atol=1e-12)


def test_hermitian_eig_known_two_by_two():
    # eigenvalues of [[0, 1], [1, 0]] are +-1 with (1, +-1)/sqrt(2)
    w, v = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(np.abs(v[:, 0]), [1 / np.sqrt(2)] * 2)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # a NaN fails every comparison, so it is not within the tolerance either
    with pytest.raises(ValueError):
        hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_hermitian_eig_ordering_is_descending():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    a = a + a.conj().T
    w, _ = hermitian_eig(a)
    assert all(w[i] >= w[i + 1] for i in range(len(w) - 1))


def test_hermitian_eig_matches_reference_solver():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 5, 8, 16):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a + a.conj().T
        w, v = hermitian_eig(a)
        ref = np.sort(np.linalg.eigvalsh(a))[::-1]
        assert np.allclose(w, ref, atol=1e-9 * max(1.0, np.abs(ref).max()))
        assert np.allclose(v @ np.diag(w) @ v.conj().T, a,
                           atol=1e-9 * max(1.0, np.abs(ref).max()))


def test_hermitian_eig_is_deterministic():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    a = a + a.conj().T
    w1, v1 = hermitian_eig(a)
    w2, v2 = hermitian_eig(a.copy())
    assert np.array_equal(w1, w2) and np.array_equal(v1, v2)


@settings(deadline=None, max_examples=30)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=10))
def test_hermitian_eig_reconstructs_random_matrices(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = a + a.conj().T
    w, v = hermitian_eig(a)
    scale = max(1.0, np.abs(w).max())
    assert np.allclose(v @ np.diag(w) @ v.conj().T, a, atol=1e-9 * scale)
    assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-10)


def test_hermitian_eig_degenerate_subspace_is_orthonormal():
    rng = np.random.default_rng(7)
    u = random_unitary(6, rng)
    a = u @ np.diag([2.0, 2.0, 2.0, -1.0, -1.0, 5.0]) @ u.conj().T
    w, v = hermitian_eig(a)
    assert np.allclose(sorted(w, reverse=True), [5, 2, 2, 2, -1, -1])
    assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-10)


# The apply_spectral_function tests check the conftest reference that
# criterion 2 relies on.
def test_apply_spectral_function_square():
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    sq = apply_spectral_function(a, lambda x: x**2)
    assert np.allclose(sq, a @ a, atol=1e-12)


def test_apply_spectral_function_polynomial_identity():
    # f(x) = -(8/3) x + x^2 - x^3 / 12 sends {6, 4, 2, 0} to {2, 0, -2, 0}
    f = lambda x: -(8.0 / 3.0) * x + x**2 - x**3 / 12.0
    a = np.diag([6.0, 4.0, 2.0, 0.0])
    assert np.allclose(apply_spectral_function(a, f),
                       np.diag([2.0, 0.0, -2.0, 0.0]), atol=1e-12)


def test_projector_from_vectors_span():
    v1 = np.array([0, 1, 0, 0], dtype=complex)
    v2 = np.array([0, 0, 1, 0], dtype=complex)
    p = projector_from_vectors((v1, v2))
    assert np.allclose(p, np.diag([0.0, 1.0, 1.0, 0.0]))


def test_projector_from_vectors_rejects_non_orthonormal():
    v1 = np.array([1, 0], dtype=complex)
    v2 = np.array([1, 1], dtype=complex) / np.sqrt(2)
    with pytest.raises(ValueError):
        projector_from_vectors((v1, v2))


def test_apply_spectral_function_composes():
    rng = np.random.default_rng(77)
    g = lambda x: x**2 - 1.0
    f = lambda x: 2.0 * x + 3.0
    for dim in (2, 3, 5, 8):
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = (z + z.conj().T) / 2
        a = a / np.linalg.norm(a)
        composed = apply_spectral_function(a, lambda x: f(g(x)))
        chained = apply_spectral_function(apply_spectral_function(a, g), f)
        assert np.max(np.abs(composed - chained)) <= 1e-11

