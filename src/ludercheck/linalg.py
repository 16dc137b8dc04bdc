"""Dense complex linear algebra for Hilbert-space dimensions up to 64.

Operators and states are plain numpy arrays: square complex matrices for
observables, projectors and density matrices, 1-d complex arrays for state
vectors.  Eigendecompositions come from LAPACK through ``np.linalg.eigh``,
with the eigenvalues in descending order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Absolute tolerance of every predicate and consistency check; the protocol
#: also drops a branch holding at most this share of its system's weight.
DEFAULT_TOL = 1e-9

#: Largest accepted Hilbert-space dimension (six spin-1/2 sites).
MAX_DIM = 64


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex matrix of dimension 1..MAX_DIM."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValueError("empty matrix")
    if m.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {m.shape[0]} exceeds the cap of {MAX_DIM}")
    return m


def as_vector(v) -> np.ndarray:
    """Coerce ``v`` to a 1-d complex vector of dimension 1..MAX_DIM."""
    w = np.asarray(v, dtype=complex)
    if w.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got shape {w.shape}")
    if w.shape[0] < 1:
        raise ValueError("empty vector")
    if w.shape[0] > MAX_DIM:
        raise ValueError(f"dimension {w.shape[0]} exceeds the cap of {MAX_DIM}")
    return w


def is_hermitian(a: np.ndarray) -> bool:
    m = as_matrix(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= DEFAULT_TOL)


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and the
    columns of ``v`` the matching orthonormal eigenvectors, as LAPACK
    returns them; callers that need a canonical basis derive it from the
    eigenprojectors (see :func:`ludercheck.quantum.spectral_decompose`).

    Raises ValueError unless every entry of ``a - a^H`` is within
    DEFAULT_TOL in modulus (:func:`is_hermitian`).
    """
    m = as_matrix(a)
    if not is_hermitian(m):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return w[::-1], v[:, ::-1]


def projector_from_vectors(vectors: Sequence[np.ndarray]) -> np.ndarray:
    """Orthogonal projector onto the span of an orthonormal vector family."""
    if len(vectors) == 0:
        raise ValueError("no vectors given")
    cols = [as_vector(v) for v in vectors]
    dim = cols[0].shape[0]
    if any(c.shape[0] != dim for c in cols):
        raise ValueError("vectors have mixed dimensions")
    basis = np.column_stack(cols)
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(len(cols)))) > DEFAULT_TOL:
        raise ValueError("vectors are not orthonormal within tolerance")
    p = basis @ basis.conj().T
    return 0.5 * (p + p.conj().T)
