"""Dense complex linear algebra for Hilbert-space dimensions up to 64.

Operators and states are plain numpy arrays: square complex matrices for
observables, projectors and density matrices, 1-d complex arrays for state
vectors.  Eigendecompositions come from LAPACK through ``np.linalg.eigh``,
with a deterministic order and phase convention imposed on the result.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

#: Absolute tolerance shared by predicates and consistency checks.
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


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    m = as_matrix(a)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def hermitian_eig(
    a: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` sorted descending and the
    columns of ``v`` the matching orthonormal eigenvectors.  Each
    eigenvector's global phase is fixed so that its first component with
    modulus above ``tol`` is real and positive.  Inside a degenerate
    eigenspace the vectors are whatever LAPACK returns; callers that need a
    canonical basis there derive it from the eigenprojector
    (see :func:`ludercheck.quantum.spectral_decompose`).

    Raises ValueError on non-Hermitian input.
    """
    m = as_matrix(a)
    mh = m.conj().T
    if not np.max(np.abs(m - mh)) <= tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    w, v = np.linalg.eigh(0.5 * (m + mh))
    v = v[:, ::-1]
    # Per column, rotate the global phase so that the first component with
    # modulus above tol becomes real and positive.
    significant = np.abs(v) > tol
    cols = np.flatnonzero(significant.any(axis=0))
    lead = v[significant[:, cols].argmax(axis=0), cols]
    phase = np.ones(v.shape[1], dtype=complex)
    phase[cols] = np.conj(lead) / np.abs(lead)
    return w[::-1], v * phase


def apply_spectral_function(
    a: np.ndarray, f: Callable[[float], float], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Apply a real function to a Hermitian matrix through its spectrum."""
    w, v = hermitian_eig(a, tol)
    fw = np.array([float(f(x)) for x in w])
    out = (v * fw) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def projector_from_vectors(
    vectors: Sequence[np.ndarray], tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Orthogonal projector onto the span of an orthonormal vector family."""
    if len(vectors) == 0:
        raise ValueError("no vectors given")
    cols = [as_vector(v) for v in vectors]
    dim = cols[0].shape[0]
    if any(c.shape[0] != dim for c in cols):
        raise ValueError("vectors have mixed dimensions")
    basis = np.column_stack(cols)
    gram = basis.conj().T @ basis
    if np.max(np.abs(gram - np.eye(len(cols)))) > tol:
        raise ValueError("vectors are not orthonormal within tolerance")
    p = basis @ basis.conj().T
    return 0.5 * (p + p.conj().T)
