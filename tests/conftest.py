"""Shared helpers for the test suite."""

import numpy as np
import pytest


def random_unitary(dim, rng):
    """Haar-ish unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the result is well distributed
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(dim, rng, rank=None):
    """Random density matrix with the given rank (full rank by default)."""
    rank = dim if rank is None else rank
    z = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    m = z @ z.conj().T
    return m / np.trace(m).real


def random_state(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def observable_matrix(decomp):
    """The observable of a spectral decomposition, sum of a_i |b_i><b_i|."""
    return (decomp.basis * decomp.eigenvalues) @ decomp.basis.conj().T


def full_von_neumann(refinement):
    """Whether every block of a refinement holds a single basis vector."""
    return all(len(cell) == 1 for cells in refinement.blocks for cell in cells)


def set_partitions(items):
    """All partitions of a list into unordered non-empty cells."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]
        yield [[first]] + partition


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)
