"""Shared helpers for the test suite, and the references the tests check against.

The references are not part of the package: the protocol never needs them.
They state a quantity the direct way (a spectral function through the
eigendecomposition, the eigenprojectors, the Lüders channel as a sum of
P rho P, a block's projector from its basis vectors, sigma's outcomes inside
an eigenspace from their overlaps with it), and the tests compare
the package's own kernels with them.
"""

import numpy as np
import pytest

from ludercheck.cli import SCHEMA_VERSION
from ludercheck.linalg import DEFAULT_TOL, hermitian_eig, projector_from_vectors
from ludercheck.quantum import DensityMatrix, SpectralDecomposition
from ludercheck.scenarios import (
    ConsecutiveSpec,
    FullVonNeumannSpec,
    LudersSpec,
    PartialSpec,
)


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


def projectors(decomp):
    """The eigenprojectors P_k = B_k B_k^H of a spectral decomposition."""
    return tuple(projector_from_vectors(group) for group in decomp.eigenbasis)


def full_von_neumann(refinement):
    """Whether every block of a refinement holds a single basis vector."""
    return all(n == 1 for sizes in refinement.blocks for n in sizes)


def is_luders(refinement):
    """Whether every eigenspace of a refinement is a single block."""
    return all(len(sizes) == 1 for sizes in refinement.blocks)


def group_vectors(refinement, k):
    """The basis vectors of eigenspace ``k`` of a refinement, as rows."""
    start = refinement.base.starts[k]
    return refinement.basis[:, start : start + refinement.base.multiplicities[k]].T


def sub_projector(refinement, k, b):
    """The projector onto block ``b`` of eigenspace ``k`` of a refinement."""
    lo = sum(refinement.blocks[k][:b])
    return projector_from_vectors(
        group_vectors(refinement, k)[lo : lo + refinement.blocks[k][b]]
    )


class KrausDevice:
    """A black box given by Kraus operators, outside the refinement model.

    ``kraus`` lists ``(outcome, K)`` pairs, with ``outcome`` an index into
    ``outcome_labels``.  The device exposes only what ``discriminate``
    calls in either mode: ``dim``, ``outcome_labels`` and ``branches``.
    """

    def __init__(self, outcome_labels, kraus):
        self.outcome_labels = tuple(outcome_labels)
        self._outcomes = np.array([k for k, _ in kraus])
        self._ops = np.array([op for _, op in kraus])
        self.dim = self._ops.shape[1]
        completeness = np.einsum("kji,kjl->il", self._ops.conj(), self._ops)
        assert np.allclose(completeness, np.eye(self.dim), atol=1e-12)

    def branches(self, table):
        """Row v goes to K v / |K v| with weight |K v|^2.

        Branches of |K v|^2 at most DEFAULT_TOL are dropped, as the
        apparatus drops them; the rest come in row-major order.
        """
        images = np.einsum("kij,rj->rki", self._ops, table)
        norms = (np.abs(images) ** 2).sum(axis=2)
        rows, ops = np.nonzero(norms > DEFAULT_TOL)
        post = images[rows, ops] / np.sqrt(norms[rows, ops])[:, None]
        return (rows, self._outcomes[ops], norms[rows, ops], post,
                np.arange(len(rows)))


def sigma_entries_in_group(
    decomp: SpectralDecomposition, sigma: np.ndarray, k: int
) -> np.ndarray:
    """The outcome indices of a column matrix sigma inside eigenspace k, ascending.

    Raises ValueError if some sigma column straddles eigenspace ``k``,
    whether it lies mostly inside it or mostly outside.
    """
    amps = decomp.eigenbasis[k].conj() @ sigma
    weights = (amps.real**2 + amps.imag**2).sum(axis=0)
    if np.any((weights > 1e-8) & (weights < 1.0 - 1e-8)):
        raise ValueError(
            "auxiliary eigenvector straddles eigenspaces; "
            "the auxiliary observable must commute with the base"
        )
    return np.flatnonzero(weights > 0.5)


def apply_spectral_function(a, f):
    """Apply a real function to a Hermitian matrix through its spectrum."""
    w, v = hermitian_eig(a)
    fw = np.array([float(f(x)) for x in w])
    out = (v * fw) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def luders_channel(decomp, rho):
    """The non-selective Lüders channel: sum of all outcome branches."""
    total = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    for p in projectors(decomp):
        total += p @ rho.matrix @ p
    return DensityMatrix(total)


def same_transcript(a, b):
    """Whether two transcripts hold the same records in the same order."""
    return (
        np.array_equal(a.system_ids, b.system_ids)
        and np.array_equal(a.stages, b.stages)
        and np.array_equal(a.outcomes, b.outcomes)
    )


def scenario_to_document(scenario):
    """Serialise a scenario to the JSON document form (schema_version 1)."""

    def expression_doc(expr):
        if isinstance(expr, np.ndarray):
            return {"matrix": [[[x.real, x.imag] for x in row] for row in expr]}
        return {"terms": [[c, w] for c, w in expr]}

    spec = scenario.apparatus_spec
    if isinstance(spec, LudersSpec):
        apparatus = {"kind": "luders"}
    elif isinstance(spec, FullVonNeumannSpec):
        apparatus = {"kind": "full_von_neumann"}
        if spec.eigenbasis is not None:
            apparatus["eigenbasis"] = [
                None if group is None else [
                    [[complex(x).real, complex(x).imag] for x in vec] for vec in group
                ]
                for group in spec.eigenbasis
            ]
    elif isinstance(spec, PartialSpec):
        apparatus = {"kind": "partial",
                     "blocks": [[list(cell) for cell in group]
                                for group in spec.blocks]}
    elif isinstance(spec, ConsecutiveSpec):
        apparatus = {"kind": "consecutive",
                     "observables": [expression_doc(o) for o in spec.observables]}
    else:
        raise TypeError(f"unknown apparatus spec {spec!r}")
    doc = {
        "schema_version": SCHEMA_VERSION,
        "sites": scenario.sites,
        "observable": expression_doc(scenario.observable_expr),
        "apparatus": apparatus,
        "initial_state": "auto" if scenario.initial_state is None else [
            [complex(x).real, complex(x).imag] for x in scenario.initial_state
        ],
    }
    if scenario.target_eigenvalue is not None:
        doc["protocol"] = {"target_eigenvalue": scenario.target_eigenvalue}
    return doc


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
