"""States, observables, and the spectral structure behind projective measurement.

The central object is a :class:`SpectralDecomposition`: the distinct
eigenvalues of a Hermitian observable and a canonical eigenbasis as one
column matrix, eigenspace after eigenspace.  A :class:`Refinement` cuts
each eigenspace into blocks in the same column layout.  On top of them sit
the measurement kernels, which take only a table of distinct states:
:func:`reductions` enumerates each row's branches once, with its Born
weight and its reduced state, a ray (a rank-one block's basis column, which
every branch into the block shares, or a larger block's projection), and
:func:`pick_branches` draws one branch per system by inverse CDF.  Then
come a builder for spin-chain observables and the two auxiliary observables
of the discrimination protocol, both column operations on that matrix: a
non-degenerate refinement ``sigma`` diagonal in the canonical eigenbasis,
returned with the eigenspace that owns each of its outcomes, and a second
refinement ``sigma_prime`` whose eigenvectors inside one eigenspace
overlap every ``sigma`` eigenvector there.  The constructors
freeze copies of the arrays they are given, never the caller's own arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL

#: Eigenvalues closer than this fraction of the spectral range are treated
#: as one degenerate group.
GROUPING_RELATIVE = 1e-6

#: Gram-Schmidt residual below which a projector column adds no new
#: direction to the canonical eigenbasis.  The d columns' squared residuals
#: sum to the rank still missing and a skipped column holds at most this
#: squared, so while d * BASIS_RESIDUAL**2 < 1 a later column clears it.
BASIS_RESIDUAL = 1e-3

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Most spin-1/2 sites an observable may have: 2**MAX_SITES is linalg.MAX_DIM.
MAX_SITES = linalg.MAX_DIM.bit_length() - 1

#: Term keyword for the squared total spin, normalised so that on two
#: spin-1/2 sites the triplet/singlet sectors take the values 4 and 0.
TOTAL_SPIN_SQ = "TOTAL_SPIN_SQ"


def closest_label(labels: Sequence[float], value: float) -> int | None:
    """The index of the label closest to ``value``, the earliest on a tie.

    None if ``value`` is not finite or that label is further than
    1e-6 * (1 + |value|) away.  Outcome labels and eigenvalue groups are
    looked up by this one rule.
    """
    if not math.isfinite(value):
        return None
    diffs = [abs(label - value) for label in labels]
    k = diffs.index(min(diffs))
    return k if diffs[k] <= 1e-6 * (1.0 + abs(value)) else None


@dataclass(frozen=True)
class PureState:
    """A normalised state vector."""

    vector: np.ndarray

    def __post_init__(self):
        v = linalg.as_vector(self.vector)
        if not np.isfinite(v).all():
            raise ValueError("state vector has a non-finite amplitude")
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state vector norm {norm} is not 1")
        v = v / norm
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace, positive-semidefinite Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if not linalg.is_hermitian(m):
            raise ValueError("density matrix is not Hermitian")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > 1e-6:
            raise ValueError(f"density matrix trace {trace} is not 1")
        # m + DEFAULT_TOL*I has a Cholesky factor exactly when every
        # eigenvalue of m exceeds -DEFAULT_TOL.
        try:
            np.linalg.cholesky(m + DEFAULT_TOL * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            raise ValueError("density matrix has a negative eigenvalue") from None
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues and a canonical eigenbasis.

    Eigenvalues are sorted descending.  ``basis`` is a read-only C-ordered
    copy of the given unitary matrix, whose columns are the canonical
    eigenbasis, eigenspace after eigenspace: eigenspace ``k`` owns the
    ``multiplicities[k]`` columns from ``starts[k]``, in a fixed order that
    every construction downstream treats as canonical.  ``(basis, starts)``
    is the block layout the measurement kernels take.  The per-eigenspace
    views are derived from it on first use.
    """

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    basis: np.ndarray

    def __post_init__(self):
        basis = np.array(self.basis, order="C")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def starts(self) -> np.ndarray:
        """The first column of each eigenspace in :attr:`basis`."""
        return np.cumsum((0,) + self.multiplicities[:-1])

    @cached_property
    def eigenbasis(self) -> tuple[np.ndarray, ...]:
        """Read-only views of each eigenspace's basis vectors, as rows."""
        return tuple(
            self.basis[:, s : s + n].T for s, n in zip(self.starts, self.multiplicities)
        )

    @property
    def group_count(self) -> int:
        return len(self.eigenvalues)

    def group_index(self, eigenvalue: float) -> int:
        """Index of the group whose eigenvalue is the :func:`closest_label`."""
        k = closest_label(self.eigenvalues, eigenvalue)
        if k is None:
            raise ValueError(f"no eigenvalue group near {eigenvalue}")
        return k


@dataclass(frozen=True)
class Refinement:
    """The hidden structure of a measurement apparatus for a base observable.

    Each eigenspace of the base observable is carved into blocks, laid out
    as the columns of the unitary ``basis``: eigenspace after eigenspace in
    ``base`` order, so eigenspace ``k`` owns the ``base.multiplicities[k]``
    columns from ``base.starts[k]``, and block after block inside each, with
    ``blocks[k]`` the sizes of eigenspace ``k``'s blocks in order.  Block
    ``(k, b)`` carries the sub-projector onto the span of its columns.  One
    block per eigenspace is the Lüders rule; all blocks of size one is a
    full von Neumann measurement; anything between is partial von Neumann.
    Any orthonormal columns spanning each eigenspace are allowed, not only
    the canonical ones.  The constructor stores a read-only C-ordered
    complex copy of ``basis``.
    """

    base: SpectralDecomposition
    basis: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        base = self.base
        if len(self.blocks) != base.group_count:
            raise ValueError("need one block partition per eigenvalue group")
        basis = np.array(self.basis, dtype=complex, order="C")
        if basis.shape != base.basis.shape:
            raise ValueError(f"basis has shape {basis.shape}, "
                             f"expected {base.basis.shape}")
        group = np.repeat(np.arange(base.group_count), base.multiplicities)
        bad = np.abs(basis.conj().T @ basis - np.eye(base.dim)) > DEFAULT_TOL
        if bad.any():
            k = group[np.argmax(bad.any(axis=0))]
            raise ValueError(f"group {k}: basis is not orthonormal")
        blocks = tuple(tuple(int(n) for n in sizes) for sizes in self.blocks)
        for k, sizes in enumerate(blocks):
            n = base.multiplicities[k]
            if sum(sizes) != n or min(sizes) < 1:
                raise ValueError(f"group {k}: block sizes {sizes} "
                                 f"are not a partition of {n}")
        # Orthonormal columns of eigenspace k with no weight outside it span it.
        overlap = np.abs(base.basis.conj().T @ basis)
        bad = (overlap > 1e-8) & (group[:, None] != group)
        if bad.any():
            k = group[np.argmax(bad.any(axis=0))]
            raise ValueError(f"group {k}: basis does not span the eigenspace")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "blocks", blocks)

    def block_count(self, k: int) -> int:
        return len(self.blocks[k])


def _group_sorted_eigenvalues(w: np.ndarray, threshold: float) -> list[list[int]]:
    """Group indices of a descending eigenvalue array by gap <= threshold."""
    groups = [[0]]
    for i in range(1, len(w)):
        if w[groups[-1][0]] - w[i] <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _canonical_basis(v: np.ndarray, multiplicities: Sequence[int]) -> np.ndarray:
    """Gram-Schmidt over the projector columns P_g e_i in index order, per eigenspace.

    ``v`` holds orthonormal eigenvectors as columns, n_g = ``multiplicities[g]``
    of them (V_g) per eigenspace in turn.  V_g is an isometry, so the columns
    c_i of V_g^H have the inner products of the P_g e_i = V_g c_i, and the
    Gram-Schmidt runs on them.  Columns of residual at most BASIS_RESIDUAL are
    skipped and no shorter column clears it later, so every eigenspace's
    first n_g longer columns go into one identity-padded stack and one QR:
    the |R_jj| are their residuals and, if all clear the threshold, Q with
    column j turned by the phase of R_jj is the basis.  Otherwise the
    eigenspace keeps the vectors before its first skipped column and goes on
    after it the same way, against the kept vectors twice (CGS2).  The result
    depends on the projectors alone.  Returns the V_g Q_g as columns, laid
    out as ``v``'s.
    """
    n = np.array(multiplicities)
    size = int(n.max())
    group = np.repeat(np.arange(len(n)), n)
    pos = np.arange(len(group)) - np.repeat(np.cumsum(n) - n, n)
    # coords[i, g] is c_i of eigenspace g, zero-padded to the largest n_g.
    coords = np.zeros((len(v), len(n) * size), dtype=complex)
    coords[:, group * size + pos] = v.conj()
    coords = coords.reshape(len(v), len(n), size)
    live = (coords.real**2 + coords.imag**2).sum(axis=2) > BASIS_RESIDUAL**2
    # The first n_g live columns of each eigenspace, eigenspace-major.
    _, i = np.nonzero((live & (np.cumsum(live, axis=0) <= n)).T)
    stack = np.tile(np.eye(size, dtype=complex), (len(n), 1, 1))
    stack[group, :, pos] = coords[i, group]
    q, r = np.linalg.qr(stack)
    diag = r.diagonal(axis1=1, axis2=2)
    q = q * (diag / np.where(diag == 0, 1.0, np.abs(diag)))[:, None, :]
    skipped = (np.abs(diag) <= BASIS_RESIDUAL) & (np.arange(size) < n[:, None])
    for g in np.flatnonzero(skipped.any(axis=1)):
        m, j = n[g], int(np.argmax(skipped[g]))
        kept, rest = q[g, :m, :j], np.flatnonzero(live[:, g])[j + 1 :]
        while kept.shape[1] < m and len(rest):
            block = coords[rest, g, :m].T
            for _ in range(2):
                block = block - kept @ (kept.conj().T @ block)
            ok = np.linalg.norm(block, axis=0) > BASIS_RESIDUAL
            qb, rb = np.linalg.qr(block[:, ok][:, : m - kept.shape[1]])
            d = rb.diagonal()
            j = int(np.argmax(np.append(np.abs(d), 0.0) <= BASIS_RESIDUAL))
            kept = np.hstack([kept, qb[:, :j] * (d[:j] / np.abs(d[:j]))])
            rest = rest[ok][j + 1 :]
        q[g, :m, :m] = kept
    return (coords.conj().transpose(1, 0, 2) @ q)[group, :, pos].T


def spectral_decompose(observable: np.ndarray) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian observable with degeneracy grouping.

    Eigenvalues whose spacing stays within GROUPING_RELATIVE of the spectral
    range (of 1, if the range is smaller) merge into a single degenerate
    group.  Each group's eigenvalue is the mean of its members (a lone
    member's own value, bit for bit), its projector V_g V_g^H over the
    members' eigenvectors, and its canonical basis the Gram-Schmidt basis of
    the projector's columns, so that the basis inside a degenerate eigenspace
    does not depend on eigensolver rounding.
    On a diagonal observable it is the standard basis vectors in index order.
    """
    w, v = linalg.hermitian_eig(observable)
    if np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) > DEFAULT_TOL:
        raise ValueError("eigenvectors are not orthonormal within tolerance")
    groups = _group_sorted_eigenvalues(
        w, GROUPING_RELATIVE * max(1.0, float(w[0] - w[-1]))
    )
    means = [w[idx[0]] if len(idx) == 1 else np.mean(w[idx]) for idx in groups]
    return SpectralDecomposition(
        eigenvalues=tuple(map(float, means)),
        multiplicities=tuple(len(idx) for idx in groups),
        basis=_canonical_basis(v, [len(idx) for idx in groups]),
    )


def renumber(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, which lie in ``0..size-1``, and each key's number.

    Returns the distinct keys in ascending order and, per key, its position
    among them, as ``np.unique(keys, return_inverse=True)`` does, in O(len(keys)
    + size) with no sort.
    """
    reached = np.zeros(size, dtype=bool)
    reached[keys] = True
    distinct = reached.nonzero()[0]
    # Only the reached entries are numbered; no pass over ``size`` integers.
    number = np.empty(size, dtype=np.intp)
    number[distinct] = np.arange(len(distinct))
    return distinct, number[keys]


def pick_branches(
    rows: np.ndarray, weights: np.ndarray, index: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Draw one branch per system from its table row's enumerated branches.

    ``rows`` (ascending) and ``weights`` list the branches of a table's rows,
    as :func:`reductions` returns them.  System ``i``, in row ``index[i]``,
    takes that row's branch ``b`` when cdf[b-1] <= ``u[i]`` * total < cdf[b]
    over the row's branch weights, for ``u[i]`` in [0, 1); a branch of zero
    weight is never taken.  Returns each system's branch, as an index into
    ``rows``.
    """
    first = np.searchsorted(rows, np.arange(rows[-1] + 1))
    position = np.arange(len(rows)) - first[rows]
    padded = np.zeros((len(first), position.max() + 1))
    padded[rows, position] = weights
    cdf = np.cumsum(padded, axis=1).T
    # Gathering one column at a time builds nothing of size systems x branches.
    threshold = u * cdf[-1][index]
    chosen = first[index]
    for column in cdf:
        chosen += column[index] <= threshold
    return chosen


def reductions(
    basis: np.ndarray, starts: np.ndarray, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each branch of each row of ``table``, with its Born weight and reduced state.

    ``basis`` holds orthonormal columns in blocks that begin at the columns
    ``starts``, and ``table`` distinct normalised state vectors as rows.
    Returns, per block of Born weight ``|B_b^H v|^2`` above DEFAULT_TOL of
    each row ``v`` in row-major order, the row, the block and that weight,
    and the reduced states, as rays, in a table with each branch's row in
    it: a rank-one block's basis column, one row that every branch into the
    block shares, or a larger block's renormalised projection, one row per
    branch, and nothing else.  Each reduced row lies in one block.  Raises
    ValueError if a row is numerically orthogonal to every block.
    """
    if table.shape[1] != len(basis):
        raise ValueError("state dimension does not match the measurement")
    amps = table @ basis.conj()
    born = np.add.reduceat(amps.real**2 + amps.imag**2, starts, axis=1)
    if (born.sum(axis=1) <= DEFAULT_TOL).any():
        raise ValueError("state is numerically orthogonal to every outcome")
    rows, blocks = (born > DEFAULT_TOL).nonzero()
    sizes = np.concatenate((starts[1:], [len(basis)])) - starts
    wide = (sizes[blocks] > 1).nonzero()[0]
    # Key a rank-one branch by its column, any other by itself after every column.
    keys = starts[blocks]
    keys[wide] = len(basis) + wide
    keys, post_index = renumber(keys, len(basis) + len(rows))
    post = basis.T[keys[: len(keys) - len(wide)]]
    if len(wide):
        block_of = np.repeat(np.arange(len(starts)), sizes)
        amps = np.where(block_of == blocks[wide, None], amps[rows[wide]], 0.0)
        # The basis is orthonormal, so the kept block's weight is |amps|^2.
        norms = np.sqrt((amps.real**2 + amps.imag**2).sum(axis=1, keepdims=True))
        post = np.concatenate([post, amps @ basis.T / norms])
    return rows, blocks, born[rows, blocks], post, post_index


def measure_pure(
    decomp: SpectralDecomposition, table: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Measure every row of ``table`` by the Lüders rule: :func:`reductions`.

    Outcomes index ``decomp.eigenvalues``.  A non-degenerate ``decomp``, as
    an auxiliary observable is, reduces to its reached eigenvectors.
    """
    return reductions(decomp.basis, decomp.starts, table)


def build_spin_operator(
    sites: int, terms: Sequence[tuple[float, str]]
) -> np.ndarray:
    """Build a spin-chain observable from weighted Pauli strings.

    Each term is ``(coefficient, word)`` where ``word`` is a string over
    {I, X, Y, Z} with one letter per site, or the keyword TOTAL_SPIN_SQ for
    the squared total spin.  The latter is normalised so that on two sites
    the triplet and singlet sectors take the values 4 and 0, which makes
    the familiar two-spin refinement ``sum of site-z plus total spin
    squared`` come out with the spectrum {6, 4, 2, 0}.
    """
    if not 1 <= sites <= MAX_SITES:
        raise ValueError(f"sites must be between 1 and {MAX_SITES}, got {sites}")
    dim = 2**sites
    out = np.zeros((dim, dim), dtype=complex)
    if len(terms) == 0:
        raise ValueError("no terms given")
    for coeff, word in terms:
        c = complex(coeff)
        if abs(c.imag) > DEFAULT_TOL:
            raise ValueError(f"coefficient {coeff} is not real")
        if word == TOTAL_SPIN_SQ:
            out += c.real * _total_spin_squared(sites)
            continue
        if len(word) != sites:
            raise ValueError(f"term {word!r} does not have one letter per site")
        factor = np.array([[1.0 + 0j]])
        for letter in word:
            if letter not in _PAULI:
                raise ValueError(f"unknown Pauli letter {letter!r} in {word!r}")
            factor = np.kron(factor, _PAULI[letter])
        out += c.real * factor
    return out


def _total_spin_squared(sites: int) -> np.ndarray:
    components = (
        build_spin_operator(sites, [
            (1.0, "I" * site + letter + "I" * (sites - site - 1))
            for site in range(sites)
        ])
        for letter in "XYZ"
    )
    return 0.5 * sum(c @ c for c in components)


def spread_labels(
    eigenvalues: Sequence[float], counts: Sequence[int]
) -> tuple[tuple[float, ...], ...]:
    """Distinct refined labels, ``counts[k]`` of them per eigenvalue ``a_k``.

    Label ``j`` (1-based) of eigenvalue ``a_k`` is ``a_k * S + j`` for a
    spread constant S large enough that all labels stay pairwise separated;
    S doubles from its default until they do.
    """
    spread = 4.0 * (1.0 + max(abs(a) for a in eigenvalues))
    for _ in range(200):
        labels = tuple(
            tuple(a * spread + j for j in range(1, n + 1))
            for a, n in zip(eigenvalues, counts)
        )
        flat = np.sort([x for group in labels for x in group])
        # Rounding is monotone, so the smallest pairwise gap is adjacent.
        gap = np.diff(flat).min() if len(flat) > 1 else 1.0
        if gap > 1e-9 * (1.0 + np.abs(flat).max()):
            return labels
        spread *= 2.0
    raise ValueError("could not separate refined labels; spectrum too dense")


def build_sigma(
    decomp: SpectralDecomposition,
) -> tuple[SpectralDecomposition, np.ndarray]:
    """A non-degenerate refinement diagonal in the canonical eigenbasis.

    The vector at position ``alpha`` (1-based) of eigenspace ``k`` gets the
    label ``a_k * S + alpha`` from :func:`spread_labels`; the outcomes are
    the base basis columns in descending label order.  The observable
    commutes with the base observable and refines it maximally.  Returns it
    with ``owner``, where ``owner[i]`` is the base eigenspace of outcome
    ``i``, whose basis column it is.
    """
    labels = np.concatenate(spread_labels(decomp.eigenvalues, decomp.multiplicities))
    order = np.argsort(-labels, kind="stable")
    sigma = SpectralDecomposition(
        eigenvalues=tuple(labels[order].tolist()),
        multiplicities=(1,) * len(order),
        basis=np.take(decomp.basis, order, axis=1),
    )
    owner = np.repeat(np.arange(decomp.group_count), decomp.multiplicities)[order]
    return sigma, owner


def build_sigma_prime(
    sigma: SpectralDecomposition, probes: np.ndarray
) -> SpectralDecomposition:
    """A second non-degenerate refinement overlapping sigma on the ``probes``.

    ``probes`` are sigma's outcome indices inside one eigenspace, those that
    :func:`build_sigma` gives it as owner.  Their columns become the
    discrete-Fourier mixtures of sigma's eigenvectors there, so every new
    eigenvector has overlap modulus exactly 1/sqrt(n) with every probed
    sigma eigenvector; every other column, and every label, stays sigma's.
    For n = 2 the mixtures are the familiar pair (|s1> +- |s2>)/sqrt(2).
    """
    n = len(probes)
    if n < 2:
        raise ValueError(
            "target eigenspace is non-degenerate; no second refinement exists "
            "and the discrimination outcome is indeterminate"
        )
    omega = np.exp(2j * np.pi / n)
    dft = omega ** np.outer(np.arange(n), np.arange(n))
    basis = sigma.basis.copy()
    basis[:, probes] = (np.take(sigma.basis, probes, axis=1) @ dft) / np.sqrt(n)
    return SpectralDecomposition(sigma.eigenvalues, sigma.multiplicities, basis)
