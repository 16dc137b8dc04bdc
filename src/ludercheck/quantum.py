"""States, observables, and the spectral structure behind projective measurement.

The central object is a :class:`SpectralDecomposition`: the distinct
eigenvalues of a Hermitian observable together with their eigenprojectors
and a canonical orthonormal basis per eigenspace.  On top of it sit the
measurement kernels over a table of distinct states and each system's row
in it (:func:`collapse` draws one outcome per system, :func:`branches`
enumerates them all), the non-selective Lüders channel, a
builder for spin-chain observables, and the two auxiliary-observable
constructions used by the discrimination protocol: a non-degenerate
refinement ``sigma`` diagonal in the canonical eigenbasis, and a second
refinement ``sigma_prime`` whose eigenvectors inside one eigenspace overlap
every ``sigma`` eigenvector there.
"""

from __future__ import annotations

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
#: direction to the canonical eigenbasis; well under 1/sqrt(MAX_DIM).
BASIS_RESIDUAL = 1e-3

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

#: Term keyword for the squared total spin, normalised so that on two
#: spin-1/2 sites the triplet/singlet sectors take the values 4 and 0.
TOTAL_SPIN_SQ = "TOTAL_SPIN_SQ"


@dataclass(frozen=True)
class PureState:
    """A normalised state vector."""

    vector: np.ndarray

    def __post_init__(self):
        v = linalg.as_vector(self.vector)
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state vector norm {norm} is not 1")
        v = v / norm
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def dim(self) -> int:
        return self.vector.shape[0]


@dataclass(frozen=True)
class DensityMatrix:
    """A unit-trace, positive-semidefinite Hermitian matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if not linalg.is_hermitian(m, DEFAULT_TOL):
            raise ValueError("density matrix is not Hermitian")
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > 1e-6:
            raise ValueError(f"density matrix trace {trace} is not 1")
        # m + tol*I has a Cholesky factor exactly when every eigenvalue of m
        # exceeds -tol.
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
    """Distinct eigenvalues, eigenprojectors, and a canonical eigenbasis.

    Eigenvalues are sorted descending; ``eigenbasis[k]`` is an orthonormal
    family spanning eigenspace ``k``, in a fixed order that every
    construction downstream treats as canonical.  The projectors are
    derived from it on first use.
    """

    eigenvalues: tuple[float, ...]
    multiplicities: tuple[int, ...]
    eigenbasis: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        for group in self.eigenbasis:
            for v in group:
                v.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.eigenbasis[0][0].shape[0]

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """The read-only eigenprojectors P_k = B_k B_k^H, symmetrised."""
        out = []
        for group in self.eigenbasis:
            b = np.column_stack(group)
            p = b @ b.conj().T
            p = 0.5 * (p + p.conj().T)
            p.setflags(write=False)
            out.append(p)
        return tuple(out)

    @property
    def group_count(self) -> int:
        return len(self.eigenvalues)

    def group_index(self, eigenvalue: float, atol: float = 1e-6) -> int:
        """Index of the group whose eigenvalue is closest, within ``atol`` scaled."""
        diffs = [abs(a - eigenvalue) for a in self.eigenvalues]
        k = int(np.argmin(diffs))
        if diffs[k] > atol * (1.0 + abs(eigenvalue)):
            raise ValueError(f"no eigenvalue group near {eigenvalue}")
        return k

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All basis vectors as columns, plus the start offset of each group."""
        cols = [v for group in self.eigenbasis for v in group]
        starts = np.cumsum([0] + [len(g) for g in self.eigenbasis])[:-1]
        return np.column_stack(cols), starts


@dataclass(frozen=True)
class Refinement:
    """The hidden structure of a measurement apparatus for a base observable.

    Each eigenspace of the base observable is carved into blocks: ``basis[k]``
    is an orthonormal family spanning eigenspace ``k`` (the canonical basis by
    default, but any rotation is allowed) and ``blocks[k]`` partitions its
    index range.  Block ``(k, b)`` carries the sub-projector onto the span of
    its basis vectors.  One block per eigenspace is the Lüders rule; all
    singleton blocks is a full von Neumann measurement; anything between is
    partial von Neumann.
    """

    base: SpectralDecomposition
    basis: tuple[tuple[np.ndarray, ...], ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if len(self.basis) != self.base.group_count:
            raise ValueError("need one basis family per eigenvalue group")
        if len(self.blocks) != self.base.group_count:
            raise ValueError("need one block partition per eigenvalue group")
        for k, group in enumerate(self.basis):
            n = self.base.multiplicities[k]
            if len(group) != n:
                raise ValueError(f"group {k}: expected {n} basis vectors, got {len(group)}")
            mat = np.column_stack([linalg.as_vector(v) for v in group])
            gram = mat.conj().T @ mat
            if np.max(np.abs(gram - np.eye(n))) > DEFAULT_TOL:
                raise ValueError(f"group {k}: basis is not orthonormal")
            span = mat @ mat.conj().T
            if np.max(np.abs(span - self.base.projectors[k])) > 1e-8:
                raise ValueError(f"group {k}: basis does not span the eigenspace")
            cells = self.blocks[k]
            seen = sorted(i for cell in cells for i in cell)
            if seen != list(range(n)) or any(len(cell) == 0 for cell in cells):
                raise ValueError(f"group {k}: blocks are not a partition of 0..{n - 1}")
            for v in group:
                v.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.base.dim

    def block_count(self, k: int) -> int:
        return len(self.blocks[k])

    def sub_projector(self, k: int, b: int) -> np.ndarray:
        return linalg.projector_from_vectors(
            [self.basis[k][i] for i in self.blocks[k][b]]
        )

    def is_luders(self) -> bool:
        return all(len(cells) == 1 for cells in self.blocks)


def _group_sorted_eigenvalues(w: np.ndarray, threshold: float) -> list[list[int]]:
    """Group indices of a descending eigenvalue array by gap <= threshold."""
    groups = [[0]]
    for i in range(1, len(w)):
        if w[groups[-1][0]] - w[i] <= threshold:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


def _canonical_basis(projector: np.ndarray, rank: int) -> tuple[np.ndarray, ...]:
    """Gram-Schmidt over the columns P e_i of a projector, in index order.

    Columns whose residual falls below BASIS_RESIDUAL are skipped.  The
    squared residuals of all columns sum to the rank still missing and each
    skipped column holds less than BASIS_RESIDUAL**2 of it, so with dimension
    <= 64 some later column always clears the threshold and ``rank`` vectors
    are found.  The result depends on the
    projector alone, not on the eigenvectors it was assembled from.  Each
    column is projected against all accepted vectors at once, twice (CGS2).
    """
    basis = np.empty((rank, projector.shape[0]), dtype=complex)
    found = 0
    for i in range(projector.shape[0]):
        r = projector[:, i]
        q = basis[:found]
        r = r - (q.conj() @ r) @ q
        r = r - (q.conj() @ r) @ q
        norm = float(np.linalg.norm(r))
        if norm > BASIS_RESIDUAL:
            basis[found] = r / norm
            found += 1
            if found == rank:
                break
    return tuple(basis)


def spectral_decompose(
    observable: np.ndarray,
    grouping_threshold: float | None = None,
    tol: float = DEFAULT_TOL,
) -> SpectralDecomposition:
    """Spectral decomposition of a Hermitian observable with degeneracy grouping.

    Eigenvalues whose spacing stays within ``grouping_threshold`` merge into a
    single degenerate group; the default threshold is GROUPING_RELATIVE of the
    spectral range.  Each group's eigenvalue is the mean of its members, its
    projector V_g V_g^H over the members' eigenvectors, and its canonical
    basis the Gram-Schmidt basis of the projector's columns, so that the basis
    inside a degenerate eigenspace does not depend on eigensolver rounding.
    On a diagonal observable it is the standard basis vectors in index order.
    """
    w, v = linalg.hermitian_eig(observable, tol)
    if np.max(np.abs(v.conj().T @ v - np.eye(len(w)))) > tol:
        raise ValueError("eigenvectors are not orthonormal within tolerance")
    if grouping_threshold is None:
        spread = float(w[0] - w[-1])
        grouping_threshold = GROUPING_RELATIVE * max(1.0, spread)
    groups = _group_sorted_eigenvalues(w, grouping_threshold)
    eigenbasis = []
    for idx in groups:
        vg = v[:, idx[0] : idx[-1] + 1]
        eigenbasis.append(_canonical_basis(vg @ vg.conj().T, len(idx)))
    return SpectralDecomposition(
        eigenvalues=tuple(float(np.mean(w[idx])) for idx in groups),
        multiplicities=tuple(len(idx) for idx in groups),
        eigenbasis=tuple(eigenbasis),
    )


def luders_channel(decomp: SpectralDecomposition, rho: DensityMatrix) -> DensityMatrix:
    """The non-selective Lüders channel: sum of all outcome branches."""
    total = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    for p in decomp.projectors:
        total += p @ rho.matrix @ p
    return DensityMatrix(total)


def renumber(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``keys``, which lie in ``0..size-1``, and each key's number.

    Returns the distinct keys in ascending order and, per key, its position
    among them, as ``np.unique(keys, return_inverse=True)`` does, in O(len(keys)
    + size) with no sort.
    """
    reached = np.zeros(size, dtype=bool)
    reached[keys] = True
    return reached.nonzero()[0], reached.cumsum()[keys] - 1


def _born(
    basis: np.ndarray, starts: np.ndarray, table: np.ndarray, index: np.ndarray
) -> np.ndarray:
    """The Born weight of each block, for every row of ``table``.

    Raises ValueError if a row that ``index`` refers to is numerically
    orthogonal to every block; rows no one refers to are not checked.
    """
    amps = table @ basis.conj()
    born = np.add.reduceat(amps.real**2 + amps.imag**2, starts, axis=1)
    if np.any(born.sum(axis=1)[index] <= DEFAULT_TOL):
        raise ValueError("state is numerically orthogonal to every outcome")
    return born


def collapse(
    basis: np.ndarray,
    starts: np.ndarray,
    table: np.ndarray,
    index: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Measure system ``i``, in state ``table[index[i]]``, in blocks of a basis.

    ``basis`` holds orthonormal basis vectors as columns, grouped into
    consecutive blocks that begin at the column indices ``starts``; ``table``
    holds normalised state vectors as rows, which many systems may share.
    The Born block weights are computed once per table row, and system ``i``
    picks its block by inverse CDF of ``u[i]`` in [0, 1) over its row's
    weights.  Returns the block index of each system.  Raises ValueError if
    a row that some system is in is numerically orthogonal to every block.
    """
    cdf = np.cumsum(_born(basis, starts, table, index), axis=1)[index]
    total = cdf[:, -1]
    # Block k is chosen when cdf[k-1] <= u * total < cdf[k]; blocks of zero
    # weight are never chosen.
    return np.count_nonzero(cdf <= (u * total)[:, None], axis=1)


def branches(
    basis: np.ndarray,
    starts: np.ndarray,
    table: np.ndarray,
    index: np.ndarray,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`collapse` with every block of Born weight above DEFAULT_TOL enumerated.

    Row ``i``, in state ``table[index[i]]``, carries the weight
    ``weights[i]``.  Returns, per reached block ``b`` of row ``i`` in
    row-major order, ``i``, ``b`` and the weight ``weights[i] * |B_b^H v_i|^2``.
    Raises ValueError as :func:`collapse` does.
    """
    born = _born(basis, starts, table, index)[index]
    rows, blocks = np.nonzero(born > DEFAULT_TOL)
    return rows, blocks, weights[rows] * born[rows, blocks]


def measure_pure(
    decomp: SpectralDecomposition,
    table: np.ndarray,
    index: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Measure system ``i``, in state ``table[index[i]]``, projectively.

    One ``rng.random(len(index))`` draw picks the outcomes.  Returns the
    outcome index of each system into ``decomp.eigenvalues``.
    """
    if table.shape[1] != decomp.dim:
        raise ValueError("state dimension does not match the observable")
    return collapse(*decomp.stacked, table, index, rng.random(len(index)))


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
    if not 1 <= sites <= 6:
        raise ValueError(f"sites must be between 1 and 6, got {sites}")
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
    dim = 2**sites
    total = np.zeros((dim, dim), dtype=complex)
    for letter in "XYZ":
        component = np.zeros((dim, dim), dtype=complex)
        for site in range(sites):
            word = "".join(letter if i == site else "I" for i in range(sites))
            factor = np.array([[1.0 + 0j]])
            for w in word:
                factor = np.kron(factor, _PAULI[w])
            component += factor
        total += component @ component
    return 0.5 * total


def _rank_one_decomposition(
    pairs: Sequence[tuple[float, np.ndarray]]
) -> tuple[np.ndarray, SpectralDecomposition]:
    """Assemble a non-degenerate observable from (label, unit vector) pairs."""
    ordered = sorted(pairs, key=lambda lv: -lv[0])
    labels = np.array([float(label) for label, _ in ordered])
    v = np.column_stack([vec for _, vec in ordered])
    decomp = SpectralDecomposition(
        eigenvalues=tuple(labels.tolist()),
        multiplicities=(1,) * len(ordered),
        eigenbasis=tuple((col,) for col in v.T.copy()),
    )
    return (v * labels) @ v.conj().T, decomp


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
) -> tuple[np.ndarray, SpectralDecomposition]:
    """A non-degenerate observable diagonal in the canonical eigenbasis.

    The vector at position ``alpha`` (1-based) of eigenspace ``k`` gets the
    label ``a_k * S + alpha`` from :func:`spread_labels`.  The result
    commutes with the base observable and refines it maximally.
    """
    labels = spread_labels(decomp.eigenvalues, decomp.multiplicities)
    pairs = [
        (label, vec)
        for group_labels, group in zip(labels, decomp.eigenbasis)
        for label, vec in zip(group_labels, group)
    ]
    return _rank_one_decomposition(pairs)


def sigma_entries_in_group(
    decomp: SpectralDecomposition, sigma: SpectralDecomposition, k: int
) -> list[tuple[float, np.ndarray]]:
    """The (label, vector) entries of a non-degenerate sigma inside eigenspace k.

    Raises ValueError if some sigma eigenvector straddles eigenspace ``k``,
    whether it lies mostly inside it or mostly outside.
    """
    if any(m != 1 for m in sigma.multiplicities):
        raise ValueError("auxiliary observable must be non-degenerate")
    amps = np.column_stack(decomp.eigenbasis[k]).conj().T @ sigma.stacked[0]
    weights = (amps.real**2 + amps.imag**2).sum(axis=0)
    if np.any((weights > 1e-8) & (weights < 1.0 - 1e-8)):
        raise ValueError(
            "auxiliary eigenvector straddles eigenspaces; "
            "the auxiliary observable must commute with the base"
        )
    return [
        (sigma.eigenvalues[i], sigma.eigenbasis[i][0])
        for i in np.flatnonzero(weights > 0.5)
    ]


def build_sigma_prime(
    decomp: SpectralDecomposition,
    sigma: SpectralDecomposition,
    k: int,
    reference_index: int = 0,
    inside: Sequence[tuple[float, np.ndarray]] | None = None,
) -> tuple[np.ndarray, SpectralDecomposition]:
    """A second non-degenerate refinement overlapping sigma inside eigenspace k.

    Within eigenspace ``k`` the eigenvectors become the discrete-Fourier
    mixtures of sigma's eigenvectors there, so every new eigenvector has
    overlap modulus exactly 1/sqrt(n_k) with every sigma eigenvector in the
    eigenspace, the reference one included.  Outside eigenspace ``k`` the
    observable coincides with sigma.  For n_k = 2 the mixtures are the
    familiar pair (|s1> +- |s2>)/sqrt(2).  ``inside`` is
    :func:`sigma_entries_in_group`, computed when not given.
    """
    if inside is None:
        inside = sigma_entries_in_group(decomp, sigma, k)
    n = len(inside)
    if n < 2:
        raise ValueError(
            "target eigenspace is non-degenerate; no second refinement exists "
            "and the discrimination outcome is indeterminate"
        )
    if not 0 <= reference_index < n:
        raise ValueError(f"reference index {reference_index} out of range 0..{n - 1}")
    inside_labels = [label for label, _ in inside]
    omega = np.exp(2j * np.pi / n)
    dft = omega ** np.outer(np.arange(n), np.arange(n))
    mixed = (np.column_stack([vec for _, vec in inside]) @ dft) / np.sqrt(n)
    pairs = list(zip(inside_labels, mixed.T))
    for label, (vec,) in zip(sigma.eigenvalues, sigma.eigenbasis):
        if label not in inside_labels:
            pairs.append((label, vec))
    return _rank_one_decomposition(pairs)
