"""States, observables, and the spectral structure behind projective measurement.

The central object is a :class:`SpectralDecomposition`: the distinct
eigenvalues of a Hermitian observable together with their eigenprojectors
and a canonical orthonormal basis per eigenspace.  On top of it sit the
Born rule, the Lüders state update, a builder for spin-chain observables,
and the two auxiliary-observable constructions used by the discrimination
protocol: a non-degenerate refinement ``sigma`` diagonal in the canonical
eigenbasis, and a second refinement ``sigma_prime`` whose eigenvectors
inside one eigenspace overlap every ``sigma`` eigenvector there.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.vector, self.vector.conj()))


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
        # Positivity check only; spectral data always comes from hermitian_eig.
        if float(np.linalg.eigvalsh(m)[0]) < -DEFAULT_TOL:
            raise ValueError("density matrix has a negative eigenvalue")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class UnnormalizedDensity:
    """A measurement branch before renormalisation: Hermitian, PSD, trace <= 1."""

    matrix: np.ndarray

    def __post_init__(self):
        m = linalg.as_matrix(self.matrix)
        if not linalg.is_hermitian(m, DEFAULT_TOL):
            raise ValueError("branch matrix is not Hermitian")
        m = 0.5 * (m + m.conj().T)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def weight(self) -> float:
        return float(np.trace(self.matrix).real)

    def normalized(self) -> DensityMatrix:
        w = self.weight
        if w <= DEFAULT_TOL:
            raise ValueError("branch weight is numerically zero")
        return DensityMatrix(self.matrix / w)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues, eigenprojectors, and a canonical eigenbasis.

    Eigenvalues are sorted descending; ``eigenbasis[k]`` is an orthonormal
    family spanning the range of ``projectors[k]``, in a fixed order that
    every construction downstream treats as canonical.
    """

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    multiplicities: tuple[int, ...]
    eigenbasis: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        for p in self.projectors:
            p.setflags(write=False)
        for group in self.eigenbasis:
            for v in group:
                v.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

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
    def _stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """All basis vectors as columns, plus the start offset of each group."""
        cols = [v for group in self.eigenbasis for v in group]
        starts = np.cumsum([0] + [len(g) for g in self.eigenbasis])[:-1]
        return np.column_stack(cols), starts


@dataclass(frozen=True)
class OutcomeDistribution:
    """Outcome labels with probabilities; entries at or below tol are dropped."""

    outcomes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        kept = []
        total = 0.0
        for label, p in self.outcomes:
            p = float(p)
            if p < -DEFAULT_TOL:
                raise ValueError(f"negative probability {p} for outcome {label}")
            total += p
            if p > DEFAULT_TOL:
                kept.append((float(label), p))
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if not kept:
            raise ValueError("no outcome has positive probability")
        object.__setattr__(self, "outcomes", tuple(kept))

    def probability(self, label: float) -> float:
        for lab, p in self.outcomes:
            if lab == label:
                return p
        return 0.0


@dataclass(frozen=True)
class Refinement:
    """The hidden structure of a measurement apparatus for a base observable.

    Each eigenspace of the base observable is carved into blocks: ``basis[k]``
    is an orthonormal family spanning eigenspace ``k`` (the canonical basis by
    default, but any rotation is allowed) and ``blocks[k]`` partitions its
    index range.  Block ``(k, b)`` carries the sub-projector onto the span of
    its basis vectors and a refined label distinct from every other block's.
    One block per eigenspace is the Lüders rule; all singleton blocks is a
    full von Neumann measurement; anything between is partial von Neumann.
    """

    base: SpectralDecomposition
    basis: tuple[tuple[np.ndarray, ...], ...]
    blocks: tuple[tuple[tuple[int, ...], ...], ...]
    labels: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.basis) != self.base.group_count:
            raise ValueError("need one basis family per eigenvalue group")
        if len(self.blocks) != self.base.group_count:
            raise ValueError("need one block partition per eigenvalue group")
        if len(self.labels) != self.base.group_count:
            raise ValueError("need one label tuple per eigenvalue group")
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
            if len(self.labels[k]) != len(cells):
                raise ValueError(f"group {k}: need one label per block")
            for v in group:
                v.setflags(write=False)
        flat = [lab for group in self.labels for lab in group]
        if len(set(flat)) != len(flat):
            raise ValueError("refined labels are not pairwise distinct")

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

    def is_full_von_neumann(self) -> bool:
        return all(
            all(len(cell) == 1 for cell in cells) for cells in self.blocks
        )


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
    projector alone, not on the eigenvectors it was assembled from.
    """
    basis: list[np.ndarray] = []
    for i in range(projector.shape[0]):
        r = projector[:, i].copy()
        for q in basis:
            r -= (q.conj() @ r) * q
        norm = float(np.linalg.norm(r))
        if norm > BASIS_RESIDUAL:
            basis.append(r / norm)
            if len(basis) == rank:
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
    projector the sum of the members' rank-1 projectors, and its canonical
    basis the Gram-Schmidt basis of the projector's columns, so that the basis
    inside a degenerate eigenspace does not depend on eigensolver rounding.
    On a diagonal observable it is the standard basis vectors in index order.
    """
    w, v = linalg.hermitian_eig(observable, tol)
    if grouping_threshold is None:
        spread = float(w[0] - w[-1])
        grouping_threshold = GROUPING_RELATIVE * max(1.0, spread)
    groups = _group_sorted_eigenvalues(w, grouping_threshold)
    eigenvalues = []
    projectors = []
    multiplicities = []
    eigenbasis = []
    for idx in groups:
        proj = linalg.projector_from_vectors([v[:, i] for i in idx], tol)
        eigenvalues.append(float(np.mean(w[idx])))
        projectors.append(proj)
        multiplicities.append(len(idx))
        eigenbasis.append(_canonical_basis(proj, len(idx)))
    return SpectralDecomposition(
        eigenvalues=tuple(eigenvalues),
        projectors=tuple(projectors),
        multiplicities=tuple(multiplicities),
        eigenbasis=tuple(eigenbasis),
    )


def _density_of(state: "DensityMatrix | PureState") -> np.ndarray:
    if isinstance(state, PureState):
        return np.outer(state.vector, state.vector.conj())
    return state.matrix


def born_distribution(
    decomp: SpectralDecomposition, state: "DensityMatrix | PureState"
) -> OutcomeDistribution:
    """Outcome probabilities tr(P_k rho) of a projective measurement."""
    rho = _density_of(state)
    if rho.shape[0] != decomp.dim:
        raise ValueError("state dimension does not match the observable")
    pairs = []
    for a, p in zip(decomp.eigenvalues, decomp.projectors):
        prob = float(np.trace(p @ rho).real)
        pairs.append((a, max(prob, 0.0)))
    return OutcomeDistribution(tuple(pairs))


def luders_update(
    decomp: SpectralDecomposition, rho: DensityMatrix, k: int
) -> tuple[float, UnnormalizedDensity]:
    """Lüders branch for outcome ``k``: probability and P_k rho P_k, unnormalised."""
    if not 0 <= k < decomp.group_count:
        raise ValueError(f"outcome index {k} out of range")
    p = decomp.projectors[k]
    branch = p @ rho.matrix @ p
    prob = float(np.trace(branch).real)
    return max(prob, 0.0), UnnormalizedDensity(branch)


def luders_channel(decomp: SpectralDecomposition, rho: DensityMatrix) -> DensityMatrix:
    """The non-selective Lüders channel: sum of all outcome branches."""
    total = np.zeros((decomp.dim, decomp.dim), dtype=complex)
    for p in decomp.projectors:
        total += p @ rho.matrix @ p
    return DensityMatrix(total)


def sample_outcome(dist: OutcomeDistribution, rng: np.random.Generator) -> float:
    """Draw one outcome label; deterministic given the generator state."""
    u = rng.random() * sum(p for _, p in dist.outcomes)
    acc = 0.0
    for label, p in dist.outcomes:
        acc += p
        if u < acc:
            return label
    return dist.outcomes[-1][0]


def collapse(
    basis: np.ndarray,
    starts: np.ndarray,
    states: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Measure every row of ``states`` in blocks of an orthonormal basis.

    ``basis`` holds the basis vectors as columns, grouped into consecutive
    blocks that begin at the column indices ``starts``; ``states`` holds one
    normalised state vector per row.  Row ``i`` picks its block by inverse
    CDF of ``u[i]`` in [0, 1) over its Born block weights.  Returns the block
    index of each row and the rows' renormalised projections onto their
    blocks.  Raises ValueError if some row is numerically orthogonal to
    every block.
    """
    amps = states @ basis.conj()
    weights = np.add.reduceat(amps.real**2 + amps.imag**2, starts, axis=1)
    cdf = np.cumsum(weights, axis=1)
    total = cdf[:, -1]
    if np.any(total <= DEFAULT_TOL):
        raise ValueError("state is numerically orthogonal to every outcome")
    # Block k is chosen when cdf[k-1] <= u * total < cdf[k]; blocks of zero
    # weight are never chosen.
    k = np.count_nonzero(cdf <= (u * total)[:, None], axis=1)
    block_of_column = np.repeat(
        np.arange(len(starts)), np.diff(starts, append=basis.shape[1])
    )
    post = np.where(block_of_column == k[:, None], amps, 0.0) @ basis.T
    # The basis is orthonormal, so the chosen block's weight is |post|^2.
    return k, post / np.sqrt(np.take_along_axis(weights, k[:, None], axis=1))


def measure_pure(
    decomp: SpectralDecomposition, states: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Measure every row of ``states`` projectively and collapse it.

    One ``rng.random(len(states))`` draw picks the outcomes.  Returns the
    outcome index of each row into ``decomp.eigenvalues`` and the
    post-measurement rows.
    """
    if states.shape[1] != decomp.dim:
        raise ValueError("state dimension does not match the observable")
    return collapse(*decomp._stacked, states, rng.random(len(states)))


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
    dim = ordered[0][1].shape[0]
    matrix = np.zeros((dim, dim), dtype=complex)
    eigenvalues = []
    projectors = []
    eigenbasis = []
    for label, vec in ordered:
        proj = np.outer(vec, vec.conj())
        matrix += label * proj
        eigenvalues.append(float(label))
        projectors.append(0.5 * (proj + proj.conj().T))
        eigenbasis.append((vec.copy(),))
    decomp = SpectralDecomposition(
        eigenvalues=tuple(eigenvalues),
        projectors=tuple(projectors),
        multiplicities=(1,) * len(ordered),
        eigenbasis=tuple(eigenbasis),
    )
    return matrix, decomp


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
        flat = [x for group in labels for x in group]
        gap = (
            min(abs(x - y) for i, x in enumerate(flat) for y in flat[i + 1 :])
            if len(flat) > 1
            else 1.0
        )
        if gap > 1e-9 * (1.0 + max(abs(x) for x in flat)):
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


def _sigma_entries_in_group(
    decomp: SpectralDecomposition, sigma: SpectralDecomposition, k: int
) -> list[tuple[float, np.ndarray]]:
    """The (label, vector) entries of a non-degenerate sigma inside eigenspace k."""
    if any(m != 1 for m in sigma.multiplicities):
        raise ValueError("auxiliary observable must be non-degenerate")
    proj = decomp.projectors[k]
    inside = []
    for label, (vec,) in zip(sigma.eigenvalues, sigma.eigenbasis):
        weight = float(np.linalg.norm(proj @ vec) ** 2)
        if weight > 0.5:
            if weight < 1.0 - 1e-8:
                raise ValueError(
                    "auxiliary eigenvector straddles eigenspaces; "
                    "the auxiliary observable must commute with the base"
                )
            inside.append((label, vec))
        elif weight > 1e-8:
            raise ValueError(
                "auxiliary eigenvector straddles eigenspaces; "
                "the auxiliary observable must commute with the base"
            )
    return inside


def build_sigma_prime(
    decomp: SpectralDecomposition,
    sigma: SpectralDecomposition,
    k: int,
    reference_index: int = 0,
) -> tuple[np.ndarray, SpectralDecomposition]:
    """A second non-degenerate refinement overlapping sigma inside eigenspace k.

    Within eigenspace ``k`` the eigenvectors become the discrete-Fourier
    mixtures of sigma's eigenvectors there, so every new eigenvector has
    overlap modulus exactly 1/sqrt(n_k) with every sigma eigenvector in the
    eigenspace, the reference one included.  Outside eigenspace ``k`` the
    observable coincides with sigma.  For n_k = 2 the mixtures are the
    familiar pair (|s1> +- |s2>)/sqrt(2).
    """
    inside = _sigma_entries_in_group(decomp, sigma, k)
    n = len(inside)
    if n < 2:
        raise ValueError(
            "target eigenspace is non-degenerate; no second refinement exists "
            "and the discrimination outcome is indeterminate"
        )
    if not 0 <= reference_index < n:
        raise ValueError(f"reference index {reference_index} out of range 0..{n - 1}")
    inside_labels = {label for label, _ in inside}
    omega = np.exp(2j * np.pi / n)
    pairs = []
    for j, (label, _) in enumerate(inside):
        mixed = np.zeros(decomp.dim, dtype=complex)
        for m, (_, vec) in enumerate(inside):
            mixed += omega ** (m * j) * vec
        mixed /= np.sqrt(n)
        pairs.append((label, mixed))
    for label, (vec,) in zip(sigma.eigenvalues, sigma.eigenbasis):
        if label not in inside_labels:
            pairs.append((label, vec.copy()))
    return _rank_one_decomposition(pairs)
