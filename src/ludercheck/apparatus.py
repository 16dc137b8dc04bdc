"""Black-box measurement apparatuses built over a hidden refinement.

An apparatus measures a base observable, but internally it may resolve each
degenerate eigenspace into finer blocks before reporting the coarse
eigenvalue.  The refinement is construct-time data: a unitary whose
columns run block after block, which the kernels measure in as it is, with
no projector built.  The protocol asks an apparatus for nothing but
``dim``, ``outcome_labels`` and ``branches``, in either mode.  States come
as a table of distinct rows plus each weighted row's number in it, and
``branches`` enumerates every reduction with its weight and its coarse
outcome, an index into the base observable's eigenvalues; never the block
structure.  Sampled mode draws one branch per system from them.
``measure_sampled`` draws the same way and ``channel_exact`` gives the
branches as density matrices; the protocol calls neither, and they stay as
references for the tests and names for the benchmark tracer.
:meth:`MeasurementApparatus.reveal_refinement` exists solely for
ground-truth oracles and gated diagnostics; the discrimination protocol
must never call it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL
from .quantum import (
    DensityMatrix,
    Refinement,
    SpectralDecomposition,
    branches,
    pick_branches,
)


class MeasurementApparatus:
    """A measurement device for a base observable with hidden reduction rule.

    Outcomes are indices into :attr:`outcome_labels`, the base observable's
    eigenvalues.  State reduction follows the hidden refinement: the state is
    projected onto one refinement block, chosen by the Born rule.
    """

    def __init__(self, refinement: Refinement):
        self._refinement = refinement
        self._basis = refinement.basis
        # The first column and the eigenspace of each block, and the block
        # of each column.
        sizes = [n for group in refinement.blocks for n in group]
        self._starts = np.cumsum([0] + sizes[:-1])
        self._groups = np.repeat(
            np.arange(len(refinement.blocks)), [len(g) for g in refinement.blocks]
        )
        self._block_of = np.repeat(np.arange(len(sizes)), sizes)

    @property
    def dim(self) -> int:
        return self._basis.shape[0]

    @property
    def outcome_labels(self) -> tuple[float, ...]:
        """The coarse outcome labels, i.e. the base observable's eigenvalues."""
        return self._refinement.base.eigenvalues

    def reveal_refinement(self) -> Refinement:
        """Ground-truth access for oracles and gated diagnostics only."""
        return self._refinement

    def measure_sampled(
        self, table: np.ndarray, index: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Measure every system: :meth:`branches` of every table row, one drawn.

        System ``i`` is in state ``table[index[i]]``.  One
        ``rng.random(len(index))`` draw picks the branches by
        :func:`~ludercheck.quantum.pick_branches`.  Returns the coarse
        outcome of each system, as an index into :attr:`outcome_labels`, and
        the reduced states as a table with each system's row in it.  The
        protocol draws the same way without this method, which stays for the
        benchmark tracer.
        """
        every = np.arange(len(table))
        rows, outcomes, weights, post, post_index = self.branches(
            table, every, np.ones(len(table))
        )
        pick = pick_branches(rows, weights, index, rng.random(len(index)))
        return outcomes[pick], post, post_index[pick]

    def branches(
        self, table: np.ndarray, index: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every reduction of every weighted row, enumerated.

        Row ``i`` is in state ``table[index[i]]`` with weight ``weights[i]``.
        Returns each reached branch's source row, coarse outcome (an index
        into :attr:`outcome_labels`) and weight, as
        :func:`~ludercheck.quantum.branches` enumerates them, and the reduced
        states as a table with one row per branch, in branch order.
        """
        if table.shape[1] != self.dim:
            raise ValueError("state dimension does not match the apparatus")
        amps = table @ self._basis.conj()
        rows, blocks, w = branches(amps, self._starts, index, weights)
        post = self._reduce(amps, index[rows], blocks)
        return rows, np.take(self._groups, blocks), w, post, np.arange(len(rows))

    def _reduce(self, amps, rows, blocks):
        """Table row ``rows[i]``, as its amplitudes, kept on block ``blocks[i]``."""
        amps = amps[rows]
        amps = np.where(self._block_of == blocks[:, None], amps, 0.0)
        # The basis is orthonormal, so the kept block's weight is |amps|^2.
        weights = (amps.real**2 + amps.imag**2).sum(axis=1, keepdims=True)
        return amps @ self._basis.T / np.sqrt(weights)

    def channel_exact(
        self, state: DensityMatrix
    ) -> list[tuple[float, float, DensityMatrix]]:
        """The exact outcome-labelled channel: :meth:`branches` as densities.

        The protocol never calls this.  It stays as the density-matrix
        reference that the tests check :meth:`branches` against, and the
        benchmark tracer patches it by name.

        Returns ``(label, probability, branch_state)`` per coarse outcome in
        descending label order, omitting outcomes of numerically zero
        probability.  Probabilities sum to one.  One pass: with B the block
        basis, R = B^H rho B gives the outcome probabilities as sums of its
        diagonal over each eigenspace's columns, and the branch of outcome
        k is B (R o M_k) B^H, where the mask M_k keeps the entries of R
        whose row and column lie in the same block of eigenspace k.
        """
        if state.dim != self.dim:
            raise ValueError("state dimension does not match the apparatus")
        b = self._basis
        base = self._refinement.base
        r = b.conj().T @ state.matrix @ b
        probs = np.add.reduceat(r.diagonal().real, base.starts)
        r = np.where(self._block_of[:, None] == self._block_of, r, 0.0)
        out = []
        for k, prob in enumerate(probs.tolist()):
            if prob <= DEFAULT_TOL:
                continue
            lo = base.starts[k]
            hi = lo + base.multiplicities[k]
            block = b[:, lo:hi]
            branch = block @ r[lo:hi, lo:hi] @ block.conj().T
            out.append((self.outcome_labels[k], prob, DensityMatrix(branch / prob)))
        return out


def make_luders(base: SpectralDecomposition) -> MeasurementApparatus:
    """An apparatus that reduces by the Lüders rule: one block per eigenspace."""
    blocks = tuple((n,) for n in base.multiplicities)
    return MeasurementApparatus(Refinement(base, base.basis, blocks))


def make_full_von_neumann(
    base: SpectralDecomposition,
    eigenbasis_choice: Sequence[Sequence[np.ndarray] | None] | None = None,
) -> MeasurementApparatus:
    """An apparatus that resolves every eigenspace into rank-1 blocks.

    ``eigenbasis_choice`` optionally replaces the canonical basis of each
    eigenspace (``None`` entries keep the canonical one); the choice fixes
    which orthonormal directions the reduction projects onto.
    """
    if eigenbasis_choice is None:
        eigenbasis_choice = (None,) * base.group_count
    if len(eigenbasis_choice) != base.group_count:
        raise ValueError("need one basis choice (or None) per eigenspace")
    basis = base.basis.copy()
    for k, choice in enumerate(eigenbasis_choice):
        if choice is None:
            continue
        n = base.multiplicities[k]
        if len(choice) != n:
            raise ValueError(f"group {k}: expected {n} basis vectors, got {len(choice)}")
        for i, v in enumerate(choice):
            v = linalg.as_vector(v)
            if len(v) != base.dim:
                raise ValueError(f"group {k}: basis vector {i} has dimension {len(v)} "
                                 f"but the observable has dimension {base.dim}")
            basis[:, base.starts[k] + i] = v
    blocks = tuple((1,) * n for n in base.multiplicities)
    return MeasurementApparatus(Refinement(base, basis, blocks))


def make_partial(
    base: SpectralDecomposition,
    blocks: Sequence[Sequence[Sequence[int]]],
) -> MeasurementApparatus:
    """An apparatus with caller-chosen blocks over the canonical eigenbases.

    ``blocks[k]`` must partition ``0..n_k - 1``; cells of size > 1 keep
    Lüders-style coherence inside themselves, so the device is a partial
    von Neumann measurement in general.
    """
    order = []
    for k, (s, n, cells) in enumerate(zip(base.starts, base.multiplicities, blocks)):
        flat = [int(i) for cell in cells for i in cell]
        if sorted(flat) != list(range(n)) or any(len(cell) == 0 for cell in cells):
            raise ValueError(f"group {k}: blocks are not a partition of 0..{n - 1}")
        order += [s + i for i in flat]
    sizes = tuple(tuple(len(cell) for cell in cells) for cells in blocks)
    return MeasurementApparatus(Refinement(base, base.basis[:, order], sizes))
