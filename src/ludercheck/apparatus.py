"""Black-box measurement apparatuses built over a hidden refinement.

An apparatus measures a base observable, but internally it may resolve each
degenerate eigenspace into finer blocks before reporting the coarse
eigenvalue.  The refinement is construct-time data.  The public surface
reports coarse outcomes, as indices into the base observable's eigenvalues,
drawn one per system (``measure_sampled``) or enumerated with their weights
(``branches``); never the block structure.  States come as a table of
distinct rows plus each system's row number in it, and the reduced states
leave the same way: sampling reduces each reached pair of row and block
once, enumeration gives each branch its own row.  ``channel_exact`` gives
the same branches as density matrices; the protocol does not call it, and
it stays as the density-matrix reference for the tests and the benchmark
tracer.
:meth:`MeasurementApparatus.reveal_refinement` exists solely for
ground-truth oracles and gated diagnostics; the discrimination protocol
must never call it.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL
from .quantum import (
    DensityMatrix,
    Refinement,
    SpectralDecomposition,
    branches,
    collapse,
    renumber,
)


def labels_close(a: float, b: float) -> bool:
    """Whether two outcome labels agree within a relative tolerance of 1e-6."""
    return math.isclose(a, b, rel_tol=0.0, abs_tol=1e-6 * (1.0 + abs(b)))


class MeasurementApparatus:
    """A measurement device for a base observable with hidden reduction rule.

    Outcomes are indices into :attr:`outcome_labels`, the base observable's
    eigenvalues.  State reduction follows the hidden refinement: the state is
    projected onto one refinement block, chosen by the Born rule.
    """

    def __init__(self, refinement: Refinement):
        self._refinement = refinement
        # Flat block layout: the columns of one unitary matrix, eigenspace
        # after eigenspace as in the base decomposition and block after
        # block inside each; the first column and the eigenspace of each
        # block, the block of each column, and a mask that is True where row
        # and column lie in the same block.
        cols = []
        starts = []
        groups = []
        block_of = []
        for k, cells in enumerate(refinement.blocks):
            for cell in cells:
                block_of += [len(starts)] * len(cell)
                starts.append(len(cols))
                groups.append(k)
                cols += [refinement.basis[k][i] for i in cell]
        self._basis = np.column_stack(cols)
        self._starts = np.array(starts)
        self._groups = tuple(groups)
        self._block_of = np.array(block_of)
        self._same_block = self._block_of[:, None] == self._block_of

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
        """Measure every system: sample a block, project, renormalise.

        System ``i`` is in state ``table[index[i]]``.  One
        ``rng.random(len(index))`` draw picks the blocks.  Returns the
        coarse outcome of each system, as an index into
        :attr:`outcome_labels`, and the reduced states as a table with each
        system's row in it: one row per reached pair of table row and block,
        in ascending order of the pair.
        """
        if table.shape[1] != self.dim:
            raise ValueError("state dimension does not match the apparatus")
        amps = table @ self._basis.conj()
        blocks = collapse(amps, self._starts, index, rng.random(len(index)))
        # Each reached pair of table row and block is reduced once.
        n = len(self._starts)
        pairs, post_index = renumber(index * n + blocks, len(table) * n)
        post = self._reduce(amps, *np.divmod(pairs, n))
        return np.take(self._groups, blocks), post, post_index

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
        r = np.where(self._same_block, r, 0.0)
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


def _device(base: SpectralDecomposition, basis, blocks) -> MeasurementApparatus:
    """An apparatus over ``basis`` and ``blocks``."""
    return MeasurementApparatus(Refinement(base=base, basis=basis, blocks=blocks))


def make_luders(base: SpectralDecomposition) -> MeasurementApparatus:
    """An apparatus that reduces by the Lüders rule: one block per eigenspace."""
    blocks = tuple((tuple(range(n)),) for n in base.multiplicities)
    return _device(base, base.eigenbasis, blocks)


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
    basis = tuple(
        group if choice is None else choice
        for group, choice in zip(base.eigenbasis, eigenbasis_choice)
    )
    blocks = tuple(tuple((i,) for i in range(n)) for n in base.multiplicities)
    return _device(base, basis, blocks)


def make_partial(
    base: SpectralDecomposition,
    blocks: Sequence[Sequence[Sequence[int]]],
) -> MeasurementApparatus:
    """An apparatus with caller-chosen blocks over the canonical eigenbases.

    ``blocks[k]`` must partition ``0..n_k - 1``; cells of size > 1 keep
    Lüders-style coherence inside themselves, so the device is a partial
    von Neumann measurement in general.
    """
    cells = tuple(
        tuple(tuple(int(i) for i in cell) for cell in group) for group in blocks
    )
    return _device(base, base.eigenbasis, cells)
