"""Black-box measurement apparatuses built over a hidden refinement.

An apparatus measures a base observable, but internally it may resolve each
degenerate eigenspace into finer blocks before reporting the coarse
eigenvalue.  The refinement is construct-time data: a unitary whose
columns run block after block, which the one reduction kernel,
:func:`~ludercheck.quantum.reductions`, measures in as it is.  The protocol
asks an apparatus for nothing but ``dim``, ``outcome_labels`` and
``branches``, in either mode.  ``branches`` takes a table of distinct
states and enumerates each row's reductions once, with its Born weight and
its coarse outcome, an index into the base observable's eigenvalues, never
the block structure: one table-row transition, which exact mode multiplies
and sampled mode draws from.  A rank-one block reduces every state to its
basis column, so a von Neumann device's reductions are a few shared rows.
``measure_sampled`` draws one branch per system and ``channel_exact`` gives
the branches as density matrices; the protocol calls neither, and they stay
as references for the tests and names for the benchmark tracer.
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
    pick_branches,
    reductions,
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
        # The first column and the eigenspace of each block.
        sizes = [n for group in refinement.blocks for n in group]
        counts = [len(group) for group in refinement.blocks]
        self._starts = np.cumsum([0] + sizes[:-1])
        self._groups = np.repeat(np.arange(len(counts)), counts)

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

        System ``i`` is in state ``table[index[i]]`` and draws its branch by
        :func:`~ludercheck.quantum.pick_branches` from one
        ``rng.random(len(index))``.  Returns each system's coarse outcome and
        the reduced states as a table with each system's row in it.
        """
        rows, outcomes, weights, post, post_index = self.branches(table)
        pick = pick_branches(rows, weights, index, rng.random(len(index)))
        return outcomes[pick], post, post_index[pick]

    def branches(
        self, table: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every reduction of every row of ``table``, with its Born weight.

        :func:`~ludercheck.quantum.reductions` over the hidden blocks, with
        each block mapped to its coarse outcome, an index into
        :attr:`outcome_labels`.  The reduced states are rays: one shared row
        per reached rank-one block, one row per branch into a larger block.
        """
        found = reductions(self._basis, self._starts, table)
        return found[0], self._groups[found[1]], *found[2:]

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
        block_of = np.cumsum(np.bincount(self._starts[1:], minlength=self.dim))
        r = np.where(block_of[:, None] == block_of, r, 0.0)
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
