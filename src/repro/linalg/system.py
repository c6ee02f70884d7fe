"""Growing least-squares equation system with identifiability reporting.

Taking logarithms of Eq. 1 turns every "all paths in P good" observation into
a *linear* equation over the unknown log-probabilities of correlation
subsets. This module hosts those equations: rows are appended as Algorithm 1
selects path sets — individually or as whole batches, which is how the
batched estimation stack feeds vectorized frequency/weight arrays in — the
system is solved by (min-norm) least squares, and each unknown is classified
*identifiable* iff its coordinate is constant across the solution affine
subspace — i.e. iff the corresponding row of the final null-space basis
vanishes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np
from scipy.optimize import lsq_linear, nnls

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL
from repro.obs import counter, metrics_enabled

_NNLS_FALLBACKS = counter(
    "repro_linalg_nnls_fallbacks_total",
    "Bounded solves where NNLS raised and lsq_linear answered instead.",
)


class SystemWorkspace:
    """Reusable growth arenas for :class:`EquationSystem` blocks.

    A sweep trial that fits several estimators against one observation set
    churns through several short-lived equation systems; the workspace
    lets them append into one set of capacity-doubling arenas instead of
    reallocating block lists per fit. The estimation pipeline threads one
    workspace per trial through its
    :class:`~repro.probability.pipeline.FitContext`.

    Only one system may grow in the workspace at a time: beginning a new
    system recycles the arenas, invalidating the previous system's views.
    Sweep trials fit sequentially, so this is the natural lifetime.

    Rows are stored as runs of ``(column, value)`` entries in flat arenas
    plus a per-row entry count, next to the per-row rhs, weight and prior
    arenas.
    """

    #: Initial row capacity of a fresh arena.
    INITIAL_CAPACITY = 256
    #: Initial flat (column, value) entry capacity.
    INITIAL_ENTRIES = 1024

    def __init__(self) -> None:
        self._rhs = np.empty(self.INITIAL_CAPACITY)
        self._weights = np.empty(self.INITIAL_CAPACITY)
        self._prior = np.empty(self.INITIAL_CAPACITY, dtype=bool)
        self._row_lengths = np.empty(self.INITIAL_CAPACITY, dtype=np.int64)
        self._flat_columns = np.empty(self.INITIAL_ENTRIES, dtype=np.int64)
        self._flat_values = np.empty(self.INITIAL_ENTRIES)
        self._entry_count = 0
        self._count = 0
        # Bumped on every begin(); systems remember the generation they
        # were issued so a stale system can never read a recycled arena.
        self._generation = 0

    def begin(self) -> int:
        """Recycle the arenas for a new system; returns its generation."""
        self._count = 0
        self._entry_count = 0
        self._generation += 1
        return self._generation

    @property
    def generation(self) -> int:
        """Identity of the arena's current (live) system."""
        return self._generation

    @staticmethod
    def _grown(old: np.ndarray, used: int, needed: int) -> np.ndarray:
        """``old`` if it holds ``needed`` items, else a doubled copy."""
        if needed <= old.shape[0]:
            return old
        grown = np.empty(max(needed, 2 * old.shape[0]), dtype=old.dtype)
        grown[:used] = old[:used]
        return grown

    def append(
        self,
        columns: np.ndarray,
        values: np.ndarray,
        row_lengths: np.ndarray,
        rhs: np.ndarray,
        weights: np.ndarray,
        prior: bool,
    ) -> None:
        """Copy one validated equation block into the arenas."""
        stop = self._count + row_lengths.shape[0]
        entry_stop = self._entry_count + columns.shape[0]
        for name in ("_rhs", "_weights", "_prior", "_row_lengths"):
            setattr(self, name, self._grown(getattr(self, name), self._count, stop))
        for name in ("_flat_columns", "_flat_values"):
            setattr(
                self,
                name,
                self._grown(getattr(self, name), self._entry_count, entry_stop),
            )
        self._row_lengths[self._count : stop] = row_lengths
        self._rhs[self._count : stop] = rhs
        self._weights[self._count : stop] = weights
        self._prior[self._count : stop] = prior
        self._flat_columns[self._entry_count : entry_stop] = columns
        self._flat_values[self._entry_count : entry_stop] = values
        self._count = stop
        self._entry_count = entry_stop

    def rhs_view(self) -> np.ndarray:
        """The live system's right-hand sides (a view into the arena)."""
        return self._rhs[: self._count]

    def weights_view(self) -> np.ndarray:
        """The live system's equation weights (a view into the arena)."""
        return self._weights[: self._count]

    def prior_view(self) -> np.ndarray:
        """The live system's prior-row mask (a view into the arena)."""
        return self._prior[: self._count]

    def entry_views(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The live system's ``(columns, values, row_lengths)``."""
        return (
            self._flat_columns[: self._entry_count],
            self._flat_values[: self._entry_count],
            self._row_lengths[: self._count],
        )


@dataclass
class Solution:
    """Solved unknowns with identifiability flags.

    Attributes
    ----------
    values:
        Estimated unknowns (here: log "all-good" probabilities), length n.
        Unidentifiable coordinates carry the min-norm solution value and
        must be interpreted through ``identifiable``.
    identifiable:
        Boolean mask, length n; true where the system pins the unknown down
        uniquely.
    rank:
        Rank of the solved system.
    residual:
        Root-mean-square equation residual (diagnostic; large residuals mean
        the model assumptions are violated or T is too small).
    """

    values: np.ndarray
    identifiable: np.ndarray
    rank: int
    residual: float


class EquationSystem:
    """A growing linear system ``A x = b`` over ``num_unknowns`` unknowns.

    Equations may carry *weights* (generalised least squares): an equation
    whose right-hand side is a noisy estimate with standard deviation
    ``sigma`` should be weighted ``1/sigma`` so that precise equations
    dominate the solve. Weights scale rows and right-hand sides together, so
    the row space — and therefore identifiability — is unchanged.

    Rows are stored as ``(column, value)`` entry runs, so storage costs the
    number of nonzeros rather than rows x unknowns. :meth:`add_sparse_batch`
    appends entry runs directly (the estimators' path, straight off
    :meth:`~repro.probability.subsets.SubsetIndex.decompose_batch`);
    :meth:`add` and :meth:`add_batch` accept dense rows and convert them.
    Equations are kept as blocks, or — with a :class:`SystemWorkspace` —
    in the workspace's reusable arenas (one live system per workspace at a
    time; beginning a newer system there invalidates this one).
    """

    def __init__(
        self,
        num_unknowns: int,
        workspace: Optional[SystemWorkspace] = None,
    ) -> None:
        if num_unknowns < 0:
            raise EstimationError("num_unknowns must be non-negative")
        self.num_unknowns = num_unknowns
        self._workspace = workspace
        self._generation = workspace.begin() if workspace else 0
        self._column_blocks: List[np.ndarray] = []
        self._value_blocks: List[np.ndarray] = []
        self._length_blocks: List[np.ndarray] = []
        self._rhs_blocks: List[np.ndarray] = []
        self._weight_blocks: List[np.ndarray] = []
        self._prior_blocks: List[np.ndarray] = []
        self._num_equations = 0
        self._num_entries = 0

    def __len__(self) -> int:
        return self._num_equations

    def add(
        self, row: np.ndarray, rhs: float, weight: float = 1.0, prior: bool = False
    ) -> None:
        """Append one equation ``row . x = rhs`` with precision ``weight``.

        Equations flagged ``prior`` are regularisers, not measurements: they
        participate in the least-squares solve (pulling underdetermined
        directions toward the prior) but are excluded from rank and
        identifiability accounting — an unknown only counts as identifiable
        when the *data* pins it down.
        """
        row = np.asarray(row, dtype=float).reshape(-1)
        self.add_batch(
            row[None, :],
            np.array([float(rhs)]),
            np.array([float(weight)]),
            prior=prior,
        )

    def add_batch(
        self,
        rows: np.ndarray,
        rhs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        prior: bool = False,
    ) -> None:
        """Append a block of dense rows in one call.

        Parameters
        ----------
        rows:
            Coefficient matrix, shape (k, num_unknowns).
        rhs:
            Right-hand sides, shape (k,).
        weights:
            Per-equation precisions, shape (k,); defaults to 1.
        prior:
            Marks the whole block as regulariser rows (see :meth:`add`).
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        if rows.shape[1] != self.num_unknowns:
            raise EstimationError(
                f"row has {rows.shape[1]} coefficients, expected {self.num_unknowns}"
            )
        # np.nonzero walks row-major, so per-row columns come out
        # ascending — already the canonical entry-run order.
        row_ids, columns = np.nonzero(rows)
        self._append(
            columns.astype(np.int64),
            rows[row_ids, columns],
            np.bincount(row_ids, minlength=rows.shape[0]).astype(np.int64),
            rhs,
            weights,
            prior,
        )

    def add_sparse_batch(
        self,
        columns: np.ndarray,
        row_lengths: np.ndarray,
        rhs: np.ndarray,
        weights: Optional[np.ndarray] = None,
        values: Optional[np.ndarray] = None,
        prior: bool = False,
    ) -> None:
        """Append a block of entry-run equations in one call.

        Parameters
        ----------
        columns:
            Flat array concatenating each row's unknown indices. Indices
            must be distinct within a row (any order; rows are
            canonicalised to ascending column order internally, which is
            what duplicate-row detection in :meth:`solve` keys on).
        row_lengths:
            Entries per row, shape (k,); ``sum(row_lengths) == len(columns)``.
        rhs:
            Right-hand sides, shape (k,).
        weights:
            Per-equation precisions, shape (k,); defaults to 1.
        values:
            Per-entry coefficients aligned with ``columns``; defaults to 1
            (the 0/1 Eq. 1 rows).
        prior:
            Marks the whole block as regulariser rows (see :meth:`add`).
        """
        columns = np.asarray(columns, dtype=np.int64).reshape(-1)
        row_lengths = np.asarray(row_lengths, dtype=np.int64).reshape(-1)
        if int(row_lengths.sum()) != columns.shape[0]:
            raise EstimationError("row_lengths do not sum to len(columns)")
        if columns.size and (
            columns.min() < 0 or columns.max() >= self.num_unknowns
        ):
            raise EstimationError("sparse column index out of range")
        if values is None:
            values = np.ones(columns.shape[0])
        else:
            values = np.asarray(values, dtype=float).reshape(-1)
            if values.shape[0] != columns.shape[0]:
                raise EstimationError("columns and values lengths differ")
        if columns.size:
            row_ids = np.repeat(np.arange(row_lengths.shape[0]), row_lengths)
            order = np.lexsort((columns, row_ids))
            columns = columns[order]
            values = values[order]
        self._append(columns, values, row_lengths, rhs, weights, prior)

    def _append(
        self,
        columns: np.ndarray,
        values: np.ndarray,
        row_lengths: np.ndarray,
        rhs: np.ndarray,
        weights: Optional[np.ndarray],
        prior: bool,
    ) -> None:
        """Validate one canonical entry-run block and store it.

        The single entry point of every equation: a non-finite coefficient,
        right-hand side or weight, or a non-positive weight, is rejected
        here rather than surfacing later as a LAPACK error inside
        :meth:`solve`.
        """
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if row_lengths.shape[0] != rhs.shape[0]:
            raise EstimationError("rows and rhs lengths differ")
        if row_lengths.shape[0] == 0:
            return
        if weights is None:
            weights = np.ones(row_lengths.shape[0])
        else:
            weights = np.asarray(weights, dtype=float).reshape(-1)
            if weights.shape[0] != row_lengths.shape[0]:
                raise EstimationError("rows and weights lengths differ")
        if not (
            np.isfinite(values).all()
            and np.isfinite(rhs).all()
            and np.isfinite(weights).all()
        ):
            raise EstimationError(
                "equation coefficients, right-hand sides and weights must be finite"
            )
        if np.any(weights <= 0.0):
            raise EstimationError("equation weight must be positive")
        if self._workspace is not None:
            self._arena().append(
                columns, values, row_lengths, rhs, weights, bool(prior)
            )
        else:
            self._column_blocks.append(columns)
            self._value_blocks.append(values)
            self._length_blocks.append(row_lengths)
            self._rhs_blocks.append(rhs)
            self._weight_blocks.append(weights)
            self._prior_blocks.append(np.full(row_lengths.shape[0], bool(prior)))
        self._num_equations += row_lengths.shape[0]
        self._num_entries += columns.shape[0]

    def _arena(self) -> SystemWorkspace:
        """The backing workspace, after checking this system still owns it."""
        if self._workspace.generation != self._generation:
            raise EstimationError(
                "workspace was recycled by a newer EquationSystem; "
                "this system's equations are gone"
            )
        return self._workspace

    def _stored(self, blocks: List[np.ndarray], view, dtype=float) -> np.ndarray:
        """One stored per-row array, from the arena or the block list."""
        if self._workspace is not None:
            return view(self._arena())
        if not blocks:
            return np.zeros(0, dtype=dtype)
        return np.concatenate(blocks)

    def _entries(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """The stored ``(columns, values, row_lengths)`` entry runs."""
        if self._workspace is not None:
            return self._arena().entry_views()
        if not self._length_blocks:
            empty = np.zeros(0, dtype=np.int64)
            return empty, np.zeros(0), empty
        return (
            np.concatenate(self._column_blocks),
            np.concatenate(self._value_blocks),
            np.concatenate(self._length_blocks),
        )

    @property
    def matrix(self) -> np.ndarray:
        """The system matrix A, shape (num_equations, num_unknowns).

        *Materialises* the full dense matrix from the entry runs
        (diagnostics and tests only — the solve never does this).
        """
        columns, values, row_lengths = self._entries()
        matrix = np.zeros((row_lengths.shape[0], self.num_unknowns))
        if columns.size:
            row_ids = np.repeat(np.arange(row_lengths.shape[0]), row_lengths)
            matrix[row_ids, columns] = values
        return matrix

    @property
    def storage_nbytes(self) -> int:
        """Logical bytes of the stored equations.

        One ``(column, value)`` pair per nonzero, plus a row length, rhs,
        weight and prior flag per row. Solve-time transients (the densified
        unique rows) are deliberately excluded.
        """
        return self._num_entries * (8 + 8) + self._num_equations * (8 + 8 + 8 + 1)

    @property
    def rhs(self) -> np.ndarray:
        """The right-hand side b, shape (num_equations,)."""
        return self._stored(self._rhs_blocks, SystemWorkspace.rhs_view)

    @property
    def weights(self) -> np.ndarray:
        """Per-equation precisions, shape (num_equations,)."""
        return self._stored(self._weight_blocks, SystemWorkspace.weights_view)

    @property
    def prior_mask(self) -> np.ndarray:
        """Boolean mask of regulariser rows, shape (num_equations,)."""
        return self._stored(self._prior_blocks, SystemWorkspace.prior_view, bool)

    @staticmethod
    def _solve_bounded(
        matrix: np.ndarray, rhs: np.ndarray, upper_bound: float
    ) -> np.ndarray:
        """Least squares subject to ``x_i <= upper_bound`` for all i.

        Substituting ``x = upper_bound + d`` with ``d <= 0`` turns the
        problem into non-negative least squares on ``-d``, which scipy
        solves with the compiled Lawson–Hanson active-set method — far
        faster than the generic bounded solvers on these systems. Falls
        back to ``lsq_linear`` if NNLS hits its iteration limit, and counts
        the fallback in ``repro_linalg_nnls_fallbacks_total``.
        """
        shifted_rhs = rhs - upper_bound * matrix.sum(axis=1)
        try:
            negated, _ = nnls(-matrix, shifted_rhs)
            return upper_bound - negated
        except RuntimeError:
            if metrics_enabled():
                _NNLS_FALLBACKS.inc()
            outcome = lsq_linear(
                matrix,
                rhs,
                bounds=(-np.inf, upper_bound),
                method="bvls" if matrix.shape[0] >= matrix.shape[1] else "trf",
            )
            return outcome.x

    def solve(
        self,
        tol: float = DEFAULT_TOL,
        upper_bound: Optional[float] = None,
        null_basis: Optional[np.ndarray] = None,
    ) -> Solution:
        """Solve by (optionally bounded) least squares and classify
        identifiability.

        Identifiability comes from the null space of the data rows (prior
        rows never count). ``null_basis`` lets a caller that already holds
        part of that null space skip re-deriving it: given an orthonormal
        basis ``N`` (n, p) of the null space of *some* of the data rows,
        the data rows' null space is ``N null(D N)``, so only the rows of
        the projection ``D N`` that still add rank are factorized, as a
        (rows, p) QR + SVD instead of one over the whole (m, n) system.
        Without a basis, ``N`` is the whole space and the factorization is
        the QR of the unique data rows followed by the SVD of its triangle.

        Parameters
        ----------
        tol:
            Rank tolerance. A singular value of the factorized rows counts
            when it exceeds ``tol * max(shape) * largest``; with a basis, a
            row whose projection has ``||r N|| <= tol`` adds no rank (the
            test Algorithm 1 admits rows with).
        upper_bound:
            When given, solve subject to ``x_i <= upper_bound`` for every
            unknown. The log-domain probability systems use 0 (probabilities
            cannot exceed 1); without the bound, noise can push one
            unknown's log-probability positive and dump the compensating
            mass on another, badly misattributing congestion.
        null_basis:
            Optional orthonormal basis, shape (num_unknowns, p), of the null
            space of a subset of the data rows; Correlation-complete passes
            Algorithm 1's final basis. The least-squares values do not
            depend on it.

        Raises
        ------
        EstimationError
            If the system has no equations but unknowns exist, or
            ``null_basis`` does not have one row per unknown.
        """
        if self.num_unknowns == 0:
            return Solution(
                values=np.zeros(0),
                identifiable=np.zeros(0, dtype=bool),
                rank=0,
                residual=0.0,
            )
        if self._num_equations == 0:
            raise EstimationError("cannot solve an empty equation system")
        if null_basis is not None and null_basis.shape[0] != self.num_unknowns:
            raise EstimationError(
                f"null_basis has {null_basis.shape[0]} rows, "
                f"expected {self.num_unknowns}"
            )
        columns, entry_values, row_lengths = self._entries()
        rhs = self.rhs
        weights = self.weights
        num_rows = row_lengths.shape[0]
        indptr = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(row_lengths, out=indptr[1:])
        # Equations from different path sets frequently share a coefficient
        # row; a duplicate group {(r, b_i, w_i)} contributes
        # ``sum w_i^2 (r.x - b_i)^2 = W^2 (r.x - b_bar)^2 + const`` with
        # ``W^2 = sum w_i^2`` and ``b_bar`` the precision-weighted mean, so
        # merging duplicates leaves the minimiser set exactly unchanged
        # while shrinking the factorizations below. Entry runs are
        # canonical (ascending columns), so equal rows have equal keys.
        groups: dict = {}
        first_of_group_list: List[int] = []
        inverse = np.empty(num_rows, dtype=np.intp)
        for i in range(num_rows):
            start, stop = indptr[i], indptr[i + 1]
            key = (
                columns[start:stop].tobytes(),
                entry_values[start:stop].tobytes(),
            )
            group = groups.get(key)
            if group is None:
                group = len(groups)
                groups[key] = group
                first_of_group_list.append(i)
            inverse[i] = group
        first_of_group = np.asarray(first_of_group_list, dtype=np.intp)
        num_groups = first_of_group.shape[0]
        # Only the unique rows ever densify to ``num_unknowns`` width.
        unique_rows = np.zeros((num_groups, self.num_unknowns))
        for group, i in enumerate(first_of_group):
            start, stop = indptr[i], indptr[i + 1]
            unique_rows[group, columns[start:stop]] = entry_values[start:stop]
        if num_groups < num_rows:
            precision = weights * weights
            group_precision = np.bincount(inverse, weights=precision)
            group_rhs = (
                np.bincount(inverse, weights=precision * rhs) / group_precision
            )
            group_weight = np.sqrt(group_precision)
            weighted_matrix = unique_rows * group_weight[:, None]
            weighted_rhs = group_rhs * group_weight
        else:
            weighted_matrix = unique_rows * weights[:, None]
            weighted_rhs = rhs * weights
        # Compress the least-squares problem through a thin QR: with
        # A = Q R, ``||A x - b|| = ||R x - Q' b||`` up to a constant, so
        # every solver below works on the (n, n) triangle instead of the
        # (num_equations, n) stack. Minimiser sets are identical.
        q_factor, r_factor = np.linalg.qr(weighted_matrix)
        compressed_rhs = q_factor.T @ weighted_rhs
        if upper_bound is None:
            values, _, _, _ = np.linalg.lstsq(r_factor, compressed_rhs, rcond=None)
        else:
            # NNLS solves the bounded problem exactly whether or not the
            # bound binds, so no unconstrained pre-solve is needed (on the
            # log-probability systems the bound almost always binds).
            values = self._solve_bounded(r_factor, compressed_rhs, upper_bound)
        data_mask = ~self.prior_mask
        data_rhs = rhs[data_mask]
        if data_rhs.shape[0] == 0:
            raise EstimationError("cannot solve a system with only prior equations")
        # Rank and null space of the data rows. Duplicate rows don't change
        # the row space, so only one representative per group counts.
        data_groups = np.unique(inverse[data_mask])
        data_unique = unique_rows[data_groups]
        # Project onto the given null space (the whole space when none is
        # given); rows whose projection vanishes add no rank.
        if null_basis is None:
            projected = data_unique
        else:
            projected = data_unique @ null_basis
            projected = projected[np.linalg.norm(projected, axis=1) > tol]
        gained = 0
        basis = null_basis
        if projected.shape[0]:
            # SVD of the projection's QR triangle: P'P = R'R, so singular
            # values and right singular vectors coincide while the
            # decomposition runs on at most (p, p).
            triangle = np.linalg.qr(projected, mode="r")
            _, singular_values, vt = np.linalg.svd(triangle, full_matrices=True)
            if singular_values.size and singular_values.max() > 0:
                cutoff = tol * max(projected.shape) * singular_values.max()
                gained = int((singular_values > cutoff).sum())
            basis = vt[gained:].T
            if null_basis is not None:
                basis = null_basis @ basis
        # The rows behind the basis already hold rank n - p.
        rank = self.num_unknowns - projected.shape[1] + gained
        if basis.shape[1] == 0:
            identifiable = np.ones(self.num_unknowns, dtype=bool)
        else:
            # Unknown i is pinned down iff every null vector has a zero
            # i-th coordinate.
            identifiable = np.abs(basis).max(axis=1) <= 1e-7
        # One matvec over the unique data rows; every duplicate row's
        # fitted value equals its representative's, so scattering through
        # the group ids gives the per-row residual.
        fitted_unique = data_unique @ values
        fitted = fitted_unique[np.searchsorted(data_groups, inverse[data_mask])]
        residual = float(np.sqrt(np.mean((fitted - data_rhs) ** 2)))
        return Solution(
            values=values,
            identifiable=identifiable,
            rank=rank,
            residual=residual,
        )
