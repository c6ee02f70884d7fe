"""Frozen dense-row equation system: the oracle for the entry-run solve.

:class:`repro.linalg.system.EquationSystem` stores rows as ``(column,
value)`` entry runs and has one solve body. Before that, it also had a
dense storage mode — width-``num_unknowns`` rows, duplicate grouping on
raw row bytes, and its own copy of the solve. That dense mode survives
here, frozen, as the executable specification the production solve is
compared against bit for bit: the duplicate-row merge, the QR
compression, the NNLS bounded solve (with its ``lsq_linear`` fallback)
and the QR+SVD identifiability classification.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
from scipy.optimize import lsq_linear, nnls

from repro.exceptions import EstimationError
from repro.linalg.nullspace import DEFAULT_TOL
from repro.linalg.system import EquationSystem, Solution


def _group_duplicate_rows(matrix: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Group identical rows by hashing their raw bytes.

    Returns ``(first_of_group, inverse)``: the index of each group's first
    occurrence (in first-seen order) and, per original row, its group id.
    Linear in the matrix size — far cheaper than a lexicographic
    ``np.unique(axis=0)`` on wide float rows.
    """
    matrix = np.ascontiguousarray(matrix)
    groups: dict = {}
    first_of_group: List[int] = []
    inverse = np.empty(matrix.shape[0], dtype=np.intp)
    for i, row in enumerate(matrix):
        key = row.tobytes()
        group = groups.get(key)
        if group is None:
            group = len(groups)
            groups[key] = group
            first_of_group.append(i)
        inverse[i] = group
    return np.asarray(first_of_group, dtype=np.intp), inverse


class DenseEquationSystem:
    """A growing ``A x = b`` stored as dense row blocks (reference only)."""

    def __init__(self, num_unknowns: int) -> None:
        if num_unknowns < 0:
            raise EstimationError("num_unknowns must be non-negative")
        self.num_unknowns = num_unknowns
        self._blocks: List[np.ndarray] = []
        self._rhs_blocks: List[np.ndarray] = []
        self._weight_blocks: List[np.ndarray] = []
        self._prior_blocks: List[np.ndarray] = []
        self._num_equations = 0

    @classmethod
    def from_system(cls, system: EquationSystem) -> "DenseEquationSystem":
        """The same equations as a production system, as dense rows."""
        dense = cls(system.num_unknowns)
        if len(system):
            dense._blocks.append(system.matrix)
            dense._rhs_blocks.append(np.array(system.rhs))
            dense._weight_blocks.append(np.array(system.weights))
            dense._prior_blocks.append(np.array(system.prior_mask))
            dense._num_equations = len(system)
        return dense

    def __len__(self) -> int:
        return self._num_equations

    def add(
        self, row: np.ndarray, rhs: float, weight: float = 1.0, prior: bool = False
    ) -> None:
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
        rows = np.atleast_2d(np.asarray(rows, dtype=float))
        rhs = np.asarray(rhs, dtype=float).reshape(-1)
        if rows.shape[1] != self.num_unknowns:
            raise EstimationError(
                f"row has {rows.shape[1]} coefficients, expected {self.num_unknowns}"
            )
        if rows.shape[0] != rhs.shape[0]:
            raise EstimationError("rows and rhs lengths differ")
        if rows.shape[0] == 0:
            return
        if weights is None:
            weights = np.ones(rows.shape[0])
        else:
            weights = np.asarray(weights, dtype=float).reshape(-1)
            if weights.shape[0] != rows.shape[0]:
                raise EstimationError("rows and weights lengths differ")
        if np.any(weights <= 0.0):
            raise EstimationError("equation weight must be positive")
        self._blocks.append(rows)
        self._rhs_blocks.append(rhs)
        self._weight_blocks.append(weights)
        self._prior_blocks.append(np.full(rows.shape[0], bool(prior)))
        self._num_equations += rows.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        if not self._blocks:
            return np.zeros((0, self.num_unknowns))
        return np.concatenate(self._blocks, axis=0)

    @property
    def rhs(self) -> np.ndarray:
        if not self._rhs_blocks:
            return np.zeros(0)
        return np.concatenate(self._rhs_blocks)

    @property
    def weights(self) -> np.ndarray:
        if not self._weight_blocks:
            return np.zeros(0)
        return np.concatenate(self._weight_blocks)

    @property
    def prior_mask(self) -> np.ndarray:
        if not self._prior_blocks:
            return np.zeros(0, dtype=bool)
        return np.concatenate(self._prior_blocks)

    @property
    def storage_nbytes(self) -> int:
        """Dense rows pay ``num_equations x num_unknowns`` float64 cells."""
        per_row = self._num_equations * (8 + 8 + 1)  # rhs, weight, prior
        return self._num_equations * self.num_unknowns * 8 + per_row

    @staticmethod
    def _solve_bounded(
        matrix: np.ndarray, rhs: np.ndarray, upper_bound: float
    ) -> np.ndarray:
        shifted_rhs = rhs - upper_bound * matrix.sum(axis=1)
        try:
            negated, _ = nnls(-matrix, shifted_rhs)
            return upper_bound - negated
        except RuntimeError:
            outcome = lsq_linear(
                matrix,
                rhs,
                bounds=(-np.inf, upper_bound),
                method="bvls" if matrix.shape[0] >= matrix.shape[1] else "trf",
            )
            return outcome.x

    def solve(
        self, tol: float = DEFAULT_TOL, upper_bound: Optional[float] = None
    ) -> Solution:
        if self.num_unknowns == 0:
            return Solution(
                values=np.zeros(0),
                identifiable=np.zeros(0, dtype=bool),
                rank=0,
                residual=0.0,
            )
        if self._num_equations == 0:
            raise EstimationError("cannot solve an empty equation system")
        matrix = self.matrix
        rhs = self.rhs
        weights = self.weights
        first_of_group, inverse = _group_duplicate_rows(matrix)
        unique_rows = matrix[first_of_group]
        if unique_rows.shape[0] < matrix.shape[0]:
            precision = weights * weights
            group_precision = np.bincount(inverse, weights=precision)
            group_rhs = (
                np.bincount(inverse, weights=precision * rhs) / group_precision
            )
            group_weight = np.sqrt(group_precision)
            weighted_matrix = unique_rows * group_weight[:, None]
            weighted_rhs = group_rhs * group_weight
        else:
            weighted_matrix = matrix * weights[:, None]
            weighted_rhs = rhs * weights
        q_factor, r_factor = np.linalg.qr(weighted_matrix)
        compressed_rhs = q_factor.T @ weighted_rhs
        if upper_bound is None:
            values, _, _, _ = np.linalg.lstsq(r_factor, compressed_rhs, rcond=None)
        else:
            values = self._solve_bounded(r_factor, compressed_rhs, upper_bound)
        data_mask = ~self.prior_mask
        data_matrix = matrix[data_mask]
        data_rhs = rhs[data_mask]
        if data_matrix.shape[0] == 0:
            raise EstimationError("cannot solve a system with only prior equations")
        data_groups = np.unique(inverse[data_mask])
        data_unique = matrix[first_of_group[data_groups]]
        data_triangle = np.linalg.qr(data_unique, mode="r")
        _, singular_values, vt = np.linalg.svd(data_triangle, full_matrices=True)
        if singular_values.size and singular_values.max() > 0:
            cutoff = tol * max(data_unique.shape) * singular_values.max()
            rank = int((singular_values > cutoff).sum())
        else:
            rank = 0
        basis = vt[rank:].T
        if basis.shape[1] == 0:
            identifiable = np.ones(self.num_unknowns, dtype=bool)
        else:
            identifiable = np.abs(basis).max(axis=1) <= 1e-7
        fitted = data_matrix @ values
        residual = (
            float(np.sqrt(np.mean((fitted - data_rhs) ** 2)))
            if len(data_rhs)
            else 0.0
        )
        return Solution(
            values=values,
            identifiable=identifiable,
            rank=rank,
            residual=residual,
        )


def assert_solutions_identical(actual: Solution, expected: Solution) -> None:
    """Every solution field equal — same floats, not approximately."""
    assert np.array_equal(actual.values, expected.values)
    assert np.array_equal(actual.identifiable, expected.identifiable)
    assert actual.rank == expected.rank
    assert actual.residual == expected.residual


def dense_oracle_solve(
    system: EquationSystem,
    tol: float = DEFAULT_TOL,
    upper_bound: Optional[float] = None,
    null_basis: Optional[np.ndarray] = None,
) -> Solution:
    """Solve a production system's equations with the frozen dense body.

    Monkeypatched over :meth:`EquationSystem.solve`, this turns any
    estimator fit into the fit the dense storage mode would have produced.
    ``null_basis`` is accepted and ignored: the frozen body always
    re-derives the null space with a full QR + SVD.
    """
    return DenseEquationSystem.from_system(system).solve(tol, upper_bound)
