"""Entry-run EquationSystem: bit-identical to the frozen dense oracle.

Rows are stored as (column, value) entry runs and the solve deduplicates
on those keys before densifying only the unique rows. Every solution
field must match the retired dense storage mode — preserved in
``tests/linalg/dense_oracle.py`` — exactly (same floats, not
approximately).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EstimationError
from repro.linalg.system import EquationSystem, SystemWorkspace
from tests.linalg.dense_oracle import DenseEquationSystem, assert_solutions_identical


def _random_system(
    num_rows: int,
    num_unknowns: int,
    seed: int,
    duplicate_fraction: float = 0.3,
):
    """Random sparse boolean rows + rhs/weights, with duplicated rows."""
    rng = np.random.default_rng(seed)
    rows = (rng.random((num_rows, num_unknowns)) < 0.15).astype(float)
    rows[rows.sum(axis=1) == 0, 0] = 1.0  # no empty equations
    duplicates = rng.random(num_rows) < duplicate_fraction
    rows[duplicates] = rows[0]
    rhs = -rng.random(num_rows)
    weights = 0.5 + rng.random(num_rows)
    return rows, rhs, weights


def _fill(system, rows, rhs, weights, prior_rows=None):
    system.add_batch(rows, rhs, weights)
    if prior_rows is not None:
        p_rows, p_rhs, p_weights = prior_rows
        system.add_batch(p_rows, p_rhs, p_weights, prior=True)
    return system


def _fill_entry_runs(system, rows, rhs, weights):
    """The same rows through add_sparse_batch, columns reversed per row."""
    row_ids, columns = np.nonzero(rows[:, ::-1])
    columns = rows.shape[1] - 1 - columns
    system.add_sparse_batch(
        columns,
        np.bincount(row_ids, minlength=rows.shape[0]),
        rhs,
        weights,
        values=rows[row_ids, columns],
    )
    return system


@pytest.mark.parametrize("upper_bound", [None, 0.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sparse_solve_bit_identical_to_dense(seed, upper_bound):
    rows, rhs, weights = _random_system(120, 40, seed)
    oracle = _fill(DenseEquationSystem(40), rows, rhs, weights)
    expected = oracle.solve(upper_bound=upper_bound)
    for system in (
        _fill(EquationSystem(40), rows, rhs, weights),
        _fill_entry_runs(EquationSystem(40), rows, rhs, weights),
    ):
        assert_solutions_identical(system.solve(upper_bound=upper_bound), expected)


def test_sparse_solve_with_priors_matches_dense():
    rows, rhs, weights = _random_system(60, 25, seed=5)
    priors = (np.eye(25), np.full(25, -0.1), np.full(25, 0.01))
    oracle = _fill(DenseEquationSystem(25), rows, rhs, weights, priors)
    system = _fill(EquationSystem(25), rows, rhs, weights, priors)
    assert_solutions_identical(
        system.solve(upper_bound=0.0), oracle.solve(upper_bound=0.0)
    )


def test_sparse_only_prior_equations_rejected():
    system = EquationSystem(4)
    system.add_batch(np.eye(4), np.zeros(4), np.ones(4), prior=True)
    with pytest.raises(EstimationError, match="only prior"):
        system.solve()


def test_add_sparse_batch_canonicalises_column_order():
    """Unsorted per-row columns must still dedupe against sorted ones."""
    reference = DenseEquationSystem(6)
    reference.add_batch(
        np.array([[1.0, 0, 1.0, 0, 0, 1.0], [1.0, 0, 1.0, 0, 0, 1.0]]),
        np.array([-0.5, -0.5]),
        np.array([1.0, 1.0]),
    )
    system = EquationSystem(6)
    system.add_sparse_batch(
        np.array([0, 2, 5, 5, 0, 2]),  # second row descending-ish
        np.array([3, 3]),
        np.array([-0.5, -0.5]),
        np.array([1.0, 1.0]),
    )
    assert np.array_equal(system.matrix, reference.matrix)
    assert_solutions_identical(system.solve(), reference.solve())


def test_sparse_matrix_property_materialises_rows():
    rows, rhs, weights = _random_system(30, 12, seed=3)
    system = _fill(EquationSystem(12), rows, rhs, weights)
    assert np.array_equal(system.matrix, rows)
    assert np.array_equal(system.rhs, rhs)
    assert np.array_equal(system.weights, weights)


def test_workspace_backed_sparse_system_and_generation_guard():
    workspace = SystemWorkspace()
    rows, rhs, weights = _random_system(50, 20, seed=8)
    first = _fill(EquationSystem(20, workspace=workspace), rows, rhs, weights)
    expected = _fill(DenseEquationSystem(20), rows, rhs, weights).solve()
    assert_solutions_identical(first.solve(), expected)
    # A newer system recycles the arena; the old handle must refuse.
    second = EquationSystem(20, workspace=workspace)
    with pytest.raises(EstimationError, match="recycled"):
        first.solve()
    del second


def test_workspace_alternates_dense_and_sparse_modes():
    """One arena alternating dense-row and entry-run input, and widths."""
    workspace = SystemWorkspace()
    for seed, width, fill in [
        (9, 15, _fill),
        (10, 30, _fill_entry_runs),
        (11, 15, _fill_entry_runs),
        (12, 30, _fill),
    ]:
        rows, rhs, weights = _random_system(40, width, seed)
        system = fill(EquationSystem(width, workspace=workspace), rows, rhs, weights)
        oracle = _fill(DenseEquationSystem(width), rows, rhs, weights)
        assert_solutions_identical(system.solve(), oracle.solve())


def test_storage_nbytes_reflects_the_two_layouts():
    rows, rhs, weights = _random_system(200, 80, seed=4, duplicate_fraction=0)
    dense = _fill(DenseEquationSystem(80), rows, rhs, weights)
    system = _fill(EquationSystem(80), rows, rhs, weights)
    entries = int(np.count_nonzero(rows))
    per_row = 200 * (8 + 8 + 1)
    assert dense.storage_nbytes == 200 * 80 * 8 + per_row
    assert system.storage_nbytes == entries * 16 + 200 * 8 + per_row
    assert system.storage_nbytes < dense.storage_nbytes / 2
