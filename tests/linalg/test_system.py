"""Tests for the equation-system container."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.optimize import lsq_linear

from repro import obs
from repro.exceptions import EstimationError
from repro.linalg import system as system_module
from repro.linalg.nullspace import null_space
from repro.linalg.system import EquationSystem


def test_solve_determined_system():
    system = EquationSystem(2)
    system.add(np.array([1.0, 0.0]), 3.0)
    system.add(np.array([0.0, 1.0]), -2.0)
    solution = system.solve()
    assert np.allclose(solution.values, [3.0, -2.0])
    assert solution.identifiable.all()
    assert solution.rank == 2
    assert solution.residual == pytest.approx(0.0, abs=1e-9)


def test_solve_underdetermined_flags_unidentifiable():
    system = EquationSystem(3)
    system.add(np.array([1.0, 1.0, 0.0]), 2.0)
    system.add(np.array([0.0, 0.0, 1.0]), 5.0)
    solution = system.solve()
    assert not solution.identifiable[0]
    assert not solution.identifiable[1]
    assert solution.identifiable[2]
    assert solution.values[2] == pytest.approx(5.0)


def test_solve_upper_bound():
    system = EquationSystem(1)
    system.add(np.array([1.0]), 1.5)  # wants x = 1.5 but bound is 0
    solution = system.solve(upper_bound=0.0)
    assert solution.values[0] <= 1e-9


def test_weights_tilt_inconsistent_equations():
    system = EquationSystem(1)
    system.add(np.array([1.0]), 0.0, weight=10.0)
    system.add(np.array([1.0]), 1.0, weight=0.1)
    solution = system.solve()
    assert abs(solution.values[0]) < 0.01


def test_prior_rows_excluded_from_identifiability():
    system = EquationSystem(2)
    system.add(np.array([1.0, 1.0]), -1.0)
    # Prior pinning the difference; without it the split is ambiguous.
    system.add(np.array([1.0, -1.0]), 0.0, weight=0.5, prior=True)
    solution = system.solve()
    # Values are pinned by the prior (even split)...
    assert solution.values[0] == pytest.approx(-0.5, abs=1e-6)
    # ...but identifiability reflects data only.
    assert not solution.identifiable.any()
    assert solution.rank == 1


def test_only_prior_equations_rejected():
    system = EquationSystem(1)
    system.add(np.array([1.0]), 0.0, prior=True)
    with pytest.raises(EstimationError):
        system.solve()


def test_empty_system_rejected():
    system = EquationSystem(2)
    with pytest.raises(EstimationError):
        system.solve()


def test_zero_unknowns():
    system = EquationSystem(0)
    solution = system.solve()
    assert solution.values.shape == (0,)
    assert solution.rank == 0


def test_row_width_checked():
    system = EquationSystem(2)
    with pytest.raises(EstimationError):
        system.add(np.array([1.0]), 0.0)


def test_nonpositive_weight_rejected():
    system = EquationSystem(1)
    with pytest.raises(EstimationError):
        system.add(np.array([1.0]), 0.0, weight=0.0)


def test_matrix_and_rhs_accessors():
    system = EquationSystem(2)
    system.add(np.array([1.0, 0.0]), 4.0)
    assert system.matrix.shape == (1, 2)
    assert system.rhs.tolist() == [4.0]
    assert len(system) == 1


@pytest.mark.parametrize(
    "row,rhs,weight",
    [
        ([1.0, 0.0], 0.0, float("nan")),
        ([1.0, 0.0], 0.0, float("inf")),
        ([1.0, 0.0], float("inf"), 1.0),
        ([1.0, 0.0], float("nan"), 1.0),
        ([float("nan"), 1.0], 0.0, 1.0),
        ([float("-inf"), 1.0], 0.0, 1.0),
    ],
)
def test_non_finite_equation_rejected(row, rhs, weight):
    system = EquationSystem(2)
    with pytest.raises(EstimationError, match="finite"):
        system.add(np.array(row), rhs, weight=weight)
    assert len(system) == 0


def test_non_finite_entry_run_rejected():
    system = EquationSystem(3)
    with pytest.raises(EstimationError, match="finite"):
        system.add_sparse_batch(
            np.array([0, 2]), np.array([2]), np.array([-0.1]), values=[1.0, np.inf]
        )
    with pytest.raises(EstimationError, match="finite"):
        system.add_sparse_batch(
            np.array([0, 2]), np.array([2]), np.array([-0.1]), np.array([np.nan])
        )
    with pytest.raises(EstimationError, match="positive"):
        system.add_sparse_batch(
            np.array([0, 2]), np.array([2]), np.array([-0.1]), np.array([-1.0])
        )
    assert len(system) == 0


def _fallback_system():
    """Overdetermined, full rank, with the x <= 0 bound binding."""
    rng = np.random.default_rng(21)
    matrix = (rng.random((40, 6)) < 0.5).astype(float)
    matrix[:6] = np.eye(6)
    rhs = matrix @ np.array([-0.4, -0.1, 0.3, -0.2, 0.2, -0.6])
    rhs += 0.01 * rng.standard_normal(40)
    weights = 0.5 + rng.random(40)
    system = EquationSystem(6)
    system.add_batch(matrix, rhs, weights)
    return system, matrix, rhs, weights


def _failing_nnls(*args, **kwargs):
    raise RuntimeError("Maximum number of iterations reached.")


def test_nnls_fallback_respects_bound_and_matches_lsq_linear(monkeypatch):
    system, matrix, rhs, weights = _fallback_system()
    monkeypatch.setattr(system_module, "nnls", _failing_nnls)
    solution = system.solve(upper_bound=0.0)
    assert (solution.values <= 0.0).all()
    expected = lsq_linear(
        matrix * weights[:, None], rhs * weights, bounds=(-np.inf, 0.0)
    ).x
    assert np.allclose(solution.values, expected, atol=1e-8)
    # The bound really binds: the unconstrained minimiser violates it.
    unbounded = np.linalg.lstsq(matrix * weights[:, None], rhs * weights, rcond=None)
    assert (unbounded[0] > 0.0).any()


def _fallback_count(snapshot):
    for name, _labels, value in snapshot["counters"]:
        if name == "repro_linalg_nnls_fallbacks_total":
            return value
    return 0


def test_nnls_fallback_is_counted_when_metrics_are_on(monkeypatch):
    monkeypatch.setattr(system_module, "nnls", _failing_nnls)
    with obs.use_mode("metrics"), obs.capture_metrics() as captured:
        _fallback_system()[0].solve(upper_bound=0.0)
    assert _fallback_count(captured.snapshot()) == 1
    with obs.use_mode("off"), obs.capture_metrics() as captured:
        _fallback_system()[0].solve(upper_bound=0.0)
    assert _fallback_count(captured.snapshot()) == 0


def test_nnls_success_is_not_counted():
    with obs.use_mode("metrics"), obs.capture_metrics() as captured:
        _fallback_system()[0].solve(upper_bound=0.0)
    assert _fallback_count(captured.snapshot()) == 0


# ----------------------------------------------------------------------
# Solving from a given null-space basis
# ----------------------------------------------------------------------
def _system(rows, rhs, prior_rows=()):
    system = EquationSystem(len(rows[0]))
    for row, value in zip(rows, rhs):
        system.add(np.asarray(row, dtype=float), value)
    for row in prior_rows:
        system.add(np.asarray(row, dtype=float), 0.0, weight=0.5, prior=True)
    return system


def test_basis_solve_removes_extra_row_outside_the_span():
    """The basis covers only the first row; the extra data row lies
    outside its span and must still remove a null direction."""
    chosen = [1.0, 1.0, 0.0, 0.0]
    system = _system([chosen, [0.0, 0.0, 1.0, 0.0]], [-1.0, -2.0])
    basis = null_space(np.array([chosen]))
    solution = system.solve(upper_bound=0.0, null_basis=basis)
    reference = system.solve(upper_bound=0.0)
    assert solution.rank == reference.rank == 2
    assert solution.identifiable.tolist() == [False, False, True, False]
    assert np.array_equal(solution.identifiable, reference.identifiable)
    assert np.array_equal(solution.values, reference.values)
    assert solution.residual == reference.residual


def test_basis_solve_ignores_prior_rows():
    chosen = [1.0, 1.0, 0.0]
    system = _system([chosen], [-1.0], prior_rows=[[0.0, 0.0, 1.0]])
    solution = system.solve(null_basis=null_space(np.array([chosen])))
    assert solution.rank == 1
    assert not solution.identifiable.any()


def test_empty_basis_makes_every_unknown_identifiable(monkeypatch):
    system = _system([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [-1.0, -2.0, -3.0])
    # Nothing is left to classify, so the solve never reaches an SVD.
    monkeypatch.setattr(np.linalg, "svd", None)
    solution = system.solve(upper_bound=0.0, null_basis=np.zeros((2, 0)))
    assert solution.rank == 2
    assert solution.identifiable.all()


def test_basis_with_wrong_row_count_rejected():
    system = _system([[1.0, 0.0]], [-1.0])
    with pytest.raises(EstimationError, match="null_basis has 3 rows"):
        system.solve(null_basis=np.zeros((3, 1)))


def test_basis_solve_agrees_with_full_factorization_on_random_systems():
    """Any basis of a subset of the data rows classifies exactly as the
    full QR + SVD does, and never changes the least-squares values."""
    rng = np.random.default_rng(11)
    for _ in range(40):
        rows = (rng.random((rng.integers(2, 14), 10)) < 0.3).astype(float)
        rows = rows[rows.any(axis=1)]
        if rows.shape[0] == 0:
            continue
        system = _system(rows, -rng.random(rows.shape[0]))
        subset = rows[: rng.integers(0, rows.shape[0] + 1)]
        basis = null_space(subset) if subset.shape[0] else np.eye(10)
        solution = system.solve(upper_bound=0.0, null_basis=basis)
        reference = system.solve(upper_bound=0.0)
        assert solution.rank == reference.rank
        assert np.array_equal(solution.identifiable, reference.identifiable)
        assert np.array_equal(solution.values, reference.values)
