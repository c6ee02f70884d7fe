"""Tests for null spaces and the Algorithm 2 incremental update."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.linalg.nullspace import (
    DEFAULT_TOL,
    null_space,
    null_space_update,
    rank,
    rank_increases,
)


def test_null_space_of_full_rank():
    basis = null_space(np.eye(3))
    assert basis.shape == (3, 0)


def test_null_space_of_zero_matrix():
    basis = null_space(np.zeros((2, 3)))
    assert basis.shape == (3, 3)


def test_null_space_orthogonal_to_rows():
    matrix = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]])
    basis = null_space(matrix)
    assert basis.shape == (3, 1)
    assert np.allclose(matrix @ basis, 0.0, atol=1e-9)


def test_null_space_empty_rows():
    basis = null_space(np.zeros((0, 4)))
    assert basis.shape == (4, 4)


def test_rank():
    assert rank(np.eye(3)) == 3
    assert rank(np.zeros((3, 3))) == 0
    assert rank(np.array([[1.0, 2.0], [2.0, 4.0]])) == 1


def test_rank_increases_detects_new_direction():
    matrix = np.array([[1.0, 0.0, 0.0]])
    basis = null_space(matrix)
    assert rank_increases(basis, np.array([0.0, 1.0, 0.0]))
    assert not rank_increases(basis, np.array([5.0, 0.0, 0.0]))


def test_rank_increases_empty_null_space():
    basis = null_space(np.eye(2))
    assert not rank_increases(basis, np.array([1.0, 1.0]))


def test_update_matches_recompute_simple():
    matrix = np.array([[1.0, 1.0, 0.0, 0.0]])
    basis = null_space(matrix)
    row = np.array([0.0, 0.0, 1.0, 1.0])
    updated = null_space_update(basis, row)
    recomputed = null_space(np.vstack([matrix, row]))
    assert updated.shape == recomputed.shape
    # Same subspace: each updated column lies in the recomputed span.
    projector = recomputed @ recomputed.T
    assert np.allclose(projector @ updated, updated, atol=1e-8)


def test_update_no_op_for_dependent_row():
    matrix = np.array([[1.0, 0.0, 0.0]])
    basis = null_space(matrix)
    updated = null_space_update(basis, np.array([2.0, 0.0, 0.0]))
    assert updated.shape == basis.shape


def test_update_empty_basis():
    basis = np.zeros((3, 0))
    updated = null_space_update(basis, np.array([1.0, 0.0, 0.0]))
    assert updated.shape == (3, 0)


@settings(max_examples=60, deadline=None)
@given(
    matrix=arrays(
        np.float64,
        (4, 6),
        elements=st.sampled_from([0.0, 1.0]),
    ),
    row=arrays(
        np.float64,
        (6,),
        elements=st.sampled_from([0.0, 1.0]),
    ),
)
def test_update_equals_recompute_property(matrix, row):
    """Algorithm 2 invariant: the incrementally-updated null space spans
    exactly the null space of the extended matrix (when the row adds rank)."""
    basis = null_space(matrix)
    if not rank_increases(basis, row):
        return
    updated = null_space_update(basis, row)
    recomputed = null_space(np.vstack([matrix, row]))
    assert updated.shape[1] == recomputed.shape[1] == basis.shape[1] - 1
    extended = np.vstack([matrix, row])
    assert np.allclose(extended @ updated, 0.0, atol=1e-7)


@settings(max_examples=40, deadline=None)
@given(matrix=arrays( np.float64, (5, 5), elements=st.sampled_from([0.0, 1.0]), ))
def test_null_space_columns_orthonormal(matrix):
    basis = null_space(matrix)
    if basis.shape[1]:
        gram = basis.T @ basis
        assert np.allclose(gram, np.eye(basis.shape[1]), atol=1e-8)


# ----------------------------------------------------------------------
# Householder downdate
# ----------------------------------------------------------------------
def _forbid_factorizations(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("null_space_update must not factorize")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    monkeypatch.setattr(np.linalg, "svd", forbidden)


def test_update_makes_no_factorization_calls(monkeypatch):
    rng = np.random.default_rng(1)
    basis = null_space(rng.standard_normal((5, 12)))
    _forbid_factorizations(monkeypatch)
    for _ in range(basis.shape[1]):
        basis = null_space_update(basis, rng.standard_normal(12))
    assert basis.shape == (12, 0)


@pytest.mark.parametrize("binary", [False, True])
def test_chained_downdates_stay_orthonormal_and_exact(binary):
    """200+ chained updates: orthonormal to 1e-12, annihilate every
    admitted row to 1e-10 of the system's norm, one column per row.

    Rejection is monotone, which lets Algorithm 1's rank scan test each
    candidate once per fit: a row with ``||r N|| <= tol`` under one basis
    still has it after every later update."""
    rng = np.random.default_rng(7)
    mixing = np.random.default_rng(11)
    num_unknowns = 240
    basis = np.eye(num_unknowns)
    admitted = []
    rejected = []
    while len(admitted) < 220:
        if binary:
            row = (rng.random(num_unknowns) < 0.1).astype(float)
        else:
            row = rng.standard_normal(num_unknowns)
        updated = null_space_update(basis, row)
        if rank_increases(basis, row):
            assert updated.shape[1] == basis.shape[1] - 1
            admitted.append(row)
        else:
            assert updated is basis
            rejected.append(row)
        basis = updated
        # A row in the span of the admitted ones is rejected now ...
        first, second = mixing.integers(len(admitted), size=2)
        combination = admitted[first] + admitted[second]
        assert not rank_increases(basis, combination)
        rejected.append(combination)
        # ... and every row rejected so far stays rejected.
        gains = np.linalg.norm(np.vstack(rejected) @ basis, axis=1)
        assert gains.max() <= DEFAULT_TOL
    system = np.vstack(admitted)
    gram = basis.T @ basis
    assert np.linalg.norm(gram - np.eye(basis.shape[1])) <= 1e-12
    assert np.linalg.norm(system @ basis) <= 1e-10 * np.linalg.norm(system)


def test_update_keeps_zero_rows_exactly_zero():
    """SortByHammingWeight counts nonzeros per basis row, so a row that
    is exactly zero (an unknown already pinned down) must stay so."""
    rng = np.random.default_rng(3)
    basis = np.linalg.qr(rng.standard_normal((10, 6)))[0]
    basis[[2, 7]] = 0.0
    for _ in range(4):
        basis = null_space_update(basis, rng.standard_normal(10))
    assert basis.shape == (10, 2)
    assert np.all(basis[[2, 7]] == 0.0)


def test_update_of_single_column_empties_basis():
    basis = np.array([[0.6], [0.8], [0.0]])
    updated = null_space_update(basis, np.array([1.0, 0.0, 0.0]))
    assert updated.shape == (3, 0)


def test_update_uses_the_norm_test_of_algorithm_1():
    """A row Algorithm 1 admits (``||r N|| > tol``) removes a direction
    even when no single coordinate of ``r N`` exceeds ``tol``."""
    basis = np.eye(4)
    row = np.full(4, 0.8 * DEFAULT_TOL)
    assert rank_increases(basis, row)
    updated = null_space_update(basis, row)
    assert updated.shape == (4, 3)
    assert np.allclose(updated.T @ updated, np.eye(3), atol=1e-12)
    assert np.abs(row @ updated).max() <= 1e-24
