"""Frozen QR-re-orthonormalising Algorithm 2: the oracle for the downdate.

:func:`repro.linalg.nullspace.null_space_update` shrinks the null-space
basis with one Householder reflection per admitted row. Before that, it
applied the paper's pivot-form rank-one update and then re-orthonormalised
the whole basis with a QR, which costs O(n p^2) per row. That update
survives here, frozen, as the executable specification the Householder
downdate is compared against: both must span the same subspace, and a
Correlation-complete fit through this update with the solve re-deriving
the null space must agree with the production fit to the numerical
contract of ``tests/probability/test_downdate_contract.py``.

Do not "improve" this file: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.linalg.nullspace import DEFAULT_TOL


def null_space_update(
    null_basis: np.ndarray, row: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Algorithm 2: shrink ``null_basis`` by the constraint ``row``.

    Parameters
    ----------
    null_basis:
        Matrix N of shape (n, p) whose columns span the current null space.
    row:
        The newly-added equation row ``r`` (length n). If ``r`` is
        orthogonal to the null space (adds no rank), N is returned
        unchanged — this mirrors Algorithm 1, which only calls the update
        after the ``||r N|| > 0`` test succeeds (the ``r = 0`` no-op case).

    Returns
    -------
    numpy.ndarray
        A (n, p-1) matrix whose columns span the null space of the system
        extended with ``row``. Columns are re-orthonormalised to keep
        repeated updates numerically stable.
    """
    row = np.asarray(row, dtype=float).reshape(-1)
    if null_basis.shape[1] == 0:
        return null_basis
    projection = row @ null_basis
    pivot = int(np.argmax(np.abs(projection)))
    if abs(projection[pivot]) <= tol:
        return null_basis
    pivot_column = null_basis[:, pivot : pivot + 1]
    rest = np.delete(null_basis, pivot, axis=1)
    if rest.shape[1] == 0:
        return rest
    updated = rest - pivot_column @ ((row @ rest)[None, :] / projection[pivot])
    # Re-orthonormalise: repeated rank-one updates degrade conditioning.
    q, r_factor = np.linalg.qr(updated)
    keep = np.abs(np.diag(r_factor)) > tol
    return q[:, keep]
