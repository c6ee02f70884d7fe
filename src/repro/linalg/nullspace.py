"""Null spaces and the incremental update of Algorithm 2.

Algorithm 1 maintains a matrix ``N`` whose columns span the null space of the
growing system matrix ``R``. Each time a row ``r`` with ``||r N|| > 0`` is
appended to ``R``, Algorithm 2 shrinks the null space by one dimension. The
paper writes the update in pivot form,

    N' = (I_n - (N_p r) / (r N_p)) N_rest

where ``N_p`` is a pivot column of ``N`` with ``r N_p != 0`` and ``N_rest``
the remaining columns: every ``n'_k = n_k - N_p (r n_k) / (r N_p)`` satisfies
``r n'_k = 0`` while staying in the old null space.

:func:`null_space_update` uses the Householder form instead. With
``v = N' r`` and ``j`` its largest-magnitude coordinate, the reflection
``H = I_p - 2 u u' / (u' u)``, ``u = v + sign(v_j) ||v|| e_j``, maps ``v``
onto ``-sign(v_j) ||v|| e_j``. So ``r`` is orthogonal to every column of
``N H`` except column ``j``, and dropping that column leaves

    N' = (N - (2 / u'u) (N u) u')  without column j.

Both forms span the same subspace (the old null space intersected with
``r``'s orthogonal complement). The Householder basis is orthonormal by
construction, because ``H`` is orthogonal, so it never needs
re-orthonormalising, and each update costs O(n p) with no LAPACK call. The
pivot form loses orthogonality over many updates and needs an O(n p^2) QR
per admitted row to recover it. An orthonormal basis is also what lets
:meth:`repro.linalg.system.EquationSystem.solve` classify identifiability
from Algorithm 1's final basis without re-deriving it.
"""

from __future__ import annotations


import numpy as np

#: Default numerical tolerance for rank decisions.
DEFAULT_TOL = 1e-9


def null_space(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Return an orthonormal basis of the null space of ``matrix``.

    The result has shape (num_columns, nullity); an empty second dimension
    means the matrix has full column rank.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0 or matrix.shape[0] == 0:
        return np.eye(matrix.shape[1])
    _, singular_values, vt = np.linalg.svd(matrix, full_matrices=True)
    cutoff = tol * max(matrix.shape)
    num_nonzero = int((singular_values > cutoff * singular_values.max()).sum()) if (
        singular_values.size and singular_values.max() > 0
    ) else 0
    return vt[num_nonzero:].T.copy()


def rank(matrix: np.ndarray, tol: float = DEFAULT_TOL) -> int:
    """Numerical rank of ``matrix`` (0 for empty matrices)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    if matrix.size == 0:
        return 0
    return int(np.linalg.matrix_rank(matrix, tol=None))


def rank_increases(
    null_basis: np.ndarray, row: np.ndarray, tol: float = DEFAULT_TOL
) -> bool:
    """Whether appending ``row`` to the system increases its rank.

    Equivalent to the paper's test ``||r x N|| > 0`` (Algorithm 1 line 13):
    ``row`` adds rank iff it is not orthogonal to the current null space.
    """
    if null_basis.shape[1] == 0:
        return False
    projection = np.asarray(row, dtype=float) @ null_basis
    return bool(np.linalg.norm(projection) > tol)


def null_space_update(
    null_basis: np.ndarray, row: np.ndarray, tol: float = DEFAULT_TOL
) -> np.ndarray:
    """Algorithm 2: shrink ``null_basis`` by the constraint ``row``.

    Parameters
    ----------
    null_basis:
        Matrix N of shape (n, p) with orthonormal columns spanning the
        current null space.
    row:
        The newly-added equation row ``r`` (length n). If ``||r N|| <= tol``
        the row adds no rank and N is returned unchanged — the same norm
        test Algorithm 1 admits rows with (:func:`rank_increases`), so
        every admitted row removes exactly one direction.

    Returns
    -------
    numpy.ndarray
        A (n, p-1) matrix with orthonormal columns spanning the null space
        of the system extended with ``row``: one Householder reflection
        maps ``v = N' r`` onto its largest coordinate ``j``, and column
        ``j`` of the reflected basis is dropped. O(n p), no factorization.
    """
    row = np.asarray(row, dtype=float).reshape(-1)
    if null_basis.shape[1] == 0:
        return null_basis
    projection = row @ null_basis
    norm = float(np.linalg.norm(projection))
    if norm <= tol:
        return null_basis
    pivot = int(np.argmax(np.abs(projection)))
    # u = v + sign(v_j) ||v|| e_j, so H = I - 2 u u' / u'u sends v to a
    # multiple of e_j: r is orthogonal to every reflected column but j.
    reflector = projection
    reflector[pivot] += np.copysign(norm, reflector[pivot])
    # Column j of N H is dropped, so only the other columns are formed:
    # N H = N - (2 / u'u) (N u) u'.
    scale = 2.0 / float(reflector @ reflector)
    image = null_basis @ (scale * reflector)
    rest = np.delete(null_basis, pivot, axis=1)
    rest -= np.outer(image, np.delete(reflector, pivot))
    return rest
