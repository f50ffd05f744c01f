"""Shared numerical linear algebra: ranks, nullspaces, signatures.

One zero rule, ``_nonzero``, decides every rank, nullspace, span and
signature: a singular value or eigenvalue magnitude is nonzero above
``RANK_RTOL`` = 1e-8 times the largest value of its own matrix, floored at
1 as ``residual_scale`` floors residuals.  Structure constants are O(1), so
a derived matrix that is exactly zero is round-off (about 1e-16) in any
orthonormal basis, and reads as zero in every basis.
"""

from __future__ import annotations

import numpy as np

# Singular values at or below RANK_RTOL * max(sigma_max, 1) count as zero.
RANK_RTOL = 1e-8


class ValidationError(ValueError):
    """A numerical check failed: a gate's residual, or non-finite input to an SVD.

    Attributes
    ----------
    residual : float
        Normalized residual of the offending object, or the value that failed
        a positivity check (NaN when it is not finite).
    triple : tuple or None
        Basis triple realizing the worst Jacobi residual, when there is one.
    """

    def __init__(self, message, residual=None, triple=None):
        super().__init__(message)
        self.residual = residual
        self.triple = triple


def require_finite(a: np.ndarray) -> np.ndarray:
    """Return ``a``; raise ``ValidationError`` if an entry is NaN or infinite.

    Guards every SVD, where LAPACK may never return on a non-finite matrix,
    and ``signature``, where LAPACK returns NaN eigenvalues.
    """
    if not np.isfinite(a).all():
        raise ValidationError("matrix has a non-finite entry", residual=np.nan)
    return a


def residual_scale(a: np.ndarray) -> float:
    """Largest magnitude in ``a``, at least 1: the divisor of relative residuals."""
    return max(np.abs(a).max(initial=0.0), 1.0)


def _nonzero(values: np.ndarray, largest) -> np.ndarray:
    """Mask of ``values`` above ``RANK_RTOL * max(largest, 1)``, ``largest`` their matrix's."""
    return values > RANK_RTOL * np.maximum(largest, 1.0)


def matrix_rank(a: np.ndarray):
    """Numerical rank: the count of singular values that ``_nonzero`` keeps.

    A stack ``(..., m, n)`` gives an integer array of ranks from one stacked
    SVD, each matrix with its own cutoff.  An empty matrix, or one whose
    singular values are all at most 1e-8, has rank 0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    s = np.linalg.svd(require_finite(a), compute_uv=False)
    ranks = np.count_nonzero(_nonzero(s, s[..., :1]), axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def nullspace(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace, as columns.

    Parameters
    ----------
    a : (m, n) array
        Matrix whose kernel is sought.  ``m < n`` is allowed.

    Returns
    -------
    (n, k) array with orthonormal columns spanning ``ker a``.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    m, n = a.shape
    if m < n:
        # Pad so the economy SVD exposes the full right-singular basis.
        a = np.vstack([a, np.zeros((n - m, n))])
    _, s, vt = np.linalg.svd(require_finite(a), full_matrices=False)
    return vt[~_nonzero(s, s[:1])].T.copy()


def orthonormal_columns(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors`` (SVD based)."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    u, s, _ = np.linalg.svd(require_finite(v), full_matrices=False)
    return u[:, _nonzero(s, s[:1])].copy()


def signature(sym: np.ndarray) -> tuple[int, int, int]:
    """Eigenvalue signature ``(n_pos, n_neg, n_zero)`` of a symmetric matrix.

    An eigenvalue is zero unless ``_nonzero`` keeps its magnitude.  A matrix
    with ``max|S - S^T| > 1e-10 (1 + max|S|)`` raises ``ValueError``.
    """
    sym = np.asarray(sym, dtype=float)
    if sym.shape[0] != sym.shape[1]:
        raise ValueError("signature expects a square matrix")
    scale = np.abs(require_finite(sym)).max(initial=0.0)
    if np.abs(sym - sym.T).max(initial=0.0) > 1e-10 * (1.0 + scale):
        raise ValueError("signature expects a symmetric matrix")
    eig = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    kept = eig[_nonzero(np.abs(eig), np.abs(eig).max(initial=0.0))]
    n_pos = int(np.count_nonzero(kept > 0))
    return n_pos, kept.size - n_pos, eig.size - kept.size


def projector(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal columns."""
    b = np.atleast_2d(np.asarray(basis, dtype=float))
    return b @ b.T


def subspace_gap(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Mutual projection residual between two orthonormal column bases.

    Zero iff the spans coincide; basis independent.
    """
    if basis_a.shape[1] != basis_b.shape[1]:
        return 1.0
    pa, pb = projector(basis_a), projector(basis_b)
    return float(np.abs(pa - pb).max(initial=0.0))


def random_unit_vector(dim: int, rng: np.random.Generator,
                       count: int | None = None) -> np.ndarray:
    """Gaussian direction on the unit sphere; deterministic given the rng state.

    One draw ``rng.standard_normal((count, dim))`` gives a ``(count, dim)``
    stack of directions: the same stream as ``count`` single draws.  Without
    ``count``, row 0 of a one-row draw.  ``ValueError`` for ``dim < 1``: the
    sphere of R^0 is empty.  ``ValidationError`` for a draw of norm at most
    1e-12, which is not drawn again: a second draw would shift the stream.
    """
    if dim < 1:
        raise ValueError(f"no unit vector in dimension {dim}")
    v = rng.standard_normal((1 if count is None else count, dim))
    n = np.linalg.norm(v, axis=1, keepdims=True)
    if not np.all(n > 1e-12):
        raise ValidationError("a Gaussian draw has no direction", residual=float(np.min(n)))
    v /= n
    return v[0] if count is None else v
