"""Shared numerical linear algebra: ranks, nullspaces, signatures.

Every cutoff in the package is expressed relative to the largest singular
value (or eigenvalue magnitude) of the matrix at hand.  Structure constants
are all O(1), so the gap between "exactly zero in exact arithmetic" and a
genuinely nonzero value is many orders of magnitude wider than the relative
cutoff ``RANK_RTOL`` = 1e-8, which is a property of the method and not a
choice of the caller.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.
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


def matrix_rank(a: np.ndarray):
    """Numerical rank with a cutoff relative to the largest singular value.

    A stack ``(..., m, n)`` gives an integer array of ranks from one stacked
    SVD, each matrix with its own cutoff.  An all-zero or empty matrix has
    rank 0.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if 0 in a.shape[-2:]:
        ranks = np.zeros(a.shape[:-2], dtype=int)
    else:
        s = np.linalg.svd(require_finite(a), compute_uv=False)
        ranks = np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1)
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
    if m == 0 or not np.any(a):
        return np.eye(n)
    if m < n:
        # Pad so the economy SVD exposes the full right-singular basis.
        a = np.vstack([a, np.zeros((n - m, n))])
    # a finite nonzero matrix has s[0] > 0
    _, s, vt = np.linalg.svd(require_finite(a), full_matrices=False)
    return vt[s <= RANK_RTOL * s[0]].T.copy()


def orthonormal_columns(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors`` (SVD based)."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.shape[1] == 0 or not np.any(v):
        return np.zeros((v.shape[0], 0))
    u, s, _ = np.linalg.svd(require_finite(v), full_matrices=False)
    return u[:, s > RANK_RTOL * s[0]].copy()


def signature(sym: np.ndarray) -> tuple[int, int, int]:
    """Eigenvalue signature ``(n_pos, n_neg, n_zero)`` of a symmetric matrix.

    Eigenvalues with ``|eig| <= RANK_RTOL * max|eig|`` count as zero.
    """
    sym = np.asarray(sym, dtype=float)
    if sym.shape[0] != sym.shape[1]:
        raise ValueError("signature expects a square matrix")
    require_finite(sym)
    if not np.allclose(sym, sym.T, atol=1e-10 * (1.0 + np.abs(sym).max(initial=0.0))):
        raise ValueError("signature expects a symmetric matrix")
    eig = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    tol = RANK_RTOL * np.abs(eig).max(initial=0.0)
    n_pos = int(np.count_nonzero(eig > tol))
    n_neg = int(np.count_nonzero(eig < -tol))
    return n_pos, n_neg, eig.size - n_pos - n_neg


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
    if basis_a.shape[1] == 0:
        return 0.0
    pa, pb = projector(basis_a), projector(basis_b)
    return float(np.abs(pa - pb).max())


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
