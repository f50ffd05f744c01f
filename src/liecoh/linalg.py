"""Shared numerical linear algebra: ranks, nullspaces, signatures.

Every cutoff in the package is expressed relative to the largest singular
value (or eigenvalue magnitude) of the matrix at hand.  Structure constants
are all O(1), so the gap between "exactly zero in exact arithmetic" and a
genuinely nonzero value is many orders of magnitude wider than the default
relative cutoff of 1e-8.
"""

from __future__ import annotations

import numpy as np

# Singular values below RANK_RTOL * sigma_max count as zero.
RANK_RTOL = 1e-8


def residual_scale(a: np.ndarray) -> float:
    """Largest magnitude in ``a``, at least 1: the divisor of relative residuals."""
    return max(np.abs(a).max(initial=0.0), 1.0)


def matrix_rank(a: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Numerical rank with a cutoff relative to the largest singular value."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def nullspace(a: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the (right) nullspace, as columns.

    Parameters
    ----------
    a : (m, n) array
        Matrix whose kernel is sought.  ``m < n`` is allowed.
    rtol : float
        Relative singular value cutoff.

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
    _, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = rtol * s[0] if s[0] > 0 else 0.0
    return vt[s <= cutoff].T.copy() if s[0] > 0 else np.eye(n)


def orthonormal_columns(vectors: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis for the column span of ``vectors`` (SVD based)."""
    v = np.atleast_2d(np.asarray(vectors, dtype=float))
    if v.shape[1] == 0 or not np.any(v):
        return np.zeros((v.shape[0], 0))
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    return u[:, s > rtol * s[0]].copy()


def solve_least_squares(a: np.ndarray, b: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a x = b`` via SVD."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros(a.shape[1] if b.ndim == 1 else (a.shape[1],) + b.shape[1:])
    inv = np.where(s > rtol * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return vt.T @ (inv[:, None] * (u.T @ b) if b.ndim > 1 else inv * (u.T @ b))


def signature(sym: np.ndarray, tol: float | None = None) -> tuple[int, int, int]:
    """Eigenvalue signature ``(n_pos, n_neg, n_zero)`` of a symmetric matrix.

    Eigenvalues with ``|eig| <= tol`` count as zero.  When ``tol`` is None a
    relative cutoff ``RANK_RTOL * max|eig|`` is used.
    """
    sym = np.asarray(sym, dtype=float)
    if sym.shape[0] != sym.shape[1]:
        raise ValueError("signature expects a square matrix")
    if not np.allclose(sym, sym.T, atol=1e-10 * (1.0 + np.abs(sym).max(initial=0.0))):
        raise ValueError("signature expects a symmetric matrix")
    eig = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    if tol is None:
        scale = np.abs(eig).max(initial=0.0)
        tol = RANK_RTOL * scale if scale > 0 else 0.0
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


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Gaussian direction on the unit sphere; deterministic given the rng state."""
    while True:
        v = rng.standard_normal(dim)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n
