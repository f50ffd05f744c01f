"""Curvature of invariant metrics and of (degenerate) warped products.

Invariant metrics on a reductive space g = k + m are handled through the
connection map

    L(X) Y = (1/2) [X, Y]_m + U(X, Y),
    2 <U(X, Y), Z> = <[Z, X]_m, Y> + <X, [Z, Y]_m>,

whose curvature is

    R(X, Y) Z = [L(X), L(Y)] Z - L([X, Y]_m) Z - ad([X, Y]_k) Z.

The (0,4) tensor convention is R4[a,b,c,d] = <R(b_a, b_b) b_c, b_d>, with the
sign fixed so the unit round sphere has sectional curvature +1.

Warped products dt^2 + f(t)^2 g_F combine the profile with the fiber tensor
in closed form; an independent finite-difference oracle evaluates the same
curvature from central differences of the metric components in a normal-like
chart (second-order fiber expansion), and the two paths are compared in the
test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import ValidationError, residual_scale
from .spaces import ReductiveSpace

__all__ = [
    "FD_STEP",
    "InvariantMetricSpace",
    "Profile",
    "WarpedProduct",
    "curvature_symmetry_residual",
    "curvature_tensor",
    "riemann_finite_difference",
    "sectional_curvature",
    "warped_curvature_fd",
    "warped_sectional_curvature",
]

FD_STEP = 1e-4


# ---------------------------------------------------------------------------
# invariant metrics on reductive spaces
# ---------------------------------------------------------------------------


@dataclass(eq=False, frozen=True)
class InvariantMetricSpace:
    """Reductive space with one positive scale per complement block."""

    space: ReductiveSpace
    block_scales: tuple[float, ...] | None = None

    def __post_init__(self):
        nb = len(self.space.blocks)
        scales = (1.0,) * nb if self.block_scales is None else self.block_scales
        object.__setattr__(self, "block_scales", tuple(float(s) for s in scales))
        if len(self.block_scales) != nb:
            raise ValueError("one positive scale per block is required")
        for s in self.block_scales:
            if not 0 < s < np.inf:
                raise ValidationError("block scales must be positive and finite", residual=s)

    @property
    def m_dim(self) -> int:
        return self.space.m_dim

    def metric(self) -> np.ndarray:
        return np.diag(np.repeat(self.block_scales, [b.dim for b in self.space.blocks]))


def curvature_tensor(ms: InvariantMetricSpace) -> np.ndarray:
    """(0,4) curvature tensor of the invariant metric on the complement.

    Satisfies the pair symmetry, both antisymmetries and the first Bianchi
    identity up to round-off; validated against closed forms on spheres,
    solvable hyperbolic models, and flat presentations.
    """
    dk = ms.space.isotropy.dim
    mm = ms.space.brackets(slice(dk, None), slice(dk, None))   # [m_i, m_j] in the frame
    bm, bk, rho = mm[..., dk:], mm[..., :dk], ms.space.rep.matrices   # rho[a][j, i]
    q = ms.metric()
    qinv = np.linalg.inv(q)
    n, k = bm.shape[0], rho.shape[0]
    # 2 <U(x_i, x_j), z> = <[z, i]_m, j> + <i, [z, j]_m>; p[z, i, j] = <[z, i]_m, j>
    p = bm @ q
    u = 0.5 * ((p + p.transpose(0, 2, 1)).transpose(1, 2, 0) @ qinv.T)
    lam = 0.5 * bm + u                                  # lam[i, j, :] = L(b_i) b_j
    # t1[i, j] = lam[j] @ lam[i], from one product; t2[i, j] = t1[j, i]
    t1 = lam.reshape(n * n, n) @ lam.transpose(1, 0, 2).reshape(n, n * n)
    t1 = t1.reshape(n, n, n, n).transpose(2, 0, 1, 3)
    t2 = t1.transpose(1, 0, 2, 3)
    t3 = (bm.reshape(n * n, n) @ lam.reshape(n, n * n)).reshape(n, n, n, n)
    t4 = (bk.reshape(n * n, k) @ rho.transpose(0, 2, 1).reshape(k, n * n)).reshape(n, n, n, n)
    return (t1 - t2 - t3 - t4) @ q


def curvature_symmetry_residual(r4: np.ndarray) -> float:
    """Worst violation among pair symmetry, antisymmetries and first Bianchi."""
    scale = residual_scale(r4)
    res = max(
        np.abs(r4 + r4.transpose(1, 0, 2, 3)).max(initial=0.0),
        np.abs(r4 + r4.transpose(0, 1, 3, 2)).max(initial=0.0),
        np.abs(r4 - r4.transpose(2, 3, 0, 1)).max(initial=0.0),
        np.abs(r4 + r4.transpose(1, 2, 0, 3) + r4.transpose(2, 0, 1, 3)).max(initial=0.0),
    )
    return float(res / scale)


def _plane_value(value, area2):
    """``value / area2`` per plane, a float for one plane; every area must be at least 1e-12.

    The gate fails closed: a NaN area fails it, and the error names the
    smallest area of the stack (NaN if any is NaN).
    """
    if not np.all(area2 >= 1e-12):
        raise ValidationError("degenerate plane", residual=float(np.min(area2)))
    out = value / area2
    return float(out) if out.ndim == 0 else out


def sectional_curvature(r4: np.ndarray, g: np.ndarray, x, y):
    """R4(x, y, y, x) over the squared area of the plane span{x, y} in the metric ``g``.

    ``x`` and ``y`` may be stacks ``(..., n)`` of planes, and ``r4`` and ``g``
    stacks ``(..., n, n, n, n)`` and ``(..., n, n)`` with one tensor per
    plane; the stack axes lead and broadcast.  One plane gives a float, a
    stack an array.  ``r4`` enters as an ``(n*n, n*n)`` matrix between the
    products ``x_i y_j`` and ``y_k x_l``, one matrix product for the stack.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.shape[-1]
    outer = x[..., :, None] * y[..., None, :]           # x_i y_j, and y_k x_l transposed
    xy = outer.reshape(outer.shape[:-2] + (n * n,))
    yx = np.swapaxes(outer, -1, -2).reshape(xy.shape)
    r = np.reshape(r4, np.shape(r4)[:-4] + (n * n, n * n))
    val = (np.matmul(xy[..., None, :], r)[..., 0, :] * yx).sum(-1)
    gxy = partial(np.einsum, "...i,...ij,...j->...")
    area2 = gxy(x, g, x) * gxy(y, g, y) - gxy(x, g, y) ** 2
    return _plane_value(val, area2)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Warping function with two derivatives: ``exp(a)``, ``sin()`` or ``poly(c0, c1, ...)``.

    A constant profile c is ``poly(c)``.
    """

    f: callable
    df: callable
    ddf: callable

    @classmethod
    def exp(cls, a: float) -> "Profile":
        """t -> exp(a t)."""
        return cls(lambda t: np.exp(a * t), lambda t: a * np.exp(a * t),
                   lambda t: a * a * np.exp(a * t))

    @classmethod
    def sin(cls) -> "Profile":
        return cls(np.sin, np.cos, lambda t: -np.sin(t))

    @classmethod
    def poly(cls, *coeffs: float) -> "Profile":
        """t -> c0 + c1 t + c2 t^2 + ...

        ``np.polyval``, not ``numpy.polynomial``: the claims build their
        profiles at import, and importing that package costs every process.
        The coefficient arrays are read-only, so a shared profile stays as built.
        """
        if not coeffs:
            raise ValueError("a polynomial profile needs at least one coefficient")
        a = np.array(coeffs, dtype=float)[::-1]
        derivatives = [np.polyder(a, k) for k in (0, 1, 2)]
        for d in derivatives:
            d.setflags(write=False)
        return cls(*(partial(np.polyval, d) for d in derivatives))


# ---------------------------------------------------------------------------
# warped products
# ---------------------------------------------------------------------------


def _sphere_r4(d: int) -> np.ndarray:
    """(0,4) curvature of the unit round sphere S^d in an orthonormal frame."""
    delta = np.eye(d)
    return (np.einsum("bc,ad->abcd", delta, delta)
            - np.einsum("ac,bd->abcd", delta, delta))


@dataclass(frozen=True)
class WarpedProduct:
    """Interval warped over the unit round sphere S^fiber_dim: dt^2 + f(t)^2 g_S.

    ``interval`` is ``("line",)`` or ``("segment", L)``; it fixes where
    ``interior_samples`` lie.  The curvature is evaluated only
    where the profile is positive.
    """

    interval: tuple
    profile: Profile
    fiber_dim: int   # a positive integer

    def __post_init__(self):
        object.__setattr__(self, "interval", tuple(self.interval))
        d = self.fiber_dim
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
            raise ValueError(f"fiber_dim must be a positive integer, got {d!r}")
        if self.interval[0] not in ("line", "segment"):
            raise ValueError("interval kind must be line or segment")
        if self.interval[0] == "segment":
            if len(self.interval) < 2:
                raise ValueError("segment needs a positive length")
            if not 0 < self.interval[1] < np.inf:
                raise ValidationError("segment needs a positive finite length",
                                      residual=float(self.interval[1]))

    def interior_samples(self, count: int) -> np.ndarray:
        if self.interval[0] == "line":
            return np.linspace(-3.0, 3.0, count)
        hi = self.interval[1]
        return np.linspace(hi / (count + 1), hi * (1 - 1.0 / (count + 1)), count)


def warped_sectional_curvature(w: WarpedProduct, t, v, u):
    """Closed-form sectional curvature at parameter t of the plane span{v, u}.

    ``v = (a, x)`` stands for a d/dt + x, with the fiber part x in the
    fiber's orthonormal frame, and so does ``u = (b, y)``.  Mixed planes
    span{d/dt, x} see -f''/f, fiber planes (K_F - f'^2) / f^2 with K_F = 1,
    and any other plane mixes the two with no cross term.  ``v`` and ``u``
    may be stacks ``(..., 1 + fiber_dim)`` of planes and ``t`` a stack of
    parameters, one per plane; one plane gives a float, a stack an array.
    Every t must be interior (f > 0).
    """
    t = np.asarray(t, dtype=float)
    f, df, ddf = (w.profile.f(t), w.profile.df(t), w.profile.ddf(t))
    if not np.all(f > 0):
        raise ValidationError("t must be an interior point (f > 0)", residual=float(np.min(f)))
    v, u = np.asarray(v, dtype=float), np.asarray(u, dtype=float)
    a, x, b, y = v[..., :1], v[..., 1:], u[..., :1], u[..., 1:]
    dot = partial(np.einsum, "...i,...i->...")
    z = a * y - b * x
    xx, yy, xy = dot(x, x), dot(y, y), dot(x, y)
    # the unit sphere's R(x, y, y, x) is the Gram determinant xx yy - xy^2
    num = -ddf * f * dot(z, z) + f * f * (1.0 - df * df) * (xx * yy - xy ** 2)
    a, b = a[..., 0], b[..., 0]
    area2 = (a * a + f * f * xx) * (b * b + f * f * yy) - (a * b + f * f * xy) ** 2
    return _plane_value(num, area2)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def riemann_finite_difference(metric_fn, dim: int) -> np.ndarray:
    """(0,4) curvature of an explicit coordinate metric at the origin, by central differences.

    ``metric_fn`` is batched: it maps points of shape ``(n, dim)`` to metric
    components of shape ``(n, dim, dim)``, and is called once, on the whole
    stencil.  Independent of every closed-form path above: Christoffel
    symbols come from first differences of the metric, their derivatives
    from a second differencing with the same step ``FD_STEP``, so the
    truncation error is O(FD_STEP^2).
    """
    h = FD_STEP
    # offsets 0, +h e_k, -h e_k; the Christoffel symbols are taken at every
    # offset from the origin and need the metric at every offset from there
    steps = np.vstack([np.zeros(dim), h * np.eye(dim), -h * np.eye(dim)])
    g = metric_fn((steps[:, None, :] + steps[None, :, :]).reshape(-1, dim))
    g = g.reshape(2 * dim + 1, 2 * dim + 1, dim, dim)
    dg = (g[:, 1:dim + 1] - g[:, dim + 1:]) / (2 * h)   # dg[p, k] = d_k g at point p
    # t[p, l, j, k] = d_j g_{lk} + d_k g_{jl} - d_l g_{jk}
    t = dg.transpose(0, 2, 1, 3) + dg.transpose(0, 3, 2, 1) - dg
    gam = 0.5 * np.einsum("pil,pljk->pijk", np.linalg.inv(g[:, 0]), t)
    gam0 = gam[0]
    dgam = (gam[1:dim + 1] - gam[dim + 1:]) / (2 * h)   # dgam[a] = d_a Gamma
    # R(d_a, d_b) d_c = r_up[m, a, b, c] d_m
    quad = np.einsum("mae,ebc->mabc", gam0, gam0)
    r_up = (dgam.transpose(1, 0, 2, 3) - dgam.transpose(1, 2, 0, 3)
            + quad - quad.transpose(0, 2, 1, 3))
    return np.einsum("mabc,md->abcd", r_up, g[0, 0])


def _warped_chart_metric(w: WarpedProduct, t: float):
    """Batched coordinate metric (t-offset, fiber normal coordinates) around a point."""
    d = w.fiber_dim
    r4f = _sphere_r4(d)
    f = w.profile.f

    def metric_fn(x):
        g = np.zeros((x.shape[0], 1 + d, 1 + d))
        g[:, 0, 0] = 1.0
        y = x[:, 1:]
        gf = np.eye(d) + np.einsum("ikjl,nk,nl->nij", r4f, y, y) / 3.0
        g[:, 1:, 1:] = (f(t + x[:, 0]) ** 2)[:, None, None] * gf
        return g

    return metric_fn


def warped_curvature_fd(w: WarpedProduct, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Finite-difference (0,4) curvature and metric at parameter t, as ``(r4, g0)``.

    Both are read in the chart whose coordinates at its origin are the plane
    vectors of ``warped_sectional_curvature``, so ``sectional_curvature(r4,
    g0, v, u)`` is the oracle's value of the same sectional curvature.
    """
    d = w.fiber_dim
    metric_fn = _warped_chart_metric(w, t)
    return riemann_finite_difference(metric_fn, 1 + d), metric_fn(np.zeros((1, 1 + d)))[0]
