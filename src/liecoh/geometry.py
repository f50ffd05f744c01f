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

import csv
import re
from dataclasses import dataclass, field

import numpy as np

from .algebra import LieAlgebra, Subspace
from .clifford import bivector_pairs, so_structure_tensor
from .linalg import residual_scale
from .reps import Representation, cohomogeneity, rep_direct_sum, trivial_representation
from .spaces import ReductiveSpace, _isotropy_action, isotropy_representation

__all__ = [
    "FD_STEP",
    "InhomogeneousReport",
    "InvariantMetricSpace",
    "Profile",
    "ReductiveFiber",
    "RoundSphere",
    "WarpedProduct",
    "curvature_symmetry_residual",
    "curvature_tensor",
    "riemann_finite_difference",
    "sectional_curvature",
    "sphere_space",
    "validate_inhomogeneous",
    "warped_sectional_curvature",
    "warped_sectional_fd",
]

FD_STEP = 1e-4


# ---------------------------------------------------------------------------
# invariant metrics on reductive spaces
# ---------------------------------------------------------------------------


@dataclass
class InvariantMetricSpace:
    """Reductive space with one positive scale per complement block."""

    space: ReductiveSpace
    block_scales: tuple[float, ...] | None = None

    def __post_init__(self):
        nb = len(self.space.blocks)
        if self.block_scales is None:
            self.block_scales = (1.0,) * nb
        self.block_scales = tuple(float(s) for s in self.block_scales)
        if len(self.block_scales) != nb or any(s <= 0 for s in self.block_scales):
            raise ValueError("one positive scale per block is required")

    @property
    def m_dim(self) -> int:
        return self.space.m_dim

    def metric(self) -> np.ndarray:
        parts = [s * np.eye(b.dim) for s, b in zip(self.block_scales, self.space.blocks)]
        out = np.zeros((self.m_dim, self.m_dim))
        at = 0
        for p in parts:
            k = p.shape[0]
            out[at:at + k, at:at + k] = p
            at += k
        return out

    def invariance_residual(self) -> float:
        rep, _ = isotropy_representation(self.space)
        q = self.metric()
        t = np.einsum("ij,ajk->aik", q, rep.matrices)
        return float(np.abs(t + t.transpose(0, 2, 1)).max(initial=0.0))


def _connection_data(ms: InvariantMetricSpace):
    """Brackets of the m-basis split into m- and k-parts, plus k-action."""
    space = ms.space
    alg = space.algebra
    kb = space.isotropy.basis
    mb = space.m_basis()
    amb = np.einsum("pi,qj,pql->ijl", mb, mb, alg.c)   # [m_i, m_j] ambient
    bm = np.einsum("ijl,lm->ijm", amb, mb)             # m-part coordinates
    bk = np.einsum("ijl,lk->ijk", amb, kb)
    _, rho = _isotropy_action(alg, kb, mb)              # rho[a][j, i]
    return bm, bk, rho


def curvature_tensor(ms: InvariantMetricSpace) -> np.ndarray:
    """(0,4) curvature tensor of the invariant metric on the complement.

    Satisfies the pair symmetry, both antisymmetries and the first Bianchi
    identity up to round-off; validated against closed forms on spheres,
    solvable hyperbolic models, and flat presentations.
    """
    bm, bk, rho = _connection_data(ms)
    q = ms.metric()
    qinv = np.linalg.inv(q)
    # 2 <U(x_i, x_j), z> = <[z, i]_m, j> + <i, [z, j]_m>
    w = np.einsum("zim,mj->ijz", bm, q) + np.einsum("zjm,mi->ijz", bm, q)
    u = 0.5 * np.einsum("ijz,zm->ijm", w, qinv.T)
    lam = 0.5 * bm + u                                  # lam[i, j, :] = L(b_i) b_j
    t1 = np.einsum("jkm,iml->ijkl", lam, lam)
    t2 = np.einsum("ikm,jml->ijkl", lam, lam)
    t3 = np.einsum("ijm,mkl->ijkl", bm, lam)
    t4 = np.einsum("ija,alk->ijkl", bk, rho)
    r = t1 - t2 - t3 - t4
    return np.einsum("ijkm,ml->ijkl", r, q)


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


def sectional_curvature(ms: InvariantMetricSpace, x, y,
                        r4: np.ndarray | None = None) -> float:
    """g(R(x, y) y, x) normalized by the squared area of the plane."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = ms.metric()
    area2 = (x @ q @ x) * (y @ q @ y) - (x @ q @ y) ** 2
    if area2 < 1e-12:
        raise ValueError("degenerate plane")
    if r4 is None:
        r4 = curvature_tensor(ms)
    val = np.einsum("ijkl,i,j,k,l->", r4, x, y, y, x)
    return float(val / area2)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


@dataclass
class Profile:
    """Warping function with two derivatives.

    Built-ins (see :meth:`from_name`): ``const(c)``, ``exp(a*t)``, ``sin``,
    ``sinh``, ``poly(c0,c1,...)``.  Tabulated profiles come from CSV rows
    ``t, f, f', f''`` via :meth:`from_csv` (cubic-spline evaluation).
    """

    name: str
    f: callable
    df: callable
    ddf: callable

    @classmethod
    def from_name(cls, text: str) -> "Profile":
        text = text.strip()
        if text == "sin":
            return cls("sin", np.sin, np.cos, lambda t: -np.sin(t))
        if text == "sinh":
            return cls("sinh", np.sinh, np.cosh, np.sinh)
        m = re.fullmatch(r"const\(([^)]+)\)", text)
        if m:
            c = float(m.group(1))
            return cls(text, lambda t: c + 0.0 * t, lambda t: 0.0 * t, lambda t: 0.0 * t)
        m = re.fullmatch(r"exp\(([+-]?[0-9.]*)\*?t\)", text)
        if m:
            a = m.group(1)
            a = {"": 1.0, "+": 1.0, "-": -1.0}.get(a, None) if a in ("", "+", "-") else float(a)
            return cls(text, lambda t: np.exp(a * t), lambda t: a * np.exp(a * t),
                       lambda t: a * a * np.exp(a * t))
        m = re.fullmatch(r"poly\(([^)]*)\)", text)
        if m:
            coeffs = [float(v) for v in m.group(1).split(",")]
            p = np.polynomial.Polynomial(coeffs)
            return cls(text, p, p.deriv(1), p.deriv(2))
        raise ValueError(f"unknown profile {text!r}")

    @classmethod
    def from_csv(cls, path) -> "Profile":
        from scipy.interpolate import CubicSpline

        rows = []
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                rows.append([float(v) for v in row[:4]])
        data = np.array(rows)
        t = data[:, 0]
        return cls(f"csv:{path}", CubicSpline(t, data[:, 1]),
                   CubicSpline(t, data[:, 2]), CubicSpline(t, data[:, 3]))


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def sphere_space(n: int) -> ReductiveSpace:
    """Round sphere model: rotation algebra one dimension up over so(n)."""
    pairs = bivector_pairs(n + 1)
    alg = LieAlgebra(so_structure_tensor(n + 1))
    k_idx = [p for p, (i, j) in enumerate(pairs) if j <= n]
    m_idx = [p for p, (i, j) in enumerate(pairs) if j == n + 1]
    return ReductiveSpace(f"S{n}", alg, Subspace.coordinate(alg.dim, k_idx),
                          (Subspace.coordinate(alg.dim, m_idx),))


@dataclass
class RoundSphere:
    """Unit round sphere fiber; curvature is the constant-1 closed form."""

    dim: int

    def fiber_dim(self) -> int:
        return self.dim

    def r4_orthonormal(self) -> np.ndarray:
        d = self.dim
        delta = np.eye(d)
        return (np.einsum("bc,ad->abcd", delta, delta)
                - np.einsum("ac,bd->abcd", delta, delta))

    def isotropy_rep(self) -> Representation:
        rep, _ = isotropy_representation(sphere_space(self.dim))
        return rep


@dataclass
class ReductiveFiber:
    """Fiber given by a reductive model with an invariant metric."""

    metric_space: InvariantMetricSpace

    def fiber_dim(self) -> int:
        return self.metric_space.m_dim

    def r4_orthonormal(self) -> np.ndarray:
        r4 = curvature_tensor(self.metric_space)
        q = self.metric_space.metric()
        vals, vecs = np.linalg.eigh(q)
        b = vecs @ np.diag(1.0 / np.sqrt(vals))  # columns: orthonormal frame
        return np.einsum("ijkl,ia,jb,kc,ld->abcd", r4, b, b, b, b)

    def isotropy_rep(self) -> Representation:
        rep, _ = isotropy_representation(self.metric_space.space)
        return rep


# ---------------------------------------------------------------------------
# warped products
# ---------------------------------------------------------------------------


@dataclass
class WarpedProduct:
    """Interval warped over a fiber: dt^2 + f(t)^2 g_F.

    ``interval`` is ``("line",)``, ``("half_line",)`` or ``("segment", L)``;
    the profile must be positive on the interior and vanish exactly at the
    boundary points the interval kind prescribes.
    """

    interval: tuple
    profile: Profile
    fiber: RoundSphere | ReductiveFiber
    boundary_tol: float = 1e-8

    def __post_init__(self):
        self.interval = tuple(self.interval)
        if self.interval[0] not in ("line", "half_line", "segment"):
            raise ValueError("interval kind must be line, half_line or segment")
        if self.interval[0] == "segment" and (len(self.interval) < 2 or self.interval[1] <= 0):
            raise ValueError("segment needs a positive length")

    def interior_samples(self, count: int = 33) -> np.ndarray:
        if self.interval[0] == "line":
            return np.linspace(-3.0, 3.0, count)
        hi = self.interval[1] if self.interval[0] == "segment" else 3.0
        return np.linspace(hi / (count + 1), hi * (1 - 1.0 / (count + 1)), count)

    def check_boundary(self) -> list[str]:
        """Enforce interior positivity and boundary zeros; returns warnings."""
        f, df, ddf = self.profile.f, self.profile.df, self.profile.ddf
        notes = []
        vals = np.array([f(t) for t in self.interior_samples()])
        if vals.min() <= 0:
            raise ValueError("profile must be positive on the interior")
        zeros = {"line": (), "half_line": (0.0,),
                 "segment": (0.0, self.interval[1]) if self.interval[0] == "segment" else ()}
        for t0 in zeros[self.interval[0]]:
            if abs(f(t0)) > self.boundary_tol:
                raise ValueError(f"profile must vanish at the boundary point {t0}")
            if abs(abs(df(t0)) - 1.0) > 1e-6:
                notes.append(f"profile slope at {t0} is {df(t0):.6g}, not +-1; "
                             "the metric closes up smoothly only for unit slope")
            if abs(ddf(t0)) > 1e-6:
                notes.append(f"profile curvature at {t0} is {ddf(t0):.6g}, not 0")
        return notes


def warped_sectional_curvature(w: WarpedProduct, t: float, plane) -> float:
    """Closed-form sectional curvature at parameter t.

    ``plane`` is ``("mixed", x)`` for span{d/dt, x}, ``("fiber", x, y)`` for a
    tangent plane of the fiber, or ``("general", a, x, b, y)`` for
    span{a d/dt + x, b d/dt + y}; fiber vectors are given in the fiber's
    orthonormal frame.  Mixed planes see -f''/f, fiber planes
    (K_F - f'^2) / f^2, and a general plane mixes the two with no cross term.
    """
    f, df, ddf = (w.profile.f(t), w.profile.df(t), w.profile.ddf(t))
    if f <= 0:
        raise ValueError("t must be an interior point (f > 0)")
    d = w.fiber.fiber_dim()
    kind = plane[0]
    if kind == "mixed":
        a, x, b, y = 1.0, np.zeros(d), 0.0, np.asarray(plane[1], dtype=float)
    elif kind == "fiber":
        a, x, b, y = 0.0, np.asarray(plane[1], dtype=float), 0.0, np.asarray(plane[2], float)
    elif kind == "general":
        a, x, b, y = float(plane[1]), np.asarray(plane[2], float), float(plane[3]), \
            np.asarray(plane[4], dtype=float)
    else:
        raise ValueError(f"unknown plane spec {plane!r}")
    r4f = w.fiber.r4_orthonormal()
    z = a * y - b * x
    num = (-ddf * f * (z @ z)
           + f * f * np.einsum("ijkl,i,j,k,l->", r4f, x, y, y, x)
           - df * df * f * f * ((x @ x) * (y @ y) - (x @ y) ** 2))
    gvv = a * a + f * f * (x @ x)
    gww = b * b + f * f * (y @ y)
    gvw = a * b + f * f * (x @ y)
    area2 = gvv * gww - gvw ** 2
    if area2 < 1e-12:
        raise ValueError("degenerate plane")
    return float(num / area2)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------


def riemann_finite_difference(metric_fn, dim: int, x0=None, h: float = FD_STEP) -> np.ndarray:
    """(0,4) curvature of an explicit coordinate metric by central differences.

    Independent of every closed-form path above: Christoffel symbols come
    from first differences of the metric, their derivatives from a second
    differencing, so the truncation error is O(h^2).
    """
    x0 = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)

    def christoffel(x):
        g = metric_fn(x)
        ginv = np.linalg.inv(g)
        dg = np.empty((dim, dim, dim))
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            dg[k] = (metric_fn(x + e) - metric_fn(x - e)) / (2 * h)
        # t[l, j, k] = d_j g_{lk} + d_k g_{jl} - d_l g_{jk}
        t = dg.transpose(1, 0, 2) + dg.transpose(2, 1, 0) - dg
        return 0.5 * np.einsum("il,ljk->ijk", ginv, t)

    gam0 = christoffel(x0)
    dgam = np.empty((dim, dim, dim, dim))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h
        dgam[a] = (christoffel(x0 + e) - christoffel(x0 - e)) / (2 * h)
    # R(d_a, d_b) d_c = r_up[m, a, b, c] d_m
    r_up = np.empty((dim, dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            r_up[:, a, b, :] = (dgam[a][:, b, :] - dgam[b][:, a, :]
                                + np.einsum("me,ec->mc", gam0[:, a, :], gam0[:, b, :])
                                - np.einsum("me,ec->mc", gam0[:, b, :], gam0[:, a, :]))
    g0 = metric_fn(x0)
    return np.einsum("mabc,md->abcd", r_up, g0)


def _warped_chart_metric(w: WarpedProduct, t: float):
    """Coordinate metric (t-offset, fiber normal coordinates) around a point."""
    r4f = w.fiber.r4_orthonormal()
    d = w.fiber.fiber_dim()
    f = w.profile.f

    def metric_fn(x):
        g = np.zeros((1 + d, 1 + d))
        g[0, 0] = 1.0
        y = x[1:]
        gf = np.eye(d) + np.einsum("ikjl,k,l->ij", r4f, y, y) / 3.0
        g[1:, 1:] = f(t + x[0]) ** 2 * gf
        return g

    return metric_fn


def warped_sectional_fd(w: WarpedProduct, t: float, plane, h: float = FD_STEP) -> float:
    """Finite-difference value of the same sectional curvature as the closed form."""
    d = w.fiber.fiber_dim()
    metric_fn = _warped_chart_metric(w, t)
    r4 = riemann_finite_difference(metric_fn, 1 + d, h=h)
    kind = plane[0]
    if kind == "mixed":
        v = np.concatenate([[1.0], np.zeros(d)])
        u = np.concatenate([[0.0], np.asarray(plane[1], dtype=float)])
    elif kind == "fiber":
        v = np.concatenate([[0.0], np.asarray(plane[1], dtype=float)])
        u = np.concatenate([[0.0], np.asarray(plane[2], dtype=float)])
    else:
        v = np.concatenate([[float(plane[1])], np.asarray(plane[2], dtype=float)])
        u = np.concatenate([[float(plane[3])], np.asarray(plane[4], dtype=float)])
    g0 = metric_fn(np.zeros(1 + d))
    num = np.einsum("ijkl,i,j,k,l->", r4, v, u, u, v)
    area2 = (v @ g0 @ v) * (u @ g0 @ u) - (v @ g0 @ u) ** 2
    return float(num / area2)


# ---------------------------------------------------------------------------
# classification record for the non-transitive case
# ---------------------------------------------------------------------------


@dataclass
class InhomogeneousReport:
    case: str
    fiber_kind: str
    fiber_admissible: bool
    isotropy_cohomogeneity: int
    warnings: tuple[str, ...] = field(default_factory=tuple)


def validate_inhomogeneous(w: WarpedProduct, seed: int = 0x5EED) -> InhomogeneousReport:
    """Case assignment and fiber admissibility for a degenerate warped product.

    No boundary zero: case i, any fiber whose isotropy representation has
    cohomogeneity one (the rank-one fingerprint).  One zero: case ii; two
    zeros: case iii; in both the collapsing fiber must be a round sphere.
    The isotropy cohomogeneity of the total space is that of the fiber
    isotropy representation plus a trivial normal line, and must equal 2.
    """
    notes = w.check_boundary()
    case = {"line": "i", "half_line": "ii", "segment": "iii"}[w.interval[0]]
    fiber_kind = "round-sphere" if isinstance(w.fiber, RoundSphere) else "reductive"
    fiber_rep = w.fiber.isotropy_rep()
    if case == "i":
        admissible = cohomogeneity(fiber_rep, seed=seed) == 1 if fiber_rep.space_dim else False
    else:
        admissible = isinstance(w.fiber, RoundSphere)
        if not admissible:
            raise ValueError("a collapsing fiber must be a round sphere")
    line = trivial_representation(fiber_rep.algebra, 1)
    total = rep_direct_sum(fiber_rep, line)
    iso_coh = cohomogeneity(total, seed=seed)
    return InhomogeneousReport(case, fiber_kind, bool(admissible), iso_coh, tuple(notes))
