"""Reference forms the tests compare the package against.

Each is the smallest independent form of a quantity that a test checks;
none of them runs in ``verify``, ``catalog`` or ``export``.  Elements of the
Clifford algebra Cl_n (``e_i e_j + e_j e_i = -2 delta_ij``) are dicts from
strictly increasing index tuples to coefficients.
"""

from functools import reduce

import numpy as np

from liecoh import geometry as geo
from liecoh.algebra import LieAlgebra, Subspace
from liecoh.clifford import bivector_pairs, so_algebra
from liecoh.linalg import nullspace
from liecoh.reps import Representation, _require_shared_algebra
from liecoh.spaces import ReductiveSpace, hyperbolic_semidirect


def bracket(alg, x, y):
    """Bracket of two coefficient vectors, ``sum_{ij} x_i y_j c[i,j,:]``."""
    return np.einsum("i,j,ijk->k", x, y, alg.c)


def ad_matrix(alg, x):
    """Matrix of ``ad(x) : y -> [x, y]``."""
    return np.einsum("i,ijk->kj", x, alg.c)


def pullback_structure(alg, f):
    """The bracket ``f^{-1} [f x, f y]`` of an invertible ``f``, in the original basis."""
    c = np.einsum("pa,qb,pql->abl", f, f, alg.c) @ np.linalg.inv(f).T
    return LieAlgebra(0.5 * (c - c.transpose(1, 0, 2)))


def read_algebra(data):
    """Structure constants of ``to_json_dict``'s sparse triples ``[i, j, k, value]``, i < j."""
    c = np.zeros((data["dim"],) * 3)
    for i, j, k, v in data["c"]:
        c[i, j, k], c[j, i, k] = v, -v
    return c


def hom_space_dimension(rep_a, rep_b):
    """Dimension of the intertwiners ``{A : A rho_a(x) = rho_b(x) A for all x}``."""
    _require_shared_algebra(rep_a, rep_b)
    ia, ib = np.eye(rep_a.space_dim), np.eye(rep_b.space_dim)
    rows = [np.kron(ib, a.T) - np.kron(b, ia) for a, b in zip(rep_a.matrices, rep_b.matrices)]
    return nullspace(np.vstack(rows)).shape[1]


def tensor_product(rep_a, rep_b):
    """The action ``rho_a (x) I + I (x) rho_b`` on the tensor product."""
    ia, ib = np.eye(rep_a.space_dim), np.eye(rep_b.space_dim)
    return Representation(rep_a.algebra, [np.kron(a, ib) + np.kron(ia, b)
                                          for a, b in zip(rep_a.matrices, rep_b.matrices)])


def sphere_space(n):
    """The round sphere so(n+1)/so(n), whose invariant metric has sectional curvature +1."""
    alg = so_algebra(n + 1)
    last = [j == n + 1 for _, j in bivector_pairs(n + 1)]
    k, m = np.flatnonzero(np.logical_not(last)), np.flatnonzero(last)
    return ReductiveSpace(f"S{n}", alg, Subspace.coordinate(alg.dim, k),
                          (Subspace.coordinate(alg.dim, m),))


def invariance_residual(ms):
    """Largest entry of ``Q rho(x) + (Q rho(x))^T``, zero when the metric ``Q`` is invariant."""
    t = ms.metric() @ ms.space.rep.matrices
    return np.abs(t + t.transpose(0, 2, 1)).max(initial=0.0)


def blade_product(a, b):
    """Sign and index tuple of the product of the basis blades ``e_a`` and ``e_b``.

    An insertion sort of ``a + b`` that flips the sign at each transposition
    and at each contraction ``e_k e_k = -1``.
    """
    seq, sign, i = list(a) + list(b), 1.0, 0
    while i < len(seq) - 1:
        if seq[i] == seq[i + 1]:
            del seq[i:i + 2]
        elif seq[i] > seq[i + 1]:
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
        else:
            i += 1
            continue
        sign, i = -sign, max(i - 1, 0)
    return sign, tuple(seq)


def clifford_product(x, y):
    """Product of two elements of Cl_n, with zero coefficients dropped."""
    out = {}
    for ia, ca in x.items():
        for ib, cb in y.items():
            sign, idx = blade_product(ia, ib)
            out[idx] = out.get(idx, 0.0) + sign * ca * cb
    return {idx: v for idx, v in out.items() if v != 0.0}


def element_matrix(module, x):
    """Matrix of ``x`` on a module: the blade ``e_i ... e_j`` acts as ``Gamma_i ... Gamma_j``."""
    eye = np.eye(module.module_dim)
    return sum((v * reduce(np.matmul, [module.gammas[i - 1] for i in idx], eye)
                for idx, v in x.items()), 0.0 * eye)


# ---------------------------------------------------------------------------
# the sampled curvature claims, one plane at a time
# ---------------------------------------------------------------------------


def random_plane(dim, rng):
    """Orthonormal x, y from two single Gaussian draws; None when y falls too close to x."""
    x, y = (v / np.linalg.norm(v) for v in (rng.standard_normal(dim), rng.standard_normal(dim)))
    y = y - (x @ y) * x
    norm = np.linalg.norm(y)
    return None if norm < 1e-6 else (x, y / norm)


def plane_sectional_curvature(r4, g, x, y):
    """R4(x, y, y, x) over the squared area of span{x, y}, one plane, as one einsum."""
    area2 = (x @ g @ x) * (y @ g @ y) - (x @ g @ y) ** 2
    return np.einsum("ijkl,i,j,k,l->", r4, x, y, y, x) / area2


def plane_warped_sectional_curvature(w, t, v, u):
    """The closed form of one plane, with the fiber term read off the sphere's (0,4) tensor.

    Returns the curvature and the sum of the magnitudes of its three terms,
    both over the squared area: the round-off of the first is relative to the
    second, which is the larger where f'^2 nearly cancels K_F = 1.
    """
    f, df, ddf = w.profile.f(t), w.profile.df(t), w.profile.ddf(t)
    a, x, b, y = v[0], v[1:], u[0], u[1:]
    z = a * y - b * x
    terms = np.array([-ddf * f * (z @ z),
                      f * f * np.einsum("ijkl,i,j,k,l->", geo._sphere_r4(w.fiber_dim),
                                        x, y, y, x),
                      -df * df * f * f * ((x @ x) * (y @ y) - (x @ y) ** 2)])
    gvw = a * b + f * f * (x @ y)
    area2 = (a * a + f * f * (x @ x)) * (b * b + f * f * (y @ y)) - gvw ** 2
    return terms.sum() / area2, np.abs(terms).sum() / area2


def hyperbolic_residual(field_name, rate, seed):
    """The residual of ``curvature.hyperbolic`` from a loop over its 100 planes.

    Returns ``(residual, scale)``, ``scale`` the largest |K| of the planes.
    """
    ms = geo.InvariantMetricSpace(hyperbolic_semidirect(field_name, rate))
    r4, g = geo.curvature_tensor(ms), ms.metric()
    offset = {"R": 1, "C": 2, "H": 3}[field_name] * 1000 + int(100 * rate)
    rng = np.random.default_rng(seed + offset)
    planes = [p for p in (random_plane(ms.m_dim, rng) for _ in range(100)) if p]
    ks = np.array([plane_sectional_curvature(r4, g, *p) for p in planes])
    return np.abs(ks + rate * rate).max(initial=0.0), np.abs(ks).max(initial=0.0)


def warped_residual(name, interval, profile, fiber_dim, seed):
    """The residual of ``curvature.warped`` from a loop over its 50 planes.

    Plane ``s`` is of kind ``s % 3`` at sample point ``s % 13``.  Returns
    ``(residual, scale)``, ``scale`` the largest magnitude that a closed-form
    value of the planes sums.
    """
    w = geo.WarpedProduct(interval, profile, fiber_dim)
    rng = np.random.default_rng(seed + len(name))
    ts = w.interior_samples(13)
    errors, scales = [], []
    for s in range(50):
        plane = random_plane(fiber_dim, rng)
        if plane is None:
            continue
        x, y = plane
        x0, y0 = np.concatenate([[0.0], x]), np.concatenate([[0.0], y])
        v, u = ((np.eye(1 + fiber_dim)[0], x0), (x0, y0),
                (np.concatenate([[0.6], 0.8 * x]), y0))[s % 3]
        t = ts[s % len(ts)]
        cf, scale = plane_warped_sectional_curvature(w, t, v, u)
        fd = plane_sectional_curvature(*geo.warped_curvature_fd(w, t), v, u)
        errors.append(abs(cf - fd))
        scales.append(scale)
    return max(errors, default=0.0), max(scales, default=0.0)
