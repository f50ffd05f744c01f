"""Reference forms the tests compare the package against.

Each is the smallest independent form of a quantity that a test checks;
none of them runs in ``verify``, ``catalog`` or ``export``.  Elements of the
Clifford algebra Cl_n (``e_i e_j + e_j e_i = -2 delta_ij``) are dicts from
strictly increasing index tuples to coefficients.
"""

from functools import reduce

import numpy as np

from liecoh.algebra import LieAlgebra, Subspace
from liecoh.clifford import bivector_pairs, so_algebra
from liecoh.linalg import nullspace
from liecoh.reps import Representation, _require_shared_algebra
from liecoh.spaces import ReductiveSpace


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
