"""Numerical representation theory of compact Lie algebras.

Orbit dimensions, cohomogeneity, isotropy and fixed subspaces, effectivity
kernels, and equivariant-homomorphism counts.  Everything reduces to ranks
and nullspaces of explicit matrices; genericity is handled by seeded random
sampling (default seed ``DEFAULT_SEED``), so every result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import LieAlgebra, Subspace
from .linalg import (
    RANK_RTOL,
    matrix_rank,
    nullspace,
    random_unit_vector,
    residual_scale,
)

__all__ = [
    "DEFAULT_SEED",
    "OrbitSample",
    "Representation",
    "cohomogeneity",
    "fixed_subspace",
    "hom_space_dimension",
    "isotropy_subalgebra",
    "kernel_ideal",
    "orbit_dimension",
    "orbit_sample",
    "rep_direct_sum",
    "rep_from_json_dict",
    "rep_to_json_dict",
    "restrict",
    "splitting_criterion",
    "tensor_product",
    "trivial_representation",
]

DEFAULT_SEED = 0x5EED
GENERIC_SAMPLES = 20


@dataclass
class Representation:
    """A Lie algebra acting on a real vector space by matrices.

    Parameters
    ----------
    algebra : LieAlgebra
    matrices : (dim, D, D) array
        One operator per algebra basis element.
    inner_product : (D, D) array, optional
        Invariant form on the space, identity by default.

    Invariants (checked by :meth:`validate`): the homomorphism residual
    ``max |rho([x,y]) - [rho(x), rho(y)]|`` and the skewness of every
    operator with respect to the inner product are below tolerance.
    """

    algebra: LieAlgebra
    matrices: np.ndarray
    inner_product: np.ndarray | None = None

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        if m.ndim != 3 or m.shape[0] != self.algebra.dim or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must be (algebra.dim, D, D)")
        m.setflags(write=False)
        self.matrices = m
        d = m.shape[1]
        ip = np.eye(d) if self.inner_product is None else np.asarray(self.inner_product, float)
        ip.setflags(write=False)
        self.inner_product = ip

    @property
    def space_dim(self) -> int:
        return self.matrices.shape[1]

    def operator(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        return np.einsum("a,aij->ij", xi, self.matrices)

    def homomorphism_residual(self) -> float:
        comm = np.einsum("aij,bjk->abik", self.matrices, self.matrices)
        comm = comm - comm.transpose(1, 0, 2, 3)
        expect = np.einsum("abm,mik->abik", self.algebra.c, self.matrices)
        return float(np.abs(comm - expect).max(initial=0.0) / residual_scale(self.matrices))

    def skewness_residual(self) -> float:
        g = self.inner_product
        t = np.einsum("ij,ajk->aik", g, self.matrices)
        return float(np.abs(t + t.transpose(0, 2, 1)).max(initial=0.0)
                     / residual_scale(self.matrices))

    def validate(self, tol: float = 1e-9) -> "Representation":
        hr = self.homomorphism_residual()
        sr = self.skewness_residual()
        if hr >= tol:
            raise ValueError(f"homomorphism residual {hr:.3e} exceeds {tol:.1e}")
        if sr >= tol:
            raise ValueError(f"skewness residual {sr:.3e} exceeds {tol:.1e}")
        return self


def trivial_representation(algebra: LieAlgebra, space_dim: int) -> Representation:
    return Representation(algebra, np.zeros((algebra.dim, space_dim, space_dim)))


def rep_to_json_dict(rep: Representation) -> dict:
    """Algebra schema extended with a sparse "matrices" array."""
    from .algebra import matrix_to_json_dict, to_json_dict

    out = to_json_dict(rep.algebra)
    out["matrices"] = [matrix_to_json_dict(m) for m in rep.matrices]
    if not np.array_equal(rep.inner_product, np.eye(rep.space_dim)):
        out["space_inner_product"] = rep.inner_product.tolist()
    return out


def rep_from_json_dict(data: dict) -> Representation:
    from .algebra import from_json_dict, matrix_from_json_dict

    alg = from_json_dict(data)
    mats = np.array([matrix_from_json_dict(m) for m in data["matrices"]])
    ip = (np.asarray(data["space_inner_product"], dtype=float)
          if "space_inner_product" in data else None)
    return Representation(alg, mats, ip)


def _evaluation_matrix(rep: Representation, v: np.ndarray) -> np.ndarray:
    """Columns rho(b_a) v of the evaluation map xi -> rho(xi) v."""
    return np.einsum("aij,j->ia", rep.matrices, v)


def orbit_dimension(rep: Representation, v, rtol: float = RANK_RTOL) -> int:
    """Rank of xi -> rho(xi) v; the dimension of the orbit through v."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0:
        raise ValueError("orbit dimension is undefined at the zero vector")
    return matrix_rank(_evaluation_matrix(rep, v), rtol)


@dataclass
class OrbitSample:
    """Orbit data at one unit point; orbit and isotropy dimensions add up."""

    point: np.ndarray
    orbit_dim: int
    isotropy_dim: int


def orbit_sample(rep: Representation, v) -> OrbitSample:
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    orbit = orbit_dimension(rep, v)
    iso = isotropy_subalgebra(rep, v).dim
    if orbit + iso != rep.algebra.dim:
        raise AssertionError("orbit and isotropy dimensions fail to complement")
    return OrbitSample(v, orbit, iso)


def cohomogeneity(rep: Representation, samples: int = GENERIC_SAMPLES,
                  seed: int = DEFAULT_SEED) -> int:
    """space_dim minus the maximal orbit dimension over seeded unit samples."""
    if samples < 1:
        raise ValueError("at least one sample required")
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(samples):
        v = random_unit_vector(rep.space_dim, rng)
        best = max(best, orbit_dimension(rep, v))
    return rep.space_dim - best


def isotropy_subalgebra(rep: Representation, v, rtol: float = RANK_RTOL) -> Subspace:
    """Nullspace of xi -> rho(xi) v inside the algebra."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0:
        raise ValueError("isotropy is undefined at the zero vector")
    return Subspace(rep.algebra.dim, nullspace(_evaluation_matrix(rep, v), rtol))


def fixed_subspace(rep: Representation, sub: Subspace, rtol: float = RANK_RTOL) -> Subspace:
    """Common kernel of rho(xi) over a basis of the algebra subspace."""
    if sub.ambient_dim != rep.algebra.dim:
        raise ValueError("subspace must live in the algebra")
    if sub.dim == 0:
        return Subspace(rep.space_dim, np.eye(rep.space_dim))
    ops = np.einsum("am,aij->mij", sub.basis, rep.matrices)
    stacked = ops.reshape(-1, rep.space_dim)
    return Subspace(rep.space_dim, nullspace(stacked, rtol))


def kernel_ideal(rep: Representation, rtol: float = RANK_RTOL,
                 tol: float = 1e-8) -> Subspace:
    """Kernel {xi : rho(xi) = 0}; verified to be an ideal of the algebra."""
    d = rep.algebra.dim
    stacked = rep.matrices.reshape(d, -1).T
    ker = Subspace(d, nullspace(stacked, rtol))
    if ker.dim:
        # bracket closure [g, ker] inside ker
        imgs = np.einsum("ijl,jm->lim", rep.algebra.c, ker.basis).reshape(d, -1)
        resid = imgs - ker.projector() @ imgs
        if np.abs(resid).max(initial=0.0) / residual_scale(imgs) >= tol:
            raise ValueError("representation kernel is not an ideal (inconsistent input)")
    return ker


def hom_space_dimension(rep_a: Representation, rep_b: Representation,
                        rtol: float = RANK_RTOL) -> int:
    """Dimension of intertwiners {A : A rho_a(xi) = rho_b(xi) A for all xi}."""
    if rep_a.algebra.dim != rep_b.algebra.dim or not np.array_equal(
            rep_a.algebra.c, rep_b.algebra.c):
        raise ValueError("representations must share the algebra")
    da, db = rep_a.space_dim, rep_b.space_dim
    blocks = []
    for a in range(rep_a.algebra.dim):
        m1 = np.kron(np.eye(db), rep_a.matrices[a].T)   # A -> A rho_a
        m2 = np.kron(rep_b.matrices[a], np.eye(da))     # A -> rho_b A
        blocks.append(m1 - m2)
    return nullspace(np.vstack(blocks), rtol).shape[1]


def tensor_product(rep_a: Representation, rep_b: Representation) -> Representation:
    """Kronecker-sum action rho_a (x) I + I (x) rho_b on the tensor space."""
    if rep_a.algebra.dim != rep_b.algebra.dim or not np.array_equal(
            rep_a.algebra.c, rep_b.algebra.c):
        raise ValueError("representations must share the algebra")
    da, db = rep_a.space_dim, rep_b.space_dim
    mats = np.array([
        np.kron(rep_a.matrices[x], np.eye(db)) + np.kron(np.eye(da), rep_b.matrices[x])
        for x in range(rep_a.algebra.dim)
    ])
    return Representation(rep_a.algebra, mats)


def rep_direct_sum(rep_a: Representation, rep_b: Representation) -> Representation:
    """Block sum of two modules over the same algebra."""
    if rep_a.algebra.dim != rep_b.algebra.dim or not np.array_equal(
            rep_a.algebra.c, rep_b.algebra.c):
        raise ValueError("representations must share the algebra")
    da, db = rep_a.space_dim, rep_b.space_dim
    mats = np.zeros((rep_a.algebra.dim, da + db, da + db))
    mats[:, :da, :da] = rep_a.matrices
    mats[:, da:, da:] = rep_b.matrices
    ip = np.zeros((da + db, da + db))
    ip[:da, :da] = rep_a.inner_product
    ip[da:, da:] = rep_b.inner_product
    return Representation(rep_a.algebra, mats, ip)


def block_invariance_residual(rep: Representation, indices) -> float:
    """How far a coordinate block is from being invariant."""
    idx = np.asarray(indices, dtype=int)
    comp = np.setdiff1d(np.arange(rep.space_dim), idx)
    if comp.size == 0 or idx.size == 0:
        return 0.0
    leak = np.abs(rep.matrices[:, comp[:, None], idx[None, :]]).max(initial=0.0)
    return float(leak / residual_scale(rep.matrices))


def restrict(rep: Representation, indices, tol: float = 1e-8) -> Representation:
    """Restriction of the action to an invariant coordinate block."""
    if block_invariance_residual(rep, indices) >= tol:
        raise ValueError("block is not invariant")
    idx = np.asarray(indices, dtype=int)
    mats = rep.matrices[:, idx[:, None], idx[None, :]]
    ip = rep.inner_product[np.ix_(idx, idx)]
    return Representation(rep.algebra, mats, ip)


def splitting_criterion(rep: Representation, block1, block2, tol: float = 1e-8) -> bool:
    """Fixed-module test for a designated two-block decomposition.

    With N_i the kernel of the restriction to block i, the criterion holds
    (True) iff the fixed space of N_1 is exactly block 1 and the fixed space
    of N_2 is exactly block 2.  Both kernels being nontrivial is necessary,
    so an effective block immediately returns False.

    Raises ``ValueError`` when the blocks do not partition the space, are
    trivial, or fail invariance.
    """
    b1 = sorted(int(i) for i in block1)
    b2 = sorted(int(i) for i in block2)
    if not b1 or not b2:
        raise ValueError("both blocks must be nontrivial")
    if sorted(b1 + b2) != list(range(rep.space_dim)):
        raise ValueError("blocks must partition the coordinates of the space")
    for blk in (b1, b2):
        if block_invariance_residual(rep, blk) >= tol:
            raise ValueError("blocks are not invariant")
    d = rep.space_dim
    for blk in (b1, b2):
        n_i = kernel_ideal(restrict(rep, blk))
        fixed = fixed_subspace(rep, n_i)
        if not fixed.equals(Subspace.coordinate(d, blk), tol):
            return False
    return True
