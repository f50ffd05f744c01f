"""Numerical representation theory of compact Lie algebras.

Orbit dimensions, cohomogeneity, isotropy and fixed subspaces, and
effectivity kernels.  Everything reduces to ranks and nullspaces of explicit
matrices; genericity is handled by seeded random sampling (default seed
``DEFAULT_SEED``), so every result is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    JACOBI_TOL,
    LEAK_TOL,
    LieAlgebra,
    Subspace,
    commutators,
    require_below,
    span_brackets,
)
from .linalg import (
    matrix_rank,
    nullspace,
    random_unit_vector,
    residual_scale,
)

__all__ = [
    "DEFAULT_SEED",
    "Representation",
    "cohomogeneity",
    "fixed_subspace",
    "isotropy_subalgebra",
    "kernel_ideal",
    "orbit_dimension",
    "rep_direct_sum",
    "restrict",
    "splitting_criterion",
    "trivial_representation",
]

DEFAULT_SEED = 0x5EED
GENERIC_SAMPLES = 20


@dataclass(eq=False, frozen=True)
class Representation:
    """A Lie algebra acting on a real vector space by matrices.

    Parameters
    ----------
    algebra : LieAlgebra
    matrices : (dim, D, D) array
        One operator per algebra basis element, in an orthonormal basis of
        the space.

    Invariants (checked by :meth:`validate`): the homomorphism residual
    ``max |rho([x,y]) - [rho(x), rho(y)]|`` and the skewness of every
    operator are below tolerance.  The fields are frozen and the matrices
    read-only, so a cached representation cannot be changed.
    """

    algebra: LieAlgebra
    matrices: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrices, dtype=float)  # a copy: the caller's array stays writable
        if m.ndim != 3 or m.shape[0] != self.algebra.dim or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must be (algebra.dim, D, D)")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def space_dim(self) -> int:
        return self.matrices.shape[1]

    def homomorphism_residual(self) -> float:
        m = self.matrices
        k, n = m.shape[:2]
        # rho([b_a, b_b]) for every pair: one product of the constants and the stacked operators
        expect = (self.algebra.c.reshape(k * k, k) @ m.reshape(k, n * n)).reshape(k, k, n, n)
        return float(np.abs(commutators(m) - expect).max(initial=0.0) / residual_scale(m))

    def skewness_residual(self) -> float:
        m = self.matrices
        return float(np.abs(m + m.transpose(0, 2, 1)).max(initial=0.0)
                     / residual_scale(self.matrices))

    def validate(self) -> "Representation":
        """Return ``self``; raise ``ValidationError`` unless both residuals are below
        ``JACOBI_TOL``."""
        require_below(self.homomorphism_residual(), JACOBI_TOL, "representation: homomorphism")
        require_below(self.skewness_residual(), JACOBI_TOL, "representation: skewness")
        return self


def trivial_representation(algebra: LieAlgebra, space_dim: int) -> Representation:
    return Representation(algebra, np.zeros((algebra.dim, space_dim, space_dim)))


def _evaluation_matrix(rep: Representation, v: np.ndarray) -> np.ndarray:
    """Columns rho(b_a) v of the evaluation map xi -> rho(xi) v.

    A stack of vectors ``(s, D)`` gives the stack ``(s, D, dim)``, from one
    matrix product.
    """
    k, n = rep.algebra.dim, rep.space_dim
    vs = np.atleast_2d(v)
    e = (rep.matrices.reshape(k * n, n) @ vs.T).reshape(k, n, vs.shape[0]).transpose(2, 1, 0)
    return e if v.ndim > 1 else e[0]


def orbit_dimension(rep: Representation, v):
    """Rank of xi -> rho(xi) v; the dimension of the orbit through v.

    A stack of vectors ``(s, D)`` gives an integer array of ``s`` dimensions.
    """
    v = np.asarray(v, dtype=float)
    if np.any(np.linalg.norm(v, axis=-1) == 0):
        raise ValueError("orbit dimension is undefined at the zero vector")
    return matrix_rank(_evaluation_matrix(rep, v))


def cohomogeneity(rep: Representation, seed: int = DEFAULT_SEED) -> int:
    """space_dim minus the maximal orbit dimension over ``GENERIC_SAMPLES`` seeded unit samples.

    The samples come from one ``(GENERIC_SAMPLES, space_dim)`` draw and are
    ranked together, by one stacked SVD.  A zero-dimensional space is one
    point: cohomogeneity 0.
    """
    if rep.space_dim == 0:
        return 0
    samples = random_unit_vector(rep.space_dim, np.random.default_rng(seed), GENERIC_SAMPLES)
    return rep.space_dim - int(orbit_dimension(rep, samples).max())


def isotropy_subalgebra(rep: Representation, v) -> Subspace:
    """Nullspace of xi -> rho(xi) v inside the algebra."""
    v = np.asarray(v, dtype=float)
    if np.linalg.norm(v) == 0:
        raise ValueError("isotropy is undefined at the zero vector")
    return Subspace(nullspace(_evaluation_matrix(rep, v)))


def fixed_subspace(rep: Representation, sub: Subspace) -> Subspace:
    """Common kernel of rho(xi) over a basis of the algebra subspace."""
    if sub.ambient_dim != rep.algebra.dim:
        raise ValueError("subspace must live in the algebra")
    ops = np.einsum("am,aij->mij", sub.basis, rep.matrices)
    stacked = ops.reshape(-1, rep.space_dim)
    return Subspace(nullspace(stacked))


def kernel_ideal(rep: Representation) -> Subspace:
    """Kernel {xi : rho(xi) = 0}; verified to be an ideal of the algebra."""
    d = rep.algebra.dim
    stacked = rep.matrices.reshape(d, rep.space_dim ** 2).T  # explicit size: d may be 0
    ker = Subspace(nullspace(stacked))
    if ker.dim:
        # bracket closure [g, ker] inside ker
        imgs = span_brackets(rep.algebra, np.eye(d), ker.basis).reshape(-1, d).T
        resid = imgs - ker.projector() @ imgs
        require_below(np.abs(resid).max(initial=0.0) / residual_scale(imgs), LEAK_TOL,
                      "representation kernel is not an ideal (inconsistent input)")
    return ker


def _require_shared_algebra(rep_a: Representation, rep_b: Representation) -> None:
    if not np.array_equal(rep_a.algebra.c, rep_b.algebra.c):  # False on unequal shapes
        raise ValueError("representations must share the algebra")


def rep_direct_sum(rep_a: Representation, rep_b: Representation) -> Representation:
    """Block sum of two modules over the same algebra."""
    _require_shared_algebra(rep_a, rep_b)
    da, db = rep_a.space_dim, rep_b.space_dim
    mats = np.zeros((rep_a.algebra.dim, da + db, da + db))
    mats[:, :da, :da] = rep_a.matrices
    mats[:, da:, da:] = rep_b.matrices
    return Representation(rep_a.algebra, mats)


def block_invariance_residual(rep: Representation, indices) -> float:
    """How far a coordinate block is from being invariant."""
    idx = np.asarray(indices, dtype=int)
    comp = np.delete(np.arange(rep.space_dim), idx)  # np.setdiff1d imports numpy.ma
    if comp.size == 0 or idx.size == 0:
        return 0.0
    leak = np.abs(rep.matrices[:, comp[:, None], idx[None, :]]).max(initial=0.0)
    return float(leak / residual_scale(rep.matrices))


def restrict(rep: Representation, indices) -> Representation:
    """Restriction of the action to an invariant coordinate block."""
    require_below(block_invariance_residual(rep, indices), LEAK_TOL, "block is not invariant")
    idx = np.asarray(indices, dtype=int)
    mats = rep.matrices[:, idx[:, None], idx[None, :]]
    return Representation(rep.algebra, mats)


def splitting_criterion(rep: Representation, block1, block2) -> bool:
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
    parts = [restrict(rep, blk) for blk in (b1, b2)]  # both blocks checked before either is used
    for blk, part in zip((b1, b2), parts):
        fixed = fixed_subspace(rep, kernel_ideal(part))
        if not fixed.equals(Subspace.coordinate(rep.space_dim, blk)):
            return False
    return True
