"""Explicit matrix models: rotation, unitary, symplectic and spin actions.

Complex and quaternionic modules are realified with stacked real coordinates:
C^n becomes (Re v, Im v), H^n becomes n blocks of (1, i, j, k) components.
The transitive-sphere actions and the isotropy of the Clifford constructions
are produced here as ``Representation`` values; the underlying algebras carry
structure constants recomputed from the matrices themselves, so homomorphism
residuals are round-off only.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import LieAlgebra, direct_sum, structure_constants_from_matrices
from .clifford import (
    so_algebra,
    so_vector_matrices,
    spin_algebra,
    spin_module,
    spin_plus_one,
)
from .reps import Representation, isotropy_subalgebra, rep_direct_sum

__all__ = [
    "algebra_of_matrices",
    "clifford_isotropy",
    "g2_seven",
    "quaternion_left",
    "quaternion_right",
    "realify_complex",
    "so_standard",
    "sp_sp1",
    "sp_standard",
    "sp_u1",
    "spin7_eight",
    "spin9_sixteen",
    "su_standard",
    "u_standard",
    "unitary_determinant_action",
]


def algebra_of_matrices(matrices) -> Representation:
    """Defining action of the algebra spanned by the matrices."""
    mats = np.asarray(matrices, dtype=float)
    return Representation(LieAlgebra(structure_constants_from_matrices(mats)), mats)


# ---------------------------------------------------------------------------
# realification helpers
# ---------------------------------------------------------------------------


def realify_complex(m: np.ndarray) -> np.ndarray:
    """Real (2n, 2n) matrix of a complex one on stacked (Re, Im) coordinates."""
    a, b = np.real(m), np.imag(m)
    return np.block([[a, -b], [b, a]])


def quaternion_left(q) -> np.ndarray:
    """4x4 matrix of left multiplication by q = (a, b, c, d)."""
    a, b, c, d = q
    return np.array([
        [a, -b, -c, -d],
        [b, a, -d, c],
        [c, d, a, -b],
        [d, -c, b, a],
    ])


def quaternion_right(q) -> np.ndarray:
    """4x4 matrix of right multiplication by q = (a, b, c, d)."""
    a, b, c, d = q
    return np.array([
        [a, -b, -c, -d],
        [b, a, d, -c],
        [c, -d, a, b],
        [d, c, -b, a],
    ])


def su_basis(n: int) -> list[np.ndarray]:
    """Complex basis of su(n): off-diagonal pairs then diagonal torus.

    Orthogonal with a common norm for the trace form Re tr(X Y*), so the
    structure constants in this basis are totally antisymmetric.
    """
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            e = np.zeros((n, n), dtype=complex)
            e[a, b], e[b, a] = 1.0, -1.0
            out.append(e)
            f = np.zeros((n, n), dtype=complex)
            f[a, b] = f[b, a] = 1.0j
            out.append(f)
    for a in range(1, n):
        h = np.zeros((n, n), dtype=complex)
        for b in range(a):
            h[b, b] = 1.0j
        h[a, a] = -a * 1.0j
        out.append(h * np.sqrt(2.0 / (a * (a + 1))))
    return out


def sp_quaternion_basis(n: int) -> list[np.ndarray]:
    """Basis of sp(n) as (n, n, 4) quaternion coefficient arrays."""
    out = []
    units = [(0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)]
    for a in range(n):
        for u in units:
            m = np.zeros((n, n, 4))
            m[a, a] = u
            out.append(m)
    for a in range(n):
        for b in range(a + 1, n):
            for u in [(1.0, 0.0, 0.0, 0.0)] + units:
                m = np.zeros((n, n, 4))
                m[a, b] = u
                m[b, a] = (-u[0], u[1], u[2], u[3])  # minus conjugate
                out.append(m)
    return out


def _realize_quaternionic(qmat: np.ndarray, unit_matrices: np.ndarray) -> np.ndarray:
    """Real operator of a quaternionic matrix, entries expanded in given units.

    ``unit_matrices`` holds the images of 1, i, j, k as real blocks; with the
    left-multiplication table this is the standard sp(n) action on H^n, with
    a commutant triple it is the action commuting with a Clifford module.
    """
    n, blk = qmat.shape[0], unit_matrices.shape[1]
    return np.einsum("abu,uij->aibj", qmat, unit_matrices).reshape(n * blk, n * blk)


_LEFT_UNITS = np.array([quaternion_left(q) for q in
                        ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))],
                       dtype=float)
_LEFT_UNITS.setflags(write=False)


# ---------------------------------------------------------------------------
# transitive sphere actions
# ---------------------------------------------------------------------------


def so_standard(n: int) -> Representation:
    return Representation(so_algebra(n), so_vector_matrices(n))


def su_standard(n: int) -> Representation:
    mats = np.array([realify_complex(m) for m in su_basis(n)])
    return algebra_of_matrices(mats)


def u_standard(n: int) -> Representation:
    mats = [realify_complex(m) for m in su_basis(n)]
    mats.append(realify_complex(1.0j * np.eye(n)))
    return algebra_of_matrices(np.array(mats))


def _sp_left(n: int) -> list[np.ndarray]:
    """sp(n) on H^n by quaternionic matrices on the left, one real operator per basis element."""
    return [_realize_quaternionic(q, _LEFT_UNITS) for q in sp_quaternion_basis(n)]


def sp_standard(n: int) -> Representation:
    return algebra_of_matrices(np.array(_sp_left(n)))


def _right_scalar_blocks(n: int, q) -> np.ndarray:
    """Right scalar multiplication on H^n (acts per block, commutes with sp(n))."""
    blk = quaternion_right(q)
    return np.kron(np.eye(n), blk)


def sp_sp1(n: int) -> Representation:
    """sp(n) + sp(1) on H^n: matrices on the left, unit scalars on the right."""
    mats = _sp_left(n)
    # minus sign turns the right-multiplication antihomomorphism into an action
    for q in ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)):
        mats.append(-_right_scalar_blocks(n, q))
    return algebra_of_matrices(np.array(mats))


def sp_u1(n: int) -> Representation:
    mats = _sp_left(n)
    mats.append(-_right_scalar_blocks(n, (0, 1, 0, 0)))
    return algebra_of_matrices(np.array(mats))


def spin7_eight() -> Representation:
    return spin_algebra(spin_module(7))


def spin9_sixteen() -> Representation:
    return spin_plus_one(spin_module(8))


def g2_seven() -> Representation:
    """Stabilizer of a unit spinor in the spin(7) action, acting on R^7.

    The 14-dimensional isotropy subalgebra of the first standard spinor is
    computed inside the bivector coordinates of spin(7), then pushed to the
    7-dimensional vector representation.
    """
    rep8 = spin_algebra(spin_module(7))
    psi = np.zeros(8)
    psi[0] = 1.0
    stab = isotropy_subalgebra(rep8, psi)
    vec = so_vector_matrices(7)
    mats = np.einsum("am,aij->mij", stab.basis, vec)
    return algebra_of_matrices(mats)


# ---------------------------------------------------------------------------
# isotropy actions of the two-block spaces
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def clifford_isotropy(n: int, copies: int) -> Representation:
    """Isotropy of the Clifford constructions on m1 + m2 = R^n + copies of the module.

    k0 is so(n) acting on m1 by rotations and on each copy of ``spin_module(n)``
    by halved bivectors; for n = 2, 3 it is followed by k1, the commutant
    sp(copies), labelled s0, s1, ..., which acts on the module copies only.
    Built once per key; its arrays are read-only.  More than one copy is
    wired only for n = 2, 3, where the commutant sp(copies) is the whole of it.
    """
    if copies < 1 or (copies > 1 and n in (6, 7)):
        raise ValueError(f"{copies} module copies: one is required, and more "
                         f"are wired only for n = 2, 3")
    module = spin_module(n)
    d2 = copies * module.module_dim
    spin = spin_algebra(module)
    k0 = spin.algebra.dim
    alg, k1 = spin.algebra, np.zeros((0, d2, d2))
    if n in (2, 3):
        # 1, i, j, k of the commutant: right multiplications by 1, j, k and -i,
        # which commute with the gammas; R(p) R(q) = R(q p) makes i j = k
        units = np.array([quaternion_right(q) for q in
                          ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, -1, 0, 0))], dtype=float)
        k1 = np.array([_realize_quaternionic(q, units) for q in sp_quaternion_basis(copies)])
        alg = direct_sum(alg, LieAlgebra(structure_constants_from_matrices(k1),
                                         labels=tuple(f"s{a}" for a in range(len(k1)))))
    mats = np.zeros((alg.dim, n + d2, n + d2))
    mats[:k0, :n, :n] = so_vector_matrices(n)
    mats[:k0, n:, n:] = np.kron(np.eye(copies), spin.matrices)
    mats[k0:, n:, n:] = k1
    return Representation(alg, mats)


def unitary_determinant_action(n: int) -> tuple[Representation, list[tuple[int, ...]]]:
    """u(n) on C + C^n, determinant on the line and standard on the rest, with its blocks."""
    std = u_standard(n)
    basis = su_basis(n) + [1.0j * np.eye(n)]  # the basis of u_standard
    m1 = np.array([realify_complex(np.array([[np.trace(m)]])) for m in basis])
    rep = rep_direct_sum(Representation(std.algebra, m1), std)
    return rep, [tuple(range(2)), tuple(range(2, 2 + 2 * n))]
