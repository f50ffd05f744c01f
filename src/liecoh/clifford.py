"""Clifford algebra Cl_n with e_i e_j + e_j e_i = -2 delta_ij, realized by
gamma-matrix modules: n anticommuting, skew, orthogonal integer matrices.

The gamma systems are assembled from 2x2 tiles I, J, P, Q (identity, rotation,
swap, parity) by tensoring, so every matrix has entries in {0, +-1} and all
identities below hold in exact integer arithmetic.  Module dimensions are the
minimal real ones: 4, 4, 8, 8, 8, 8, 16, 32 for n = 2..9.

Every gamma is monomial on the bit-indexed module basis w_x, x in F_2^m:
Gamma_i w_x = s_i(x) w_{x xor a_i}, with a sign s_i(x) = +-1 and a fixed
a_i, since each tile maps a basis vector to plus or minus one.  At n = 7
the a_i are the seven nonzero vectors of F_2^3, and every linear map M of
F_2^3 permutes them; ``gamma_lifts`` lifts a few such M to signed
permutations Q of the module with Q Gamma_i Q^-1 = eps_i Gamma_pi(i)
(the Fano-plane collineations behind the octonions; Baez, "The octonions",
*Bull. AMS* 39, 2002).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .algebra import LieAlgebra, structure_constants_from_matrices
from .reps import Representation

__all__ = [
    "CliffordModule",
    "gamma_lifts",
    "so_algebra",
    "spin_algebra",
    "spin_module",
    "spin_plus_one",
]


def _read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: the tiles and ``_CL7`` are shared by every build."""
    a.setflags(write=False)
    return a


_I = _read_only(np.eye(2))
_J = _read_only(np.array([[0.0, -1.0], [1.0, 0.0]]))
_P = _read_only(np.array([[0.0, 1.0], [1.0, 0.0]]))
_Q = _read_only(np.array([[1.0, 0.0], [0.0, -1.0]]))


def _kron(*tiles: np.ndarray) -> np.ndarray:
    return reduce(np.kron, tiles)


# Seven anticommuting complex structures on R^8 (the most Radon-Hurwitz
# allows); truncations give the minimal modules for n = 4..7.
_CL7 = tuple(_read_only(_kron(*tiles)) for tiles in (
    (_J, _P, _I),
    (_J, _Q, _I),
    (_J, _J, _J),
    (_I, _J, _P),
    (_I, _J, _Q),
    (_P, _I, _J),
    (_Q, _I, _J),
))


# ---------------------------------------------------------------------------
# Gamma-matrix modules
# ---------------------------------------------------------------------------


@dataclass(eq=False, frozen=True)
class CliffordModule:
    """Real module given by gamma matrices Gamma_1..Gamma_n.

    Invariants (exact, integer entries): each Gamma_i is skew and orthogonal,
    and Gamma_i Gamma_j + Gamma_j Gamma_i = -2 delta_ij I.  The fields are
    frozen and the gammas read-only, so a cached module cannot be changed.
    """

    n: int
    gammas: np.ndarray

    def __post_init__(self):
        g = np.array(self.gammas, dtype=float)  # a copy: the caller's array stays writable
        if g.ndim != 3 or g.shape[0] != self.n or g.shape[1] != g.shape[2]:
            raise ValueError("gammas must be n square matrices")
        d = g.shape[1]
        for i in range(self.n):
            if not np.array_equal(g[i], -g[i].T):
                raise ValueError(f"Gamma_{i + 1} is not skew")
            for j in range(i, self.n):
                anti = g[i] @ g[j] + g[j] @ g[i]
                target = -2.0 * np.eye(d) if i == j else np.zeros((d, d))
                if not np.array_equal(anti, target):
                    raise ValueError(f"anticommutation fails at ({i + 1}, {j + 1})")
        g.setflags(write=False)
        object.__setattr__(self, "gammas", g)

    @property
    def module_dim(self) -> int:
        return self.gammas.shape[1]

    @property
    def shifts(self) -> np.ndarray:
        """The a_i of monomial gammas, ``Gamma_i w_x = +-w_{x xor a_i}``, read off w_0."""
        return np.abs(self.gammas[:, :, 0]).argmax(axis=1)


@lru_cache(maxsize=None)
def spin_module(n: int) -> CliffordModule:
    """Minimal real Clifford module for Cl_n, 2 <= n <= 9, built once per n.

    Module dimensions are 4, 4, 8, 8, 8, 8, 16, 32.  The n = 8 and n = 9
    systems are produced from the R^8 system by the doubling step
    {Gamma_i} -> {Q (x) Gamma_i} + {J (x) I}.  The gammas are read-only, so
    no caller can change the shared module.
    """
    if n == 2:
        gammas = [_kron(_J, _P), _kron(_J, _Q)]
    elif n == 3:
        gammas = [_kron(_J, _P), _kron(_J, _Q), _kron(_I, _J)]
    elif 4 <= n <= 7:
        gammas = _CL7[:n]
    elif n == 8:
        gammas = [_kron(_Q, g) for g in _CL7] + [_kron(_J, np.eye(8))]
    elif n == 9:
        eight = [_kron(_Q, g) for g in _CL7] + [_kron(_J, np.eye(8))]
        gammas = [_kron(_Q, g) for g in eight] + [_kron(_J, np.eye(16))]
    else:
        raise ValueError("spin_module supports 2 <= n <= 9")
    return CliffordModule(n, np.array(gammas))


# Images of the basis (u1, u2, u3) of F_2^3, u1 = a_7, that generate GL(3, 2):
# two maps fixing u1, of orders 3 and 4, which generate its stabilizer (of
# order 24), and a Singer cycle, of order 7 (x^3 + x + 1 is primitive over
# F_2), which makes the group all 168 maps.
_GL32_GENERATORS = (
    ((1, 0, 0), (0, 0, 1), (0, 1, 1)),
    ((1, 0, 0), (0, 0, 1), (1, 1, 0)),
    ((0, 1, 0), (0, 0, 1), (1, 1, 0)),
)


def _lift(g: np.ndarray, a: np.ndarray, s: np.ndarray, u: np.ndarray, images):
    """The lift ``(pi, eps, Q)`` of the map of F_2^3 sending ``u[k]`` to ``images[k]``.

    ``g`` are the gammas, monomial as ``Gamma_i w_x = s[i, x] w_{x ^ a[i]}``.
    With ``Q w_x = t(x) w_{Mx}``, the rule ``Q Gamma_i = eps_i Gamma_pi(i) Q``
    reads ``t(x ^ a_i) = eps_i t(x) s_i(x) s_pi(i)(Mx)``; ``t(0) = 1`` and
    ``eps = 1`` on the basis fix ``t``, and ``x = 0`` then gives every
    ``eps_i``.  The result is checked exactly, so an M that does not lift
    raises ``ValueError``.
    """
    d = g.shape[1]
    img = np.bitwise_xor.reduce(u * np.array(images), axis=1)  # M u[k]
    pos = np.zeros(d, dtype=int)
    pos[a] = np.arange(a.size)  # Gamma_pos[v] moves the bits v
    mx, t = np.zeros(d, dtype=int), np.ones(d, dtype=int)
    known = np.zeros(1, dtype=int)  # the span of u[:k], on which M and t are known
    for uk, mk in zip(u, img):
        mx[known ^ uk] = mx[known] ^ mk
        t[known ^ uk] = t[known] * s[pos[uk], known] * s[pos[mk], mx[known]]
        known = np.concatenate((known, known ^ uk))
    pi = pos[mx[a]]
    eps = t[a] * s[:, 0] * s[pi, 0]
    q = np.zeros((d, d), dtype=int)
    q[mx, np.arange(d)] = t
    gi = g.astype(int)
    if not np.array_equal(q @ gi @ q.T, eps[:, None, None] * gi[pi]):
        raise ValueError("the map of F_2^3 does not lift to the module")
    for array in (pi, eps, q):
        array.setflags(write=False)
    return pi, eps, q


@lru_cache(maxsize=None)
def gamma_lifts(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """A few monomial symmetries of ``spin_module(n)``, n = 6 or 7, built once per n.

    Each is ``(pi, eps, Q)``: a permutation ``pi`` of the gamma indices (0-based),
    signs ``eps`` and a signed permutation matrix ``Q`` of the module with
    ``Q Gamma_i Q^T = eps[i] Gamma_pi[i]`` exactly, all read-only integer
    arrays.  At n = 7 they lift generators of GL(3, 2), all 168 of whose
    elements lift, and their ``pi`` are transitive on the seven gammas.  The
    n = 6 gammas are the first six at n = 7, so n = 6 keeps the n = 7 lifts
    that fix Gamma_7, which generate its 24 liftable permutations, transitive
    on the six.  Other n raise ``ValueError``.
    """
    if n == 6:
        return tuple((pi[:6], eps[:6], q) for pi, eps, q in gamma_lifts(7) if pi[6] == 6)
    if n != 7:
        raise ValueError("gamma_lifts supports n = 6 and n = 7")
    g, a = spin_module(7).gammas, spin_module(7).shifts
    s = g.sum(axis=1).astype(int)  # s[i, x]: the one entry of Gamma_i's column x
    u = np.array([a[6], a[0], next(v for v in a[1:6] if v not in (0, a[6], a[0], a[6] ^ a[0]))])
    return tuple(_lift(g, a, s, u, images) for images in _GL32_GENERATORS)


def bivector_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, ordering the so(n) basis used throughout."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def so_vector_matrices(n: int) -> np.ndarray:
    """Standard rotation generators A_ij = E_ji - E_ij matching bivector_pairs."""
    pairs = bivector_pairs(n)
    mats = np.zeros((len(pairs), n, n))
    for a, (i, j) in enumerate(pairs):
        mats[a, j - 1, i - 1] = 1.0
        mats[a, i - 1, j - 1] = -1.0
    return mats


def so_algebra(n: int) -> LieAlgebra:
    """so(n) on the bivector basis, labelled L{i}{j} in ``bivector_pairs`` order.

    The constants are read off the commutators of ``so_vector_matrices``
    (realizing L_ij as E_ji - E_ij, or as (1/2) Gamma_i Gamma_j, which has the
    same commutators):

        [L_ij, L_kl] = -d_jk L_il + d_ik L_jl + d_jl L_ik - d_il L_jk,

    under the conventions L_ji = -L_ij and L_ii = 0.
    """
    return LieAlgebra(structure_constants_from_matrices(so_vector_matrices(n)),
                      labels=tuple(f"L{i}{j}" for i, j in bivector_pairs(n)))


def spin_algebra(module: CliffordModule) -> Representation:
    """so(n) acting on the module by halved bivectors.

    ``matrices[a] = (1/2) Gamma_i Gamma_j`` for the a-th pair (i, j) of
    ``bivector_pairs``; the map L_ij -> A_ij onto ``so_vector_matrices`` is the
    vector representation.
    """
    g = module.gammas
    mats = np.array([0.5 * g[i - 1] @ g[j - 1] for i, j in bivector_pairs(module.n)])
    return Representation(so_algebra(module.n), mats)


def spin_plus_one(module: CliffordModule) -> Representation:
    """so(n+1) acting on the Cl_n module by bivectors plus halved vectors.

    Basis order follows ``bivector_pairs(n + 1)`` where index n+1 plays the
    added direction: L_ij -> (1/2) Gamma_i Gamma_j and L_{i,n+1} -> (1/2)
    Gamma_i.  This is the spinor realization behind the transitive sphere
    actions in dimension 16 (n = 8).
    """
    n, g = module.n, module.gammas
    mats = [0.5 * g[i - 1] @ g[j - 1] if j <= n else 0.5 * g[i - 1]
            for i, j in bivector_pairs(n + 1)]
    return Representation(so_algebra(n + 1), mats)

