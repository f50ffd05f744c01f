"""Clifford algebra Cl_n with e_i e_j + e_j e_i = -2 delta_ij, realized by
gamma-matrix modules: n anticommuting, skew, orthogonal integer matrices.

The gamma systems are assembled from 2x2 tiles I, J, P, Q (identity, rotation,
swap, parity) by tensoring, so every matrix has entries in {0, +-1} and all
identities below hold in exact integer arithmetic.  Module dimensions are the
minimal real ones: 4, 4, 8, 8, 8, 8, 16, 32 for n = 2..9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .algebra import LieAlgebra, structure_constants_from_matrices
from .reps import Representation

__all__ = [
    "CliffordModule",
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

