"""Clifford algebra Cl_n with e_i e_j + e_j e_i = -2 delta_ij.

Two realizations live here and are cross-checked against each other:

* blade arithmetic on formal products of generators (exact sign bookkeeping),
* gamma-matrix modules: n anticommuting, skew, orthogonal integer matrices.

The gamma systems are assembled from 2x2 tiles I, J, P, Q (identity, rotation,
swap, parity) by tensoring, so every matrix has entries in {0, +-1} and all
identities below hold in exact integer arithmetic.  Module dimensions are the
minimal real ones: 4, 4, 8, 8, 8, 8, 16, 32 for n = 2..9.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import LieAlgebra, antisymmetrized

__all__ = [
    "CliffordElement",
    "CliffordModule",
    "SpinEmbedding",
    "blade",
    "clifford_multiply",
    "complex_structure",
    "export_gammas",
    "generator",
    "quaternion_units",
    "scalar",
    "spin_algebra",
    "spin_module",
    "spin_plus_one",
    "vector_action",
]

_I = np.eye(2)
_J = np.array([[0.0, -1.0], [1.0, 0.0]])
_P = np.array([[0.0, 1.0], [1.0, 0.0]])
_Q = np.array([[1.0, 0.0], [0.0, -1.0]])


def _kron(*tiles: np.ndarray) -> np.ndarray:
    return reduce(np.kron, tiles)


# Seven anticommuting complex structures on R^8 (the most Radon-Hurwitz
# allows); truncations give the minimal modules for n = 4..7.
_CL7 = [
    _kron(_J, _P, _I),
    _kron(_J, _Q, _I),
    _kron(_J, _J, _J),
    _kron(_I, _J, _P),
    _kron(_I, _J, _Q),
    _kron(_P, _I, _J),
    _kron(_Q, _I, _J),
]


# ---------------------------------------------------------------------------
# Blades
# ---------------------------------------------------------------------------


def _mul_indices(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[float, tuple[int, ...]]:
    """Sign and sorted index set of the product of two basis blades."""
    seq = list(a) + list(b)
    sign = 1.0
    # insertion sort counting transpositions, contracting equal neighbours
    i = 0
    while i < len(seq) - 1:
        if seq[i] == seq[i + 1]:
            del seq[i:i + 2]
            sign = -sign  # e_k e_k = -1
            i = max(i - 1, 0)
        elif seq[i] > seq[i + 1]:
            seq[i], seq[i + 1] = seq[i + 1], seq[i]
            sign = -sign
            i = max(i - 1, 0)
        else:
            i += 1
    return sign, tuple(seq)


@dataclass
class CliffordElement:
    """Element of Cl_n: map from sorted generator index tuples to coefficients."""

    n: int
    blades: dict

    def __post_init__(self):
        clean = {}
        for idx, coeff in self.blades.items():
            idx = tuple(int(i) for i in idx)
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"blade index set {idx} is not strictly increasing")
            if any(i < 1 or i > self.n for i in idx):
                raise ValueError("blade index out of range")
            if coeff != 0.0:
                clean[idx] = float(coeff)
        self.blades = clean

    def __eq__(self, other) -> bool:
        return isinstance(other, CliffordElement) and self.n == other.n \
            and self.blades == other.blades


def scalar(n: int, value: float) -> CliffordElement:
    return CliffordElement(n, {(): value})


def generator(n: int, i: int) -> CliffordElement:
    return CliffordElement(n, {(i,): 1.0})


def blade(n: int, indices, coeff: float = 1.0) -> CliffordElement:
    return CliffordElement(n, {tuple(indices): coeff})


def clifford_multiply(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Associative product under the relation e_i e_j + e_j e_i = -2 delta_ij."""
    if a.n != b.n:
        raise ValueError("mismatched generator counts")
    out: dict = {}
    for ia, ca in a.blades.items():
        for ib, cb in b.blades.items():
            sign, idx = _mul_indices(ia, ib)
            out[idx] = out.get(idx, 0.0) + sign * ca * cb
    return CliffordElement(a.n, out)


# ---------------------------------------------------------------------------
# Gamma-matrix modules
# ---------------------------------------------------------------------------


@dataclass
class CliffordModule:
    """Real module given by gamma matrices Gamma_1..Gamma_n.

    Invariants (exact, integer entries): each Gamma_i is skew and orthogonal,
    and Gamma_i Gamma_j + Gamma_j Gamma_i = -2 delta_ij I.
    """

    n: int
    gammas: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gammas, dtype=float)
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
        self.gammas = g

    @property
    def module_dim(self) -> int:
        return self.gammas.shape[1]

    def blade_matrix(self, indices) -> np.ndarray:
        """Matrix of a basis blade acting on the module (empty tuple: identity)."""
        m = np.eye(self.module_dim)
        for i in indices:
            m = m @ self.gammas[i - 1]
        return m

    def element_matrix(self, x: CliffordElement) -> np.ndarray:
        if x.n != self.n:
            raise ValueError("element belongs to a different Cl_n")
        m = np.zeros((self.module_dim, self.module_dim))
        for idx, coeff in x.blades.items():
            m += coeff * self.blade_matrix(idx)
        return m


def spin_module(n: int) -> CliffordModule:
    """Minimal real Clifford module for Cl_n, 2 <= n <= 9.

    Module dimensions are 4, 4, 8, 8, 8, 8, 16, 32.  The n = 8 and n = 9
    systems are produced from the R^8 system by the doubling step
    {Gamma_i} -> {Q (x) Gamma_i} + {J (x) I}.
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


def vector_action(module: CliffordModule, z) -> np.ndarray:
    """Clifford action of a vector z in R^n: sum_i z_i Gamma_i.

    Skew, and squares to -|z|^2 times the identity.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (module.n,):
        raise ValueError("vector length must equal the generator count")
    return np.einsum("i,ijk->jk", z, module.gammas)


def bivector_pairs(n: int) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, ordering the so(n) basis used throughout."""
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def so_structure_tensor(n: int) -> np.ndarray:
    """Structure constants of so(n) on the bivector basis L_ij (i < j).

    With L_ij realized as E_ji - E_ij (or as (1/2) Gamma_i Gamma_j, which has
    the same commutators):

        [L_ij, L_kl] = -d_jk L_il + d_ik L_jl + d_jl L_ik - d_il L_jk,

    under the conventions L_ji = -L_ij and L_ii = 0.
    """
    pairs = bivector_pairs(n)
    index = {p: a for a, p in enumerate(pairs)}

    def put(c, row, col, i, j, sign):
        if i == j:
            return
        if i < j:
            c[row, col, index[(i, j)]] += sign
        else:
            c[row, col, index[(j, i)]] -= sign

    m = len(pairs)
    c = np.zeros((m, m, m))
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            if a >= b:
                continue
            if j == k:
                put(c, a, b, i, l, -1.0)
            if i == k:
                put(c, a, b, j, l, 1.0)
            if j == l:
                put(c, a, b, i, k, 1.0)
            if i == l:
                put(c, a, b, j, k, -1.0)
    return antisymmetrized(c)


def so_vector_matrices(n: int) -> np.ndarray:
    """Standard rotation generators A_ij = E_ji - E_ij matching bivector_pairs."""
    pairs = bivector_pairs(n)
    mats = np.zeros((len(pairs), n, n))
    for a, (i, j) in enumerate(pairs):
        mats[a, j - 1, i - 1] = 1.0
        mats[a, i - 1, j - 1] = -1.0
    return mats


@dataclass
class SpinEmbedding:
    """so(n) realized as halved bivectors inside a Clifford module.

    ``matrices[a] = (1/2) Gamma_i Gamma_j`` for the a-th pair (i, j); the map
    L_ij -> A_ij onto ``so_vector_matrices`` is the vector representation.
    """

    module: CliffordModule
    pairs: tuple[tuple[int, int], ...]
    algebra: LieAlgebra
    matrices: np.ndarray


def spin_algebra(module: CliffordModule) -> SpinEmbedding:
    """Lie algebra spanned by (1/2) Gamma_i Gamma_j with its module action."""
    n = module.n
    pairs = bivector_pairs(n)
    mats = np.array([0.5 * module.gammas[i - 1] @ module.gammas[j - 1] for i, j in pairs])
    labels = tuple(f"e{i}e{j}" for i, j in pairs)
    alg = LieAlgebra(so_structure_tensor(n), labels=labels)
    return SpinEmbedding(module, tuple(pairs), alg, mats)


def spin_plus_one(module: CliffordModule) -> tuple[LieAlgebra, np.ndarray]:
    """so(n+1) acting on the Cl_n module by bivectors plus halved vectors.

    Basis order follows ``bivector_pairs(n + 1)`` where index n+1 plays the
    added direction: L_ij -> (1/2) Gamma_i Gamma_j and L_{i,n+1} -> (1/2)
    Gamma_i.  This is the spinor realization behind the transitive sphere
    actions in dimension 16 (n = 8).
    """
    n = module.n
    pairs = bivector_pairs(n + 1)
    mats = []
    for (i, j) in pairs:
        if j <= n:
            mats.append(0.5 * module.gammas[i - 1] @ module.gammas[j - 1])
        else:
            mats.append(0.5 * module.gammas[i - 1])
    labels = tuple(f"L{i},{j}" for i, j in pairs)
    alg = LieAlgebra(so_structure_tensor(n + 1), labels=labels)
    return alg, np.array(mats)


def complex_structure(module: CliffordModule) -> np.ndarray:
    """Integer complex structure on the module commuting with all bivectors.

    Realized as the Clifford volume element Gamma_1 ... Gamma_n, which squares
    to -I exactly when n = 2 mod 4 (the two cases needed here are n = 2 and
    n = 6); it anticommutes with each generator but commutes with the even
    part, hence with the whole spin action.
    """
    if module.n % 4 != 2:
        raise ValueError("volume element squares to -I only for n = 2 mod 4")
    vol = module.blade_matrix(tuple(range(1, module.n + 1)))
    d = module.module_dim
    if not np.array_equal(vol @ vol, -np.eye(d)):
        raise AssertionError("volume element failed J^2 = -I")
    return vol


def export_gammas(module: CliffordModule) -> dict:
    """Gamma matrices in the shared sparse JSON matrix format."""
    from .algebra import matrix_to_json_dict

    return {"n": module.n, "module_dim": module.module_dim,
            "gammas": [matrix_to_json_dict(g) for g in module.gammas]}


def quaternion_units(module: CliffordModule) -> np.ndarray:
    """Commutant quaternion units (i, j, k) for the 4-dimensional modules.

    Three integer matrices that commute with every gamma, satisfy the
    quaternion relations and are skew; they generate the sp(1) of operators
    commuting with the Cl_2 / Cl_3 action on R^4.
    """
    if module.module_dim != 4 or module.n not in (2, 3):
        raise ValueError("quaternion commutant units are provided for the R^4 modules")
    units = np.array([_kron(_J, _I), _kron(_P, _J), -_kron(_Q, _J)])
    eye = np.eye(4)
    # exact checks: commutation with gammas and the quaternion table
    for u in units:
        for g in module.gammas:
            if not np.array_equal(u @ g, g @ u):
                raise AssertionError("commutant unit fails to commute with a gamma")
    i, j, k = units
    for u in units:
        if not np.array_equal(u @ u, -eye):
            raise AssertionError("commutant unit fails u^2 = -I")
    if not (np.array_equal(i @ j, k) and np.array_equal(j @ k, i) and np.array_equal(k @ i, j)):
        raise AssertionError("commutant units fail the quaternion relations")
    return units
