"""Finite-dimensional real Lie algebras given by structure constants.

Conventions
-----------
A ``LieAlgebra`` of dimension ``d`` stores a rank-3 tensor ``c`` with

    [b_i, b_j] = sum_k c[i, j, k] b_k,

so the adjoint matrix of a coefficient vector ``x`` is
``ad(x)[l, j] = sum_i x[i] c[i, j, l]``.  Antisymmetry ``c[i,j,:] == -c[j,i,:]``
is required exactly; the Jacobi identity is a measured residual, never an
assumption, because several constructions in this package deliberately
produce tensors that violate it (that violation is the computed signal).

Structure constants of catalog algebras are integers, halves or multiples of
1/sqrt(2); all residuals on valid algebras therefore reflect round-off only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    RANK_RTOL,
    nullspace,
    orthonormal_columns,
    projector,
    residual_scale,
    signature,
    solve_least_squares,
    subspace_gap,
)

__all__ = [
    "LieAlgebra",
    "Subspace",
    "ValidationError",
    "abelian",
    "ad_matrix",
    "bracket",
    "center",
    "center_dimension",
    "direct_sum",
    "from_json_dict",
    "jacobi_residual",
    "jacobiator",
    "killing_form",
    "killing_invariance_residual",
    "nilpotency_class",
    "place_action",
    "pullback_structure",
    "semidirect_sum",
    "signature",
    "structure_constants_from_matrices",
    "subalgebra",
    "to_json_dict",
    "weyl_flip",
    "worst_jacobi_triple",
]

JACOBI_TOL = 1e-9


class ValidationError(ValueError):
    """A constructed bracket failed validation.

    Attributes
    ----------
    residual : float
        Normalized Jacobi residual of the offending tensor.
    triple : tuple or None
        Basis triple realizing the worst residual.
    """

    def __init__(self, message, residual=None, triple=None):
        super().__init__(message)
        self.residual = residual
        self.triple = triple


@dataclass
class LieAlgebra:
    """Real Lie algebra as a structure-constant tensor with an inner product.

    Parameters
    ----------
    c : (d, d, d) array
        Structure constants; must be exactly antisymmetric in the first two
        indices.
    inner_product : (d, d) array, optional
        Symmetric positive-definite form; defaults to the identity (the basis
        is declared orthonormal).
    labels : tuple of str, optional
        Basis labels for display and export.
    """

    c: np.ndarray
    inner_product: np.ndarray | None = None
    labels: tuple[str, ...] | None = None
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure constants must be a cubic rank-3 array")
        if not np.array_equal(c, -c.transpose(1, 0, 2)):
            raise ValueError("structure constants must be exactly antisymmetric")
        c.setflags(write=False)
        self.c = c
        d = c.shape[0]
        if self.inner_product is None:
            ip = np.eye(d)
        else:
            ip = np.asarray(self.inner_product, dtype=float)
            if ip.shape != (d, d) or not np.allclose(ip, ip.T):
                raise ValueError("inner product must be a symmetric d x d matrix")
            if np.linalg.eigvalsh(ip).min() <= 0:
                raise ValueError("inner product must be positive definite")
        ip.setflags(write=False)
        self.inner_product = ip
        if self.labels is not None:
            self.labels = tuple(self.labels)
            if len(self.labels) != d:
                raise ValueError("label count must match dimension")

    @property
    def dim(self) -> int:
        return self.c.shape[0]

    def with_notes(self, *notes: str) -> "LieAlgebra":
        return LieAlgebra(self.c, self.inner_product, self.labels, self.notes + tuple(notes))


def antisymmetrized(upper: np.ndarray) -> np.ndarray:
    """Mirror the strict upper triangle ``c[i<j]`` into an exact tensor."""
    c = np.array(upper, dtype=float)
    d = c.shape[0]
    for i in range(d):
        c[i, i, :] = 0.0
        for j in range(i):
            c[i, j, :] = -c[j, i, :]
    return c


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(np.zeros((dim, dim, dim)))


def bracket(alg: LieAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bracket of two coefficient vectors, ``sum_{ij} x_i y_j c[i,j,:]``."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (alg.dim,) or y.shape != (alg.dim,):
        raise ValueError("vector length must equal the algebra dimension")
    return np.einsum("i,j,ijk->k", x, y, alg.c)


def ad_matrix(alg: LieAlgebra, x: np.ndarray) -> np.ndarray:
    """Matrix of ``ad(x) : y -> [x, y]`` in the given basis."""
    x = np.asarray(x, dtype=float)
    return np.einsum("i,ijk->kj", x, alg.c)


def jacobiator(alg: LieAlgebra) -> np.ndarray:
    """Tensor ``J[i,j,k,:] = [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j]``."""
    c = alg.c
    t1 = np.einsum("ijm,mkl->ijkl", c, c)
    t2 = np.einsum("jkm,mil->ijkl", c, c)
    t3 = np.einsum("kim,mjl->ijkl", c, c)
    return t1 + t2 + t3


def jacobi_residual(alg: LieAlgebra) -> float:
    """Worst Jacobi violation over basis triples, scale free.

    Max over triples (i, j, k) of the Euclidean norm of the jacobiator,
    divided by the largest structure-constant magnitude (0 if all constants
    vanish).  The normalization makes the residual invariant under an overall
    rescaling of the bracket.
    """
    scale = np.abs(alg.c).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    jac = jacobiator(alg)
    return float(np.sqrt((jac ** 2).sum(axis=3)).max() / scale)


def worst_jacobi_triple(alg: LieAlgebra) -> tuple[tuple[int, int, int], float]:
    """Basis triple with the largest (normalized) Jacobi violation."""
    scale = np.abs(alg.c).max(initial=0.0)
    if scale == 0.0:
        return (0, 0, 0), 0.0
    norms = np.sqrt((jacobiator(alg) ** 2).sum(axis=3))
    idx = np.unravel_index(int(np.argmax(norms)), norms.shape)
    return tuple(int(v) for v in idx), float(norms[idx] / scale)


def require_valid(alg: LieAlgebra, tol: float = JACOBI_TOL, what: str = "algebra") -> LieAlgebra:
    res = jacobi_residual(alg)
    if res >= tol:
        triple, worst = worst_jacobi_triple(alg)
        raise ValidationError(
            f"{what}: Jacobi residual {worst:.3e} at basis triple {triple} exceeds {tol:.1e}",
            residual=worst,
            triple=triple,
        )
    return alg


def killing_form(alg: LieAlgebra) -> np.ndarray:
    """Killing form ``B(x, y) = trace(ad_x ad_y)`` on the basis."""
    b = np.einsum("ajl,blj->ab", alg.c, alg.c)
    return 0.5 * (b + b.T)


def killing_invariance_residual(alg: LieAlgebra) -> float:
    """Max of ``|B([z,x],y) + B(x,[z,y])|`` over basis triples, relative to ``|B|``."""
    b = killing_form(alg)
    scale = np.abs(b).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    # term[z,x,y] = B([b_z, b_x], y) + B(x, [b_z, b_y])
    t = np.einsum("zxm,my->zxy", alg.c, b) + np.einsum("zym,xm->zxy", alg.c, b)
    return float(np.abs(t).max() / scale)


def center(alg: LieAlgebra) -> "Subspace":
    """Center ``{x : [x, g] = 0}`` as a subspace of the algebra."""
    d = alg.dim
    a = alg.c.transpose(1, 2, 0).reshape(d * d, d)
    return Subspace(d, nullspace(a))


def center_dimension(alg: LieAlgebra) -> int:
    return center(alg).dim


def nilpotency_class(alg: LieAlgebra, max_steps: int = 64) -> int | None:
    """Length of the lower central series, or None if it never reaches zero."""
    span = np.eye(alg.dim)
    for step in range(1, max_steps + 1):
        images = np.einsum("ijl,jm->lim", alg.c, span).reshape(alg.dim, -1)
        span = orthonormal_columns(images)
        if span.shape[1] == 0:
            return step
    return None


def direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    """Block direct sum; Jacobi residual is bounded by the inputs'."""
    da, db = a.dim, b.dim
    c = np.zeros((da + db,) * 3)
    c[:da, :da, :da] = a.c
    c[da:, da:, da:] = b.c
    ip = np.zeros((da + db, da + db))
    ip[:da, :da] = a.inner_product
    ip[da:, da:] = b.inner_product
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = a.labels + b.labels
    return LieAlgebra(c, ip, labels)


def place_action(c: np.ndarray, acting_idx, module_idx, mats: np.ndarray) -> None:
    """Write an action of basis elements on a block into ``c``, mirrored exactly.

    ``mats[a]`` is the matrix by which ``acting_idx[a]`` acts on the block
    spanned by ``module_idx``, so ``c[a, x, y] = mats[a][y, x]`` and
    ``c[x, a, y] = -mats[a][y, x]``.
    """
    c[np.ix_(acting_idx, module_idx, module_idx)] = mats.transpose(0, 2, 1)
    c[np.ix_(module_idx, acting_idx, module_idx)] = -mats.transpose(2, 0, 1)


def semidirect_sum(acting: LieAlgebra, rep, tol: float = JACOBI_TOL) -> LieAlgebra:
    """Semidirect sum of ``acting`` with the abelian ideal it acts on.

    ``rep`` must carry ``.algebra`` (the acting algebra) and ``.matrices``
    (one operator per basis element).  The bracket is

        [(x, u), (y, v)] = ([x, y], rho(x) v - rho(y) u).

    Raises ``ValidationError`` when the matrices fail the commutation rule of
    a representation beyond ``tol``.
    """
    mats = np.asarray(rep.matrices, dtype=float)
    if mats.shape[0] != acting.dim:
        raise ValueError("representation matrix count must match the acting dimension")
    comm = np.einsum("aij,bjk->abik", mats, mats)
    comm = comm - comm.transpose(1, 0, 2, 3)
    expect = np.einsum("abm,mik->abik", acting.c, mats)
    hom_res = float(np.abs(comm - expect).max() / residual_scale(mats))
    if hom_res >= tol:
        raise ValidationError(
            f"invalid representation: commutation residual {hom_res:.3e}", residual=hom_res
        )
    da, dv = acting.dim, mats.shape[1]
    c = np.zeros((da + dv,) * 3)
    c[:da, :da, :da] = acting.c
    place_action(c, np.arange(da), np.arange(da, da + dv), mats)
    return LieAlgebra(c)


def pullback_structure(alg: LieAlgebra, f: np.ndarray) -> LieAlgebra:
    """Structure constants of the bracket pulled back by an invertible map.

    ``[x, y]' = f^{-1} [f x, f y]`` expressed in the original basis.
    """
    f = np.asarray(f, dtype=float)
    finv = np.linalg.inv(f)
    c = np.einsum("pi,qj,pqm,lm->ijl", f, f, alg.c, finv)
    c = 0.5 * (c - c.transpose(1, 0, 2))  # kill round-off asymmetry exactly
    return LieAlgebra(c, alg.inner_product, alg.labels)


def subalgebra(alg: LieAlgebra, indices, tol: float = 1e-8) -> LieAlgebra:
    """Restriction to a coordinate-aligned subalgebra.

    Raises ``ValidationError`` when the span of the selected basis vectors is
    not closed under the bracket within ``tol``.
    """
    idx = np.asarray(indices, dtype=int)
    comp = np.setdiff1d(np.arange(alg.dim), idx)
    leak = np.abs(alg.c[np.ix_(idx, idx, comp)]).max(initial=0.0) / residual_scale(alg.c)
    if leak >= tol:
        raise ValidationError(f"not a subalgebra: closure residual {leak:.3e}", residual=leak)
    sub = alg.c[np.ix_(idx, idx, idx)].copy()
    labels = tuple(alg.labels[i] for i in idx) if alg.labels is not None else None
    return LieAlgebra(sub, alg.inner_product[np.ix_(idx, idx)], labels)


def weyl_flip(alg: LieAlgebra, block_indices, tol: float = 1e-10) -> LieAlgebra:
    """Noncompact dual: flip the sign of brackets inside one block.

    Requires the grading of a symmetric pair, i.e. with B the block and H its
    complement: [B,B] in H, [H,B] in B, [H,H] in H (all within ``tol``).  The
    returned tensor multiplies the (B,B) entries by -1, which is conjugation
    of the block by the imaginary unit.
    """
    b = np.asarray(block_indices, dtype=int)
    h = np.setdiff1d(np.arange(alg.dim), b)
    scale = residual_scale(alg.c)
    bad = max(
        np.abs(alg.c[np.ix_(b, b, b)]).max(initial=0.0),
        np.abs(alg.c[np.ix_(h, b, h)]).max(initial=0.0),
        np.abs(alg.c[np.ix_(h, h, b)]).max(initial=0.0),
    )
    if bad / scale >= tol:
        raise ValidationError(
            f"block is not the odd part of a symmetric pair (residual {bad / scale:.3e})",
            residual=bad / scale,
        )
    c = np.array(alg.c)
    c[np.ix_(b, b)] *= -1.0
    return LieAlgebra(c, alg.inner_product, alg.labels)


def structure_constants_from_matrices(
    matrices, tol: float = 1e-8
) -> np.ndarray:
    """Structure constants of a matrix Lie algebra with the given basis.

    The commutator of every basis pair is expanded in the basis by least
    squares; a residual above ``tol`` (relative) means the matrices do not
    close under commutators and raises ``ValidationError``.  Antisymmetry of
    the result is exact by construction.
    """
    mats = np.asarray(matrices, dtype=float)
    k = mats.shape[0]
    flat = mats.reshape(k, -1)
    comms = np.einsum("aij,bjk->abik", mats, mats)
    comms = (comms - comms.transpose(1, 0, 2, 3)).reshape(k, k, -1)
    coeffs = solve_least_squares(flat.T, comms.reshape(k * k, -1).T)
    coeffs = coeffs.T.reshape(k, k, k)
    recon = np.einsum("abm,md->abd", coeffs, flat)
    res = np.abs(recon - comms).max(initial=0.0) / residual_scale(mats)
    if res >= tol:
        raise ValidationError(f"matrices do not close under commutators ({res:.3e})", residual=res)
    return antisymmetrized(coeffs)


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


@dataclass
class Subspace:
    """Subspace of R^n stored as orthonormal basis columns.

    ``indices`` holds the ambient coordinates of a coordinate subspace (see
    :meth:`coordinate`) and is None for a general basis.
    """

    ambient_dim: int
    basis: np.ndarray
    indices: tuple[int, ...] | None = field(default=None, init=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[0] != self.ambient_dim:
            raise ValueError("basis rows must match the ambient dimension")
        if b.shape[1]:
            g = b.T @ b
            if np.abs(g - np.eye(b.shape[1])).max() > 1e-8:
                raise ValueError("basis columns must be orthonormal")
        b.setflags(write=False)
        self.basis = b

    @classmethod
    def from_spanning(cls, ambient_dim: int, vectors, rtol: float = RANK_RTOL) -> "Subspace":
        v = np.asarray(vectors, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        return cls(ambient_dim, orthonormal_columns(v, rtol))

    @classmethod
    def coordinate(cls, ambient_dim: int, indices) -> "Subspace":
        idx = tuple(int(i) for i in indices)
        b = np.zeros((ambient_dim, len(idx)))
        for col, i in enumerate(idx):
            b[i, col] = 1.0
        sub = cls(ambient_dim, b)
        sub.indices = idx
        return sub

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0)))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def coordinate_indices(self) -> tuple[int, ...]:
        """The ambient coordinates of a coordinate subspace; ValueError otherwise."""
        if self.indices is None:
            raise ValueError("not a coordinate subspace: its basis is not a set of unit vectors")
        return self.indices

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.basis @ (self.basis.T @ np.asarray(v, dtype=float))

    def contains(self, v: np.ndarray, tol: float = 1e-8) -> bool:
        v = np.asarray(v, dtype=float)
        n = np.linalg.norm(v)
        if n == 0:
            return True
        return np.linalg.norm(v - self.project(v)) <= tol * n

    def equals(self, other: "Subspace", tol: float = 1e-8) -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return subspace_gap(self.basis, other.basis) <= tol

    def projector(self) -> np.ndarray:
        return projector(self.basis)


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def to_json_dict(alg: LieAlgebra) -> dict:
    """Sparse JSON form: triples [i, j, k, value] with i < j.

    The inner product is included only when it differs from the identity, the
    labels only when present.  Values round-trip bit exactly through the
    standard JSON encoder.
    """
    d = alg.dim
    triples = []
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(d):
                v = alg.c[i, j, k]
                if v != 0.0:
                    triples.append([i, j, k, float(v)])
    out: dict = {"dim": d, "c": triples}
    if not np.array_equal(alg.inner_product, np.eye(d)):
        out["inner_product"] = alg.inner_product.tolist()
    if alg.labels is not None:
        out["labels"] = list(alg.labels)
    return out


def from_json_dict(data: dict) -> LieAlgebra:
    d = int(data["dim"])
    c = np.zeros((d, d, d))
    for i, j, k, v in data["c"]:
        if not 0 <= i < j < d:
            raise ValueError("sparse triples must satisfy 0 <= i < j < dim")
        c[i, j, k] = v
        c[j, i, k] = -v
    ip = np.asarray(data["inner_product"], dtype=float) if "inner_product" in data else None
    labels = tuple(data["labels"]) if "labels" in data else None
    return LieAlgebra(c, ip, labels)


def dumps(alg: LieAlgebra) -> str:
    return json.dumps(to_json_dict(alg), separators=(",", ":"))


def loads(text: str) -> LieAlgebra:
    return from_json_dict(json.loads(text))


def matrix_to_json_dict(m: np.ndarray) -> dict:
    """Sparse matrix form matching the structure-constant schema: [i, j, value]."""
    m = np.asarray(m, dtype=float)
    entries = [[int(i), int(j), float(v)] for (i, j), v in np.ndenumerate(m) if v != 0.0]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "entries": entries}


def matrix_from_json_dict(data: dict) -> np.ndarray:
    m = np.zeros((int(data["rows"]), int(data["cols"])))
    for i, j, v in data["entries"]:
        m[i, j] = v
    return m
