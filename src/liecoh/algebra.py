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
``worst_jacobi_triple`` measures it from ``c`` on every call: nothing is
cached on an algebra, whose only fields are ``c`` and ``labels``.

A ``Subspace`` is read only through its orthonormal basis, whose row count
is its ambient dimension: ``span_brackets``
contracts the constants against bases (a reductive space's only through
its frame read, ``ReductiveSpace.brackets``), so a block has the same
constants in any basis.  No function recovers indices from a ``Subspace``;
index sets are passed where a block is written (``place_action``) or
flipped (``weyl_flip``).

Structure constants of catalog algebras are plus or minus square roots of
rationals; all residuals on valid algebras therefore reflect round-off only.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

from .linalg import (
    ValidationError,
    matrix_rank,
    orthonormal_columns,
    projector,
    residual_scale,
    require_finite,
    signature,
    subspace_gap,
)

__all__ = [
    "LieAlgebra",
    "Subspace",
    "ValidationError",
    "abelian",
    "center_dimension",
    "commutators",
    "direct_sum",
    "jacobi_residual",
    "killing_form",
    "killing_invariance_residual",
    "nilpotency_class",
    "place_action",
    "require_below",
    "semidirect_sum",
    "signature",
    "span_brackets",
    "structure_constants_from_matrices",
    "to_json_dict",
    "weyl_flip",
    "worst_jacobi_triple",
]

# Relative residual bounds of the exactness gates (see ``require_below``).
JACOBI_TOL = 1e-9      # Jacobi identity, representation and skewness residuals
LEAK_TOL = 1e-8        # closure of subalgebras, invariance of blocks and kernels
GRADING_TOL = 1e-10    # grading of a symmetric pair in ``weyl_flip``
# Largest temporary array of the Jacobi kernels and of the completion assembly:
# they work in chunks of at most this size, so their temporaries stay bounded
# whatever the dimension of the algebra.
CHUNK_BYTES = 1 << 20


def require_below(residual: float, bound: float, what: str, triple=None) -> None:
    """Raise ``ValidationError`` unless ``residual < bound``.

    The one check behind every exactness gate.  It is written so that a NaN
    residual (from an infinite constant or matrix entry) fails.
    """
    if not residual < bound:
        raise ValidationError(f"{what}: residual {residual:.3e} is not below {bound:.1e}",
                              residual=residual, triple=triple)


@dataclass(eq=False, frozen=True)
class LieAlgebra:
    """Real Lie algebra as a structure-constant tensor in an orthonormal basis.

    Parameters
    ----------
    c : (d, d, d) array
        Structure constants; must be exactly antisymmetric in the first two
        indices.
    labels : tuple of str, optional
        Basis labels for display and export (keyword only).

    The fields are frozen and ``c`` is read-only, so a cached algebra cannot
    be changed.
    """

    c: np.ndarray
    _: KW_ONLY
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        c = np.array(self.c, dtype=float)  # a copy: the caller's array stays writable
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError("structure constants must be a cubic rank-3 array")
        if not np.array_equal(c, -c.transpose(1, 0, 2)):
            raise ValueError("structure constants must be exactly antisymmetric")
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        if self.labels is not None:
            object.__setattr__(self, "labels", tuple(self.labels))
            if len(self.labels) != c.shape[0]:
                raise ValueError("label count must match dimension")

    @property
    def dim(self) -> int:
        return self.c.shape[0]


def antisymmetrized(upper: np.ndarray) -> np.ndarray:
    """Mirror the strict upper triangle ``c[i<j]`` into an exact tensor."""
    c = np.array(upper, dtype=float)
    d = c.shape[0]
    i, j = np.tril_indices(d, -1)
    c[i, j] = -c[j, i]
    c[np.arange(d), np.arange(d)] = 0.0
    return c


def abelian(dim: int) -> LieAlgebra:
    return LieAlgebra(np.zeros((dim, dim, dim)))


def span_brackets(alg: LieAlgebra, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Brackets of basis columns, ``out[i, j, :] = [a_i, b_j]`` in ambient coordinates.

    Two matrix products, the first of them the one contraction of ``c``.
    """
    d = alg.dim
    return b.T @ (a.T @ alg.c.reshape(d, d * d)).reshape(a.shape[1], d, d)


def _unique(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(a, return_inverse=True)`` for a 1-d integer array.

    Written out because ``np.unique`` imports ``numpy.ma`` on first use,
    which costs more than a small solve.
    """
    order = np.argsort(a, kind="stable")
    sorted_a = a[order]
    first = np.ones(a.size, dtype=bool)
    first[1:] = sorted_a[1:] != sorted_a[:-1]
    inverse = np.empty(a.size, dtype=int)
    inverse[order] = np.cumsum(first) - 1
    return sorted_a[first], inverse


def _cyclic_order(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Distinct (x, y, z) that are a cyclic rotation of their sorted triple.

    The rotations of i < j < k are (i, j, k), (j, k, i) and (k, i, j): the
    ones with x < y < z, y < z < x or z < x < y.
    """
    return (x < y) & (y < z) | (y < z) & (z < x) | (z < x) & (x < y)


def _triple_key(x, y, z, l, d: int) -> np.ndarray:
    """``((i * d + j) * d + k) * d + l`` for the sorted triple i < j < k of (x, y, z).

    The one row encoding of the jacobiator: ``_join_jacobiator`` sorts on
    it and the completion system numbers its rows by it.
    """
    lo = np.minimum(np.minimum(x, y), z)
    hi = np.maximum(np.maximum(x, y), z)
    return ((lo * d + (x + y + z - lo - hi)) * d + hi) * d + l


def _join(left: np.ndarray, right: np.ndarray, chunk: int | None = None):
    """Index pairs ``(li, ri)`` with ``left[li] == right[ri]``, for a sorted ``right``.

    Pairs come in order of ``li``, then ``ri``, in chunks of at most ``chunk``
    pairs (all at once when None); one left entry's matches are never split.
    Yields at least once.
    """
    start = np.searchsorted(right, left, "left")
    count = np.searchsorted(right, left, "right") - start
    ends = np.cumsum(count)
    a = 0
    while True:
        base = int(ends[a - 1]) if a else 0
        b = left.size if chunk is None else int(np.searchsorted(ends, base + chunk, "right"))
        b = min(left.size, max(b, a + 1))
        cnt = count[a:b]
        li = np.repeat(np.arange(a, b), cnt)
        ri = np.arange(int(cnt.sum())) + np.repeat(start[a:b] - (ends[a:b] - cnt - base), cnt)
        yield li, ri
        a = b
        if a >= left.size:
            return


def _nonzeros(c: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flat index ``(i d + j) d + k`` and ``(i, j, k)`` of each nonzero ``c[i, j, k]``, in C order.

    A boolean mask finds them several times faster than the floats themselves.
    """
    d = c.shape[0]
    nz = np.flatnonzero(c.ravel() != 0.0)
    i, jk = np.divmod(nz, d * d)
    j, k = np.divmod(jk, d)
    return nz, i, j, k


def _join_pair_count(c: np.ndarray) -> int:
    """Products ``c[i,j,m] c[m,k,l]`` of two nonzeros: the work of the Jacobi join."""
    nz = c != 0
    return int(nz.sum(axis=(0, 1)) @ nz.sum(axis=(1, 2)))


def _joins(c: np.ndarray) -> bool:
    """Whether the worst-triple search joins the nonzeros of ``c`` rather than run slabs.

    At one BLAS thread the join costs about 70 ns per pair of nonzeros that
    share an index, the slabs about 0.3 ns per ``d^5`` (six flops) whatever
    the sparsity, so the join runs when its pair count is at most
    ``d^5 / 512``.  That holds for every catalog tensor from ``d = 16`` on
    (1.5-3% dense at ``d >= 21``); below, both kernels take under 0.3 ms.
    An algebra in a generic basis is dense (``d^5 / pairs`` near 1).
    """
    return 512 * _join_pair_count(c) <= c.shape[0] ** 5


def _join_jacobiator(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jacobiator of a sparse ``c`` by a join of its nonzeros, as sorted ``(key, J)``.

    ``key`` is the ``_triple_key`` of (i, j, k, l) for a sorted triple i < j < k.
    ``J[i,j,k,l]`` is the sum over the cyclic rotations (x, y, z) of the
    triple of ``c[x,y,m] c[m,z,l]``: nonzeros ``c[x,y,m]`` and ``c[m,z,l]``
    are joined on ``m``, chunk by chunk, and the products of a cyclic
    rotation are summed per key.  Keys without a product are left out.
    """
    d = c.shape[0]
    nz, i, j, k = _nonzeros(c)  # sorted on i: the right side of the join on k == i
    v = c.ravel()[nz]
    key = total = None
    for li, ri in _join(k, i, CHUNK_BYTES // 8):
        x, y, z = i[li], j[li], j[ri]
        keep = _cyclic_order(x, y, z)
        x, y, z, li, ri = x[keep], y[keep], z[keep], li[keep], ri[keep]
        chunk_key, inverse = _unique(_triple_key(x, y, z, k[ri], d))
        chunk_total = np.bincount(inverse, weights=v[li] * v[ri], minlength=chunk_key.size)
        if key is not None:  # merge two sorted runs
            chunk_key, inverse = _unique(np.concatenate((key, chunk_key)))
            chunk_total = np.bincount(inverse, weights=np.concatenate((total, chunk_total)),
                                      minlength=chunk_key.size)
        key, total = chunk_key, chunk_total
    return key, total


def _join_worst(c: np.ndarray) -> tuple[tuple[int, int, int], float]:
    """Largest jacobiator norm of a sparse ``c``, reduced from the join."""
    return _reduce_join(*_join_jacobiator(c), c.shape[0])


def _reduce_join(key: np.ndarray, total: np.ndarray, d: int) -> tuple[tuple[int, int, int], float]:
    """Largest jacobiator norm, and its sorted triple, of a join ``_join_jacobiator`` returned."""
    if not key.size:
        return (0, 0, 0), 0.0
    triples = key // d
    starts = np.flatnonzero(np.diff(triples, prepend=-1))
    norms = np.sqrt(np.add.reduceat(total * total, starts))
    best = int(np.argmax(norms))
    t = int(triples[starts[best]])
    return (t // (d * d), t // d % d, t % d), float(norms[best])


def _slab_worst(c: np.ndarray) -> tuple[tuple[int, int, int], float]:
    """Largest jacobiator norm of a dense ``c``, one slab of the first index at a time.

    A slab holds ``CHUNK_BYTES`` at most, and at most two are held at once:
    the three chains are summed in place, and each slab is squared in place
    and dropped before the next is built.
    """
    d = c.shape[0]
    step = max(1, CHUNK_BYTES // (8 * d ** 3))
    left, right = c.reshape(d * d, d), c.reshape(d, d * d)
    norms = np.empty((d, d, d))
    for s in range(0, d, step):
        rows, n = slice(s, min(s + step, d)), min(step, d - s)
        # t[i,j,k,l] = [[b_i,b_j],b_k]_l and J[i,j,k] = t[i,j,k] + t[j,k,i] + t[k,i,j]
        t = (c[rows].reshape(n * d, d) @ right).reshape(n, d, d, d)
        t += (left @ c[:, rows].reshape(d, n * d)).reshape(d, d, n, d).transpose(2, 0, 1, 3)
        t += (c[:, rows].reshape(d * n, d) @ right).reshape(d, n, d, d).transpose(1, 2, 0, 3)
        norms[rows] = np.sqrt(np.square(t, out=t).sum(axis=3))
        del t
    idx = np.unravel_index(int(np.argmax(norms)), norms.shape)
    return tuple(sorted(int(v) for v in idx)), float(norms[idx])


def _jacobi_kernel(c: np.ndarray) -> tuple[tuple[int, int, int], float]:
    """(sorted basis triple, jacobiator norm) of the largest Jacobi violation of a finite ``c``."""
    return _join_worst(c) if _joins(c) else _slab_worst(c)


def _jacobi_join(c: np.ndarray) -> tuple:
    """The join of ``_join_jacobiator``, whatever the density of ``c``, as ``(key, J, worst)``.

    Every completion skeleton is sparse.  ``worst`` is what
    ``worst_jacobi_triple`` gives for ``c``, reduced from the same join.
    """
    key, total = _join_jacobiator(c)
    return key, total, _normalised(c, lambda _: _reduce_join(key, total, c.shape[0]))


def _jacobiator_at(join, keys: np.ndarray) -> np.ndarray:
    """``J[i,j,k,l]`` of a ``_jacobi_join`` at ``_triple_key`` keys of sorted triples i < j < k.

    A key the join has no product for reads 0.
    """
    key, total, _ = join
    pos = np.searchsorted(key, keys)
    key, total = np.append(key, -1), np.append(total, 0.0)  # no key is negative
    return np.where(key[pos] == keys, total[pos], 0.0)


def jacobi_residual(alg: LieAlgebra) -> float:
    """Worst Jacobi violation over basis triples, scale free.

    Max over triples (i, j, k) of the Euclidean norm of the jacobiator,
    divided by the largest structure-constant magnitude (0 if all constants
    vanish, NaN if one is not finite).  The normalization makes the residual
    invariant under an overall rescaling of the bracket.
    """
    return worst_jacobi_triple(alg)[1]


def worst_jacobi_triple(alg: LieAlgebra) -> tuple[tuple[int, int, int], float]:
    """Sorted basis triple with the largest (normalized) Jacobi violation.

    A zero residual reports ``(0, 0, 0)``, and so does a NaN one (a
    non-finite constant).  A pure function of ``alg.c``, run afresh on every
    call: a residual read more than once is kept by the value it checked
    (``ReductiveSpace.jacobi``).
    """
    return _normalised(alg.c, _jacobi_kernel)


def _normalised(c: np.ndarray, kernel) -> tuple[tuple[int, int, int], float]:
    """``worst_jacobi_triple`` of ``c`` from ``kernel``, run only on a finite, nonzero ``c``."""
    scale = np.abs(c).max(initial=0.0)
    if not np.isfinite(scale):  # a lone inf has no join partner: never a zero residual
        return (0, 0, 0), float("nan")
    if scale > 0.0:
        worst, norm = kernel(c)
        if norm > 0.0:
            return worst, float(norm / scale)
    return (0, 0, 0), 0.0


def killing_form(alg: LieAlgebra) -> np.ndarray:
    """Killing form ``B(x, y) = trace(ad_x ad_y)`` on the basis."""
    c, d = alg.c, alg.dim
    # B[a, b] = sum_{j,l} c[a, j, l] c[b, l, j]: one product of two flattenings
    b = c.reshape(d, d * d) @ c.transpose(0, 2, 1).reshape(d, d * d).T
    return 0.5 * (b + b.T)


def killing_invariance_residual(alg: LieAlgebra) -> float:
    """Max of ``|B([z,x],y) + B(x,[z,y])|`` over basis triples, relative to ``|B|``."""
    b = killing_form(alg)
    scale = np.abs(b).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    # term[z,x,y] = B([b_z, b_x], y) + B(x, [b_z, b_y]) = a[z,x,y] + a[z,y,x], B symmetric
    d = alg.dim
    a = (alg.c.reshape(d * d, d) @ b).reshape(d, d, d)
    return float(np.abs(a + a.transpose(0, 2, 1)).max() / scale)


def center_dimension(alg: LieAlgebra) -> int:
    """Dimension of the center ``{x : [x, g] = 0}``: the nullity of ``x -> ad x``."""
    d = alg.dim
    return d - matrix_rank(alg.c.transpose(1, 2, 0).reshape(d * d, d))


def nilpotency_class(alg: LieAlgebra) -> int | None:
    """Length of the lower central series, or None if it never reaches zero.

    Each term is a proper subspace of the one before until the series
    stabilizes, so it reaches zero within ``dim`` steps or never.
    """
    span = np.eye(alg.dim)
    for step in range(1, alg.dim + 2):
        images = span_brackets(alg, np.eye(alg.dim), span).reshape(-1, alg.dim).T
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
    labels = None
    if a.labels is not None and b.labels is not None:
        labels = a.labels + b.labels
    return LieAlgebra(c, labels=labels)


def place_action(c: np.ndarray, acting_idx, module_idx, mats: np.ndarray) -> None:
    """Write an action of basis elements on a block into ``c``, mirrored exactly.

    ``mats[a]`` is the matrix by which ``acting_idx[a]`` acts on the block
    spanned by ``module_idx``, so ``c[a, x, y] = mats[a][y, x]`` and
    ``c[x, a, y] = -mats[a][y, x]``.
    """
    c[np.ix_(acting_idx, module_idx, module_idx)] = mats.transpose(0, 2, 1)
    c[np.ix_(module_idx, acting_idx, module_idx)] = -mats.transpose(2, 0, 1)


def semidirect_sum(acting: LieAlgebra, rep) -> LieAlgebra:
    """Semidirect sum of ``acting`` with the abelian ideal it acts on.

    ``rep`` must carry ``.matrices``, one operator per basis element of
    ``acting``.  The bracket is

        [(x, u), (y, v)] = ([x, y], rho(x) v - rho(y) u).

    Raises ``ValidationError`` when the matrices fail the commutation rule of
    a representation beyond ``JACOBI_TOL``.
    """
    from .reps import Representation  # reps builds on this module

    rho = Representation(acting, rep.matrices)
    require_below(rho.homomorphism_residual(), JACOBI_TOL, "invalid representation: commutation")
    da, dv = acting.dim, rho.space_dim
    c = np.zeros((da + dv,) * 3)
    c[:da, :da, :da] = acting.c
    place_action(c, np.arange(da), np.arange(da, da + dv), rho.matrices)
    return LieAlgebra(c)


def weyl_flip(alg: LieAlgebra, block_indices) -> LieAlgebra:
    """Noncompact dual: flip the sign of brackets inside one block.

    Requires the grading of a symmetric pair, i.e. with B the block and H its
    complement: [B,B] in H, [H,B] in B, [H,H] in H (all within ``GRADING_TOL``).  The
    returned tensor multiplies the (B,B) entries by -1, which is conjugation
    of the block by the imaginary unit.
    """
    b = np.asarray(block_indices, dtype=int)
    h = np.delete(np.arange(alg.dim), b)  # np.setdiff1d imports numpy.ma
    scale = residual_scale(alg.c)
    bad = max(
        np.abs(alg.c[np.ix_(b, b, b)]).max(initial=0.0),
        np.abs(alg.c[np.ix_(h, b, h)]).max(initial=0.0),
        np.abs(alg.c[np.ix_(h, h, b)]).max(initial=0.0),
    )
    require_below(bad / scale, GRADING_TOL, "block is not the odd part of a symmetric pair")
    c = np.array(alg.c)
    c[np.ix_(b, b)] *= -1.0
    return LieAlgebra(c, labels=alg.labels)


def commutators(mats: np.ndarray) -> np.ndarray:
    """Every ``[A_a, A_b]`` of a stack ``(k, n, n)``, as ``(k, k, n, n)``.

    The products ``A_a A_b`` come from one matrix product of the stacked basis.
    """
    k, n = mats.shape[:2]
    # ab[a, i, b, l] = (A_a A_b)[i, l]
    ab = (mats.reshape(k * n, n) @ mats.transpose(1, 0, 2).reshape(n, k * n)).reshape(k, n, k, n)
    return (ab - ab.transpose(2, 1, 0, 3)).transpose(0, 2, 1, 3)


def structure_constants_from_matrices(matrices) -> np.ndarray:
    """Structure constants of a matrix Lie algebra with the given orthogonal basis.

    The coefficient of ``A_p`` in ``[A_a, A_b]`` is their Frobenius product
    divided by ``|A_p|^2``, so constants that are exact in the matrices stay
    exact.  The commutators are then rebuilt from the constants: a residual
    above ``LEAK_TOL`` (relative) raises ``ValidationError``, whether the
    matrices do not close under commutators, are not orthogonal or include a
    zero matrix.  Antisymmetry of the result is exact by construction.
    """
    mats = require_finite(np.asarray(matrices, dtype=float))
    k, n = mats.shape[:2]
    flat = mats.reshape(k, n * n)
    comm = commutators(mats).reshape(k * k, n * n)  # at most two arrays of k^2 n^2 entries held
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero matrix fails the gate
        coeffs = (comm @ flat.T) / np.square(flat).sum(axis=1)
        recon = coeffs @ flat
        recon -= comm
        res = np.abs(recon, out=recon).max(initial=0.0) / residual_scale(mats)
    require_below(res, LEAK_TOL, "matrices do not close under commutators")
    return antisymmetrized(coeffs.reshape(k, k, k))


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------


@dataclass(eq=False, frozen=True)
class Subspace:
    """Subspace of R^n stored as orthonormal basis columns.

    The basis is the only way a subspace is read: brackets of spans go
    through ``span_brackets``, whatever the basis, and the ambient dimension
    is its row count.  The field is frozen and the basis is read-only.
    """

    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=float)
        if b.ndim == 1:
            b = b[:, None]
        if b.shape[1]:
            require_below(np.abs(b.T @ b - np.eye(b.shape[1])).max(), LEAK_TOL,
                          "basis columns must be orthonormal")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @classmethod
    def coordinate(cls, ambient_dim: int, indices) -> "Subspace":
        """Span of the unit vectors ``e_i``; ``ValueError`` unless ``0 <= i < ambient_dim``."""
        idx = [int(i) for i in indices]
        if not all(0 <= i < ambient_dim for i in idx):
            raise ValueError(f"coordinate indices must lie in [0, {ambient_dim}), got {idx}")
        return cls(np.eye(ambient_dim)[:, idx])

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def equals(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return subspace_gap(self.basis, other.basis) <= LEAK_TOL

    def projector(self) -> np.ndarray:
        return projector(self.basis)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def to_json_dict(alg: LieAlgebra) -> dict:
    """Sparse JSON form: triples [i, j, k, value] with i < j.

    The labels are included only when present.  Values round-trip bit
    exactly through the standard JSON encoder.
    """
    _, i, j, k = _nonzeros(alg.c)  # sorted by i, then j, then k
    upper = i < j
    i, j, k = i[upper], j[upper], k[upper]
    triples = zip(i.tolist(), j.tolist(), k.tolist(), alg.c[i, j, k].tolist())
    out: dict = {"dim": alg.dim, "c": [list(t) for t in triples]}
    if alg.labels is not None:
        out["labels"] = list(alg.labels)
    return out
