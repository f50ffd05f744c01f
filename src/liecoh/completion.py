"""Linear completion of partially specified Lie brackets.

A ``CompletionProblem`` fixes every bracket of a skeleton algebra except the
block of brackets between basis vectors of one designated index set S, and
asks for all ways to fill that block with values in the span of the target
coordinates T so that the full tensor satisfies the Jacobi identity.

When T is disjoint from S (checked by the problem's constructor, otherwise
it is rejected as nonlinearly coupled), every Jacobi component is an affine
function of the unknown coefficients: unknowns enter each bracket chain at
most once.  The linear system is assembled as sparse (row, column,
value) triplets, one row per basis triple and output coordinate that touches
an unknown, and stored once, as one canonical triplet list (sorted by row,
then column, coalesced, no explicit zeros); its right-hand side is read from
the skeleton's jacobiator join in ``algebra``, the one join of a solve, which
also gives the skeleton's Jacobi residual.
Unknowns that share no row are independent, so the system is block diagonal
after a permutation: it is split into the connected components of its
row-column incidence graph, and each component is solved through its Gram
matrix ``A^T A``, formed from the sparse entries (the method of normal
equations; Bjorck, *Numerical Methods for Least Squares Problems*, SIAM
1996, ch. 2): its eigenvalues give the
singular values, and its eigenvectors are formed only where a solution reads
them.  That squares the condition number, which is safe here because every
kept singular value of the Clifford systems is at least 0.19 of its block's
largest; the directions the Gram cannot resolve are measured, and refined,
on ``A`` itself, and a block that would keep one of them is rejected.  The
singular values of the whole system are the union of the per-component
ones, and one rank cutoff, set by the largest of them, applies to every
component.  A problem may carry a grading, an F_2^m degree of every basis
vector that each skeleton constant keeps, and symmetries, signed
permutations of the basis that are automorphisms of the skeleton keeping S
and T; its constructor checks both.  Every Jacobi row then touches unknowns
of one degree only, and a symmetry carries a degree class of unknowns onto
one with the same singular values, so only one class per orbit is
assembled, and a carried class takes its values unassembled where they
show it adds nothing to either solution.  The solution set is returned as
a particular least-squares
solution plus an orthonormal nullspace basis, or reported empty when even
the best completion leaves a residual above tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    JACOBI_TOL,
    LieAlgebra,
    _cyclic_order,
    _jacobi_join,
    _jacobiator_at,
    _join,
    _nonzeros,
    _triple_key,
    _unique,
    jacobi_residual,
)
from .linalg import RANK_RTOL, ValidationError, _nonzero, require_finite

__all__ = ["CompletionProblem", "CompletionSolution", "complete_bracket"]

# A block's singular values come from the eigenvalues of its Gram matrix,
# which fix sigma only to about sqrt(eps) * sigma_max.  Below GRAM_RTOL *
# sigma_max they are measured again as |A v|, and a block that keeps a
# singular value that small is rejected rather than solved inaccurately:
# its solution would lose more than eight of the sixteen digits.
GRAM_RTOL = 1e-4


@dataclass(eq=False, frozen=True)
class CompletionProblem:
    """Bracket completion data.

    Parameters
    ----------
    skeleton : LieAlgebra
        All brackets outside the unknown block are fixed; the unknown block
        entries must be zero in the skeleton tensor.
    unknown_indices : ordered index set S
        Brackets [b_a, b_b] with a, b in S are the unknowns.
    target : ordered index set T
        The unknown brackets land in the span of the basis vectors ``b_t``,
        t in T.
    symmetries : tuple of ``(perm, sign)`` pairs, default none
        Automorphisms ``b_i -> sign[i] b_perm[i]`` of the skeleton that keep
        S and T.  Each maps the Jacobi system onto itself by a signed
        permutation of rows and columns, so ``complete_bracket`` reads the
        singular values off one degree class per orbit.  Kept as read-only
        integer copies.
    grading : one integer degree per basis index, default all zero
        An F_2^m grading of the skeleton, degrees adding by XOR: every
        nonzero constant ``c[i, j, k]`` has ``deg i ^ deg j == deg k``.  Then
        every Jacobi row touches only unknowns of its own degree, the degree
        of unknown pair (x, y) at target coordinate t being ``deg x ^ deg y
        ^ deg t``, and ``complete_bracket`` assembles one class of unknowns
        per orbit of the symmetries.  Kept as a read-only integer copy.

    Each index of S and T is distinct and lies in ``[0, skeleton.dim)``; T
    is disjoint from S, and the skeleton has no bracket inside S; each
    symmetry is a permutation with signs +-1 that maps S onto S and T onto
    T and carries every nonzero constant ``c[i, j, k]`` onto an equal
    ``sign[i] sign[j] sign[k] c[perm[i], perm[j], perm[k]]`` (then zeros map
    onto zeros too); the grading has one degree per basis index, and every
    nonzero constant keeps it; otherwise ``ValueError``.
    """

    skeleton: LieAlgebra
    unknown_indices: tuple[int, ...]
    target: tuple[int, ...]
    symmetries: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    grading: np.ndarray | None = None

    def __post_init__(self):
        d = self.skeleton.dim
        for what, name in (("unknown", "unknown_indices"), ("target", "target")):
            idx = tuple(int(i) for i in getattr(self, name))
            if not all(0 <= i < d for i in idx):
                raise ValueError(f"{what} indices must lie in [0, {d}), got {list(idx)}")
            if len(set(idx)) != len(idx):
                raise ValueError(f"{what} index set contains duplicates")
            object.__setattr__(self, name, idx)
        s = self.unknown_indices
        if set(s) & set(self.target):
            raise ValueError("nonlinear unknown coupling: target meets the unknown index set")
        if np.abs(self.skeleton.c[np.ix_(s, s)]).max(initial=0.0) > 0.0:
            raise ValueError("skeleton already fixes brackets inside the unknown block")
        grading = np.zeros(d, dtype=int) if self.grading is None else np.array(self.grading,
                                                                                dtype=int)
        if grading.shape != (d,):
            raise ValueError(f"a grading needs one degree per basis index: {d}, "
                             f"got shape {grading.shape}")
        symmetries = tuple((np.array(perm, dtype=int), np.array(sign, dtype=int))
                           for perm, sign in self.symmetries)
        if symmetries or grading.any():
            c = self.skeleton.c.ravel()
            nz, i, j, k = _nonzeros(self.skeleton.c)
            broken = np.flatnonzero(grading[i] ^ grading[j] ^ grading[k])
            if broken.size:
                b = broken[0]
                raise ValueError(f"the constant c[{i[b]}, {j[b]}, {k[b]}] breaks the grading")
        for perm, sign in symmetries:
            if not (perm.shape == sign.shape == (d,) and np.array_equal(np.sort(perm), np.arange(d))
                    and (np.abs(sign) == 1).all()):
                raise ValueError("a symmetry must be a permutation of the basis with signs +-1")
            if set(perm[list(s)]) != set(s) or set(perm[list(self.target)]) != set(self.target):
                raise ValueError("a symmetry must map the unknown and the target index sets "
                                 "onto themselves")
            image = c[(perm[i] * d + perm[j]) * d + perm[k]] * (sign[i] * sign[j] * sign[k])
            if not np.array_equal(image, c[nz], equal_nan=True):
                raise ValueError("a symmetry is not an automorphism of the skeleton")
            perm.setflags(write=False)
            sign.setflags(write=False)
        grading.setflags(write=False)
        object.__setattr__(self, "symmetries", symmetries)
        object.__setattr__(self, "grading", grading)

    @property
    def pairs(self) -> list[tuple[int, int]]:
        s = self.unknown_indices
        return [(s[a], s[b]) for a in range(len(s)) for b in range(a + 1, len(s))]


@dataclass(eq=False, frozen=True)
class CompletionSolution:
    """Affine solution space of a completion problem.

    ``particular`` and the rows of ``homogeneous`` are coefficient arrays of
    shape (n_pairs, len(target)): entry [p, a] multiplies ``b_{T[a]}`` in the
    bracket of unknown pair p (ordered as ``problem.pairs``).  The
    fields are frozen and the three arrays are read-only copies, so a cached
    solution stays as solved and the caller's arrays stay as they were.
    """

    problem: CompletionProblem
    particular: np.ndarray
    homogeneous: np.ndarray
    residual: float
    empty: bool
    singular_values: np.ndarray

    def __post_init__(self):
        for name in ("particular", "homogeneous", "singular_values"):
            array = np.array(getattr(self, name), dtype=float)
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @property
    def nullity(self) -> int:
        return self.homogeneous.shape[0]

    def coefficients(self, weights) -> np.ndarray:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.shape != (self.nullity,):
            raise ValueError("one weight per homogeneous basis element expected")
        return self.particular + np.tensordot(w, self.homogeneous, axes=1)

    def realize(self, weights) -> LieAlgebra:
        """Substitute a point of the solution space back into the skeleton."""
        return _substitute(self.problem, self.coefficients(weights))


def _substitute(problem: CompletionProblem, coeffs: np.ndarray) -> LieAlgebra:
    """The skeleton with ``coeffs`` filled in, as a new algebra."""
    alg = problem.skeleton
    a, b = np.array(problem.pairs, dtype=int).reshape(-1, 2).T[:, :, None]
    t = np.array(problem.target, dtype=int)
    c = np.array(alg.c)
    c[a, b, t] += coeffs  # coeffs[p] fills [b_a, b_b] at T for the p-th pair (a, b)
    c[b, a, t] -= coeffs
    return LieAlgebra(c, labels=alg.labels)


def _assemble(problem: CompletionProblem, columns: np.ndarray, join):
    """Sparse Jacobi system ``A u = b`` in the unknown coefficients.

    Rows are the pairs (sorted basis triple i < j < k, output coordinate l)
    that touch an unknown; every Jacobi chain [[b_x, b_y], b_z] over a cyclic
    rotation (x, y, z) of the triple contributes in one of two ways:

    * (x, y) is an unknown pair: its coefficient a enters through
      ``[b_{T[a]}, b_z]``;
    * z is in S and the fixed bracket [b_x, b_y] has an S-component b_m: the
      unknown pair (m, z) enters at each output coordinate ``T[a]``.

    Returns ``(row, col, val, rhs)``: the canonical triplets of ``A``
    (sorted by row, then column, coalesced, no explicit zeros; row indices
    into ``rhs``, every row with at least one entry) and ``b``, the negated
    skeleton jacobiator on each row, read from ``join``, the skeleton's
    ``algebra._jacobi_join``.  Rows without unknowns are left out; only the
    final residual check sees them.

    ``columns``, a boolean mask over the unknowns, keeps the system to the
    columns it holds: no key or value of another column is formed, and the
    rows and entries kept are the full system's, in its order, with their
    rows numbered anew.

    Each entry is built as one key, ``_triple_key(x, y, z, l) * nunk + col``:
    a chain's triple and column base are computed once and broadcast over the
    entries it contributes, and only the keys and values are ever held for
    every uncoalesced entry.  Duplicates are summed in the order they were
    built, after one stable sort.  Every entry is built as plus or minus a
    nonzero constant of the skeleton, so only a sum of duplicates can be zero.
    """
    c = problem.skeleton.c
    d = c.shape[0]
    t = np.array(problem.target, dtype=int)
    q = t.size
    s_arr = np.array(problem.unknown_indices)
    nunk = len(problem.pairs) * q

    # pair number and orientation of every ordered unknown pair, -1 elsewhere
    a, b = np.array(problem.pairs, dtype=int).reshape(-1, 2).T
    pidx = np.full((d, d), -1)
    pidx[a, b] = pidx[b, a] = np.arange(a.size)
    psign = np.zeros((d, d))
    psign[a, b], psign[b, a] = 1.0, -1.0

    # unknown pair (x, y), then [b_{T[a]}, b_z] for every target coordinate
    ad_t = c[t].transpose(1, 0, 2)
    px, py = np.nonzero(pidx >= 0)
    x, y = np.repeat(px, d), np.repeat(py, d)
    z = np.tile(np.arange(d), px.size)
    keep = _cyclic_order(x, y, z)
    x, y, z = x[keep], y[keep], z[keep]
    col = pidx[x, y] * q
    base = _triple_key(x, y, z, 0, d) * nunk + col
    az, aa, al = np.nonzero(ad_t != 0.0)  # sorted on z, the right side of the join with z
    g, r = next(_join(z, az))
    keep = columns[col[g] + aa[r]]
    g, r = g[keep], r[keep]
    key1 = base[g] + (al * nunk + aa)[r]
    val1 = psign[x, y][g] * ad_t[az, aa, al][r]
    del g, r

    # fixed bracket [b_x, b_y] with S-component b_m, then unknown pair (m, z)
    cx, cy, cm = np.nonzero(c[:, :, s_arr] != 0.0)
    ns = s_arr.size
    x, y = np.repeat(cx, ns), np.repeat(cy, ns)
    m = np.repeat(s_arr[cm], ns)
    z = np.tile(s_arr, cx.size)
    keep = _cyclic_order(x, y, z) & (m != z)
    x, y, z, m = x[keep], y[keep], z[keep], m[keep]
    col = pidx[m, z] * q
    g, r = np.nonzero(columns[col[:, None] + np.arange(q)])  # chain g at target coordinate r
    base = _triple_key(x, y, z, 0, d) * nunk + col
    key = np.concatenate((key1, base[g] + t[r] * nunk + r))
    del key1
    val = np.concatenate((val1, (c[x, y, m] * psign[m, z])[g]))
    del val1, g, r

    # coalesce: a stable sort keeps each key's values in the order they were built
    # (every key of a Clifford system is built once)
    order = np.argsort(key, kind="stable")
    key = key[order]
    val = val[order]
    del order
    dup = key[1:] == key[:-1]
    if dup.any():
        first = np.append(True, ~dup)
        val = np.bincount(np.cumsum(first) - 1, weights=val)
        key = key[first]
        nz = val != 0.0
        key, val = key[nz], val[nz]
    rows, col = np.divmod(key, nunk)
    first = np.diff(rows, prepend=-1) != 0
    return np.cumsum(first) - 1, col, val, -_jacobiator_at(join, rows[first])


def _components(row: np.ndarray, col: np.ndarray, nrows: int, ncols: int) -> np.ndarray:
    """Component label (its smallest column) of every column.

    Columns are linked when a row touches both; the labels are found by
    minimum-label propagation through the rows, with one pointer jump per
    sweep (a label is always a column of the same component, never larger
    than the column it labels).
    """
    label = np.arange(ncols)
    while True:
        row_min = np.full(nrows, ncols)
        np.minimum.at(row_min, row, label[col])
        new = label.copy()
        np.minimum.at(new, col, row_min[row])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _class_orbits(problem: CompletionProblem) -> tuple[np.ndarray, np.ndarray]:
    """Every unknown's degree class and class orbit under ``problem.symmetries``.

    The column of unknown pair (x, y) and target coordinate t has degree
    ``deg x ^ deg y ^ deg t``, and a class is named by its first column.  A
    symmetry maps that column to the one of (perm[x], perm[y]) and perm[t],
    and so a class onto the class of its first column's image when all its
    columns map into that class and both are of one size.  The orbits are
    closed by the minimum-label propagation of ``_components``, each edge a
    row that touches its two classes.  Returns ``(cls, orbit)``: per
    column, the first column of its class and the first column of the first
    class of its orbit.
    """
    a, b = np.array(problem.pairs, dtype=int).reshape(-1, 2).T
    t = np.array(problem.target)

    def degrees(g):
        return ((g[a] ^ g[b])[:, None] ^ g[t]).ravel()

    degree = degrees(problem.grading)
    nunk = degree.size
    values, inverse = _unique(degree)
    first = np.full(values.size, nunk)
    np.minimum.at(first, inverse, np.arange(nunk))
    cls = first[inverse]
    size = np.bincount(cls, minlength=nunk)
    edges = [np.zeros(0, dtype=int)]
    for perm, _ in problem.symmetries:
        image = degrees(problem.grading[perm])  # the degree of each column's image
        split = np.zeros(nunk, dtype=bool)
        split[cls[image != image[cls]]] = True
        onto = first[np.searchsorted(values, image[first])]
        keep = ~split[first] & (size[first] == size[onto])
        edges.append(np.column_stack((first[keep], onto[keep])).ravel())
    edges = np.concatenate(edges)
    orbit = _components(np.arange(edges.size) // 2, edges, edges.size // 2, nunk)
    return cls, orbit[cls]


def _run_pairs(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every pair ``(li, ri)`` with ``li <= ri`` of entries in one run of a sorted ``r``.

    They come in the order of ``next(algebra._join(r, r))``, the pairs
    ``li > ri`` left out: sums keep its order.
    """
    start = np.flatnonzero(np.diff(r, prepend=r[:1] - 1))
    length = np.diff(np.append(start, r.size))
    entry = np.arange(r.size)
    count = np.repeat(start + length, length) - entry  # from each entry to the end of its run
    li = np.repeat(entry, count)
    return li, np.arange(li.size) - np.repeat(np.cumsum(count) - count - entry, count)


def complete_bracket(problem: CompletionProblem) -> CompletionSolution:
    """Solve for all Jacobi-compatible fillings of the unknown block.

    The canonical triplets of ``_assemble`` are split into connected
    components (unknowns linked through shared rows), and each block ``a``
    is solved on its own from its Gram matrix ``a^T a = V diag(lam) V^T``,
    whose upper triangle is summed from the products of the entries that
    share a row and mirrored, and from ``a^T b``; neither is densified from
    ``a``.  A block that may form ``V`` keeps its Gram.  Every block's singular
    values ``sqrt(lam)`` come from its eigenvalues alone; ``V`` is formed
    only for a block with ``a^T b != 0`` or a singular value at or below the
    cutoff or below ``GRAM_RTOL`` times its largest (any other block adds
    nothing to either solution).  The Gram fixes them only to about
    ``sqrt(eps)`` times the block's largest, so every direction below
    ``GRAM_RTOL`` times the largest is first refined once against ``a``
    (the least-squares correction ``a^+ (a v)``, solved with the other
    eigenpairs, is subtracted) and then given the singular value ``|a v|``,
    measured on the sparse rows.  A column that no row touches is a
    component of its own, with one zero singular value.
    No block meets two degree classes of ``problem.grading``, and the
    classes are closed into orbits under ``problem.symmetries``
    (``_class_orbits``).  Only the first class of each orbit is assembled and
    solved at first, and that is every class with ``a^T b != 0``: of a
    graded skeleton only degree 0 can have one, and a symmetry, which keeps
    ``b``, links it onto no other class.  Every other class takes the
    singular values of its orbit's first class, from which its own differ
    by round-off only, where they decide that it adds nothing to either
    solution (no value at or below the cutoff or below ``GRAM_RTOL`` times
    the largest); otherwise it is assembled and solved in turn, from the
    same join.  An ungraded problem is one class, and solves every block.
    ``singular_values`` is the union of the per-component values in
    descending order; the one zero rule of ``linalg``, with the largest of
    them as the scale, decides the rank of every component.  A block that
    keeps a singular value below ``GRAM_RTOL`` times its largest is too
    ill-conditioned for the normal equations and raises ``ValidationError``
    naming the ratio.
    The particular solution is the sum of the per-component minimum-norm
    solutions ``V_k diag(1/lam_k) V_k^T a^T b``; when it is zero, its Jacobi
    residual is the skeleton's, reduced from the solve's one join.  The
    homogeneous basis is the direct sum of the per-component nullspaces,
    ordered by the smallest column of their component, each oriented so that
    its first coefficient of largest magnitude (magnitudes within
    ``RANK_RTOL`` tie) is positive.

    Returns a ``CompletionSolution``; an empty solution set (no filling has a
    Jacobi residual below ``JACOBI_TOL``, or the residual is not finite) is a
    valid outcome reported through ``empty=True``, not an exception.  A
    problem with unknowns over a non-finite skeleton raises
    ``ValidationError`` before any block is solved.
    """
    alg = problem.skeleton
    q = len(problem.target)
    npairs = len(problem.pairs)
    nunk = npairs * q

    if nunk == 0:
        res = jacobi_residual(alg)
        return CompletionSolution(problem, np.zeros((npairs, q)), np.zeros((0, npairs, q)), res,
                                  not res < JACOBI_TOL, np.zeros(0))

    require_finite(alg.c)
    join = _jacobi_join(alg.c)
    cls, orbit = _class_orbits(problem)
    # a symmetry carries rows with b != 0 onto rows with b != 0, a graded skeleton's b
    # lives in degree 0, and a class is linked only onto a whole class of its size: a
    # degree-0 class with A^T b != 0 is always the first of its own orbit
    own = orbit == cls
    atb, blocks, svs, held = np.zeros(nunk), [], [], {}

    def solve(columns):
        """Assemble ``columns`` and take the Gram eigenvalues of each of their blocks."""
        row, col, val, rhs = _assemble(problem, columns, join)
        atb[columns] = np.bincount(col, weights=val * rhs[row], minlength=nunk)[columns]
        label = _components(row, col, rhs.size, nunk)
        head = (label == np.arange(nunk)) & columns
        nblocks = np.count_nonzero(head)
        # block k holds the columns, and the entries, of the k-th smallest head in
        # ascending order, and the columns left out come last; a small index type
        # lets the stable sorts run by radix
        block = np.where(columns, (np.cumsum(head) - 1)[label],
                         nblocks).astype(np.min_scalar_type(nunk))
        col_order, entry_order = (np.argsort(block, kind="stable"),
                                  np.argsort(block[col], kind="stable"))
        count = np.bincount(block)
        col_at = np.append(0, np.cumsum(count))
        entry_at = np.append(0, np.cumsum(np.bincount(block[col], minlength=count.size)))
        local = np.empty(nunk, dtype=int)
        local[col_order] = np.arange(nunk) - np.repeat(col_at[:-1], count)

        def gram(k):
            e = entry_order[entry_at[k]:entry_at[k + 1]]
            r, c, v, n = row[e], local[col[e]], val[e], count[k]
            # the pairs li <= ri of one row: the triplets sort each row by column, so
            # they sum the upper triangle, and the lower one is its mirror bit for bit
            li, ri = _run_pairs(r)
            g = np.bincount(c[li] * n + c[ri], weights=v[li] * v[ri], minlength=n * n).reshape(n, n)
            g += np.triu(g, 1).T
            return r, c, v, g

        for k in range(nblocks):
            kg = gram(k)
            sv = np.sqrt(np.maximum(np.linalg.eigvalsh(kg[3])[::-1], 0.0))
            cols = col_order[col_at[k]:col_at[k + 1]]
            if sv[-1] <= GRAM_RTOL * sv[0] or atb[cols].any():
                held[len(blocks)] = kg  # a block that may read V below keeps its Gram
            blocks.append((cols, lambda k=k: gram(k)))
            svs.append(sv)

    solve(own)
    top = max(sv[0] for sv in svs)

    def settled(sv):  # full rank and well conditioned: V is read only where a^T b != 0
        return _nonzero(sv[-1], top) and sv[-1] > GRAM_RTOL * sv[0]

    # a carried class takes the singular values of its orbit's first class where they
    # show that it adds nothing to either solution; any other is solved on its own
    spectra, weak = {}, np.zeros(nunk, dtype=bool)  # by the first column of a class
    for (cols, _), sv in zip(blocks, svs):
        spectra.setdefault(cls[cols[0]], []).append(sv)
        weak[cls[cols[0]]] |= not settled(sv)
    redo = ~own & weak[orbit]
    carried = [sv for f in np.flatnonzero((cls == np.arange(nunk)) & ~own & ~redo)
               for sv in spectra[orbit[f]]]
    if redo.any():
        solve(redo)
    u_part, basis = np.zeros(nunk), []
    for i in sorted(range(len(blocks)), key=lambda i: blocks[i][0][0]):
        cols, sv = blocks[i][0], svs[i]
        if settled(sv) and not atb[cols].any():
            continue  # full rank, well conditioned and solved by zero: no V read
        r, c, v, g = held.pop(i) if i in held else blocks[i][1]()
        lam, vecs = np.linalg.eigh(g)
        lam, vecs = lam[::-1], vecs[:, ::-1]
        sv = svs[i] = np.sqrt(np.maximum(lam, 0.0))
        # the Gram resolves sigma only to sqrt(eps) * sigma_max: refine the weaker
        # directions once against A, which takes them from eps * kappa^2 to about
        # eps * kappa of the nullspace, then measure them on A
        local_row = np.cumsum(np.diff(r, prepend=-1) != 0) - 1
        strong = sv >= GRAM_RTOL * sv[0]
        for j in np.flatnonzero(~strong):
            av = np.bincount(local_row, weights=v * vecs[c, j])
            atav = np.bincount(c, weights=v * av[local_row], minlength=cols.size)
            w = vecs[:, j] - vecs[:, strong] @ (vecs[:, strong].T @ atav / lam[strong])
            vecs[:, j] = w / np.linalg.norm(w)
            sv[j] = np.linalg.norm(np.bincount(local_row, weights=v * vecs[c, j]))
        kept = _nonzero(sv, top)
        smallest = sv[kept].min(initial=sv[0])
        if smallest < GRAM_RTOL * sv[0]:
            raise ValidationError(
                f"completion block too ill-conditioned for its Gram matrix: smallest kept "
                f"singular value is {smallest / sv[0]:.3e} of the largest, below "
                f"{GRAM_RTOL:.0e}", residual=smallest / sv[0])
        u_part[cols] = vecs[:, kept] @ ((vecs.T @ atb[cols])[kept] / lam[kept])
        for v in vecs[:, ~kept].T:
            # canonical orientation: the first coefficient of largest magnitude is
            # positive; magnitudes within RANK_RTOL of it tie, so round-off cannot flip it
            a = np.abs(v)
            full = np.zeros(nunk)
            full[cols] = v if v[np.argmax(a >= (1.0 - RANK_RTOL) * a.max())] >= 0 else -v
            basis.append(full)
    homogeneous = (np.array(basis).reshape(-1, npairs, q)
                   if basis else np.zeros((0, npairs, q)))

    particular = u_part.reshape(npairs, q)
    res = jacobi_residual(_substitute(problem, particular)) if u_part.any() else join[2][1]
    return CompletionSolution(problem, particular, homogeneous, res, not res < JACOBI_TOL,
                              np.sort(np.concatenate(svs + carried))[::-1])
