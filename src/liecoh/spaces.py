"""Reductive homogeneous spaces: constructors, catalog, structural checks.

A ``ReductiveSpace`` is a structure-constant algebra g together with an
isotropy subalgebra k and an ordered orthogonal decomposition of its
complement into invariant blocks m_1, m_2, ...  Constructors cover:

* the Clifford-parameter family g = k0 + k1 + m1 + m2: spin(n) rotations
  acting on a vector block m1 and a Clifford-module block m2, with bracket
  scales lam on m1 x m1, mu on m1 x m2, and an m2 x m2 block that is zero or
  the compact solved completion,
* two-step nilpotent algebras whose center acts by skew maps J_Z with
  J_Z J_W + J_W J_Z = -2 <Z, W> I ("generalized Heisenberg"), each one
  semidirect sum of its isotropy with m1 + m2 plus one m2 x m2 block,
* SU(n+1)/SU(n), whose isotropy action fixes a line, and the flat screw
  group,
* rank-one solvable extensions R x| K with a non-isometric dilation,
* ``noncompact_dual``, the one way a dual is built: where h = k + m1 and the
  last block m2 grade g as a symmetric pair, Cartan duality (Helgason 1978,
  ch. V) keeps the grading and flips the sign of [m2, m2],
* a catalog of the model spaces exercised by the verification suite, whose
  four noncompact entries are the ``noncompact_dual`` of their compact ones.

Every check of a space runs once, in the ``ReductiveSpace`` constructor:
the isotropy and blocks decompose the algebra with jointly orthonormal bases,
the Jacobi identity holds, and k closes and keeps every block.  A Jacobi
violation raises ``ValidationError`` carrying the normalized residual and the
worst basis triple; off the constraint lam = 2 mu^2 the Clifford construction
fails so, and the claims read the same residual off its skeleton.  A space
keeps the ``(triple, residual)`` its gate computed as ``jacobi``, and every
later reader of a space's residual takes it from there.

Every bracket of a space is read in its frame F = [k | m1 | m2 ...], the
stacked bases, by ``ReductiveSpace.brackets``: closure, invariance, isotropy
matrices, nilpotent part, curvature and J maps are slices of it, so blocks
given in any orthonormal basis give them up to that change of basis, and an
orthogonal change of basis of all of g changes no verdict of the suite.  Each
fixed bracket block of a construction is written once, as one assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    JACOBI_TOL,
    LEAK_TOL,
    LieAlgebra,
    Subspace,
    ValidationError,
    abelian,
    direct_sum,
    killing_form,
    place_action,
    require_below,
    semidirect_sum,
    span_brackets,
    structure_constants_from_matrices,
    weyl_flip,
    worst_jacobi_triple,
)
from .builders import (
    clifford_isotropy,
    quaternion_left,
    realify_complex,
    su_basis,
    su_standard,
    u_standard,
)
from .clifford import bivector_pairs, gamma_lifts, so_algebra, so_vector_matrices, spin_module
from .completion import CompletionProblem, CompletionSolution, complete_bracket
from .linalg import residual_scale, signature
from .reps import (
    Representation,
    block_invariance_residual,
    rep_direct_sum,
    trivial_representation,
)

__all__ = [
    "ReductiveSpace",
    "SYMMETRIC_CONTROLS",
    "build_clifford_space",
    "build_heisenberg",
    "build_trivial_module_space",
    "catalog",
    "catalog_entry",
    "catalog_ids",
    "clifford_completion_problem",
    "euclidean_screw",
    "hyperbolic_semidirect",
    "isotropy_representation",
    "noncompact_dual",
]


# ---------------------------------------------------------------------------
# the space type
# ---------------------------------------------------------------------------


@dataclass(eq=False, frozen=True)
class ReductiveSpace:
    """Algebra with isotropy subalgebra and invariant complement blocks.

    The constructor keeps the stacked bases as the read-only ``frame``, runs
    every check of the space and keeps the isotropy action as ``rep``, with
    the block coordinate ranges as ``slices``, and the ``(triple, residual)``
    of its Jacobi gate as ``jacobi``; every reader uses those fields.  The
    fields are frozen, so a cached space cannot be changed.
    """

    label: str
    algebra: LieAlgebra
    isotropy: Subspace
    blocks: tuple[Subspace, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)
    frame: np.ndarray = field(init=False)
    rep: Representation = field(init=False)
    slices: tuple[tuple[int, ...], ...] = field(init=False)
    jacobi: tuple[tuple[int, int, int], float] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        d = self.algebra.dim
        if self.isotropy.ambient_dim != d or any(b.ambient_dim != d for b in self.blocks):
            raise ValueError("isotropy and blocks must live in the algebra")
        if self.isotropy.dim + sum(b.dim for b in self.blocks) != d:
            raise ValueError("isotropy and blocks must decompose the algebra")
        frame = np.hstack([self.isotropy.basis, *(b.basis for b in self.blocks)])
        require_below(np.abs(frame.T @ frame - np.eye(d)).max(initial=0.0), LEAK_TOL,
                      "isotropy and blocks are not orthonormal together")
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)
        triple, res = worst_jacobi_triple(self.algebra)
        require_below(res, JACOBI_TOL, f"{self.label}: Jacobi identity at basis triple {triple}",
                      triple)
        object.__setattr__(self, "jacobi", (triple, res))
        rep, slices = isotropy_representation(self)
        object.__setattr__(self, "rep", rep.validate())
        object.__setattr__(self, "slices", slices)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def m_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def brackets(self, a, b) -> np.ndarray:
        """``[i, j]``: [f_a_i, f_b_j] in frame coordinates, for frame columns ``a``, ``b``."""
        return span_brackets(self.algebra, self.frame[:, a], self.frame[:, b]) @ self.frame


def _coordinate_space(label, alg, k_dim, block_dims, notes=()) -> ReductiveSpace:
    d = alg.dim
    cuts = np.cumsum([k_dim] + list(block_dims))
    blocks = [Subspace.coordinate(d, range(cuts[i], cuts[i + 1]))
              for i in range(len(block_dims))]
    return ReductiveSpace(label, alg, Subspace.coordinate(d, range(k_dim)),
                          tuple(blocks), tuple(notes))


def _inside(part: np.ndarray, span, space: ReductiveSpace, what: str) -> np.ndarray:
    """The coordinates of ``part`` in the frame columns ``span``, which must hold it.

    ``ValidationError`` (saying ``what``) unless ``part`` minus its projection,
    relative to the largest structure constant, is below ``LEAK_TOL``; the
    difference is NaN at a non-finite bracket, even when ``span`` is all of F.
    """
    mask = np.zeros(space.dim)
    mask[span] = 1.0
    leak = np.abs(part - part * mask).max(initial=0.0) / residual_scale(space.algebra.c)
    require_below(float(leak), LEAK_TOL, what)
    return part[..., span]


def isotropy_representation(space: ReductiveSpace):
    """Isotropy action of k on m in block coordinates.

    Returns ``(rep, slices)``: a ``Representation`` of the isotropy
    subalgebra on the stacked block coordinates, and the coordinate ranges of
    the blocks.  Closure of k, invariance of m and the matrices are slices of
    one frame read, [k, F]; closure and the invariance of m and of every
    block are checked within ``LEAK_TOL``.  The constructor is its one caller
    and keeps the result as ``space.rep`` and ``space.slices``.
    """
    k, m = slice(0, space.isotropy.dim), slice(space.isotropy.dim, None)
    kf = space.brackets(k, slice(None))                   # kf[a, j] = [k_a, f_j]
    kk = _inside(kf[:, k], k, space, "isotropy is not a subalgebra")
    km = _inside(kf[:, m], m, space, "blocks are not invariant under k")
    # mats[a][j, i] = <[k_a, m_i], m_j>
    rep = Representation(LieAlgebra(0.5 * (kk - kk.transpose(1, 0, 2))), km.transpose(0, 2, 1))
    slices, start = [], 0
    for b in space.blocks:
        slices.append(tuple(range(start, start + b.dim)))
        require_below(block_invariance_residual(rep, slices[-1]), LEAK_TOL,
                      "a designated block is not invariant under k")
        start += b.dim
    return rep, tuple(slices)


# ---------------------------------------------------------------------------
# Clifford-parameter family
# ---------------------------------------------------------------------------


def clifford_completion_problem(n: int, lam: float, mu: float) -> CompletionProblem:
    """The construction's fixed brackets, with its m2 x m2 block as the unknown.

    The skeleton holds every bracket but m2 x m2, which is left empty for a
    completion into the target k + m1.  This is the one writer of the
    Clifford skeleton, on one module copy, with ``clifford_isotropy(n, 1)``
    as its isotropy.

    At n = 6 and 7 the problem carries the ``gamma_lifts`` of the module as
    symmetries: a lift ``(pi, eps, Q)`` maps ``L_ij -> eps_i eps_j
    L_pi(i)pi(j)`` on k, ``e_i -> eps_i e_pi(i)`` on m1 and ``w -> Q w`` on
    m2, an automorphism of the skeleton since ``Q Gamma_i Q^-1 = eps_i
    Gamma_pi(i)``.  It also carries their F_2^3 grading: with ``Gamma_i w_x =
    +-w_{x xor a_i}`` (``CliffordModule.shifts``), ``deg w_x = x``, ``deg e_i =
    a_i`` and ``deg L_ij = a_i xor a_j``, which every constant keeps; its 8
    degree classes of unknowns are the 8 blocks of the Jacobi system.  At
    n = 2, 3 the isotropy also holds the sp(1) commutant, and the blocks
    are small enough to solve each.
    """
    if n not in (2, 3, 6, 7):
        raise ValueError("the construction is defined for n in {2, 3, 6, 7}")
    iso = clifford_isotropy(n, 1)
    dk = iso.algebra.dim
    d = dk + iso.space_dim
    k_idx, m1_idx, m2_idx = np.split(np.arange(d), [dk, dk + n])
    c = np.zeros((d, d, d))
    c[:dk, :dk, :dk] = iso.algebra.c
    place_action(c, k_idx, np.arange(dk, d), iso.matrices)

    # [e_i, e_j] = 2 lam L_ij, with L_ij = E_ji - E_ij on m1
    c[np.ix_(m1_idx, m1_idx, k_idx[:len(bivector_pairs(n))])] = (
        -2.0 * lam * so_vector_matrices(n).transpose(1, 2, 0))

    # [e_i, w] = mu Gamma_i w
    place_action(c, m1_idx, m2_idx, mu * spin_module(n).gammas)
    labels = (iso.algebra.labels + tuple(f"e{i}" for i in range(1, n + 1))
              + tuple(f"w{a}" for a in range(len(m2_idx))))
    symmetries, grading = (), None
    if n in (6, 7):
        symmetries = _clifford_symmetries(n, k_idx, m1_idx, m2_idx)
        a = spin_module(n).shifts
        i, j = np.triu_indices(n, 1)  # the (i, j) of bivector_pairs, 0-based
        grading = np.concatenate((a[i] ^ a[j], a, np.arange(m2_idx.size)))
    return CompletionProblem(LieAlgebra(c, labels=labels), m2_idx, range(dk + n), symmetries,
                             grading)


def _clifford_symmetries(n, k_idx, m1_idx, m2_idx) -> tuple:
    """The ``(perm, sign)`` of each ``gamma_lifts(n)`` on the skeleton basis k + m1 + m2."""
    i, j = np.triu_indices(n, 1)  # the (i, j) of bivector_pairs, 0-based
    pair = np.zeros((n, n), dtype=int)
    pair[i, j] = pair[j, i] = k_idx
    symmetries = []
    for pi, eps, q in gamma_lifts(n):
        w, qw = np.nonzero(q.T)  # Q w_w = q[qw, w] w_qw
        perm = np.concatenate((pair[pi[i], pi[j]], m1_idx[pi], m2_idx[qw]))
        flip = np.where(pi[i] < pi[j], 1, -1)  # L_ji = -L_ij
        symmetries.append((perm, np.concatenate((eps[i] * eps[j] * flip, eps, q[qw, w]))))
    return tuple(symmetries)


@lru_cache(maxsize=None)
def _cached_completion(n: int, lam: float, mu: float) -> CompletionSolution:
    return complete_bracket(clifford_completion_problem(n, lam, mu))


def _select_completion(solution: CompletionSolution) -> LieAlgebra:
    """The compact algebra along the one null direction of ``solution``.

    ``complete_bracket`` orients each null vector canonically, so the weights
    -1 and then +1 along it name fixed fillings; the first realized algebra
    whose Killing form is negative definite is returned (-1 is the compact
    ray of every Clifford completion, so it is realized once), and
    ``ValidationError`` is raised when neither is.  A solution space of
    nullity other than 1 has no such sign and raises ``ValidationError`` too.
    Every point of a nonempty solution space satisfies the Jacobi system, so
    candidates are not re-checked here; the space constructor validates the
    chosen algebra.
    """
    if solution.empty:
        raise ValidationError("completion problem has no admissible filling")
    if solution.nullity != 1:
        raise ValidationError(f"a completion is selected by the sign of one null direction, "
                              f"but the solution space has nullity {solution.nullity}")
    for w in (-np.ones(1), np.ones(1)):
        alg = solution.realize(w)
        if signature(killing_form(alg)) == (0, alg.dim, 0):
            return alg
    raise ValidationError("no compact completion at either sign")


def build_clifford_space(n: int, lam: float, mu: float,
                         completed: bool = False) -> ReductiveSpace:
    """Assemble one member of the Clifford-parameter family.

    ``completed`` is ``False`` (no m2 x m2 bracket) or ``True`` (the solved
    m2 x m2 block of the compact completion; ``noncompact_dual`` gives the
    other ray).  Raises ``ValidationError`` with the residual triple when the
    parameters are Jacobi-incompatible (any mu != 0 with lam != 2 mu^2).
    """
    if not isinstance(completed, bool):
        raise ValueError(f"completed must be a bool, got {completed!r}")
    if completed:
        solution = _cached_completion(n, lam, mu)
        problem, alg = solution.problem, _select_completion(solution)
    else:
        problem = clifford_completion_problem(n, lam, mu)
        alg = problem.skeleton
    mode = "completed" if completed else "zero"
    return _coordinate_space(f"Cl(n={n},lam={lam:g},mu={mu:g},{mode})", alg,
                             len(problem.target) - n, (n, len(problem.unknown_indices)))


# ---------------------------------------------------------------------------
# generalized Heisenberg algebras
# ---------------------------------------------------------------------------


def heisenberg_label(center_dim: int, copies: int) -> str:
    if center_dim in (3, 7):
        return f"N({center_dim};{copies},0)"
    return f"N({center_dim},{copies})"


def build_heisenberg(center_dim: int, copies: int) -> ReductiveSpace:
    """Normalized generalized Heisenberg space N(c, k) with its canonical isotropy.

    The isotropy acts on m1 + m2, the center R^c and k copies of the module:
    C^k under u(k) when c = 1, the Clifford module under ``clifford_isotropy``
    otherwise.  g is their semidirect sum with the one block [X, Y] =
    sum_a <J_a X | Y> Z_a, J the complex structure when c = 1 and the gammas
    otherwise (Kaplan, *Trans. AMS* 258, 1980), so <Z | [X, Y]> = <Z . X | Y>
    exactly.  This is the normalized form: Z -> sgn(kappa) Z, X -> X /
    sqrt|kappa| takes the bracket <Z | [X, Y]> = kappa <Z . X | Y> of any
    kappa != 0 to it.  More than one copy is wired only for c <= 3.
    """
    if center_dim not in (1, 2, 3, 6, 7):
        raise ValueError("center dimension must be one of 1, 2, 3, 6, 7")
    if copies < 1 or (copies > 1 and center_dim in (6, 7)):
        raise ValueError(f"{copies} module copies: one is required, and more "
                         f"are wired only for center dimension 1, 2, 3")
    if center_dim == 1:
        u = u_standard(copies)
        rep = rep_direct_sum(trivial_representation(u.algebra, 1), u)
        j = realify_complex(1.0j * np.eye(copies))[None]
    else:
        rep = clifford_isotropy(center_dim, copies)
        j = np.kron(np.eye(copies), spin_module(center_dim).gammas)
    dk, dm2 = rep.algebra.dim, j.shape[1]
    c = np.array(semidirect_sum(rep.algebra, rep).c)
    # skewness of each J_a gives the antisymmetry of the block for free
    c[dk + center_dim:, dk + center_dim:, dk:dk + center_dim] = j.transpose(2, 1, 0)
    labels = rep.algebra.labels
    if labels is not None:
        labels += (tuple(f"e{i}" for i in range(1, center_dim + 1))
                   + tuple(f"w{a}" for a in range(dm2)))
    return _coordinate_space(heisenberg_label(center_dim, copies), LieAlgebra(c, labels=labels),
                             dk, (center_dim, dm2))


def nilpotent_part(space: ReductiveSpace) -> LieAlgebra:
    """The ideal m1 + m2 of a nilpotent-type space as an algebra of its own.

    Its constants are read in the stacked block bases, whatever those are;
    ``ValidationError`` unless the blocks span a subalgebra within ``LEAK_TOL``.
    """
    m = slice(space.isotropy.dim, None)
    mm = _inside(space.brackets(m, m), m, space, "m is not a subalgebra")
    return LieAlgebra(0.5 * (mm - mm.transpose(1, 0, 2)))


# ---------------------------------------------------------------------------
# SU(n+1)/SU(n) and the flat screw group
# ---------------------------------------------------------------------------


def _su_adapted_matrices(n: int) -> tuple[np.ndarray, int]:
    """Realified su(n+1) basis adapted to the su(n) subalgebra.

    Order: su(n) block, the orthogonal torus direction, then the off-block
    column vectors (real parts, imaginary parts).
    """
    a = np.arange(n)
    off = np.zeros((2 * n, n + 1, n + 1), dtype=complex)
    off[a, a, n], off[a, n, a] = 1.0, -1.0
    off[n + a, a, n] = off[n + a, n, a] = 1.0j
    mats = ([np.pad(m, (0, 1)) for m in su_basis(n)]
            + [1.0j * np.diag([1.0] * n + [-float(n)])] + list(off))
    real = np.array([realify_complex(m) for m in mats])
    return real, n * n - 1


def build_trivial_module_space(n: int) -> ReductiveSpace:
    """SU(n+1)/SU(n), n >= 2, whose isotropy representation fixes a line.

    Its ``noncompact_dual`` is SU(n,1)/SU(n).
    """
    if n < 2:
        raise ValueError("SU(n+1)/SU(n) needs n >= 2")
    mats, k_dim = _su_adapted_matrices(n)
    return _coordinate_space(f"SU({n + 1})/SU({n})",
                             LieAlgebra(structure_constants_from_matrices(mats)),
                             k_dim, (1, 2 * n))


def _line_extension(deriv: np.ndarray) -> LieAlgebra:
    """R acting on R^e by one derivation, as a semidirect sum."""
    line = abelian(1)
    return semidirect_sum(line, Representation(line, deriv[None]))


def euclidean_screw(n: int) -> ReductiveSpace:
    """The flat simply transitive screw group on R^(1+2n), n >= 1."""
    if n < 1:
        raise ValueError(f"the screw group needs n >= 1, got {n}")
    alg = _line_extension(realify_complex(1.0j * np.eye(n)))
    return _coordinate_space(f"R|xC^{n} screw", alg, 0, (1, 2 * n),
                             ("flat: simply transitive isometric screw action",))


# ---------------------------------------------------------------------------
# rank-one solvable extensions
# ---------------------------------------------------------------------------


def hyperbolic_semidirect(field: str, rate: float) -> ReductiveSpace:
    """Solvable model R x| K with derivation rate * I + rotation on the ideal.

    ``field`` is "R", "C" or "H"; ``rate`` is finite and nonzero, and the
    rotation is scalar multiplication by the imaginary unit (none for R).
    """
    if field not in ("R", "C", "H"):
        raise ValueError("field must be R, C or H")
    if not (np.isfinite(rate) and rate != 0.0):
        raise ValueError(f"rate must be finite and nonzero, got {rate!r} "
                         f"(zero makes the extension isometric)")
    rotation = {"R": np.zeros((1, 1)), "C": np.array([[0.0, -1.0], [1.0, 0.0]]),
                "H": quaternion_left((0.0, 1.0, 0.0, 0.0))}[field]
    e = len(rotation)
    alg = _line_extension(rate * np.eye(e) + rotation)
    return _coordinate_space(f"R|x{field}(rate={rate:g})", alg, 0, (1, e))


# ---------------------------------------------------------------------------
# noncompact duals and the catalog
# ---------------------------------------------------------------------------


def noncompact_dual(space: ReductiveSpace) -> ReductiveSpace:
    """The Cartan dual: the same space with the sign of [m2, m2] flipped.

    m2 is the last block and must be the trailing coordinate block, else
    ``ValueError``.  ``weyl_flip`` raises ``ValidationError`` unless the rest
    of g and m2 grade g as a symmetric pair.  The isotropy, blocks and notes
    are kept, so applying it twice gives back the constants of ``space``.
    """
    d, m2 = space.dim, space.blocks[-1]
    trailing = np.arange(d - m2.dim, d)
    if not np.array_equal(m2.basis, np.eye(d)[:, trailing]):
        raise ValueError(f"{space.label}: the last block is not the trailing coordinate block")
    return ReductiveSpace(f"dual of {space.label}", weyl_flip(space.algebra, trailing),
                          space.isotropy, space.blocks, space.notes)


# The one-block symmetric controls; every other catalog space has two blocks.
SYMMETRIC_CONTROLS = ("SO(5)/SO(2)SO(3)", "SU(3)xSU(3)/dSU(3)")


def _grassmannian_control() -> ReductiveSpace:
    """Rank-two symmetric control: so(5) over so(2) + so(3)."""
    alg = so_algebra(5)
    in_k = np.array([(j <= 2) or (i >= 3) for i, j in bivector_pairs(5)])
    return ReductiveSpace("SO(5)/SO(2)SO(3)", alg, Subspace.coordinate(alg.dim, np.flatnonzero(in_k)),
                          (Subspace.coordinate(alg.dim, np.flatnonzero(~in_k)),))


def _group_manifold_control() -> ReductiveSpace:
    """Rank-two symmetric control: the group manifold of su(3)."""
    su3 = su_standard(3).algebra
    alg = direct_sum(su3, su3)
    half = np.eye(su3.dim) / np.sqrt(2.0)
    # 0.0 - half, not -half, so that the exported basis holds no -0.0
    return ReductiveSpace("SU(3)xSU(3)/dSU(3)", alg, Subspace(np.vstack([half, half])),
                          (Subspace(np.vstack([half, 0.0 - half])),))


def _catalog_builders() -> dict:
    builders = {}
    for cdim, copies in [(c, k) for k in (1, 2) for c in (1, 2, 3)] + [(6, 1), (7, 1)]:
        builders[heisenberg_label(cdim, copies)] = (
            lambda c=cdim, k=copies: build_heisenberg(c, k))

    clifford_entries = {
        "Sp(2)/U(1)Sp(1)": (2, True),
        "Sp(1)Sp(2)/dSp(1)Sp(1)": (3, True),
        "Spin(9)/Spin(7)": (7, True),
        "Sp(1)Sp(1)|xR4/U(1)Sp(1)": (2, False),
        "Sp(1)(Sp(1)Sp(1)|xR4)/dSp(1)Sp(1)": (3, False),
        "Spin(7)|xR8/Spin(6)": (6, False),
        "Spin(8)|xR8+/Spin(7)": (7, False),
    }
    for label, (n, completed) in clifford_entries.items():
        builders[label] = (
            lambda n=n, c=completed: build_clifford_space(n, 1.0, 1.0 / np.sqrt(2.0), c))
    builders["SU(3)/SU(2)"] = lambda: build_trivial_module_space(2)
    # each noncompact entry is the dual of its compact partner
    for label, compact in {"SU(2,1)/SU(2)": "SU(3)/SU(2)",
                           "Sp(1,1)/U(1)Sp(1)": "Sp(2)/U(1)Sp(1)",
                           "Sp(1)Sp(1,1)/dSp(1)Sp(1)": "Sp(1)Sp(2)/dSp(1)Sp(1)",
                           "Spin(8,1)/Spin(7)": "Spin(9)/Spin(7)"}.items():
        builders[label] = lambda c=compact: noncompact_dual(catalog_entry(c))
    builders.update(zip(SYMMETRIC_CONTROLS, (_grassmannian_control, _group_manifold_control)))
    return builders


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_catalog_builders()))


@lru_cache(maxsize=None)
def catalog_entry(space_id: str) -> ReductiveSpace:
    """The catalog space ``space_id``, built (and so checked) once, labelled by its id."""
    builders = _catalog_builders()
    if space_id not in builders:
        raise KeyError(f"unknown catalog id {space_id!r}")
    space = builders[space_id]()
    object.__setattr__(space, "label", space_id)  # not replace(): it would run every check again
    return space


def catalog() -> list[ReductiveSpace]:
    """All catalog spaces in id order."""
    return [catalog_entry(i) for i in catalog_ids()]
