"""Reductive homogeneous spaces: constructors, catalog, structural checks.

A ``ReductiveSpace`` is a structure-constant algebra g together with an
isotropy subalgebra k and an ordered orthogonal decomposition of its
complement into invariant blocks m_1, m_2, ...  Constructors cover:

* the Clifford-parameter family g = k0 + k1 + m1 + m2: spin(n) rotations
  acting on a vector block m1 and a Clifford-module block m2, with bracket
  scales lam on m1 x m1, mu on m1 x m2, and a selectable m2 x m2 mode,
* two-step nilpotent algebras whose center acts by skew maps J_Z with
  J_Z J_W + J_W J_Z = -2 <Z, W> I ("generalized Heisenberg"),
* unitary quotients whose isotropy action fixes a line,
* rank-one solvable extensions R x| K^l with a non-isometric dilation,
* a catalog of the model spaces exercised by the verification suite.

The Jacobi identity is enforced at construction: a violation raises
``ValidationError`` carrying the normalized residual and the worst basis
triple.  That residual is itself the point of several checks (the constraint
lam = 2 mu^2 is reproduced as exactly this failure).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .algebra import (
    JACOBI_TOL,
    LieAlgebra,
    Subspace,
    ValidationError,
    ad_matrix,
    direct_sum,
    jacobi_residual,
    killing_form,
    place_action,
    require_valid,
    structure_constants_from_matrices,
    subalgebra,
    weyl_flip,
)
from .builders import (
    CliffordIsotropy,
    clifford_isotropy,
    realify_complex,
    su_basis,
)
from .clifford import bivector_pairs, so_structure_tensor, so_vector_matrices
from .completion import CompletionProblem, CompletionSolution, complete_bracket
from .linalg import residual_scale, signature
from .reps import (
    Representation,
    block_invariance_residual,
    fixed_subspace,
    kernel_ideal,
    restrict,
)

__all__ = [
    "CliffordSpaceSpec",
    "EigenReport",
    "G1Report",
    "HeisenbergSpec",
    "ReductiveSpace",
    "SemidirectHyperbolicSpec",
    "ad_eigenspace_decomposition",
    "build_clifford_space",
    "build_g1",
    "build_heisenberg",
    "build_trivial_module_space",
    "catalog",
    "catalog_entry",
    "catalog_ids",
    "clifford_completion_problem",
    "clifford_g1",
    "flat_unitary_space",
    "hyperbolic_semidirect",
    "isotropy_representation",
    "projected_action_isometry_test",
    "verify_flatness",
]


# ---------------------------------------------------------------------------
# the space type
# ---------------------------------------------------------------------------


@dataclass
class ReductiveSpace:
    """Algebra with isotropy subalgebra and invariant complement blocks."""

    label: str
    algebra: LieAlgebra
    isotropy: Subspace
    blocks: tuple[Subspace, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self):
        self.blocks = tuple(self.blocks)
        d = self.algebra.dim
        if self.isotropy.ambient_dim != d or any(b.ambient_dim != d for b in self.blocks):
            raise ValueError("isotropy and blocks must live in the algebra")
        if self.isotropy.dim + sum(b.dim for b in self.blocks) != d:
            raise ValueError("isotropy and blocks must decompose the algebra")

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def m_dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    def m_basis(self) -> np.ndarray:
        return np.hstack([b.basis for b in self.blocks])

    def block_slices(self) -> list[tuple[int, ...]]:
        out, start = [], 0
        for b in self.blocks:
            out.append(tuple(range(start, start + b.dim)))
            start += b.dim
        return out

    def validate(self, tol: float = JACOBI_TOL) -> "ReductiveSpace":
        require_valid(self.algebra, tol, self.label)
        rep, _ = isotropy_representation(self)
        rep.validate(max(tol, 1e-9))
        return self


def _coordinate_space(label, alg, k_dim, block_dims, notes=()) -> ReductiveSpace:
    d = alg.dim
    cuts = np.cumsum([k_dim] + list(block_dims))
    blocks = [Subspace.coordinate(d, range(cuts[i], cuts[i + 1]))
              for i in range(len(block_dims))]
    return ReductiveSpace(label, alg, Subspace.coordinate(d, range(k_dim)),
                          tuple(blocks), tuple(notes))


def _span_subalgebra(alg: LieAlgebra, basis: np.ndarray) -> tuple[LieAlgebra, float]:
    """Structure constants on the span of orthonormal columns, with its closure residual.

    The residual is the largest bracket component leaving the span, relative
    to the largest structure constant of ``alg``.
    """
    amb = np.einsum("pa,qb,pql->abl", basis, basis, alg.c)
    sub = np.einsum("abl,lc->abc", amb, basis)
    leak = np.abs(amb - np.einsum("abc,lc->abl", sub, basis)).max(initial=0.0)
    return LieAlgebra(0.5 * (sub - sub.transpose(1, 0, 2))), float(leak / residual_scale(alg.c))


def _isotropy_action(alg: LieAlgebra, kb: np.ndarray, mb: np.ndarray):
    """Brackets ``km[a, i] = [k_a, m_i]`` and their m-coordinates ``rho[a][j, i]``."""
    km = np.einsum("pa,qi,pql->ail", kb, mb, alg.c)
    return km, np.einsum("ail,lj->aji", km, mb)


def isotropy_representation(space: ReductiveSpace, tol: float = 1e-8):
    """Isotropy action of k on m in block coordinates.

    Returns ``(rep, slices)``: a ``Representation`` of the isotropy
    subalgebra on the stacked block coordinates, and the coordinate ranges of
    the blocks.  Verifies closure of k and invariance of every block.
    """
    alg = space.algebra
    mb = space.m_basis()
    k_alg, leak = _span_subalgebra(alg, space.isotropy.basis)
    if leak >= tol:
        raise ValidationError(f"isotropy is not a subalgebra (residual {leak:.3e})")
    km, mats = _isotropy_action(alg, space.isotropy.basis, mb)
    leak = np.abs(km - np.einsum("aji,lj->ail", mats, mb)).max(initial=0.0) / residual_scale(alg.c)
    if leak >= tol:
        raise ValidationError(f"blocks are not invariant under k (residual {leak:.3e})")
    rep = Representation(k_alg, mats)
    slices = space.block_slices()
    if any(block_invariance_residual(rep, idx) >= tol for idx in slices):
        raise ValidationError("a designated block is not invariant under k")
    return rep, slices


# ---------------------------------------------------------------------------
# Clifford-parameter family
# ---------------------------------------------------------------------------


@dataclass
class CliffordSpaceSpec:
    """Parameters of the Clifford construction.

    ``m2_mode`` is ``("zero",)``, ``("heisenberg", kappa)`` or
    ``("completed", selector)``; selectors are ``"negative-definite"``,
    ``"abelian"`` or ``("signature", p, q)``.
    """

    n: int
    lam: float
    mu: float
    copies: int = 1
    m2_mode: tuple = ("zero",)

    def __post_init__(self):
        self.m2_mode = tuple(self.m2_mode)
        if self.n not in (2, 3, 6, 7):
            raise ValueError("the construction is defined for n in {2, 3, 6, 7}")
        if self.m2_mode[0] not in ("zero", "heisenberg", "completed"):
            raise ValueError(f"unknown m2 mode {self.m2_mode!r}")
        if self.m2_mode[0] == "heisenberg":
            if self.mu != 0.0 or self.lam != 0.0:
                raise ValueError("the nilpotent mode requires lam = 2 mu^2 = 0")
            if len(self.m2_mode) < 2 or self.m2_mode[1] == 0.0:
                raise ValueError("the nilpotent mode requires kappa != 0")


def _clifford_layout(data: CliffordIsotropy):
    dk = data.algebra.dim
    dm2 = data.m2_matrices.shape[1]
    k_idx = np.arange(dk)
    m1_idx = np.arange(dk, dk + data.n)
    m2_idx = np.arange(dk + data.n, dk + data.n + dm2)
    return k_idx, m1_idx, m2_idx


def _clifford_skeleton(spec: CliffordSpaceSpec):
    """Structure tensor with the fixed brackets of the construction.

    The m2 x m2 block is left empty here; modes fill it afterwards.  Returns
    the tensor together with the layout and isotropy data.
    """
    data = clifford_isotropy(spec.n, spec.copies)
    k_idx, m1_idx, m2_idx = _clifford_layout(data)
    d = len(k_idx) + len(m1_idx) + len(m2_idx)
    c = np.zeros((d, d, d))

    c[np.ix_(k_idx, k_idx, k_idx)] = data.algebra.c
    place_action(c, k_idx, m1_idx, data.m1_matrices)
    place_action(c, k_idx, m2_idx, data.m2_matrices)

    # [e_i, e_j] = 2 lam L_ij
    for p, (i, j) in enumerate(bivector_pairs(spec.n)):
        c[m1_idx[i - 1], m1_idx[j - 1], k_idx[p]] = 2.0 * spec.lam
        c[m1_idx[j - 1], m1_idx[i - 1], k_idx[p]] = -2.0 * spec.lam

    # [e_i, w] = mu Gamma_i w on each module copy
    gam = np.array([np.kron(np.eye(spec.copies), g) for g in data.module.gammas])
    place_action(c, m1_idx, m2_idx, spec.mu * gam)
    labels = tuple(
        [f"L{i}{j}" for i, j in bivector_pairs(spec.n)]
        + [f"s{a}" for a in range(data.k1_dim)]
        + [f"e{i}" for i in range(1, spec.n + 1)]
        + [f"w{a}" for a in range(len(m2_idx))]
    )
    return c, labels, data, gam, (k_idx, m1_idx, m2_idx)


def clifford_completion_problem(n: int, lam: float, mu: float,
                                copies: int = 1) -> CompletionProblem:
    """Completion problem for the unknown m2 x m2 block of the construction."""
    spec = CliffordSpaceSpec(n, lam, mu, copies)
    c, labels, data, gam, (k_idx, m1_idx, m2_idx) = _clifford_skeleton(spec)
    skeleton = LieAlgebra(c, labels=labels)
    target = Subspace.coordinate(skeleton.dim, list(k_idx) + list(m1_idx))
    return CompletionProblem(skeleton, tuple(int(i) for i in m2_idx), target)


@lru_cache(maxsize=None)
def _cached_completion(n: int, lam: float, mu: float, copies: int) -> CompletionSolution:
    return complete_bracket(clifford_completion_problem(n, lam, mu, copies))


_COMPLETION_GRID = (1.0, -1.0, 2.0, -2.0, 0.5, -0.5)


def _select_completion(solution: CompletionSolution, selector) -> np.ndarray:
    """Deterministic scan of the solution space for a fingerprinted filling.

    The grid walks each homogeneous basis direction with weights
    +-1, +-2, +-1/2 (plus pairwise sums when the nullity exceeds one) and
    returns the first weight vector whose realized algebra matches the
    requested Killing fingerprint.
    """
    if selector == "abelian":
        if solution.empty or np.abs(solution.particular).max(initial=0.0) > 1e-9:
            raise ValidationError("no abelian filling: the zero block is not a solution")
        return np.zeros(solution.nullity)

    def matches(weights) -> bool:
        alg = solution.realize(weights)
        if jacobi_residual(alg) >= JACOBI_TOL:
            return False
        sig = signature(killing_form(alg))
        if selector == "negative-definite":
            return sig == (0, alg.dim, 0)
        if isinstance(selector, tuple) and selector[0] == "signature":
            return sig == (selector[1], selector[2], 0)
        raise ValueError(f"unknown completion selector {selector!r}")

    candidates = []
    for i in range(solution.nullity):
        for t in _COMPLETION_GRID:
            w = np.zeros(solution.nullity)
            w[i] = t
            candidates.append(w)
    for i in range(solution.nullity):
        for j in range(i + 1, solution.nullity):
            for ti in (1.0, -1.0):
                for tj in (1.0, -1.0):
                    w = np.zeros(solution.nullity)
                    w[i], w[j] = ti, tj
                    candidates.append(w)
    for w in candidates:
        if matches(w):
            return w
    raise ValidationError(f"no completion matching {selector!r} on the documented grid")


def build_clifford_space(spec: CliffordSpaceSpec, tol: float = JACOBI_TOL) -> ReductiveSpace:
    """Assemble and validate one member of the Clifford-parameter family.

    Raises ``ValidationError`` with the residual triple when the parameters
    are Jacobi-incompatible (any mu != 0 with lam != 2 mu^2).
    """
    c, labels, data, gam, (k_idx, m1_idx, m2_idx) = _clifford_skeleton(spec)
    notes = []
    if spec.lam < 0:
        notes.append("excluded branch: negative scale admits no real module coupling")
    if spec.m2_mode[0] == "heisenberg":
        kappa = float(spec.m2_mode[1])
        for i in range(spec.n):
            # <Z | [X, Y]> = kappa <Z . X | Y>; skewness of Gamma_i gives the
            # antisymmetry of the block for free
            c[m2_idx[:, None], m2_idx[None, :], m1_idx[i]] = kappa * gam[i].T
        alg = LieAlgebra(c, labels=labels)
    elif spec.m2_mode[0] == "completed":
        solution = _cached_completion(spec.n, spec.lam, spec.mu, spec.copies)
        if solution.empty:
            raise ValidationError("completion problem has no admissible filling")
        weights = _select_completion(solution, spec.m2_mode[1])
        alg = LieAlgebra(solution.realize(weights).c, labels=labels)
    else:
        alg = LieAlgebra(c, labels=labels)
    require_valid(alg, tol, f"clifford construction n={spec.n}")
    label = f"Cl(n={spec.n},lam={spec.lam:g},mu={spec.mu:g},{spec.m2_mode[0]})"
    return _coordinate_space(label, alg, len(k_idx), (len(m1_idx), len(m2_idx)), notes)


def clifford_g1(n: int, lam: float) -> LieAlgebra:
    """The subalgebra k0 + m1 alone: rotations plus a vector block.

    Valid for every sign of lam: positive gives the compact rotation algebra
    one dimension up, zero the Euclidean semidirect sum, negative the Lorentz
    form.  The negative branch is flagged in the notes because the full
    construction excludes it.
    """
    k_dim = n * (n - 1) // 2
    d = k_dim + n
    c = np.zeros((d, d, d))
    c[:k_dim, :k_dim, :k_dim] = so_structure_tensor(n)
    ix_m = np.arange(k_dim, d)
    place_action(c, np.arange(k_dim), ix_m, so_vector_matrices(n))
    for p, (i, j) in enumerate(bivector_pairs(n)):
        c[ix_m[i - 1], ix_m[j - 1], p] = 2.0 * lam
        c[ix_m[j - 1], ix_m[i - 1], p] = -2.0 * lam
    alg = LieAlgebra(c)
    require_valid(alg, JACOBI_TOL, "rotation extension")
    if lam < 0:
        alg = alg.with_notes("excluded branch: negative scale admits no real module coupling")
    return alg


# ---------------------------------------------------------------------------
# generalized Heisenberg algebras
# ---------------------------------------------------------------------------


@dataclass
class HeisenbergSpec:
    """Two-step nilpotent data: center dimension, module copies, raw kappa."""

    center_dim: int
    copies: int = 1
    kappa: float = 1.0

    def __post_init__(self):
        if self.center_dim not in (1, 2, 3, 6, 7):
            raise ValueError("center dimension must be one of 1, 2, 3, 6, 7")
        if self.center_dim in (6, 7) and self.copies != 1:
            raise ValueError("only one module copy is wired for center dimension 6, 7")


def heisenberg_label(spec: HeisenbergSpec) -> str:
    if spec.center_dim in (3, 7):
        return f"N({spec.center_dim};{spec.copies},0)"
    return f"N({spec.center_dim},{spec.copies})"


def build_heisenberg(spec: HeisenbergSpec, tol: float = JACOBI_TOL) -> ReductiveSpace:
    """Normalized generalized Heisenberg space with its canonical isotropy.

    Any kappa != 0 is normalized away by Z -> sgn(kappa) Z, X -> X/sqrt|kappa|,
    after which <Z | [X, Y]> = <Z . X | Y> holds exactly; the returned tensor
    is the normalized one.  kappa = 0 degenerates to the flat abelian case,
    which is returned with a note rather than raised.
    """
    if spec.kappa == 0.0:
        note = "degenerate: kappa = 0 gives the flat abelian case"
    else:
        note = None
    if spec.center_dim == 1:
        return _heisenberg_center_one(spec, note)
    mode = ("heisenberg", 1.0) if spec.kappa != 0.0 else ("zero",)
    cspec = CliffordSpaceSpec(spec.center_dim, 0.0, 0.0, spec.copies, mode)
    space = build_clifford_space(cspec, tol)
    notes = space.notes + ((note,) if note else ())
    return ReductiveSpace(heisenberg_label(spec), space.algebra, space.isotropy,
                          space.blocks, notes)


def _heisenberg_center_one(spec: HeisenbergSpec, note: str | None) -> ReductiveSpace:
    """N(1, k): center R, module C^k, isotropy u(k)."""
    k = spec.copies
    basis = su_basis(k) + [1.0j * np.eye(k)]
    mats = np.array([realify_complex(m) for m in basis])
    k_alg = LieAlgebra(structure_constants_from_matrices(mats))
    dk = k_alg.dim
    dm2 = 2 * k
    d = dk + 1 + dm2
    c = np.zeros((d, d, d))
    c[:dk, :dk, :dk] = k_alg.c
    ix_m2 = np.arange(dk + 1, d)
    place_action(c, np.arange(dk), ix_m2, mats)
    if spec.kappa != 0.0:
        f = realify_complex(1.0j * np.eye(k))  # the invariant complex structure
        c[np.ix_(ix_m2, ix_m2, [dk])] = f.T[:, :, None]
    alg = LieAlgebra(c)
    require_valid(alg, JACOBI_TOL, "center-one nilpotent space")
    return _coordinate_space(heisenberg_label(spec), alg, dk, (1, dm2),
                             (note,) if note else ())


def nilpotent_part(space: ReductiveSpace) -> LieAlgebra:
    """The ideal m1 + m2 of a nilpotent-type space as an algebra of its own.

    Raises ``ValueError`` unless every block is a coordinate block.
    """
    idx = [i for b in space.blocks for i in b.coordinate_indices()]
    return subalgebra(space.algebra, idx)


# ---------------------------------------------------------------------------
# trivial-submodule branch and flat constructions
# ---------------------------------------------------------------------------


def _su_adapted_matrices(n: int) -> tuple[np.ndarray, int]:
    """Realified su(n+1) basis adapted to the su(n) subalgebra.

    Order: su(n) block, the orthogonal torus direction, then the off-block
    column vectors (real parts, imaginary parts).
    """
    mats = []
    for m in su_basis(n):
        big = np.zeros((n + 1, n + 1), dtype=complex)
        big[:n, :n] = m
        mats.append(big)
    t = 1.0j * np.diag([1.0] * n + [-float(n)])
    mats.append(t)
    for a in range(n):
        e = np.zeros((n + 1, n + 1), dtype=complex)
        e[a, n], e[n, a] = 1.0, -1.0
        mats.append(e)
    for a in range(n):
        f = np.zeros((n + 1, n + 1), dtype=complex)
        f[a, n] = f[n, a] = 1.0j
        mats.append(f)
    real = np.array([realify_complex(m) for m in mats])
    return real, n * n - 1


def build_trivial_module_space(branch: str, n: int = 2) -> ReductiveSpace:
    """Spaces whose isotropy representation fixes a line.

    Branches: ``su_compact`` (unitary quotient, n >= 2), ``su_noncompact``
    (its Lorentz dual), ``heis`` (center-one nilpotent, n = module count),
    ``euclidean_screw`` (the flat simply transitive screw group on R^(1+2n)).
    """
    if branch == "heis":
        return build_heisenberg(HeisenbergSpec(1, n))
    if branch == "euclidean_screw":
        return _euclidean_screw(n)
    if branch not in ("su_compact", "su_noncompact"):
        raise ValueError(f"unknown branch {branch!r}")
    if n < 2:
        raise ValueError("the unitary branch needs n >= 2")
    mats, k_dim = _su_adapted_matrices(n)
    c = structure_constants_from_matrices(mats)
    alg = LieAlgebra(c)
    require_valid(alg, JACOBI_TOL, "unitary quotient")
    label = f"SU({n + 1})/SU({n})"
    if branch == "su_noncompact":
        m2_idx = list(range(k_dim + 1, alg.dim))
        alg = weyl_flip(alg, m2_idx)
        require_valid(alg, JACOBI_TOL, "unitary quotient, noncompact dual")
        label = f"SU({n},1)/SU({n})"
    return _coordinate_space(label, alg, k_dim, (1, 2 * n))


def _euclidean_screw(n: int) -> ReductiveSpace:
    d = 1 + 2 * n
    c = np.zeros((d, d, d))
    j = realify_complex(1.0j * np.eye(n))
    place_action(c, [0], np.arange(1, d), j[None])
    alg = LieAlgebra(c)
    require_valid(alg, JACOBI_TOL, "screw group")
    return _coordinate_space(f"R|xC^{n} screw", alg, 0, (1, 2 * n),
                             ("flat: simply transitive isometric screw action",))


def flat_unitary_space(n: int = 3, det_power: int = 1) -> ReductiveSpace:
    """u(n) acting by a determinant power on a plane and standardly on C^n.

    All brackets among the complement blocks vanish: the complement is an
    abelian ideal and the space is flat.
    """
    basis = su_basis(n) + [1.0j * np.eye(n)]
    m2 = np.array([realify_complex(m) for m in basis])
    k_alg = LieAlgebra(structure_constants_from_matrices(m2))
    m1 = np.array([realify_complex(np.array([[det_power * np.trace(m)]])) for m in basis])
    dk = k_alg.dim
    d = dk + 2 + 2 * n
    c = np.zeros((d, d, d))
    c[:dk, :dk, :dk] = k_alg.c
    place_action(c, np.arange(dk), np.arange(dk, dk + 2), m1)
    place_action(c, np.arange(dk), np.arange(dk + 2, d), m2)
    alg = LieAlgebra(c)
    require_valid(alg, JACOBI_TOL, "flat unitary construction")
    return _coordinate_space(f"U({n}) det^{det_power} flat", alg, dk, (2, 2 * n))


# ---------------------------------------------------------------------------
# rank-one solvable extensions
# ---------------------------------------------------------------------------


@dataclass
class SemidirectHyperbolicSpec:
    """R x| K^copies with derivation rate * I + rotation.

    ``field`` is "R", "C" or "H"; the symmetric part of the derivation is
    rate times the identity (rate != 0), the skew part is scalar
    multiplication by ``rotation`` times the imaginary unit (ignored for R).
    """

    field: str
    copies: int = 1
    rate: float = 1.0
    rotation: float = 1.0

    def __post_init__(self):
        if self.field not in ("R", "C", "H"):
            raise ValueError("field must be R, C or H")
        if self.rate == 0.0:
            raise ValueError("rate must be nonzero (otherwise the extension is isometric)")


def _field_dim(field: str) -> int:
    return {"R": 1, "C": 2, "H": 4}[field]


def hyperbolic_semidirect(spec: SemidirectHyperbolicSpec) -> ReductiveSpace:
    """Solvable model with derivation rate * I + rotation on the ideal."""
    e = _field_dim(spec.field) * spec.copies
    deriv = spec.rate * np.eye(e)
    if spec.field == "C":
        deriv = deriv + spec.rotation * np.kron(np.eye(spec.copies),
                                                np.array([[0.0, -1.0], [1.0, 0.0]]))
    elif spec.field == "H":
        from .builders import quaternion_left

        deriv = deriv + spec.rotation * np.kron(np.eye(spec.copies),
                                                quaternion_left((0.0, 1.0, 0.0, 0.0)))
    d = 1 + e
    c = np.zeros((d, d, d))
    place_action(c, [0], np.arange(1, d), deriv[None])
    alg = LieAlgebra(c)
    require_valid(alg, JACOBI_TOL, "solvable extension")
    label = f"R|x{spec.field}^{spec.copies}(rate={spec.rate:g})"
    return _coordinate_space(label, alg, 0, (1, e))


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


@dataclass
class G1Report:
    closure_residual: float
    kernel_dim: int
    hypothesis_mode: str


class G1Refusal(ValidationError):
    """The fixed-vector hypothesis fails; carries a witness vector."""

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def build_g1(space: ReductiveSpace) -> tuple[LieAlgebra, G1Report]:
    """The subalgebra spanned by k and the first block, with a closure report.

    Hypothesis check: the kernel N1 of the isotropy action on m1 must have no
    nonzero fixed vector on m2; a violation raises ``G1Refusal`` carrying a
    witness.  When N1 is trivial at the algebra level the test is
    inconclusive (a finite kernel such as a central involution can still act
    freely), so closure is checked directly; the report records which path
    certified the result.  Either way k + m1 must close under the bracket
    within a relative residual of 1e-8, or ``ValidationError`` is raised.
    """
    if len(space.blocks) < 2:
        raise ValueError("two blocks are required")
    rep, slices = isotropy_representation(space)
    n1 = kernel_ideal(restrict(rep, slices[0]))
    m2_all = [i for s in slices[1:] for i in s]
    mode = "kernel-fixed-vector"
    if n1.dim > 0:
        fixed = fixed_subspace(restrict(rep, m2_all), n1)
        if fixed.dim > 0:
            mb = space.m_basis()
            witness = mb[:, m2_all] @ fixed.basis[:, 0]
            raise G1Refusal("kernel on m1 fixes a nonzero vector of m2", witness)
    else:
        mode = "closure-direct"

    g1_basis = np.hstack([space.isotropy.basis, space.blocks[0].basis])
    g1, closure = _span_subalgebra(space.algebra, g1_basis)
    if closure >= 1e-8:
        raise ValidationError(f"k + m1 is not closed (residual {closure:.3e})")
    require_valid(g1, 1e-8, "k + m1 subalgebra")
    return g1, G1Report(closure, n1.dim, mode)


def projected_action_isometry_test(space: ReductiveSpace) -> tuple[bool, float]:
    """Is m -> proj_m2 [xi, m] skew for every xi in k + m1?

    Returns the verdict and the largest spectral norm of a symmetric part.
    """
    if len(space.blocks) < 2:
        raise ValueError("two blocks are required")
    m2 = space.blocks[1].basis
    g1_basis = np.hstack([space.isotropy.basis, space.blocks[0].basis])
    worst = 0.0
    for a in range(g1_basis.shape[1]):
        op = m2.T @ ad_matrix(space.algebra, g1_basis[:, a]) @ m2
        sym = 0.5 * (op + op.T)
        worst = max(worst, float(np.linalg.norm(sym, 2)))
    return worst < 1e-9, worst


@dataclass
class EigenReport:
    eigenvalues: tuple
    zero_dim: int
    zero_matches_g1: bool
    nonzero_blocks: dict
    offzero_abelian_residual: float
    defect: int


def ad_eigenspace_decomposition(space: ReductiveSpace, xi=None,
                                tol: float = 1e-8) -> EigenReport:
    """Eigen-structure of ad(xi) for the rank-one generator xi in m1.

    The zero eigenspace is compared with k + m1; nonzero eigenvalues are
    grouped by value (complex pairs give planes), and the invariant subspace
    they span is checked to be an abelian subalgebra.
    """
    if space.blocks[0].dim != 1 and xi is None:
        raise ValueError("m1 must be a line (or pass xi explicitly)")
    if xi is None:
        xi = space.blocks[0].basis[:, 0]
    a = ad_matrix(space.algebra, np.asarray(xi, dtype=float))
    eigvals, eigvecs = np.linalg.eig(a)
    from .linalg import nullspace, orthonormal_columns

    defect = a.shape[0] - int(np.linalg.matrix_rank(eigvecs, tol=1e-10 * a.shape[0]))
    zero = nullspace(a)
    g1_basis = np.hstack([space.isotropy.basis, space.blocks[0].basis])
    gap = 1.0
    if zero.shape[1] == g1_basis.shape[1]:
        from .linalg import subspace_gap

        gap = subspace_gap(zero, orthonormal_columns(g1_basis))
    blocks: dict = {}
    mask = np.abs(eigvals) > tol
    for lam in eigvals[mask]:
        key = (round(float(lam.real), 8), round(abs(float(lam.imag)), 8))
        blocks[key] = blocks.get(key, 0) + 1
    span = np.hstack([np.real(eigvecs[:, mask]), np.imag(eigvecs[:, mask])])
    span = orthonormal_columns(span)
    resid = 0.0
    scale = residual_scale(space.algebra.c)
    for i in range(span.shape[1]):
        for j in range(i + 1, span.shape[1]):
            v = np.einsum("p,q,pql->l", span[:, i], span[:, j], space.algebra.c)
            resid = max(resid, float(np.abs(v).max(initial=0.0) / scale))
    return EigenReport(tuple(np.round(eigvals, 10)), zero.shape[1], gap < tol,
                       blocks, resid, defect)


def verify_flatness(space: ReductiveSpace, tol: float = 1e-9) -> bool:
    """Flat iff the complement is an abelian ideal, else iff curvature vanishes.

    The algebraic test (all brackets among complement blocks zero) is
    sufficient; presentations by simply transitive non-abelian groups such as
    the screw group fail it while still being flat, so the invariant-metric
    curvature tensor is consulted as the deciding cross-check.
    """
    mb = space.m_basis()
    amb = np.einsum("pa,qb,pql->abl", mb, mb, space.algebra.c)
    scale = residual_scale(space.algebra.c)
    abelian_ideal = float(np.abs(amb).max(initial=0.0) / scale) < tol
    from .geometry import InvariantMetricSpace, curvature_tensor

    r = curvature_tensor(InvariantMetricSpace(space))
    curv_flat = bool(np.abs(r).max(initial=0.0) < tol)
    if abelian_ideal and not curv_flat:
        raise AssertionError("abelian complement with nonzero curvature: inconsistent space")
    return abelian_ideal or curv_flat


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def _su3_algebra() -> LieAlgebra:
    mats = np.array([realify_complex(m) for m in su_basis(3)])
    return LieAlgebra(structure_constants_from_matrices(mats))


def _grassmannian_control() -> ReductiveSpace:
    """Rank-two symmetric control: so(5) over so(2) + so(3)."""
    pairs = bivector_pairs(5)
    alg = LieAlgebra(so_structure_tensor(5),
                     labels=tuple(f"L{i}{j}" for i, j in pairs))
    k_idx = [p for p, (i, j) in enumerate(pairs) if (j <= 2) or (i >= 3)]
    m_idx = [p for p in range(len(pairs)) if p not in k_idx]
    d = alg.dim
    return ReductiveSpace("SO(5)/SO(2)SO(3)", alg,
                          Subspace.coordinate(d, k_idx),
                          (Subspace.coordinate(d, m_idx),))


def _group_manifold_control() -> ReductiveSpace:
    """Rank-two symmetric control: the group manifold of su(3)."""
    su3 = _su3_algebra()
    alg = direct_sum(su3, su3)
    d, h = alg.dim, su3.dim
    diag = np.zeros((d, h))
    anti = np.zeros((d, h))
    for a in range(h):
        diag[a, a] = diag[h + a, a] = 1.0 / np.sqrt(2.0)
        anti[a, a] = 1.0 / np.sqrt(2.0)
        anti[h + a, a] = -1.0 / np.sqrt(2.0)
    return ReductiveSpace("SU(3)xSU(3)/dSU(3)", alg, Subspace(d, diag),
                          (Subspace(d, anti),))


def _catalog_builders() -> dict:
    builders = {}
    for copies in (1, 2):
        for cdim in (1, 2, 3):
            spec = HeisenbergSpec(cdim, copies)
            builders[heisenberg_label(spec)] = (lambda s=spec: build_heisenberg(s))
    for cdim in (6, 7):
        spec = HeisenbergSpec(cdim, 1)
        builders[heisenberg_label(spec)] = (lambda s=spec: build_heisenberg(s))

    def completed(n, sel, label):
        spec = CliffordSpaceSpec(n, 1.0, 1.0 / np.sqrt(2.0), 1, ("completed", sel))
        space = build_clifford_space(spec)
        return ReductiveSpace(label, space.algebra, space.isotropy, space.blocks, space.notes)

    def zero_mode(n, label):
        spec = CliffordSpaceSpec(n, 1.0, 1.0 / np.sqrt(2.0), 1, ("zero",))
        space = build_clifford_space(spec)
        return ReductiveSpace(label, space.algebra, space.isotropy, space.blocks, space.notes)

    builders["SU(3)/SU(2)"] = lambda: build_trivial_module_space("su_compact", 2)
    builders["SU(2,1)/SU(2)"] = lambda: build_trivial_module_space("su_noncompact", 2)
    builders["Sp(2)/U(1)Sp(1)"] = lambda: completed(2, "negative-definite", "Sp(2)/U(1)Sp(1)")
    builders["Sp(1,1)/U(1)Sp(1)"] = lambda: completed(2, ("signature", 4, 6), "Sp(1,1)/U(1)Sp(1)")
    builders["Sp(1)Sp(2)/dSp(1)Sp(1)"] = lambda: completed(
        3, "negative-definite", "Sp(1)Sp(2)/dSp(1)Sp(1)")
    builders["Sp(1)Sp(1,1)/dSp(1)Sp(1)"] = lambda: completed(
        3, ("signature", 4, 9), "Sp(1)Sp(1,1)/dSp(1)Sp(1)")
    builders["Spin(9)/Spin(7)"] = lambda: completed(7, "negative-definite", "Spin(9)/Spin(7)")
    builders["Spin(8,1)/Spin(7)"] = lambda: completed(7, ("signature", 8, 28), "Spin(8,1)/Spin(7)")
    builders["Sp(1)Sp(1)|xR4/U(1)Sp(1)"] = lambda: zero_mode(2, "Sp(1)Sp(1)|xR4/U(1)Sp(1)")
    builders["Sp(1)(Sp(1)Sp(1)|xR4)/dSp(1)Sp(1)"] = lambda: zero_mode(
        3, "Sp(1)(Sp(1)Sp(1)|xR4)/dSp(1)Sp(1)")
    builders["Spin(7)|xR8/Spin(6)"] = lambda: zero_mode(6, "Spin(7)|xR8/Spin(6)")
    builders["Spin(8)|xR8+/Spin(7)"] = lambda: zero_mode(7, "Spin(8)|xR8+/Spin(7)")
    builders["SO(5)/SO(2)SO(3)"] = _grassmannian_control
    builders["SU(3)xSU(3)/dSU(3)"] = _group_manifold_control
    return builders


def catalog_ids() -> tuple[str, ...]:
    return tuple(sorted(_catalog_builders()))


@lru_cache(maxsize=None)
def catalog_entry(space_id: str) -> ReductiveSpace:
    builders = _catalog_builders()
    if space_id not in builders:
        raise KeyError(f"unknown catalog id {space_id!r}")
    space = builders[space_id]()
    space.validate()
    return space


def catalog() -> list[ReductiveSpace]:
    """All catalog spaces, validated, in id order."""
    return [catalog_entry(i) for i in catalog_ids()]
