"""Batch claim suite: every verifiable statement the package certifies.

Claims are small deterministic checks with stable string ids, grouped as
``tables``, ``jacobi``, ``heisenberg``, ``curvature``, ``splitting`` and
``catalog``.  A run produces one ``VerificationReport`` per claim plus a
summary.  The registry is a tuple of plain rows ``(claim_id, group, fn,
args)``: ``fn(*args, config)`` returns the claim's verdict fields, and the
runner builds the one report from them.  Claims run one after another on the
calling thread; reports are canonically ordered by claim id, and
byte-identical across runs with the same seed (timing fields aside, which
live in dedicated keys).
"""

from __future__ import annotations

import os
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from . import algebra as la
from . import builders as bld
from . import geometry as geo
from . import spaces as sps
from .linalg import matrix_rank, random_unit_vector
from .reps import (
    DEFAULT_SEED,
    Representation,
    cohomogeneity,
    isotropy_subalgebra,
    kernel_ideal,
    restrict,
    splitting_criterion,
)

__all__ = ["RunConfig", "VerificationReport", "build_claims", "run_suite"]

GROUPS = ("tables", "jacobi", "heisenberg", "curvature", "splitting", "catalog")
# Pass bounds of the residual claims: exact algebra, and closed-form curvature
# against the finite-difference oracle.
TOL_ALGEBRAIC = 1e-9
TOL_FD = 1e-5


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    groups: tuple[str, ...] = GROUPS

    def __post_init__(self):
        if isinstance(self.groups, str):
            raise ValueError(f"groups must be a sequence of group names such as "
                             f"({self.groups!r},), not the string {self.groups!r}")
        # repeats dropped, first order kept
        object.__setattr__(self, "groups", tuple(dict.fromkeys(self.groups)))
        if not self.groups:
            raise ValueError("no claim group selected")
        bad = [g for g in self.groups if g not in GROUPS]
        if bad:
            raise ValueError(f"unknown claim groups: {bad}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


class _ReadOnlyDict(dict):
    """A claim's expected value: built once and shared by the reports of every run.

    Writes raise ``TypeError``, so no caller can move a later verdict by editing
    one report; its values are immutable too (tuples, not lists).  JSON encodes
    it as a plain dict; a copy or an unpickled one is read-only again.
    """

    def _read_only(self, *args, **kwargs):
        raise TypeError("a claim's expected value is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return type(self), (dict(self),)


@dataclass(frozen=True)
class VerificationReport:
    """One claim's verdict, built once by ``_run_one``.  ``expected`` may be shared
    with every other report of the claim in the process; a dict there is a
    read-only ``_ReadOnlyDict``."""

    claim_id: str
    group: str
    status: str
    computed: object
    expected: object
    provenance: str
    residual: float
    tolerance: float
    runtime_ms: int

    def to_json_dict(self) -> dict:
        # the fields in order, holding the shared expected value itself (asdict would copy it)
        return {"schema_version": 1, "type": "report", **vars(self)}


def _verdict(ok, computed, expected, provenance, residual, tolerance):
    """A claim's verdict fields, in ``VerificationReport`` order from ``status`` on."""
    return ("pass" if ok else "fail", computed, expected, provenance,
            float(residual), float(tolerance))


def _exact_claim(computed, expected, provenance):
    """A pass reports the shared expected value as its computed one, which equals it,
    so the reports of a run keep no copy of it."""
    ok = computed == expected
    return _verdict(ok, expected if ok else computed, expected, provenance,
                    0.0 if ok else 1.0, 0.0)


def _worst(residuals) -> float:
    """The largest residual, 0 for none; NaN if any is NaN, so the claim fails."""
    return float(np.max(residuals, initial=0.0))


@lru_cache(maxsize=None)
def _below(tolerance: float) -> str:
    """The expected field of a residual claim: one string per tolerance."""
    return f"< {tolerance:g}"


def _residual_claim(residual, tolerance, provenance):
    return _verdict(residual < tolerance, residual,
                    _below(tolerance), provenance, residual, tolerance)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

SPHERE_TRANSITIVE_ROWS = (
    ("SO(3)", partial(bld.so_standard, 3), 1),
    ("SO(5)", partial(bld.so_standard, 5), 6),
    ("SU(2)", partial(bld.su_standard, 2), 0),
    ("SU(3)", partial(bld.su_standard, 3), 3),
    ("Sp(1)", partial(bld.sp_standard, 1), 0),
    ("Sp(2)", partial(bld.sp_standard, 2), 3),
    ("U(2)", partial(bld.u_standard, 2), 1),
    ("Sp(1)Sp(1)", partial(bld.sp_sp1, 1), 3),
    ("Sp(1)U(1)", partial(bld.sp_u1, 1), 1),
    ("G2", bld.g2_seven, 8),
    ("Spin(7)", bld.spin7_eight, 14),
    ("Spin(9)", bld.spin9_sixteen, 21),
)


def _claim_sphere_row(factory, expected, cfg: RunConfig):
    rep = factory()
    coh = cohomogeneity(rep, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    v = random_unit_vector(rep.space_dim, rng)
    iso = isotropy_subalgebra(rep, v).dim
    computed = {"cohomogeneity": coh, "isotropy_dim": iso}
    return _exact_claim(computed, expected, "sphere-transitive row")


def _isotropy_blocks(space_id):
    """The isotropy representation of a catalog entry and its block slices."""
    space = sps.catalog_entry(space_id)
    return space.rep, space.slices


# The reducible cohomogeneity-two rows, each a source of ``(rep, blocks)``:
# the unitary determinant action, then the isotropy of the four Clifford
# entries without an m2 x m2 bracket.
COH2_ROWS = (
    partial(bld.unitary_determinant_action, 3),
    *(partial(_isotropy_blocks, sid)
      for sid in ("Sp(1)Sp(1)|xR4/U(1)Sp(1)", "Sp(1)(Sp(1)Sp(1)|xR4)/dSp(1)Sp(1)",
                  "Spin(7)|xR8/Spin(6)", "Spin(8)|xR8+/Spin(7)")),
)
COH2_EXPECTED = _ReadOnlyDict(cohomogeneity=2, m2_kernel_dim=0, m1_nontrivial=True)


def _claim_coh2_row(source, cfg: RunConfig):
    rep, (m1, m2) = source()
    coh = cohomogeneity(rep, seed=cfg.seed)
    ker = kernel_ideal(restrict(rep, m2)).dim
    nontrivial = matrix_rank(restrict(rep, m1).matrices.reshape(-1, len(m1))) > 0
    computed = {"cohomogeneity": coh, "m2_kernel_dim": ker, "m1_nontrivial": nontrivial}
    return _exact_claim(computed, COH2_EXPECTED, "reducible cohomogeneity-two row")


# ---------------------------------------------------------------------------
# jacobi and fingerprints
# ---------------------------------------------------------------------------

# The jacobi claims read the skeleton of the Clifford completion problem: the
# algebra of build_clifford_space(n, lam, mu), whose m2 x m2 block is empty.
_MU_VALUES = ((1.0 / np.sqrt(2.0), "rt2inv"), (1.0, "1"), (2.0, "2"))


def _claim_jacobi_valid(n, mu, cfg: RunConfig):
    skeleton = sps.clifford_completion_problem(n, 2.0 * mu * mu, mu).skeleton
    res = la.jacobi_residual(skeleton)
    return _residual_claim(res, TOL_ALGEBRAIC, "bracket-scale constraint, consistent side")


def _claim_jacobi_gate(n, cfg: RunConfig):
    mu = 1.0 / np.sqrt(2.0)
    skeleton = sps.clifford_completion_problem(n, 2.0 * mu * mu + 0.01, mu).skeleton
    residual = la.jacobi_residual(skeleton)
    return _verdict(residual > 1e-3, residual, "> 0.001",
                    "bracket-scale constraint, violated side", residual, 1e-3)


def _claim_completion_n7(space_id, expected, cfg: RunConfig):
    space = sps.catalog_entry(space_id)
    sig = la.signature(la.killing_form(space.algebra))
    computed = {"dim": space.dim, "killing_signature": sig}
    return _exact_claim(computed, expected, "solver output + eigenvalue fingerprint")


N6_EXPECTED = _ReadOnlyDict(nullity=0, abelian_solution_norm=0.0, empty=False)


def _claim_completion_n6(cfg: RunConfig):
    sol = sps._cached_completion(6, 1.0, 1.0 / np.sqrt(2.0))
    abelian_norm = float(np.abs(sol.particular).max(initial=0.0))
    computed = {"nullity": sol.nullity, "abelian_solution_norm": abelian_norm,
                "empty": sol.empty}
    ok = (sol.nullity == 0) and (not sol.empty) and abelian_norm < TOL_ALGEBRAIC
    return _verdict(ok, computed, N6_EXPECTED, "solver rigidity in dimension 29",
                    abelian_norm, TOL_ALGEBRAIC)


# ---------------------------------------------------------------------------
# heisenberg
# ---------------------------------------------------------------------------

HEISENBERG_CASES = ((1, 2), (2, 1), (3, 1), (6, 1), (7, 1))


def _j_matrices(space: sps.ReductiveSpace) -> np.ndarray:
    """Skew maps J_Z from the m2 x m2 -> m1 part of the bracket, in the block bases.

    ``J[a][y, x] = <[w_x, w_y], z_a>``; exact on coordinate blocks.
    """
    m1, m2 = (space.isotropy.dim + np.array(s) for s in space.slices)
    return space.brackets(m2, m2)[..., m1].transpose(2, 1, 0)


def _claim_heisenberg(center, copies, expected, cfg: RunConfig):
    space = sps.catalog_entry(sps.heisenberg_label(center, copies))
    nil = sps.nilpotent_part(space)
    j = _j_matrices(space)
    d2 = j.shape[1]
    jj = (j.reshape(-1, d2) @ j.transpose(1, 0, 2).reshape(d2, -1)).reshape(center, d2, center, d2)
    anti = jj + jj.transpose(2, 1, 0, 3)                # jj[a, i, b, k] = (J_a J_b)[i, k]
    anti.reshape(-1)[::center * d2 + 1] += 2.0           # J_a J_b + J_b J_a + 2 delta_ab I
    j_res = float(np.abs(anti).max(initial=0.0))
    computed = {"center_dim": la.center_dimension(nil),
                "nilpotency_class": la.nilpotency_class(nil),
                "j_anticommutation_residual": j_res}
    ok = (computed["center_dim"] == center and computed["nilpotency_class"] == 2
          and j_res < 1e-12)
    return _verdict(ok, computed, expected, "nilpotent normal form", j_res, 1e-12)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

HYPERBOLIC_CASES = tuple((f, r) for f in ("R", "C", "H") for r in (1.0, 0.5))


def _random_planes(dim, count, rng):
    """``count`` orthonormal planes (x, y) from one draw of ``2 * count`` unit vectors.

    Returns ``(s, x, y)`` of the planes kept, ``s`` their indices among the
    ``count``: a plane is dropped when y falls too close to the line of x.
    """
    x, y = random_unit_vector(dim, rng, 2 * count).reshape(count, 2, dim).transpose(1, 0, 2)
    y = y - np.einsum("pi,pi->p", x, y)[:, None] * x
    norm = np.linalg.norm(y, axis=1)
    s = np.flatnonzero(norm >= 1e-6)
    return s, x[s], y[s] / norm[s, None]


def _claim_hyperbolic(field_name, rate, cfg: RunConfig):
    space = sps.hyperbolic_semidirect(field_name, rate)
    ms = geo.InvariantMetricSpace(space)
    r4, g = geo.curvature_tensor(ms), ms.metric()
    offset = {"R": 1, "C": 2, "H": 3}[field_name] * 1000 + int(100 * rate)
    rng = np.random.default_rng(cfg.seed + offset)
    _, x, y = _random_planes(ms.m_dim, 100, rng)
    errors = np.abs(geo.sectional_curvature(r4, g, x, y) + rate * rate)
    return _residual_claim(_worst(errors), 1e-8,
                           "constant negative curvature of the dilation model")


WARPED_CASES = (
    ("exp_line_sphere2", ("line",), geo.Profile.exp(-1.0), 2),
    ("sin_segment_sphere2", ("segment", float(np.pi)), geo.Profile.sin(), 2),
    ("poly_line_sphere3", ("line",), geo.Profile.poly(1, 0, 1), 3),
)


def _claim_warped(name, interval, profile, fiber_dim, cfg: RunConfig):
    w = geo.WarpedProduct(interval, profile, fiber_dim)
    rng = np.random.default_rng(cfg.seed + len(name))
    ts = w.interior_samples(13)
    oracle = [geo.warped_curvature_fd(w, t) for t in ts]   # (r4, g0) per sample point
    r4s, g0s = (np.stack(parts) for parts in zip(*oracle))
    s, x, y = _random_planes(fiber_dim, 50, rng)
    # by s % 3: a mixed plane span{d/dt, x}, a fiber plane span{x, y}, and one
    # across both, span{0.6 d/dt + 0.8 x, y}
    kind = s % 3
    a, c = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]])[kind].T
    v = np.column_stack([a, c[:, None] * x])
    u = np.column_stack([np.zeros(len(s)), np.where(kind[:, None] == 0, x, y)])
    point = s % len(ts)
    cf = geo.warped_sectional_curvature(w, ts[point], v, u)
    fd = geo.sectional_curvature(r4s[point], g0s[point], v, u)
    return _residual_claim(_worst(np.abs(cf - fd)), TOL_FD,
                           "closed form against independent fd oracle")


def _claim_flat_screw(cfg: RunConfig):
    space = sps.euclidean_screw(1)
    r4 = geo.curvature_tensor(geo.InvariantMetricSpace(space))
    res = float(np.abs(r4).max(initial=0.0))
    return _residual_claim(res, TOL_ALGEBRAIC, "flat simply transitive screw presentation")


def _claim_curvature_symmetries(cfg: RunConfig):
    worst = _worst([geo.curvature_symmetry_residual(geo.curvature_tensor(
        geo.InvariantMetricSpace(sps.catalog_entry(sid)))) for sid in sps.catalog_ids()])
    return _residual_claim(worst, 1e-8, "tensor symmetries and first bianchi over the catalog")


# ---------------------------------------------------------------------------
# splitting and catalog
# ---------------------------------------------------------------------------


def _product_control_rep() -> Representation:
    so3 = bld.so_standard(3)
    alg = la.direct_sum(so3.algebra, so3.algebra)
    mats = np.zeros((6, 6, 6))
    mats[:3, :3, :3] = so3.matrices
    mats[3:, 3:, 3:] = so3.matrices
    return Representation(alg, mats)


def _claim_splitting_control(cfg: RunConfig):
    verdict = splitting_criterion(_product_control_rep(), range(3), range(3, 6))
    return _exact_claim(verdict, True, "factorwise product control")


def _claim_splitting_catalog(space_id, cfg: RunConfig):
    space = sps.catalog_entry(space_id)
    verdict = splitting_criterion(space.rep, *space.slices)
    return _exact_claim(verdict, False, "effectivity of the catalog isotropy actions")


def _claim_catalog_count(cfg: RunConfig):
    n = len(sps.catalog_ids())
    return _verdict(n >= 16, n, ">= 16", "catalog enumeration", 0.0 if n >= 16 else 1.0, 0.0)


def _claim_catalog_cohomogeneity(space_id, cfg: RunConfig):
    coh = cohomogeneity(sps.catalog_entry(space_id).rep, seed=cfg.seed)
    return _exact_claim(coh, 2, "isotropy cohomogeneity of every catalog entry")


def _claim_catalog_invariants(cfg: RunConfig):
    spaces = [sps.catalog_entry(sid) for sid in sps.catalog_ids()]
    res = _worst([r for space in spaces
                  for r in (space.jacobi[1], la.killing_invariance_residual(space.algebra))])
    return _residual_claim(res, TOL_ALGEBRAIC,
                           "jacobi and killing ad-invariance over the catalog")


DIMS_EXPECTED = _ReadOnlyDict({"N(6,1).m_dim": 14, "Spin(9)/Spin(7).dim": 36,
                               "Spin(9)/Spin(7).blocks": (7, 8)})


def _claim_catalog_dims(cfg: RunConfig):
    n61 = sps.catalog_entry("N(6,1)")
    s9 = sps.catalog_entry("Spin(9)/Spin(7)")
    computed = {"N(6,1).m_dim": n61.m_dim, "Spin(9)/Spin(7).dim": s9.dim,
                "Spin(9)/Spin(7).blocks": tuple(b.dim for b in s9.blocks)}
    return _exact_claim(computed, DIMS_EXPECTED, "named entry dimensions")


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_claims() -> tuple[tuple[str, str, object, tuple], ...]:
    """The full claim registry as rows (id, group, fn, args), built once.

    ``fn(*args, config)`` returns the claim's verdict fields.  Each claim's
    expected value is built here or is a module constant, so the reports of
    every run share it; a dict there is a read-only ``_ReadOnlyDict``.
    """
    claims: list[tuple[str, str, object, tuple]] = []

    for name, factory, iso in SPHERE_TRANSITIVE_ROWS:
        expected = _ReadOnlyDict(cohomogeneity=1, isotropy_dim=iso)
        claims.append((f"coh1.{name}", "tables", _claim_sphere_row, (factory, expected)))
    for row, source in enumerate(COH2_ROWS, 1):
        claims.append((f"coh2.row{row}", "tables", _claim_coh2_row, (source,)))

    for n in (2, 3, 6, 7):
        for mu, tag in _MU_VALUES:
            claims.append((f"jacobi.construction.n{n}.mu_{tag}", "jacobi",
                           _claim_jacobi_valid, (n, mu)))
        claims.append((f"jacobi.gate.n{n}", "jacobi", _claim_jacobi_gate, (n,)))
    for suffix, space_id, sig in (("compact", "Spin(9)/Spin(7)", (0, 36, 0)),
                                  ("split", "Spin(8,1)/Spin(7)", (8, 28, 0))):
        expected = _ReadOnlyDict(dim=36, killing_signature=sig)
        claims.append((f"fingerprint.completion.n7.{suffix}", "jacobi",
                       _claim_completion_n7, (space_id, expected)))
    claims.append(("fingerprint.completion.n6.rigid", "jacobi", _claim_completion_n6, ()))

    for center, copies in HEISENBERG_CASES:
        expected = _ReadOnlyDict(center_dim=center, nilpotency_class=2,
                                 j_anticommutation_residual=_below(1e-12))
        claims.append((f"heisenberg.{sps.heisenberg_label(center, copies)}", "heisenberg",
                       _claim_heisenberg, (center, copies, expected)))

    for field_name, rate in HYPERBOLIC_CASES:
        claims.append((f"curvature.hyperbolic.{field_name}.rate{rate:g}", "curvature",
                       _claim_hyperbolic, (field_name, rate)))
    for case in WARPED_CASES:
        claims.append((f"curvature.warped.{case[0]}", "curvature", _claim_warped, case))
    claims.append(("curvature.flat.euclidean_screw", "curvature", _claim_flat_screw, ()))
    claims.append(("curvature.symmetries.catalog", "curvature",
                   _claim_curvature_symmetries, ()))

    claims.append(("splitting.control.product", "splitting", _claim_splitting_control, ()))
    for sid in sps.catalog_ids():
        if sid not in sps.SYMMETRIC_CONTROLS:
            claims.append((f"splitting.catalog.{sid}", "splitting",
                           _claim_splitting_catalog, (sid,)))

    claims.append(("catalog.count", "catalog", _claim_catalog_count, ()))
    for sid in sps.catalog_ids():
        claims.append((f"catalog.cohomogeneity.{sid}", "catalog",
                       _claim_catalog_cohomogeneity, (sid,)))
    claims.append(("catalog.invariants", "catalog", _claim_catalog_invariants, ()))
    claims.append(("catalog.dimensions", "catalog", _claim_catalog_dims, ()))
    return tuple(claims)


@dataclass(frozen=True)
class SuiteResult:
    reports: list[VerificationReport]
    summary: dict

    @property
    def exit_code(self) -> int:
        return 0 if self.summary["failed"] == 0 else 1


def _run_one(entry, cfg: RunConfig) -> VerificationReport:
    claim_id, group, fn, args = entry
    t0 = time.perf_counter()
    try:
        verdict = fn(*args, cfg)
    except Exception as err:  # an internal failure is a reported failure
        frame = traceback.extract_tb(err.__traceback__)[-1]
        where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        verdict = ("fail", f"internal error: {type(err).__name__}: {err} (at {where})",
                   None, "runner", 1.0, 0.0)
    runtime_ms = int(round(1000 * (time.perf_counter() - t0)))
    return VerificationReport(claim_id, group, *verdict, runtime_ms)


def run_suite(cfg: RunConfig, jobs: int = 1) -> SuiteResult:
    """Run the selected groups; reports sorted by claim id; deterministic.

    ``jobs`` is accepted and ignored: the claims hold the GIL, so a thread
    pool only added scheduling cost, and every claim runs on this thread.
    """
    reports = [_run_one(e, cfg) for e in build_claims() if e[1] in cfg.groups]
    reports.sort(key=lambda r: r.claim_id)
    counts = Counter(r.status for r in reports)
    summary = {"schema_version": 1, "type": "summary", "total": len(reports),
               "passed": counts["pass"], "failed": counts["fail"],
               "skipped": counts["skipped"], "seed": cfg.seed, "groups": list(cfg.groups)}
    return SuiteResult(reports, summary)
