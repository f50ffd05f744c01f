"""Batch claim suite: every verifiable statement the package certifies.

Claims are small deterministic checks with stable string ids, grouped as
``tables``, ``jacobi``, ``heisenberg``, ``curvature``, ``splitting`` and
``catalog``.  A run produces one ``VerificationReport`` per claim plus a
summary; reports are canonically ordered by claim id regardless of the
execution order of the worker pool, and byte-identical across runs with the
same seed (timing fields aside, which live in dedicated keys).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import algebra as la
from . import builders as bld
from . import geometry as geo
from . import spaces as sps
from .linalg import random_unit_vector
from .reps import (
    DEFAULT_SEED,
    Representation,
    cohomogeneity,
    isotropy_subalgebra,
    kernel_ideal,
    restrict,
    splitting_criterion,
)

__all__ = ["RunConfig", "VerificationReport", "all_groups", "build_claims", "run_suite"]

GROUPS = ("tables", "jacobi", "heisenberg", "curvature", "splitting", "catalog")


def all_groups() -> tuple[str, ...]:
    return GROUPS


@dataclass
class RunConfig:
    seed: int = DEFAULT_SEED
    groups: tuple[str, ...] = GROUPS
    tol_algebraic: float = 1e-9
    tol_fd: float = 1e-5

    def __post_init__(self):
        self.groups = tuple(self.groups)
        bad = [g for g in self.groups if g not in GROUPS]
        if bad:
            raise ValueError(f"unknown claim groups: {bad}")


@dataclass
class VerificationReport:
    claim_id: str
    group: str
    status: str
    computed: object
    expected: object
    provenance: str
    residual: float
    tolerance: float
    runtime_ms: int = 0

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "type": "report",
            "claim_id": self.claim_id,
            "group": self.group,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
            "provenance": self.provenance,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "runtime_ms": self.runtime_ms,
        }


def _report(ok, computed, expected, provenance, residual, tolerance):
    """A claim's verdict; ``_run_one`` stamps the id and group from the registry."""
    return VerificationReport("", "", "pass" if ok else "fail",
                              computed, expected, provenance,
                              float(residual), float(tolerance))


def _residual_claim(residual, tolerance, provenance):
    return _report(residual < tolerance, residual,
                   f"< {tolerance:g}", provenance, residual, tolerance)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

SPHERE_TRANSITIVE_ROWS = (
    ("SO(3)", lambda: bld.so_standard(3), 1),
    ("SO(5)", lambda: bld.so_standard(5), 6),
    ("SU(2)", lambda: bld.su_standard(2), 0),
    ("SU(3)", lambda: bld.su_standard(3), 3),
    ("Sp(1)", lambda: bld.sp_standard(1), 0),
    ("Sp(2)", lambda: bld.sp_standard(2), 3),
    ("U(2)", lambda: bld.u_standard(2), 1),
    ("Sp(1)Sp(1)", lambda: bld.sp_sp1(1), 3),
    ("Sp(1)U(1)", lambda: bld.sp_u1(1), 1),
    ("G2", bld.g2_seven, 8),
    ("Spin(7)", bld.spin7_eight, 14),
    ("Spin(9)", bld.spin9_sixteen, 21),
)


def _claim_sphere_row(factory, iso_dim, cfg: RunConfig):
    rep = factory()
    coh = cohomogeneity(rep, seed=cfg.seed)
    rng = np.random.default_rng(cfg.seed + 1)
    v = random_unit_vector(rep.space_dim, rng)
    iso = isotropy_subalgebra(rep, v).dim
    computed = {"cohomogeneity": coh, "isotropy_dim": iso}
    expected = {"cohomogeneity": 1, "isotropy_dim": iso_dim}
    ok = computed == expected
    return _report(ok, computed, expected, "sphere-transitive row", 0.0 if ok else 1.0, 0.0)


def _claim_reducible_row(row, cfg: RunConfig):
    act = bld.reducible_row(row)
    coh = cohomogeneity(act.rep, seed=cfg.seed)
    ker = kernel_ideal(restrict(act.rep, act.m2)).dim
    m1_mats = act.rep.matrices[:, :len(act.m1), :len(act.m1)]
    nontrivial = bool(np.abs(m1_mats).max(initial=0.0) > 0)
    computed = {"cohomogeneity": coh, "m2_kernel_dim": ker, "m1_nontrivial": nontrivial}
    expected = {"cohomogeneity": 2, "m2_kernel_dim": 0, "m1_nontrivial": True}
    ok = computed == expected
    return _report(ok, computed, expected, "reducible cohomogeneity-two row",
                   0.0 if ok else 1.0, 0.0)


# ---------------------------------------------------------------------------
# jacobi and fingerprints
# ---------------------------------------------------------------------------

_MU_VALUES = ((1.0 / np.sqrt(2.0), "rt2inv"), (1.0, "1"), (2.0, "2"))


def _claim_jacobi_valid(n, mu, cfg: RunConfig):
    space = sps.build_clifford_space(sps.CliffordSpaceSpec(n, 2.0 * mu * mu, mu))
    res = la.jacobi_residual(space.algebra)
    return _residual_claim(res, cfg.tol_algebraic, "bracket-scale constraint, consistent side")


def _claim_jacobi_gate(n, cfg: RunConfig):
    mu = 1.0 / np.sqrt(2.0)
    lam = 2.0 * mu * mu + 0.01
    try:
        sps.build_clifford_space(sps.CliffordSpaceSpec(n, lam, mu))
        residual = 0.0
    except la.ValidationError as err:
        residual = err.residual
    ok = residual > 1e-3
    return _report(ok, residual, "> 0.001", "bracket-scale constraint, violated side",
                   residual, 1e-3)


def _claim_completion_n7(sign, cfg: RunConfig):
    sel = "negative-definite" if sign > 0 else ("signature", 8, 28)
    space = sps.build_clifford_space(
        sps.CliffordSpaceSpec(7, 1.0, 1.0 / np.sqrt(2.0), 1, ("completed", sel)))
    sig = la.signature(la.killing_form(space.algebra))
    want = (0, 36, 0) if sign > 0 else (8, 28, 0)
    computed = {"dim": space.dim, "killing_signature": list(sig)}
    expected = {"dim": 36, "killing_signature": list(want)}
    ok = computed == expected
    return _report(ok, computed, expected, "solver output + eigenvalue fingerprint",
                   0.0 if ok else 1.0, 0.0)


def _claim_completion_n6(cfg: RunConfig):
    sol = sps._cached_completion(6, 1.0, 1.0 / np.sqrt(2.0), 1)
    abelian_norm = float(np.abs(sol.particular).max(initial=0.0))
    computed = {"nullity": sol.nullity, "abelian_solution_norm": abelian_norm,
                "empty": sol.empty}
    ok = (sol.nullity == 0) and (not sol.empty) and abelian_norm < cfg.tol_algebraic
    expected = {"nullity": 0, "abelian_solution_norm": 0.0, "empty": False}
    return _report(ok, computed, expected, "solver rigidity in dimension 29",
                   abelian_norm, cfg.tol_algebraic)


# ---------------------------------------------------------------------------
# heisenberg
# ---------------------------------------------------------------------------

HEISENBERG_CASES = ((1, 2), (2, 1), (3, 1), (6, 1), (7, 1))


def _j_matrices(space: sps.ReductiveSpace) -> np.ndarray:
    """Skew maps J_Z from the m2 x m2 -> m1 part of the bracket.

    Raises ``ValueError`` unless both blocks are coordinate blocks.
    """
    m1 = space.blocks[0].coordinate_indices()
    m2 = space.blocks[1].coordinate_indices()
    c = space.algebra.c
    return np.array([c[np.ix_(m2, m2)][:, :, i].T for i in m1])


def _claim_heisenberg(center, copies, cfg: RunConfig):
    space = sps.build_heisenberg(sps.HeisenbergSpec(center, copies))
    nil = sps.nilpotent_part(space)
    j = _j_matrices(space)
    d2 = j.shape[1]
    anti = np.einsum("aij,bjk->abik", j, j)
    anti = anti + anti.transpose(1, 0, 2, 3)
    for a in range(center):
        anti[a, a] += 2.0 * np.eye(d2)
    j_res = float(np.abs(anti).max(initial=0.0))
    computed = {"center_dim": la.center_dimension(nil),
                "nilpotency_class": la.nilpotency_class(nil),
                "j_anticommutation_residual": j_res}
    ok = (computed["center_dim"] == center and computed["nilpotency_class"] == 2
          and j_res < 1e-12)
    expected = {"center_dim": center, "nilpotency_class": 2,
                "j_anticommutation_residual": "< 1e-12"}
    return _report(ok, computed, expected, "nilpotent normal form", j_res, 1e-12)


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

HYPERBOLIC_CASES = tuple((f, r) for f in ("R", "C", "H") for r in (1.0, 0.5))


def _claim_hyperbolic(field_name, rate, cfg: RunConfig):
    space = sps.hyperbolic_semidirect(sps.SemidirectHyperbolicSpec(field_name, 1, rate))
    ms = geo.InvariantMetricSpace(space)
    r4 = geo.curvature_tensor(ms)
    offset = {"R": 1, "C": 2, "H": 3}[field_name] * 1000 + int(100 * rate)
    rng = np.random.default_rng(cfg.seed + offset)
    worst = 0.0
    for _ in range(100):
        x = random_unit_vector(ms.m_dim, rng)
        y = random_unit_vector(ms.m_dim, rng)
        y = y - (x @ y) * x
        if np.linalg.norm(y) < 1e-6:
            continue
        y /= np.linalg.norm(y)
        worst = max(worst, abs(geo.sectional_curvature(ms, x, y, r4) + rate * rate))
    return _residual_claim(worst, 1e-8, "constant negative curvature of the dilation model")


WARPED_CASES = (
    ("exp_line_sphere2", ("line",), "exp(-1*t)", 2),
    ("sin_segment_sphere2", ("segment", float(np.pi)), "sin", 2),
    ("poly_line_sphere3", ("line",), "poly(1,0,1)", 3),
)


def _claim_warped(name, interval, profile, fiber_dim, cfg: RunConfig):
    w = geo.WarpedProduct(interval, geo.Profile.from_name(profile), geo.RoundSphere(fiber_dim))
    rng = np.random.default_rng(cfg.seed + len(name))
    ts = w.interior_samples(13)
    worst = 0.0
    for s in range(50):
        t = float(ts[s % len(ts)])
        x = random_unit_vector(fiber_dim, rng)
        y = random_unit_vector(fiber_dim, rng)
        y -= (x @ y) * x
        if np.linalg.norm(y) < 1e-6:
            continue
        y /= np.linalg.norm(y)
        kind = ("mixed", "fiber", "general")[s % 3]
        if kind == "mixed":
            plane = ("mixed", x)
        elif kind == "fiber":
            plane = ("fiber", x, y)
        else:
            plane = ("general", 0.6, 0.8 * x, 0.0, y)
        cf = geo.warped_sectional_curvature(w, t, plane)
        fd = geo.warped_sectional_fd(w, t, plane)
        worst = max(worst, abs(cf - fd))
    return _residual_claim(worst, cfg.tol_fd, "closed form against independent fd oracle")


def _claim_flat_screw(cfg: RunConfig):
    space = sps.build_trivial_module_space("euclidean_screw", 1)
    r4 = geo.curvature_tensor(geo.InvariantMetricSpace(space))
    res = float(np.abs(r4).max(initial=0.0))
    return _residual_claim(res, 1e-9, "flat simply transitive screw presentation")


def _claim_curvature_symmetries(cfg: RunConfig):
    worst = 0.0
    for sid in sps.catalog_ids():
        ms = geo.InvariantMetricSpace(sps.catalog_entry(sid))
        worst = max(worst, geo.curvature_symmetry_residual(geo.curvature_tensor(ms)))
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
    return _report(verdict is True, verdict, True, "factorwise product control",
                   0.0 if verdict else 1.0, 0.0)


def _claim_splitting_catalog(space_id, cfg: RunConfig):
    space = sps.catalog_entry(space_id)
    rep, slices = sps.isotropy_representation(space)
    verdict = splitting_criterion(rep, slices[0], slices[1])
    return _report(verdict is False, verdict, False,
                   "effectivity of the catalog isotropy actions",
                   0.0 if verdict is False else 1.0, 0.0)


def _claim_catalog_count(cfg: RunConfig):
    n = len(sps.catalog_ids())
    return _report(n >= 16, n, ">= 16", "catalog enumeration", 0.0 if n >= 16 else 1.0, 0.0)


def _claim_catalog_cohomogeneity(space_id, cfg: RunConfig):
    space = sps.catalog_entry(space_id)
    rep, _ = sps.isotropy_representation(space)
    coh = cohomogeneity(rep, seed=cfg.seed)
    return _report(coh == 2, coh, 2, "isotropy cohomogeneity of every catalog entry",
                   0.0 if coh == 2 else 1.0, 0.0)


def _claim_catalog_invariants(cfg: RunConfig):
    worst_j, worst_b = 0.0, 0.0
    for sid in sps.catalog_ids():
        alg = sps.catalog_entry(sid).algebra
        worst_j = max(worst_j, la.jacobi_residual(alg))
        worst_b = max(worst_b, la.killing_invariance_residual(alg))
    res = max(worst_j, worst_b)
    return _residual_claim(res, cfg.tol_algebraic,
                           "jacobi and killing ad-invariance over the catalog")


def _claim_catalog_dims(cfg: RunConfig):
    n61 = sps.catalog_entry("N(6,1)")
    s9 = sps.catalog_entry("Spin(9)/Spin(7)")
    computed = {"N(6,1).m_dim": n61.m_dim, "Spin(9)/Spin(7).dim": s9.dim,
                "Spin(9)/Spin(7).blocks": [b.dim for b in s9.blocks]}
    expected = {"N(6,1).m_dim": 14, "Spin(9)/Spin(7).dim": 36,
                "Spin(9)/Spin(7).blocks": [7, 8]}
    ok = computed == expected
    return _report(ok, computed, expected, "named entry dimensions", 0.0 if ok else 1.0, 0.0)


# ---------------------------------------------------------------------------
# registry and runner
# ---------------------------------------------------------------------------


def build_claims() -> list[tuple[str, str, object]]:
    """The full claim registry as (id, group, fn(config) -> report)."""
    claims: list[tuple[str, str, object]] = []

    for name, factory, iso in SPHERE_TRANSITIVE_ROWS:
        claims.append((f"coh1.{name}", "tables",
                       lambda cfg, f=factory, i=iso: _claim_sphere_row(f, i, cfg)))
    for row in (1, 2, 3, 4, 5):
        claims.append((f"coh2.row{row}", "tables",
                       lambda cfg, r=row: _claim_reducible_row(r, cfg)))

    for n in (2, 3, 6, 7):
        for mu, tag in _MU_VALUES:
            claims.append((f"jacobi.construction.n{n}.mu_{tag}", "jacobi",
                           lambda cfg, nn=n, m=mu: _claim_jacobi_valid(nn, m, cfg)))
        claims.append((f"jacobi.gate.n{n}", "jacobi",
                       lambda cfg, nn=n: _claim_jacobi_gate(nn, cfg)))
    claims.append(("fingerprint.completion.n7.compact", "jacobi",
                   lambda cfg: _claim_completion_n7(+1, cfg)))
    claims.append(("fingerprint.completion.n7.split", "jacobi",
                   lambda cfg: _claim_completion_n7(-1, cfg)))
    claims.append(("fingerprint.completion.n6.rigid", "jacobi", _claim_completion_n6))

    for center, copies in HEISENBERG_CASES:
        label = sps.heisenberg_label(sps.HeisenbergSpec(center, copies))
        claims.append((f"heisenberg.{label}", "heisenberg",
                       lambda cfg, c=center, k=copies: _claim_heisenberg(c, k, cfg)))

    for field_name, rate in HYPERBOLIC_CASES:
        claims.append((f"curvature.hyperbolic.{field_name}.rate{rate:g}", "curvature",
                       lambda cfg, f=field_name, r=rate: _claim_hyperbolic(f, r, cfg)))
    for name, interval, profile, fdim in WARPED_CASES:
        claims.append((f"curvature.warped.{name}", "curvature",
                       lambda cfg, a=name, b=interval, c=profile, d=fdim:
                       _claim_warped(a, b, c, d, cfg)))
    claims.append(("curvature.flat.euclidean_screw", "curvature", _claim_flat_screw))
    claims.append(("curvature.symmetries.catalog", "curvature", _claim_curvature_symmetries))

    claims.append(("splitting.control.product", "splitting", _claim_splitting_control))
    for sid in sps.catalog_ids():
        if len(sps.catalog_entry(sid).blocks) == 2:
            claims.append((f"splitting.catalog.{sid}", "splitting",
                           lambda cfg, s=sid: _claim_splitting_catalog(s, cfg)))

    claims.append(("catalog.count", "catalog", _claim_catalog_count))
    for sid in sps.catalog_ids():
        claims.append((f"catalog.cohomogeneity.{sid}", "catalog",
                       lambda cfg, s=sid: _claim_catalog_cohomogeneity(s, cfg)))
    claims.append(("catalog.invariants", "catalog", _claim_catalog_invariants))
    claims.append(("catalog.dimensions", "catalog", _claim_catalog_dims))
    return claims


@dataclass
class SuiteResult:
    reports: list[VerificationReport]
    summary: dict

    @property
    def exit_code(self) -> int:
        return 0 if self.summary["failed"] == 0 else 1


def _run_one(entry, cfg: RunConfig) -> VerificationReport:
    claim_id, group, fn = entry
    t0 = time.perf_counter()
    try:
        rep = fn(cfg)
    except Exception as err:  # an internal failure is a reported failure
        rep = VerificationReport("", "", "fail",
                                 f"internal error: {err}", None, "runner", 1.0, 0.0)
    rep.claim_id, rep.group = claim_id, group
    rep.runtime_ms = int(round(1000 * (time.perf_counter() - t0)))
    return rep


def run_suite(cfg: RunConfig, jobs: int = 4) -> SuiteResult:
    """Run the selected groups; reports sorted by claim id; deterministic."""
    selected = [c for c in build_claims() if c[1] in cfg.groups]
    # warm the shared caches serially so pool workers never duplicate the
    # expensive completion solves
    if any(g in cfg.groups for g in ("jacobi", "splitting", "catalog", "curvature")):
        for sid in sps.catalog_ids():
            sps.catalog_entry(sid)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(lambda e: _run_one(e, cfg), selected))
    else:
        reports = [_run_one(e, cfg) for e in selected]
    reports.sort(key=lambda r: r.claim_id)
    passed = sum(r.status == "pass" for r in reports)
    failed = sum(r.status == "fail" for r in reports)
    skipped = sum(r.status == "skipped" for r in reports)
    summary = {
        "schema_version": 1,
        "type": "summary",
        "total": len(reports),
        "passed": passed,
        "failed": failed,
        "skipped": skipped,
        "seed": cfg.seed,
        "groups": list(cfg.groups),
    }
    return SuiteResult(reports, summary)
