"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also exercised indirectly by ``liecoh verify``.
"""

import json

import numpy as np
import pytest

from liecoh import algebra as la
from liecoh import builders as bld
from liecoh import geometry as geo
from liecoh import spaces as sps
from liecoh.claims import COH2_ROWS, RunConfig, _j_matrices, run_suite
from liecoh.linalg import random_unit_vector
from liecoh.reps import (
    cohomogeneity,
    isotropy_subalgebra,
    kernel_ideal,
    restrict,
    splitting_criterion,
)

MU = 1.0 / np.sqrt(2.0)


def _ok(criterion: str, detail: str = ""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


def test_criterion_1_cohomogeneity_one_table():
    rows = (
        ("SO(3)", bld.so_standard(3), 1), ("SO(5)", bld.so_standard(5), 6),
        ("SU(2)", bld.su_standard(2), 0), ("SU(3)", bld.su_standard(3), 3),
        ("Sp(1)", bld.sp_standard(1), 0), ("Sp(2)", bld.sp_standard(2), 3),
        ("U(2)", bld.u_standard(2), 1),
        ("Sp(1)Sp(1)", bld.sp_sp1(1), 3), ("Sp(1)U(1)", bld.sp_u1(1), 1),
        ("G2", bld.g2_seven(), 8), ("Spin(7)", bld.spin7_eight(), 14),
        ("Spin(9)", bld.spin9_sixteen(), 21),
    )
    rng = np.random.default_rng(0x5EED)
    for name, rep, iso_want in rows:
        assert cohomogeneity(rep) == 1, name
        v = random_unit_vector(rep.space_dim, rng)
        assert isotropy_subalgebra(rep, v).dim == iso_want, name
    _ok("1 cohomogeneity-one rows", f"({len(rows)} rows, exact integers)")


def test_criterion_2_cohomogeneity_two_table():
    # the row sources of the coh2 claims: the determinant action, then the
    # isotropy of the four Clifford catalog entries without an m2 x m2 bracket
    assert len(COH2_ROWS) == 5
    for row, source in enumerate(COH2_ROWS, 1):
        rep, (m1, m2) = source()
        assert cohomogeneity(rep) == 2, row
        assert kernel_ideal(restrict(rep, m2)).dim == 0, row
        assert np.abs(restrict(rep, m1).matrices).max() > 0, row
    _ok("2 reducible cohomogeneity-two rows", "(5 rows, exact integers)")


def test_criterion_3_jacobi_gate():
    for n in (2, 3, 6, 7):
        for mu in (MU, 1.0, 2.0):
            space = sps.build_clifford_space(n, 2 * mu * mu, mu)
            assert la.jacobi_residual(space.algebra) < 1e-9, (n, mu)
        with pytest.raises(la.ValidationError) as err:
            sps.build_clifford_space(n, 2 * MU * MU + 0.01, MU)
        assert err.value.residual > 1e-3, n
    _ok("3 bracket-scale gate", "(residual < 1e-9 consistent, > 1e-3 at +0.01)")


def test_criterion_4_completion_fingerprints():
    compact = sps.build_clifford_space(7, 1.0, MU, True)
    assert compact.dim == 36
    assert la.signature(la.killing_form(compact.algebra)) == (0, 36, 0)
    split = sps.noncompact_dual(compact)
    assert la.signature(la.killing_form(split.algebra)) == (8, 28, 0)
    sol6 = sps._cached_completion(6, 1.0, MU)
    assert sol6.nullity == 0 and not sol6.empty
    assert np.abs(sol6.particular).max(initial=0.0) < 1e-9
    _ok("4 algebra fingerprints", "(36-dim signatures exact; 29-dim rigid)")


def test_criterion_5_heisenberg_suite():
    for center, copies in ((1, 2), (2, 1), (3, 1), (6, 1), (7, 1)):
        space = sps.build_heisenberg(center, copies)
        nil = sps.nilpotent_part(space)
        assert la.nilpotency_class(nil) == 2, (center, copies)
        assert la.center_dimension(nil) == center, (center, copies)
        j = _j_matrices(space)
        d2 = j.shape[1]
        worst = 0.0
        for a in range(center):
            for b in range(center):
                want = -2.0 * np.eye(d2) if a == b else np.zeros((d2, d2))
                worst = max(worst, np.abs(j[a] @ j[b] + j[b] @ j[a] - want).max())
        assert worst < 1e-12, (center, copies)
    _ok("5 nilpotent suite", "(centers 1,2,3,6,7; J residual < 1e-12)")


def test_criterion_6_curvature():
    rng = np.random.default_rng(0x5EED)
    for field in ("R", "C", "H"):
        for rate in (1.0, 0.5):
            space = sps.hyperbolic_semidirect(field, rate)
            ms = geo.InvariantMetricSpace(space)
            r4, g = geo.curvature_tensor(ms), ms.metric()
            worst = 0.0
            for _ in range(100):
                x = random_unit_vector(ms.m_dim, rng)
                y = random_unit_vector(ms.m_dim, rng)
                y -= (x @ y) * x
                if np.linalg.norm(y) < 1e-6:
                    continue
                y /= np.linalg.norm(y)
                worst = max(worst, abs(geo.sectional_curvature(r4, g, x, y) + rate ** 2))
            assert worst < 1e-8, (field, rate)

    w = geo.WarpedProduct(("line",), geo.Profile.exp(-1.0), 2)
    ts = w.interior_samples(10)
    worst_fd = 0.0
    for s in range(50):
        t = float(ts[s % len(ts)])
        x = random_unit_vector(2, rng)
        y = np.array([-x[1], x[0]])
        x0, y0 = np.concatenate([[0.0], x]), np.concatenate([[0.0], y])
        v, u = ((np.eye(3)[0], x0), (x0, y0), (np.concatenate([[0.5], x]), y0))[s % 3]
        fd = geo.sectional_curvature(*geo.warped_curvature_fd(w, t), v, u)
        worst_fd = max(worst_fd, abs(geo.warped_sectional_curvature(w, t, v, u) - fd))
    assert worst_fd < 1e-5

    screw = sps.euclidean_screw(1)
    flat = np.abs(geo.curvature_tensor(geo.InvariantMetricSpace(screw))).max()
    assert flat < 1e-9
    _ok("6 curvature", f"(hyperbolic dev, fd gap {worst_fd:.1e}, screw {flat:.1e})")


def test_criterion_7_splitting():
    so3 = bld.so_standard(3)
    alg = la.direct_sum(so3.algebra, so3.algebra)
    mats = np.zeros((6, 6, 6))
    mats[:3, :3, :3] = so3.matrices
    mats[3:, 3:, 3:] = so3.matrices
    from liecoh.reps import Representation

    control = Representation(alg, mats)
    assert splitting_criterion(control, range(3), range(3, 6)) is True
    checked = 0
    for sid in sps.catalog_ids():
        space = sps.catalog_entry(sid)
        if len(space.blocks) != 2:
            continue  # irreducible-complement controls: no two-block decomposition
        assert splitting_criterion(space.rep, *space.slices) is False, sid
        checked += 1
    assert checked >= 16
    _ok("7 splitting criterion", f"(control True; {checked} catalog entries False)")


def test_criterion_8_catalog_cohomogeneity():
    for sid in sps.catalog_ids():
        assert cohomogeneity(sps.catalog_entry(sid).rep) == 2, sid
    _ok("8 catalog cohomogeneity", f"({len(sps.catalog_ids())} entries, exactly 2)")


def test_criterion_9_determinism():
    def snapshot():
        result = run_suite(RunConfig(), jobs=4)
        rows = []
        for rep in result.reports:
            d = rep.to_json_dict()
            d.pop("runtime_ms")
            rows.append(json.dumps(d, sort_keys=True))
        return rows, result.summary["failed"]

    first, failed1 = snapshot()
    second, failed2 = snapshot()
    assert first == second
    assert failed1 == failed2 == 0
    _ok("9 determinism", f"({len(first)} reports byte-identical, all passing)")
