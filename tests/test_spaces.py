import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from liecoh import spaces as sps
from liecoh.algebra import (
    LieAlgebra,
    Subspace,
    ValidationError,
    abelian,
    center_dimension,
    jacobi_residual,
    killing_form,
    nilpotency_class,
    semidirect_sum,
    signature,
    worst_jacobi_triple,
)
from liecoh.builders import clifford_isotropy, unitary_determinant_action
from liecoh.clifford import CliffordModule, spin_module
from liecoh.reps import cohomogeneity
from liecoh.spaces import (
    ReductiveSpace,
    build_clifford_space,
    build_heisenberg,
    build_trivial_module_space,
    catalog_entry,
    catalog_ids,
    hyperbolic_semidirect,
    nilpotent_part,
    noncompact_dual,
)
from oracles import pullback_structure

MU = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# the Clifford construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k_dim,m2_dim", [(2, 4, 4), (3, 6, 4), (6, 15, 8), (7, 21, 8)])
def test_clifford_construction_shapes(n, k_dim, m2_dim):
    space = build_clifford_space(n, 1.0, MU)
    assert space.isotropy.dim == k_dim
    assert [b.dim for b in space.blocks] == [n, m2_dim]
    assert jacobi_residual(space.algebra) < 1e-9
    assert cohomogeneity(space.rep) == 2


def test_clifford_heisenberg_mode_n7():
    space = build_heisenberg(7, 1)
    assert space.dim == 36  # 21 + 7 + 8
    nil = nilpotent_part(space)
    assert nil.dim == 15
    assert center_dimension(nil) == 7
    assert nilpotency_class(nil) == 2


def _g1(space):
    """k + m1 as an algebra of its own, with its closure residual, read in the frame."""
    g1 = slice(0, space.isotropy.dim + space.blocks[0].dim)
    brackets = space.brackets(g1, g1)
    sub = brackets[..., g1]
    closure = np.abs(brackets[..., g1.stop:]).max(initial=0.0) / np.abs(space.algebra.c).max()
    return LieAlgebra(0.5 * (sub - sub.transpose(1, 0, 2))), closure


def test_clifford_zero_mode_n7_g1_fingerprint():
    space = build_clifford_space(7, 1.0, MU, False)
    g1, closure = _g1(space)
    assert g1.dim == 28
    assert signature(killing_form(g1)) == (0, 28, 0)
    assert closure < 1e-12


def test_clifford_rejects_wrong_scale_with_residual():
    with pytest.raises(ValidationError) as err:
        build_clifford_space(7, 1.0, 1.0)
    # hand value: the jacobiator on (e_i, e_j, w) is (lam - 2 mu^2) G_i G_j w,
    # whose columns are unit vectors; the largest constant is 2 lam = 2
    assert abs(err.value.residual - 0.5) < 1e-12
    assert err.value.triple is not None


# the skeleton (n, mu) at lam = 1 off lam = 2 mu^2, whose completion is empty
@pytest.mark.parametrize("selector", [pytest.param((2, 0.3), id="negative-definite"), (3, 0.3)])
def test_completed_mode_refuses_inconsistent_scale(selector):
    n, mu = selector
    with pytest.raises(ValidationError, match="no admissible filling"):
        build_clifford_space(n, 1.0, mu, True)


def test_clifford_rejects_kappa_zero_mode():
    # the nilpotent bracket is build_heisenberg's, not a mode of the family
    for kappa in (0.0, 1.0):
        with pytest.raises(ValueError, match="completed must be a bool"):
            build_clifford_space(7, 0.0, 0.0, ("heisenberg", kappa))


# the old mode spellings, the old Killing-signature fillings, and the
# truthy or falsy values that are not a bool
@pytest.mark.parametrize("mode", [("zero",), ("completed", (0, 10)), (4,), ("4", "6"),
                                  (4, 6, 0), (), [4, 6], (4.0, 6.0),
                                  "negative-definite", "bogus", (0, 10), (4, 6), None,
                                  1, 0, np.True_, "True"])
def test_clifford_spec_rejects_a_malformed_mode(mode, monkeypatch):
    monkeypatch.setattr(sps, "_cached_completion", lambda *a: pytest.fail("solved"))
    with pytest.raises(ValueError, match="completed must be a bool"):
        build_clifford_space(2, 1.0, MU, mode)


# the Clifford isotropy's module-copy check, which every Clifford build on
# more than one copy goes through; the ids keep the filling slot (None) of
# the lam, mu family, whose skeleton is on one copy
@pytest.mark.parametrize("n,copies", [(2, 0), (2, -1), (6, 2), (7, 2)],
                         ids=["2-0-None", "2--1-None", "6-2-None", "7-2-None"])
def test_clifford_spec_rejects_unwired_module_counts(n, copies):
    with pytest.raises(ValueError, match="module cop"):
        clifford_isotropy(n, copies)


# the same check on every center dimension of N(c, k): at least one copy, and
# more than one only for c <= 3
@pytest.mark.parametrize("center,copies", [(1, 0), (2, 0), (2, -1), (3, -1), (6, 2), (7, 2)])
def test_heisenberg_spec_rejects_unwired_module_counts(center, copies):
    with pytest.raises(ValueError, match="module cop"):
        build_heisenberg(center, copies)


@pytest.mark.parametrize("field_name,rate", [
    ("C", float("nan")), ("C", float("inf")), ("R", float("-inf")), ("H", 0.0), ("Q", 1.0),
])
def test_hyperbolic_spec_rejects_a_bad_rate_or_field(field_name, rate):
    what = "field" if field_name == "Q" else f"rate must be finite and nonzero, got {rate!r}"
    with pytest.raises(ValueError, match=what):
        hyperbolic_semidirect(field_name, rate)


def test_overlapping_isotropy_and_blocks_are_rejected():
    # e0 lies in both k and m1, and e2 in neither
    coord = lambda idx: Subspace.coordinate(3, idx)  # noqa: E731
    with pytest.raises(ValidationError, match="not orthonormal together"):
        ReductiveSpace("overlap", abelian(3), coord([0]), (coord([0]), coord([1])))


def test_euclidean_screw_rejects_an_empty_module():
    assert sps.euclidean_screw(1).dim == 3
    with pytest.raises(ValueError):
        sps.euclidean_screw(0)


@pytest.mark.parametrize("alpha", [2.0, 1.0 / 3.0, -1.0])
def test_rescaling_equivariance(alpha):
    """Pulling back by (k, x, v) -> (k, alpha x, v) rescales (lam, mu)."""
    lam, mu = 0.5, 0.5
    base = build_clifford_space(3, lam, mu)
    scaled = build_clifford_space(3, alpha * alpha * lam, alpha * mu)
    f = np.eye(base.dim)
    m1_ambient = [int(np.argmax(np.abs(col))) for col in base.blocks[0].basis.T]
    for i in m1_ambient:
        f[i, i] = alpha
    pulled = pullback_structure(base.algebra, f)
    assert np.abs(pulled.c - scaled.algebra.c).max() < 1e-12


# ---------------------------------------------------------------------------
# heisenberg spaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("center,copies,nil_dim", [
    (1, 1, 3), (1, 2, 5), (2, 1, 6), (3, 1, 7), (6, 1, 14), (7, 1, 15),
])
def test_heisenberg_types(center, copies, nil_dim):
    space = build_heisenberg(center, copies)
    nil = nilpotent_part(space)
    assert nil.dim == nil_dim
    assert center_dimension(nil) == center
    assert nilpotency_class(nil) == 2


def test_heisenberg_n310_j_anticommutation():
    space = build_heisenberg(3, 1)
    from liecoh.claims import _j_matrices

    j = _j_matrices(space)
    for a in range(3):
        for b in range(3):
            want = -2.0 * np.eye(4) if a == b else np.zeros((4, 4))
            assert np.array_equal(j[a] @ j[b] + j[b] @ j[a], want)


def test_heisenberg_normalization_kills_kappa():
    """Raw kappa = -2 pulled back by the sign-and-scale map gives kappa = 1."""
    normalized = build_heisenberg(3, 1)
    kappa = -2.0
    z_idx = [int(np.argmax(np.abs(c))) for c in normalized.blocks[0].basis.T]
    x_idx = [int(np.argmax(np.abs(c))) for c in normalized.blocks[1].basis.T]
    c = np.array(normalized.algebra.c)
    c[np.ix_(x_idx, x_idx, z_idx)] *= kappa  # <Z | [X, Y]> = kappa <Z . X | Y>
    raw = LieAlgebra(c)
    assert np.abs(raw.c - normalized.algebra.c).max() > 1.0
    eps, rho = np.sign(kappa), np.sqrt(abs(kappa))
    f = np.eye(raw.dim)
    f[z_idx, z_idx] = eps
    f[x_idx, x_idx] = 1.0 / rho
    pulled = pullback_structure(raw, f)
    assert np.abs(pulled.c - normalized.algebra.c).max() < 1e-12


def test_zero_mode_at_n2_has_an_abelian_m():
    space = build_clifford_space(2, 0.0, 0.0)
    assert np.abs(nilpotent_part(space).c).max() == 0.0


# ---------------------------------------------------------------------------
# SU(3)/SU(2) and the noncompact duals
# ---------------------------------------------------------------------------


def test_su_compact_branch():
    space = build_trivial_module_space(2)
    assert space.dim == 8 and space.isotropy.dim == 3
    assert cohomogeneity(space.rep) == 2
    assert signature(killing_form(space.algebra)) == (0, 8, 0)


def test_su_noncompact_branch_signature():
    space = noncompact_dual(build_trivial_module_space(2))
    assert signature(killing_form(space.algebra)) == (4, 4, 0)


@pytest.mark.parametrize("build", [lambda: build_trivial_module_space(2),
                                   lambda: noncompact_dual(build_trivial_module_space(2))],
                         ids=["su_compact", "su_noncompact"])
def test_cartan_relations(build):
    c = build().algebra.c
    g1 = list(range(4))
    m2 = list(range(4, 8))
    assert np.abs(c[np.ix_(g1, m2)][:, :, g1]).max() < 1e-12
    assert np.abs(c[np.ix_(m2, m2)][:, :, m2]).max() < 1e-12


def test_bad_branch_rejected():
    # SU(n+1)/SU(n) needs n >= 2, and the branch string is gone
    with pytest.raises(ValueError, match="needs n >= 2"):
        build_trivial_module_space(1)
    with pytest.raises(TypeError):
        build_trivial_module_space("su_compact", 2)


# each dual, its compact partner, and its Killing signature from the family:
# Cartan duality keeps k + m1 compact and makes m2 the positive part, so the
# signature is (dim m2, dim k + dim m1, 0)
DUALS = {"SU(2,1)/SU(2)": ("SU(3)/SU(2)", (4, 3 + 1, 0)),
         "Sp(1,1)/U(1)Sp(1)": ("Sp(2)/U(1)Sp(1)", (4, 4 + 2, 0)),
         "Sp(1)Sp(1,1)/dSp(1)Sp(1)": ("Sp(1)Sp(2)/dSp(1)Sp(1)", (4, 6 + 3, 0)),
         "Spin(8,1)/Spin(7)": ("Spin(9)/Spin(7)", (8, 21 + 7, 0))}


@pytest.mark.parametrize("dual", sorted(DUALS))
def test_dual_killing_signature_is_m2_against_k_plus_m1(dual):
    compact, expected = DUALS[dual]
    space = catalog_entry(dual)
    assert expected == (space.blocks[1].dim, space.isotropy.dim + space.blocks[0].dim, 0)
    assert signature(killing_form(space.algebra)) == expected
    assert signature(killing_form(catalog_entry(compact).algebra)) == (0, space.dim, 0)


@pytest.mark.parametrize("compact", sorted(c for c, _ in DUALS.values()))
def test_dual_twice_is_the_compact_space(compact):
    space = catalog_entry(compact)
    once = noncompact_dual(space)
    assert not np.array_equal(once.algebra.c, space.algebra.c)
    # bit for bit: each flipped zero comes back as +0.0
    assert noncompact_dual(once).algebra.c.tobytes() == space.algebra.c.tobytes()


# ---------------------------------------------------------------------------
# a flat semidirect sum
# ---------------------------------------------------------------------------


def test_flat_unitary_bracket_rigidity():
    """Every admissible bracket on the determinant-action complement is zero.

    The plane brackets may only hit the central direction, and the module
    brackets only the isotropy plus the plane; both completions collapse.
    """
    from liecoh.completion import CompletionProblem, complete_bracket

    # u(3) acting by the determinant on a plane (m1) and standardly on C^3 (m2)
    rep = unitary_determinant_action(3)[0]
    alg = semidirect_sum(rep.algebra, rep)
    m1, m2 = list(range(9, 11)), list(range(11, 17))
    center_dir = list(range(8, 9))  # the trace direction of u(3)
    sol1 = complete_bracket(CompletionProblem(alg, m1, center_dir))
    assert sol1.nullity == 0 and np.abs(sol1.particular).max(initial=0.0) < 1e-12
    sol2 = complete_bracket(CompletionProblem(alg, m2, list(range(9)) + m1))
    assert sol2.nullity == 0 and np.abs(sol2.particular).max(initial=0.0) < 1e-12


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_count_and_required_ids():
    ids = catalog_ids()
    assert len(ids) >= 16
    for required in ("N(1,2)", "N(2,1)", "N(3;1,0)", "N(6,1)", "N(7;1,0)",
                     "SU(3)/SU(2)", "Spin(9)/Spin(7)", "Spin(8,1)/Spin(7)",
                     "Sp(2)/U(1)Sp(1)", "Sp(1,1)/U(1)Sp(1)"):
        assert required in ids


def test_catalog_spin9_entry_dims():
    s9 = catalog_entry("Spin(9)/Spin(7)")
    assert s9.dim == 36
    assert [b.dim for b in s9.blocks] == [7, 8]
    assert signature(killing_form(s9.algebra)) == (0, 36, 0)


def test_catalog_n61_dims():
    n61 = catalog_entry("N(6,1)")
    assert n61.m_dim == 14
    assert center_dimension(nilpotent_part(n61)) == 6


def test_catalog_all_valid():
    for sid in catalog_ids():
        space = catalog_entry(sid)
        assert jacobi_residual(space.algebra) < 1e-9, sid


def test_each_catalog_space_keeps_the_residual_its_gate_checked():
    for sid in catalog_ids():
        space = catalog_entry(sid)
        assert space.jacobi == worst_jacobi_triple(LieAlgebra(space.algebra.c)), sid


def test_only_the_symmetric_controls_have_one_block():
    # build_claims picks the splitting claims from the constant, without building
    for sid in catalog_ids():
        assert len(catalog_entry(sid).blocks) == (1 if sid in sps.SYMMETRIC_CONTROLS else 2), sid


# (n, module copies) of every catalog entry built on the Clifford skeleton
CLIFFORD_SKELETON_ENTRIES = {
    "Sp(2)/U(1)Sp(1)": (2, 1), "Sp(1,1)/U(1)Sp(1)": (2, 1),
    "Sp(1)Sp(1)|xR4/U(1)Sp(1)": (2, 1),
    "Sp(1)Sp(2)/dSp(1)Sp(1)": (3, 1), "Sp(1)Sp(1,1)/dSp(1)Sp(1)": (3, 1),
    "Sp(1)(Sp(1)Sp(1)|xR4)/dSp(1)Sp(1)": (3, 1),
    "Spin(7)|xR8/Spin(6)": (6, 1),
    "Spin(9)/Spin(7)": (7, 1), "Spin(8,1)/Spin(7)": (7, 1), "Spin(8)|xR8+/Spin(7)": (7, 1),
    "N(2,1)": (2, 1), "N(2,2)": (2, 2), "N(3;1,0)": (3, 1), "N(3;2,0)": (3, 2),
    "N(6,1)": (6, 1), "N(7;1,0)": (7, 1),
}


def test_extracted_isotropy_is_the_clifford_isotropy_bit_for_bit():
    # the coh2 rows read the extracted isotropy in place of the construction's
    assert len(CLIFFORD_SKELETON_ENTRIES) == 16
    for sid, (n, copies) in CLIFFORD_SKELETON_ENTRIES.items():
        rep = catalog_entry(sid).rep
        built = clifford_isotropy(n, copies)
        assert np.array_equal(rep.algebra.c, built.algebra.c), sid
        assert np.array_equal(rep.matrices, built.matrices), sid


def test_the_cached_isotropy_and_module_are_shared_and_read_only():
    iso, module = clifford_isotropy(3, 2), spin_module(3)
    assert clifford_isotropy(3, 2) is iso and spin_module(3) is module
    for array in (iso.matrices, iso.algebra.c, module.gammas):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0, 0] = 1.0


def test_the_cached_isotropy_and_module_keep_their_fields():
    module, iso = spin_module(2), clifford_isotropy(2, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        module.gammas = np.zeros((2, 4, 4))
    with pytest.raises(dataclasses.FrozenInstanceError):
        iso.matrices = np.zeros_like(iso.matrices)
    assert spin_module(2).gammas.any() and clifford_isotropy(2, 1).matrices.any()


def test_cached_completions_and_catalog_slices_cannot_be_changed():
    # a zeroed homogeneous basis used to break every later n = 2 completed entry
    sol = sps._cached_completion(2, 1.0, 1.0 / np.sqrt(2.0))
    for array in (sol.particular, sol.homogeneous, sol.singular_values):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = array  # writes nothing new where it is allowed
    assert isinstance(catalog_entry("Sp(2)/U(1)Sp(1)").slices, tuple)


def test_cached_spaces_algebras_subspaces_and_solutions_keep_their_fields():
    from liecoh import claims

    # a relabelled catalog entry used to change every later export of it
    space, sol = catalog_entry("N(1,1)"), sps._cached_completion(6, 1.0, MU)
    for obj in (space, space.algebra, space.isotropy, sol):
        for f in dataclasses.fields(obj):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, f.name, getattr(obj, f.name))
    assert catalog_entry("N(1,1)").label == "N(1,1)" and not sol.empty
    # a shared warped profile used to fail its claim in every later suite, and the
    # problem of a cached solution to change every later build from it
    curvature = claims.RunConfig(groups=("curvature",))
    report = claims.run_suite(curvature).reports[0]
    edits = ((claims.WARPED_CASES[1][2], "ddf", lambda t: 0.0 * t),
             (sol.problem, "target", sol.problem.skeleton), (curvature, "seed", 1),
             (report, "status", "fail"))
    for obj, name, value in edits:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, value)
    assert claims.run_suite(curvature).exit_code == 0


# counts the skeletons, and the cache misses of the isotropy and the module
BUILD_COUNTS = """
import contextlib, io, json
from liecoh import builders, clifford, cli, spaces
problem, calls = spaces.clifford_completion_problem, []
spaces.clifford_completion_problem = lambda *a: calls.append(a) or problem(*a)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(["verify", "--json"])
print(json.dumps([len(calls), builders.clifford_isotropy.cache_info().misses,
                  clifford.spin_module.cache_info().misses]))
"""


def test_one_verify_builds_each_isotropy_and_module_once_per_key():
    # a fresh process, so no cache filled by another test hides a build
    src = os.path.dirname(os.path.dirname(sps.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", BUILD_COUNTS], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    # skeletons: 16 jacobi claims, 4 zero fillings and 4 completions (the 6
    # Heisenberg spaces on the Clifford isotropy write no skeleton, only their
    # semidirect sum); isotropies: (n, copies) in (2|3, 1|2), (6, 1), (7, 1);
    # modules: n = 2, 3, 6, 7 and the n = 8 of spin9_sixteen
    assert json.loads(out.stdout) == [24, 6, 5]


def test_catalog_unknown_id():
    with pytest.raises(KeyError):
        catalog_entry("Sp(42)/Nothing")


@pytest.mark.parametrize("delta", [1e-5, 1e-3, 0.1])
def test_scale_violation_residual_grows_with_delta(delta):
    """Residual exceeds delta / 10 whenever the scales are off by delta."""
    with pytest.raises(ValidationError) as err:
        build_clifford_space(7, 2 * MU * MU + delta, MU)
    assert err.value.residual > delta / 10.0


def test_g1_closure_across_catalog():
    for sid in catalog_ids():
        space = catalog_entry(sid)
        if len(space.blocks) != 2:
            continue
        g1, closure = _g1(space)
        assert closure < 1e-12, sid
        assert g1.dim == space.isotropy.dim + space.blocks[0].dim, sid


def test_nilpotent_part_and_j_maps_follow_a_rotation_of_the_blocks():
    """Blocks re-given in a rotated orthonormal basis give the rotated results."""
    from liecoh.claims import _j_matrices
    from liecoh.geometry import InvariantMetricSpace, curvature_tensor

    space = catalog_entry("N(3;1,0)")
    rng = np.random.default_rng(11)
    r1, r2 = (np.linalg.qr(rng.standard_normal((b.dim, b.dim)))[0] for b in space.blocks)
    rotated = ReductiveSpace("rotated", space.algebra, space.isotropy,
                             (Subspace(space.blocks[0].basis @ r1),
                              Subspace(space.blocks[1].basis @ r2)))
    nil, nil_rot = nilpotent_part(space), nilpotent_part(rotated)
    r = np.zeros((nil.dim, nil.dim))
    r[:3, :3], r[3:, 3:] = r1, r2
    assert np.allclose(nil_rot.c, np.einsum("ia,jb,ijk,kc->abc", r, r, nil.c, r), atol=1e-12)
    assert center_dimension(nil_rot) == center_dimension(nil) == 3
    assert nilpotency_class(nil_rot) == nilpotency_class(nil) == 2
    j, j_rot = _j_matrices(space), _j_matrices(rotated)
    assert np.allclose(j_rot, np.einsum("za,zxy,xu,yv->auv", r1, j, r2, r2), atol=1e-12)
    anti = np.einsum("aij,bjk->abik", j_rot, j_rot)
    anti = anti + anti.transpose(1, 0, 2, 3)
    assert np.allclose(anti, -2.0 * np.einsum("ab,ij->abij", np.eye(3), np.eye(4)), atol=1e-12)
    # the isotropy matrices and the curvature of a block-scaled metric rotate with the blocks
    assert np.array_equal(rotated.rep.algebra.c, space.rep.algebra.c)
    assert np.allclose(rotated.rep.matrices, r.T @ space.rep.matrices @ r, atol=1e-12)
    r4, r4_rot = (curvature_tensor(InvariantMetricSpace(s, (1.0, 2.0))) for s in (space, rotated))
    assert np.abs(r4).max() > 0.1
    assert np.allclose(r4_rot, np.einsum("ia,jb,kc,ld,ijkl->abcd", r, r, r, r, r4), atol=1e-12)


def test_fingerprint_claims_read_the_catalog(monkeypatch):
    from liecoh import claims

    for sid in catalog_ids():
        catalog_entry(sid)
    monkeypatch.setattr(sps, "build_clifford_space", lambda *a: pytest.fail("rebuilt"))
    monkeypatch.setattr(sps, "build_heisenberg", lambda *a: pytest.fail("rebuilt"))
    registry = [entry for entry in claims.build_claims()
                if entry[0].startswith(("fingerprint.completion.n7.", "heisenberg."))]
    assert len(registry) == 2 + len(claims.HEISENBERG_CASES)
    for entry in registry:
        assert claims._run_one(entry, claims.RunConfig()).status == "pass"


def test_distinct_objects_compare_unequal_and_each_equals_itself():
    from liecoh.completion import complete_bracket
    from liecoh.geometry import InvariantMetricSpace

    # equal labels and equal arrays, but two objects: == is identity, and never
    # asks an array for its truth value
    a, b = catalog_entry("N(1,1)"), build_heisenberg(1, 1)
    problem = sps.clifford_completion_problem(2, 1.0, MU)
    gammas = spin_module(2).gammas  # spin_module itself returns one cached module
    pairs = [(a, b), (a.algebra, b.algebra), (a.rep, b.rep), (a.isotropy, b.isotropy),
             (CliffordModule(2, gammas), CliffordModule(2, gammas)),
             (problem, sps.clifford_completion_problem(2, 1.0, MU)),
             (complete_bracket(problem), complete_bracket(problem)),
             (InvariantMetricSpace(a), InvariantMetricSpace(a))]
    for x, y in pairs:
        assert x != y, type(x).__name__
        assert x == x, type(x).__name__
