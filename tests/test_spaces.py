import numpy as np
import pytest

from liecoh import spaces as sps
from liecoh.algebra import (
    LieAlgebra,
    Subspace,
    ValidationError,
    center_dimension,
    direct_sum,
    jacobi_residual,
    killing_form,
    nilpotency_class,
    pullback_structure,
    signature,
)
from liecoh.builders import so_standard
from liecoh.reps import cohomogeneity
from liecoh.spaces import (
    CliffordSpaceSpec,
    HeisenbergSpec,
    ReductiveSpace,
    SemidirectHyperbolicSpec,
    ad_eigenspace_decomposition,
    build_clifford_space,
    build_g1,
    build_heisenberg,
    build_trivial_module_space,
    catalog_entry,
    catalog_ids,
    clifford_g1,
    flat_unitary_space,
    hyperbolic_semidirect,
    isotropy_representation,
    nilpotent_part,
    projected_action_isometry_test,
    verify_flatness,
)

MU = 1.0 / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# the Clifford construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,k_dim,m2_dim", [(2, 4, 4), (3, 6, 4), (6, 15, 8), (7, 21, 8)])
def test_clifford_construction_shapes(n, k_dim, m2_dim):
    space = build_clifford_space(CliffordSpaceSpec(n, 1.0, MU))
    assert space.isotropy.dim == k_dim
    assert [b.dim for b in space.blocks] == [n, m2_dim]
    assert jacobi_residual(space.algebra) < 1e-9
    rep, _ = isotropy_representation(space)
    assert cohomogeneity(rep) == 2


def test_clifford_heisenberg_mode_n7():
    space = build_clifford_space(CliffordSpaceSpec(7, 0.0, 0.0, 1, ("heisenberg", 1.0)))
    assert space.dim == 36  # 21 + 7 + 8
    nil = nilpotent_part(space)
    assert nil.dim == 15
    assert center_dimension(nil) == 7
    assert nilpotency_class(nil) == 2


def test_clifford_zero_mode_n7_g1_fingerprint():
    space = build_clifford_space(CliffordSpaceSpec(7, 1.0, MU, 1, ("zero",)))
    g1, report = build_g1(space)
    assert g1.dim == 28
    assert signature(killing_form(g1)) == (0, 28, 0)
    assert report.closure_residual < 1e-12


def test_clifford_rejects_wrong_scale_with_residual():
    with pytest.raises(ValidationError) as err:
        build_clifford_space(CliffordSpaceSpec(7, 1.0, 1.0))
    # hand value: the jacobiator on (e_i, e_j, w) is (lam - 2 mu^2) G_i G_j w,
    # whose columns are unit vectors; the largest constant is 2 lam = 2
    assert abs(err.value.residual - 0.5) < 1e-12
    assert err.value.triple is not None


def test_clifford_rejects_kappa_zero_mode():
    with pytest.raises(ValueError):
        CliffordSpaceSpec(7, 0.0, 0.0, 1, ("heisenberg", 0.0))
    with pytest.raises(ValueError):
        CliffordSpaceSpec(7, 1.0, MU, 1, ("heisenberg", 1.0))


@pytest.mark.parametrize("alpha", [2.0, 1.0 / 3.0, -1.0])
def test_rescaling_equivariance(alpha):
    """Pulling back by (k, x, v) -> (k, alpha x, v) rescales (lam, mu)."""
    lam, mu = 0.5, 0.5
    base = build_clifford_space(CliffordSpaceSpec(3, lam, mu))
    scaled = build_clifford_space(
        CliffordSpaceSpec(3, alpha * alpha * lam, alpha * mu))
    f = np.eye(base.dim)
    m1_ambient = [int(np.argmax(np.abs(col))) for col in base.blocks[0].basis.T]
    for i in m1_ambient:
        f[i, i] = alpha
    pulled = pullback_structure(base.algebra, f)
    assert np.abs(pulled.c - scaled.algebra.c).max() < 1e-12


def test_negative_lam_g1_branch():
    alg = clifford_g1(7, -1.0)
    assert alg.dim == 28
    assert jacobi_residual(alg) < 1e-12
    assert signature(killing_form(alg)) == (7, 21, 0)
    assert any("excluded branch" in note for note in alg.notes)
    flat = clifford_g1(3, 0.0)
    assert signature(killing_form(flat)) == (0, 3, 3)


# ---------------------------------------------------------------------------
# heisenberg spaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("center,copies,nil_dim", [
    (1, 1, 3), (1, 2, 5), (2, 1, 6), (3, 1, 7), (6, 1, 14), (7, 1, 15),
])
def test_heisenberg_types(center, copies, nil_dim):
    space = build_heisenberg(HeisenbergSpec(center, copies))
    nil = nilpotent_part(space)
    assert nil.dim == nil_dim
    assert center_dimension(nil) == center
    assert nilpotency_class(nil) == 2


def test_heisenberg_n310_j_anticommutation():
    space = build_heisenberg(HeisenbergSpec(3, 1))
    from liecoh.claims import _j_matrices

    j = _j_matrices(space)
    for a in range(3):
        for b in range(3):
            want = -2.0 * np.eye(4) if a == b else np.zeros((4, 4))
            assert np.array_equal(j[a] @ j[b] + j[b] @ j[a], want)


def test_heisenberg_normalization_kills_kappa():
    """Raw kappa = -2 pulled back by the sign-and-scale map gives kappa = 1."""
    raw = build_clifford_space(CliffordSpaceSpec(3, 0.0, 0.0, 1, ("heisenberg", -2.0)))
    normalized = build_heisenberg(HeisenbergSpec(3, 1, kappa=-2.0))
    kappa = -2.0
    eps, rho = np.sign(kappa), np.sqrt(abs(kappa))
    f = np.eye(raw.dim)
    for i in [int(np.argmax(np.abs(c))) for c in raw.blocks[0].basis.T]:
        f[i, i] = eps
    for i in [int(np.argmax(np.abs(c))) for c in raw.blocks[1].basis.T]:
        f[i, i] = 1.0 / rho
    pulled = pullback_structure(raw.algebra, f)
    assert np.abs(pulled.c - normalized.algebra.c).max() < 1e-12


def test_heisenberg_kappa_zero_degenerates():
    space = build_heisenberg(HeisenbergSpec(2, 1, kappa=0.0))
    assert any("degenerate" in n for n in space.notes)
    assert np.abs(nilpotent_part(space).c).max() == 0.0


# ---------------------------------------------------------------------------
# trivial-submodule branch
# ---------------------------------------------------------------------------


def test_su_compact_branch():
    space = build_trivial_module_space("su_compact", 2)
    assert space.dim == 8 and space.isotropy.dim == 3
    rep, _ = isotropy_representation(space)
    assert cohomogeneity(rep) == 2
    assert signature(killing_form(space.algebra)) == (0, 8, 0)


def test_su_noncompact_branch_signature():
    space = build_trivial_module_space("su_noncompact", 2)
    assert signature(killing_form(space.algebra)) == (4, 4, 0)


@pytest.mark.parametrize("branch", ["su_compact", "su_noncompact"])
def test_cartan_relations(branch):
    space = build_trivial_module_space(branch, 2)
    c = space.algebra.c
    g1 = list(range(4))
    m2 = list(range(4, 8))
    assert np.abs(c[np.ix_(g1, m2)][:, :, g1]).max() < 1e-12
    assert np.abs(c[np.ix_(m2, m2)][:, :, m2]).max() < 1e-12


def test_heis_branch_alias():
    space = build_trivial_module_space("heis", 2)
    assert space.label == "N(1,2)"
    assert center_dimension(nilpotent_part(space)) == 1


def test_bad_branch_rejected():
    with pytest.raises(ValueError):
        build_trivial_module_space("so_compact", 2)
    with pytest.raises(ValueError):
        build_trivial_module_space("su_compact", 1)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------


def test_build_g1_on_catalog_sp11():
    g1, report = build_g1(catalog_entry("Sp(1,1)/U(1)Sp(1)"))
    assert g1.dim == 6
    assert signature(killing_form(g1)) == (0, 6, 0)
    assert report.kernel_dim == 3  # the symplectic factor kills the plane


def test_build_g1_refusal_with_witness():
    """A product with a factor acting trivially on part of m2 is refused."""
    so3 = so_standard(3)
    two = direct_sum(so3.algebra, so3.algebra)
    d = 6 + 9
    c = np.zeros((d, d, d))
    c[:6, :6, :6] = two.c
    # m = copy1 (factor 1) + [copy2 (factor 1), copy3 (factor 2)]
    for a in range(3):
        mats = so3.matrices[a]
        for (base, gen) in ((6, a), (9, a), (12, 3 + a)):
            c[gen, base:base + 3, base:base + 3] = mats.T
            c[base:base + 3, gen, base:base + 3] = -mats.T
    alg = LieAlgebra(c)
    space = ReductiveSpace("product-counterexample", alg,
                           Subspace.coordinate(d, range(6)),
                           (Subspace.coordinate(d, range(6, 9)),
                            Subspace.coordinate(d, range(9, 15))))
    with pytest.raises(sps.G1Refusal) as err:
        build_g1(space)
    w = err.value.witness
    assert np.linalg.norm(w) > 0
    # the witness lives in the m2 copy fixed by the second factor
    assert np.abs(w[:9]).max() < 1e-9 and np.abs(w[12:]).max() < 1e-9


def test_projected_action_isometry():
    spin_like = build_clifford_space(CliffordSpaceSpec(7, 1.0, MU))
    assert projected_action_isometry_test(spin_like) == (True, 0.0)
    hyp = hyperbolic_semidirect(SemidirectHyperbolicSpec("C", 1, 0.75))
    verdict, worst = projected_action_isometry_test(hyp)
    assert verdict is False
    assert abs(worst - 0.75) < 1e-12
    heis = catalog_entry("N(7;1,0)")
    assert projected_action_isometry_test(heis)[0] is True


def test_ad_eigenspace_line_case():
    hyp = hyperbolic_semidirect(SemidirectHyperbolicSpec("R", 1, 2.0, rotation=0.0))
    rep = ad_eigenspace_decomposition(hyp)
    assert rep.zero_dim == 1 and rep.zero_matches_g1
    assert rep.nonzero_blocks == {(2.0, 0.0): 1}
    assert rep.defect == 0


def test_ad_eigenspace_rotation_case():
    hyp = hyperbolic_semidirect(SemidirectHyperbolicSpec("C", 2, 0.5, rotation=1.0))
    rep = ad_eigenspace_decomposition(hyp)
    assert rep.zero_dim == 1 and rep.zero_matches_g1
    assert rep.nonzero_blocks == {(0.5, 1.0): 4}
    assert rep.offzero_abelian_residual < 1e-12


def test_verify_flatness():
    assert verify_flatness(flat_unitary_space(3, 1)) is True
    assert verify_flatness(build_trivial_module_space("euclidean_screw", 1)) is True
    assert verify_flatness(catalog_entry("N(3;1,0)")) is False
    trivial = ReductiveSpace("abelian", LieAlgebra(np.zeros((3, 3, 3))),
                             Subspace.zero(3),
                             (Subspace.coordinate(3, [0, 1, 2]),))
    assert verify_flatness(trivial) is True


def test_flat_unitary_bracket_rigidity():
    """Every admissible bracket on the determinant-action complement is zero.

    The plane brackets may only hit the central direction, and the module
    brackets only the isotropy plus the plane; both completions collapse.
    """
    from liecoh.completion import CompletionProblem, complete_bracket

    space = flat_unitary_space(3, 1)
    alg = space.algebra
    m1 = [int(np.argmax(np.abs(c))) for c in space.blocks[0].basis.T]
    m2 = [int(np.argmax(np.abs(c))) for c in space.blocks[1].basis.T]
    center_dir = list(range(8, 9))  # the trace direction of u(3)
    sol1 = complete_bracket(CompletionProblem(
        alg, tuple(m1), Subspace.coordinate(alg.dim, center_dir)))
    assert sol1.nullity == 0 and np.abs(sol1.particular).max(initial=0.0) < 1e-12
    sol2 = complete_bracket(CompletionProblem(
        alg, tuple(m2), Subspace.coordinate(alg.dim, list(range(9)) + m1)))
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


def test_catalog_unknown_id():
    with pytest.raises(KeyError):
        catalog_entry("Sp(42)/Nothing")


@pytest.mark.parametrize("delta", [1e-5, 1e-3, 0.1])
def test_scale_violation_residual_grows_with_delta(delta):
    """Residual exceeds delta / 10 whenever the scales are off by delta."""
    with pytest.raises(ValidationError) as err:
        build_clifford_space(CliffordSpaceSpec(7, 2 * MU * MU + delta, MU))
    assert err.value.residual > delta / 10.0


def test_g1_closure_across_catalog():
    for sid in catalog_ids():
        space = catalog_entry(sid)
        if len(space.blocks) != 2:
            continue
        g1, report = build_g1(space)
        assert report.closure_residual < 1e-12, sid
        assert g1.dim == space.isotropy.dim + space.blocks[0].dim, sid


def test_index_recovery_refuses_non_coordinate_blocks():
    """The diagonal blocks of the group manifold have no coordinate indices."""
    from liecoh.claims import _j_matrices

    space = catalog_entry("SU(3)xSU(3)/dSU(3)")
    assert all(b.indices is None for b in space.blocks)
    with pytest.raises(ValueError):
        nilpotent_part(space)
    with pytest.raises(ValueError):
        _j_matrices(space)
