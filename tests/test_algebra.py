import json

import numpy as np
import pytest

from liecoh import algebra as la
from liecoh.algebra import (
    LieAlgebra,
    Subspace,
    ValidationError,
    abelian,
    ad_matrix,
    bracket,
    center_dimension,
    direct_sum,
    jacobi_residual,
    killing_form,
    killing_invariance_residual,
    nilpotency_class,
    pullback_structure,
    semidirect_sum,
    signature,
    structure_constants_from_matrices,
    weyl_flip,
)
from liecoh.builders import so_standard
from liecoh.reps import Representation
from liecoh.spaces import build_heisenberg, HeisenbergSpec


def su2_epsilon() -> LieAlgebra:
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    return LieAlgebra(c)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_abelian_is_zero():
    alg = abelian(4)
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(4), rng.standard_normal(4)
    assert np.all(bracket(alg, x, y) == 0)


def test_bracket_epsilon_relation():
    alg = su2_epsilon()
    e = np.eye(3)
    assert np.array_equal(bracket(alg, e[0], e[1]), e[2])


def test_bracket_heisenberg_center_line():
    # basis (v, X, Y) after the isotropy block: [X, Y] = v
    space = build_heisenberg(HeisenbergSpec(1, 1))
    alg = space.algebra
    v = space.blocks[0].basis[:, 0]
    x = space.blocks[1].basis[:, 0]
    y = space.blocks[1].basis[:, 1]
    out = bracket(alg, x, y)
    assert np.allclose(out, v) or np.allclose(out, -v)
    assert abs(abs(out @ v) - 1.0) < 1e-12


def test_bracket_bilinear_antisymmetric():
    alg = su2_epsilon()
    rng = np.random.default_rng(1)
    for _ in range(25):
        x, y, z = rng.standard_normal((3, 3))
        a, b = rng.standard_normal(2)
        lhs = bracket(alg, a * x + b * y, z)
        rhs = a * bracket(alg, x, z) + b * bracket(alg, y, z)
        assert np.allclose(lhs, rhs, atol=1e-12)
        assert np.allclose(bracket(alg, x, y), -bracket(alg, y, x), atol=1e-12)


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(su2_epsilon(), np.ones(3), np.ones(4))


def test_antisymmetry_enforced_exactly():
    c = np.zeros((2, 2, 2))
    c[0, 1, 0] = 1.0  # missing mirror entry
    with pytest.raises(ValueError):
        LieAlgebra(c)


# ---------------------------------------------------------------------------
# jacobi residual
# ---------------------------------------------------------------------------


def test_jacobi_zero_cases():
    assert jacobi_residual(abelian(3)) == 0.0
    assert jacobi_residual(su2_epsilon()) == 0.0


def test_jacobi_residual_scale_free():
    alg = su2_epsilon()
    scaled = LieAlgebra(7.5 * np.array(alg.c))
    assert jacobi_residual(scaled) == jacobi_residual(alg)


def test_jacobi_violation_detected():
    # [e0,e1] = e2 and [e1,e2] = e1 cannot close: the jacobiator is -e2
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 1], c[2, 1, 1] = 1.0, -1.0
    alg = LieAlgebra(c)
    assert abs(jacobi_residual(alg) - 1.0) < 1e-12
    from liecoh.algebra import worst_jacobi_triple

    triple, res = worst_jacobi_triple(alg)
    assert set(triple) == {0, 1, 2}


# ---------------------------------------------------------------------------
# killing form
# ---------------------------------------------------------------------------


def brute_force_killing(alg: LieAlgebra) -> np.ndarray:
    """Independent oracle: trace of composed ad maps, built from bracket()."""
    d = alg.dim
    e = np.eye(d)
    b = np.zeros((d, d))
    for a in range(d):
        for c in range(d):
            total = 0.0
            for j in range(d):
                total += bracket(alg, e[a], bracket(alg, e[c], e[j]))[j]
            b[a, c] = total
    return b


def test_killing_abelian_zero():
    assert np.all(killing_form(abelian(3)) == 0)


def test_killing_su2_is_minus_two_identity():
    b = killing_form(su2_epsilon())
    assert np.allclose(b, -2.0 * np.eye(3))
    assert np.allclose(b, brute_force_killing(su2_epsilon()))


def test_killing_matches_brute_force_on_so5():
    alg = so_standard(5).algebra
    assert np.allclose(killing_form(alg), brute_force_killing(alg), atol=1e-12)


def test_killing_ad_invariance():
    for alg in (su2_epsilon(), so_standard(4).algebra):
        assert killing_invariance_residual(alg) < 1e-12


# ---------------------------------------------------------------------------
# sums
# ---------------------------------------------------------------------------


def test_direct_sum_abelian():
    s = direct_sum(abelian(1), abelian(1))
    assert s.dim == 2 and jacobi_residual(s) == 0.0


def test_direct_sum_su2_center():
    s = direct_sum(su2_epsilon(), abelian(1))
    assert s.dim == 4
    assert center_dimension(s) == 1


def test_direct_sum_sp1_sp2_negative_definite():
    from liecoh.builders import sp_standard

    s = direct_sum(sp_standard(1).algebra, sp_standard(2).algebra)
    assert s.dim == 13
    assert signature(killing_form(s)) == (0, 13, 0)
    assert jacobi_residual(s) < 1e-12


def test_semidirect_trivial_rep_is_direct_sum():
    alg = su2_epsilon()
    rep = Representation(alg, np.zeros((3, 2, 2)))
    s = semidirect_sum(alg, rep)
    assert np.array_equal(s.c, direct_sum(alg, abelian(2)).c)


def test_semidirect_so2_gives_euclidean_motions():
    rot = np.array([[[0.0, -1.0], [1.0, 0.0]]])
    alg = abelian(1)
    s = semidirect_sum(alg, Representation(alg, rot))
    assert s.dim == 3
    assert jacobi_residual(s) < 1e-12
    assert signature(killing_form(s)) == (0, 1, 2)


def test_semidirect_spin7_on_spinors():
    from liecoh.clifford import spin_algebra, spin_module

    emb = spin_algebra(spin_module(7))
    rep = Representation(emb.algebra, emb.matrices)
    s = semidirect_sum(emb.algebra, rep)
    assert s.dim == 29
    assert jacobi_residual(s) < 1e-12
    # the ideal is the radical: killing degenerates exactly there
    assert signature(killing_form(s)) == (0, 21, 8)


def test_semidirect_rejects_non_representation():
    alg = su2_epsilon()
    bad = Representation(alg, np.array([np.eye(2), np.zeros((2, 2)), np.zeros((2, 2))]))
    with pytest.raises(ValidationError):
        semidirect_sum(alg, bad)


# ---------------------------------------------------------------------------
# assorted structure
# ---------------------------------------------------------------------------


def test_structure_constants_from_matrices_roundtrip():
    rep = so_standard(3)
    c = structure_constants_from_matrices(rep.matrices)
    assert np.allclose(c, rep.algebra.c, atol=1e-12)


def test_nilpotency_class_and_center():
    space = build_heisenberg(HeisenbergSpec(1, 1))
    from liecoh.spaces import nilpotent_part

    nil = nilpotent_part(space)
    assert nil.dim == 3
    assert center_dimension(nil) == 1
    assert nilpotency_class(nil) == 2
    assert nilpotency_class(abelian(2)) == 1
    assert nilpotency_class(su2_epsilon()) is None


def test_weyl_flip_requires_symmetric_grading():
    # so(3) with block {0}: [e0, e1] = e2 lands outside the grading
    with pytest.raises(ValidationError):
        weyl_flip(su2_epsilon(), [0])


def test_weyl_flip_so3_to_lorentz():
    # block = the two rotations moving the axis: so(3) -> so(2,1)
    flipped = weyl_flip(su2_epsilon(), [0, 1])
    assert jacobi_residual(flipped) < 1e-12
    assert signature(killing_form(flipped)) == (2, 1, 0)


def test_pullback_by_identity_and_scaling():
    alg = su2_epsilon()
    same = pullback_structure(alg, np.eye(3))
    assert np.allclose(same.c, alg.c)
    # conjugating by an orthogonal map preserves the jacobi residual
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    moved = pullback_structure(alg, q)
    assert jacobi_residual(moved) < 1e-12


def test_ad_matrix_matches_bracket():
    alg = su2_epsilon()
    x = np.array([0.3, -1.2, 0.5])
    y = np.array([1.0, 0.25, -2.0])
    assert np.allclose(ad_matrix(alg, x) @ y, bracket(alg, x, y))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_roundtrip_bit_exact():
    from liecoh.spaces import catalog_entry

    alg = catalog_entry("Sp(2)/U(1)Sp(1)").algebra
    data = json.loads(la.dumps(alg))
    back = la.from_json_dict(data)
    assert np.array_equal(back.c, alg.c)
    assert back.labels == alg.labels


def test_json_sparse_triples_upper_only():
    alg = su2_epsilon()
    data = la.to_json_dict(alg)
    assert data["dim"] == 3
    assert all(i < j for i, j, _, _ in data["c"])
    assert la.from_json_dict(data).c.shape == (3, 3, 3)


def test_json_rejects_bad_triples():
    with pytest.raises(ValueError):
        la.from_json_dict({"dim": 2, "c": [[1, 0, 0, 1.0]]})


def test_subspace_basics():
    s = Subspace.from_spanning(4, np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0], [0.0, 0.0]]))
    assert s.dim == 1
    assert s.contains(np.array([3.0, 3.0, 0.0, 0.0]))
    assert not s.contains(np.array([1.0, 0.0, 0.0, 0.0]))
    t = Subspace.coordinate(4, [0, 1])
    assert not s.equals(t)
    assert t.equals(Subspace.from_spanning(4, np.array([[1.0, 1.0], [1.0, -1.0],
                                                        [0.0, 0.0], [0.0, 0.0]])))


def test_coordinate_subspace_keeps_its_indices():
    idx = [3, 0, 2]
    sub = Subspace.coordinate(5, idx)
    assert sub.indices == tuple(idx)
    assert sub.coordinate_indices() == tuple(idx)
    general = Subspace.from_spanning(5, np.eye(5)[:, idx])
    assert general.indices is None
    with pytest.raises(ValueError):
        general.coordinate_indices()
