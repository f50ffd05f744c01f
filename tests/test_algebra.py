import dataclasses
import json

import numpy as np
import pytest

from liecoh import algebra as la
from liecoh.algebra import (
    LieAlgebra,
    Subspace,
    ValidationError,
    abelian,
    center_dimension,
    direct_sum,
    jacobi_residual,
    killing_form,
    killing_invariance_residual,
    nilpotency_class,
    semidirect_sum,
    signature,
    structure_constants_from_matrices,
    weyl_flip,
)
from liecoh.builders import so_standard
from liecoh.reps import Representation
from liecoh.spaces import (
    ReductiveSpace,
    build_heisenberg,
    build_trivial_module_space,
    noncompact_dual,
)
from oracles import ad_matrix, bracket, pullback_structure, read_algebra


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
    space = build_heisenberg(1, 1)
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


def _einsum_worst(c):
    """(sorted triple, residual) from the whole jacobiator, contracted by einsum."""
    ref = (np.einsum("ijm,mkl->ijkl", c, c) + np.einsum("jkm,mil->ijkl", c, c)
           + np.einsum("kim,mjl->ijkl", c, c))
    norms = np.sqrt((ref ** 2).sum(axis=3))
    idx = np.unravel_index(np.argmax(norms), norms.shape)
    return tuple(sorted(int(v) for v in idx)), norms.max() / np.abs(c).max()


def test_jacobiator_matches_einsum_reference():
    c = la.antisymmetrized(np.random.default_rng(5).standard_normal((9, 9, 9)))
    triple, res = la.worst_jacobi_triple(LieAlgebra(c))
    ref_triple, ref_res = _einsum_worst(c)
    assert triple == ref_triple
    assert abs(res - ref_res) < 1e-12
    # the join, which a dense tensor never reaches, agrees as well
    triple, norm = la._join_worst(c)
    assert triple == ref_triple
    assert abs(norm / np.abs(c).max() - ref_res) < 1e-12


def test_jacobi_residual_over_several_slabs_matches_the_einsum_reference():
    # at d = 20 the first index splits into slabs of 16 and 4 rows
    c = la.antisymmetrized(np.random.default_rng(7).standard_normal((20, 20, 20)))
    assert la.CHUNK_BYTES // (8 * 20 ** 3) == 16
    triple, res = la.worst_jacobi_triple(LieAlgebra(c))
    ref_triple, ref_res = _einsum_worst(c)
    assert triple == ref_triple
    assert abs(res - ref_res) < 1e-12


def test_jacobi_residual_never_holds_the_whole_jacobiator():
    import tracemalloc

    d = 36  # so(9): the whole jacobiator is 8 d^4 bytes = 13.4 MB
    alg = LieAlgebra(la.antisymmetrized(np.random.default_rng(8).standard_normal((d, d, d))))
    tracemalloc.start()
    try:
        la.worst_jacobi_triple(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * d ** 4 / 2


def test_dense_slabs_hold_at_most_three_slabs_and_the_norms():
    import tracemalloc

    d = 36
    c = la.antisymmetrized(np.random.default_rng(9).standard_normal((d, d, d)))
    slab = 8 * d ** 3 * (la.CHUNK_BYTES // (8 * d ** 3))
    tracemalloc.start()
    try:
        la._slab_worst(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * slab + 8 * d ** 3


def test_a_dense_tensor_takes_the_slab_branch(monkeypatch):
    def no_join(c):
        raise AssertionError("the join ran on a dense tensor")

    monkeypatch.setattr(la, "_join_worst", no_join)
    d = 12
    c = la.antisymmetrized(np.random.default_rng(10).standard_normal((d, d, d)))
    assert 2 * la._join_pair_count(c) > d ** 5
    assert jacobi_residual(LieAlgebra(c)) > 1.0


def test_a_sparse_tensor_takes_the_join(monkeypatch):
    from liecoh import spaces as sps

    def no_slabs(c):
        raise AssertionError("the slab kernel ran on a sparse tensor")

    alg = sps.catalog_entry("Spin(9)/Spin(7)").algebra
    monkeypatch.setattr(la, "_slab_worst", no_slabs)
    assert 0.0 < jacobi_residual(alg) < 1e-15


def test_join_chunks_cover_every_match_once():
    left = np.array([3, 1, 2, 1, 5, 0])
    right = np.array([0, 1, 1, 1, 2, 3, 3])
    brute = [(a, b) for a in range(left.size) for b in range(right.size) if left[a] == right[b]]
    for chunk in (None, 1, 3, 4, 100):
        pairs = [p for li, ri in la._join(left, right, chunk)
                 for p in zip(li.tolist(), ri.tolist())]
        assert pairs == brute
        if chunk is not None:  # one left entry's three matches are never split
            assert all(li.size <= max(chunk, 3) for li, _ in la._join(left, right, chunk))
    assert [li.size for li, _ in la._join(left[:0], right)] == [0]


def test_cyclic_order_is_the_parity_rule():
    # distinct (x, y, z) with an even number of inversions: a rotation of their sorted triple
    x, y, z = np.indices((5, 5, 5)).reshape(3, -1)
    distinct = (x != y) & (y != z) & (z != x)
    inversions = (x > y).astype(int) + (x > z) + (y > z)
    assert np.array_equal(la._cyclic_order(x, y, z), distinct & (inversions % 2 == 0))


def _perturbed_spin9():
    """A sparse tensor that breaks Jacobi: one constant of Spin(9)/Spin(7) off by a half."""
    from liecoh import spaces as sps

    c = np.array(sps.catalog_entry("Spin(9)/Spin(7)").algebra.c)
    i, j, k = np.argwhere(c > 0)[7]
    c[i, j, k] *= 1.5
    c[j, i, k] *= 1.5
    return c


def test_a_join_in_many_chunks_matches_one_chunk(monkeypatch):
    c = _perturbed_spin9()
    whole = la._join_worst(c)
    monkeypatch.setattr(la, "CHUNK_BYTES", 8 * 500)  # 73 chunks of at most 500 pairs
    chunked = la._join_worst(c)
    assert chunked[0] == whole[0]
    assert abs(chunked[1] - whole[1]) <= 1e-15 * np.abs(c).max()


def test_a_zero_residual_reports_the_zero_triple():
    # so(3) has nonzero products in the join, which all cancel
    assert la.worst_jacobi_triple(su2_epsilon()) == ((0, 0, 0), 0.0)
    assert la.worst_jacobi_triple(abelian(4)) == ((0, 0, 0), 0.0)


def test_worst_jacobi_triple_is_a_pure_function_of_the_constants(jacobi_kernel_calls):
    # the constants and labels are the whole of an algebra: nothing is cached on it
    assert [f.name for f in dataclasses.fields(LieAlgebra)] == ["c", "labels"]
    alg = su2_epsilon()
    before = dict(vars(alg))
    first = la.worst_jacobi_triple(alg)
    assert la.worst_jacobi_triple(alg) == first
    assert vars(alg).keys() == before.keys()
    assert all(vars(alg)[k] is v for k, v in before.items())
    assert len(jacobi_kernel_calls) == 2


def test_span_brackets_matches_einsum_reference():
    rng = np.random.default_rng(6)
    alg = LieAlgebra(la.antisymmetrized(rng.standard_normal((9, 9, 9))))
    a, b = rng.standard_normal((9, 4)), rng.standard_normal((9, 3))
    for x, y in ((a, b), (b, a), (np.eye(9), a), (np.eye(9), np.eye(9))):
        ref = np.einsum("pa,qb,pql->abl", x, y, alg.c)
        assert np.abs(la.span_brackets(alg, x, y) - ref).max() < 1e-12


def _jacobi_gate(alg: LieAlgebra) -> ReductiveSpace:
    """A space with k = 0 and one block: its constructor runs the Jacobi gate on ``alg``."""
    return ReductiveSpace("algebra", alg, Subspace.coordinate(alg.dim, []),
                          (Subspace.coordinate(alg.dim, range(alg.dim)),))


def test_require_valid_rejects_non_finite_constants():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = np.inf, -np.inf
    alg = LieAlgebra(c)
    with np.errstate(invalid="ignore"):
        assert np.isnan(jacobi_residual(alg))
        with pytest.raises(ValidationError, match="algebra: Jacobi identity"):
            _jacobi_gate(alg)


@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_constants_give_a_nan_residual(value):
    # [e0,e1] = e2 and [e1,e2] = e0, with one constant replaced: an inf or NaN
    # whose products in the join cancel or that has no join partner at all
    c = np.zeros((4, 4, 4))
    c[0, 1, 2], c[1, 0, 2] = 1.0, -1.0
    c[1, 2, 0], c[2, 1, 0] = 1.0, -1.0
    for lone in (False, True):
        alg = su2_epsilon()
        bad = np.array(c)
        bad[(0, 1, 3) if lone else (0, 1, 2)] = value  # nothing brackets into e3
        # NaN is never exactly antisymmetric, so it is set after construction
        object.__setattr__(alg, "c", bad)
        with np.errstate(invalid="ignore"):
            triple, res = la.worst_jacobi_triple(alg)
            assert np.isnan(res)
            with pytest.raises(ValidationError) as err:
                _jacobi_gate(alg)
        assert np.isnan(err.value.residual)


def _catalog_and_constructions():
    from liecoh import spaces as sps

    algs = {sid: sps.catalog_entry(sid).algebra for sid in sps.catalog_ids()}
    mu = 1.0 / np.sqrt(2.0)
    for n in (6, 7):
        algs[f"construction n={n}"] = sps.build_clifford_space(n, 2.0 * mu * mu, mu).algebra
    algs["perturbed Spin(9)/Spin(7)"] = LieAlgebra(_perturbed_spin9())
    return algs


def test_join_and_slabs_agree_on_the_catalog_and_the_constructions():
    algs = _catalog_and_constructions()
    assert len(algs) == 25
    for name, alg in algs.items():
        c = alg.c
        d = c.shape[0]
        if d >= 16:
            assert 512 * la._join_pair_count(c) <= d ** 5, name
        scale = np.abs(c).max()
        join_triple, join_norm = la._join_worst(c)
        slab_triple, slab_norm = la._slab_worst(c)
        assert abs(join_norm - slab_norm) / scale <= 1e-15, name
        if slab_norm / scale > 1e-12:
            assert join_triple == slab_triple, name
    assert la.jacobi_residual(algs["perturbed Spin(9)/Spin(7)"]) > 1e-3


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

    rep = spin_algebra(spin_module(7))
    s = semidirect_sum(rep.algebra, rep)
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
    assert np.array_equal(c, rep.algebra.c)


@pytest.mark.parametrize("extra", ["sum", "zero"])
def test_structure_constants_need_an_orthogonal_basis_without_zero_matrices(extra):
    mats = np.array(so_standard(3).matrices)
    if extra == "sum":  # so(3) again, on a basis that is not orthogonal
        mats[2] += mats[0]
    else:  # so(3) plus a zero matrix used to read as a 4-dimensional algebra
        mats = np.concatenate([mats, np.zeros((1, 3, 3))])
    with pytest.raises(ValidationError, match="do not close under commutators"):
        structure_constants_from_matrices(mats)


def test_nilpotency_class_and_center():
    space = build_heisenberg(1, 1)
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
    # the dual of SU(3)/SU(2) with m1 + m2 as one block: k does not grade g,
    # since [m, m] has a part on the torus line inside m
    su3 = build_trivial_module_space(2)
    one_block = ReductiveSpace("SU(3)/SU(2) one block", su3.algebra, su3.isotropy,
                               (Subspace(su3.frame[:, su3.isotropy.dim:]),))
    with pytest.raises(ValidationError, match="not the odd part of a symmetric pair"):
        noncompact_dual(one_block)


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
    back = json.loads(json.dumps(la.to_json_dict(alg)))
    assert np.array_equal(read_algebra(back), alg.c)
    assert tuple(back["labels"]) == alg.labels


def test_json_sparse_triples_upper_only():
    alg = su2_epsilon()
    data = la.to_json_dict(alg)
    assert data["dim"] == 3
    assert all(i < j for i, j, _, _ in data["c"])
    assert np.array_equal(read_algebra(data), alg.c)


def test_subspace_basics():
    s = Subspace(np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0))
    assert s.dim == 1
    t = Subspace.coordinate(4, [0, 1])
    assert not s.equals(t)
    assert t.equals(Subspace(np.array([[1.0, 1.0], [1.0, -1.0],
                                          [0.0, 0.0], [0.0, 0.0]]) / np.sqrt(2.0)))


def test_coordinate_subspace_rejects_indices_outside_the_ambient_space():
    assert np.array_equal(Subspace.coordinate(5, [3, 0, 2]).basis, np.eye(5)[:, [3, 0, 2]])
    # a negative index used to wrap around silently: [-1] spanned e_4
    for idx in ([-1], [0, 5], [7]):
        with pytest.raises(ValueError, match="coordinate indices"):
            Subspace.coordinate(5, idx)


def test_lie_algebra_leaves_the_callers_arrays_writable():
    c = np.array(su2_epsilon().c)
    alg = LieAlgebra(c)
    c[0, 0, 0] = 1.0
    assert alg.c[0, 0, 0] == 0.0
    assert not alg.c.flags.writeable


def test_labels_and_notes_are_keyword_only():
    # a d x d array passed where the inner product used to go has d rows,
    # so it must not be taken for the labels
    with pytest.raises(TypeError):
        LieAlgebra(np.zeros((3, 3, 3)), np.eye(3), ("a", "b", "c"))


def test_subspace_leaves_the_callers_basis_writable():
    basis = np.eye(3)[:, :2]
    sub = Subspace(basis)
    basis[0, 0] = 5.0
    assert sub.basis[0, 0] == 1.0 and not sub.basis.flags.writeable
