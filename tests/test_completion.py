import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from liecoh import algebra as la
from liecoh import completion
from liecoh.algebra import (
    JACOBI_TOL,
    LieAlgebra,
    abelian,
    antisymmetrized,
    jacobi_residual,
    killing_form,
    signature,
)
from liecoh.clifford import bivector_pairs, so_algebra
from liecoh.completion import CompletionProblem, complete_bracket
from liecoh.linalg import RANK_RTOL, ValidationError, subspace_gap
from liecoh.spaces import (
    _select_completion,
    build_clifford_space,
    catalog_entry,
    catalog_ids,
    clifford_completion_problem,
)

MU = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def n7():
    """The n=7 solve, shared by the tests that only read it."""
    return complete_bracket(clifford_completion_problem(7, 1.0, MU))


def _dense_reference(problem):
    """The whole Jacobi system as one dense matrix and one SVD.

    Returns (particular, orthonormal null rows, singular values, empty).
    """
    c = problem.skeleton.c
    d = c.shape[0]
    s = set(problem.unknown_indices)
    t = np.eye(d)[:, list(problem.target)]
    q = t.shape[1]
    nunk = len(problem.pairs) * q
    pair_index = {}
    for p, (a, b) in enumerate(problem.pairs):
        pair_index[(a, b)] = (p, 1.0)
        pair_index[(b, a)] = (p, -1.0)
    ad_t = np.einsum("ma,mzl->azl", t, c)
    rows, rhs = [np.zeros((0, nunk))], [np.zeros(0)]
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                block = np.zeros((nunk, d))
                fixed = np.zeros(d)
                for (x, y, z) in ((i, j, k), (j, k, i), (k, i, j)):
                    if (x, y) in pair_index:
                        p, sign = pair_index[(x, y)]
                        block[p * q:(p + 1) * q, :] += sign * ad_t[:, z, :]
                        continue
                    fixed += c[x, y, :] @ c[:, z, :]
                    for m in s if z in s else ():
                        if m != z and c[x, y, m] != 0.0:
                            p, sign = pair_index[(m, z)]
                            block[p * q:(p + 1) * q, :] += c[x, y, m] * sign * t.T
                keep = np.abs(block).max(axis=0) > 0.0
                rows.append(block[:, keep].T)
                rhs.append(-fixed[keep])
    a = np.vstack(rows + [np.zeros((nunk, nunk))])
    b = np.concatenate(rhs + [np.zeros(nunk)])
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = RANK_RTOL * sv[0]
    inv = np.where(sv > cutoff, 1.0 / np.where(sv > 0, sv, 1.0), 0.0)
    particular = (vt.T @ (inv * (u.T @ b))).reshape(-1, q)
    from liecoh.completion import _substitute

    empty = not jacobi_residual(_substitute(problem, particular)) < JACOBI_TOL
    return particular, vt[sv <= cutoff], sv, empty


def _violated_skeleton():
    """Unknown block (3, 4) over a skeleton that already breaks Jacobi on 0..2."""
    c = np.zeros((5, 5, 5))
    c[:3, :3, :3] = antisymmetrized(np.random.default_rng(3).standard_normal((3, 3, 3)))
    return CompletionProblem(LieAlgebra(c), (3, 4), [0, 1, 2])


def _random_skeleton(d, nnz, seed):
    """Unknown block of the last three indices over random constants: a nonzero rhs."""
    rng = np.random.default_rng(seed)
    c = np.zeros((d, d, d))
    i, j = np.sort(rng.integers(0, d, (2, nnz)), axis=0)
    c[i, j, rng.integers(0, d, nnz)] = rng.standard_normal(nnz)
    c[d - 3:, d - 3:] = 0.0
    return CompletionProblem(LieAlgebra(antisymmetrized(c)), (d - 3, d - 2, d - 1), range(5))


PARITY_CASES = {
    "n2": lambda: clifford_completion_problem(2, 1.0, MU),
    "n3": lambda: clifford_completion_problem(3, 1.0, MU),
    "n6": lambda: clifford_completion_problem(6, 1.0, MU),
    "zero-skeleton": lambda: CompletionProblem(abelian(5), (3, 4), [0, 1, 2]),
    "inconsistent": lambda: clifford_completion_problem(2, 1.0, 0.3),
    "violated-skeleton": _violated_skeleton,
    "random-dense": lambda: _random_skeleton(8, 200, 4),
    "random-sparse": lambda: _random_skeleton(24, 300, 4),
}


def test_zero_skeleton_admits_zero_completion():
    skel = abelian(5)
    prob = CompletionProblem(skel, (3, 4), [0, 1, 2])
    sol = complete_bracket(prob)
    assert not sol.empty
    assert np.abs(sol.particular).max(initial=0.0) < 1e-12
    # with everything else zero, any filling is two-step nilpotent: full freedom
    assert sol.nullity == 1 * 3
    assert jacobi_residual(sol.realize(np.ones(sol.nullity))) < 1e-12


def test_a_problem_without_unknowns_realizes_its_skeleton():
    # an empty target leaves every unknown bracket zero; a lone unknown index has no pair
    for problem in (CompletionProblem(abelian(3), (1, 2), []),
                    CompletionProblem(abelian(3), (2,), [0, 1])):
        sol = complete_bracket(problem)
        assert sol.particular.shape == (len(problem.pairs), len(problem.target))
        assert np.array_equal(sol.realize([]).c, problem.skeleton.c)


def test_a_selection_needs_a_solution_space_of_nullity_one():
    # the compact filling is chosen by the sign of the one null direction
    with pytest.raises(ValidationError, match="nullity 3"):
        _select_completion(complete_bracket(PARITY_CASES["zero-skeleton"]()))
    for n in (2, 3, 7):
        sol = complete_bracket(clifford_completion_problem(n, 1.0, MU))
        assert np.array_equal(_select_completion(sol).c, sol.realize(-1.0).c)
    with pytest.raises(ValueError, match="completed must be a bool"):
        build_clifford_space(2, 1.0, MU, "abelian")


def test_a_selection_reads_compactness_and_fails_closed_without_it():
    sol = complete_bracket(clifford_completion_problem(2, 1.0, MU))
    # the other orientation of the null direction: the compact sign follows it
    flipped = dataclasses.replace(sol, homogeneous=-sol.homogeneous)
    assert np.array_equal(_select_completion(flipped).c, flipped.realize(1.0).c)
    # a zero null direction: both signs give the flat filling, neither compact
    flat = dataclasses.replace(sol, homogeneous=0.0 * sol.homogeneous)
    with pytest.raises(ValidationError, match="no compact completion at either sign"):
        _select_completion(flat)


def test_a_selection_realizes_the_compact_clifford_ray_once(monkeypatch):
    # -1 is the compact ray of every Clifford completion, and it is tried first
    realize = completion.CompletionSolution.realize
    calls = []
    monkeypatch.setattr(completion.CompletionSolution, "realize",
                        lambda sol, w: calls.append(w) or realize(sol, w))
    for n in (2, 3, 7):
        sol = complete_bracket(clifford_completion_problem(n, 1.0, MU))
        calls.clear()
        alg = _select_completion(sol)
        assert len(calls) == 1
        assert signature(killing_form(alg)) == (0, alg.dim, 0)


@pytest.mark.parametrize("unknown", [(4, -1), (5, -1), (-2, 5), (1, 99)])
def test_unknown_indices_outside_the_skeleton_are_rejected(unknown):
    # so(4) with the bracket of b_4 and b_5 removed; (4, -1) used to name the
    # pair (4, 5) and (5, -1) to pass the duplicate check as two indices
    c = np.array(so_algebra(4).c)
    c[4, 5] = c[5, 4] = 0.0
    with pytest.raises(ValueError, match=r"unknown indices must lie in \[0, 6\)"):
        CompletionProblem(LieAlgebra(c), unknown, range(4))
    # the same index set as the target is checked the same way
    with pytest.raises(ValueError, match=r"target indices must lie in \[0, 6\)"):
        CompletionProblem(LieAlgebra(c), (4, 5), unknown)


@pytest.mark.parametrize("unknown,target,field", [((4, 4), range(4), "unknown"),
                                                  ((4, 5), (0, 1, 1), "target")])
def test_duplicate_indices_are_rejected(unknown, target, field):
    with pytest.raises(ValueError, match=f"{field} index set contains duplicates"):
        CompletionProblem(abelian(6), unknown, target)


def test_nonlinear_coupling_rejected():
    # target meets the unknown index set
    with pytest.raises(ValueError, match="nonlinear"):
        CompletionProblem(abelian(4), (1, 2), [0, 2])


def test_prefilled_unknown_block_rejected():
    c = np.zeros((3, 3, 3))
    c[1, 2, 0] = 1.0
    c[2, 1, 0] = -1.0
    with pytest.raises(ValueError, match="already fixes"):
        CompletionProblem(LieAlgebra(c), (1, 2), [0])


def test_a_permuted_target_permutes_the_coefficient_columns():
    problem = clifford_completion_problem(2, 1.0, MU)
    order = [2, 0, 1, *range(3, len(problem.target))]
    permuted = CompletionProblem(problem.skeleton, problem.unknown_indices,
                                 [problem.target[i] for i in order])
    sol, got = complete_bracket(problem), complete_bracket(permuted)
    assert got.nullity == sol.nullity == 1 and not got.empty
    assert np.abs(got.particular - sol.particular[:, order]).max(initial=0.0) <= 1e-12
    assert np.abs(got.homogeneous - sol.homogeneous[:, :, order]).max() <= 1e-12
    assert np.abs(got.singular_values - sol.singular_values).max() <= 1e-12
    assert np.abs(got.realize(-1.0).c - sol.realize(-1.0).c).max() <= 1e-12


def test_heisenberg_family_in_nilpotent_solution_space():
    """lam = mu = 0 skeleton: the J_Z line <Z.X|Y> is a valid filling."""
    prob = clifford_completion_problem(7, 0.0, 0.0)
    sol = complete_bracket(prob)
    assert not sol.empty
    assert sol.nullity == 1
    # build the expected coefficient vector for [X, Y] = sum_i <Gamma_i X|Y> e_i
    from liecoh.clifford import spin_module

    gam = spin_module(7).gammas
    expected = np.zeros((len(prob.pairs), len(prob.target)))
    s = prob.unknown_indices
    for p, (wa, wb) in enumerate(prob.pairs):
        a, b = s.index(wa), s.index(wb)
        for col, amb in enumerate(prob.target):
            local = amb - (prob.skeleton.dim - 8 - 7)  # m1 sits before m2
            if 0 <= local < 7:
                expected[p, col] = gam[local][b, a]
    expected_flat = expected.reshape(-1)
    expected_flat = expected_flat / np.linalg.norm(expected_flat)
    basis = sol.homogeneous.reshape(sol.nullity, -1)
    proj = basis @ expected_flat
    # expected direction lies in the span of the homogeneous basis
    assert abs(np.linalg.norm(proj) - 1.0) < 1e-9
    # and the realized algebra is a valid two-step nilpotent bracket
    realized = sol.realize(np.ones(sol.nullity))
    assert jacobi_residual(realized) < 1e-12


def test_n7_completion_fingerprints(n7):
    sol = n7
    assert sol.nullity == 1 and not sol.empty
    w = np.ones(1)
    sigs = {signature(killing_form(sol.realize(s * w))) for s in (1.0, -1.0)}
    assert sigs == {(0, 36, 0), (8, 28, 0)}


def test_n6_completion_only_abelian():
    sol = complete_bracket(clifford_completion_problem(6, 1.0, MU))
    assert sol.nullity == 0
    assert not sol.empty
    assert np.abs(sol.particular).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("n,weight,expected_sig", [
    (2, -1.0, (0, 10, 0)),   # compact symplectic filling
    (2, 1.0, (4, 6, 0)),     # its noncompact dual
    (3, -1.0, (0, 13, 0)),
    (3, 1.0, (4, 9, 0)),
])
def test_small_rank_completions(n, weight, expected_sig):
    sol = complete_bracket(clifford_completion_problem(n, 1.0, MU))
    assert sol.nullity == 1
    alg = sol.realize(np.array([weight]))
    assert jacobi_residual(alg) < 1e-9
    assert signature(killing_form(alg)) == expected_sig


def test_completion_soundness_every_returned_point(n7):
    sol = n7
    rng = np.random.default_rng(11)
    for _ in range(5):
        w = rng.standard_normal(sol.nullity)
        assert jacobi_residual(sol.realize(w)) < 1e-9


def test_completion_completeness_perturbations(n7):
    """Perturbing a solution off the solution space breaks jacobi."""
    sol = n7
    basis = sol.homogeneous.reshape(sol.nullity, -1)
    base = sol.coefficients(np.ones(sol.nullity)).reshape(-1)
    rng = np.random.default_rng(0x5EED)
    for _ in range(100):
        r = rng.standard_normal(base.size)
        r -= basis.T @ (basis @ r)
        r *= 1e-2 / np.linalg.norm(r)
        coeffs = (base + r).reshape(sol.particular.shape)
        from liecoh.completion import _substitute

        perturbed = _substitute(sol.problem, coeffs)
        assert jacobi_residual(perturbed) > 1e-6


@pytest.mark.parametrize("case", ["n7", *PARITY_CASES])
def test_block_solve_matches_dense_reference(case, request):
    sol = request.getfixturevalue("n7") if case == "n7" else complete_bracket(PARITY_CASES[case]())
    particular, null_rows, sv, empty = _dense_reference(sol.problem)
    assert sol.singular_values.shape == sv.shape
    assert np.abs(sol.singular_values - sv).max() <= 1e-12 * sv[0]
    assert np.abs(sol.particular - particular).max(initial=0.0) <= 1e-12
    assert sol.nullity == null_rows.shape[0]
    assert subspace_gap(sol.homogeneous.reshape(null_rows.shape).T, null_rows.T) < 1e-10
    assert sol.empty == empty


def test_untouched_columns_are_unit_null_vectors():
    sol = complete_bracket(PARITY_CASES["zero-skeleton"]())
    assert np.array_equal(sol.singular_values, np.zeros(3))
    assert np.array_equal(sol.homogeneous.reshape(3, 3), np.eye(3))


def test_expected_empty_cases():
    assert complete_bracket(PARITY_CASES["inconsistent"]()).empty
    assert complete_bracket(_violated_skeleton()).empty


def test_non_finite_residual_is_empty():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2], c[1, 0, 2] = np.inf, -np.inf
    prob = CompletionProblem(LieAlgebra(c), (2,), [0, 1])
    with np.errstate(invalid="ignore"):
        sol = complete_bracket(prob)
    assert np.isnan(sol.residual)
    assert sol.empty


def test_a_solution_leaves_the_callers_arrays_writable():
    problem = CompletionProblem(abelian(3), (1, 2), [0])
    particular, homogeneous, singular = np.zeros((1, 1)), np.ones((1, 1, 1)), np.ones(1)
    sol = completion.CompletionSolution(problem, particular, homogeneous, 0.0, False, singular)
    for given, kept in ((particular, sol.particular), (homogeneous, sol.homogeneous),
                        (singular, sol.singular_values)):
        assert given.flags.writeable and not kept.flags.writeable
        given[...] = 7.0
        assert not np.any(kept == 7.0)


def test_completed_constants_carry_no_round_off():
    for sid in catalog_ids():
        c = catalog_entry(sid).algebra.c
        assert not np.any((np.abs(c) > 0.0) & (np.abs(c) < 1e-12)), sid


def test_catalog_constants_are_square_roots_of_rationals():
    for sid in catalog_ids():
        c = catalog_entry(sid).algebra.c
        for square in np.unique(np.square(c[c != 0.0])).tolist():
            exact = Fraction(square).limit_denominator(1000)
            assert abs(square - exact) <= 1e-12 * square, (sid, square)


def _record_solvers(monkeypatch):
    """Record the matrices that reach ``eigvalsh`` and ``eigh`` in ``completion``."""
    seen = {}
    for name in ("eigvalsh", "eigh"):
        def recording(a, *args, _solver=getattr(np.linalg, name),
                      _calls=seen.setdefault(name, []), **kwargs):
            _calls.append(a.copy())
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(completion.np.linalg, name, recording)
    return seen


def test_blocks_are_solved_from_their_gram_matrices(monkeypatch):
    problem = clifford_completion_problem(3, 1.0, MU)
    seen = _record_solvers(monkeypatch)

    def forbidden(*args, **kwargs):
        raise AssertionError("the block solve densifies no block")

    monkeypatch.setattr(completion.np.linalg, "qr", forbidden)
    monkeypatch.setattr(completion.np.linalg, "svd", forbidden)
    sol = complete_bracket(problem)
    assert sol.nullity == 1
    # components of 96 x 12 and 112 x 18 (rows x unknowns) reach eigvalsh as their Gram
    # matrices, and eigh sees only the one that holds the null direction
    assert sorted(a.shape for a in seen["eigvalsh"]) == [(12, 12)] * 3 + [(18, 18)]
    assert [a.shape for a in seen["eigh"]] == [(18, 18)]


@pytest.mark.parametrize("n,eigvalsh,eigh", [
    (2, 4, [(12, 12)]), (3, 4, [(18, 18)]), (6, 8, []), (7, 8, [(112, 112)]),
])
def test_eigenvectors_are_formed_only_for_the_blocks_that_read_them(n, eigvalsh, eigh,
                                                                  monkeypatch):
    # without symmetries every block forms its own Gram
    problem = dataclasses.replace(clifford_completion_problem(n, 1.0, MU), symmetries=())
    seen = _record_solvers(monkeypatch)
    assert complete_bracket(problem).nullity == (n != 6)
    assert len(seen["eigvalsh"]) == eigvalsh
    assert [a.shape for a in seen["eigh"]] == eigh


@pytest.mark.parametrize("n,eigvalsh,eigh", [
    (2, 4, [(12, 12)]), (3, 4, [(18, 18)]), (6, 3, []), (7, 2, [(112, 112)]),
])
def test_symmetries_leave_one_gram_per_block_class(n, eigvalsh, eigh, monkeypatch):
    problem = clifford_completion_problem(n, 1.0, MU)
    seen = _record_solvers(monkeypatch)
    assert complete_bracket(problem).nullity == (n != 6)
    assert len(seen["eigvalsh"]) == eigvalsh
    assert [a.shape for a in seen["eigh"]] == eigh


def _symmetry_classes(problem):
    """The blocks of the Jacobi system, as block numbers, closed under the symmetries.

    Every column of a block is mapped, and its image must fill one block of
    the same size.
    """
    row, col, val, rhs, _ = completion._assemble(problem)
    t = list(problem.target)
    q = len(t)
    label = completion._components(row, col, rhs.size, len(problem.pairs) * q)
    number = {k: b for b, k in enumerate(np.unique(label))}
    index = {pair: p for p, pair in enumerate(problem.pairs)}
    links = {b: set() for b in number.values()}
    for perm, _ in problem.symmetries:
        places = np.array([t.index(perm[z]) for z in t])
        image = np.concatenate([index.get((perm[x], perm[y]), index.get((perm[y], perm[x]))) * q
                                + places for x, y in problem.pairs])
        for k, b in number.items():
            (k_image,) = set(label[image[label == k]])
            assert np.sum(label == k_image) == np.sum(label == k)
            links[b].add(number[k_image])
            links[number[k_image]].add(b)
    classes, seen = [], set()
    for b in links:
        if b not in seen:
            members, todo = set(), {b}
            while todo:
                members |= todo
                todo = set().union(*(links[m] for m in todo)) - members
            seen |= members
            classes.append(sorted(members))
    return classes


@pytest.mark.parametrize("n,sizes", [(6, [1, 1, 6]), (7, [1, 7])])
def test_symmetries_carry_each_block_onto_one_of_equal_spectrum(n, sizes):
    problem = clifford_completion_problem(n, 1.0, MU)
    classes = _symmetry_classes(problem)
    assert sorted(map(len, classes)) == sizes
    spectra = [np.linalg.eigvalsh(g) for g in _full_pair_grams(problem)]
    for first, *others in classes:
        for k in others:
            assert np.abs(spectra[k] - spectra[first]).max() <= 1e-13 * spectra[first].max()
    # the blocks are the 8 degree classes of the grading, each named by its first
    # column, and the solve's orbits of classes are these classes of blocks
    row, col, val, rhs, _ = completion._assemble(problem)
    degree, cls, orbit = completion._class_orbits(problem)
    assert np.array_equal(completion._components(row, col, rhs.size, degree.size), cls)
    number = {k: b for b, k in enumerate(np.unique(cls))}
    orbits = {}
    for k in number:
        orbits.setdefault(orbit[k], []).append(number[k])
    assert sorted(orbits.values()) == sorted(classes)


@pytest.mark.parametrize("n", [6, 7])
def test_symmetries_leave_the_solution_as_it_is_without_them(n, request):
    problem = clifford_completion_problem(n, 1.0, MU)
    assert problem.symmetries
    got = request.getfixturevalue("n7") if n == 7 else complete_bracket(problem)
    want = complete_bracket(dataclasses.replace(problem, symmetries=()))
    assert np.array_equal(got.particular, want.particular)
    assert np.array_equal(got.homogeneous, want.homogeneous)
    assert got.residual == want.residual and got.empty == want.empty
    # a carried spectrum is the Gram eigenvalues of another block of the class,
    # which differ from the block's own by round-off (1.03e-15 at n=7)
    sv = want.singular_values
    assert np.abs(got.singular_values - sv).max() <= 2e-15 * sv[0]


def test_a_carried_block_that_reads_its_vectors_is_solved_as_without_symmetries(monkeypatch):
    # two copies of so(5) with [L_12, L_23] removed, swapped by a symmetry and graded
    # by F_2^10, deg L_ij = bits i and j of the copy's five: the swap carries each class
    # of unknowns of one degree onto another, but the one of degree 0, which holds
    # every block with A^T b != 0, onto itself, so each of those forms its V
    c = np.array(so_algebra(5).c)
    pairs = bivector_pairs(5)
    a, b = pairs.index((1, 2)), pairs.index((2, 3))
    c[a, b] = c[b, a] = 0.0
    target = [i for i in range(10) if i not in (a, b)]
    swap = np.r_[10:20, 0:10]
    degree = np.array([2 ** (i - 1) ^ 2 ** (j - 1) for i, j in pairs])
    problem = CompletionProblem(la.direct_sum(LieAlgebra(c), LieAlgebra(c)),
                                (a, b, a + 10, b + 10), target + [t + 10 for t in target],
                                [(swap, np.ones(20))], np.concatenate((degree, degree << 5)))
    seen = _record_solvers(monkeypatch)
    got = complete_bracket(problem)
    calls = {name: len(mats) for name, mats in seen.items()}
    want = complete_bracket(dataclasses.replace(problem, symmetries=()))
    assert calls["eigh"] == len(seen["eigh"]) - calls["eigh"] >= 2
    assert calls["eigvalsh"] < len(seen["eigvalsh"]) - calls["eigvalsh"]
    assert np.array_equal(got.particular, want.particular) and got.particular.any()
    assert np.array_equal(got.homogeneous, want.homogeneous)
    assert got.residual == want.residual
    sv = want.singular_values
    assert np.abs(got.singular_values - sv).max() <= 2e-15 * sv[0]


def test_a_symmetry_that_is_no_automorphism_keeping_s_and_t_is_rejected():
    problem = clifford_completion_problem(7, 1.0, MU)
    perm, sign = (np.array(a) for a in problem.symmetries[0])
    flipped = sign.copy()
    flipped[problem.target[-1]] *= -1  # e_7 alone changes sign
    with pytest.raises(ValueError, match="not an automorphism"):
        dataclasses.replace(problem, symmetries=((perm, flipped),))
    swap = np.arange(problem.skeleton.dim)
    s, t = problem.unknown_indices[0], problem.target[0]
    swap[[s, t]] = t, s  # moves b_s of S into T
    with pytest.raises(ValueError, match="onto themselves"):
        dataclasses.replace(problem, symmetries=((swap, np.ones_like(swap)),))
    with pytest.raises(ValueError, match="permutation"):
        dataclasses.replace(problem, symmetries=((np.zeros_like(perm), sign),))


def test_a_problem_leaves_the_callers_symmetry_arrays_writable():
    problem = clifford_completion_problem(6, 1.0, MU)
    perm, sign = (np.array(a) for a in problem.symmetries[0])
    (kept_perm, kept_sign), = dataclasses.replace(problem, symmetries=[(perm, sign)]).symmetries
    assert perm.flags.writeable and sign.flags.writeable
    assert not (kept_perm.flags.writeable or kept_sign.flags.writeable)
    assert not (np.shares_memory(perm, kept_perm) or np.shares_memory(sign, kept_sign))


def test_a_grading_that_a_constant_breaks_is_rejected():
    problem = clifford_completion_problem(7, 1.0, MU)
    grading = np.array(problem.grading)
    grading[problem.unknown_indices[0]] ^= 1  # w_0 alone changes degree
    with pytest.raises(ValueError, match=r"the constant c\[\d+, \d+, \d+\] breaks the grading"):
        dataclasses.replace(problem, grading=grading)
    # so(3) has no grading but the trivial one: [L_12, L_23] = L_13 breaks deg L_13 = 1
    with pytest.raises(ValueError, match="breaks the grading"):
        CompletionProblem(so_algebra(3), (), (), grading=[0, 0, 1])
    with pytest.raises(ValueError, match="one degree per basis index"):
        dataclasses.replace(problem, grading=grading[:-1])
    assert not CompletionProblem(so_algebra(3), (), ()).grading.any()


def test_a_problem_leaves_the_callers_grading_array_writable():
    problem = clifford_completion_problem(6, 1.0, MU)
    grading = np.array(problem.grading)
    kept = dataclasses.replace(problem, grading=grading).grading
    assert grading.flags.writeable and not kept.flags.writeable
    assert not np.shares_memory(grading, kept) and np.array_equal(grading, kept)
    assert not problem.grading.flags.writeable


def test_a_graded_skeleton_with_an_inf_still_fails_closed():
    # a NaN is not exactly antisymmetric, so no LieAlgebra holds one: take an inf
    problem = clifford_completion_problem(7, 1.0, MU)
    c = np.array(problem.skeleton.c)
    i, j, k = np.argwhere(c > 0)[0]
    c[i, j, k], c[j, i, k] = np.inf, -np.inf  # keeps the grading, breaks the symmetries
    with np.errstate(invalid="ignore"):
        inf_problem = dataclasses.replace(problem, skeleton=LieAlgebra(c), symmetries=())
        assert inf_problem.grading.any()
        with pytest.raises(ValidationError):
            complete_bracket(inf_problem)


@pytest.mark.parametrize("case", ["n6", "n7", "random-sparse"])
def test_assembling_some_columns_keeps_the_full_system_on_them(case):
    problem = ASSEMBLY_CASES[case]()
    nunk = len(problem.pairs) * len(problem.target)
    row, col, val, rhs, worst = completion._assemble(problem)
    degree = completion._class_orbits(problem)[0]
    for columns in (degree == degree[-1], degree != degree[0],
                    np.random.default_rng(5).random(nunk) < 0.3):
        got = completion._assemble(problem, columns)
        keep = columns[col]
        kept_rows, new_row = np.unique(row[keep], return_inverse=True)
        assert np.array_equal(got[0], new_row) and np.array_equal(got[1], col[keep])
        assert np.array_equal(got[2], val[keep]) and np.array_equal(got[3], rhs[kept_rows])
        assert got[4] == worst


@pytest.mark.parametrize("n", [6, 7])
def test_the_grading_leaves_the_solution_as_it_is_without_it(n, request):
    problem = clifford_completion_problem(n, 1.0, MU)
    assert problem.grading.any()
    got = request.getfixturevalue("n7") if n == 7 else complete_bracket(problem)
    want = complete_bracket(dataclasses.replace(problem, grading=None))
    assert np.array_equal(got.particular, want.particular)
    assert np.array_equal(got.homogeneous, want.homogeneous)
    assert got.residual == want.residual and got.empty == want.empty


@pytest.mark.parametrize("n,classes,entries", [(6, 3, 11856), (7, 2, 13728)])
def test_a_graded_solve_assembles_one_class_per_orbit(n, classes, entries, monkeypatch):
    problem = clifford_completion_problem(n, 1.0, MU)
    assemble, built = completion._assemble, []

    def recording(*args):
        built.append((args[1], assemble(*args)))
        return built[-1][1]

    monkeypatch.setattr(completion, "_assemble", recording)
    complete_bracket(problem)
    ((columns, (row, col, *_)),) = built
    degree, cls, orbit = completion._class_orbits(problem)
    assert np.array_equal(columns, orbit == cls)
    assert np.unique(degree[columns]).size == classes and np.unique(degree).size == 8
    assert row.size == entries


def test_a_carried_class_that_reads_its_vectors_is_solved_on_its_own(monkeypatch):
    # over a zero skeleton every unknown is a block of one column and a zero singular
    # value: the class that the symmetry carries onto the first one still forms its V
    swap = np.array([0, 1, 3, 2, 4])
    problem = CompletionProblem(abelian(5), (0, 1), [2, 3, 4], [(swap, np.ones(5))],
                                [0, 0, 1, 2, 3])
    degree, cls, orbit = completion._class_orbits(problem)
    assert np.array_equal(orbit, [0, 0, 2])
    seen = _record_solvers(monkeypatch)
    got = complete_bracket(problem)
    assert len(seen["eigvalsh"]) == len(seen["eigh"]) == 3
    want = complete_bracket(dataclasses.replace(problem, symmetries=()))
    assert np.array_equal(got.homogeneous, want.homogeneous)
    assert np.array_equal(got.homogeneous.reshape(3, 3), np.eye(3))
    assert np.array_equal(got.singular_values, want.singular_values)


def test_a_class_that_a_symmetry_splits_is_carried_onto_no_other():
    # swapping b_2 and b_4 sends the unknowns at b_2 and b_3, both of degree 1, to
    # degrees 2 and 1, and those at b_4 and b_5, both of degree 2, to degrees 1 and 2
    swap = np.array([0, 1, 4, 3, 2, 5])
    problem = CompletionProblem(abelian(6), (0, 1), [2, 3, 4, 5], [(swap, np.ones(6))],
                                [0, 0, 1, 1, 2, 2])
    degree, cls, orbit = completion._class_orbits(problem)
    assert np.array_equal(degree, [1, 1, 2, 2]) and np.array_equal(cls, [0, 0, 2, 2])
    assert np.array_equal(orbit, cls)


def test_a_nonzero_right_hand_side_takes_eigh_on_its_blocks_only(monkeypatch):
    # so(5) with [L_12, L_23] removed: eight one-column blocks, one with A^T b != 0
    c = np.array(so_algebra(5).c)
    pairs = bivector_pairs(5)
    a, b = pairs.index((1, 2)), pairs.index((2, 3))
    skeleton = c.copy()
    skeleton[a, b] = skeleton[b, a] = 0.0
    target = [i for i in range(10) if i not in (a, b)]
    problem = CompletionProblem(LieAlgebra(skeleton), (a, b), target)
    row, col, val, rhs, _ = completion._assemble(problem)
    nunk = 8
    label = completion._components(row, col, rhs.size, nunk)
    atb = np.bincount(col, weights=val * rhs[row], minlength=nunk)
    dense = np.zeros((rhs.size, nunk))
    dense[row, col] = val
    grams = [dense[:, label == k].T @ dense[:, label == k]
             for k in np.unique(label) if atb[label == k].any()]
    seen = _record_solvers(monkeypatch)
    sol = complete_bracket(problem)
    assert len(seen["eigvalsh"]) == np.unique(label).size == 8
    assert len(seen["eigh"]) == len(grams) == 1
    for got, want in zip(seen["eigh"], grams):
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)
    particular, null_rows, sv, empty = _dense_reference(problem)
    assert np.abs(sol.singular_values - sv).max() <= 1e-12 * sv[0]
    assert np.abs(sol.particular - particular).max() <= 1e-12
    assert sol.nullity == null_rows.shape[0] == 0
    assert not sol.empty and not empty


@pytest.mark.parametrize("runs", [
    [3, 1, 12, 5, 2, 7, 1, 4, 9, 6, 11, 8, 10],
    [1],
    [],
])
def test_run_pairs_match_the_self_join(runs):
    # the Gram sums stay bitwise only if its pairs come in the join's order
    rng = np.random.default_rng(len(runs))
    values = np.sort(rng.choice(1000, len(runs), replace=False))
    r = np.repeat(values, runs)
    li, ri = completion._run_pairs(r)
    want_li, want_ri = next(la._join(r, r))
    upper = want_li <= want_ri
    assert li.dtype.kind == ri.dtype.kind == "i"
    assert np.array_equal(li, want_li[upper]) and np.array_equal(ri, want_ri[upper])


def _full_pair_grams(problem):
    """Every block's Gram, summed over all pairs of entries in one row, in block order."""
    row, col, val, rhs, _ = completion._assemble(problem)
    label = completion._components(row, col, rhs.size, len(problem.pairs) * len(problem.target))
    grams = []
    for k in np.unique(label):  # blocks in the order of their smallest column
        cols = np.flatnonzero(label == k)
        e = np.flatnonzero(label[col] == k)  # the block's entries, sorted by row, then column
        r, c, v, n = row[e], np.searchsorted(cols, col[e]), val[e], cols.size
        li, ri = next(la._join(r, r))
        grams.append(np.bincount(c[li] * n + c[ri], weights=v[li] * v[ri],
                                 minlength=n * n).reshape(n, n))
    return grams


@pytest.mark.parametrize("case", ["n7", *PARITY_CASES])
def test_every_gram_from_half_its_pairs_is_the_full_pair_sum(case, monkeypatch):
    problem = ASSEMBLY_CASES[case]()
    seen = _record_solvers(monkeypatch)
    complete_bracket(problem)
    want = _full_pair_grams(problem)
    # a block whose spectrum a symmetry carries over forms no Gram; every other
    # block forms its own, in block order
    formed = iter(want)
    assert all(any(np.array_equal(got, g) for g in formed) for got in seen["eigvalsh"])
    assert len(seen["eigvalsh"]) == {"n6": 3, "n7": 2}.get(case, len(want))


def _near_singular_block(delta):
    """Unknown pair (2, 3) with target b_0, b_1, whose only rows are ``[[1, 1], [1, 1 + delta]]``.

    ``[b_0, b_4] = b_0 + b_1`` and ``[b_1, b_4] = b_0 + (1 + delta) b_1`` enter the
    Jacobi rows of the triple (2, 3, 4) through ``[[b_2, b_3], b_4]``.
    """
    c = np.zeros((5, 5, 5))
    c[0, 4, :2] = 1.0, 1.0
    c[1, 4, :2] = 1.0, 1.0 + delta
    return CompletionProblem(LieAlgebra(antisymmetrized(c)), (2, 3), [0, 1])


def test_a_block_too_ill_conditioned_for_its_gram_fails_closed():
    delta = 1e-6
    sv = np.linalg.svd([[1.0, 1.0], [1.0, 1.0 + delta]], compute_uv=False)
    ratio = sv[1] / sv[0]
    assert RANK_RTOL < ratio < completion.GRAM_RTOL
    with pytest.raises(ValidationError) as err:
        complete_bracket(_near_singular_block(delta))
    assert abs(err.value.residual - ratio) <= 1e-6 * ratio
    assert f"{err.value.residual:.3e} of the largest" in str(err.value)
    # within the gate the same block solves, and matches the dense reference
    sol = complete_bracket(_near_singular_block(0.5))
    particular, null_rows, sv, empty = _dense_reference(sol.problem)
    assert np.abs(sol.singular_values - sv).max() <= 1e-12 * sv[0]
    assert sol.nullity == null_rows.shape[0] == 0


def test_n7_solve_stays_below_twelve_mib():
    import tracemalloc

    problem = clifford_completion_problem(7, 1.0, MU)
    tracemalloc.start()
    try:
        complete_bracket(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


@pytest.mark.parametrize("n", [2, 3, 6, 7])
def test_rank_decisions_sit_far_from_the_cutoff(n, request):
    sol = (request.getfixturevalue("n7") if n == 7
           else complete_bracket(clifford_completion_problem(n, 1.0, MU)))
    sv = sol.singular_values
    cutoff = RANK_RTOL * sv[0]
    assert sv[sv > cutoff].min() >= 1e2 * cutoff
    assert sv[sv <= cutoff].max(initial=0.0) <= 1e-2 * cutoff


@pytest.mark.parametrize("n", [2, 3, 7])
def test_null_directions_are_refined_against_the_rows(n, request):
    # straight from the Gram, |A v| reached 2.9 and 4.8 eps * sigma_max at n = 3 and 7
    sol = (request.getfixturevalue("n7") if n == 7
           else complete_bracket(clifford_completion_problem(n, 1.0, MU)))
    sv = sol.singular_values
    assert sol.nullity == 1
    assert sv[-1] <= np.finfo(float).eps * sv[0]


def _gathered_rhs(c, keys):
    """The negated skeleton jacobiator at row keys, gathered from dense rows of ``c``.

    The reference for the kernel lookup: row keys encode
    ``((i * d + j) * d + k) * d + l`` for a sorted triple i < j < k.
    """
    d = c.shape[0]
    ct = np.moveaxis(c, 0, 2)  # ct[z, l, m] = c[m, z, l]
    l, rest = keys % d, keys // d
    k, rest = rest % d, rest // d
    j, i = rest % d, rest // d
    return -((c[i, j] * ct[k, l]).sum(axis=1) + (c[j, k] * ct[i, l]).sum(axis=1)
             + (c[k, i] * ct[j, l]).sum(axis=1))


ASSEMBLY_CASES = {**PARITY_CASES, "n7": lambda: clifford_completion_problem(7, 1.0, MU)}


@pytest.mark.parametrize("case,joins", [
    ("n2", False), ("n3", False), ("violated-skeleton", False), ("n6", True), ("n7", True),
    ("random-dense", False), ("random-sparse", True),
])
def test_rhs_from_the_jacobiator_kernels_matches_the_gather(case, joins, monkeypatch):
    problem = ASSEMBLY_CASES[case]()
    c = problem.skeleton.c
    # the kernel the worst-triple search picks; the right-hand side is read from the join
    assert la._joins(c) == joins
    keys = []
    lookup = completion._jacobiator_at
    monkeypatch.setattr(completion, "_jacobiator_at",
                        lambda join, k: keys.append(k) or lookup(join, k))
    rhs, worst = completion._assemble(problem)[3:]
    ref = _gathered_rhs(c, keys[0])
    if joins:  # the worst-triple search runs this join too: the same bits
        assert worst == la.worst_jacobi_triple(problem.skeleton)
    if case.startswith("random"):  # the kernels sum in another order than the gather
        assert np.count_nonzero(ref) > 0
        assert np.abs(rhs - ref).max() <= 1e-15 * np.abs(c).max() ** 2
    else:  # every chain of a row that touches an unknown passes through the unknown block
        assert np.array_equal(rhs, ref)


@pytest.mark.parametrize("n", [2, 3, 6, 7])
def test_each_solve_joins_the_skeleton_once(n, monkeypatch, jacobi_kernel_calls):
    # the particular solution is exactly zero, so the final residual is the
    # skeleton's, reduced from the join the right-hand side reads: no kernel runs
    problem = clifford_completion_problem(n, 1.0, MU)
    joined = []
    join = la._join_jacobiator
    monkeypatch.setattr(la, "_join_jacobiator", lambda c: joined.append(c) or join(c))
    sol = complete_bracket(problem)
    assert len(joined) == 1 and joined[0] is problem.skeleton.c
    assert not jacobi_kernel_calls
    assert not sol.particular.any()
    assert sol.residual == la.worst_jacobi_triple(problem.skeleton)[1]


def test_a_seeded_memo_keeps_the_nan_rule(jacobi_kernel_calls):
    # a lone inf has no join partner: the join alone would read no violation,
    # so the skeleton residual the assembly reduces from it must still be NaN
    c = np.array(PARITY_CASES["random-sparse"]().skeleton.c)
    c[5, 6, :], c[6, 5, :] = 0.0, 0.0
    c[5, 6, 7], c[6, 5, 7] = np.inf, -np.inf
    problem = CompletionProblem(LieAlgebra(c), (21, 22, 23), range(5))
    assert la._joins(problem.skeleton.c)
    with np.errstate(invalid="ignore"):
        triple, res = completion._assemble(problem)[4]
        assert np.isnan(res) and triple == (0, 0, 0)
        assert not jacobi_kernel_calls
        assert np.isnan(jacobi_residual(problem.skeleton))
        # the solve checks the skeleton constants, the inf among them
        with pytest.raises(ValidationError):
            complete_bracket(problem)


@pytest.mark.parametrize("n,joins", [(5, False), (8, True)])
def test_so_n_with_one_bracket_removed_completes_back_to_it(n, joins):
    # an inhomogeneous problem: the rows of [L_12, L_23] also carry fixed chains
    c = np.array(so_algebra(n).c)
    pairs = bivector_pairs(n)
    a, b = pairs.index((1, 2)), pairs.index((2, 3))
    skeleton = c.copy()
    skeleton[a, b] = skeleton[b, a] = 0.0
    assert la._joins(skeleton) == joins
    target = [i for i in range(c.shape[0]) if i not in (a, b)]
    problem = CompletionProblem(LieAlgebra(skeleton), (a, b), target)
    assert np.count_nonzero(completion._assemble(problem)[3]) > 0
    sol = complete_bracket(problem)
    assert not sol.empty and sol.nullity == 0
    assert np.abs(sol.particular - c[a, b][target]).max() <= 1e-12


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_assembled_triplets_are_canonical(case):
    # the Gram join's local_row numbers a block's rows by runs of equal row
    problem = ASSEMBLY_CASES[case]()
    nunk = len(problem.pairs) * len(problem.target)
    row, col, val, rhs, _ = completion._assemble(problem)
    assert row.size == col.size == val.size
    assert np.all(np.diff(row) >= 0)
    assert np.all(np.diff(row * nunk + col) > 0)  # (row, col) strictly increasing
    assert np.all((col >= 0) & (col < nunk))
    assert np.all(val != 0.0)
    assert np.array_equal(np.unique(row), np.arange(rhs.size))  # every row has an entry


@pytest.mark.parametrize("n,rows", [(6, 11872), (7, 20608)])
def test_assembled_row_counts(n, rows):
    assert completion._assemble(clifford_completion_problem(n, 1.0, MU))[3].size == rows


def test_n7_assembly_stays_below_six_mib():
    import tracemalloc

    problem = clifford_completion_problem(7, 1.0, MU)
    tracemalloc.start()
    try:
        completion._assemble(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2 ** 20


def test_non_finite_system_entries_still_fail_closed():
    c = np.zeros((5, 5, 5))
    c[0, 2, 1], c[2, 0, 1] = np.inf, -np.inf  # enters the rows through [b_0, b_2]
    problem = CompletionProblem(LieAlgebra(c), (3, 4), [0, 1, 2])
    with np.errstate(invalid="ignore"):
        val = completion._assemble(problem)[2]
        assert np.isinf(val).any()
        with pytest.raises(ValidationError):
            complete_bracket(problem)
