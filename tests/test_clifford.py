import numpy as np
import pytest

from liecoh import clifford as cl
from liecoh.algebra import jacobi_residual, killing_form, signature
from liecoh.builders import clifford_isotropy
from liecoh.clifford import spin_algebra, spin_module, spin_plus_one
from oracles import clifford_product, element_matrix, hom_space_dimension

MODULE_DIMS = {2: 4, 3: 4, 4: 8, 5: 8, 6: 8, 7: 8, 8: 16, 9: 32}


@pytest.mark.parametrize("n", range(2, 10))
def test_so_structure_tensor_is_the_bivector_bracket_formula(n):
    """[L_ij, L_kl] = -d_jk L_il + d_ik L_jl + d_jl L_ik - d_il L_jk, with L_ji = -L_ij."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    want = np.zeros((len(pairs),) * 3)

    def add(a, b, p, q, coeff):
        if p != q:
            want[a, b, pairs.index((min(p, q), max(p, q)))] += coeff if p < q else -coeff

    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            add(a, b, i, l, -float(j == k))
            add(a, b, j, l, float(i == k))
            add(a, b, i, k, float(j == l))
            add(a, b, j, k, -float(i == l))
    assert np.array_equal(cl.so_algebra(n).c, want)


@pytest.mark.parametrize("n", sorted(MODULE_DIMS))
def test_gamma_systems_exact(n):
    m = spin_module(n)
    assert m.module_dim == MODULE_DIMS[n]
    eye = np.eye(m.module_dim)
    for i in range(n):
        gi = m.gammas[i]
        assert np.array_equal(gi, -gi.T)
        assert np.array_equal(gi.T @ gi, eye)
        assert set(np.unique(gi)) <= {-1.0, 0.0, 1.0}
        for j in range(i, n):
            anti = gi @ m.gammas[j] + m.gammas[j] @ gi
            target = -2.0 * eye if i == j else 0.0 * eye
            assert np.array_equal(anti, target)


def test_spin_module_range():
    with pytest.raises(ValueError):
        spin_module(1)
    with pytest.raises(ValueError):
        spin_module(10)


# ---------------------------------------------------------------------------
# blade arithmetic: the reference model of ``oracles``
# ---------------------------------------------------------------------------


def test_generator_squares_to_minus_one():
    e1 = {(1,): 1.0}
    assert clifford_product(e1, e1) == {(): -1.0}


def test_generators_anticommute():
    e1, e2 = {(1,): 1.0}, {(2,): 1.0}
    assert clifford_product(e1, e2) == {(1, 2): 1.0}
    assert clifford_product(e2, e1) == {(1, 2): -1.0}


def test_bivector_contraction_sign():
    # (e1 e2)(e2 e3) = -e1 e3: one contraction e2 e2 = -1, no transpositions
    assert clifford_product({(1, 2): 1.0}, {(2, 3): 1.0}) == {(1, 3): -1.0}


def random_element(n, rng, max_blades=4):
    blades = {}
    for _ in range(rng.integers(1, max_blades + 1)):
        size = rng.integers(0, n + 1)
        idx = tuple(sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist()))
        blades[idx] = float(rng.integers(-3, 4))
    return blades


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_associativity_fuzz(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(250):
        a, b, c = (random_element(n, rng) for _ in range(3))
        left = clifford_product(clifford_product(a, b), c)
        right = clifford_product(a, clifford_product(b, c))
        assert left == right  # integer coefficients: exact comparison


def test_blade_product_matches_faithful_matrix_model():
    """Cross-check signs against the gamma realization where it is faithful."""
    m = spin_module(4)  # simple matrix algebra: a faithful check
    rng = np.random.default_rng(9)
    for _ in range(200):
        a, b = random_element(4, rng), random_element(4, rng)
        lhs = element_matrix(m, a) @ element_matrix(m, b)
        assert np.array_equal(lhs, element_matrix(m, clifford_product(a, b)))


def test_module_homomorphism_on_bivectors():
    m = spin_module(5)
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert np.array_equal(element_matrix(m, {(i, j): 1.0}),
                                  m.gammas[i - 1] @ m.gammas[j - 1])


# ---------------------------------------------------------------------------
# spin algebras
# ---------------------------------------------------------------------------


def test_spin_algebra_n2_abelian():
    emb = spin_algebra(spin_module(2))
    assert emb.algebra.dim == 1
    assert np.all(emb.algebra.c == 0)


def test_spin_algebra_n3_negative_definite():
    emb = spin_algebra(spin_module(3))
    assert emb.algebra.dim == 3
    assert signature(killing_form(emb.algebra)) == (0, 3, 0)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_spin_algebra_dimension_and_jacobi(n):
    emb = spin_algebra(spin_module(n))
    assert emb.algebra.dim == n * (n - 1) // 2
    assert jacobi_residual(emb.algebra) < 1e-12
    if n >= 3:
        assert signature(killing_form(emb.algebra)) == (0, emb.algebra.dim, 0)


def test_spin_algebra_matrices_are_a_representation():
    emb = spin_algebra(spin_module(7))
    comm = np.einsum("aij,bjk->abik", emb.matrices, emb.matrices)
    comm = comm - comm.transpose(1, 0, 2, 3)
    expect = np.einsum("abm,mik->abik", emb.algebra.c, emb.matrices)
    assert np.array_equal(comm, expect)


def test_spin7_acts_irreducibly():
    rep = spin_algebra(spin_module(7))
    assert hom_space_dimension(rep, rep) == 1


def test_spin_plus_one_is_rotation_algebra():
    rep = spin_plus_one(spin_module(8))
    alg, mats = rep.algebra, rep.matrices
    assert alg.dim == 36
    assert signature(killing_form(alg)) == (0, 36, 0)
    comm = np.einsum("aij,bjk->abik", mats, mats)
    comm = comm - comm.transpose(1, 0, 2, 3)
    expect = np.einsum("abm,mik->abik", alg.c, mats)
    assert np.array_equal(comm, expect)


# ---------------------------------------------------------------------------
# commutant structures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_quaternion_commutant_units(n):
    # the sp(1) of clifford_isotropy(n, 1) acts on the module by the units i, j, k
    rep = clifford_isotropy(n, 1)
    units = rep.matrices[n * (n - 1) // 2:, n:, n:]
    assert units.shape == (3, 4, 4)
    for u in units:
        for m in (2, 3):
            for g in spin_module(m).gammas:
                assert np.array_equal(u @ g, g @ u)
        assert np.array_equal(u @ u, -np.eye(4))
        assert np.array_equal(u, -u.T)
    i, j, k = units
    assert np.array_equal(i @ j, k) and np.array_equal(j @ k, i) and np.array_equal(k @ i, j)


def test_clifford_module_leaves_the_callers_gammas_writable():
    gammas = np.array(spin_module(3).gammas)
    module = cl.CliffordModule(3, gammas)
    gammas[0, 0, 0] = 1.0
    assert module.gammas[0, 0, 0] == 0.0 and not module.gammas.flags.writeable


# ---------------------------------------------------------------------------
# monomial symmetries of the gamma systems
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n,order", [(6, 24), (7, 168)])
def test_gamma_lifts_are_exact_and_generate_every_liftable_permutation(n, order):
    g = spin_module(n).gammas
    group = frontier = {tuple(range(n))}
    gens = []
    for pi, eps, q in cl.gamma_lifts(n):
        assert not (pi.flags.writeable or eps.flags.writeable or q.flags.writeable)
        assert np.array_equal(np.abs(q).sum(axis=0), np.ones(8))  # a signed permutation
        assert np.array_equal(np.abs(q).sum(axis=1), np.ones(8))
        assert np.array_equal(np.abs(eps), np.ones(n))
        assert np.array_equal(q @ g @ q.T, eps[:, None, None] * g[pi])
        gens.append(tuple(pi))
    while frontier:  # the permutations the lifts generate: GL(3, 2), or a_7's stabilizer in it
        frontier = {tuple(s[i] for i in p) for p in frontier for s in gens} - group
        group |= frontier
    assert len(group) == order
    assert {p[0] for p in group} == set(range(n))  # transitive on the gammas


@pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
def test_gamma_lifts_only_for_n_6_and_7(n):
    with pytest.raises(ValueError):
        cl.gamma_lifts(n)


@pytest.mark.parametrize("n", sorted(MODULE_DIMS))
def test_every_gamma_moves_the_bits_of_its_shift(n):
    # Gamma_i w_x = +-w_{x xor a_i} for every x, not only the w_0 that a_i is read off
    m = spin_module(n)
    x = np.arange(m.module_dim)
    for g, a in zip(m.gammas, m.shifts):
        assert np.array_equal(np.abs(g), np.eye(m.module_dim)[x ^ a].T)
    assert np.unique(m.shifts).size == n
