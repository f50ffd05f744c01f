import os
import subprocess
import sys

import numpy as np
import pytest

import liecoh
from liecoh import builders as bld
from liecoh.algebra import LieAlgebra, Subspace, direct_sum
from liecoh.reps import (
    GENERIC_SAMPLES,
    Representation,
    cohomogeneity,
    fixed_subspace,
    isotropy_subalgebra,
    kernel_ideal,
    orbit_dimension,
    rep_direct_sum,
    restrict,
    splitting_criterion,
    trivial_representation,
)
from oracles import hom_space_dimension, tensor_product


@pytest.fixture(scope="module")
def so3():
    return bld.so_standard(3)


@pytest.fixture(scope="module")
def so3_pair(so3):
    """so(3) + so(3) acting factorwise on R^3 + R^3."""
    alg = direct_sum(so3.algebra, so3.algebra)
    mats = np.zeros((6, 6, 6))
    mats[:3, :3, :3] = so3.matrices
    mats[3:, 3:, 3:] = so3.matrices
    return Representation(alg, mats)


def clifford_row(n):
    """The Clifford isotropy with one module copy, and its blocks m1 = R^n and m2."""
    rep = bld.clifford_isotropy(n, 1)
    return rep, (range(n), range(n, rep.space_dim))


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# orbits and cohomogeneity
# ---------------------------------------------------------------------------


def test_orbit_dimension_sphere(so3):
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert orbit_dimension(so3, unit(rng.standard_normal(3))) == 2


def test_orbit_dimension_trivial():
    rep = trivial_representation(bld.so_standard(3).algebra, 4)
    assert orbit_dimension(rep, np.array([1.0, 0, 0, 0])) == 0


def test_orbit_dimension_spin7_spinor():
    rep = bld.spin7_eight()
    rng = np.random.default_rng(1)
    assert orbit_dimension(rep, unit(rng.standard_normal(8))) == 7


def test_orbit_dimension_rejects_zero(so3):
    with pytest.raises(ValueError):
        orbit_dimension(so3, np.zeros(3))


def test_cohomogeneity_examples():
    assert cohomogeneity(bld.so_standard(5)) == 1
    assert cohomogeneity(clifford_row(7)[0]) == 2
    assert cohomogeneity(clifford_row(2)[0]) == 2


def test_cohomogeneity_of_a_zero_dimensional_space_is_zero():
    # random_unit_vector(0, rng) used to loop forever, and cohomogeneity with
    # it, so this runs in a child process that a timeout can stop
    script = (
        "import numpy as np\n"
        "from liecoh import builders as bld, linalg, reps\n"
        "print(reps.cohomogeneity(reps.trivial_representation(bld.so_standard(3).algebra, 0)))\n"
        "try:\n"
        "    linalg.random_unit_vector(0, np.random.default_rng(0))\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    src = os.path.dirname(os.path.dirname(liecoh.__file__))
    out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["0", "ValueError"], out.stderr


class _CountingGenerator(np.random.Generator):
    """A generator that counts its ``standard_normal`` calls."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.calls = 0

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        self.calls += 1
        return super().standard_normal(size, dtype, out)


def test_cohomogeneity_draws_its_samples_in_one_call(monkeypatch):
    rep = bld.sp_standard(2)
    rng = _CountingGenerator(0x5EED)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: rng)
    assert cohomogeneity(rep) == 1
    assert rng.calls == 1
    # the one draw leaves the stream where GENERIC_SAMPLES single draws leave it
    singles = np.random.Generator(np.random.PCG64(0x5EED))
    for _ in range(GENERIC_SAMPLES):
        singles.standard_normal(rep.space_dim)
    assert rng.bit_generator.state == singles.bit_generator.state


def test_cohomogeneity_deterministic_and_generic():
    rep = bld.sp_standard(2)
    vals = {cohomogeneity(rep, seed=7) for _ in range(3)}
    assert vals == {1}
    # every seeded generic sample attains the principal orbit dimension
    rng = np.random.default_rng(0x5EED)
    dims = {orbit_dimension(rep, unit(rng.standard_normal(8))) for _ in range(20)}
    assert dims == {7}


def test_cohomogeneity_invariant_under_orthogonal_conjugation():
    rep = bld.su_standard(3)
    rng = np.random.default_rng(23)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    conj = Representation(rep.algebra, np.einsum("ij,ajk,lk->ail", q, rep.matrices, q))
    assert cohomogeneity(conj) == cohomogeneity(rep) == 1


def test_orbit_plus_isotropy_is_algebra_dim():
    for rep in (bld.so_standard(4), bld.sp_sp1(1), bld.spin9_sixteen()):
        rng = np.random.default_rng(3)
        for _ in range(5):
            v = unit(rng.standard_normal(rep.space_dim))
            assert orbit_dimension(rep, v) + isotropy_subalgebra(rep, v).dim \
                == rep.algebra.dim


# ---------------------------------------------------------------------------
# isotropy, fixed spaces, kernels
# ---------------------------------------------------------------------------


def test_isotropy_so3_axis(so3):
    sub = isotropy_subalgebra(so3, np.array([1.0, 0.0, 0.0]))
    assert sub.dim == 1


def test_isotropy_spin7_is_fourteen_dimensional():
    rep = bld.spin7_eight()
    rng = np.random.default_rng(5)
    assert isotropy_subalgebra(rep, unit(rng.standard_normal(8))).dim == 14


def test_isotropy_trivial_rep_full():
    rep = trivial_representation(bld.so_standard(3).algebra, 2)
    assert isotropy_subalgebra(rep, np.array([1.0, 0.0])).dim == 3


def test_fixed_subspace_zero_subalgebra(so3):
    fixed = fixed_subspace(so3, Subspace(np.zeros((3, 0))))
    assert fixed.dim == 3


def test_fixed_subspace_rotation_axis(so3):
    # the span of the generator rotating the (2,3)-plane fixes the first axis
    sub = isotropy_subalgebra(so3, np.array([1.0, 0.0, 0.0]))
    fixed = fixed_subspace(so3, sub)
    assert fixed.equals(Subspace.coordinate(3, [0]))


def test_fixed_subspace_product_control(so3_pair):
    ker = kernel_ideal(restrict(so3_pair, range(3)))
    assert ker.dim == 3
    fixed = fixed_subspace(so3_pair, ker)
    assert fixed.equals(Subspace.coordinate(6, range(3)))


def test_kernel_ideal_effective(so3):
    assert kernel_ideal(so3).dim == 0


def test_kernel_ideal_factor(so3_pair):
    first_only = restrict(so3_pair, range(3))
    ker = kernel_ideal(first_only)
    assert ker.dim == 3
    assert ker.equals(Subspace.coordinate(6, range(3, 6)))


def test_kernel_ideal_circle_weight_action():
    # the symplectic factor dies on the weighted plane; the circle survives
    rep, (m1, _) = clifford_row(2)
    ker = kernel_ideal(restrict(rep, m1))
    assert ker.dim == 3


# ---------------------------------------------------------------------------
# hom spaces and tensor products
# ---------------------------------------------------------------------------


def test_schur_real_type(so3):
    assert hom_space_dimension(so3, so3) == 1


def test_schur_quaternionic_type():
    rep = bld.sp_standard(1)
    assert hom_space_dimension(rep, rep) == 4


def test_schur_complex_type():
    rep = bld.su_standard(3)
    assert hom_space_dimension(rep, rep) == 2


def test_real_complex_quaternion_trichotomy():
    assert hom_space_dimension(bld.so_standard(5), bld.so_standard(5)) == 1
    s7 = bld.spin7_eight()
    assert hom_space_dimension(s7, s7) == 1
    sp2 = bld.sp_standard(2)
    assert hom_space_dimension(sp2, sp2) == 4


def test_hom_requires_same_algebra(so3):
    with pytest.raises(ValueError):
        hom_space_dimension(so3, bld.so_standard(4))


def test_tensor_trivial_factor(so3):
    triv = trivial_representation(so3.algebra, 1)
    t = tensor_product(triv, so3)
    assert hom_space_dimension(t, so3) == 1
    assert t.homomorphism_residual() < 1e-12


def test_tensor_cross_product_unique(so3):
    t = tensor_product(so3, so3)
    assert hom_space_dimension(t, so3) == 1


def test_tensor_spin7_unique_module():
    rep, (b1, b2) = clifford_row(7)
    m1, m2 = restrict(rep, b1), restrict(rep, b2)
    assert hom_space_dimension(tensor_product(m1, m2), m2) == 1


def test_tensor_weighted_circle_obstruction():
    # doubling the circle weight on the plane empties the intertwiner space
    rep, (b1, b2) = clifford_row(2)
    m1, m2 = restrict(rep, b1), restrict(rep, b2)
    doubled = Representation(rep.algebra, 2.0 * m1.matrices)
    assert hom_space_dimension(tensor_product(doubled, m2), m2) == 0
    assert hom_space_dimension(tensor_product(m1, m2), m2) == 2


# ---------------------------------------------------------------------------
# splitting criterion
# ---------------------------------------------------------------------------


def test_splitting_product_control(so3_pair):
    assert splitting_criterion(so3_pair, range(3), range(3, 6)) is True


def test_splitting_fails_on_effective_block():
    rep, (m1, m2) = clifford_row(2)
    assert splitting_criterion(rep, m1, m2) is False


def test_splitting_rejects_trivial_decomposition(so3):
    with pytest.raises(ValueError):
        splitting_criterion(so3, range(3), [])


def test_splitting_rejects_non_invariant_blocks(so3):
    with pytest.raises(ValueError):
        splitting_criterion(so3, [0], [1, 2])


def test_rep_direct_sum_blocks(so3):
    # diagonal action on two copies: invariants are both radii and the angle
    two = rep_direct_sum(so3, so3)
    assert two.space_dim == 6
    assert cohomogeneity(two) == 3


# ---------------------------------------------------------------------------
# catalog-wide genericity
# ---------------------------------------------------------------------------


def test_orbit_dimension_constant_over_catalog_samples():
    """Principal-orbit genericity: 20 seeded samples, one orbit dimension."""
    from liecoh.spaces import catalog_ids, catalog_entry

    rng = np.random.default_rng(0x5EED)
    for sid in catalog_ids():
        rep = catalog_entry(sid).rep
        dims = {orbit_dimension(rep, unit(rng.standard_normal(rep.space_dim)))
                for _ in range(20)}
        assert len(dims) == 1, sid


def test_representation_leaves_the_callers_arrays_writable(so3):
    mats = np.array(so3.matrices)
    rep = Representation(so3.algebra, mats)
    mats[0, 0, 0] = 1.0
    assert rep.matrices[0, 0, 0] == 0.0
    assert not rep.matrices.flags.writeable


def test_kernel_of_a_zero_algebra_is_zero():
    rep = trivial_representation(LieAlgebra(np.zeros((0, 0, 0))), 2)
    assert kernel_ideal(rep).dim == 0
