"""The check kernels against their reference forms.

The product evaluates the cohomogeneity samples as one stack, ranked by one
stacked SVD, and builds the Killing form, its ad-invariance, the curvature
tensor and the homomorphism residual from matrix products.  The references
here are the per-sample loop and the index-by-index ``einsum`` contractions
they replace.
"""

import numpy as np
import pytest

from liecoh import algebra as la
from liecoh import claims
from liecoh import geometry as geo
from liecoh import spaces as sps
from liecoh.algebra import abelian
from liecoh.clifford import spin_algebra, spin_module, spin_plus_one
from liecoh.linalg import RANK_RTOL, ValidationError, matrix_rank, random_unit_vector, residual_scale
from liecoh.reps import (
    GENERIC_SAMPLES,
    Representation,
    cohomogeneity,
    orbit_dimension,
    trivial_representation,
)

# ---------------------------------------------------------------------------
# reference forms
# ---------------------------------------------------------------------------


def rank_reference(a):
    s = np.linalg.svd(a, compute_uv=False)
    return 0 if s.size == 0 or s[0] == 0.0 else int(np.count_nonzero(s > RANK_RTOL * s[0]))


def orbit_dimensions_reference(rep, seed):
    """One evaluation matrix and one SVD per sample, drawn as ``cohomogeneity`` draws them."""
    rng = np.random.default_rng(seed)
    samples = [random_unit_vector(rep.space_dim, rng) for _ in range(GENERIC_SAMPLES)]
    return [rank_reference(np.einsum("aij,j->ia", rep.matrices, v)) for v in samples]


def killing_reference(c):
    b = np.einsum("ajl,blj->ab", c, c)
    return 0.5 * (b + b.T)


def killing_invariance_reference(c):
    b = killing_reference(c)
    scale = np.abs(b).max(initial=0.0)
    if scale == 0.0:
        return 0.0
    t = np.einsum("zxm,my->zxy", c, b) + np.einsum("zym,xm->zxy", c, b)
    return float(np.abs(t).max() / scale)


def curvature_reference(ms):
    space = ms.space
    kb, mb = space.isotropy.basis, np.hstack([b.basis for b in space.blocks])
    # bm[i, j] and bk[i, j]: the m- and k-parts of [m_i, m_j]; rho[a][j, i] = <[k_a, m_i], m_j>
    # optimize=True contracts one basis at a time, not all four operands at once
    bm = np.einsum("pqr,pi,qj,rl->ijl", space.algebra.c, mb, mb, mb, optimize=True)
    bk = np.einsum("pqr,pi,qj,ra->ija", space.algebra.c, mb, mb, kb, optimize=True)
    rho = np.einsum("pqr,pa,qi,rj->aji", space.algebra.c, kb, mb, mb, optimize=True)
    q = ms.metric()
    qinv = np.linalg.inv(q)
    w = np.einsum("zim,mj->ijz", bm, q) + np.einsum("zjm,mi->ijz", bm, q)
    u = 0.5 * np.einsum("ijz,zm->ijm", w, qinv.T)
    lam = 0.5 * bm + u
    t1 = np.einsum("jkm,iml->ijkl", lam, lam)
    t2 = np.einsum("ikm,jml->ijkl", lam, lam)
    t3 = np.einsum("ijm,mkl->ijkl", bm, lam)
    t4 = np.einsum("ija,alk->ijkl", bk, rho)
    return np.einsum("ijkm,ml->ijkl", t1 - t2 - t3 - t4, q)


def homomorphism_reference(rep):
    comm = np.einsum("aij,bjk->abik", rep.matrices, rep.matrices)
    comm = comm - comm.transpose(1, 0, 2, 3)
    expect = np.einsum("abm,mik->abik", rep.algebra.c, rep.matrices)
    return float(np.abs(comm - expect).max(initial=0.0) / residual_scale(rep.matrices))


# ---------------------------------------------------------------------------
# the stacked rank path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def suite_reps():
    """The 39 representations whose cohomogeneity the claim suite reads."""
    reps = [factory() for _, factory, _ in claims.SPHERE_TRANSITIVE_ROWS]
    reps += [source()[0] for source in claims.COH2_ROWS]
    reps += [sps.catalog_entry(sid).rep for sid in sps.catalog_ids()]
    assert len(reps) == 39
    return reps


def test_stacked_ranks_equal_the_per_sample_loop(suite_reps):
    for rep in suite_reps:
        for seed in range(10):
            ref = orbit_dimensions_reference(rep, seed)
            rng = np.random.default_rng(seed)
            samples = np.array([random_unit_vector(rep.space_dim, rng)
                                for _ in range(GENERIC_SAMPLES)])
            stack = np.array([np.einsum("aij,j->ia", rep.matrices, v) for v in samples])
            assert matrix_rank(stack).tolist() == [rank_reference(e) for e in stack]
            assert orbit_dimension(rep, samples).tolist() == ref
            assert cohomogeneity(rep, seed=seed) == rep.space_dim - max(ref)


def test_cohomogeneity_runs_one_svd(monkeypatch, suite_reps):
    calls = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    cohomogeneity(suite_reps[-1])
    assert len(calls) == 1 and calls[0][0] == GENERIC_SAMPLES


def test_a_stack_with_one_non_finite_matrix_is_rejected():
    stack = np.tile(np.eye(3), (4, 1, 1))
    stack[2, 1, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        matrix_rank(stack)


def test_a_zero_matrix_in_a_stack_has_rank_zero():
    stack = np.array([np.eye(3), np.zeros((3, 3)), np.diag([1.0, 1e-3, 1e-12])])
    assert matrix_rank(stack).tolist() == [3, 0, 2]
    assert matrix_rank(np.zeros((2, 3, 0))).tolist() == [0, 0]


def test_a_zero_dimensional_algebra_has_the_dimension_as_cohomogeneity():
    rep = trivial_representation(abelian(0), 3)
    assert orbit_dimension(rep, np.eye(3)).tolist() == [0, 0, 0]
    assert cohomogeneity(rep) == 3


def test_a_stack_with_a_zero_vector_is_rejected(suite_reps):
    with pytest.raises(ValueError, match="zero vector"):
        orbit_dimension(suite_reps[0], np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


# ---------------------------------------------------------------------------
# the matrix-product kernels
# ---------------------------------------------------------------------------


def kernel_spaces():
    """The 22 catalog entries, the 6 hyperbolic models and the flat screw."""
    out = [sps.catalog_entry(sid) for sid in sps.catalog_ids()]
    out += [sps.hyperbolic_semidirect(f, r) for f, r in claims.HYPERBOLIC_CASES]
    return out + [sps.euclidean_screw(1)]


def test_killing_kernels_equal_their_einsum_forms():
    spaces = kernel_spaces()
    assert len(spaces) == 29
    for space in spaces:
        ref = killing_reference(space.algebra.c)
        got = la.killing_form(space.algebra)
        assert np.array_equal(got, got.T)
        assert np.abs(got - ref).max() <= 1e-15 * residual_scale(ref)
        res = la.killing_invariance_residual(space.algebra)
        assert abs(res - killing_invariance_reference(space.algebra.c)) <= 1e-15


def test_curvature_tensor_equals_its_einsum_form():
    for space in kernel_spaces():
        ms = geo.InvariantMetricSpace(space)
        ref = curvature_reference(ms)
        assert np.abs(geo.curvature_tensor(ms) - ref).max() <= 1e-15 * residual_scale(ref)


@pytest.mark.parametrize("build", [lambda: spin_algebra(spin_module(7)),
                                   lambda: spin_plus_one(spin_module(8))])
def test_homomorphism_residual_equals_its_einsum_form(build):
    rep = build()
    assert abs(rep.homomorphism_residual() - homomorphism_reference(rep)) <= 1e-15
    # a skew perturbation of one operator keeps it skew and breaks the homomorphism
    m = np.array(rep.matrices)
    m[0, 0, 1] += 1e-6
    m[0, 1, 0] -= 1e-6
    bent = Representation(rep.algebra, m)
    assert bent.homomorphism_residual() > 1e-7
    assert abs(bent.homomorphism_residual() - homomorphism_reference(bent)) <= 1e-15
    message = (f"representation: homomorphism: residual {homomorphism_reference(bent):.3e}"
               " is not below 1.0e-09")
    with pytest.raises(ValidationError) as err:
        bent.validate()
    assert str(err.value) == message
