import numpy as np
import pytest

from liecoh.algebra import Subspace, semidirect_sum, weyl_flip
from liecoh.builders import unitary_determinant_action
from liecoh.claims import WARPED_CASES
from liecoh.geometry import (
    FD_STEP,
    InvariantMetricSpace,
    Profile,
    WarpedProduct,
    _sphere_r4,
    _warped_chart_metric,
    curvature_symmetry_residual,
    curvature_tensor,
    riemann_finite_difference,
    sectional_curvature,
    warped_curvature_fd,
    warped_sectional_curvature,
)
from liecoh.linalg import ValidationError, random_unit_vector
from liecoh.spaces import (
    ReductiveSpace,
    catalog_entry,
    euclidean_screw,
    hyperbolic_semidirect,
)
from oracles import invariance_residual, sphere_space


def orthonormal_plane(rng, dim):
    x = random_unit_vector(dim, rng)
    while True:
        y = random_unit_vector(dim, rng)
        y = y - (x @ y) * x
        n = np.linalg.norm(y)
        if n > 1e-6:
            return x, y / n


# ---------------------------------------------------------------------------
# invariant-metric curvature
# ---------------------------------------------------------------------------


def test_flat_space_zero_tensor():
    # u(3) acting by the determinant on a plane and standardly on C^3: the
    # complement is an abelian ideal
    rep = unitary_determinant_action(3)[0]
    alg = semidirect_sum(rep.algebra, rep)
    space = ReductiveSpace("flat", alg, Subspace.coordinate(17, range(9)),
                           (Subspace.coordinate(17, range(9, 11)),
                            Subspace.coordinate(17, range(11, 17))))
    ms = InvariantMetricSpace(space)
    assert np.abs(curvature_tensor(ms)).max() < 1e-12


def test_round_sphere_unit_curvature():
    for n in (2, 3, 5):
        ms = InvariantMetricSpace(sphere_space(n))
        r4 = curvature_tensor(ms)
        rng = np.random.default_rng(n)
        for _ in range(5):
            x, y = orthonormal_plane(rng, n)
            assert abs(sectional_curvature(r4, ms.metric(), x, y) - 1.0) < 1e-12


def test_hyperbolic_fiber_from_sign_flip():
    """The sign flip of the round 2-sphere model is the hyperbolic plane, K = -1."""
    sphere = sphere_space(2)
    flipped = weyl_flip(sphere.algebra, [int(np.argmax(np.abs(c)))
                                         for c in sphere.frame[:, sphere.isotropy.dim:].T])
    hyper = ReductiveSpace("H2", flipped, sphere.isotropy, sphere.blocks)
    ms = InvariantMetricSpace(hyper)
    r4 = curvature_tensor(ms)
    assert abs(sectional_curvature(r4, ms.metric(), np.array([1.0, 0]), np.array([0, 1.0]))
               + 1.0) < 1e-12


def test_screw_space_flat():
    ms = InvariantMetricSpace(euclidean_screw(2))
    assert np.abs(curvature_tensor(ms)).max() < 1e-9


@pytest.mark.parametrize("field,rate", [("R", 1.0), ("C", 0.5), ("H", 1.0)])
def test_hyperbolic_constant_curvature(field, rate):
    space = hyperbolic_semidirect(field, rate)
    ms = InvariantMetricSpace(space)
    r4 = curvature_tensor(ms)
    rng = np.random.default_rng(17)
    vals = np.array([sectional_curvature(r4, ms.metric(), *orthonormal_plane(rng, ms.m_dim))
                     for _ in range(100)])
    assert np.abs(vals + rate * rate).max() < 1e-8
    assert vals.std() < 1e-8


def test_curvature_symmetries_on_catalog():
    for sid in ("SU(3)/SU(2)", "Sp(1,1)/U(1)Sp(1)", "N(6,1)", "SU(3)xSU(3)/dSU(3)"):
        r4 = curvature_tensor(InvariantMetricSpace(catalog_entry(sid)))
        assert curvature_symmetry_residual(r4) < 1e-8, sid


def test_sectional_rejects_degenerate_plane():
    ms = InvariantMetricSpace(sphere_space(2))
    with pytest.raises(ValueError):
        sectional_curvature(curvature_tensor(ms), ms.metric(),
                            np.array([1.0, 0.0]), np.array([2.0, 0.0]))


def _planes(rng, dim, count):
    return tuple(np.array(v) for v in zip(*(orthonormal_plane(rng, dim) for _ in range(count))))


def test_a_stack_of_planes_equals_one_plane_at_a_time():
    ms = InvariantMetricSpace(catalog_entry("Sp(2)/U(1)Sp(1)"), (1.0, 3.0))
    r4, g = curvature_tensor(ms), ms.metric()
    x, y = _planes(np.random.default_rng(4), ms.m_dim, 30)
    one = [sectional_curvature(r4, g, xi, yi) for xi, yi in zip(x, y)]
    assert all(type(k) is float for k in one)
    stack = sectional_curvature(r4, g, x, y)
    assert stack.shape == (30,)
    assert np.abs(stack - one).max() <= 1e-15 * np.abs(stack).max()
    # one tensor and one metric per plane, and a (5, 6) stack of planes
    r4s = np.stack([r4, 2.0 * r4, -r4] * 10)
    gs = np.stack([g, g, 2.0 * g] * 10)
    per_plane = sectional_curvature(r4s, gs, x, y)
    assert np.abs(per_plane - stack * np.tile([1.0, 2.0, -0.25], 10)).max() <= 1e-14
    grid = sectional_curvature(r4, g, x.reshape(5, 6, -1), y.reshape(5, 6, -1))
    assert np.array_equal(grid, stack.reshape(5, 6))


def test_a_stack_of_warped_planes_equals_one_plane_at_a_time():
    w = WarpedProduct(("line",), Profile.poly(1, 0, 1), 3)
    rng = np.random.default_rng(9)
    x, y = _planes(rng, 3, 12)
    ts = np.linspace(-2.0, 2.0, 12)
    v = np.column_stack([np.linspace(0.0, 1.0, 12), x])
    u = np.column_stack([np.zeros(12), y])
    one = [warped_sectional_curvature(w, t, vi, ui) for t, vi, ui in zip(ts, v, u)]
    assert all(type(k) is float for k in one)
    stack = warped_sectional_curvature(w, ts, v, u)
    assert np.abs(stack - one).max() <= 1e-15 * np.abs(stack).max()
    # one t for the whole stack
    assert np.array_equal(warped_sectional_curvature(w, 0.5, v, u),
                          warped_sectional_curvature(w, np.full(12, 0.5), v, u))


def test_one_bad_plane_fails_its_whole_stack_naming_the_smallest_area():
    ms = InvariantMetricSpace(sphere_space(3))
    r4, g = curvature_tensor(ms), ms.metric()
    x, y = _planes(np.random.default_rng(2), 3, 8)
    w = WarpedProduct(("line",), Profile.poly(1, 0, 1), 2)
    v = np.column_stack([np.full(8, 0.5), x[:, :2]])
    u = np.column_stack([np.zeros(8), y[:, :2]])
    # plane 5 made parallel, then NaN; the other seven are sound
    for scale, smallest in ((0.5, 0.0), (np.nan, np.nan)):
        y_bad, u_bad = y.copy(), u.copy()
        y_bad[5], u_bad[5] = scale * x[5], scale * v[5]
        with pytest.raises(ValidationError, match="degenerate plane") as err:
            sectional_curvature(r4, g, x, y_bad)
        assert err.value.residual == pytest.approx(smallest, abs=1e-15, nan_ok=True)
        with pytest.raises(ValidationError, match="degenerate plane") as err:
            warped_sectional_curvature(w, 0.3, v, u_bad)
        assert err.value.residual == pytest.approx(smallest, abs=1e-15, nan_ok=True)
    # the profile gate: one t where f <= 0 fails the stack, naming the least f
    with pytest.raises(ValidationError, match="interior point") as err:
        warped_sectional_curvature(WarpedProduct(("line",), Profile.poly(0, 1), 2),
                                   np.linspace(-0.5, 2.0, 8), v, u)
    assert err.value.residual == -0.5


def test_block_scale_divides_fiber_curvature():
    """Doubling the metric scale c^2 on the sphere divides K by c^2."""
    ms = InvariantMetricSpace(sphere_space(3), (4.0,))
    r4 = curvature_tensor(ms)
    x = np.array([1.0, 0.0, 0.0]) / 2.0  # unit for the scaled metric
    y = np.array([0.0, 1.0, 0.0]) / 2.0
    assert abs(sectional_curvature(r4, ms.metric(), x, y) - 0.25) < 1e-12


@pytest.mark.parametrize("sid", ["Sp(2)/U(1)Sp(1)", "Spin(9)/Spin(7)", "N(3;1,0)", "SU(3)/SU(2)"])
def test_block_scales_on_two_block_spaces(sid):
    space = catalog_entry(sid)
    unit = curvature_tensor(InvariantMetricSpace(space))
    # a common scale multiplies the (0,4) tensor and leaves R(X, Y) Z alone
    assert np.array_equal(curvature_tensor(InvariantMetricSpace(space, (2.0, 2.0))), 2.0 * unit)
    ms = InvariantMetricSpace(space, (1.0, 3.0))
    r4 = curvature_tensor(ms)
    assert curvature_symmetry_residual(r4) < 1e-14
    assert invariance_residual(ms) < 1e-15
    assert np.abs(r4 - unit).max() >= 0.33


def test_invariance_residual_zero_on_catalog():
    ms = InvariantMetricSpace(catalog_entry("Sp(2)/U(1)Sp(1)"), (1.0, 2.0))
    assert invariance_residual(ms) < 1e-12


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def test_profile_constructors():
    p = Profile.exp(-0.5)
    assert abs(p.f(1.0) - np.exp(-0.5)) < 1e-15
    assert abs(p.df(1.0) + 0.5 * np.exp(-0.5)) < 1e-15
    q = Profile.poly(1, 0, 2)
    assert q.f(2.0) == 9.0 and q.df(2.0) == 8.0 and q.ddf(2.0) == 4.0
    c = Profile.poly(3.5)
    assert c.f(10.0) == 3.5 and c.df(10.0) == 0.0 and c.ddf(10.0) == 0.0


# ---------------------------------------------------------------------------
# warped products
# ---------------------------------------------------------------------------


def test_sine_profile_round_sphere():
    w = WarpedProduct(("segment", float(np.pi)), Profile.sin(), 1)
    mixed = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    for t in (0.4, 1.2, 2.5):
        cf = warped_sectional_curvature(w, t, *mixed)
        assert abs(cf - 1.0) < 1e-12
        fd = sectional_curvature(*warped_curvature_fd(w, t), *mixed)
        assert abs(cf - fd) < 1e-5


def test_warped_closed_form_vs_fd_oracle():
    w = WarpedProduct(("line",), Profile.poly(1, 0, 1), 3)
    rng = np.random.default_rng(12)
    worst = 0.0
    for t in (-0.8, 0.3, 1.4):
        x, y = orthonormal_plane(rng, 3)
        x0, y0 = np.concatenate([[0.0], x]), np.concatenate([[0.0], y])
        # mixed, fiber, and a plane across both
        for v, u in ((np.eye(4)[0], x0), (x0, y0), (np.concatenate([[0.7], 0.4 * x]), y0)):
            cf = warped_sectional_curvature(w, t, v, u)
            fd = sectional_curvature(*warped_curvature_fd(w, t), v, u)
            worst = max(worst, abs(cf - fd))
    assert worst < 1e-5


def test_fd_oracle_standalone_sphere_chart():
    """The oracle alone reproduces constant curvature from a metric chart."""
    r4f = _sphere_r4(3)

    def metric_fn(x):
        return np.eye(3) + np.einsum("ikjl,nk,nl->nij", r4f, x, x) / 3.0

    r4 = riemann_finite_difference(metric_fn, 3)
    x, y = np.eye(3)[0], np.eye(3)[1]
    k = np.einsum("ijkl,i,j,k,l->", r4, x, y, y, x)
    assert abs(k - 1.0) < 1e-6


def _per_point_riemann_fd(metric_fn, dim):
    """The oracle as a loop over stencil points, one metric evaluation each."""
    h = FD_STEP
    x0 = np.zeros(dim)

    def metric_at(x):
        return metric_fn(x[None])[0]

    def christoffel(x):
        g = metric_at(x)
        ginv = np.linalg.inv(g)
        dg = np.empty((dim, dim, dim))
        for k in range(dim):
            e = np.zeros(dim)
            e[k] = h
            dg[k] = (metric_at(x + e) - metric_at(x - e)) / (2 * h)
        t = dg.transpose(1, 0, 2) + dg.transpose(2, 1, 0) - dg
        return 0.5 * np.einsum("il,ljk->ijk", ginv, t)

    gam0 = christoffel(x0)
    dgam = np.empty((dim, dim, dim, dim))
    for a in range(dim):
        e = np.zeros(dim)
        e[a] = h
        dgam[a] = (christoffel(x0 + e) - christoffel(x0 - e)) / (2 * h)
    r_up = np.empty((dim, dim, dim, dim))
    for a in range(dim):
        for b in range(dim):
            r_up[:, a, b, :] = (dgam[a][:, b, :] - dgam[b][:, a, :]
                                + np.einsum("me,ec->mc", gam0[:, a, :], gam0[:, b, :])
                                - np.einsum("me,ec->mc", gam0[:, b, :], gam0[:, a, :]))
    return np.einsum("mabc,md->abcd", r_up, metric_at(x0))


@pytest.mark.parametrize("case", WARPED_CASES, ids=[c[0] for c in WARPED_CASES])
def test_batched_fd_oracle_equals_the_per_point_loop(case):
    _, interval, profile, fiber_dim = case
    w = WarpedProduct(interval, profile, fiber_dim)
    for t in w.interior_samples(5):
        metric_fn = _warped_chart_metric(w, t)
        assert np.array_equal(riemann_finite_difference(metric_fn, 1 + fiber_dim),
                              _per_point_riemann_fd(metric_fn, 1 + fiber_dim))


def test_fd_oracle_evaluates_the_whole_stencil_in_one_call():
    shapes = []

    def metric_fn(x):
        shapes.append(x.shape)
        return np.broadcast_to(np.eye(3), (x.shape[0], 3, 3))

    r4 = riemann_finite_difference(metric_fn, 3)
    assert shapes == [((2 * 3 + 1) ** 2, 3)]
    assert not r4.any()


def test_degenerate_t_rejected():
    w = WarpedProduct(("line",), Profile.poly(0, 1), 2)
    with pytest.raises(ValueError):
        warped_sectional_curvature(w, 0.0, np.eye(3)[0], np.eye(3)[1])
