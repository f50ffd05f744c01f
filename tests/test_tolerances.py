"""Tolerances are module constants, and every exactness gate fails closed.

A gate compares a relative residual with a fixed bound through
``algebra.require_below``.  An infinite structure constant or matrix entry
makes that residual NaN (``inf / inf``, ``0 * inf``), and a NaN must be
rejected, never read as "small".
"""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

import liecoh
from liecoh import algebra as la
from liecoh import builders as bld
from liecoh import completion
from liecoh import geometry as geo
from liecoh import linalg
from liecoh import reps
from liecoh import spaces as sps
from oracles import sphere_space

INF = np.inf


def _eps_with_inf():
    """so(3) as [e_i, e_j] = eps_ijk e_k, with [e_0, e_1] = inf e_2."""
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        c[i, j, k], c[j, i, k] = 1.0, -1.0
    c[0, 1, 2], c[1, 0, 2] = INF, -INF
    return la.LieAlgebra(c)


def _so3_rep(inf_at):
    so3 = bld.so_standard(3)
    mats = np.array(so3.matrices)
    mats[inf_at] = INF
    return reps.Representation(so3.algebra, mats)


def _so3_plus_line_with_inf():
    """so(3) on R^3 + R, with an infinite entry mapping e_0 into the line."""
    so3 = bld.so_standard(3)
    mats = np.zeros((3, 4, 4))
    mats[:, :3, :3] = so3.matrices
    mats[0, 3, 0] = INF
    return reps.Representation(so3.algebra, mats)


def _gl2_with_inf():
    mats = np.zeros((4, 2, 2))
    for a, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        mats[a, i, j] = 1.0
    mats[1, 0, 1] = INF
    return mats


def _inf_space(monkeypatch, k_idx, block_idx):
    """A space over ``_eps_with_inf``; its Jacobi gate is switched off to reach the later ones."""
    monkeypatch.setattr(sps, "worst_jacobi_triple", lambda alg: ((0, 0, 0), 0.0))
    return sps.ReductiveSpace("inf", _eps_with_inf(), la.Subspace.coordinate(3, k_idx),
                              tuple(la.Subspace.coordinate(3, b) for b in block_idx))


def _nan_frame_space(monkeypatch):
    """A space whose isotropy basis holds a NaN, set past the frozen ``Subspace``'s check."""
    k = la.Subspace.coordinate(3, [0])
    object.__setattr__(k, "basis", np.array([[np.nan], [0.0], [0.0]]))
    sps.ReductiveSpace("nan", la.abelian(3), k, (la.Subspace.coordinate(3, [1, 2]),))


def _nilpotent_part_of_nan_brackets(monkeypatch):
    """``nilpotent_part`` of a built space with k != 0, once its brackets read NaN."""
    space = sps.catalog_entry("N(3;1,0)")
    monkeypatch.setattr(sps, "span_brackets",
                        lambda alg, a, b: np.full((a.shape[1], b.shape[1], alg.dim), np.nan))
    sps.nilpotent_part(space)


def _profile_nan_inside():
    """A profile that is NaN on the whole interior of a line."""
    f = lambda t: np.nan + 0.0 * t  # noqa: E731
    return geo.WarpedProduct(("line",), geo.Profile(f, f, f), 2)


def _round_sphere_line():
    return geo.WarpedProduct(("line",), geo.Profile.poly(1), 2)


def _sphere_sectional(x, y):
    ms = geo.InvariantMetricSpace(sphere_space(2))
    return geo.sectional_curvature(geo.curvature_tensor(ms), ms.metric(), x, y)


def _nan_on_k_times_m(alg, a, b):
    """``span_brackets`` of the frame read [k, frame], with every [k, m] NaN and [k, k] kept."""
    out = la.span_brackets(alg, a, b)
    out[:, a.shape[1]:] = np.nan
    return out


def _isotropy_gate(monkeypatch, gate):
    # An infinite constant already makes the closure residual of k NaN (every
    # row of the frame read meets it as 0 * inf), so the invariance gate is
    # reached with the [k, m] brackets alone made NaN.  A NaN block residual
    # needs a non-finite isotropy matrix, which the invariance gate rejects
    # first; it is injected directly.
    space = sps.catalog_entry("SO(5)/SO(2)SO(3)")
    if gate == "invariance":
        monkeypatch.setattr(sps, "span_brackets", _nan_on_k_times_m)
    else:
        monkeypatch.setattr(sps, "block_invariance_residual", lambda rep, idx: np.nan)
    sps.isotropy_representation(space)


def _completion_with_inf():
    """Unknown pair (3, 4) over a skeleton with [b_0, b_2] = inf b_1, which enters its rows."""
    c = np.zeros((5, 5, 5))
    c[0, 2, 1], c[2, 0, 1] = INF, -INF
    return completion.CompletionProblem(la.LieAlgebra(c), (3, 4), [0, 1, 2])


# gate -> (a fragment of its own message, a call that reaches it with a NaN residual)
GATES = {
    "algebra.semidirect_sum": ("invalid representation: commutation", lambda mp:
        la.semidirect_sum(bld.so_standard(3).algebra, _so3_rep((0, 0, 0)))),
    "algebra.weyl_flip": ("not the odd part of a symmetric pair",
                          lambda mp: la.weyl_flip(_eps_with_inf(), [0, 1, 2])),
    "algebra.structure_constants_from_matrices": ("non-finite entry",
        lambda mp: la.structure_constants_from_matrices(_gl2_with_inf())),
    "algebra.Subspace": ("basis columns must be orthonormal",
                         lambda mp: la.Subspace(np.array([[INF, 0.0], [0.0, 1.0]]))),
    "completion.complete_bracket": ("non-finite entry",
        lambda mp: completion.complete_bracket(_completion_with_inf())),
    "linalg.signature.inf": ("non-finite entry",
                             lambda mp: linalg.signature([[1.0, INF], [INF, 1.0]])),
    "linalg.signature.nan": ("non-finite entry",
                             lambda mp: linalg.signature([[np.nan, 0.0], [0.0, 1.0]])),
    "reps.Representation.validate.homomorphism": ("representation: homomorphism",
        lambda mp: _so3_rep((0, 0, 0)).validate()),
    "reps.kernel_ideal": ("kernel is not an ideal", lambda mp:
        reps.kernel_ideal(reps.Representation(_eps_with_inf(), np.zeros((3, 2, 2))))),
    "reps.restrict": ("block is not invariant",
                      lambda mp: reps.restrict(_so3_plus_line_with_inf(), [0, 1, 2])),
    "reps.splitting_criterion": ("block is not invariant", lambda mp:
        reps.splitting_criterion(_so3_plus_line_with_inf(), [0, 1, 2], [3])),
    "spaces.ReductiveSpace.orthonormal": ("not orthonormal together", _nan_frame_space),
    "spaces.ReductiveSpace.jacobi": ("inf: Jacobi identity", lambda mp:
        sps.ReductiveSpace("inf", _eps_with_inf(), la.Subspace.coordinate(3, [0]),
                           (la.Subspace.coordinate(3, [1, 2]),))),
    "spaces.isotropy_representation.closure": ("isotropy is not a subalgebra",
                                               lambda mp: _inf_space(mp, [0], [[1, 2]])),
    # k the whole algebra: nothing lies outside it, and the leak must still read NaN
    "spaces.isotropy_representation.closure_whole": ("isotropy is not a subalgebra",
                                                     lambda mp: _inf_space(mp, [0, 1, 2], [])),
    "spaces.isotropy_representation.invariance": ("blocks are not invariant under k",
                                                  lambda mp: _isotropy_gate(mp, "invariance")),
    "spaces.isotropy_representation.blocks": ("a designated block is not invariant",
                                              lambda mp: _isotropy_gate(mp, "blocks")),
    # k = 0, so m is the whole algebra
    "spaces.nilpotent_part": ("m is not a subalgebra",
                              lambda mp: sps.nilpotent_part(_inf_space(mp, [], [[0, 1], [2]]))),
    "spaces.nilpotent_part.proper": ("m is not a subalgebra", _nilpotent_part_of_nan_brackets),
    "geometry.InvariantMetricSpace.block_scales": ("block scales must be positive", lambda mp:
        geo.InvariantMetricSpace(sps.catalog_entry("Sp(2)/U(1)Sp(1)"), (np.nan, 1.0))),
    "geometry.WarpedProduct.segment": ("segment needs a positive finite length", lambda mp:
        geo.WarpedProduct(("segment", np.nan), geo.Profile.poly(1), 2)),
    "geometry.sectional_curvature.plane": ("degenerate plane",
        lambda mp: _sphere_sectional([np.nan, 0.0], [0.0, 1.0])),
    "geometry.warped_sectional_curvature.plane": ("degenerate plane",
        lambda mp: geo.warped_sectional_curvature(_round_sphere_line(), 0.0,
                                                  [1.0, 0.0, 0.0], [0.0, np.nan, 1.0])),
    "geometry.warped_sectional_curvature.profile": ("t must be an interior point",
        lambda mp: geo.warped_sectional_curvature(_profile_nan_inside(), 0.0,
                                                  [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])),
    # one NaN plane, or one NaN parameter, among sound ones
    "geometry.sectional_curvature.stack": ("degenerate plane", lambda mp:
        _sphere_sectional(np.eye(2)[[0, 0, 0]], [[0.0, 1.0], [np.nan, 1.0], [0.0, 2.0]])),
    "geometry.warped_sectional_curvature.stack": ("degenerate plane",
        lambda mp: geo.warped_sectional_curvature(_round_sphere_line(), [0.0, 1.0],
                                                  np.eye(3)[[0, 0]], [[0.0, 1.0, 0.0],
                                                                      [0.0, np.nan, 1.0]])),
    "geometry.warped_sectional_curvature.profile_stack": ("t must be an interior point",
        lambda mp: geo.warped_sectional_curvature(_round_sphere_line(), [0.0, np.nan],
                                                  [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_non_finite_residual_fails_every_gate(gate, monkeypatch):
    fragment, reach = GATES[gate]
    with np.errstate(invalid="ignore"), pytest.raises(la.ValidationError) as err:
        reach(monkeypatch)
    assert np.isnan(err.value.residual)
    assert fragment in str(err.value)


@pytest.mark.parametrize("value", [INF, 0.0, -1.0])
def test_block_scales_and_segment_lengths_are_positive_and_finite(value):
    # an infinite block scale made every curvature component of Sp(2)/U(1)Sp(1) NaN
    with pytest.raises(la.ValidationError) as err:
        geo.InvariantMetricSpace(sps.catalog_entry("Sp(2)/U(1)Sp(1)"), (value, 1.0))
    assert err.value.residual == value
    with pytest.raises(la.ValidationError) as err:
        geo.WarpedProduct(("segment", value), geo.Profile.poly(1), 2)
    assert err.value.residual == value


# malformed input -> (a fragment of the message, the construction that must refuse it)
CONFIG_ERRORS = {
    **{f"geometry.WarpedProduct.fiber_dim={d!r}": ("fiber_dim must be a positive integer",
        partial(geo.WarpedProduct, ("line",), geo.Profile.poly(1, 0, 1), d))
       for d in (0, -1, 2.5, True)},
    "geometry.Profile.poly()": ("at least one coefficient", geo.Profile.poly),
    # a dual needs m2 as the trailing coordinate block
    **{f"spaces.noncompact_dual({sid})": ("the last block is not the trailing coordinate block",
        lambda sid=sid: sps.noncompact_dual(sps.catalog_entry(sid)))
       for sid in sps.SYMMETRIC_CONTROLS},
}


@pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
def test_malformed_input_is_refused_when_it_is_built(case):
    # each used to be accepted and to fail later with an unrelated error, or, for
    # a polynomial without coefficients, to give f = 0 everywhere
    fragment, build = CONFIG_ERRORS[case]
    with pytest.raises(ValueError, match=re.escape(fragment)):
        build()


def test_svd_of_a_non_finite_matrix_fails_instead_of_hanging():
    # LAPACK's SVD may spin forever on an infinite entry, so this runs in a
    # child process that a timeout can stop
    script = (
        "import numpy as np\n"
        "from liecoh import linalg\n"
        "a = np.eye(3)\n"
        "a[1, 2] = np.inf\n"
        "try:\n"
        "    linalg.nullspace(a)\n"
        "except linalg.ValidationError as err:\n"
        "    print('ValidationError', err.residual)\n"
    )
    src = os.path.dirname(os.path.dirname(liecoh.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-W", "ignore", "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == ["ValidationError", "nan"], out.stderr


def test_require_below_rejects_nan_and_the_bound_itself():
    la.require_below(0.5, 1.0, "x")
    for value in (np.nan, np.inf, 1.0):
        with pytest.raises(la.ValidationError):
            la.require_below(value, 1.0, "x")


# ---------------------------------------------------------------------------
# the numeric knobs that remain in library signatures
# ---------------------------------------------------------------------------

KNOB_NAMES = {"rtol", "samples", "max_steps", "h", "x0", "seed", "inner_product"}

# The knobs that stay settable, each with the caller that sets it; every other
# bound is a module constant.
KEPT_KNOBS = {
    "liecoh.reps.cohomogeneity(seed)",       # the run seed of the claim suite
    "liecoh.claims.RunConfig(seed)",         # set from the INI file and the CLI
}


def _is_knob(name):
    # every tol, tol_* and *_tol; a report's "tolerance" records its bound, it sets none
    return name in KNOB_NAMES or re.fullmatch(r"(\w+_)?tol(_\w+)?", name) is not None


def _parameter_names(module):
    """(qualified name, parameter names) of every function, method and dataclass."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, set(inspect.signature(obj).parameters)
        elif inspect.isclass(obj):
            methods = dict(vars(obj))
            if dataclasses.is_dataclass(obj):
                del methods["__init__"]  # generated from the fields
                yield name, {f.name for f in dataclasses.fields(obj)}
            for attr, member in methods.items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", set(inspect.signature(member).parameters)


def _knob_inventory():
    found = set()
    for info in pkgutil.iter_modules(liecoh.__path__):
        module = importlib.import_module(f"liecoh.{info.name}")
        for name, params in _parameter_names(module):
            found |= {f"{module.__name__}.{name}({p})" for p in params if _is_knob(p)}
    return found


def test_only_the_kept_knobs_remain():
    assert _knob_inventory() == KEPT_KNOBS
