"""The warm check path, the run configuration and the runner's error reports."""

import copy
import threading
from collections import Counter
from functools import partial

import numpy as np
import pytest

from liecoh import algebra as la
from liecoh import claims
from liecoh import geometry as geo
from liecoh import spaces as sps
from liecoh.claims import RunConfig, run_suite
from liecoh.reps import DEFAULT_SEED
from oracles import hyperbolic_residual, warped_residual


def test_a_warm_suite_never_recomputes_a_catalog_residual(jacobi_kernel_calls):
    cfg = RunConfig(groups=("jacobi", "catalog"))
    run_suite(cfg, jobs=1)
    catalog_constants = [sps.catalog_entry(sid).algebra.c for sid in sps.catalog_ids()]
    del jacobi_kernel_calls[:]
    assert run_suite(cfg, jobs=1).exit_code == 0
    assert jacobi_kernel_calls  # the construction claims build fresh skeletons every time
    assert not [c for c in jacobi_kernel_calls if any(c is cc for cc in catalog_constants)]


@pytest.fixture
def constructed(monkeypatch):
    """Every ``ReductiveSpace`` whose construction starts during the test."""
    seen = []
    post_init = sps.ReductiveSpace.__post_init__

    def recording(space):
        seen.append(space)
        post_init(space)

    monkeypatch.setattr(sps.ReductiveSpace, "__post_init__", recording)
    return seen


def test_a_fresh_suite_constructs_each_catalog_entry_once(constructed):
    ids = sps.catalog_ids()
    sps.catalog_entry.cache_clear()
    sps.catalog()
    assert sorted(s.label for s in constructed) == sorted(ids)  # no second construction
    sps.catalog_entry.cache_clear()
    del constructed[:]
    assert run_suite(RunConfig(), jobs=1).exit_code == 0
    labels = Counter(s.label for s in constructed)  # read after the run: the labels they got
    assert {sid: labels[sid] for sid in ids} == dict.fromkeys(ids, 1)


def test_a_warm_suite_constructs_no_catalog_entry(constructed):
    sps.catalog()
    # only the curvature models: the jacobi claims read a bracket tensor, not a space
    models = [sps.hyperbolic_semidirect(f, r).label for f, r in claims.HYPERBOLIC_CASES]
    models.append(sps.euclidean_screw(1).label)
    del constructed[:]
    assert run_suite(RunConfig(), jobs=1).exit_code == 0
    assert sorted(s.label for s in constructed) == sorted(models)
    assert not {s.label for s in constructed} & set(sps.catalog_ids())


def test_each_warped_claim_takes_one_fd_tensor_per_sample_point(monkeypatch):
    calls = []
    riemann = geo.riemann_finite_difference

    def counting(metric_fn, dim):
        calls.append(dim)
        return riemann(metric_fn, dim)

    monkeypatch.setattr(geo, "riemann_finite_difference", counting)
    registry = [entry for entry in claims.build_claims()
                if entry[0].startswith("curvature.warped.")]
    assert len(registry) == len(claims.WARPED_CASES)
    for entry in registry:
        del calls[:]
        assert claims._run_one(entry, RunConfig()).status == "pass"
        assert len(calls) == 13


def _nan_fd_tensor(w, t, fd=geo.warped_curvature_fd):
    r4, g0 = fd(w, t)
    return np.full_like(r4, np.nan), g0


# claim id prefix -> the residual that the claim reduces over its samples or
# entries, and a stand-in for it that returns NaN
NAN_RESIDUALS = {
    "curvature.warped.": (geo, "warped_curvature_fd", _nan_fd_tensor),
    "curvature.hyperbolic.": (geo, "sectional_curvature", lambda *args: np.nan),
    "curvature.symmetries.catalog": (geo, "curvature_symmetry_residual", lambda *args: np.nan),
    "catalog.invariants": (la, "killing_invariance_residual", lambda *args: np.nan),
}


@pytest.mark.parametrize("prefix", sorted(NAN_RESIDUALS))
def test_a_nan_residual_fails_its_claim(prefix, monkeypatch):
    module, name, nan = NAN_RESIDUALS[prefix]
    calls = []

    def counted(*args):
        calls.append(args)
        return nan(*args)

    monkeypatch.setattr(module, name, counted)
    registry = [entry for entry in claims.build_claims() if entry[0].startswith(prefix)]
    assert registry
    for entry in registry:
        del calls[:]
        report = claims._run_one(entry, RunConfig())
        assert calls   # the stand-in is what the claim reads
        # the claim's own verdict: an exception would be the runner's internal error
        assert report.provenance != "runner", report.computed
        assert report.status == "fail"


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 7001])
def test_the_sampled_curvature_claims_equal_their_per_plane_loop(seed):
    # one draw and one curvature call per claim, against a loop over the same planes
    # with one einsum per plane; equal up to round-off of the largest value summed
    oracles = {f"curvature.hyperbolic.{f}.rate{r:g}": partial(hyperbolic_residual, f, r)
               for f, r in claims.HYPERBOLIC_CASES}
    oracles.update({f"curvature.warped.{case[0]}": partial(warped_residual, *case)
                    for case in claims.WARPED_CASES})
    registry = {entry[0]: entry for entry in claims.build_claims()}
    for claim_id, oracle in oracles.items():
        report = claims._run_one(registry[claim_id], RunConfig(seed=seed))
        residual, scale = oracle(seed)
        assert report.status == "pass"
        assert abs(report.residual - residual) <= 1e-15 * max(scale, 1.0), claim_id


def test_every_claim_runs_on_the_calling_thread(monkeypatch):
    threads = []
    run_one = claims._run_one

    def recording(entry, cfg):
        threads.append(threading.current_thread())
        return run_one(entry, cfg)

    monkeypatch.setattr(claims, "_run_one", recording)
    cfg = RunConfig(groups=("tables",))
    for _ in range(2):
        assert run_suite(cfg, jobs=2).exit_code == 0
    assert threads
    assert all(t is threading.current_thread() for t in threads)


def test_building_the_registry_builds_no_catalog_entry():
    sps.catalog_entry.cache_clear()
    claims.build_claims.cache_clear()   # else the registry cached by an earlier test is read
    claims.build_claims()
    assert claims.build_claims.cache_info().misses == 1
    assert sps.catalog_entry.cache_info().currsize == 0


def test_an_empty_group_selection_is_rejected():
    with pytest.raises(ValueError, match="no claim group"):
        RunConfig(groups=())


def test_a_bare_string_of_groups_is_rejected():
    # it used to be read letter by letter: "unknown claim groups: ['t', 'a', ...]"
    with pytest.raises(ValueError, match=r"sequence of group names such as \('tables',\)"):
        RunConfig(groups="tables")


def test_an_internal_error_names_its_type_and_frame(monkeypatch):
    def boom(cfg):
        return 1 / 0

    registry = claims.build_claims()
    claim_id = next(c[0] for c in registry if c[1] == "tables")
    registry = [(i, g, boom, ()) if i == claim_id else (i, g, fn, args)
                for i, g, fn, args in registry]
    monkeypatch.setattr(claims, "build_claims", lambda: registry)
    result = run_suite(RunConfig(groups=("tables",)), jobs=1)
    failed = [r for r in result.reports if r.status == "fail"]
    assert [r.claim_id for r in failed] == [claim_id]
    line = boom.__code__.co_firstlineno + 1
    assert failed[0].computed == ("internal error: ZeroDivisionError: division by zero "
                                  f"(at test_claims.py:{line} in boom)")


def test_the_registry_and_its_expected_values_are_built_once():
    assert claims.build_claims() is claims.build_claims()
    first = run_suite(RunConfig()).reports
    declared = copy.deepcopy([r.expected for r in first])
    second = run_suite(RunConfig()).reports
    for a, b in zip(first, second, strict=True):
        assert a.claim_id is b.claim_id
        assert a.expected is b.expected
        assert a.provenance is b.provenance
    # the shared values are read, never written: both suites leave them as declared
    assert [r.expected for r in second] == declared


def test_a_shared_expected_value_cannot_be_edited():
    first = run_suite(RunConfig()).reports
    shared = [r.expected for r in first if isinstance(r.expected, dict)]
    assert len(shared) == 26   # 12 sphere rows, 5 coh2 rows, 3 fingerprints, 5 heisenberg, dims
    for expected in shared:
        key = next(iter(expected))
        for edit in (lambda: expected.__setitem__(key, 0), lambda: expected.pop(key),
                     lambda: expected.update({key: 0}), expected.clear):
            with pytest.raises(TypeError, match="read-only"):
                edit()
        for value in expected.values():
            hash(value)   # no list or other mutable value inside either
        assert copy.deepcopy(expected) == expected
    assert run_suite(RunConfig()).exit_code == 0
