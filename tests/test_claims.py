"""The warm check path, the run configuration and the runner's error reports."""

import threading

import pytest

from liecoh import claims
from liecoh import spaces as sps
from liecoh.claims import RunConfig, run_suite


def test_a_warm_suite_never_recomputes_a_catalog_residual(jacobi_kernel_calls):
    cfg = RunConfig(groups=("jacobi", "catalog"))
    run_suite(cfg, jobs=1)
    catalog_constants = [sps.catalog_entry(sid).algebra.c for sid in sps.catalog_ids()]
    del jacobi_kernel_calls[:]
    assert run_suite(cfg, jobs=1).exit_code == 0
    assert jacobi_kernel_calls  # the construction claims build fresh algebras every time
    assert not [c for c in jacobi_kernel_calls if any(c is cc for cc in catalog_constants)]


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
    claims.build_claims()
    assert sps.catalog_entry.cache_info().currsize == 0


def test_an_empty_group_selection_is_rejected():
    with pytest.raises(ValueError, match="no claim group"):
        RunConfig(groups=())


def test_an_internal_error_names_its_type_and_frame(monkeypatch):
    def boom(cfg):
        return 1 / 0

    registry = claims.build_claims()
    claim_id, group, _ = next(c for c in registry if c[1] == "tables")
    registry = [(i, g, boom if i == claim_id else fn) for i, g, fn in registry]
    monkeypatch.setattr(claims, "build_claims", lambda: registry)
    result = run_suite(RunConfig(groups=("tables",)), jobs=1)
    failed = [r for r in result.reports if r.status == "fail"]
    assert [r.claim_id for r in failed] == [claim_id]
    line = boom.__code__.co_firstlineno + 1
    assert failed[0].computed == ("internal error: ZeroDivisionError: division by zero "
                                  f"(at test_claims.py:{line} in boom)")
