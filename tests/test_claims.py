"""The warm check path: cached Jacobi residuals and one worker pool."""

import threading

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


def test_suites_share_one_worker_pool(monkeypatch):
    workers = []
    run_one = claims._run_one

    def recording(entry, cfg):
        workers.append(threading.current_thread())
        return run_one(entry, cfg)

    monkeypatch.setattr(claims, "_run_one", recording)
    cfg = RunConfig(groups=("tables",))
    for _ in range(2):
        assert run_suite(cfg, jobs=2).exit_code == 0
    distinct = {id(t) for t in workers}  # the list keeps every thread alive
    assert 1 <= len(distinct) <= 2
    assert threading.current_thread() not in workers

