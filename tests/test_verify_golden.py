"""Golden digest of the verifier's output.

The digest covers every report of ``run_suite(RunConfig(), jobs=1)`` without
``runtime_ms``, plus the summary.  Floats are rounded to 10 decimals (with
negative zero folded into zero) before hashing, as in
``test_catalog_golden.py``: residuals of order 1e-16 move with the order of
floating-point operations, while statuses, integer fields, signatures and
every computed value above round-off must not change.
"""

import hashlib
import json

from liecoh.claims import RunConfig, run_suite

GOLDEN = "4ad84723a0a9d93e6ece7eb93939a3d0e2f51204986699ede313c6c700b97bad"


def _canonical(value):
    if isinstance(value, float):
        return round(value, 10) + 0.0
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def suite_digest(result) -> str:
    rows = []
    for rep in result.reports:
        row = rep.to_json_dict()
        row.pop("runtime_ms")
        rows.append(_canonical(row))
    payload = {"reports": rows, "summary": _canonical(result.summary)}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def test_verifier_output_is_unchanged():
    assert suite_digest(run_suite(RunConfig(), jobs=1)) == GOLDEN
