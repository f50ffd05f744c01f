"""Smoke test of the benchmark harness.

Runs every workload of ``BENCHMARK.json`` for one short window, untraced and
traced, and checks that each run succeeds, passes its correctness checks and
emits exactly the metric names ``BENCHMARK.json`` declares, each matching
``[A-Za-z0-9_.-]+`` and carrying its declared unit.  It also checks that
``verify-cold`` and ``claims-warm`` give the same report digest at the same
seed, and that the harness fails, without printing a result, in a directory
holding only ``BENCHMARK.json`` and the benchmark's own files.

    python3 perfbench/smoke.py          # about four minutes on two cores

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
SEED = 24301


def run(spec, workload, trace, cwd=ROOT):
    cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace, errors):
    out = run(spec, workload, trace)
    where = f"{workload} --trace {trace}"
    if out.returncode != 0:
        errors.append(f"{where}: exit {out.returncode}: {out.stderr[-500:]}")
        return None
    lines = out.stdout.strip().splitlines()
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in emitted:
        if not NAME_RE.match(name):
            errors.append(f"{where}: bad metric name {name!r}")
    if emitted != declared:
        errors.append(f"{where}: metrics differ from BENCHMARK.json: "
                      f"{sorted(set(emitted) ^ set(declared))}")
    print(f"ok {where}: {len(emitted)} metrics, digest {detail['digest']}", flush=True)
    return detail


def check_bare_directory(spec, errors):
    """Without the sources the harness must fail and print no result."""
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run(spec, spec["workloads"][0]["name"], 0, cwd=bare)
    shutil.rmtree(bare)
    if out.returncode == 0 or out.stdout.strip():
        errors.append(f"bare directory: exit {out.returncode}, stdout {out.stdout[-200:]!r}")
    else:
        print(f"ok bare directory: exit {out.returncode}", flush=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    errors: list[str] = []
    digests = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            detail = check_run(spec, workload, trace, errors)
            if detail is not None and detail["digest"]:
                digests.setdefault(workload, set()).add(detail["digest"])
    if digests.get("verify-cold") != digests.get("claims-warm"):
        errors.append(f"report digests differ: {digests}")
    check_bare_directory(spec, errors)
    for err in errors:
        print("FAIL", err)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
