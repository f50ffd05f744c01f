"""Benchmark of the liecoh claim verifier.

Usage, from the root of a source checkout (nothing needs installing; the
package is imported from ``src/``)::

    python3 perfbench/run.py --workload verify-cold --seed 7 --seconds 20 --trace 0

Workloads, each a closed loop with one client:

* ``verify-cold``: every iteration is a fresh ``liecoh verify --json
  --jobs 1 --seed S`` process (run as ``python3 -m liecoh.cli``).  It pays
  for the import, the 22-entry catalog with its completion solves, the n=6
  solve that only the claims trigger, and all 98 claims.
* ``completion-solve``: every iteration solves
  ``complete_bracket(clifford_completion_problem(n, 1, 1/sqrt 2))`` for
  n = 2, 3, 6, 7 in an order drawn from the seed.  The build side.
* ``claims-warm``: set-up builds ``spaces.catalog()`` and runs one full
  suite, so every completion is cached; every iteration then runs
  ``run_suite(RunConfig(seed=S), jobs=min(2, nproc))``.  The check side.

A run starts iterations until ``--seconds`` have passed, and runs at least
three.  Every iteration is checked: ``verify-cold`` must exit 0 with 98/98 claims
passed, ``claims-warm`` must pass every claim, and ``completion-solve`` must
return nullities 1, 1, 0, 1 (never empty) with the two n=7 rays realizing
Killing signatures (0,36,0) and (8,28,0).  The SHA-256 of the sorted
reports without ``runtime_ms`` and ``timestamp`` must not change between
iterations; it is printed so that runs and commits can be diffed.

With ``--trace 0`` the result carries the end-to-end metrics:

* ``setup_s``: time from before the library import to the first timed
  iteration, the median of three set-ups.  Two run in fresh processes and
  the third is this process's own (``verify-cold`` has none of its own, so
  all three are fresh processes; its set-up is the import).  Fresh
  processes keep repeated set-ups out of this process's memory high-water
  mark.
* ``iter_s.p50`` and ``iter_s.tail``, the median iteration wall time and
  the highest percentile with at least ten samples above it, never below
  the median (the detail line names it).
* ``peak_rss_mb``: ``RUSAGE_CHILDREN`` for ``verify-cold``, the process
  high-water mark otherwise.

The failure ratio is the result's ``failed / attempted``; it is also in the
detail line.  BLAS runs one thread unless ``OPENBLAS_NUM_THREADS`` or
``OMP_NUM_THREADS`` is already set.

With ``--trace 1`` iterations alternate traced and untraced, starting
traced, and the result carries the per-layer metrics (means per traced
iteration) from the spans that ``tracer.py`` records, the ``setup.*``
spans of this process's own set-up, and the traced and untraced
``iter_s.p50`` that give the tracing overhead.  The per-function table and
the raw spans go to ``.bench_build/perfbench/trace-<workload>-seed<N>.json``.
A traced run times no set-up probes.

Standard output ends with two JSON lines: a detail object (machine facts,
samples, digest, failure ratio) and the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("verify-cold", "completion-solve", "claims-warm")
SETUP_REPS = 3
# a median of fewer samples follows single slow iterations (verify-cold
# takes 9 to 13 s an iteration, and a traced run needs both kinds)
MIN_ITERATIONS = 3
EXPECTED_CLAIMS = 98
COMPLETION_NS = (2, 3, 6, 7)
COMPLETION_NULLITY = {2: 1, 3: 1, 6: 0, 7: 1}
N7_SIGNATURES = {(0, 36, 0), (8, 28, 0)}
GROUPS = ("tables", "jacobi", "heisenberg", "curvature", "splitting", "catalog")
SUBPROCESS_TIMEOUT_S = 100
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")
# one BLAS thread per worker unless the caller says otherwise: the pool of
# claims-warm then runs no more compute threads than cores, and no figure
# depends on how BLAS threads contend with other load on a shared machine
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# per-layer metrics read straight from the span table: (span name, field)
SPAN_METRICS = (
    ("completion.complete_bracket", "calls"),
    ("completion.complete_bracket", "self_s"),
    ("completion.complete_bracket", "n6_s"),
    ("completion.svd", "calls"),
    ("completion.svd", "self_s"),
    ("completion.svd", "rows"),
    ("completion.svd", "cols"),
    ("completion.svd", "bytes"),
    ("algebra.jacobiator", "calls"),
    ("algebra.jacobiator", "self_s"),
    ("algebra.jacobiator", "flops"),
    ("algebra.killing_form", "calls"),
    ("algebra.killing_form", "self_s"),
    ("spaces.build_clifford_space", "calls"),
    ("spaces.build_clifford_space", "self_s"),
    ("spaces.catalog_entry", "calls"),
    ("spaces.catalog_entry", "self_s"),
    ("spaces.isotropy_representation", "calls"),
    ("spaces.isotropy_representation", "self_s"),
    ("reps.cohomogeneity", "calls"),
    ("reps.cohomogeneity", "self_s"),
    ("reps.orbit_dimension", "calls"),
    ("reps.orbit_dimension", "self_s"),
    ("reps.isotropy_subalgebra", "calls"),
    ("reps.isotropy_subalgebra", "self_s"),
    ("reps.splitting_criterion", "calls"),
    ("reps.splitting_criterion", "self_s"),
    ("linalg.matrix_rank", "calls"),
    ("linalg.matrix_rank", "self_s"),
    ("linalg.nullspace", "calls"),
    ("linalg.nullspace", "self_s"),
    ("geometry.curvature_tensor", "calls"),
    ("geometry.curvature_tensor", "self_s"),
    ("geometry.riemann_finite_difference", "calls"),
    ("geometry.riemann_finite_difference", "self_s"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description="liecoh benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up in this fresh process and exit")
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def report_digest(reports) -> str:
    """SHA-256 of the sorted JSON reports without their timing fields."""
    rows = sorted(json.dumps({k: v for k, v in rep.items()
                              if k not in ("runtime_ms", "timestamp")}, sort_keys=True)
                  for rep in reports)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def tail(samples):
    """Highest percentile with at least ten samples above it, never below p50."""
    xs = sorted(samples)
    n = len(xs)
    if n < 21:
        return statistics.median(xs), "p50"
    i = n - 11
    return xs[i], f"p{100.0 * (i + 1) / n:.1f}"


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):  # git would search parents
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(traced: bool) -> dict:
    import numpy
    import scipy
    import liecoh

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "liecoh": liecoh.__version__,
        "git_commit": git_commit(),
        "traced": traced,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)


class Outcome:
    """One timed iteration: its seconds, operations attempted and failed, digest."""

    def __init__(self, seconds, attempted, failed, reports=None):
        self.seconds, self.attempted, self.failed = seconds, attempted, failed
        self.reports = reports
        self.digest = report_digest(reports) if reports is not None else None


def check_reports(seconds, reports) -> Outcome:
    """Every claim must pass, and all 98 must be there."""
    failed = sum(rep["status"] != "pass" for rep in reports)
    failed += max(0, EXPECTED_CLAIMS - len(reports))
    return Outcome(seconds, max(EXPECTED_CLAIMS, len(reports)), failed, reports)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


class VerifyCold:
    """A fresh ``liecoh verify`` process per iteration."""

    in_process = False
    jobs = 1
    setup_failed = 0

    def __init__(self, seed, tracer):
        self.seed, self.tracer = seed, tracer

    def setup_once(self):
        # what every iteration's process pays before its first claim
        import liecoh.cli  # noqa: F401

    def iteration(self, traced) -> Outcome:
        argv = ["verify", "--json", "--jobs", "1", "--seed", str(self.seed)]
        spans_path = os.path.join(OUT_DIR, f"spans-{os.getpid()}.json")
        child = [os.path.join(HERE, "tracer.py"), spans_path] if traced else ["-m", "liecoh.cli"]
        t0 = time.perf_counter()
        out = run_child([*child, *argv])
        seconds = time.perf_counter() - t0
        if traced:
            with open(spans_path) as fh:
                self.tracer.load(json.load(fh))
            os.remove(spans_path)
        lines = [json.loads(line) for line in out.stdout.splitlines() if line.strip()]
        outcome = check_reports(seconds, [row for row in lines if row.get("type") == "report"])
        summary = next((row for row in lines if row.get("type") == "summary"), {})
        if out.returncode != 0 or summary.get("passed") != EXPECTED_CLAIMS:
            outcome.failed = max(outcome.failed, 1)
        return outcome

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class InProcess:
    """A workload that calls the library in this process."""

    in_process = True
    jobs = 1
    setup_failed = 0

    def __init__(self, tracer):
        self.tracer = tracer
        t0 = time.perf_counter()
        import liecoh.cli  # noqa: F401  (the whole package, as the CLI loads it)
        self.import_s = time.perf_counter() - t0

    def timed(self, fn, traced):
        """Run ``fn`` (under the tracer if ``traced``); its result and seconds."""
        if traced:
            self.tracer.install()
        try:
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
        finally:
            if traced:
                self.tracer.uninstall()
        return result, seconds

    @staticmethod
    def peak_rss_mb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CompletionSolve(InProcess):
    """The four Clifford completion solves, in a seeded order."""

    def __init__(self, seed, tracer):
        super().__init__(tracer)
        from liecoh import algebra, completion, spaces

        self.algebra, self.completion, self.spaces = algebra, completion, spaces
        self.rng = random.Random(seed)
        self.mu = 1.0 / math.sqrt(2.0)

    def setup_once(self):
        # builds every problem and warms the LAPACK path on the two small solves
        problems = {n: self.spaces.clifford_completion_problem(n, 1.0, self.mu)
                    for n in COMPLETION_NS}
        for n in (2, 3):
            self.completion.complete_bracket(problems[n])

    def _solve(self, order):
        return {n: self.completion.complete_bracket(
            self.spaces.clifford_completion_problem(n, 1.0, self.mu)) for n in order}

    def iteration(self, traced) -> Outcome:
        order = list(COMPLETION_NS)
        self.rng.shuffle(order)
        solutions, seconds = self.timed(lambda: self._solve(order), traced)
        failed = 0
        for n, sol in solutions.items():
            ok = sol.nullity == COMPLETION_NULLITY[n] and not sol.empty
            if ok and n == 7:
                sigs = {self.algebra.signature(self.algebra.killing_form(sol.realize([w])))
                        for w in (1.0, -1.0)}
                ok = sigs == N7_SIGNATURES
            failed += not ok
        return Outcome(seconds, len(solutions), failed)


class ClaimsWarm(InProcess):
    """``run_suite`` over a warm catalog and a warm completion cache."""

    def __init__(self, seed, tracer):
        super().__init__(tracer)
        from liecoh import claims, spaces

        self.claims, self.spaces = claims, spaces
        self.cfg = claims.RunConfig(seed=seed)
        self.jobs = min(2, nproc())

    def _suite(self):
        return self.claims.run_suite(self.cfg, jobs=self.jobs)

    def setup_once(self):
        # the n=6 completion is cached by the first suite, not by the catalog
        self.spaces.catalog()
        self.setup_failed = self.iteration_from(self._suite(), 0.0).failed

    @staticmethod
    def iteration_from(result, seconds) -> Outcome:
        return check_reports(seconds, [rep.to_json_dict() for rep in result.reports])

    def iteration(self, traced) -> Outcome:
        result, seconds = self.timed(self._suite, traced)
        return self.iteration_from(result, seconds)


def make_workload(name, seed, tracer):
    classes = {"verify-cold": VerifyCold, "completion-solve": CompletionSolve,
               "claims-warm": ClaimsWarm}
    return classes[name](seed, tracer)


def probe_setup(name, seed) -> dict:
    """Set a workload up once in a fresh process (see ``time_one_setup``)."""
    out = run_child([os.path.abspath(__file__), "--setup-probe", "--workload", name,
                     "--seed", str(seed), "--seconds", "0"])
    if out.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def time_one_setup(name, seed) -> int:
    """Time, from before the library import, one set-up of a workload."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    wl = make_workload(name, seed, None)
    wl.setup_once()
    print(json.dumps({"setup_s": time.perf_counter() - t0, "failed": wl.setup_failed}))
    return 0


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_UNITS = {"calls": "count", "rows": "count", "cols": "count", "bytes": "B", "flops": "flop"}


def layer_metrics(tracer_mod, iter_tracer, traced, setup_tracer, import_s, jobs) -> dict:
    """Per-layer metrics: means per traced iteration, plus the set-up spans."""
    k = len(traced)
    table = tracer_mod.aggregate(iter_tracer.spans)
    metrics = {}
    for name, field in SPAN_METRICS:
        metrics[f"{name}.{field}"] = (table.get(name, {}).get(field, 0) / k,
                                      _UNITS.get(field, "s"))
    hits = iter_tracer.counters["catalog_entry.hits"]
    lookups = hits + iter_tracer.counters["catalog_entry.misses"]
    metrics["spaces.catalog_entry.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")

    runtime = {g: 0.0 for g in GROUPS}
    for outcome in traced:
        for rep in outcome.reports or ():
            runtime[rep["group"]] += rep["runtime_ms"] / 1000.0
    for group in GROUPS:
        metrics[f"claims.{group}.s"] = (runtime[group] / k, "s")
    phases = tracer_mod.suite_phases(iter_tracer.spans)
    metrics["claims.warmup_s"] = (phases["warmup_s"] / k, "s")
    busy = sum(runtime.values())
    wall = phases["claims_wall_s"]
    metrics["claims.pool_busy_ratio"] = (busy / (jobs * wall) if wall else 0.0, "ratio")
    if "cli.import" in table:
        import_s = table["cli.import"]["total_s"] / k
    metrics["cli.import_s"] = (import_s, "s")

    setup = tracer_mod.aggregate(setup_tracer.spans)
    metrics["setup.catalog_s"] = (setup.get("spaces.catalog", {}).get("total_s", 0.0), "s")
    metrics["setup.suite_s"] = (setup.get("claims.run_suite", {}).get("total_s", 0.0), "s")
    metrics["setup.completion.n6_s"] = (
        setup.get("completion.complete_bracket", {}).get("n6_s", 0.0), "s")
    return metrics, table, setup


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------


def run(args):
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tracer as tracer_mod

    os.makedirs(OUT_DIR, exist_ok=True)
    program_seed = args.seed % 2 ** 31
    iter_tracer, setup_tracer = tracer_mod.Tracer(), tracer_mod.Tracer()

    start = time.perf_counter()
    wl = make_workload(args.workload, program_seed, iter_tracer)
    # set-up is timed in fresh processes, plus this one's own for in-process
    # workloads; a traced run reports no setup_s and skips the probes
    probes = [probe_setup(args.workload, program_seed)
              for _ in range(0 if args.trace else SETUP_REPS - wl.in_process)]
    setup_reps = [p["setup_s"] for p in probes]
    setup_failed = sum(p["failed"] for p in probes)
    if wl.in_process:
        t0 = time.perf_counter()
        if args.trace:
            with setup_tracer.installed():
                wl.setup_once()
        else:
            wl.setup_once()
        setup_reps.append(wl.import_s + time.perf_counter() - t0)
        setup_failed += wl.setup_failed
    setup_wall_s = time.perf_counter() - start

    outcomes, traced_outcomes, untraced_outcomes = [], [], []
    deadline = time.perf_counter() + args.seconds
    while len(outcomes) < MIN_ITERATIONS or time.perf_counter() < deadline:
        traced = bool(args.trace) and len(outcomes) % 2 == 0
        outcome = wl.iteration(traced)
        outcomes.append(outcome)
        (traced_outcomes if traced else untraced_outcomes).append(outcome)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) + setup_failed
    digests = sorted({o.digest for o in outcomes if o.digest is not None})
    samples = [o.seconds for o in untraced_outcomes]
    correct = failed == 0 and len(digests) <= 1

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "program_seed": program_seed,
        "seconds": args.seconds,
        "machine": machine_facts(bool(args.trace)),
        "closed_loop_clients": 1,
        "jobs": wl.jobs,
        "iterations": len(outcomes),
        "setup_reps_s": setup_reps,
        "setup_wall_s": setup_wall_s,
        "import_s": getattr(wl, "import_s", None),
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "digest": digests[0] if len(digests) == 1 else (digests or None),
    }
    if args.trace:
        traced_p50 = statistics.median(o.seconds for o in traced_outcomes)
        untraced_p50 = statistics.median(samples)
        metrics, table, setup_table = layer_metrics(
            tracer_mod, iter_tracer, traced_outcomes, setup_tracer,
            getattr(wl, "import_s", 0.0), wl.jobs)
        metrics["trace.iter_s.p50_traced"] = (traced_p50, "s")
        metrics["trace.iter_s.p50_untraced"] = (untraced_p50, "s")
        metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50, "ratio")
        detail["traced_iterations"] = len(traced_outcomes)
        detail["untraced_iterations"] = len(untraced_outcomes)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"detail": detail, "iterations": table, "setup": setup_table,
                       "spans": iter_tracer.dump()["spans"]}, fh)
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        tail_value, tail_pct = tail(samples)
        metrics = {
            "setup_s": (statistics.median(setup_reps), "s"),
            "iter_s.p50": (statistics.median(samples), "s"),
            "iter_s.tail": (tail_value, "s"),
            "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        }
        detail["iter_s"] = samples
        detail["iter_s.tail_percentile"] = tail_pct
    bad = [name for name in metrics if not NAME_RE.match(name)]
    if bad:
        raise RuntimeError(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "liecoh")):
        print(f"no liecoh sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return time_one_setup(args.workload, args.seed)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
