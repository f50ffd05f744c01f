"""Per-claim warm times of one or more ``src`` trees, as minima over many suites.

    python tools/claim_times.py [--suites N] SRC [SRC ...]

Each tree runs in ``PROCESSES = 4`` fresh processes, taken in alternation:
tree 1, tree 2, ..., tree 1, tree 2, ...  A process imports ``liecoh`` from
its tree with ``OPENBLAS_NUM_THREADS=1`` (unless set), builds the catalog,
runs one suite to warm every cache, then times each claim of ``N`` more
suites (default 10) of the default ``RunConfig`` with ``time.perf_counter``
around ``claims._run_one``, the call ``run_suite`` makes.  The script prints, for every tree, the minimum
over all suites of every claim, then the sums of those minima per family
(the first two parts of the claim id, such as ``catalog.cohomogeneity``),
per group and in total, in milliseconds.  With two trees or more, a last
column gives the change of the last tree against the first.

A minimum over warm suites drops the first-call costs and most of the noise
of a shared host, so small kernel changes show at the claim where they act.
It is no end-to-end figure: the benchmark in ``perfbench/`` gives those.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from collections import defaultdict

PROCESSES = 4


def child(src: str, suites: int) -> None:
    sys.path.insert(0, src)
    from liecoh import claims, spaces

    cfg = claims.RunConfig()
    spaces.catalog()
    claims.run_suite(cfg)
    times = defaultdict(list)
    groups = {}
    for _ in range(suites):
        for entry in claims.build_claims():
            t0 = time.perf_counter()
            report = claims._run_one(entry, cfg)
            times[entry[0]].append(time.perf_counter() - t0)
            groups[entry[0]] = entry[1]
            if report.status != "pass":
                raise SystemExit(f"{entry[0]} did not pass in {src}")
    json.dump({"times": times, "groups": groups}, sys.stdout)


def run_tree(src: str, suites: int) -> dict:
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", src,
                          "--suites", str(suites)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def family(claim_id: str) -> str:
    return ".".join(claim_id.split(".")[:2])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", help="a src directory holding the liecoh package")
    parser.add_argument("--suites", type=int, default=10, help="timed suites per process")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.src[0], args.suites)
        return
    trees = [os.path.abspath(src) for src in args.src]
    best = [defaultdict(lambda: float("inf")) for _ in trees]
    groups = {}
    for _ in range(PROCESSES):
        for k, src in enumerate(trees):
            run = run_tree(src, args.suites)
            groups.update(run["groups"])
            for claim_id, seconds in run["times"].items():
                best[k][claim_id] = min(best[k][claim_id], min(seconds))

    claim_rows = [(claim_id, [b[claim_id] for b in best]) for claim_id in sorted(groups)]
    rows = list(claim_rows)
    for label, key in (("family", family), ("group", groups.get), ("total", lambda _: "all")):
        sums = defaultdict(lambda: [0.0] * len(trees))
        for claim_id, values in claim_rows:
            for k, v in enumerate(values):
                sums[f"{label} {key(claim_id)}"][k] += v
        rows += sorted(sums.items())

    for k, src in enumerate(trees):
        print(f"# tree {k + 1}: {src}")
    print(f"# minima over {PROCESSES} processes x {args.suites} suites, in ms")
    for name, values in rows:
        cells = " ".join(f"{1000 * v:9.3f}" for v in values)
        if len(trees) > 1 and values[0]:
            cells += f" {100 * (values[-1] / values[0] - 1):+7.1f}%"
        print(f"{name:60s} {cells}")


if __name__ == "__main__":
    main()
