"""Per-claim warm times of one or more ``src`` trees, as minima over many suites.

    python tools/claim_times.py [--suites N] SRC [SRC ...]

Each tree runs in 4 fresh processes, taken in alternation, by the harness
of ``timing_harness.py``.  A process builds the catalog, runs one suite to
warm every cache, then times each claim of ``N`` more suites (default 10)
of the default ``RunConfig`` with ``time.perf_counter`` around
``claims._run_one``, the call ``run_suite`` makes.  The script prints, for
every tree, the minimum over all suites of every claim, then the sums of
those minima per family (the first two parts of the claim id, such as
``catalog.cohomogeneity``), per group and in total, in milliseconds.  With
two trees or more, a last column gives the change of the last tree against
the first.

A minimum over warm suites drops the first-call costs and most of the noise
of a shared host, so small kernel changes show at the claim where they act.
It is no end-to-end figure: the benchmark in ``perfbench/`` gives those.
"""

import json
import os
import sys
import time
from collections import defaultdict

from timing_harness import minima, parse_args, print_table


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


def family(claim_id: str) -> str:
    return ".".join(claim_id.split(".")[:2])


def main(argv=None) -> None:
    args = parse_args(__doc__, "--suites", 10, "timed suites per process", argv)
    if args.child:
        child(args.src[0], args.suites)
        return
    trees = [os.path.abspath(src) for src in args.src]
    best, extra = minima(__file__, trees, "--suites", str(args.suites))
    groups = extra["groups"]

    claim_rows = [(claim_id, [b.get(claim_id, float("inf")) for b in best])
                  for claim_id in sorted(groups)]
    rows = list(claim_rows)
    for label, key in (("family", family), ("group", groups.get), ("total", lambda _: "all")):
        sums = defaultdict(lambda: [0.0] * len(trees))
        for claim_id, values in claim_rows:
            for k, v in enumerate(values):
                sums[f"{label} {key(claim_id)}"][k] += v
        rows += sorted(sums.items())
    print_table(trees, rows, f"{args.suites} suites", 60)


if __name__ == "__main__":
    main()
