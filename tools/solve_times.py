"""Completion solve times of one or more ``src`` trees, as minima over many solves.

    python tools/solve_times.py [--repeats N] SRC [SRC ...]

Each tree runs in ``PROCESSES = 4`` fresh processes, taken in alternation:
tree 1, tree 2, ..., tree 1, tree 2, ...  A process imports ``liecoh`` from
its tree with ``OPENBLAS_NUM_THREADS=1`` (unless set), solves each Clifford
completion once to warm it, then solves
``complete_bracket(clifford_completion_problem(n, 1, 1/sqrt 2))`` for
n = 2, 3, 6 and 7, ``N`` times each (default 50), building a fresh problem
before every solve, outside the timing.  ``time.perf_counter`` brackets the
solve and ``completion._assemble`` within it.  The script prints, for every
tree, the minimum over all solves of each n of the whole solve, of
``_assemble`` and of the rest (each minimum taken on its own), in
milliseconds.  With two trees or more, a last column gives the change of
the last tree against the first.

This is the layer benchmark of the completion solve.  It is no end-to-end
figure: the benchmark in ``perfbench/`` gives those.
"""

import argparse
import json
import os
import subprocess
import sys
import time

PROCESSES = 4
NS = (2, 3, 6, 7)


def child(src: str, repeats: int) -> None:
    sys.path.insert(0, src)
    from liecoh import completion, spaces

    assemble = completion._assemble
    spent = []

    def timed_assemble(problem):
        t0 = time.perf_counter()
        out = assemble(problem)
        spent.append(time.perf_counter() - t0)
        return out

    completion._assemble = timed_assemble
    mu = 2.0 ** -0.5
    times = {}
    for n in NS:
        completion.complete_bracket(spaces.clifford_completion_problem(n, 1.0, mu))
        rows = times[n] = {"solve": [], "assemble": [], "rest": []}
        for _ in range(repeats):
            problem = spaces.clifford_completion_problem(n, 1.0, mu)
            del spent[:]
            t0 = time.perf_counter()
            completion.complete_bracket(problem)
            total = time.perf_counter() - t0
            rows["solve"].append(total)
            rows["assemble"].append(sum(spent))
            rows["rest"].append(total - sum(spent))
    json.dump(times, sys.stdout)


def run_tree(src: str, repeats: int) -> dict:
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child", src,
                          "--repeats", str(repeats)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", nargs="+", help="a src directory holding the liecoh package")
    parser.add_argument("--repeats", type=int, default=50, help="timed solves of each n per process")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        child(args.src[0], args.repeats)
        return
    trees = [os.path.abspath(src) for src in args.src]
    best = [{} for _ in trees]
    for _ in range(PROCESSES):
        for k, src in enumerate(trees):
            for n, parts in run_tree(src, args.repeats).items():
                for part, seconds in parts.items():
                    key = f"n{n} {part}"
                    best[k][key] = min(best[k].get(key, float("inf")), min(seconds))

    for k, src in enumerate(trees):
        print(f"# tree {k + 1}: {src}")
    print(f"# minima over {PROCESSES} processes x {args.repeats} solves, in ms")
    for name in best[0]:
        values = [b[name] for b in best]
        cells = " ".join(f"{1000 * v:9.3f}" for v in values)
        if len(trees) > 1 and values[0]:
            cells += f" {100 * (values[-1] / values[0] - 1):+7.1f}%"
        print(f"{name:16s} {cells}")


if __name__ == "__main__":
    main()
