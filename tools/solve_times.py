"""Completion solve times of one or more ``src`` trees, as minima over many solves.

    python tools/solve_times.py [--repeats N] SRC [SRC ...]

Each tree runs in 4 fresh processes, taken in alternation, by the harness
of ``timing_harness.py``.  A process solves each Clifford completion once
to warm it, then solves
``complete_bracket(clifford_completion_problem(n, 1, 1/sqrt 2))`` for
n = 2, 3, 6 and 7, ``N`` times each (default 50), building a fresh problem
before every solve, outside the timing.  ``time.perf_counter`` brackets the
solve and ``completion._assemble`` within it.  The script prints, for every
tree, the minimum over all solves of each n of the whole solve, of
``_assemble`` and of the rest (each minimum taken on its own), in
milliseconds.  With two trees or more, a last column gives the change of
the last tree against the first.  Below the times it prints, for every tree
and one more solve of each n after its timed ones, how many times it called
``np.linalg.eigvalsh`` and ``np.linalg.eigh`` (one call per block that forms
its Gram, and one per block that forms its eigenvectors), how many entries
``_assemble`` built for it, and its minor page faults (``ru_minflt``).

This is the layer benchmark of the completion solve.  It is no end-to-end
figure: the benchmark in ``perfbench/`` gives those.
"""

import json
import os
import resource
import sys
import time

from timing_harness import minima, parse_args, print_table

NS = (2, 3, 6, 7)


def child(src: str, repeats: int) -> None:
    sys.path.insert(0, src)
    from liecoh import completion, spaces

    assemble = completion._assemble
    spent, entries = [], []

    def timed_assemble(*args):
        t0 = time.perf_counter()
        out = assemble(*args)
        spent.append(time.perf_counter() - t0)
        entries.append(out[0].size)
        return out

    completion._assemble = timed_assemble
    mu = 2.0 ** -0.5
    times, calls = {}, {}
    for n in NS:
        completion.complete_bracket(spaces.clifford_completion_problem(n, 1.0, mu))
        rows = {part: times.setdefault(f"n{n} {part}", [])
                for part in ("solve", "assemble", "rest")}
        for _ in range(repeats):
            problem = spaces.clifford_completion_problem(n, 1.0, mu)
            del spent[:]
            t0 = time.perf_counter()
            completion.complete_bracket(problem)
            total = time.perf_counter() - t0
            rows["solve"].append(total)
            rows["assemble"].append(sum(spent))
            rows["rest"].append(total - sum(spent))
        del entries[:]
        counts = counted_solve(completion, spaces.clifford_completion_problem(n, 1.0, mu))
        counts["entries"] = sum(entries)
        for name, count in counts.items():
            calls[f"n{n} {name}"] = count
    json.dump({"times": times, "calls": {src: calls}}, sys.stdout)


def counted_solve(completion, problem) -> dict:
    """The ``eigvalsh`` and ``eigh`` calls and the minor faults of ``complete_bracket(problem)``."""
    linalg = completion.np.linalg
    solvers = {name: getattr(linalg, name) for name in ("eigvalsh", "eigh")}
    counts = dict.fromkeys(solvers, 0)

    def counting(name):
        def solver(*args, **kwargs):
            counts[name] += 1
            return solvers[name](*args, **kwargs)
        return solver

    try:
        for name in solvers:
            setattr(linalg, name, counting(name))
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        completion.complete_bracket(problem)
        counts["faults"] = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    finally:
        for name, solver in solvers.items():
            setattr(linalg, name, solver)
    return counts


def main(argv=None) -> None:
    args = parse_args(__doc__, "--repeats", 50, "timed solves of each n per process", argv)
    if args.child:
        child(args.src[0], args.repeats)
        return
    trees = [os.path.abspath(src) for src in args.src]
    best, extra = minima(__file__, trees, "--repeats", str(args.repeats))
    rows = [(name, [b.get(name, float("inf")) for b in best]) for name in best[0]]
    print_table(trees, rows, f"{args.repeats} solves", 16)
    calls = [extra["calls"][src] for src in trees]
    print("# eigvalsh and eigh calls, entries assembled and minor page faults of one solve")
    for name in calls[0]:
        print(f"{name:16s} " + " ".join(f"{c.get(name, 0):9d}" for c in calls))


if __name__ == "__main__":
    main()
