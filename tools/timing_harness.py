"""The harness shared by ``claim_times.py`` and ``solve_times.py``.

A timer script compares one or more ``src`` trees.  Its parent process runs
the script again as a child (``SCRIPT --child SRC ...``) ``PROCESSES = 4``
times per tree, taken in alternation: tree 1, tree 2, ..., tree 1, tree 2,
...  A child imports ``liecoh`` from its tree, with ``OPENBLAS_NUM_THREADS=1``
unless set, and writes one JSON object to stdout whose ``"times"`` maps each
timed key to its list of seconds.  The parent keeps every key's minimum per
tree and prints them in milliseconds, with a last column that gives the
change of the last tree against the first when there are two trees or more.
"""

import argparse
import json
import os
import subprocess
import sys

PROCESSES = 4


def parse_args(doc: str, flag: str, default: int, help: str, argv=None):
    """The command line of a timer: ``[FLAG N] SRC [SRC ...]``, and the hidden ``--child``."""
    parser = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    parser.add_argument("src", nargs="+", help="a src directory holding the liecoh package")
    parser.add_argument(flag, type=int, default=default, help=help)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_tree(script: str, src: str, *args: str) -> dict:
    """The JSON object of one child process of ``script`` on the tree ``src``."""
    env = dict(os.environ)
    env.setdefault("OPENBLAS_NUM_THREADS", "1")
    out = subprocess.run([sys.executable, os.path.abspath(script), "--child", src, *args],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def minima(script: str, trees: list, *args: str) -> tuple[list, dict]:
    """Every tree's per-key minimum of ``"times"``, over ``PROCESSES`` alternating children.

    Also returns the other fields of the children's objects, merged.
    """
    best = [{} for _ in trees]
    extra = {}
    for _ in range(PROCESSES):
        for k, src in enumerate(trees):
            run = run_tree(script, src, *args)
            for key, seconds in run.pop("times").items():
                best[k][key] = min(best[k].get(key, float("inf")), min(seconds))
            for field, value in run.items():
                extra.setdefault(field, {}).update(value)
    return best, extra


def print_table(trees: list, rows, what: str, width: int) -> None:
    """Print the trees, then one line per ``(name, seconds per tree)`` row, in ms."""
    for k, src in enumerate(trees):
        print(f"# tree {k + 1}: {src}")
    print(f"# minima over {PROCESSES} processes x {what}, in ms")
    for name, values in rows:
        cells = " ".join(f"{1000 * v:9.3f}" for v in values)
        if len(trees) > 1 and values[0]:
            cells += f" {100 * (values[-1] / values[0] - 1):+7.1f}%"
        print(f"{name:{width}s} {cells}")
