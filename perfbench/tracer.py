"""In-memory span tracer for the liecoh benchmark.

The tracer wraps the public functions of the measured ``liecoh`` modules
from the outside: every module-level name that refers to a wrapped function
(including names bound by ``from .x import f``) is rebound to a wrapper for
as long as the tracer is installed, and restored afterwards.  ``src/`` is
never edited.  ``numpy.linalg.svd`` is wrapped only as ``completion`` sees
it, through a view of ``numpy`` bound to ``completion.np``.

A span is ``[name, start, end, parent, attrs]``; ``parent`` is the
enclosing span of the same thread, or, for the first span of a pool worker
thread, the innermost open span of the thread that installed the tracer.
Spans stay in memory and are aggregated (or written out) once at the end.

Run as a script, the module is the traced ``liecoh`` command line::

    python3 perfbench/tracer.py SPANS.json verify --json --jobs 1 --seed 7

It imports ``liecoh.cli`` (recording the import as ``cli.import``), runs
``liecoh.cli.main`` traced, writes its spans to ``SPANS.json`` and exits
with the command's exit code.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

LAYERS = ("cli", "claims", "spaces", "completion", "algebra", "reps", "geometry", "linalg")

# the per-claim boundary of run_suite; private, but it is the only place
# that separates the claims phase from the catalog warm-up
CLAIM_SPAN = "claims._run_one"

# skeleton dimension of the Clifford completion problem -> n
_COMPLETION_N = {10: 2, 13: 3, 29: 6, 36: 7}


def _span_attrs(name, args):
    """Work counts recorded with a span, from the call's arguments."""
    if name == "algebra.jacobiator":
        d = args[0].dim
        return {"flops": 6 * d ** 5}
    if name == "completion.complete_bracket":
        return {"n": _COMPLETION_N.get(args[0].skeleton.dim, 0)}
    if name == "completion.svd":
        rows, cols = args[0].shape
        return {"rows": rows, "cols": cols, "bytes": rows * cols * 8}
    return None


class _ModuleView(types.ModuleType):
    """A module that reads through to ``base`` except for ``overrides``."""

    def __init__(self, base, overrides):
        super().__init__(base.__name__)
        self._base = base
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._base, name)


def public_functions(module):
    """(name, function) for every public function defined in ``module``."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    out = []
    for name in names:
        obj = getattr(module, name)
        is_fn = inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)
        if is_fn and getattr(obj, "__module__", None) == module.__name__:
            out.append((name, obj))
    return out


class Tracer:
    """Spans and cache counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._local = threading.local()
        self._root_stack: list = []
        self._patches: list[tuple] = []
        self._cache_before = None
        self.counters = {"catalog_entry.hits": 0, "catalog_entry.misses": 0}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name, attrs):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._root_stack[-1]
            except IndexError:
                parent = None
        rec = [name, time.perf_counter(), 0.0, parent, attrs]
        stack.append(rec)
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack().pop()

    def record(self, name, start, end):
        """Add a top-level span measured elsewhere (for example an import)."""
        self.spans.append([name, start, end, None, None])

    def wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = tracer._open(name, _span_attrs(name, args))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(rec)

        return traced

    def install(self):
        """Rebind every public function of the measured modules to a wrapper."""
        import numpy
        import liecoh.cli  # noqa: F401  (imports every measured module)

        self._root_stack = self._stack()
        self._cache_before = sys.modules["liecoh.spaces"].catalog_entry.cache_info()
        mods = [m for k, m in sorted(sys.modules.items())
                if (k == "liecoh" or k.startswith("liecoh.")) and m is not None]
        wrapped = {}  # id of a live function -> its wrapper
        for layer in LAYERS:
            module = sys.modules[f"liecoh.{layer}"]
            for name, fn in public_functions(module):
                wrapped[id(fn)] = self.wrap(f"{layer}.{name}", fn)
        run_one = sys.modules["liecoh.claims"]._run_one
        wrapped[id(run_one)] = self.wrap(CLAIM_SPAN, run_one)
        for module in mods:
            for attr, value in list(vars(module).items()):
                wrapper = wrapped.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        completion = sys.modules["liecoh.completion"]
        svd = self.wrap("completion.svd", numpy.linalg.svd)
        view = _ModuleView(numpy, {"linalg": _ModuleView(numpy.linalg, {"svd": svd})})
        self._patches.append((completion, "np", completion.np))
        completion.np = view

    def uninstall(self):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        after = sys.modules["liecoh.spaces"].catalog_entry.cache_info()
        self.counters["catalog_entry.hits"] += after.hits - self._cache_before.hits
        self.counters["catalog_entry.misses"] += after.misses - self._cache_before.misses

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- serialisation ------------------------------------------------------

    def dump(self) -> dict:
        """Spans with parents as list indices, and the cache counters."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[r[0], r[1], r[2], index.get(id(r[3])), r[4]] for r in self.spans]
        return {"spans": rows, "counters": self.counters}

    def load(self, data):
        """Append the spans and counters of a ``dump`` (another process's)."""
        spans = [list(r) for r in data["spans"]]
        for rec in spans:
            if rec[3] is not None:
                rec[3] = spans[rec[3]]
        self.spans.extend(spans)
        for key, value in data["counters"].items():
            self.counters[key] += value


# -- aggregation --------------------------------------------------------------


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        s, e = max(s, start), min(e, end)
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def aggregate(spans) -> dict:
    """Per span name: calls, total seconds, self seconds and summed attrs.

    Self time is the span's duration minus the part of it that child spans
    cover; children of one span in several pool threads overlap, so the
    covered part is the union of their intervals.
    """
    children = defaultdict(list)
    for rec in spans:
        if rec[3] is not None:
            children[id(rec[3])].append(rec)
    table: dict = {}
    for rec in spans:
        row = table.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = rec[2] - rec[1]
        kids = children.get(id(rec), ())
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - _covered(rec[1], rec[2], [(k[1], k[2]) for k in kids])
        for key, value in (rec[4] or {}).items():
            if key == "n":  # seconds per completion problem size
                key, value = f"n{value}_s", dur
            row[key] = row.get(key, 0) + value
    return table


def _ancestors(rec):
    rec = rec[3]
    while rec is not None:
        yield rec
        rec = rec[3]


def suite_phases(spans) -> dict:
    """Catalog warm-up and claims-phase wall time inside ``claims.run_suite``.

    Warm-up is every outermost ``spaces.catalog_entry`` span that run_suite
    reaches outside any claim (through ``build_claims`` or its warm-up loop).
    The claims phase runs from the first claim's start to the last one's end.
    """
    warmup, claims_wall = 0.0, 0.0
    by_suite = defaultdict(list)
    for rec in spans:
        if rec[0] == "spaces.catalog_entry":
            names = [a[0] for a in _ancestors(rec)]
            if ("claims.run_suite" in names and CLAIM_SPAN not in names
                    and "spaces.catalog_entry" not in names):
                warmup += rec[2] - rec[1]
        elif rec[0] == CLAIM_SPAN:
            suite = next((a for a in _ancestors(rec) if a[0] == "claims.run_suite"), None)
            if suite is not None:
                by_suite[id(suite)].append(rec)
    for recs in by_suite.values():
        claims_wall += max(r[2] for r in recs) - min(r[1] for r in recs)
    return {"warmup_s": warmup, "claims_wall_s": claims_wall}


def _main(argv) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    tracer = Tracer()
    t0 = time.perf_counter()
    import liecoh.cli
    tracer.record("cli.import", t0, time.perf_counter())
    with tracer.installed():
        code = liecoh.cli.main(cli_argv)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
