"""Inventory of the code that the product never runs.

One ``verify --json``, one ``catalog --json`` and one ``export`` of every
catalog id run in a child process under ``sys.setprofile``, installed before
the package is imported (a fresh process, so no cache filled by another test
hides a call).  Every module-level function and every method defined in
``src/liecoh``, private ones included, counts one by one; so does every class
that has a function at all, as called when any of its functions ran (the
methods that dataclasses generate count only there).  Each one that none of
the runs calls must be listed in ``NEVER_CALLED`` with its reason, and
nothing else may be: a name that becomes unreachable, or one that a claim
starts to check, changes the list.

A second inventory, read from the source with ``ast``, keeps every
module-level import in use or re-exported through ``__all__``.
"""

import ast
import json
import os
import subprocess
import sys

import liecoh

REFERENCE = "reference model: the gamma matrices are tested against the blade arithmetic"
ORACLE = "test oracle"

NEVER_CALLED = {
    "algebra.ad_matrix": ORACLE,
    "algebra.bracket": ORACLE,
    "algebra.from_json_dict": ORACLE + ": the inverse of the export schema",
    "algebra.pullback_structure": ORACLE,
    "clifford.CliffordElement": REFERENCE,
    "clifford.CliffordElement.__eq__": REFERENCE,
    "clifford.CliffordElement.__post_init__": REFERENCE,
    "clifford.CliffordModule.blade_matrix": REFERENCE,
    "clifford.CliffordModule.element_matrix": REFERENCE,
    "clifford._mul_indices": REFERENCE,
    "clifford.blade": REFERENCE,
    "clifford.clifford_multiply": REFERENCE,
    "clifford.generator": REFERENCE,
    "clifford.scalar": REFERENCE,
    "geometry.InvariantMetricSpace.invariance_residual":
        ORACLE + ": the block-scaled metrics the curvature tests use are invariant",
    "geometry.sphere_space": ORACLE + ": the round sphere of curvature +1",
    "reps.hom_space_dimension": ORACLE + ": the Schur trichotomy",
    "reps.tensor_product": ORACLE + ": the weighted-circle obstruction",
    "spaces.catalog": "the benchmark's claims-warm set-up builds the catalog with it",
}

SCRIPT = """
import sys

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)  # before the imports: what they run is reached too
import contextlib, importlib, inspect, io, json, pkgutil
import liecoh
from liecoh import cli, spaces
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--json"])
        cli.main(["catalog", "--json"])
        for sid in spaces.catalog_ids():
            cli.main(["export", sid])
finally:
    sys.setprofile(None)

def function(obj):
    obj = getattr(obj, "__func__", getattr(obj, "fget", obj))  # class/static method, property
    obj = getattr(obj, "__wrapped__", obj)                      # lru_cache
    return obj if inspect.isfunction(obj) else None

def inventory(mod):
    # (name, code objects) of every function, method and class written in mod
    here = lambda f: f is not None and f.__code__.co_filename == mod.__file__
    for name, obj in vars(mod).items():
        if here(function(obj)):
            yield name, {function(obj).__code__}
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            funcs = [f for f in map(function, vars(obj).values()) if f is not None]
            if funcs:
                yield name, {f.__code__ for f in funcs}
            for attr, member in vars(obj).items():
                if here(function(member)):
                    yield name + "." + attr, {function(member).__code__}

never = []
for info in pkgutil.iter_modules(liecoh.__path__):
    mod = importlib.import_module("liecoh." + info.name)
    never += [info.name + "." + name for name, codes in inventory(mod) if not codes & called]
print(json.dumps(sorted(never)))
"""


def test_functions_and_methods_that_verify_catalog_and_export_never_call():
    src = os.path.dirname(os.path.dirname(liecoh.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == sorted(NEVER_CALLED)


def _unused_imports(path):
    tree = ast.parse(open(path).read())
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used and name not in exported)


def test_every_module_level_import_is_used_or_re_exported():
    src = os.path.dirname(liecoh.__file__)
    stale = {name: _unused_imports(os.path.join(src, name))
             for name in sorted(os.listdir(src)) if name.endswith(".py")}
    assert {name: found for name, found in stale.items() if found} == {}
