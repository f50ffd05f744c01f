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

The same runs record, for every parameter with a default of those functions
and every dataclass field with a default, whether it received its default
and whether it received another value (calls made while the package is
imported do not count).  Each one that the runs set to only one of the two
must be listed in ``ONE_VALUE`` with its reason: a setting with one value in
use is a constant, and a default that is never used is a required argument.

A second inventory, read from the source with ``ast``, keeps every
module-level import of the package and of its tests in use or re-exported
through ``__all__``; a third keeps every name in an ``__all__`` defined; a
fourth keeps the callers of ``span_brackets`` to the ones in
``SPAN_BRACKETS_CALLERS``; a fifth keeps every matrix product of a
``c.reshape(...)`` outside ``algebra`` to ``C_RESHAPE_PRODUCTS``.
"""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import liecoh

ERROR_PATH = "error path: a passing run raises no ValidationError"
READ_ONLY = "guard: no run writes or copies a claim's shared expected value"

NEVER_CALLED = {
    "claims._ReadOnlyDict": READ_ONLY,
    "claims._ReadOnlyDict.__delitem__": READ_ONLY,
    "claims._ReadOnlyDict.__ior__": READ_ONLY,
    "claims._ReadOnlyDict.__reduce__": READ_ONLY,
    "claims._ReadOnlyDict.__setitem__": READ_ONLY,
    "claims._ReadOnlyDict._read_only": READ_ONLY,
    "claims._ReadOnlyDict.clear": READ_ONLY,
    "claims._ReadOnlyDict.pop": READ_ONLY,
    "claims._ReadOnlyDict.popitem": READ_ONLY,
    "claims._ReadOnlyDict.setdefault": READ_ONLY,
    "claims._ReadOnlyDict.update": READ_ONLY,
    "linalg.ValidationError": ERROR_PATH,
    "linalg.ValidationError.__init__": ERROR_PATH,
    "spaces.catalog": "the benchmark's claims-warm set-up builds the catalog with it",
}

ONE_VALUE = {
    "claims.RunConfig.groups": "set by --group and the config file",
    "claims.RunConfig.seed": "set by --seed and the config file",
    "claims.run_suite.jobs": "the benchmark passes it (ROADMAP item 12)",
    "cli.main.argv": "the console entry point passes None",
    "geometry.InvariantMetricSpace.block_scales": "ROADMAP item 6 needs block-scaled metrics",
    "reps.cohomogeneity.seed": "the claims pass the run seed",
}

# Every bracket of a reductive space is read in its frame, by its one frame
# read; the other two callers bracket a bare algebra.
SPAN_BRACKETS_CALLERS = {
    "algebra.nilpotency_class",
    "reps.kernel_ideal",
    "spaces.ReductiveSpace.brackets",
}

# Contractions of structure constants against a basis live in ``algebra``;
# this one contracts them against representation matrices.
C_RESHAPE_PRODUCTS = {"reps.Representation.homomorphism_residual"}

SCRIPT = """
import sys

called = set()
received = {}  # parameter key -> {whether the value was the default}
params = {}    # code object -> [(parameter key, name, default)], filled after the imports

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
        for key, name, default in params.get(frame.f_code, ()):
            received.setdefault(key, set()).add(same(frame.f_locals[name], default))

def same(value, default):
    try:
        return bool(value is default or value == default)
    except ValueError:  # an array against a scalar default
        return False

sys.setprofile(profile)  # before the imports: what they run is reached too
import contextlib, importlib, inspect, io, json, pkgutil
import liecoh
from liecoh import cli, spaces

def function(obj):
    obj = getattr(obj, "__func__", getattr(obj, "fget", obj))  # class/static method, property
    obj = getattr(obj, "__wrapped__", obj)                      # lru_cache
    return obj if inspect.isfunction(obj) else None

def defaulted(mod):
    # (key, function) of every function, method and dataclass __init__ defined in mod
    for name, obj in vars(mod).items():
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, member in vars(obj).items():  # a dataclass's __init__ included
                if function(member) is not None:
                    yield name + "." + attr, function(member)
        elif function(obj) is not None and function(obj).__module__ == mod.__name__:
            yield name, function(obj)

modules = [importlib.import_module("liecoh." + info.name)
           for info in pkgutil.iter_modules(liecoh.__path__)]
for mod in modules:
    short = mod.__name__.split(".", 1)[1]
    for key, func in defaulted(mod):
        params[func.__code__] = [
            (f"{short}.{key}.{p.name}".replace(".__init__", ""), p.name, p.default)
            for p in inspect.signature(func).parameters.values() if p.default is not p.empty]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--json"])
        cli.main(["catalog", "--json"])
        for sid in spaces.catalog_ids():
            cli.main(["export", sid])
finally:
    sys.setprofile(None)

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
for mod in modules:
    short = mod.__name__.split(".", 1)[1]
    never += [short + "." + name for name, codes in inventory(mod) if not codes & called]
one_value = [key for key, seen in received.items() if len(seen) == 1]
print(json.dumps({"never": sorted(never), "one_value": sorted(one_value),
                  "numpy_ma": "numpy.ma" in sys.modules}))
"""


@pytest.fixture(scope="module")
def product_run():
    src = os.path.dirname(os.path.dirname(liecoh.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def test_functions_and_methods_that_verify_catalog_and_export_never_call(product_run):
    assert product_run["never"] == sorted(NEVER_CALLED)


def test_every_default_and_every_other_value_is_used(product_run):
    assert product_run["one_value"] == sorted(ONE_VALUE)


def test_the_product_never_imports_numpy_ma(product_run):
    # np.unique and np.setdiff1d import numpy.ma on their first call, a cost
    # each cold process would pay
    assert product_run["numpy_ma"] is False


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
    dirs = (os.path.dirname(liecoh.__file__), os.path.dirname(__file__))
    stale = {f"{os.path.basename(d)}/{name}": _unused_imports(os.path.join(d, name))
             for d in dirs for name in sorted(os.listdir(d)) if name.endswith(".py")}
    assert {name: found for name, found in stale.items() if found} == {}


def test_every_name_in_all_exists():
    # a stale entry would make ``from liecoh.<module> import *`` raise
    modules = [importlib.import_module("liecoh." + info.name)
               for info in pkgutil.iter_modules(liecoh.__path__)]
    missing = {mod.__name__: [name for name in getattr(mod, "__all__", ())
                              if not hasattr(mod, name)] for mod in modules}
    assert len(modules) > 1
    assert {name: found for name, found in missing.items() if found} == {}


def _functions_with(match, tree, prefix):
    """Qualified names of the functions in ``tree`` that hold a node ``match`` accepts."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            found |= _functions_with(match, node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(match(n) for n in ast.walk(node)):
                found.add(prefix + node.name)
    return found


def _package_functions_with(match, skip=()):
    pkg = os.path.dirname(liecoh.__file__)
    found = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py") and name[:-3] not in skip:
            tree = ast.parse(open(os.path.join(pkg, name)).read())
            found |= _functions_with(match, tree, name[:-3] + ".")
    return found


def _calls_span_brackets(node):
    # a call of span_brackets, plain or as an attribute
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) == "span_brackets"


def _is_c_reshape(node):
    # c.reshape(...) or <anything>.c.reshape(...)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "reshape"
            and (getattr(node.func.value, "id", None) == "c"
                 or getattr(node.func.value, "attr", None) == "c"))


def _multiplies_c_reshape(node):
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
            and (_is_c_reshape(node.left) or _is_c_reshape(node.right)))


def test_only_the_frame_read_and_two_algebra_kernels_call_span_brackets():
    assert _package_functions_with(_calls_span_brackets) == SPAN_BRACKETS_CALLERS


def test_no_module_but_algebra_contracts_the_constants_against_a_basis():
    # the completion assembly reads [b_t, b_z] as the slice c[T] of its target
    # coordinates T, and contracts nothing
    assert _package_functions_with(_multiplies_c_reshape, skip=("algebra",)) == C_RESHAPE_PRODUCTS
