"""Every object that the package shares between runs is immutable.

One suite runs first.  Then every value that a ``liecoh`` module defines at
module level, and every result that an ``lru_cache``d function holds for a
key of that suite, is walked: through tuples, frozen-dataclass fields, the
values of a claim's read-only expected dict, the arguments of a
``functools.partial``, and the defaults and closures of the package's own
functions.  Modules, classes, scalars and numpy or stdlib callables are
leaves.  A list, dict, set, writable array, unfrozen dataclass or any other
object not known to be immutable fails the test, named by its path.
"""

import __future__
import ast
import dataclasses
import functools
import importlib
import os
import pkgutil
import types

import numpy as np

import liecoh
from liecoh import claims
from liecoh import spaces as sps

MU = 1.0 / np.sqrt(2.0)

# every lru_cache'd function of the package -> the keys one suite fills
CACHED = {
    "builders.clifford_isotropy": ((2, 1), (2, 2), (3, 1), (3, 2), (6, 1), (7, 1)),
    "claims._below": ((1e-12,), (1e-9,), (1e-8,), (1e-5,)),
    "claims.build_claims": ((),),
    "clifford.gamma_lifts": ((6,), (7,)),
    "clifford.spin_module": ((2,), (3,), (6,), (7,), (8,)),
    "spaces._cached_completion": tuple((n, 1.0, MU) for n in (2, 3, 6, 7)),
    "spaces.catalog_entry": tuple((sid,) for sid in sps.catalog_ids()),
}

# functions other than a ``__post_init__`` that write a frozen field, each with its reason
FROZEN_WRITERS = {
    "spaces.catalog_entry": "relabels the space it has just built, before any caller holds "
                            "it; replace() would run every check again",
}

SCALARS = (type(None), bool, int, float, complex, str, bytes, np.generic)
# module-level flags of the standard library: the ``from __future__ import
# annotations`` feature and the ``KW_ONLY`` marker of ``LieAlgebra``
SENTINELS = (__future__.annotations, dataclasses.KW_ONLY)


def _ours(obj) -> bool:
    return (getattr(obj, "__module__", None) or "").startswith("liecoh")


def mutable_paths(value, path, seen=None) -> list[str]:
    """Paths of the objects reachable from ``value`` that are not known to be immutable."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    children = []
    found = []
    if isinstance(value, np.ndarray):
        found = [path] if value.flags.writeable else []
    elif isinstance(value, claims._ReadOnlyDict):
        children = [(f"[{k!r}]", v) for k, v in value.items()]
    elif isinstance(value, (tuple, frozenset)):
        children = [(f"[{i}]", v) for i, v in enumerate(value)]
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        found = [] if type(value).__dataclass_params__.frozen else [path]
        children = [(f".{f.name}", getattr(value, f.name)) for f in dataclasses.fields(value)]
    elif isinstance(value, functools.partial):
        children = [(".func", value.func), (".args", value.args),
                    *((f".keywords[{k!r}]", v) for k, v in value.keywords.items())]
    elif isinstance(value, functools._lru_cache_wrapper) and _ours(value):
        children = [(".__wrapped__", value.__wrapped__)]
    elif isinstance(value, types.FunctionType) and _ours(value):
        children = [(".__defaults__", value.__defaults__ or ()),
                    *((f".__kwdefaults__[{k!r}]", v)
                      for k, v in (value.__kwdefaults__ or {}).items()),
                    *((f".<closure {name}>", cell.cell_contents) for name, cell in
                      zip(value.__code__.co_freevars, value.__closure__ or ()))]
    elif isinstance(value, (*SCALARS, type, types.ModuleType)):
        pass
    elif callable(value) and not _ours(value):  # a numpy or stdlib callable
        pass
    elif not any(value is s for s in SENTINELS):
        found = [path]
    for suffix, child in children:
        found += mutable_paths(child, path + suffix, seen)
    return found


def test_every_module_level_value_and_cached_result_is_immutable():
    assert claims.run_suite(claims.RunConfig()).exit_code == 0
    modules = {info.name: importlib.import_module("liecoh." + info.name)
               for info in pkgutil.iter_modules(liecoh.__path__)}
    caches = {f"{v.__module__.split('.', 1)[1]}.{v.__qualname__}": v
              for mod in modules.values() for v in vars(mod).values()
              if isinstance(v, functools._lru_cache_wrapper) and _ours(v)}
    assert sorted(caches) == sorted(CACHED)   # a new cache joins the table
    seen = set()
    found = []
    for short, mod in modules.items():
        for name, value in vars(mod).items():
            if not name.startswith("__"):
                found += mutable_paths(value, f"{short}.{name}", seen)
    for name, keys in CACHED.items():
        fn = caches[name]
        misses = fn.cache_info().misses
        results = [fn(*key) for key in keys]
        assert fn.cache_info().misses == misses, f"{name}: a key the suite did not fill"
        for key, result in zip(keys, results):
            found += mutable_paths(result, f"{name}{key}", seen)
    assert found == []


def test_the_walk_finds_what_is_mutable():
    writable = np.zeros(2)
    read_only = np.zeros(2)
    read_only.setflags(write=False)
    frozen_profile = claims.WARPED_CASES[0][2]
    unfrozen = dataclasses.make_dataclass("Unfrozen", ["x"])(read_only)
    value = ([], {}, set(), writable, unfrozen, functools.partial(np.polyval, writable),
             claims._ReadOnlyDict(a=[1]), frozen_profile, read_only, (1, "a", None))
    assert mutable_paths(value, "v") == ["v[0]", "v[1]", "v[2]", "v[3]", "v[4]",
                                         "v[6]['a']"]
    cell = [0]

    def package_function(t, d=[0]):
        return t + cell[0]

    assert mutable_paths(package_function, "f") == []   # a test's function is a leaf
    package_function.__module__ = "liecoh.example"
    assert mutable_paths(package_function, "f") == ["f.__defaults__[0]", "f.<closure cell>"]


def _frozen_field_writers(tree, prefix):
    """Qualified names of the functions whose own body calls ``object.__setattr__``."""
    found = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}")
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "__setattr__"
                    and getattr(child.func.value, "id", None) == "object"):
                found.add(name)
            visit(child, name)

    visit(tree, prefix)
    return found


def test_frozen_fields_are_written_only_in_post_init():
    # a frozen value is set as it is built, never later by a hidden memo
    pkg = os.path.dirname(liecoh.__file__)
    writers = set()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            writers |= _frozen_field_writers(ast.parse(open(os.path.join(pkg, name)).read()),
                                             name[:-3])
    assert {"algebra.LieAlgebra.__post_init__",
            "completion.CompletionProblem.__post_init__"} <= writers
    assert {w for w in writers if not w.endswith(".__post_init__")} == set(FROZEN_WRITERS)
