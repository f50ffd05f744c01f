"""Inventory of the public names that the product never calls.

One ``verify --json``, one ``catalog --json`` and one ``export`` of every
catalog id run in a child process under ``sys.setprofile`` (a fresh process,
so no cache filled by another test hides a call).  Every function or class
named in a module's ``__all__`` that none of them calls must be listed in
``NEVER_CALLED`` with its reason, and nothing else may be: a name that
becomes unreachable, or one that a claim starts to check, changes the list.
"""

import json
import os
import subprocess
import sys

import liecoh

REFERENCE = "reference model: the gamma matrices are tested against the blade arithmetic"
ORACLE = "test oracle"
PAPER = "paper construction that no claim checks yet"

NEVER_CALLED = {
    "algebra.ad_matrix": ORACLE + ", and the single-vector form ad_eigenspace_decomposition uses",
    "algebra.bracket": ORACLE,
    "algebra.from_json_dict": ORACLE + ": the inverse of the export schema",
    "algebra.pullback_structure": ORACLE,
    "clifford.CliffordElement": REFERENCE,
    "clifford.blade": REFERENCE,
    "clifford.clifford_multiply": REFERENCE,
    "clifford.generator": REFERENCE,
    "clifford.scalar": REFERENCE,
    "geometry.InhomogeneousReport": PAPER,
    "geometry.ReductiveFiber": PAPER,
    "geometry.sphere_space": PAPER + ": the round fiber of validate_inhomogeneous",
    "geometry.validate_inhomogeneous": PAPER,
    "reps.hom_space_dimension": ORACLE + ": the Schur trichotomy",
    "reps.tensor_product": ORACLE + ": the weighted-circle obstruction",
    "spaces.EigenReport": PAPER,
    "spaces.G1Report": PAPER,
    "spaces.ad_eigenspace_decomposition": PAPER,
    "spaces.build_g1": PAPER,
    "spaces.catalog": "the benchmark's claims-warm set-up builds the catalog with it",
    "spaces.clifford_g1": PAPER,
    "spaces.flat_unitary_space": PAPER,
    "spaces.projected_action_isometry_test": PAPER,
    "spaces.verify_flatness": PAPER,
}

SCRIPT = """
import contextlib, importlib, inspect, io, json, pkgutil, sys
import liecoh
from liecoh import cli, spaces

called = set()

def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)

sys.setprofile(profile)
try:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["verify", "--json"])
        cli.main(["catalog", "--json"])
        for sid in spaces.catalog_ids():
            cli.main(["export", sid])
finally:
    sys.setprofile(None)

def codes(obj):
    if inspect.isfunction(obj):
        return {obj.__code__}
    funcs = (getattr(a, "__func__", getattr(a, "fget", a)) for a in vars(obj).values())
    return {f.__code__ for f in funcs if inspect.isfunction(f)}

never = []
for info in pkgutil.iter_modules(liecoh.__path__):
    mod = importlib.import_module("liecoh." + info.name)
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if (inspect.isfunction(obj) or inspect.isclass(obj)) and not codes(obj) & called:
            never.append(info.name + "." + name)
print(json.dumps(sorted(never)))
"""


def test_public_names_that_verify_catalog_and_export_never_call():
    src = os.path.dirname(os.path.dirname(liecoh.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == sorted(NEVER_CALLED)
