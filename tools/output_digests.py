"""Print the SHA-256 digests of the three outputs that every change must keep,
then the line counts of the package source and of the tests, and the BLAS
kernel that produced the numbers.

    python tools/output_digests.py

Output that cannot be written (a reader that closes the pipe early, a full
disk) exits 3 with one line on stderr, as ``liecoh`` does.

Each command runs in a fresh process on the ``src`` tree beside this script,
with ``OPENBLAS_NUM_THREADS=1``:

* ``verify``: ``liecoh verify --json``, each line parsed and dumped again
  with ``sort_keys=True`` after dropping the timing keys ``runtime_ms`` and
  ``timestamp``, the lines joined by ``"\\n"``;
* ``catalog``: the raw stdout of ``liecoh catalog --json``;
* ``export``: the stdout of ``liecoh export ID`` for every catalog id, in
  ``catalog_ids()`` order, concatenated;
* ``src_lines``: the line count of ``src/liecoh/*.py``, as
  ``cat src/liecoh/*.py | wc -l`` gives it;
* ``tests_lines``: the line count of ``tests/*.py``, the same way, so that
  code moved from the package into the tests shows as a move;
* ``verify_r10``, ``catalog_r10``, ``export_r10``: the same three outputs,
  parsed and put in the canonical form of the golden tests (every float
  rounded to 10 decimals, negative zero folded into zero, and algebra
  triples that round to zero dropped from each export) before hashing.  A
  change that moves the outputs by round-off only keeps these three;
* ``blas_kernel``: the OpenBLAS core that numpy's bundled
  ``numpy.libs/libscipy_openblas64_*.so`` picked at run time, such as
  ``SkylakeX``, read through ``ctypes`` from its
  ``scipy_openblas_get_corename64_``; ``unknown`` without that library.
  The raw ``verify`` and ``export`` digests hold on one kernel only:
  ``OPENBLAS_CORETYPE=Haswell`` on this script's process selects another
  kernel, for the script and its commands, and moves them.
"""

import ctypes
import glob
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
ENV = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
TIMING_KEYS = ("runtime_ms", "timestamp")


def run(*args: str) -> str:
    out = subprocess.run([sys.executable, "-m", "liecoh.cli", *args], env=ENV,
                         capture_output=True, text=True, check=True)
    return out.stdout


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(value):
    """``value`` with every float rounded to 10 decimals and -0.0 folded into 0.0."""
    if isinstance(value, float):
        return round(value, 10) + 0.0
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    return value


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True)


def blas_kernel() -> str:
    """The OpenBLAS core of numpy's bundled library in this process, or ``unknown``."""
    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def main() -> None:
    rows = []
    for line in run("verify", "--json").splitlines():
        row = json.loads(line)
        for key in TIMING_KEYS:
            row.pop(key, None)
        rows.append(row)
    print("verify ", sha256("\n".join(dumps(row) for row in rows)))
    catalog = run("catalog", "--json")
    print("catalog", sha256(catalog))
    sys.path.insert(0, SRC)
    from liecoh.spaces import catalog_ids

    exports = [run("export", sid) for sid in catalog_ids()]
    print("export ", sha256("".join(exports)))
    for name, pattern in (("src_lines", (SRC, "liecoh")), ("tests_lines", (ROOT, "tests"))):
        paths = glob.glob(os.path.join(*pattern, "*.py"))
        print(name, sum(open(path).read().count("\n") for path in paths))

    print("verify_r10 ", sha256("\n".join(dumps(canonical(row)) for row in rows)))
    print("catalog_r10", sha256(dumps(canonical(json.loads(catalog)))))
    spaces = [canonical(json.loads(text)) for text in exports]
    for space in spaces:
        space["algebra"]["c"] = [t for t in space["algebra"]["c"] if t[3] != 0.0]
    print("export_r10 ", sha256("".join(dumps(space) for space in spaces)))
    print("blas_kernel", blas_kernel())


if __name__ == "__main__":
    try:
        main()
        sys.stdout.flush()
    except OSError as err:
        # a closed pipe or a full disk: one stderr line, no traceback, and a
        # stdout on os.devnull so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output_digests: {err}", file=sys.stderr)
        sys.exit(3)
