"""Print the SHA-256 digests of the three outputs that every change must keep,
then the line count of the package source.

    python tools/output_digests.py

Each command runs in a fresh process on the ``src`` tree beside this script,
with ``OPENBLAS_NUM_THREADS=1``:

* ``verify``: ``liecoh verify --json``, each line parsed and dumped again
  with ``sort_keys=True`` after dropping the timing keys ``runtime_ms`` and
  ``timestamp``, the lines joined by ``"\\n"``;
* ``catalog``: the raw stdout of ``liecoh catalog --json``;
* ``export``: the stdout of ``liecoh export ID`` for every catalog id, in
  ``catalog_ids()`` order, concatenated;
* ``src_lines``: the line count of ``src/liecoh/*.py``, as
  ``cat src/liecoh/*.py | wc -l`` gives it.
"""

import glob
import hashlib
import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
ENV = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
TIMING_KEYS = ("runtime_ms", "timestamp")


def run(*args: str) -> str:
    out = subprocess.run([sys.executable, "-m", "liecoh.cli", *args], env=ENV,
                         capture_output=True, text=True, check=True)
    return out.stdout


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    rows = []
    for line in run("verify", "--json").splitlines():
        row = json.loads(line)
        for key in TIMING_KEYS:
            row.pop(key, None)
        rows.append(json.dumps(row, sort_keys=True))
    print("verify ", sha256("\n".join(rows)))
    print("catalog", sha256(run("catalog", "--json")))
    sys.path.insert(0, SRC)
    from liecoh.spaces import catalog_ids

    print("export ", sha256("".join(run("export", sid) for sid in catalog_ids())))
    sources = sorted(glob.glob(os.path.join(SRC, "liecoh", "*.py")))
    print("src_lines", sum(open(path).read().count("\n") for path in sources))


if __name__ == "__main__":
    main()
