"""Command line driver.

Subcommands:

* ``liecoh verify [--group G ...] [--config PATH] [--seed N] [--json] [--jobs N]
  [--out PATH]`` runs the claim suite on one thread and writes to ``PATH``
  when given; exit code 0 when every claim passes, 1 on any failure, 2 on a
  configuration error.  ``--jobs`` must be at least 1 and is otherwise
  ignored, because the claims hold the GIL.
* ``liecoh catalog [--json]`` lists the model spaces with their fingerprints.
* ``liecoh export SPACE_ID [--out PATH]`` writes one space in the sparse
  JSON algebra schema with block annotations.

An output path that cannot be opened is a configuration error (exit code 2);
output that cannot be written (a closed pipe, a full disk) ends the command
with one line on stderr and exit code 3.

``LIECOH_CONFIG`` names a default configuration file.  The configuration is
an INI-style text file::

    [run]
    seed = 24301
    groups = tables, jacobi, heisenberg, curvature, splitting, catalog

Unknown sections or keys are rejected (exit code 2).  The pass bounds of
the claims are fixed in ``liecoh.claims``, not set by the configuration.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import dataclasses
import datetime
import json
import os
import sys

from . import algebra as la
from . import spaces as sps
from .claims import GROUPS, RunConfig, run_suite

CONFIG_ENV = "LIECOH_CONFIG"
EXIT_OK, EXIT_FAIL, EXIT_CONFIG, EXIT_WRITE = 0, 1, 2, 3


class ConfigError(Exception):
    pass


def load_config(path: str | None) -> RunConfig:
    """Parse the INI configuration; None falls back to env, then defaults."""
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    cfg = RunConfig()
    if path is None:
        return cfg
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}")
    except configparser.Error as err:
        raise ConfigError(f"malformed config: {err}")
    if parser.defaults():  # configparser would read its keys into every section
        raise ConfigError("unknown config section [DEFAULT]")
    known = {"run": {"seed", "groups"}}
    for section in parser.sections():
        if section not in known:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in known[section]:
                raise ConfigError(f"unknown key {key!r} in [{section}]")
    try:
        seed = parser.getint("run", "seed", fallback=cfg.seed)
        groups_raw = parser.get("run", "groups", fallback=None)
        groups = (tuple(g.strip() for g in groups_raw.split(",") if g.strip())
                  if groups_raw is not None and groups_raw.strip() != "all" else cfg.groups)
        return RunConfig(seed=seed, groups=groups)
    except ValueError as err:
        raise ConfigError(f"bad config value: {err}")


def _space_fingerprint(space: sps.ReductiveSpace) -> dict:
    alg = space.algebra
    return {
        "dim": alg.dim,
        "isotropy_dim": space.isotropy.dim,
        "block_dims": [b.dim for b in space.blocks],
        "m_dim": space.m_dim,
        "killing_signature": list(la.signature(la.killing_form(alg))),
        "center_dim": la.center_dimension(alg),
        "jacobi_residual": space.jacobi[1],
    }


def export_space(space_id: str) -> dict:
    space = sps.catalog_entry(space_id)
    return {
        "schema_version": 1,
        "id": space_id,
        "label": space.label,
        "algebra": la.to_json_dict(space.algebra),
        "isotropy_basis": space.isotropy.basis.tolist(),
        "block_bases": [b.basis.tolist() for b in space.blocks],
        "notes": list(space.notes),
        "fingerprint": _space_fingerprint(space),
    }


def _open_out(path: str | None):
    """``path`` opened for writing, or stdout in a context that leaves it open."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _write(out, lines) -> int:
    """Write ``lines`` to ``out``, the ``--out`` file or stdout, and close the file.

    An ``OSError`` (a closed pipe, a full disk) prints one line on stderr and
    gives ``EXIT_WRITE``.  A failed stdout is first pointed at ``os.devnull``,
    so that the interpreter's flush at exit has nowhere to fail again.
    """
    try:
        try:
            out.writelines(line + "\n" for line in lines)
        finally:
            if out is sys.stdout:
                out.flush()
            else:
                out.close()
    except OSError as err:
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, out.fileno())
            os.close(devnull)
        print(f"write error: {err}", file=sys.stderr)
        return EXIT_WRITE
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        if args.group:
            cfg = dataclasses.replace(cfg, groups=tuple(args.group))
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        out = _open_out(args.out)
    except (ConfigError, ValueError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    with out as fh:  # closed also when the suite raises
        result = run_suite(cfg)
        if args.json:
            summary = dict(result.summary)
            summary["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
            rows = [rep.to_json_dict() for rep in result.reports] + [summary]
            lines = [json.dumps(row, sort_keys=True) for row in rows]
        else:
            s = result.summary
            lines = [f"{rep.status.upper():5s} {rep.claim_id}  (residual={rep.residual:.3g}, "
                     f"tol={rep.tolerance:g}, {rep.runtime_ms} ms)" for rep in result.reports]
            lines.append(f"{s['passed']}/{s['total']} passed, {s['failed']} failed, "
                         f"{s['skipped']} skipped (seed {s['seed']})")
        return _write(fh, lines) or result.exit_code


def cmd_catalog(args) -> int:
    rows = []
    for sid in sps.catalog_ids():
        space = sps.catalog_entry(sid)
        rows.append({"id": sid, **_space_fingerprint(space)})
    if args.json:
        return _write(sys.stdout, [json.dumps({"schema_version": 1, "spaces": rows},
                                              sort_keys=True)])
    head = f"{'id':44s} {'dim':>4s} {'k':>3s} {'blocks':12s} {'killing':14s} {'z(g)':>4s}"
    lines = [head, "-" * len(head)]
    for r in rows:
        sig = ",".join(str(v) for v in r["killing_signature"])
        blocks = "+".join(str(v) for v in r["block_dims"])
        lines.append(f"{r['id']:44s} {r['dim']:4d} {r['isotropy_dim']:3d} {blocks:12s} "
                     f"({sig:12s}) {r['center_dim']:4d}")
    return _write(sys.stdout, lines)


def cmd_export(args) -> int:
    if args.space_id not in sps.catalog_ids():
        print(f"error: unknown catalog id {args.space_id!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out = _open_out(args.out)
    except OSError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    with out as fh:
        return _write(fh, [json.dumps(export_space(args.space_id), sort_keys=True, indent=2)])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liecoh",
        description="structure-constant engine and claim verifier for "
                    "low-cohomogeneity homogeneous geometry")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the claim suite")
    p_verify.add_argument("--group", action="append", choices=GROUPS,
                          help="restrict to a claim group (repeatable)")
    p_verify.add_argument("--config", default=None, help="INI config path")
    p_verify.add_argument("--seed", type=int, default=None, help="sampling seed")
    p_verify.add_argument("--json", action="store_true",
                          help="JSON-lines reports plus a summary object")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="accepted and ignored: claims run on one thread, "
                               "since they hold the GIL")
    p_verify.add_argument("--out", default=None, help="write output to a file")
    p_verify.set_defaults(fn=cmd_verify)

    p_cat = sub.add_parser("catalog", help="list the model spaces")
    p_cat.add_argument("--json", action="store_true")
    p_cat.set_defaults(fn=cmd_catalog)

    p_exp = sub.add_parser("export", help="export one space as JSON")
    p_exp.add_argument("space_id")
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
