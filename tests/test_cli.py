import json
import os
import subprocess
import sys

import numpy as np
import pytest

import liecoh
from liecoh import claims
from liecoh.claims import RunConfig, build_claims, run_suite
from liecoh.cli import ConfigError, load_config, main
from oracles import read_algebra


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_verify_group_subset(capsys):
    code, out = run_cli(capsys, "verify", "--group", "heisenberg")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("PASS")]
    assert len(lines) == 5
    assert all("heisenberg." in l for l in lines)


def test_verify_json_schema(capsys):
    code, out = run_cli(capsys, "verify", "--group", "splitting", "--json")
    assert code == 0
    rows = [json.loads(l) for l in out.splitlines()]
    assert all(r["schema_version"] == 1 for r in rows)
    reports, summaries = [r for r in rows if r["type"] == "report"], \
        [r for r in rows if r["type"] == "summary"]
    assert len(summaries) == 1
    assert summaries[0]["failed"] == 0
    assert "timestamp" in summaries[0]
    ids = [r["claim_id"] for r in reports]
    assert ids == sorted(ids)
    assert all({"status", "computed", "expected", "provenance", "residual",
                "tolerance", "runtime_ms"} <= set(r) for r in reports)


def test_config_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[run]\nunknown = 1\n")
    code = main(["verify", "--config", str(bad)])
    assert code == 2


def test_negative_seed_is_a_config_error(capsys):
    assert main(["verify", "--group", "tables", "--seed", "-5"]) == 2
    assert "seed" in capsys.readouterr().err


def test_tolerances_section_is_a_config_error(tmp_path, capsys, monkeypatch):
    # the pass bounds are constants of the claim suite, not settings
    monkeypatch.setattr("liecoh.cli.run_suite", lambda *a, **k: pytest.fail("suite ran"))
    cfg_file = tmp_path / "tol.ini"
    cfg_file.write_text("[tolerances]\nalgebraic = 1e-9\n")
    assert main(["verify", "--config", str(cfg_file)]) == 2
    assert "unknown config section [tolerances]" in capsys.readouterr().err


def test_a_default_section_is_a_config_error(tmp_path, capsys, monkeypatch):
    # its keys belong to no section of the run, so its seed would go unused
    monkeypatch.setattr("liecoh.cli.run_suite", lambda *a, **k: pytest.fail("suite ran"))
    cfg_file = tmp_path / "default.ini"
    cfg_file.write_text("[DEFAULT]\nbogus = 1\nseed = 5\n")
    assert main(["verify", "--config", str(cfg_file), "--group", "tables"]) == 2
    assert "unknown config section [DEFAULT]" in capsys.readouterr().err


def test_unwritable_out_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("liecoh.cli.run_suite", lambda *a, **k: pytest.fail("suite ran"))
    assert main(["verify", "--out", str(tmp_path / "missing" / "out.jsonl")]) == 2
    assert "config error" in capsys.readouterr().err


def test_a_config_that_selects_no_group_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("liecoh.cli.run_suite", lambda *a, **k: pytest.fail("suite ran"))
    cfg_file = tmp_path / "none.ini"
    for groups in ("groups = ,\n", "groups =\n"):
        cfg_file.write_text("[run]\n" + groups)
        assert main(["verify", "--config", str(cfg_file)]) == 2, groups
        assert "config error" in capsys.readouterr().err


def test_malformed_config_rejected(tmp_path):
    broken = tmp_path / "broken.ini"
    broken.write_text("not an ini file at all [[[")
    with pytest.raises(ConfigError):
        load_config(str(broken))


def test_config_parsing(tmp_path):
    cfg_file = tmp_path / "ok.ini"
    cfg_file.write_text("[run]\nseed = 99\ngroups = tables, jacobi\n")
    cfg = load_config(str(cfg_file))
    assert cfg.seed == 99
    assert cfg.groups == ("tables", "jacobi")


def test_a_repeated_group_is_selected_once(capsys):
    assert RunConfig(groups=("jacobi", "tables", "jacobi")).groups == ("jacobi", "tables")
    code, out = run_cli(capsys, "verify", "--group", "tables", "--group", "tables", "--json")
    assert code == 0 and json.loads(out.splitlines()[-1])["groups"] == ["tables"]


def test_impossible_tolerance_fails_claims(monkeypatch):
    for bound, group in (("TOL_ALGEBRAIC", "jacobi"), ("TOL_FD", "curvature")):
        with monkeypatch.context() as mp:
            mp.setattr(claims, bound, 0.0)
            result = run_suite(RunConfig(groups=(group,)), jobs=1)
        assert result.summary["failed"] > 0, bound
        assert result.exit_code == 1, bound


def test_env_config(tmp_path, monkeypatch):
    cfg_file = tmp_path / "env.ini"
    cfg_file.write_text("[run]\nseed = 123\n")
    monkeypatch.setenv("LIECOH_CONFIG", str(cfg_file))
    assert load_config(None).seed == 123


def test_catalog_listing(capsys):
    code, out = run_cli(capsys, "catalog")
    assert code == 0
    assert "N(6,1)" in out and "Spin(9)/Spin(7)" in out


def test_catalog_json_fields(capsys):
    code, out = run_cli(capsys, "catalog", "--json")
    data = json.loads(out)
    byid = {r["id"]: r for r in data["spaces"]}
    assert byid["N(6,1)"]["m_dim"] == 14
    assert byid["Spin(9)/Spin(7)"]["dim"] == 36
    assert len(byid) >= 16


def test_export_roundtrip(capsys, tmp_path):
    path = tmp_path / "space.json"
    code = main(["export", "N(2,1)", "--out", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    from liecoh.spaces import catalog_entry

    assert np.array_equal(read_algebra(payload["algebra"]), catalog_entry("N(2,1)").algebra.c)
    assert payload["schema_version"] == 1


def test_export_unknown_id(capsys):
    assert main(["export", "Nope"]) == 2


def test_registry_ids_unique():
    ids = [c[0] for c in build_claims()]
    assert len(ids) == len(set(ids))


def test_export_to_a_missing_directory_is_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("liecoh.cli.export_space", lambda *a: pytest.fail("payload built"))
    assert main(["export", "N(1,1)", "--out", str(tmp_path / "missing" / "x.json")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_non_positive_jobs_is_a_config_error(jobs, capsys, monkeypatch):
    monkeypatch.setattr("liecoh.cli.run_suite", lambda *a, **k: pytest.fail("suite ran"))
    assert main(["verify", "--group", "tables", "--jobs", jobs]) == 2
    assert "--jobs" in capsys.readouterr().err


WRITES = {"verify": ["verify", "--group", "heisenberg", "--json"], "export": ["export", "N(1,1)"]}

# the child waits until the parent has closed the read end of its stdout pipe
CLOSED_STDOUT = """
import sys
sys.stdin.read()
from liecoh.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command", sorted(WRITES))
def test_a_closed_stdout_exits_3_with_one_line(command):
    src = os.path.dirname(os.path.dirname(liecoh.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    child = subprocess.Popen([sys.executable, "-c", CLOSED_STDOUT, *WRITES[command]], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True)
    child.stdout.close()
    child.stdin.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=300) == 3
    # no traceback, and no "Exception ignored" from the flush at exit
    assert err.startswith("write error: [Errno 32]") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
@pytest.mark.parametrize("command", sorted(WRITES))
def test_a_full_device_exits_3_with_one_line(command, capsys):
    assert main([*WRITES[command], "--out", "/dev/full"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("write error: [Errno 28]") and err.count("\n") == 1, err
