import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import pinlab.theorems as theorems
from pinlab.cli import main
from pinlab.theorems import CheckReport

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")

TOY = {
    "model": {"kind": "table", "table": [0.5, 0.25], "n_max": 2},
    "disorder": {"family": "zero"},
    "grids": {"h_values": [0.0], "n_values": [2], "window": 16},
    "run": {"samples": 2, "master_seed": 1},
}

SMALL_SCAN = {
    "model": {"n_max": 64},
    "disorder": {"family": "gaussian", "param": 1.0},
    "grids": {"h_values": [2.0], "n_values": [16, 32, 64], "window": 16},
    "run": {"samples": 8, "master_seed": 5},
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload, indent=2))
    return str(p)


def _rows(out_dir):
    with open(os.path.join(out_dir, "series.csv")) as fh:
        header, *rows = fh.read().splitlines()
    return [r.split(",") for r in rows]


def test_compute_toy_value_is_exact(tmp_path, capsys):
    cfg = _write(tmp_path, "toy.json", TOY)
    out = str(tmp_path / "out")
    assert main(["compute", "--config", cfg, "--out", out]) == 0
    rows = {r[0]: r for r in _rows(out)}
    # Z = p(1)^2 + p(2) = 1/2 exactly
    assert float(rows["log_z"][3]) == -0.6931471805599453
    assert float(rows["kappa1"][3]) == 1.5
    assert float(rows["kappa2"][3]) == 0.25
    assert os.path.exists(os.path.join(out, "resolved_config.json"))
    assert os.path.exists(os.path.join(out, "seeds.json"))
    assert "compute: wrote" in capsys.readouterr().out


def test_resolved_config_expands_defaults(tmp_path):
    cfg = _write(tmp_path, "toy.json", TOY)
    out = str(tmp_path / "out")
    main(["compute", "--config", cfg, "--out", out])
    resolved = json.loads(
        open(os.path.join(out, "resolved_config.json")).read())
    assert resolved["run"]["out_dir"] == out  # --out is persisted
    assert resolved["checks"]["ids"][0] == "C1"  # defaults expanded


def test_scan_outputs_and_determinism(tmp_path):
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    outs = [str(tmp_path / f"o{i}") for i in range(3)]
    assert main(["scan", "--config", cfg, "--out", outs[0]]) == 0
    assert main(["scan", "--config", cfg, "--out", outs[1]]) == 0
    assert main(["scan", "--config", cfg, "--out", outs[2],
                 "--threads", "4"]) == 0
    ref = open(os.path.join(outs[0], "series.csv"), "rb").read()
    for o in outs[1:]:
        assert open(os.path.join(o, "series.csv"), "rb").read() == ref
    decay = open(os.path.join(outs[0], "decay.csv"), "rb").read()
    assert decay == open(os.path.join(outs[2], "decay.csv"), "rb").read()
    quantities = {r[0] for r in _rows(outs[0])}
    assert {"f", "mu", "rho", "w", "v", "ks_quenched",
            "decay_gamma"} <= quantities


def test_seed_flag_overrides_config(tmp_path):
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    main(["scan", "--config", cfg, "--out", a, "--seed", "99"])
    main(["scan", "--config", cfg, "--out", b])
    seeds = json.loads(open(os.path.join(a, "seeds.json")).read())
    assert seeds["master_seed"] == 99
    ra = open(os.path.join(a, "series.csv"), "rb").read()
    rb = open(os.path.join(b, "series.csv"), "rb").read()
    assert ra != rb


def test_out_dir_precedence(tmp_path, monkeypatch):
    env_dir = str(tmp_path / "from_env")
    monkeypatch.setenv("PINLAB_OUT", env_dir)
    cfg = _write(tmp_path, "toy.json", TOY)
    assert main(["compute", "--config", cfg]) == 0
    assert os.path.exists(os.path.join(env_dir, "series.csv"))
    # an explicit run.out_dir in the config beats the environment
    cfg_dir = str(tmp_path / "from_cfg")
    with_dir = dict(TOY, run=dict(TOY["run"], out_dir=cfg_dir))
    cfg2 = _write(tmp_path, "toy2.json", with_dir)
    assert main(["compute", "--config", cfg2]) == 0
    assert os.path.exists(os.path.join(cfg_dir, "series.csv"))


def test_verify_subset_passes(tmp_path, capsys):
    cfg = _write(tmp_path, "scan.json", dict(
        SMALL_SCAN, run=dict(SMALL_SCAN["run"], samples=24)))
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out,
                 "--checks", "C9,C10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("C9") and "pass" in line for line in lines)
    payload = json.loads(open(os.path.join(out, "report.json")).read())
    assert [c["check_id"] for c in payload["checks"]] == ["C9", "C10"]
    assert payload["passed"] is True


def test_verify_pure_config_skips_centering(tmp_path, capsys):
    pure = dict(SMALL_SCAN, disorder={"family": "zero"})
    cfg = _write(tmp_path, "pure.json", pure)
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out,
                 "--checks", "C4"]) == 0
    assert "skip" in capsys.readouterr().out
    payload = json.loads(open(os.path.join(out, "report.json")).read())
    assert payload["counts"]["skip"] == 1
    assert payload["passed"] is True


def test_verify_failure_exits_2_but_writes_report(tmp_path, monkeypatch, capsys):
    def failing(ctx):
        return CheckReport("C9", "forced", {}, {"violations": 1}, {}, {}, False)

    monkeypatch.setitem(theorems._CHECKS, "C9", failing)
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out,
                 "--checks", "C9"]) == 2
    assert "FAIL" in capsys.readouterr().out
    payload = json.loads(open(os.path.join(out, "report.json")).read())
    assert payload["passed"] is False


def test_verify_unknown_check_is_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v"),
                 "--checks", "C9,C99"]) == 1
    assert "unknown check id" in capsys.readouterr().err


def test_config_errors_are_anchored(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json",
                 {"model": {"kind": "power", "alpha": 0.5}})
    assert main(["compute", "--config", bad, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "model.alpha" in err and "bad.json" in err
    assert main(["compute", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_report_renders_plots(tmp_path, capsys):
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    out = str(tmp_path / "o")
    main(["scan", "--config", cfg, "--out", out])
    assert main(["report", "--out", out]) == 0
    text = capsys.readouterr().out
    assert "avoidance_vs_j.svg" in text
    assert os.path.exists(os.path.join(out, "plots", "avoidance_vs_j.svg"))


def test_report_with_empty_dir(tmp_path, capsys):
    out = str(tmp_path / "empty")
    os.makedirs(out)
    assert main(["report", "--out", out]) == 0
    assert "nothing to plot" in capsys.readouterr().out


def test_compute_requires_config():
    with pytest.raises(SystemExit) as exc:
        main(["compute"])
    assert exc.value.code == 2


def _console_script(name):
    """Command for an installed console script; without an install, the
    [project.scripts] target from pyproject.toml run by this interpreter."""
    exe = shutil.which(name)
    if exe is not None:
        return [exe]
    import tomllib
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    return [sys.executable, "-c",
            f"import sys; from {module} import {func}; sys.exit({func}())"]


def test_console_script_entry_point(tmp_path):
    cfg = _write(tmp_path, "toy.json", TOY)
    out = str(tmp_path / "o")
    proc = subprocess.run(
        [sys.executable, "-m", "pinlab.cli"],
        capture_output=True, text=True)
    # module is importable but argparse demands a command
    assert proc.returncode == 2
    proc = subprocess.run(
        _console_script("pinlab") + ["compute", "--config", cfg, "--out", out],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "series.csv"))
