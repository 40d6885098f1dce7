import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pinlab
import pinlab.model as model
import pinlab.outputs as outputs
import pinlab.quenched as quenched
import pinlab.theorems as theorems
from pinlab.cli import main
from pinlab.config import load_config
from pinlab.model import (
    DISORDER_FAMILIES,
    gaussian_disorder,
    sample_disorder_block,
)
from pinlab.quenched import QuenchedSystem
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


def test_compute_log_z_minus_strips_last_charge(tmp_path):
    # log_z_minus is log Z with the final contact weight e^{h + omega_n}
    # stripped, omega the compute run's sample 0
    cfg = {"model": {"n_max": 64},
           "disorder": {"family": "gaussian", "param": 1.0},
           "grids": {"h_values": [0.5, 2.0], "n_values": [1, 17, 64]},
           "run": {"master_seed": 7}}
    out = str(tmp_path / "out")
    assert main(["compute", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", out]) == 0
    rows = {(r[0], float(r[1]), int(r[2])): float(r[3]) for r in _rows(out)}
    disorder = gaussian_disorder(1.0)
    for h in cfg["grids"]["h_values"]:
        for n in cfg["grids"]["n_values"]:
            omega = sample_disorder_block(disorder, n, 7, 0, 1)[0]
            assert rows["log_z_minus", h, n] == pytest.approx(
                rows["log_z", h, n] - h - omega[n - 1], abs=1e-12)


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


def test_run_memo_lives_for_one_command(tmp_path, monkeypatch):
    sizes = []
    write = outputs.write_series_csv

    def spy(path, series):
        sizes.append(len(quenched._MEMO.get()))
        return write(path, series)
    monkeypatch.setattr(outputs, "write_series_csv", spy)
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    assert main(["scan", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert sizes and sizes[0] > 0
    assert quenched._MEMO.get() is None


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


def test_verify_c13_skips_when_sizes_exceed_the_horizon(tmp_path, capsys):
    # only 32 and 64 fit under n_max 64; the padding sizes 128 and 256 do not
    short = dict(SMALL_SCAN, model={"n_max": 64},
                 grids=dict(SMALL_SCAN["grids"], n_values=[32, 64]))
    cfg = _write(tmp_path, "short.json", short)
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out,
                 "--checks", "C13"]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert "skip (fewer than 3 sizes up to the law's horizon 64)" \
        in captured.out
    (c13,) = json.loads(open(os.path.join(out, "report.json")).read())["checks"]
    assert c13["passed"] is None
    assert c13["parameters"]["n_values"] == [32, 64]


@pytest.mark.parametrize("n_max, empty", [(3, "0, 1, 3"), (6, "1, 3")])
def test_verify_c6_skips_a_size_whose_band_holds_no_integer(tmp_path, capsys,
                                                             n_max, empty):
    # the excursion grid is (n_max // 4, n_max // 2, n_max): at n <= 1 log n
    # is not positive, and at n = 3 the band (1 +- 0.25) log n / mu_hat
    # (mu_hat about 1.4) lies inside (0, 1)
    tiny = dict(SMALL_SCAN, model={"n_max": n_max},
                grids=dict(SMALL_SCAN["grids"], n_values=[1, 2, 3]))
    cfg = _write(tmp_path, "tiny.json", tiny)
    out = str(tmp_path / "v")
    assert main(["verify", "--config", cfg, "--out", out,
                 "--checks", "C6"]) == 0
    captured = capsys.readouterr()
    assert "error" not in captured.err
    assert "within 25% of 1 / mu_hat = " in captured.out
    (c6,) = json.loads(open(os.path.join(out, "report.json")).read())["checks"]
    assert c6["passed"] is None
    assert c6["skip_reason"].endswith(f"at n = {empty}")
    assert c6["metrics"]["band_mass_increasing"] is False


def _verify_checks(config_path, out):
    """The checks of an in-process verify run with RuntimeWarning as an
    error: it exits 0 or 2, and every check passes, fails or skips with a
    reason."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["verify", "--config", config_path, "--out", out])
    assert code in (0, 2)
    checks = json.loads(open(os.path.join(out, "report.json")).read())["checks"]
    for c in checks:
        assert c["passed"] in (True, False, None)
        if c["passed"] is None:
            assert c["skip_reason"], c
    return checks


@pytest.mark.parametrize("config, skipped", [
    # C7: window above the largest n; C11: no dyadic horizon >= 64
    ({"model": {"n_max": 6}, "grids": {"n_values": [1, 2, 3], "window": 16}},
     {"C6", "C7", "C11"}),
    # C1, C5 and C6: a trend of C1's step and estimate_mu need 3 sizes
    ({"model": {"n_max": 256},
      "grids": {"h_values": [3.0], "n_values": [64, 128]}},
     {"C1", "C5", "C6"}),
    # C11: one horizon (64) under n_max 100, too few for a fit
    ({"model": {"n_max": 100}, "grids": {"n_values": [16, 32, 64]},
      "checks": {"ids": ["C11"]}}, {"C11"}),
    # C9 and C10: their sizes start at 4
    ({"model": {"n_max": 3}, "grids": {"n_values": [1, 2, 3]},
      "checks": {"ids": ["C9", "C10"]}}, {"C9", "C10"}),
    # C1, C4 and C12: a step, the mean's linear fit and a spread across n
    # need 2 sizes
    ({"model": {"n_max": 47},
      "grids": {"h_values": [3.0], "n_values": [26], "window": 28},
      "run": {"samples": 4}},
     {"C1", "C4", "C5", "C6", "C7", "C11", "C12", "C13"}),
    # C3: at n = 2 no u > 0 has a positive tail, so no kappa is finite
    ({"model": {"n_max": 4}, "disorder": {"family": "zero"},
      "grids": {"h_values": [2.45], "n_values": [1, 2], "window": 18},
      "run": {"samples": 2}},
     {"C1", "C3", "C4", "C5", "C6", "C7", "C11", "C12", "C13"}),
    # C9: xi = 3000 overflows the bound's factors, which makes it vacuous
    ({"model": {"kind": "table",
                "table": [0.01, 0.3, 0.01, 0.3, 0.01, 0.3, 0.01, 0.3]},
      "grids": {"h_values": [2.0], "n_values": [4, 8]}},
     {"C1", "C5", "C6", "C7", "C11", "C13"}),
    # C1: with two sizes its one trend clause (the step shrinks) is empty
    ({"model": {"n_max": 100},
      "grids": {"h_values": [3.0], "n_values": [40, 80], "window": 16,
                "r_max": 4},
      "run": {"samples": 8, "master_seed": 3}},
     {"C1", "C5", "C6", "C11"}),
    # C12: on one size both spreads are 0
    ({"model": {"n_max": 100},
      "grids": {"h_values": [3.0], "n_values": [80], "window": 16,
                "r_max": 4},
      "run": {"samples": 8, "master_seed": 3}},
     {"C1", "C4", "C5", "C6", "C11", "C12", "C13"}),
])
def test_verify_small_configs_pass_fail_or_skip(tmp_path, capsys, config,
                                                skipped):
    # every check of a valid config passes, fails or skips with a reason
    # that names sizes (a pure model's skips name none); none raises or warns
    checks = _verify_checks(_write(tmp_path, "c.json", config),
                            str(tmp_path / "v"))
    assert "error" not in capsys.readouterr().err
    assert {c["check_id"] for c in checks if c["passed"] is None} == skipped
    for c in checks:
        if c["passed"] is None and not c["skip_reason"].startswith(
                "pure model"):
            assert re.search(r"\d", c["skip_reason"]), c


@st.composite
def _small_configs(draw):
    kind = draw(st.sampled_from(["power", "geometric", "table"]))
    n_max = draw(st.integers(2, 64))
    model = {"kind": kind, "n_max": n_max}
    if kind == "table":
        model["table"] = draw(st.lists(st.floats(0.01, 1.0), min_size=n_max,
                                       max_size=n_max))
    sizes = draw(st.lists(st.integers(1, n_max), min_size=1, max_size=4,
                          unique=True))
    hs = draw(st.lists(st.floats(-3.0, 5.0), min_size=1, max_size=2,
                       unique=True))
    return {
        "model": model,
        "disorder": {"family": draw(st.sampled_from(sorted(DISORDER_FAMILIES))),
                     "param": draw(st.floats(0.1, 2.0))},
        "grids": {"h_values": sorted(hs), "n_values": sorted(sizes),
                  "window": draw(st.integers(16, 70)),
                  "r_max": draw(st.integers(2, 8))},
        "run": {"samples": draw(st.integers(2, 12)),
                "master_seed": draw(st.integers(0, 2 ** 32))},
    }


@settings(max_examples=25, deadline=None)
@given(_small_configs())
def test_verify_random_small_configs_pass_fail_or_skip(config):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(config, fh)
        _verify_checks(path, os.path.join(tmp, "v"))


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


@pytest.mark.parametrize("flag", [",", " ", ""])
def test_verify_empty_check_selection_is_config_error(tmp_path, capsys, flag):
    # a --checks that names no check is refused as checks.ids: [] is, and
    # no report is written
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    out = tmp_path / "v"
    assert main(["verify", "--config", cfg, "--out", str(out),
                 "--checks", flag]) == 1
    assert "selects no check" in capsys.readouterr().err
    assert not out.exists()


def test_config_errors_are_anchored(tmp_path, capsys):
    bad = _write(tmp_path, "bad.json",
                 {"model": {"kind": "power", "alpha": 0.5}})
    assert main(["compute", "--config", bad, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "model.alpha" in err and "bad.json" in err
    assert main(["compute", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o")]) == 1
    assert "cannot read config" in capsys.readouterr().err


def test_table_law_without_float_xi_runs_and_skips_c9(tmp_path, capsys):
    # p(3)/(p(1) p(2)) = e^709.196: no float xi bounds the law, but only
    # C9 reads xi, so compute runs the law and verify skips C9 naming the
    # ratio
    cfg = _write(tmp_path, "table.json", {
        "model": {"kind": "table",
                  "table": [1e-154, 1e-154, 1.0, 0.5, 0.25, 0.125, 0.0625,
                            0.03125]},
        "grids": {"n_values": [4, 6, 8]}})
    assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    checks = _verify_checks(cfg, str(tmp_path / "v"))
    (c9,) = [c for c in checks if c["check_id"] == "C9"]
    assert c9["passed"] is None
    assert c9["skip_reason"].endswith(
        "worst ratio p(t+tau)/(p(t) p(tau)) is e^709.196")


def test_compute_never_computes_xi(tmp_path, monkeypatch, capsys):
    # xi is C9's alone: the benchmark's compute workload never computes it
    calls = []
    real = model.compute_xi
    monkeypatch.setattr(model, "compute_xi",
                        lambda log_p: calls.append(1) or real(log_p))
    cfg = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "workloads", "compute.json")
    assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == []


def test_table_law_past_the_tilt_exits_with_its_span(tmp_path, capsys):
    # log p of [0.5, 1e-300, 0.25] spans 690 nats, and no tilt flattens
    # the dip at p(2): the linear step cannot certify it, so the command
    # exits 1 and names the span and the bound
    cfg = _write(tmp_path, "table.json", {
        "model": {"kind": "table", "table": [0.5, 1e-300, 0.25]},
        "grids": {"h_values": [1.0], "n_values": [3]}})
    assert main(["compute", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log p spans 689.7 nats on [1, 3]")
    assert "past the 384.6 nats that the linear step certifies" in err
    # the refusal comes before any row is written: no output directory,
    # and the run memo is closed
    assert not os.path.exists(tmp_path / "o")
    assert quenched._MEMO.get() is None


def test_steep_power_law_computes(tmp_path, capsys):
    # n_max^alpha = 8192^100 is past float range: the tail bound of the
    # normalization is taken in log domain (it underflows to 0), so the
    # law builds and the command runs
    cfg = _write(tmp_path, "steep.json", {
        "model": {"kind": "power", "alpha": 100, "n_max": 8192},
        "grids": {"h_values": [1.5], "n_values": [16]}})
    out = str(tmp_path / "o")
    assert main(["compute", "--config", cfg, "--out", out]) == 0
    rows = {r[0]: float(r[3]) for r in _rows(out)}
    assert all(math.isfinite(v) for v in rows.values())
    # p(1) carries all but 2^-101 of the mass: every site is a contact
    assert rows["kappa1"] == 16.0


def test_power_law_past_float_range_exits_with_its_first_zero_p(tmp_path,
                                                                capsys):
    # model.alpha has no upper bound; at 1e308 p(t) is 0 from t = 7 on, and
    # the command exits with that t named, not with an overflow or xi
    cfg = _write(tmp_path, "huge.json", {
        "model": {"kind": "power", "alpha": 1e308, "n_max": 4096},
        "grids": {"h_values": [1.5], "n_values": [16]}})
    out = str(tmp_path / "o")
    assert main(["compute", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: log p(7) = -inf is not finite")
    assert not os.path.exists(out)


def test_compute_grid_prints_the_bytes_of_each_cell(tmp_path, monkeypatch):
    # one moment pass, one row per h at the largest n, serves the whole
    # (h, n) grid; each printed value is the one its own system gives
    # outside the command
    cfg = _write(tmp_path, "grid.json", {
        "model": {"n_max": 256},
        "disorder": {"family": "gaussian", "param": 1.0},
        "grids": {"h_values": [1.0, 2.5], "n_values": [32, 100, 256]},
        "run": {"master_seed": 3}})
    out = str(tmp_path / "o")
    passes = []
    forward = quenched._forward

    def counted(log_p, b, order=0, *args):
        if order:
            passes.append(b.shape)
        return forward(log_p, b, order, *args)
    monkeypatch.setattr(quenched, "_forward", counted)
    assert main(["compute", "--config", cfg, "--out", out]) == 0
    assert passes == [(2, 256)]
    monkeypatch.undo()
    law = load_config(cfg).law()
    printed = [(r[0], float(r[1]), int(r[2]), r[3]) for r in _rows(out)]
    want = []
    for h in (1.0, 2.5):
        for n in (32, 100, 256):
            omega = sample_disorder_block(gaussian_disorder(1.0), n, 3, 0, 1)[0]
            sys_ = QuenchedSystem(law, h, omega, n)
            kappa = sys_.cumulants(4).kappa
            values = [kappa[0], kappa[0] - sys_.site_weight[n], *kappa[1:]]
            names = ["log_z", "log_z_minus", "kappa1", "kappa2", "kappa3",
                     "kappa4"]
            want += [(q, h, n, repr(float(v))) for q, v in zip(names, values)]
    assert printed == want


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


def test_report_reads_the_config_out_dir(tmp_path, monkeypatch, capsys):
    # with --config, report plots the config's run.out_dir, which beats
    # the environment as it does for the other subcommands
    monkeypatch.setenv("PINLAB_OUT", str(tmp_path / "from_env"))
    out = str(tmp_path / "from_cfg")
    cfg = _write(tmp_path, "scan.json",
                 dict(SMALL_SCAN, run=dict(SMALL_SCAN["run"], out_dir=out)))
    assert main(["scan", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["report", "--config", cfg]) == 0
    assert os.path.join(out, "plots", "avoidance_vs_j.svg") in \
        capsys.readouterr().out
    assert not os.path.exists(tmp_path / "from_env")


def test_report_reads_pinlab_out(tmp_path, monkeypatch, capsys):
    # without --config or --out, report plots $PINLAB_OUT
    out = str(tmp_path / "from_env")
    monkeypatch.setenv("PINLAB_OUT", out)
    cfg = _write(tmp_path, "scan.json", SMALL_SCAN)
    assert main(["scan", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["report"]) == 0
    assert os.path.join(out, "plots", "avoidance_vs_j.svg") in \
        capsys.readouterr().out


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


def _subprocess_env():
    """The environment with PYTHONPATH led by the directory the tested
    pinlab was imported from: pytest's pythonpath setting does not reach
    child processes."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pinlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_startup_imports_no_scipy(tmp_path):
    # import pinlab, its CLI and a compute run stay clear of scipy, whose
    # import would be the largest fixed cost of a run; a log_power law's
    # tail bound still imports scipy.special where it is needed
    cfg = _write(tmp_path, "toy.json", TOY)
    script = "\n".join([
        "import sys",
        "import pinlab, pinlab.cli",
        f"assert pinlab.cli.main(['compute', '--config', {cfg!r}, "
        f"'--out', {str(tmp_path / 'o')!r}]) == 0",
        "assert 'scipy' not in sys.modules, 'scipy imported'",
        "pinlab.build_law(1.0, pinlab.EllSpec('log_power', 1.0, 0.5), 64)",
        "assert 'scipy.special' in sys.modules",
    ])
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True,
                          env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr


def test_console_script_entry_point(tmp_path):
    cfg = _write(tmp_path, "toy.json", TOY)
    out = str(tmp_path / "o")
    env = _subprocess_env()
    proc = subprocess.run(
        [sys.executable, "-m", "pinlab.cli"],
        capture_output=True, text=True, env=env)
    # module is importable but argparse demands a command
    assert proc.returncode == 2
    proc = subprocess.run(
        _console_script("pinlab") + ["compute", "--config", cfg, "--out", out],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "series.csv"))
