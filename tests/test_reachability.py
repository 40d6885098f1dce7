"""Every function of the hot modules is reached by the CLI.

Runs ``verify``, ``scan`` and ``compute`` in process under cProfile on
tiny configs and requires that each function and method defined in the
four modules every run goes through, ``quenched.py``, ``numerics.py``,
``model.py`` and ``disorder_mc.py``, ran at least once.  Functions are
matched by the line they start on, so a method cannot hide behind a
same-named one.  A function that only tests call belongs in
``oracle.py`` or ``tests/``.

The same profiles count, run by run, the calls of ``_tilted``, the law
tilt of the rows the linear step cannot certify untilted: no power-law
row reaches it, and the geometric ``compute`` at n = 700 takes it once,
for its cumulants, whose kappa_0 is the log Z it prints.
"""

import ast
import cProfile
import csv
import json
import math
import os
import pstats
from types import SimpleNamespace

import numpy as np
import pytest

import pinlab.disorder_mc as disorder_mc
import pinlab.model as model
import pinlab.numerics as numerics
import pinlab.quenched as quenched
from pinlab.cli import main
from pinlab.config import load_config
from pinlab.model import sample_disorder_block
from pinlab.quenched import QuenchedSystem

# (command, config): tiny runs that between them reach every model kind,
# both ell forms, every disorder family and a scan of >= 500 samples
RUNS = [
    ("verify", {
        "model": {"kind": "power", "alpha": 1.0, "n_max": 256},
        "grids": {"h_values": [3.0], "n_values": [32, 64, 128],
                  "window": 16, "r_max": 4},
        "run": {"samples": 4, "master_seed": 11},
        # C3: contact-law tails, C6: excursion CDF, C7: pair DP and
        # segment table, C9: contact probabilities, C11: kappa_1 paths
        "checks": {"h": 3.0, "ids": ["C3", "C6", "C7", "C9", "C11"]}}),
    ("scan", {
        "model": {"n_max": 64},
        "grids": {"h_values": [2.0], "n_values": [16, 32, 64],
                  "window": 16},
        "run": {"samples": 8, "master_seed": 5}}),
    # the concentration scan, the centering KS and the Wilson bounds
    ("scan", {
        "model": {"kind": "table", "table": [0.5, 0.25, 0.125, 0.0625]},
        "disorder": {"family": "uniform_centered", "param": 1.0},
        "grids": {"h_values": [2.0], "n_values": [2, 3, 4], "window": 16},
        "run": {"samples": 500, "master_seed": 5}}),
    ("compute", {
        "model": {"ell_form": "log_power", "ell_beta": 0.5, "n_max": 16},
        "disorder": {"family": "zero"},
        "grids": {"h_values": [2.0], "n_values": [16]}}),
    ("compute", {
        "model": {"kind": "geometric", "n_max": 16},
        "disorder": {"family": "rademacher", "param": 0.5},
        "grids": {"h_values": [2.0], "n_values": [16]}}),
    ("compute", {
        "model": {"n_max": 16},
        "disorder": {"family": "shifted_exponential", "param": 0.5},
        "grids": {"h_values": [2.0], "n_values": [16]}}),
    # log p spans 699 log 2 nats on [1, 700]: past the linear step's
    # certificate, so the cumulants run the tilted law
    ("compute", {
        "model": {"kind": "geometric", "n_max": 700},
        "disorder": {"family": "gaussian", "param": 1.0},
        "grids": {"h_values": [1.0], "n_values": [700]}}),
]
GEOMETRIC_RUN = len(RUNS) - 1


def _defined_functions(path: str) -> dict[int, str]:
    """First line (the first decorator's, as in co_firstlineno) -> name of
    every function and method defined in the file."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            found[first] = node.name
    return found


@pytest.fixture(scope="module")
def cli_profile(tmp_path_factory):
    """pstats of the commands of RUNS, all of them (stats) and each alone
    (runs), and the configs and output directories of the runs (paths,
    outs)."""
    tmp_path = tmp_path_factory.mktemp("reach")
    profiles, paths, outs = [], [], []
    for i, (command, cfg) in enumerate(RUNS):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / f"run{i}")
        paths.append(path)
        outs.append(out)
        prof = cProfile.Profile()
        prof.enable()
        try:
            code = main([command, "--config", str(path), "--out", out])
        finally:
            prof.disable()
        profiles.append(prof)
        assert code in (0, 2), (i, command)  # 2: a statistical check failed
    return SimpleNamespace(stats=pstats.Stats(*profiles),
                           runs=[pstats.Stats(p) for p in profiles],
                           paths=paths, outs=outs)


def _calls(stats, func) -> int:
    """The calls of func in stats."""
    code = func.__code__
    return sum(calls for (fname, line, name), (_, calls, *_rest)
               in stats.stats.items()
               if (os.path.realpath(fname), line, name)
               == (os.path.realpath(code.co_filename), code.co_firstlineno,
                   code.co_name))


def _missing(stats, module) -> list[str]:
    """The functions defined in module's file that never ran."""
    target = os.path.realpath(module.__file__)
    ran = {line for (fname, line, _), (_, calls, *_rest)
           in stats.stats.items()
           if calls and os.path.realpath(fname) == target}
    defined = _defined_functions(target)
    assert defined, target
    return sorted(f"{name} (line {line})"
                  for line, name in defined.items() if line not in ran)


def test_cli_reaches_every_quenched_function(cli_profile):
    missing = _missing(cli_profile.stats, quenched)
    assert not missing, missing


def test_cli_reaches_every_numerics_function(cli_profile):
    missing = _missing(cli_profile.stats, numerics)
    assert not missing, missing


def test_cli_reaches_every_model_function(cli_profile):
    missing = _missing(cli_profile.stats, model)
    assert not missing, missing


def test_cli_reaches_every_disorder_mc_function(cli_profile):
    missing = _missing(cli_profile.stats, disorder_mc)
    assert not missing, missing


def test_only_the_uncertified_law_takes_the_tilt(cli_profile):
    # no power-law (or short table) row is tilted; the geometric compute
    # tilts once, for its cumulants (order 4), which give its log Z too,
    # so it builds no prefix table
    want = [0] * len(RUNS)
    want[GEOMETRIC_RUN] = 1
    assert [_calls(run, quenched._tilted) for run in cli_profile.runs] \
        == want


def test_tilted_cumulants_match_finite_differences(cli_profile):
    # the printed kappa_1..kappa_4 of the geometric compute, from the
    # moment rows of the tilted law, against 7-point central differences
    # of log Z (the prefix table) at step 0.04.  Measured: 3.3e-12,
    # 1.3e-12, 2.1e-7 and 6.0e-8 relative; the stencil's error sets them
    # (each gap moves with the step)
    cfg = load_config(str(cli_profile.paths[GEOMETRIC_RUN]))
    law, h, n = cfg.law(), cfg.grids.h_values[0], cfg.grids.n_values[0]
    omega = sample_disorder_block(cfg.disorder_law(), n, cfg.run.master_seed,
                                  0, 1)[0]
    with open(os.path.join(cli_profile.outs[GEOMETRIC_RUN],
                           "series.csv")) as fh:
        printed = {row["quantity"]: float(row["mean"])
                   for row in csv.DictReader(fh)}
    step, points = 0.04, np.arange(-3, 4)
    log_z = np.array([QuenchedSystem(law, h + k * step, omega, n).log_z
                      for k in points])
    vander = np.vander(points, increasing=True).T.astype(float)
    for r, rtol in ((1, 1e-9), (2, 1e-9), (3, 2e-6), (4, 1e-6)):
        rhs = np.zeros(points.size)
        rhs[r] = math.factorial(r)
        fd = float(np.linalg.solve(vander, rhs) @ log_z) / step ** r
        assert printed[f"kappa{r}"] == pytest.approx(fd, rel=rtol), r
