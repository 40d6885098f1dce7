"""Every function of the hot modules is reached by the CLI.

Runs ``verify``, ``scan`` and ``compute`` in process under cProfile on
tiny configs and requires that each function and method defined in the
four modules every run goes through, ``quenched.py``, ``numerics.py``,
``model.py`` and ``disorder_mc.py``, ran at least once.  Functions are
matched by the line they start on, so a method cannot hide behind a
same-named one.  A function that only tests call belongs in
``oracle.py`` or ``tests/``.
"""

import ast
import cProfile
import json
import os
import pstats

import pytest

import pinlab.disorder_mc as disorder_mc
import pinlab.model as model
import pinlab.numerics as numerics
import pinlab.quenched as quenched
from pinlab.cli import main

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
]


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
    """pstats of the commands of RUNS."""
    tmp_path = tmp_path_factory.mktemp("reach")
    prof = cProfile.Profile()
    for i, (command, cfg) in enumerate(RUNS):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / f"run{i}")
        prof.enable()
        try:
            code = main([command, "--config", str(path), "--out", out])
        finally:
            prof.disable()
        assert code in (0, 2), (i, command)  # 2: a statistical check failed
    return pstats.Stats(prof)


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
    missing = _missing(cli_profile, quenched)
    assert not missing, missing


def test_cli_reaches_every_numerics_function(cli_profile):
    missing = _missing(cli_profile, numerics)
    assert not missing, missing


def test_cli_reaches_every_model_function(cli_profile):
    missing = _missing(cli_profile, model)
    assert not missing, missing


def test_cli_reaches_every_disorder_mc_function(cli_profile):
    missing = _missing(cli_profile, disorder_mc)
    assert not missing, missing
