"""Every function of the hot modules is reached by the CLI.

Runs ``verify``, ``scan`` and ``compute`` in process under cProfile on
small configs and requires that each function and method defined in
``quenched.py`` and in ``numerics.py`` ran at least once.  Functions are
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

import pinlab.numerics as numerics
import pinlab.quenched as quenched
from pinlab.cli import main

CONFIGS = {
    "verify": {
        "model": {"kind": "power", "alpha": 1.0, "n_max": 256},
        "grids": {"h_values": [3.0], "n_values": [32, 64, 128],
                  "window": 16, "r_max": 4},
        "run": {"samples": 4, "master_seed": 11},
        # C3: contact-law tails, C6: excursion CDF, C7: pair DP and
        # segment table, C9: contact probabilities
        "checks": {"h": 3.0, "ids": ["C3", "C6", "C7", "C9"]}},
    "scan": {
        "model": {"n_max": 64},
        "grids": {"h_values": [2.0], "n_values": [16, 32, 64],
                  "window": 16},
        "run": {"samples": 8, "master_seed": 5}},
    "compute": {
        "model": {"n_max": 128},
        "grids": {"h_values": [2.0], "n_values": [32, 64]},
        "run": {"master_seed": 5}},
}


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
    """pstats of the three commands run on CONFIGS."""
    tmp_path = tmp_path_factory.mktemp("reach")
    prof = cProfile.Profile()
    for name, cfg in CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = str(tmp_path / name)
        prof.enable()
        try:
            code = main([name, "--config", str(path), "--out", out])
        finally:
            prof.disable()
        assert code in (0, 2), name  # 2: a statistical check failed
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
