"""The kappa_3 / kappa_4 reference regenerator of the compute workload runs.

perfbench/reference/fd_kappa.py rebuilds compute_kappa_fd.json from the
workload config next to it.  A copy of the script runs here against a tiny
config in the same relative layout, so a change to the quenched API it
uses (``QuenchedSystem(...).cumulants``, ``.log_z``,
``sample_disorder_block``) fails in the suite, not on the next regeneration.
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

TINY = {
    "model": {"kind": "power", "alpha": 1.0, "n_max": 64},
    "disorder": {"family": "gaussian", "param": 1.0},
    "grids": {"h_values": [2.5], "n_values": [32, 64]},
    "run": {"master_seed": 7, "threads": 1},
}


def test_fd_kappa_script_writes_finite_rows(tmp_path):
    (tmp_path / "reference").mkdir()
    (tmp_path / "workloads").mkdir()
    script = tmp_path / "reference" / "fd_kappa.py"
    shutil.copy(ROOT / "perfbench" / "reference" / "fd_kappa.py", script)
    (tmp_path / "workloads" / "compute.json").write_text(json.dumps(TINY))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "reference" / "compute_kappa_fd.json")
                     .read_text())
    assert out["seed"] == 7
    cells = {(row["h"], row["n"], row["r"]): row for row in out["rows"]}
    assert set(cells) == {(2.5, n, r) for n in (32, 64) for r in (3, 4)}
    for row in cells.values():
        for key in ("value", "jet_rel_err", "rtol"):
            assert math.isfinite(row[key]), row
        assert row["rtol"] >= 1e-4
