"""The traced benchmark's self-check, run as a test.

perfbench/selfcheck.py runs verify, scan and compute on small configs,
traced and untraced, and compares every traced call count with the count
the config implies.  A refactor that changes how often a kernel is called,
or that makes the traced outputs differ from the untraced ones, fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_selfcheck_reports_ok(tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py"),
         str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    verdict_path = tmp_path / "verdict.json"
    assert verdict_path.exists(), proc.stdout + proc.stderr
    verdict = json.loads(verdict_path.read_text())
    assert verdict["ok"] is True, json.dumps(verdict.get("failures"), indent=1)
    assert proc.returncode == 0, proc.stderr
