"""Output checks that feed ``failed`` and ``failed_frac``.

An operation is one check of ``verify`` and one row of ``series.csv`` for
``scan`` and ``compute``.  At a workload's default seed (the config's
``run.master_seed``) outputs are compared with the stored references under
``perfbench/reference``; on any other seed only invariants are checked.
The tolerances are documented in README.md and below.
"""

from __future__ import annotations

import csv
import json
import math
import os

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference")

# |x - ref| <= atol + rtol * |ref|
DEFAULT_TOL = (1e-7, 1e-12)

# verify: (check, metric-name prefix) -> (rtol, atol); the first matching
# prefix wins.  C1's kappa3/kappa4 come from batched Taylor jets, whose
# means are off by up to 7.2e-9 at n = 256 (measured against finite
# differences); the tolerance sits well above that, so a more accurate
# kappa route still matches, and far below the check's stderr (~1e-4).
# C7's mixing fit ends where the covariance series reaches its roundoff
# floor, so its range and slope move with roundoff.  C10's residual is
# roundoff.
VERIFY_TOL = {
    ("C1", "kappa3"): (1e-4, 1e-7),
    ("C1", "kappa4"): (1e-4, 1e-7),
    ("C7", "mix_gamma_stderr"): (0.5, 0.0),
    ("C7", "mix_gamma"): (0.05, 0.0),
    ("C7", "mix_r2"): (0.0, 0.01),
    ("C7", "mix_fit_range"): (0.0, 1.0),
    ("C10", "max_residual"): (0.0, 1e-13),
}

# series rows: quantity -> (rtol, atol).  log Z is an exact DP value.
SERIES_TOL = {"log_z": (1e-10, 0.0), "log_z_minus": (1e-10, 0.0)}

# quantities whose stderr is nan by construction
NAN_STDERR = {"ks_centering", "decay_G", "conc_kappa"}


def _close(x, ref, rtol, atol) -> bool:
    if isinstance(ref, bool) or isinstance(x, bool) or isinstance(ref, str):
        return x == ref
    if isinstance(ref, list):
        return (isinstance(x, list) and len(x) == len(ref)
                and all(_close(a, b, rtol, atol) for a, b in zip(x, ref)))
    if not isinstance(x, (int, float)):
        return False
    return abs(x - ref) <= atol + rtol * abs(ref)


def _numbers(value):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield float(value)
    elif isinstance(value, str) and value in ("nan", "inf", "-inf"):
        yield float(value)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v)


# ---------------------------------------------------------------------------
# independent annealed bound: (1/n) log E Z_n, which for gaussian charges of
# scale sigma is the pure model's free energy at h + sigma^2 / 2

def _log_p(model: dict, n_max: int) -> list[float]:
    alpha, c = float(model.get("alpha", 1.0)), float(model.get("ell_c", 1.0))
    raw = [math.log(c) - (alpha + 1.0) * math.log(t)
           for t in range(1, n_max + 1)]
    tail = c / (alpha * n_max ** alpha)
    shift = math.log(math.fsum(math.exp(r) for r in raw) + tail)
    return [-math.inf] + [r - shift for r in raw]


def annealed_f(cfg: dict, h: float, n: int) -> float:
    import numpy as np
    model, dis = cfg["model"], cfg["disorder"]
    if (model.get("kind", "power") != "power"
            or model.get("ell_form", "constant") != "constant"
            or dis.get("family", "gaussian") != "gaussian"):
        raise ValueError("annealed bound implemented for power/gaussian only")
    logp = np.array(_log_p(model, int(model["n_max"])))
    b = h + float(dis.get("param", 1.0)) ** 2 / 2.0
    pre = np.empty(n + 1)
    pre[0] = 0.0
    for k in range(1, n + 1):
        w = pre[:k] + logp[k:0:-1]
        m = w.max()
        pre[k] = m + math.log(float(np.exp(w - m).sum())) + b
    return float(pre[n] / n)


# ---------------------------------------------------------------------------
# verify

def check_verify(out_dir: str, cfg: dict, reference: bool):
    """Returns (operations, failed, notes)."""
    with open(os.path.join(REFERENCE, "verify_report.json")) as fh:
        ref = {c["check_id"]: c for c in json.load(fh)["checks"]}
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            got = {c["check_id"]: c for c in json.load(fh)["checks"]}
    except (OSError, ValueError, KeyError) as exc:
        return len(ref), len(ref), [f"no readable report.json: {exc}"]
    notes = []
    failed = 0
    annealed = {}
    for cid, want in ref.items():
        have = got.get(cid)
        bad = _verify_one(cid, have, want, cfg, reference, annealed)
        if bad:
            failed += 1
            notes.append(f"{cid}: {bad}")
    return len(ref), failed, notes


def _verify_one(cid, have, want, cfg, reference, annealed) -> str | None:
    if have is None:
        return "no report"
    if have.get("passed") not in (True, False, None):
        return f"passed flag {have.get('passed')!r}"
    metrics = have.get("metrics", {})
    if reference:
        if have["passed"] != want["passed"]:
            return f"passed {have['passed']} != reference {want['passed']}"
        for key, ref_value in want["metrics"].items():
            rtol, atol = DEFAULT_TOL
            for (check, prefix), tol in VERIFY_TOL.items():
                if check == cid and key.startswith(prefix):
                    rtol, atol = tol
                    break
            if key not in metrics or not _close(metrics[key], ref_value,
                                                rtol, atol):
                return (f"{key} = {metrics.get(key)!r}, reference "
                        f"{ref_value!r} (rtol {rtol}, atol {atol})")
        return None
    for key, value in metrics.items():
        if not all(math.isfinite(v) for v in _numbers(value)):
            return f"{key} not finite: {value!r}"
    if cid == "C5":
        if not metrics["jensen_worst_gap"] <= 1e-12:
            return "mu_n > f_minus_n"
        n_top = max(cfg["grids"]["n_values"])
        for key, value in metrics.items():
            if key.startswith("f_hat_h"):
                h = float(key[len("f_hat_h"):])
                if h not in annealed:
                    annealed[h] = annealed_f(cfg, h, n_top)
                if not value <= annealed[h]:
                    return f"{key} above the annealed value {annealed[h]}"
    if cid == "C1" and not metrics["kappa2_per_n"] > 0:
        return "kappa2 <= 0"
    if cid == "C8" and not metrics["v_hat"] > 0:
        return "kappa2 <= 0"
    for key, value in metrics.items():
        if key.startswith("ks_") and not all(
                0.0 <= v <= 1.0 for v in _numbers(value)):
            return f"{key} outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# scan and compute

def read_series(path: str) -> dict:
    rows = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["quantity"], float(row["h"]), int(row["n"]))
            rows[key] = (float(row["mean"]), float(row["stderr"]),
                         int(row["samples"]))
    return rows


def _kappa_reference() -> dict:
    with open(os.path.join(REFERENCE, "compute_kappa_fd.json")) as fh:
        return {(f"kappa{r['r']}", float(r["h"]), int(r["n"])):
                (r["value"], r["rtol"]) for r in json.load(fh)["rows"]}


def check_series(workload: str, out_dir: str, cfg: dict, reference: bool):
    """Returns (operations, failed, notes)."""
    ref = read_series(os.path.join(REFERENCE, f"{workload}_series.csv"))
    try:
        got = read_series(os.path.join(out_dir, "series.csv"))
    except (OSError, ValueError, KeyError) as exc:
        return len(ref), len(ref), [f"no readable series.csv: {exc}"]
    kappa_fd = _kappa_reference() if workload == "compute" else {}
    notes = []
    failed = 0
    annealed = {}
    extra = set(got) - set(ref)
    if extra:
        failed += len(extra)
        notes.append(f"unexpected rows {sorted(extra)[:3]}")
    for key, want in ref.items():
        have = got.get(key)
        if have is None:
            bad = "missing"
        elif reference:
            bad = _series_reference(key, have, want, kappa_fd)
        else:
            bad = _series_invariants(key, have, cfg, annealed)
        if bad:
            failed += 1
            notes.append(f"{key}: {bad}")
    return len(ref) + len(extra), failed, notes


def _series_reference(key, have, want, kappa_fd) -> str | None:
    quantity = key[0]
    if have[2] != want[2]:
        return f"samples {have[2]} != {want[2]}"
    if key in kappa_fd:
        value, rtol = kappa_fd[key]
        if not _close(have[0], value, rtol, 0.0):
            return f"mean {have[0]!r}, reference {value!r} (rtol {rtol})"
        return None
    rtol, atol = SERIES_TOL.get(quantity, DEFAULT_TOL)
    for got_v, ref_v, what in ((have[0], want[0], "mean"),
                               (have[1], want[1], "stderr")):
        if math.isnan(ref_v) and math.isnan(got_v):
            continue
        if not _close(got_v, ref_v, rtol, atol):
            return f"{what} {got_v!r}, reference {ref_v!r} (rtol {rtol})"
    return None


def _series_invariants(key, have, cfg, annealed) -> str | None:
    quantity, h, n = key
    mean, stderr, _ = have
    if not math.isfinite(mean):
        return f"mean {mean!r} not finite"
    if not (math.isfinite(stderr) or
            (quantity in NAN_STDERR and math.isnan(stderr))):
        return f"stderr {stderr!r} not finite"
    if quantity == "f":
        if (h, n) not in annealed:
            annealed[(h, n)] = annealed_f(cfg, h, n)
        if not mean <= annealed[(h, n)]:
            return f"f {mean} above the annealed value {annealed[(h, n)]}"
    if quantity in ("kappa2", "v") and not mean > 0:
        return "kappa2 <= 0"
    if quantity == "kappa1" and not 1.0 <= mean <= n:
        return "kappa1 outside [1, n]"
    if quantity.startswith("ks_") and not 0.0 <= mean <= 1.0:
        return "KS outside [0, 1]"
    return None


def check_outputs(workload: str, out_dir: str, cfg: dict, reference: bool):
    if workload == "verify":
        return check_verify(out_dir, cfg, reference)
    return check_series(workload, out_dir, cfg, reference)


PRIMARY_OUTPUT = {"verify": "report.json", "scan": "series.csv",
                  "compute": "series.csv"}
