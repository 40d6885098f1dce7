"""Artifact writers: series CSV, check reports, seed manifest, SVG plots.

Every writer goes through a temp file and an atomic rename, so a crash can
not leave a partially-written artifact.  Reals are formatted with repr, so
CSV values round-trip to the exact double that was computed.
"""

from __future__ import annotations

import json
import math
import os

from .disorder_mc import DecayResult, EstimateSeries
from .theorems import CheckReport

SERIES_HEADER = "quantity,h,n,mean,stderr,samples"
DECAY_HEADER = "h,j,log_mean_a,rel_stderr"
SEED_SCHEME = "philox: key = (master_seed, sample_index), counter from 0"


def atomic_write_text(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    # created with the umask's default mode, where mkstemp's would be 0600
    tmp = os.path.join(directory, f"{os.path.basename(path)}."
                                  f"{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _real(x: float) -> str:
    return repr(float(x))


def write_series_csv(path: str, series: list[EstimateSeries]):
    lines = [SERIES_HEADER]
    for s in series:
        lines.append(f"{s.quantity},{_real(s.h)},{s.n},{_real(s.mean)},"
                     f"{_real(s.stderr)},{s.samples}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_series_csv(path: str) -> list[EstimateSeries]:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != SERIES_HEADER:
        raise ValueError(f"{path}: not a series file (bad header)")
    out = []
    for line in lines[1:]:
        q, h, n, mean, stderr, samples = line.split(",")
        out.append(EstimateSeries(q, float(h), int(n), float(mean),
                                  float(stderr), int(samples)))
    return out


def write_report_json(path: str, reports: list[CheckReport]):
    payload = {
        "checks": [r.to_dict() for r in reports],
        "passed": all(r.passed is not False for r in reports),
        "counts": {
            "pass": sum(1 for r in reports if r.passed is True),
            "fail": sum(1 for r in reports if r.passed is False),
            "skip": sum(1 for r in reports if r.passed is None),
        },
    }
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_seeds_json(path: str, master_seed: int, samples: int):
    payload = {"master_seed": int(master_seed),
               "samples": int(samples),
               "scheme": SEED_SCHEME,
               "scheme_version": 1}
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_decay_csv(path: str, decays: list[DecayResult]):
    """Companion table for the two-replica profile: one row per (h, j)."""
    lines = [DECAY_HEADER]
    for d in decays:
        for j in range(1, d.window + 1):
            lines.append(f"{_real(d.h)},{j},{_real(d.log_mean_a[j])},"
                         f"{_real(d.rel_stderr_a[j])}")
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# SVG line plots: fixed canvas, no external renderer.

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 64, 16, 36, 48
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if not (math.isfinite(lo) and math.isfinite(hi)) or hi <= lo:
        return [lo]
    raw = (hi - lo) / count
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min((s for s in (1.0, 2.0, 2.5, 5.0, 10.0)), key=lambda s: abs(s * mag - raw)) * mag
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-9 * step:
        out.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return out


def _fmt_tick(v: float) -> str:
    if v == 0.0:
        return "0"
    if abs(v) >= 1e4 or abs(v) < 1e-3:
        return f"{v:.1e}"
    return f"{v:.6g}"


def svg_line_plot(path: str, title: str, x_label: str, y_label: str,
                  curves: list[tuple[str, list[float], list[float]]]):
    """Curves are (label, xs, ys); non-finite points are dropped."""
    pts = []
    for _, xs, ys in curves:
        pts.extend((x, y) for x, y in zip(xs, ys)
                   if math.isfinite(x) and math.isfinite(y))
    if not pts:
        raise ValueError(f"{path}: nothing to plot")
    x_lo = min(p[0] for p in pts); x_hi = max(p[0] for p in pts)
    y_lo = min(p[1] for p in pts); y_hi = max(p[1] for p in pts)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(y):
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    e = []
    e.append(f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
             f'font-family="sans-serif" font-size="12">')
    e.append(f'<rect width="{_W}" height="{_H}" fill="white"/>')
    e.append(f'<text x="{_W / 2:.0f}" y="20" text-anchor="middle" '
             f'font-size="14">{title}</text>')
    # axes
    e.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" '
             f'stroke="black"/>')
    e.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" '
             f'stroke="black"/>')
    for t in _ticks(x_lo, x_hi):
        x = sx(t)
        e.append(f'<line x1="{x:.1f}" y1="{_H - _MB}" x2="{x:.1f}" '
                 f'y2="{_H - _MB + 4}" stroke="black"/>')
        e.append(f'<text x="{x:.1f}" y="{_H - _MB + 18}" '
                 f'text-anchor="middle">{_fmt_tick(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = sy(t)
        e.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" '
                 f'stroke="black"/>')
        e.append(f'<text x="{_ML - 8}" y="{y + 4:.1f}" '
                 f'text-anchor="end">{_fmt_tick(t)}</text>')
    e.append(f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 10}" '
             f'text-anchor="middle">{x_label}</text>')
    e.append(f'<text x="16" y="{(_MT + _H - _MB) / 2:.0f}" text-anchor="middle" '
             f'transform="rotate(-90 16 {(_MT + _H - _MB) / 2:.0f})">'
             f'{y_label}</text>')
    for k, (label, xs, ys) in enumerate(curves):
        color = _PALETTE[k % len(_PALETTE)]
        coords = [(sx(x), sy(y)) for x, y in zip(xs, ys)
                  if math.isfinite(x) and math.isfinite(y)]
        if not coords:
            continue
        path_d = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        e.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" '
                 f'stroke-width="1.5"/>')
        for x, y in coords:
            e.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="2.2" '
                     f'fill="{color}"/>')
        ly = _MT + 14 * (k + 1)
        e.append(f'<line x1="{_W - _MR - 120}" y1="{ly - 4}" '
                 f'x2="{_W - _MR - 96}" y2="{ly - 4}" stroke="{color}" '
                 f'stroke-width="2"/>')
        e.append(f'<text x="{_W - _MR - 90}" y="{ly}">{label}</text>')
    e.append("</svg>")
    atomic_write_text(path, "\n".join(e) + "\n")


# quantity, file, title, x field, curve field (None: one curve), curve label
_SERIES_PLOTS = (
    ("f", "f_vs_h.svg", "quenched free energy", "h", "n", "n={}"),
    ("mu", "mu_vs_h.svg", "alternative free energy", "h", None, "mu"),
    ("w", "w_vs_n.svg", "centering variance density", "n", "h", "h={:g}"),
    ("v", "v_vs_n.svg", "thermal variance density", "n", "h", "h={:g}"),
)


def plot_series(out_dir: str, series: list[EstimateSeries]) -> list[str]:
    """Standard diagnostic plots from whatever quantities are present."""
    os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)
    written = []
    for q, fname, title, x, by, label in _SERIES_PLOTS:
        groups = {}
        for s in series:
            if s.quantity == q:
                groups.setdefault(getattr(s, by) if by else None, []).append(s)
        curves = []
        for key in sorted(groups):
            rows = sorted(groups[key], key=lambda s: getattr(s, x))
            curves.append((label.format(key), [getattr(s, x) for s in rows],
                           [s.mean for s in rows]))
        if any(len(xs) > 1 for _, xs, _ in curves):
            p = os.path.join(out_dir, "plots", fname)
            svg_line_plot(p, title, x, q, curves)
            written.append(p)
    return written


def plot_decay(out_dir: str, decay_path: str) -> list[str]:
    """Avoidance-vs-j plot from a written decay table, one curve per h;
    curves with no finite point are left out, and no plot is drawn when
    none is left."""
    with open(decay_path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != DECAY_HEADER:
        raise ValueError(f"{decay_path}: not a decay file (bad header)")
    curves = {}
    for line in lines[1:]:
        h, j, log_a, _ = line.split(",")
        xs, ys = curves.setdefault(float(h), ([], []))
        xs.append(int(j))
        ys.append(float(log_a))
    plottable = [(f"h={h:g}", xs, ys) for h, (xs, ys) in sorted(curves.items())
                 if any(math.isfinite(v) for v in ys)]
    if not plottable:
        return []
    os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)
    p = os.path.join(out_dir, "plots", "avoidance_vs_j.svg")
    svg_line_plot(p, "two-replica avoidance", "j", "log a_j", plottable)
    return [p]


def plot_report(out_dir: str, report_path: str) -> list[str]:
    """KS-vs-n diagnostic from a written report, when C2 ran."""
    with open(report_path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    for check in payload.get("checks", []):
        if check.get("check_id") != "C2":
            continue
        ns = check.get("parameters", {}).get("n_values", [])
        means = [check.get("metrics", {}).get(f"ks_mean_n{n}") for n in ns]
        pairs = [(n, v) for n, v in zip(ns, means)
                 if isinstance(v, (int, float))]
        if len(pairs) > 1:
            os.makedirs(os.path.join(out_dir, "plots"), exist_ok=True)
            p = os.path.join(out_dir, "plots", "ks_vs_n.svg")
            svg_line_plot(p, "contact-law normality", "n", "KS distance",
                          [("KS", [x for x, _ in pairs],
                            [y for _, y in pairs])])
            return [p]
    return []
