"""Command-line entry point: compute / scan / verify / report.

All four subcommands take one config artifact; flags override its scalar
fields.  Exit codes: 0 success, 1 invalid configuration (message anchored
to the offending line), 2 at least one selected check failed (reports are
written regardless).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

from . import disorder_mc as mc
from . import outputs
from .config import ConfigError, RunConfig, load_config, save_config
from .model import sample_disorder_block
from .quenched import QuenchedSystem, ks_to_standard_normal
from .theorems import CHECK_IDS, full_report


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pinlab",
        description="pinning-model laboratory: exact DP observables, "
                    "disorder Monte Carlo, verification checks")
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "compute": "exact single-realization observables over the grids",
        "scan": "Monte Carlo estimate series over the grids",
        "verify": "run verification checks and write a report",
        "report": "render SVG plots from previously written outputs",
    }
    for name, help_text in specs.items():
        q = sub.add_parser(name, help=help_text)
        q.add_argument("--config", required=(name != "report"),
                       help="path to the JSON run configuration")
        q.add_argument("--out", help="output directory "
                       "(default: config run.out_dir, then $PINLAB_OUT, "
                       "then ./pinlab_out)")
        if name != "report":
            q.add_argument("--seed", type=int,
                           help="override run.master_seed")
            q.add_argument("--threads", type=int,
                           help="worker threads (speed only, results "
                           "are thread-count independent)")
        if name == "verify":
            q.add_argument("--checks",
                           help="comma-separated check ids, e.g. C1,C5,C7")
    return p


def _resolve(cfg: RunConfig, args) -> RunConfig:
    flags = {"master_seed": getattr(args, "seed", None),
             "threads": getattr(args, "threads", None),
             "out_dir": args.out}
    changes = {k: v for k, v in flags.items() if v is not None}
    if not changes:
        return cfg
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(cfg.run, **changes))
    cfg.validate()
    return cfg


def _out_dir(cfg: RunConfig) -> str:
    out = cfg.run.out_dir or os.environ.get("PINLAB_OUT") or "pinlab_out"
    os.makedirs(out, exist_ok=True)
    return out


def _emit_common(cfg: RunConfig, out: str):
    save_config(cfg, os.path.join(out, "resolved_config.json"))
    outputs.write_seeds_json(os.path.join(out, "seeds.json"),
                             cfg.run.master_seed, cfg.run.samples)


def _cmd_compute(cfg: RunConfig, out: str) -> int:
    law = cfg.law()
    disorder = cfg.disorder_law()
    r_top = min(4, cfg.run.jet_order)
    series = []
    for h in cfg.grids.h_values:
        for n in cfg.grids.n_values:
            omega = sample_disorder_block(disorder, int(n),
                                          cfg.run.master_seed, 0, 1)[0]
            sys_ = QuenchedSystem(law, float(h), omega, int(n),
                                  jet_order=cfg.run.jet_order)
            kappa = sys_.cumulants(r_top).kappa
            series.append(mc.EstimateSeries("log_z", float(h), int(n),
                                            sys_.log_z, 0.0, 1))
            series.append(mc.EstimateSeries("log_z_minus", float(h), int(n),
                                            sys_.log_z_minus, 0.0, 1))
            for r in range(1, r_top + 1):
                series.append(mc.EstimateSeries(f"kappa{r}", float(h), int(n),
                                                float(kappa[r]), 0.0, 1))
    outputs.write_series_csv(os.path.join(out, "series.csv"), series)
    _emit_common(cfg, out)
    print(f"compute: wrote {len(series)} rows to {out}/series.csv")
    return 0


def _cmd_scan(cfg: RunConfig, out: str) -> int:
    run_cfg = cfg.mc_config()
    n_top = int(max(run_cfg.n_values))
    window = int(cfg.grids.window)
    fit_range = (max(4, window // 10), (3 * window) // 4)
    series = []
    decays = []
    for h in run_cfg.h_values:
        for n in run_cfg.n_values:
            series.append(mc.estimate_f(run_cfg, h, n).series)
        if len(run_cfg.n_values) >= 3:
            series.append(mc.estimate_mu(run_cfg, h).series)
        cent = mc.centering_statistics(run_cfg, h, n_top)
        series.extend(cent.series())
        series.append(mc.EstimateSeries("rho", h, n_top, cent.mean / n_top,
                                        cent.mean_stderr / n_top,
                                        run_cfg.samples))
        ks_count = min(run_cfg.samples, 16)
        block = sample_disorder_block(run_cfg.disorder, n_top,
                                      run_cfg.master_seed, 0, ks_count)
        ks_vals = []
        for i in range(ks_count):
            law_i = QuenchedSystem(run_cfg.law, h, block[i],
                                   n_top).contact_law(n_cap=max(2048, n_top))
            ks_vals.append(ks_to_standard_normal(law_i)[0])
        ks_mean = sum(ks_vals) / ks_count
        ks_err = (sum((v - ks_mean) ** 2 for v in ks_vals)
                  / (ks_count - 1)) ** 0.5 / math.sqrt(ks_count) \
            if ks_count > 1 else 0.0
        series.append(mc.EstimateSeries("ks_quenched", h, n_top, ks_mean,
                                        ks_err, ks_count))
        if n_top >= window:
            decay = mc.correlation_decay_scan(run_cfg, h, fit_range=fit_range)
            series.extend(decay.series())
            decays.append(decay)
        if run_cfg.samples >= 500:
            conc = mc.concentration_scan(run_cfg, h, n_top,
                                         cfg.grids.u_grid)
            series.extend(conc.series())
    outputs.write_series_csv(os.path.join(out, "series.csv"), series)
    if decays:
        outputs.write_decay_csv(os.path.join(out, "decay.csv"), decays)
    _emit_common(cfg, out)
    print(f"scan: wrote {len(series)} rows to {out}/series.csv")
    return 0


def _cmd_verify(cfg: RunConfig, out: str, checks_flag: str | None) -> int:
    ids = list(cfg.checks.ids)
    if checks_flag:
        ids = [c.strip() for c in checks_flag.split(",") if c.strip()]
        bad = [c for c in ids if c not in CHECK_IDS]
        if bad:
            raise ConfigError(f"unknown check id {bad[0]!r}; known ids are "
                              "C1..C13", anchor="checks.ids")
    ctx = cfg.check_context()
    reports = full_report(ctx, checks=ids)
    outputs.write_report_json(os.path.join(out, "report.json"), reports)
    _emit_common(cfg, out)
    failed = 0
    for r in reports:
        if r.passed is True:
            status = "pass"
        elif r.passed is False:
            status = "FAIL"
            failed += 1
        else:
            status = f"skip ({r.skip_reason})"
        print(f"{r.check_id:4s} {status:>4s}  {r.description}")
    print(f"verify: {len(reports)} checks, {failed} failed; report at "
          f"{out}/report.json")
    return 2 if failed else 0


def _cmd_report(out: str) -> int:
    written = []
    series_path = os.path.join(out, "series.csv")
    if os.path.exists(series_path):
        written += outputs.plot_series(out, outputs.read_series_csv(series_path))
    decay_path = os.path.join(out, "decay.csv")
    if os.path.exists(decay_path):
        curves = {}
        with open(decay_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        for line in lines[1:]:
            h, j, log_a, _ = line.split(",")
            curves.setdefault(float(h), ([], []))
            curves[float(h)][0].append(int(j))
            curves[float(h)][1].append(float(log_a))
        plottable = [(f"h={h:g}", xs, ys) for h, (xs, ys) in
                     sorted(curves.items())
                     if any(math.isfinite(v) for v in ys)]
        if plottable:
            os.makedirs(os.path.join(out, "plots"), exist_ok=True)
            p = os.path.join(out, "plots", "avoidance_vs_j.svg")
            outputs.svg_line_plot(p, "two-replica avoidance", "j",
                                  "log a_j", plottable)
            written.append(p)
    report_path = os.path.join(out, "report.json")
    if os.path.exists(report_path):
        written += outputs.plot_report(out, report_path)
    if not written:
        print(f"report: nothing to plot in {out} (run scan or verify first)")
        return 0
    for p in written:
        print(f"report: wrote {p}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "report":
            if args.config:
                cfg = load_config(args.config)
                cfg = _resolve(cfg, args)
                out = _out_dir(cfg)
            else:
                out = args.out or os.environ.get("PINLAB_OUT") or "pinlab_out"
            return _cmd_report(out)
        cfg = load_config(args.config)
        cfg = _resolve(cfg, args)
        out = _out_dir(cfg)
        if args.command == "compute":
            return _cmd_compute(cfg, out)
        if args.command == "scan":
            return _cmd_scan(cfg, out)
        return _cmd_verify(cfg, out, getattr(args, "checks", None))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
