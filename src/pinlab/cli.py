"""Command-line entry point: compute / scan / verify / report.

All four subcommands take one config artifact; flags override its scalar
fields.  Exit codes: 0 success, 1 invalid configuration (message anchored
to the offending line), 2 at least one selected check failed (reports are
written regardless).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import disorder_mc as mc
from . import outputs
from .config import ConfigError, RunConfig, load_config, save_config
from .model import sample_disorder_block
from .quenched import (KS_L1_BUDGET, QuenchedSystem, _seed_cumulants,
                       ks_to_standard_normal, run_memo)
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
                           help="accepted for old configs and ignored: "
                           "samples run in index order on one thread")
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
    """The output directory; a command creates it once its law is built,
    so a config that fails there leaves no directory behind."""
    return cfg.run.out_dir or os.environ.get("PINLAB_OUT") or "pinlab_out"


def _emit_common(cfg: RunConfig, out: str):
    save_config(cfg, os.path.join(out, "resolved_config.json"))
    outputs.write_seeds_json(os.path.join(out, "seeds.json"),
                             cfg.run.master_seed, cfg.run.samples)


def _cmd_compute(cfg: RunConfig, out: str) -> int:
    law = cfg.law()
    disorder = cfg.disorder_law()
    r_top = 4
    h_values = [float(h) for h in cfg.grids.h_values]
    n_values = [int(n) for n in cfg.grids.n_values]
    cells = {}
    for h in h_values:
        for n in sorted(n_values, reverse=True):
            omega = sample_disorder_block(disorder, n, cfg.run.master_seed,
                                          0, 1)[0]
            if not cells:
                # one moment pass at the largest n, one row per h, keeps
                # the columns of every cell it serves in the run memo
                _seed_cumulants(law, omega, h_values, n_values, r_top)
            sys_ = QuenchedSystem(law, h, omega, n)
            # log Z is kappa_0 of the moment pass: no prefix DP runs
            cells[h, n] = (sys_.cumulants(r_top).kappa,
                           float(sys_.site_weight[n]))
    series = []
    for h in h_values:
        for n in n_values:
            kappa, last = cells[h, n]
            log_z = float(kappa[0])
            series.append(mc.EstimateSeries("log_z", h, n, log_z, 0.0, 1))
            # log Z with the final contact weight e^{h + omega_n} stripped
            series.append(mc.EstimateSeries("log_z_minus", h, n,
                                            log_z - last, 0.0, 1))
            for r in range(1, r_top + 1):
                series.append(mc.EstimateSeries(f"kappa{r}", h, n,
                                                float(kappa[r]), 0.0, 1))
    # made once every cell has run, so a law the DP refuses leaves no
    # directory behind
    os.makedirs(out, exist_ok=True)
    outputs.write_series_csv(os.path.join(out, "series.csv"), series)
    _emit_common(cfg, out)
    print(f"compute: wrote {len(series)} rows to {out}/series.csv")
    return 0


def _cmd_scan(cfg: RunConfig, out: str) -> int:
    run_cfg = cfg.mc_config()
    os.makedirs(out, exist_ok=True)
    n_top = int(max(run_cfg.n_values))
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
        # one block: its first contact_law runs the banded count DP for
        # every row (QuenchedBlock.contact_laws)
        ks_count = min(run_cfg.samples, 16)
        ks_mean, ks_err = mc._mean_stderr(np.array(
            [ks_to_standard_normal(sys_.contact_law(KS_L1_BUDGET))[0]
             for sys_ in mc._block_systems(run_cfg, h, n_top, ks_count)]))
        series.append(mc.EstimateSeries("ks_quenched", h, n_top, ks_mean,
                                        ks_err, ks_count))
        if n_top >= run_cfg.window:
            decay = mc.correlation_decay_scan(run_cfg, h)
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
    if checks_flag is not None:
        ids = [c.strip() for c in checks_flag.split(",") if c.strip()]
        if not ids:
            raise ConfigError(f"--checks {checks_flag!r} selects no check",
                              anchor="checks.ids")
        bad = [c for c in ids if c not in CHECK_IDS]
        if bad:
            raise ConfigError(f"unknown check id {bad[0]!r}; known ids are "
                              "C1..C13", anchor="checks.ids")
    ctx = cfg.check_context()
    os.makedirs(out, exist_ok=True)
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
        written += outputs.plot_decay(out, decay_path)
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
        # report may run without a config: the default one then gives its
        # output directory by the same precedence
        cfg = load_config(args.config) if args.config else RunConfig()
        cfg = _resolve(cfg, args)
        out = _out_dir(cfg)
        if args.command == "report":
            return _cmd_report(out)
        # memoised tables live for this command only
        with run_memo():
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
