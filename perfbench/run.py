#!/usr/bin/env python3
"""pinlab benchmark: one workload, timed end to end or traced per layer.

usage (from the root of a checkout):
  python3 perfbench/run.py --workload verify|scan|compute|all
                           [--seed N] [--seconds S] [--trace 0|1]

Each CLI call runs in a fresh single-threaded process (``threads = 1`` and
one BLAS thread).  Untraced (``--trace 0``), the run repeats the call until
``--seconds`` have passed (at least once) and reports the medians of
wall_s, cpu_s and peak_rss_mb over the calls, and the median set-up time
over the calls plus probe calls that stop after set-up, so every run has at
least five set-up samples.  Traced (``--trace 1``), it first runs the
harness self-check, then one untraced call and one call with every public
pinlab function wrapped (see tracer.py), and reports the per-layer metrics.

Outputs are checked against stored references at the workload's default
seed and for invariants on any other seed (see checks.py).  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  Without ``--seed`` each workload runs at its default
seed.  Run files go to ``.perfbench-runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from checks import PRIMARY_OUTPUT, check_outputs
from tracer import KERNELS, by_label, outermost_s

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUNS = os.path.join(ROOT, ".perfbench-runs")
WORKLOADS = ("verify", "scan", "compute")
RUN_LIMIT_S = 170.0        # a run must end within 180 s
MIN_SETUP_SAMPLES = 5
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}

TRIPLE = ("quenched.two_replica_avoidance_log", "quenched.suffix_logZ",
          "quenched.segment_partitions", "quenched.max_excursion_cdf",
          "quenched.init", "quenched.cumulants", "numerics.log_of_jet",
          "quenched.contact_law", "quenched.contact_probability",
          "disorder_mc.sample_log_z", "disorder_mc.sample_cumulants",
          "disorder_mc.sample_kappa1_path")
ESTIMATORS = ("disorder_mc.estimate_f", "disorder_mc.estimate_mu",
              "disorder_mc.centering_statistics",
              "disorder_mc.correlation_decay_scan",
              "disorder_mc.concentration_scan")


class ProgramMissing(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _workload_config(workload: str) -> dict:
    with open(os.path.join(HERE, "workloads", f"{workload}.json")) as fh:
        return json.load(fh)


def _child_env() -> dict:
    env = dict(os.environ, **CHILD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(args: list[str], log_path: str, deadline: float) -> dict:
    """Run ``python3 args`` to completion; wall time and rusage of it alone."""
    fd = os.open(log_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        t0 = time.monotonic()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args],
                             _child_env(),
                             file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1),
                                           (os.POSIX_SPAWN_DUP2, fd, 2)])
    finally:
        os.close(fd)
    killer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                             os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    t1 = time.monotonic()
    return {"t0": t0, "wall": t1 - t0,
            "cpu": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "exit": os.waitstatus_to_exitcode(status),
            "timed_out": t1 >= deadline}


def _read_json(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int | None, seconds: float):
        self.workload = workload
        self.cfg = _workload_config(workload)
        self.default_seed = int(self.cfg["run"]["master_seed"])
        self.seed = self.default_seed if seed is None else seed
        self.reference = self.seed == self.default_seed
        self.seconds = seconds
        self.start = time.monotonic()
        self.deadline = self.start + RUN_LIMIT_S
        self.dir = os.path.join(RUNS, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.count = 0
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.ops = 0
        self.first_output: bytes | None = None

    def _cli_args(self, out: str) -> list[str]:
        return [self.workload, "--config",
                os.path.join(HERE, "workloads", f"{self.workload}.json"),
                "--out", out, "--seed", str(self.seed), "--threads", "1"]

    def invoke(self, mode: str) -> dict:
        """One child process; checks the CLI's outputs unless probing."""
        k = self.count
        self.count += 1
        out = os.path.join(self.dir, f"out{k}")
        result_path = os.path.join(self.dir, f"result{k}.json")
        r = spawn([os.path.join(HERE, "child.py"), mode, result_path,
                   *self._cli_args(out)],
                  os.path.join(self.dir, f"log{k}.txt"), self.deadline)
        r["result"] = _read_json(result_path) or {}
        if mode == "probe":
            r["ok"] = r["exit"] == 0 and "t_setup" in r["result"]
            return r
        self._check(r, out)
        return r

    def _check(self, r: dict, out: str):
        ok_codes = (0, 2) if self.workload == "verify" else (0,)
        res = r["result"]
        crashed = (r["exit"] != 0 or r["timed_out"] or "error" in res
                   or res.get("code") not in ok_codes)
        path = os.path.join(out, PRIMARY_OUTPUT[self.workload])
        if self.first_output is None:
            ops, failed, notes = check_outputs(self.workload, out, self.cfg,
                                               self.reference)
            self.ops = ops
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    self.first_output = fh.read()
        else:
            ops, failed, notes = self.ops, 0, []
            try:
                with open(path, "rb") as fh:
                    same = fh.read() == self.first_output
            except OSError:
                same = False
            if not same:
                failed, notes = ops, ["output differs from the first call"]
        if crashed:
            failed = ops
            notes.append(f"call {self.count - 1} failed: exit {r['exit']}, "
                         f"code {res.get('code')}, timed out {r['timed_out']}"
                         + (f"\n{res['error']}" if "error" in res else ""))
        self.attempted += ops
        self.failed += failed
        self.notes += notes
        r["ok"] = not crashed

    # -- untraced ------------------------------------------------------------

    def untraced(self) -> dict:
        calls = []
        while True:
            r = self.invoke("run")
            calls.append(r)
            if not r["ok"]:
                break
            now = time.monotonic()
            if (now - self.start >= self.seconds
                    or now + 1.5 * r["wall"] > self.deadline):
                break
        setups = [r["result"]["t_setup"] - r["t0"] for r in calls
                  if "t_setup" in r["result"]]
        while len(setups) < MIN_SETUP_SAMPLES and all(r["ok"] for r in calls):
            p = self.invoke("probe")
            if not p["ok"]:
                self.notes.append("set-up probe failed")
                self.failed += 1
                break
            setups.append(p["result"]["t_setup"] - p["t0"])
        return {"wall_s": [r["wall"] for r in calls],
                "cpu_s": [r["cpu"] for r in calls],
                "peak_rss_mb": [r["rss_mb"] for r in calls],
                "setup_s": setups}

    # -- traced -------------------------------------------------------------

    def traced(self) -> tuple[dict, dict]:
        info = {}
        sc = spawn([os.path.join(HERE, "selfcheck.py"),
                    os.path.join(self.dir, "selfcheck")],
                   os.path.join(self.dir, "selfcheck.txt"), self.deadline)
        verdict = _read_json(os.path.join(self.dir, "selfcheck",
                                          "verdict.json")) or {}
        info["selfcheck"] = verdict
        if sc["exit"] != 0 or not verdict.get("ok"):
            self.failed += 1
            self.notes.append("harness self-check failed: "
                              + "; ".join(verdict.get("failures", ["crash"])))
        # the untraced call right before the traced one is the overhead's
        # baseline: the machine's speed drifts over minutes
        untraced = self.invoke("run")["wall"]
        info["untraced_wall"] = untraced
        r = self.invoke("trace")
        res = r["result"]
        if res.get("unrestored"):
            self.failed += 1
            self.notes.append(f"names not restored: {res['unrestored']}")
        info["trace_wall"] = r["wall"]
        if "spans" not in res:
            return {}, info
        c = res["counters"]
        info["repeats"] = {
            "quenched": (c.get("quenched.build_repeats", 0),
                         c.get("quenched.builds", 0)),
            "disorder_mc": (c.get("disorder_mc.sample_repeats", 0),
                            c.get("disorder_mc.sample_evals", 0))}
        return layer_metrics(res, r["wall"], untraced), info


def layer_metrics(res: dict, wall: float, untraced_wall: float) -> dict:
    spans, counters = res["spans"], res["counters"]
    stats = by_label(spans)

    def st(label: str, key: str) -> float:
        return float(stats.get(label, {}).get(key, 0.0))

    m = {}
    for label in TRIPLE:
        for key in ("calls", "s", "self_s"):
            m[f"{label}.{key}"] = st(label, key)
    for label in ESTIMATORS:
        for key in ("calls", "s"):
            m[f"{label}.{key}"] = st(label, key)
    for label in KERNELS:
        terms = float(counters.get(label + ".terms", 0))
        m[f"{label}.terms"] = terms
        m[f"{label}.ns_per_term"] = (st(label, "s") * 1e9 / terms
                                     if terms else 0.0)
    for layer, repeats, total in (
            ("quenched", "quenched.build_repeats", "quenched.builds"),
            ("disorder_mc", "disorder_mc.sample_repeats",
             "disorder_mc.sample_evals")):
        n = counters.get(total, 0)
        m[f"{layer}.repeat_frac"] = counters.get(repeats, 0) / n if n else 0.0
    for i in range(1, 14):
        m[f"theorems.C{i}.s"] = st(f"theorems.C{i}", "s")
    m["model.build_law.s"] = st("model.build_law", "s")
    m["config.load_config.s"] = st("config.load_config", "s")
    for key in ("calls", "s"):
        m[f"model.sample_disorder_block.{key}"] = st(
            "model.sample_disorder_block", key)
        m[f"oracle.build_path_set.{key}"] = st("oracle.build_path_set", key)
    m["model.sample_disorder_block.rows"] = float(
        counters.get("model.sample_disorder_block.rows", 0))
    m["outputs.s"] = outermost_s(spans, "outputs.")
    m["outputs.bytes"] = float(counters.get("outputs.bytes", 0))
    roots = {i for i, s in enumerate(spans) if s[3] == -1
             and s[0] == "cli.main"}
    covered = sum(s[2] - s[1] for s in spans
                  if (s[3] == -1 and s[0] != "cli.main") or s[3] in roots)
    m["trace.wall_s"] = wall
    m["trace.overhead_s"] = wall - untraced_wall
    m["trace.coverage"] = covered / wall
    return m


# ---------------------------------------------------------------------------
# provenance

def provenance(run: Run, versions: dict, load_start: float) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "pinlab")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"workload": run.workload, "seed": run.seed,
            "check_mode": "reference" if run.reference else "invariants",
            "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
            **versions, "nproc": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "child_env": CHILD_ENV,
            "load1_start": load_start, "load1_end": os.getloadavg()[0]}


# ---------------------------------------------------------------------------

def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _versions() -> dict:
    os.makedirs(RUNS, exist_ok=True)
    path = os.path.join(RUNS, "info.json")
    r = spawn([os.path.join(HERE, "child.py"), "info", path],
              os.path.join(RUNS, "info.txt"), time.monotonic() + 60)
    info = _read_json(path)
    if r["exit"] != 0 or not info:
        with open(os.path.join(RUNS, "info.txt")) as fh:
            raise ProgramMissing("pinlab does not import:\n" + fh.read())
    return info["versions"]


def run_one(workload: str, seed: int | None, seconds: float, trace: bool,
            spec: dict, versions: dict) -> dict:
    load_start = os.getloadavg()[0]
    run = Run(workload, seed, seconds)
    wanted = spec["per_layer" if trace else "end_to_end"]
    print(f"perfbench {workload}: seed {run.seed}, trace {int(trace)}, "
          f"output check in {'reference' if run.reference else 'invariant'}"
          f" mode")
    metrics = {}
    if trace:
        values, info = run.traced()
        for item in wanted:
            name = item["name"]
            if name in values:
                metrics[name] = {"value": values[name], "unit": item["unit"]}
                print(f"  {name:48s} {item['unit']:6s} {values[name]:.6g}")
        if "repeats" in info:
            print("  repeats: " + ", ".join(
                f"{layer} {rep:g}/{total:g}"
                for layer, (rep, total) in info["repeats"].items()))
        if "trace.overhead_s" in values:
            print(f"  trace overhead {values['trace.overhead_s']:.3f} s = "
                  f"traced wall {info['trace_wall']:.3f} s - untraced wall "
                  f"{info['untraced_wall']:.3f} s just before")
        sc = info.get("selfcheck", {})
        print(f"  harness self-check: {'PASS' if sc.get('ok') else 'FAIL'}"
              f" ({sc.get('comparisons', 0)} comparisons)")
    else:
        samples = run.untraced()
        for item in wanted:
            name = item["name"]
            if not samples.get(name):
                continue
            q1, med, q3 = quartiles(samples[name])
            metrics[name] = {"value": med, "unit": item["unit"]}
            print(f"  {name:12s} {item['unit']:3s} median {med:.6g}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  n {len(samples[name])}")
    missing = [item["name"] for item in wanted if item["name"] not in metrics]
    if missing:
        run.notes.append(f"metrics not measured: {missing}")
    frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"  failed_frac  ratio {frac:.6g} ({run.failed}/{run.attempted} "
          f"operations)")
    correct = run.failed == 0 and run.attempted > 0 and not missing
    print(f"  output check ({'reference' if run.reference else 'invariants'}"
          f"): {'PASS' if correct else 'FAIL'}")
    for note in run.notes[:20]:
        print(f"    {note}")
    prov = provenance(run, versions, load_start)
    if trace and "trace.overhead_s" in metrics:
        prov["trace_overhead_s"] = metrics["trace.overhead_s"]["value"]
    prov["units"] = {k: v["unit"] for k, v in metrics.items()}
    print("provenance: " + json.dumps(prov, sort_keys=True))
    line = {"correct": correct, "attempted": max(run.attempted, 1),
            "failed": run.failed if run.attempted else 1,
            "metrics": metrics}
    with open(os.path.join(RUNS, "history.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": workload, "seed": run.seed,
                             "trace": int(trace), "correct": correct,
                             "attempted": run.attempted,
                             "failed": run.failed,
                             "metrics": {k: v["value"]
                                         for k, v in metrics.items()},
                             "provenance": prov}) + "\n")
    return line


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int,
                   help="disorder seed (default: the workload's own)")
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time per run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pinlab", "__init__.py")):
        print("perfbench: no src/pinlab in the current directory; run from "
              "the root of a pinlab checkout", file=sys.stderr)
        return 2
    spec = bench_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        versions = _versions()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for w in workloads:
        line = run_one(w, args.seed, seconds, bool(args.trace), spec,
                       versions)
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
