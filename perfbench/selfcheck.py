#!/usr/bin/env python3
"""Harness self-check on configs that run in seconds.

usage: PYTHONPATH=src python3 perfbench/selfcheck.py OUT_DIR

Runs ``verify``, ``scan`` and ``compute`` on small configs, untraced and
then traced in one process, and checks that
  * every traced call count matches a count derived from the config (or
    from the report) without the tracer;
  * spans nest, self times are nonnegative and sum to the root spans;
  * the traced outputs are byte-identical to the untraced ones;
  * after ``uninstall`` every wrapped name holds its original object.
Writes OUT_DIR/verdict.json with ok, comparisons and failures; exits 0 iff
every comparison holds.
"""

from __future__ import annotations

import json
import os
import sys

from tracer import Tracer, by_label, self_times

SAMPLES = 4
SCAN_SAMPLES = 500        # concentration_scan needs >= 500
SMALL = {
    "verify": {
        "model": {"kind": "power", "alpha": 1.0, "n_max": 256},
        "grids": {"h_values": [3.0], "n_values": [32, 64, 128],
                  "window": 16, "r_max": 4},
        "run": {"samples": SAMPLES, "master_seed": 11, "threads": 1},
        "checks": {"h": 3.0}},
    "scan": {
        "model": {"kind": "power", "alpha": 1.0, "n_max": 64},
        "grids": {"h_values": [2.0, 3.0], "n_values": [16, 32, 64],
                  "window": 256},
        "run": {"samples": SCAN_SAMPLES, "master_seed": 11, "threads": 1}},
    "compute": {
        "model": {"kind": "power", "alpha": 1.0, "n_max": 512},
        "grids": {"h_values": [1.5, 3.5], "n_values": [64, 128]},
        "run": {"master_seed": 11, "threads": 1}},
}
PRIMARY = {"verify": "report.json", "scan": "series.csv",
           "compute": "series.csv"}


def expected_verify(report: dict) -> dict:
    """Call counts implied by the small verify config and its report."""
    checks = {c["check_id"]: c for c in report["checks"]}
    window, n_top = 16, 128
    offsets = {round(i * (n_top - window) / 7) for i in range(8)}
    excursion_ns = (64, 128, 256)             # top // 4, top // 2, top
    m_caps = [min(checks["C6"]["metrics"][f"band_n{n}"][1] + 3, n)
              for n in excursion_ns]
    clt = 5 * 2                               # clt_seeds x (128, 256)
    c13 = SAMPLES * 3                         # count x n_values <= 512
    counts = {f"theorems.C{i}": 1 for i in range(1, 14)}
    counts.update({
        "quenched.two_replica_avoidance_log": SAMPLES * len(offsets),
        "disorder_mc.correlation_decay_scan": 1,
        "oracle.build_path_set": 200,          # oracle_instances
        "quenched.contact_probability": checks["C9"]["parameters"]["sites"],
        "quenched.max_excursion_cdf": 8 * sum(m_caps),   # exact_samples
        "quenched.contact_law": clt + SAMPLES + c13,
        # C5: estimate_mu (3 n) + estimate_f per h; C6: estimate_mu (3 n)
        "disorder_mc.sample_log_z": 4 + 3,
        # C1, C4, C12: one per n; C8 and C13: one each
        "disorder_mc.sample_cumulants": 3 + 3 + 3 + 1 + 1,
        "disorder_mc.sample_kappa1_path": 1,
        "quenched.init": clt + SAMPLES + 8 * 3 + SAMPLES + 150 + c13,
        "numerics.log_of_jet": 0,
    })
    return counts


def expected_scan() -> dict:
    grids = SMALL["scan"]["grids"]
    hs, ns = len(grids["h_values"]), len(grids["n_values"])
    ks = min(SCAN_SAMPLES, 16)
    return {"disorder_mc.estimate_f": hs * ns,
            "disorder_mc.estimate_mu": hs,
            "disorder_mc.centering_statistics": hs,
            "disorder_mc.concentration_scan": hs,
            "disorder_mc.correlation_decay_scan": 0,
            "disorder_mc.sample_log_z": 2 * hs * ns,
            "quenched.init": hs * ks,
            "quenched.contact_law": hs * ks,
            "model.sample_disorder_block": hs * (2 * ns * 8 + 8 + 8 + 1),
            "counter:disorder_mc.sample_evals":
                hs * (2 * ns + 2) * SCAN_SAMPLES,
            "counter:disorder_mc.sample_repeats":
                hs * (ns + 2) * SCAN_SAMPLES,
            "counter:quenched.build_repeats": 0}


def expected_compute() -> dict:
    grids = SMALL["compute"]["grids"]
    cells = len(grids["h_values"]) * len(grids["n_values"])
    terms = len(grids["h_values"]) * sum(n * (n + 1) // 2
                                         for n in grids["n_values"])
    return {"quenched.init": cells, "quenched.cumulants": cells,
            "numerics.log_of_jet": cells,
            "model.sample_disorder_block": cells,
            "counter:model.sample_disorder_block.rows": cells,
            "counter:quenched.init.terms": terms,
            "counter:quenched.cumulants.terms": 5 * terms,   # r_max 4
            "cli.main": 1, "config.load_config": 1, "model.build_law": 1}


def _run_spans(spans: list, run_id: int) -> list:
    """The spans of one run, with parent indices rebased to the slice."""
    idx = [i for i, s in enumerate(spans) if s[4] == run_id]
    if not idx:
        return []
    base = idx[0]
    return [[s[0], s[1], s[2], s[3] - base if s[3] >= 0 else -1, s[4]]
            for s in spans[base:idx[-1] + 1]]


def main() -> int:
    out = sys.argv[1]
    os.makedirs(out, exist_ok=True)
    import pinlab.cli

    failures: list[str] = []
    comparisons = 0

    def expect(what, got, want):
        nonlocal comparisons
        comparisons += 1
        if got != want:
            failures.append(f"{what}: traced {got!r}, expected {want!r}")

    argv = {}
    for name, cfg in SMALL.items():
        path = os.path.join(out, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        argv[name] = [name, "--config", path, "--out"]
        pinlab.cli.main(argv[name] + [os.path.join(out, name + "-plain")])

    tracer = Tracer()
    tracer.install()
    counters, run_ids = {}, {}
    try:
        for name in SMALL:
            tracer.new_run()
            run_ids[name] = tracer.run_id
            pinlab.cli.main(argv[name] + [os.path.join(out, name + "-traced")])
            counters[name] = tracer.counters
    finally:
        tracer.uninstall()
    expect("names left wrapped after uninstall", tracer.unrestored(), [])

    for name in SMALL:
        with open(os.path.join(out, name + "-plain", PRIMARY[name]),
                  "rb") as fh:
            plain = fh.read()
        with open(os.path.join(out, name + "-traced", PRIMARY[name]),
                  "rb") as fh:
            traced = fh.read()
        expect(f"{name}: traced output identical to untraced",
               traced == plain, True)
        spans = _run_spans(tracer.spans, run_ids[name])
        selfs = self_times(spans)
        roots = [s for s in spans if s[3] == -1]
        expect(f"{name}: one root span (cli.main)",
               [s[0] for s in roots], ["cli.main"])
        nested = all(spans[s[3]][1] <= s[1] <= s[2] <= spans[s[3]][2]
                     for s in spans if s[3] >= 0)
        expect(f"{name}: child spans lie inside their parents", nested, True)
        expect(f"{name}: self times nonnegative",
               min(selfs) >= -1e-9, True)
        total = sum(s[2] - s[1] for s in roots)
        expect(f"{name}: self times sum to the root span",
               abs(sum(selfs) - total) <= 1e-6 * max(1.0, total), True)
        stats = by_label(spans)
        if name == "verify":
            with open(os.path.join(out, name + "-plain", "report.json")) as fh:
                want = expected_verify(json.load(fh))
        else:
            want = expected_scan() if name == "scan" else expected_compute()
        for label, count in want.items():
            if label.startswith("counter:"):
                key = label[len("counter:"):]
                expect(f"{name}: counter {key}",
                       counters[name].get(key, 0), count)
            else:
                expect(f"{name}: calls of {label}",
                       stats.get(label, {}).get("calls", 0), count)

    verdict = {"ok": not failures, "comparisons": comparisons,
               "failures": failures}
    with open(os.path.join(out, "verdict.json"), "w") as fh:
        json.dump(verdict, fh, indent=1)
    print(json.dumps(verdict))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
