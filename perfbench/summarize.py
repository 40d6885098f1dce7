#!/usr/bin/env python3
"""Medians, quartiles and spreads over the stored untraced runs.

usage (from the root of a checkout): python3 perfbench/summarize.py

Reads ``.perfbench-runs/history.jsonl`` (one record per run of run.py) and
prints, per workload and end-to-end metric, the median over runs, the
quartiles, the run count and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json, plus the share of failed operations.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from run import RUNS, WORKLOADS, bench_spec, quartiles


def main() -> int:
    spec = bench_spec()
    runs: dict[str, list[dict]] = {}
    try:
        with open(os.path.join(RUNS, "history.jsonl")) as fh:
            for line in fh:
                rec = json.loads(line)
                if rec["trace"] == 0:
                    runs.setdefault(rec["workload"], []).append(rec)
    except OSError:
        print("no stored runs", file=sys.stderr)
        return 1
    for workload in WORKLOADS:
        recs = runs.get(workload, [])
        if not recs:
            continue
        bad = sum(not r["correct"] for r in recs)
        failed = sum(r.get("failed", 0) for r in recs)
        attempted = sum(r.get("attempted", 0) for r in recs)
        print(f"{workload}: {len(recs)} runs, seeds "
              f"{sorted({r['seed'] for r in recs})}, {bad} not correct, "
              f"failed_frac {failed}/{attempted}")
        for item in spec["end_to_end"]:
            values = [r["metrics"][item["name"]] for r in recs
                      if item["name"] in r["metrics"]]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {item['name']:12s} {item['unit']:3s} median "
                  f"{med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}  "
                  f"spread {spread:.4f} (bound {item['bound']})")
        loads = [r["provenance"]["load1_start"] for r in recs]
        print(f"  load1 at start: median {statistics.median(loads):.2f}, "
              f"max {max(loads):.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
