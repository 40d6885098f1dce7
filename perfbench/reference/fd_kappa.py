#!/usr/bin/env python3
"""Independent kappa_3 / kappa_4 references for the compute workload.

usage (from the root of a checkout, about three minutes):
  PYTHONPATH=src python3 perfbench/reference/fd_kappa.py

The compute workload prints kappa_1..4 from Taylor jets, which lose digits
to cancellation as n grows (kappa_4 is off by up to ~90% at n = 8192).
This script estimates kappa_r = d^r log Z / dh^r instead from the exact
prefix DP (log Z only), by 7-point central differences at steps 0.04 and
0.08 combined by Richardson extrapolation (the stencil error is
O(step^4), hence the factor 1/15).  Each row's tolerance is the larger of
1e-4 and twice the present jet error, so today's output passes and a more
accurate kappa route passes too.  Writes compute_kappa_fd.json next to
this file.
"""

import json
import math
import os

import numpy as np

from pinlab.config import load_config
from pinlab.model import sample_disorder_block
from pinlab.quenched import QuenchedSystem

HERE = os.path.dirname(os.path.abspath(__file__))
STEPS = (0.04, 0.08)
POINTS = np.arange(-3, 4)


def stencil(order: int) -> np.ndarray:
    a = np.vander(POINTS, increasing=True).T.astype(float)
    b = np.zeros(POINTS.size)
    b[order] = math.factorial(order)
    return np.linalg.solve(a, b)


def main():
    cfg = load_config(os.path.join(HERE, "..", "workloads", "compute.json"))
    law, disorder = cfg.law(), cfg.disorder_law()
    seed = cfg.run.master_seed
    rows = []
    for h in cfg.grids.h_values:
        for n in cfg.grids.n_values:
            omega = sample_disorder_block(disorder, n, seed, 0, 1)[0]
            jet = QuenchedSystem(law, h, omega, n).cumulants(4).kappa
            est = {}
            for step in STEPS:
                log_z = np.array([QuenchedSystem(law, h + k * step, omega,
                                                 n).log_z for k in POINTS])
                est[step] = {r: float(stencil(r) @ log_z) / step ** r
                             for r in (3, 4)}
            for r in (3, 4):
                fine, coarse = est[STEPS[0]][r], est[STEPS[1]][r]
                value = fine + (fine - coarse) / 15.0
                jet_err = abs(jet[r] - value) / abs(value)
                rows.append({"h": h, "n": n, "r": r, "value": value,
                             "jet_rel_err": jet_err,
                             "rtol": max(1e-4, float(f"{2 * jet_err:.1g}"))})
                print(rows[-1], flush=True)
    with open(os.path.join(HERE, "compute_kappa_fd.json"), "w") as fh:
        json.dump({"seed": seed, "method": "Richardson-extrapolated central "
                   "differences of the prefix-DP log Z, steps "
                   f"{list(STEPS)}", "rows": rows}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
