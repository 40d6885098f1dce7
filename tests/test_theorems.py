"""Check harness plumbing plus a few cheap real check runs.

The full battery at publication-grade sample counts lives in
test_acceptance.py; here the contexts are trimmed for speed.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from pinlab import disorder_mc, quenched, theorems
from pinlab.config import RunConfig
from pinlab.disorder_mc import McConfig
from pinlab.model import (
    build_law,
    gaussian_disorder,
    rademacher_disorder,
    zero_disorder,
)
from pinlab.quenched import QuenchedSystem
from pinlab.theorems import (
    CHECK_DESCRIPTIONS,
    CHECK_IDS,
    CheckContext,
    full_report,
    run_check,
)

LAW = build_law(1.0, None, 256)

# sample counts small enough for the suite; the acceptance tests run the
# checks at the module's own counts
SMALL_COUNTS = {"_CLT_SEEDS": 2, "_EXACT_SAMPLES": 2, "_CENTERING_SAMPLES": 100,
                "_HL_SEEDS": 2, "_C9_INSTANCES": 20, "_C10_INSTANCES": 20}


@pytest.fixture(autouse=True)
def _small_counts(monkeypatch):
    for name, value in SMALL_COUNTS.items():
        monkeypatch.setattr(theorems, name, value)


def _small_ctx(disorder=None, **kw):
    cfg = McConfig(LAW, disorder or gaussian_disorder(1.0), (2.0, 3.0),
                   (32, 64, 128), samples=24, master_seed=9, window=32)
    base = dict(mc=cfg, h=3.0, h_grid=(2.0, 2.5, 3.0),
                clt_n_values=(32, 64),
                excursion_n_values=(32, 64, 128), hl_n_max=128)
    base.update(kw)
    return CheckContext(**base)


def test_check_registry():
    assert CHECK_IDS == tuple(f"C{i}" for i in range(1, 14))
    assert set(CHECK_DESCRIPTIONS) == set(CHECK_IDS)


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        run_check("C99", _small_ctx())


def test_verify_context_shape():
    # the context pinlab verify builds from a config with the values of
    # the benchmark's verify workload
    ctx = RunConfig.from_dict({
        "model": {"kind": "power", "alpha": 1.0, "n_max": 4096},
        "disorder": {"family": "gaussian", "param": 1.0},
        "grids": {"h_values": [1.5, 2.0, 2.5, 3.0, 3.5],
                  "n_values": [64, 128, 256], "window": 64, "r_max": 6},
        "run": {"samples": 200, "master_seed": 20260815},
        "checks": {"h": 3.0}}).check_context()
    assert not ctx.is_pure
    assert ctx.h == 3.0
    assert max(ctx.excursion_n_values) <= ctx.mc.law.n_max


def test_report_is_json_ready():
    rep = run_check("C9", _small_ctx())
    d = rep.to_dict()
    text = json.dumps(d)  # must not raise on numpy payloads
    back = json.loads(text)
    assert back["check_id"] == "C9"
    assert back["passed"] is True
    assert back["metrics"]["violations"] == 0


def test_exact_structural_checks_pass():
    ctx = _small_ctx()
    for cid in ("C9", "C10"):
        rep = run_check(cid, ctx)
        assert rep.passed is True, (cid, rep.metrics)


def test_c10_fails_when_the_two_sides_interact(monkeypatch):
    # a weight factor exp(0.1 X_1 X_{n-1}) couples the sides of every
    # interior contact a = 2..n-2, which breaks the renewal factorization
    build = theorems.build_path_set

    def coupled(law, h, omega, n):
        ps = build(law, h, omega, n)
        x = ps.contact_matrix()
        return dataclasses.replace(
            ps, log_weights=ps.log_weights + 0.1 * x[:, 1] * x[:, n - 1])

    monkeypatch.setattr(theorems, "build_path_set", coupled)
    rep = run_check("C10", _small_ctx())
    assert rep.passed is False
    assert rep.metrics["max_residual"] > 1e-4


def test_c10_draws_the_runs_disorder_law(monkeypatch):
    # under Rademacher disorder every charge C10 enumerates is +-param
    build = theorems.build_path_set
    seen = []

    def recording(law, h, omega, n):
        seen.append(np.array(omega[:n]))
        return build(law, h, omega, n)

    monkeypatch.setattr(theorems, "build_path_set", recording)
    rep = run_check("C10", _small_ctx(disorder=rademacher_disorder(0.7)))
    assert rep.passed is True
    assert len(seen) == SMALL_COUNTS["_C10_INSTANCES"]
    charges = np.concatenate(seen)
    assert np.all(np.abs(charges) == 0.7)
    assert (charges > 0).any() and (charges < 0).any()


def test_pure_centering_checks_skip():
    ctx = _small_ctx(disorder=zero_disorder())
    c4 = run_check("C4", ctx)
    assert c4.passed is None
    assert "pure" in c4.skip_reason
    c12 = run_check("C12", ctx)
    assert c12.passed is None


def test_checks_are_deterministic():
    ctx = _small_ctx()
    a = run_check("C8", ctx)
    b = run_check("C8", ctx)
    assert a.metrics == b.metrics
    assert a.passed == b.passed


def test_full_report_subset_order_and_payload():
    ctx = _small_ctx()
    reps = full_report(ctx, checks=("C10", "C9"))
    # selection is a set; execution always follows catalog order
    assert [r.check_id for r in reps] == ["C9", "C10"]
    with pytest.raises(ValueError):
        full_report(ctx, checks=("C9", "C99"))
    for r in reps:
        assert r.description == CHECK_DESCRIPTIONS[r.check_id]
        assert isinstance(r.parameters, dict) and isinstance(r.metrics, dict)


def test_excursion_grid_guard():
    ctx = _small_ctx(excursion_n_values=(128, 256, 512))  # law caps at 256
    with pytest.raises(ValueError):
        run_check("C6", ctx)


def test_excursion_check_reports_nonpositive_mu(monkeypatch):
    # a delocalized fit (mu_hat < 0 here) has no scale (log n)/mu: C6
    # fails with a note and nan band masses instead of raising
    cfg = McConfig(LAW, gaussian_disorder(1.0), (-1.0,), (64, 128, 256),
                   samples=8, master_seed=9, window=32)
    ctx = CheckContext(mc=cfg, h=-1.0, excursion_n_values=(64, 128, 256))
    reports = [run_check("C6", ctx)]
    assert reports[0].fitted_constants["mu_hat"] < 0.0
    real = disorder_mc.estimate_mu
    for slope in (0.0, math.nan, math.inf):
        monkeypatch.setattr(disorder_mc, "estimate_mu", lambda c, h, s=slope:
                            dataclasses.replace(real(c, h), slope=s))
        reports.append(run_check("C6", ctx))
    for rep in reports:
        assert rep.passed is False
        assert "mu_note" in rep.metrics
        assert rep.metrics["band_mass_increasing"] is False
        assert all(math.isnan(m) for m in rep.extras["band_mass"])
        assert math.isnan(rep.metrics["band_mass_n256"])
        json.dumps(rep.to_dict())


def test_c2_bounds_its_ks_values_and_c13_lists_dropped_sizes():
    # C2's laws run the count DP at KS_L1_BUDGET: ks_error_bound is the
    # largest bound on the KS shift of the terms left out.  C13 keeps the
    # n <= 512 of the grid and lists the others
    rep = run_check("C2", _small_ctx())
    assert 0.0 <= rep.metrics["ks_error_bound"] <= 1e-9
    cfg = McConfig(build_law(1.0, None, 1024), gaussian_disorder(1.0),
                   (3.0,), (32, 64, 128, 768, 1024), samples=4,
                   master_seed=9, window=32)
    rep = run_check("C13", CheckContext(mc=cfg, h=3.0))
    assert rep.parameters["n_values"] == [32, 64, 128]
    assert rep.parameters["n_values_dropped"] == [768, 1024]


def test_c13_reads_c3s_exact_laws_from_the_run_memo(monkeypatch):
    # inside a run memo C13's laws at C3's n (128 here) are C3's, byte for
    # byte, and the count DP runs once per chunk of a block: with chunks
    # of 5 rows at n = 128 and 20 at n = 64, C3's 24 rows take 5 runs,
    # C13's take 1 at n = 32, 2 at n = 64 and none at n = 128.  Every
    # contact_law call still happens, and the reports are those of the
    # same checks run outside a memo, where C13 recomputes its laws
    monkeypatch.setattr(quenched, "_LAW_BYTES", 700_000)
    runs, laws = [], []
    count_dp, contact_law = quenched._count_dp, QuenchedSystem.contact_law

    def counted(pre, *args):
        runs.append(pre.shape[0])
        return count_dp(pre, *args)

    def recorded(self, budget=0.0):
        law = contact_law(self, budget)
        laws.append((self.n, law.log_pmf.tobytes()))
        return law

    monkeypatch.setattr(quenched, "_count_dp", counted)
    monkeypatch.setattr(QuenchedSystem, "contact_law", recorded)
    ctx = _small_ctx()
    with quenched.run_memo():
        memo = [r.to_dict() for r in full_report(ctx, ("C3", "C13"))]
    assert runs == [5, 5, 5, 5, 4, 24, 20, 4]
    c3, c13 = laws[:24], laws[24:]
    assert [n for n, _ in c3 + c13] == [128] * 24 + [32] * 24 + [64] * 24 \
        + [128] * 24
    assert c13[48:] == c3
    runs.clear()
    assert [r.to_dict() for r in full_report(ctx, ("C3", "C13"))] == memo
    assert runs == [5, 5, 5, 5, 4, 24, 20, 4, 5, 5, 5, 5, 4]
