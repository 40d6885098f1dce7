"""Exact inequalities: every one must hold per sample, not on average.

The bound constants use the law's computed xi, so comparisons run in log
domain (xi can be huge for adversarial random tables).
"""

import math

import numpy as np
import pytest

from pinlab.disorder_mc import McConfig, estimate_f, estimate_mu
from pinlab.model import build_law, gaussian_disorder, geometric_test_law
from pinlab.oracle import build_path_set, contact_covariance
from pinlab.quenched import QuenchedSystem
from support import random_instance


def test_contact_lower_bound_every_interior_site():
    # E[X_a] >= 1/(1 + xi e^(-h-omega_a) min(a, n-a)^xi)
    rng = np.random.default_rng(90)
    violations = 0
    for _ in range(80):
        law, h, omega, n = random_instance(rng, n_lo=2, n_hi=12)
        sys_ = QuenchedSystem(law, h, omega, n)
        xi = law.xi
        for a in range(1, n):
            t = math.log(xi) + xi * math.log(min(a, n - a)) - h - omega[a - 1]
            bound = 1.0 / (1.0 + math.exp(t)) if t < 700.0 else 0.0
            if sys_.contact_probability(a) < bound - 1e-12:
                violations += 1
    assert violations == 0


def test_exchange_inequality_monotone_functionals():
    # E[Phi (1-X_a) Psi] <= xi e^(-h-omega_a) min(a, n-a)^xi E[Phi X_a Psi]
    # for monotone Phi of the left side and Psi of the right side
    rng = np.random.default_rng(91)
    violations = 0
    for _ in range(60):
        law, h, omega, n = random_instance(rng, n_lo=2, n_hi=10)
        ps = build_path_set(law, h, omega, n)
        w = ps.normalized_weights()
        x = ps.contact_matrix()
        for a in range(1, n):
            log_bound = (math.log(law.xi) + law.xi * math.log(min(a, n - a))
                         - h - omega[a - 1])
            for _ in range(3):
                phi = np.ones_like(w)
                for s in range(1, a):
                    if rng.random() < 0.5:
                        phi *= x[:, s]
                psi = np.ones_like(w)
                for s in range(a + 1, n):
                    if rng.random() < 0.5:
                        psi *= x[:, s]
                lhs = float(w @ (phi * (1.0 - x[:, a]) * psi))
                rhs = float(w @ (phi * x[:, a] * psi))
                if lhs <= 0.0:
                    continue
                if math.log(lhs) > log_bound + math.log(rhs) + 1e-9:
                    violations += 1
    assert violations == 0


def test_factorization_given_a_contact():
    # E[f g X_a] E[X_a] == E[f X_a] E[g X_a] for f of the left, g of the right
    rng = np.random.default_rng(92)
    worst = 0.0
    for _ in range(40):
        law, h, omega, n = random_instance(rng, n_lo=2, n_hi=10)
        ps = build_path_set(law, h, omega, n)
        w = ps.normalized_weights()
        x = ps.contact_matrix()
        masks = np.arange(w.size)
        for a in range(1, n):
            xa = x[:, a]
            pa = float(w @ xa)
            left = (masks & ((1 << (a - 1)) - 1)) if a > 1 else np.zeros_like(masks)
            right = masks >> a
            f = rng.integers(0, 2, 1 << (a - 1)).astype(float)[left]
            g = rng.integers(0, 2, 1 << (n - a)).astype(float)[right] \
                if n - a >= 1 else np.ones_like(w)
            lhs = float(w @ (f * g * xa)) * pa
            rhs = float(w @ (f * xa)) * float(w @ (g * xa))
            worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12


def test_covariance_dominated_by_avoidance_sums():
    # |cov(X_a, X_b)| <= 2 sum_{i<a} sum_{j>b} a_{j-i} on shifted windows
    rng = np.random.default_rng(93)
    for _ in range(12):
        law, h, omega, n = random_instance(rng, n_lo=4, n_hi=12)
        sys_ = QuenchedSystem(law, h, omega, n)
        a = int(rng.integers(1, n))
        b = int(rng.integers(a, n))
        rhs = 0.0
        for i in range(a):
            log_a = sys_.two_replica_avoidance_log(n - i, start=i)
            rhs += float(np.exp(log_a[b + 1 - i:]).sum())
        assert abs(contact_covariance(sys_, a, b)) <= 2.0 * rhs + 1e-12


def test_jensen_annealed_bound_is_exact_per_run():
    law = build_law(1.0, None, 64)
    cfg = McConfig(law, gaussian_disorder(1.0), (2.0,), (16, 32, 64), 40, 5)
    res = estimate_f(cfg, 2.0, 64)
    assert float(np.mean(res.per_sample)) <= res.annealed + 1e-12


def test_mu_per_n_jensen_dominated():
    law = build_law(1.0, None, 64)
    cfg = McConfig(law, gaussian_disorder(1.0), (2.0,), (16, 32, 64), 40, 6)
    res = estimate_mu(cfg, 2.0)
    assert np.all(res.mu_n <= res.f_minus_n + 1e-12)


def test_first_cumulant_monotone_in_h():
    rng = np.random.default_rng(94)
    for _ in range(20):
        law, h, omega, n = random_instance(rng, n_lo=1, n_hi=10)
        lo = QuenchedSystem(law, h, omega, n).cumulants(1).kappa[1]
        hi = QuenchedSystem(law, h + 0.5, omega, n).cumulants(1).kappa[1]
        assert hi >= lo - 1e-10
