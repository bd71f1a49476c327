"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Statistical criteria use the 4-sigma policy; identity and coupling criteria
are deterministic and admit zero failures.
"""
import math
import time

import numpy as np
import pytest

from ulam.bounds import (BoundaryRates, optimal_rates_strict, optimal_rates_weak,
                         verify_tail_inequality)
from ulam.cli import main as cli_main
from ulam.couplings import (group_heights, poissonized_coupling_lower,
                            poissonized_coupling_upper, project_to_multiset)
from ulam.hammersley import verify_line_identity
from ulam.montecarlo import estimate_mean_subsequence, estimate_poissonized, stationarity_test
from ulam.sampling import (make_rng, sample_boundary, sample_poisson_cloud,
                           sample_uniform_multiset_permutation,
                           sample_uniform_permutation)
from ulam.subsequences import (brute_force_longest_chain, exact_expected_lis,
                               lis_strict, lnds_weak)

pytestmark = pytest.mark.acceptance

MASTER_SEED = 20240901


def _report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_line_identity():
    rng = make_rng(MASTER_SEED, 1)
    start = time.monotonic()
    failures = 0
    for _ in range(10_000):
        x = 1e-3 + (20.0 - 1e-3) * rng.random()
        t = int(rng.integers(1, 21))
        lam = 1e-3 + (2.0 - 1e-3) * rng.random()
        cloud = sample_poisson_cloud(x, t, lam, rng)
        if not verify_line_identity(cloud, None, "strict"):
            failures += 1
        if not verify_line_identity(cloud, None, "weak"):
            failures += 1
    elapsed = time.monotonic() - start
    _report(1, "line identity on 10,000 clouds, both variants",
            failures == 0 and elapsed < 60.0,
            f"failures={failures}, {elapsed:.1f}s")


def test_criterion_02_boundary_identity():
    rng = make_rng(MASTER_SEED, 2)
    failures = 0
    for _ in range(2_000):
        x = 0.1 + 19.9 * rng.random()
        t = int(rng.integers(1, 21))
        lam = 0.01 + 1.99 * rng.random()
        cloud = sample_poisson_cloud(x, t, lam, rng)
        alpha = 0.05 + 2.0 * rng.random()
        b = sample_boundary(x, t, BoundaryRates.strict_from_alpha(lam, alpha), rng)
        if not verify_line_identity(cloud, b, "strict"):
            failures += 1
        beta = lam * (1.05 + 2.0 * rng.random())
        bw = sample_boundary(x, t, BoundaryRates.weak_from_beta(lam, beta), rng)
        if not verify_line_identity(cloud, bw, "weak"):
            failures += 1
    _report(2, "boundary identity on 2,000 instances, both variants",
            failures == 0, f"failures={failures}")


def test_criterion_03_oracle_equivalence():
    rng = make_rng(MASTER_SEED, 3)
    mismatches = 0
    n_sets = 0
    while n_sets < 5_000:
        cloud = sample_poisson_cloud(0.5 + 9.5 * rng.random(),
                                     int(rng.integers(1, 11)),
                                     0.05 + 1.2 * rng.random(), rng)
        if cloud.size > 300:
            continue
        n_sets += 1
        if lis_strict(cloud) != brute_force_longest_chain(cloud, order="strict"):
            mismatches += 1
        if lnds_weak(cloud) != brute_force_longest_chain(cloud, order="weak"):
            mismatches += 1
    for _ in range(5_000):
        n = int(rng.integers(1, 31))
        k = int(rng.integers(1, 6))
        w = sample_uniform_multiset_permutation(n, k, rng)
        if lis_strict(w) != brute_force_longest_chain(w, order="strict"):
            mismatches += 1
        if lnds_weak(w) != brute_force_longest_chain(w, order="weak"):
            mismatches += 1
    _report(3, "fast algorithms equal quadratic DP on 5,000 clouds + 5,000 words",
            mismatches == 0, f"mismatches={mismatches}")


def _shuffled_lis_mean(row_counts, draws: int) -> tuple[float, float]:
    """Mean and standard error of lis_strict over ``draws`` successive
    shuffles of the letters with these row counts, all from one stream."""
    rng = make_rng(MASTER_SEED, 5 << 32)
    letters = np.repeat(np.arange(1, len(row_counts) + 1, dtype=np.int64), row_counts)
    vals = np.empty(draws)
    for r in range(draws):
        rng.shuffle(letters)
        vals[r] = lis_strict(letters)
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(draws))


def test_criterion_04_exact_tiny_expectations():
    from fractions import Fraction
    ok_exact = (exact_expected_lis((2, 2)) == Fraction(11, 6)
                and exact_expected_lis((1, 1, 1, 1)) == Fraction(29, 12))
    mean22, err22 = _shuffled_lis_mean((2, 2), 100_000)
    mean1111, err1111 = _shuffled_lis_mean((1, 1, 1, 1), 100_000)
    ok_mc = abs(mean22 - 11 / 6) <= 4 * err22 and abs(mean1111 - 29 / 12) <= 4 * err1111
    _report(4, "exact_e((2,2))=11/6, exact_e((1,1,1,1))=29/12, MC within 4 sigma",
            ok_exact and ok_mc, f"mc(2,2)={mean22:.4f}, mc(1,1,1,1)={mean1111:.4f}")


def test_criterion_05_strict_mean_first_order():
    start = time.monotonic()
    rep = estimate_mean_subsequence(1000, 10, "strict", 500, seed=MASTER_SEED)
    elapsed = time.monotonic() - start
    rel = abs(rep.mean - 190.0) / 190.0
    _report(5, "strict mean within 7% of 190 at n=1000, k=10",
            rel <= 0.07 and elapsed < 120.0,
            f"mean={rep.mean:.2f}, rel={rel:.3f}, {elapsed:.1f}s")


def test_criterion_06_weak_mean_first_order():
    rep = estimate_mean_subsequence(1000, 10, "weak", 500, seed=MASTER_SEED)
    rel = abs(rep.mean - 210.0) / 210.0
    _report(6, "weak mean within 7% of 210 at n=1000, k=10",
            rel <= 0.07, f"mean={rep.mean:.2f}, rel={rel:.3f}")


def test_criterion_07_k1_sanity():
    rep = estimate_mean_subsequence(10_000, 1, "strict", 200, seed=MASTER_SEED)
    ratio = rep.mean / 200.0
    _report(7, "k=1 mean/(2 sqrt(n)) in [0.90, 1.00] at n=10^4",
            0.90 <= ratio <= 1.00, f"ratio={ratio:.4f}")


def test_criterion_08_stationarity():
    strict = stationarity_test(x=50.0, lam=1.0, source_rate=1.0, variant="strict",
                               t=200, reps=2_000, seed=MASTER_SEED)
    ok_strict = (abs(strict.mean - 50.0) <= 4 * math.sqrt(50.0 / 2000)
                 and strict.p_value > 1e-4)
    weak = stationarity_test(x=50.0, lam=1.0, source_rate=2.0, variant="weak",
                             t=200, reps=2_000, seed=MASTER_SEED)
    ok_weak = (abs(weak.mean - 100.0) <= 4 * math.sqrt(100.0 / 2000)
               and weak.p_value > 1e-4)
    _report(8, "stationary particle counts match Poisson(x*rate) at t=200",
            ok_strict and ok_weak,
            f"strict mean={strict.mean:.2f} p={strict.p_value:.3g}; "
            f"weak mean={weak.mean:.2f} p={weak.p_value:.3g}")


def test_criterion_09_mean_bounds():
    ok = True
    details = []
    for x, t, lam in ((100.0, 100, 1.0), (50.0, 200, 1.0), (10.0, 40, 1.0)):
        for order in ("strict", "weak"):
            rep = estimate_poissonized(x, t, lam, order, 2_000, seed=MASTER_SEED)
            good = rep.mean <= rep.predicted + 4 * rep.stderr
            ok = ok and good
            details.append(f"{order}({x:g},{t},{lam:g}): {rep.mean:.1f}<={rep.predicted:.1f}")
    _report(9, "empirical means below first-order bounds at three geometries",
            ok, "; ".join(details))


def test_criterion_10a_poisson_tail_certificates():
    certs = [verify_tail_inequality(k) for k in ("poisson_lower", "poisson_upper")]
    n = sum(len(c.records) for c in certs)
    _report(10, f"Poisson tail certificate exact on full grid ({n} points)",
            all(c.all_pass for c in certs))


def test_criterion_10b_binomial_tail_certificates():
    certs = [verify_tail_inequality(k) for k in ("binomial_upper", "binomial_lower")]
    n = sum(len(c.records) for c in certs)
    _report(10, f"binomial tail certificate exact on full grid ({n} points)",
            all(c.all_pass for c in certs))


def test_criterion_10c_geomsum_tail_certificates():
    certs = [verify_tail_inequality(k) for k in ("geomsum_upper", "geomsum_lower")]
    n_fail = sum(len(c.failures()) for c in certs)
    n = sum(len(c.records) for c in certs)
    sample = [r.params for c in certs for r in c.failures()][:3]
    _report(10, f"geometric-sum tail certificate exact on full grid ({n} points)",
            all(c.all_pass for c in certs),
            f"{n_fail} violations, e.g. {sample}")


def test_criterion_11_rate_identities():
    rng = make_rng(MASTER_SEED, 11)
    worst_constraint = 0.0
    worst_objective = 0.0
    for _ in range(10_000):
        x = 0.05 + 20 * rng.random()
        lam = 0.02 + 3 * rng.random()
        t = x * lam * (1.001 + 20 * rng.random())
        rs, cost_s = optimal_rates_strict(x, t, lam)
        worst_constraint = max(worst_constraint,
                               abs(rs.lam / (rs.lam + rs.source_rate) - rs.sink_param))
        target = 2 * math.sqrt(x * t * lam) - x * lam
        worst_objective = max(worst_objective, abs(cost_s - target) / abs(target))
        rw, cost_w = optimal_rates_weak(x, t, lam)
        worst_constraint = max(worst_constraint,
                               abs(rw.sink_param * rw.source_rate - rw.lam) / rw.lam)
        target = 2 * math.sqrt(x * t * lam) + x * lam
        worst_objective = max(worst_objective, abs(cost_w - target) / abs(target))
    _report(11, "rate constraint and objective residuals < 1e-10 over 10^4 triples",
            worst_constraint < 1e-10 and worst_objective < 1e-10,
            f"constraint={worst_constraint:.2e}, objective={worst_objective:.2e}")


def test_criterion_12_coupling_inequalities():
    rng = make_rng(MASTER_SEED, 12)
    violations = {"sandwich": 0, "upper": 0, "lower": 0, "grouping": 0}
    first = {}  # family -> index of its first violating draw, to replay it alone

    def violated(family: str, draw: int) -> None:
        violations[family] += 1
        first.setdefault(family, draw)

    for i in range(10_000):
        sigma = sample_uniform_permutation(24, rng)
        word = project_to_multiset(sigma, 3)
        mid = lnds_weak(sigma)
        if not (lis_strict(word) <= mid <= lnds_weak(word)):
            violated("sandwich", i)
    for i in range(10_000):
        s = poissonized_coupling_upper(5, 3, 2.0, rng)
        if s.event_flag and lnds_weak(s.objects["word"]) > lnds_weak(s.objects["cloud"]):
            violated("upper", i)
    for i in range(10_000):
        s = poissonized_coupling_lower(5, 3, 0.05, rng)
        if s.event_flag and lnds_weak(s.objects["word"]) < lnds_weak(s.objects["cloud"]):
            violated("lower", i)
    for i in range(10_000):
        n = int(rng.integers(2, 16))
        k = int(rng.integers(1, 4))
        a = int(rng.integers(1, n + 1))
        w = sample_uniform_multiset_permutation(n, k, rng)
        if lnds_weak(w) > lnds_weak(group_heights(w, a)) + k * a:
            violated("grouping", i)
    detail = str(violations)
    if first:
        # the families draw from one stream in the order above, 10^4 draws each
        detail += "; first violating draw: " + ", ".join(
            f"{family} #{i}" for family, i in first.items()) + f", stream ({MASTER_SEED}, 12)"
    _report(12, "coupling inequalities hold with zero violations, 10^4 samples each",
            all(v == 0 for v in violations.values()), detail)


def test_criterion_13_determinism(tmp_path):
    d1, d2, d8 = tmp_path / "r1", tmp_path / "r2", tmp_path / "j8"
    base = ["estimate", "--n", "100", "--k", "3", "--order", "strict",
            "--reps", "40", "--seed", str(MASTER_SEED)]
    assert cli_main(base + ["--out-dir", str(d1)]) == 0
    assert cli_main(base + ["--out-dir", str(d2)]) == 0
    byte_identical = ((d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()
                      and (d1 / "plot.csv").read_bytes() == (d2 / "plot.csv").read_bytes())
    assert cli_main(base + ["--jobs", "8", "--out-dir", str(d8)]) == 0
    jobs_identical = (d1 / "report.json").read_bytes() == (d8 / "report.json").read_bytes()
    s1 = stationarity_test(20.0, 1.0, 1.0, "strict", 50, 200, MASTER_SEED, parallelism=1)
    s8 = stationarity_test(20.0, 1.0, 1.0, "strict", 50, 200, MASTER_SEED, parallelism=8)
    replica_identical = (s1.mean == s8.mean and s1.p_value == s8.p_value
                         and np.array_equal(s1.counts, s8.counts))
    _report(13, "same master seed reproduces reports byte for byte; jobs 1 == 8",
            byte_identical and jobs_identical and replica_identical)
