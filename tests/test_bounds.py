import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ulam.bounds import (BoundaryRates, CERTIFICATE_COLUMNS, _KINDS, _PARAMS,
                         _log_poisson_pmf, augmented_tail_rate, certificate_rows,
                         log_binomial_lower, log_binomial_upper, log_chi2_upper,
                         log_geomsum_lower, log_geomsum_upper, log_poisson_lower,
                         log_poisson_upper, mean_bound, optimal_rates_strict,
                         optimal_rates_weak, predicted_mean,
                         regime_diagnostics, TAIL_KINDS, verify_tail_inequality)
from ulam.montecarlo import deviation_profile, estimate_mean_subsequence
from ulam.sampling import (MultisetWord, make_rng, sample_boundary, sample_poisson_cloud,
                           sample_uniform_multiset_permutation)


class TestBoundaryRates:
    def test_strict_constraint_enforced(self):
        r = BoundaryRates.strict_from_alpha(1.0, 1.0)
        assert r.sink_param == 0.5
        with pytest.raises(ValueError):
            BoundaryRates("strict", 1.0, 0.4, 1.0)

    def test_weak_constraint_enforced(self):
        r = BoundaryRates.weak_from_beta(1.0, 2.0)
        assert r.sink_param == 0.5
        with pytest.raises(ValueError):
            BoundaryRates.weak_from_beta(1.0, 0.5)  # beta <= lam
        with pytest.raises(ValueError):
            BoundaryRates("weak", 2.0, 0.4, 1.0)  # beta* * beta != lam

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rates_are_named(self, value):
        # named as given, not as the sink_param derived from them
        for lam, alpha in ((value, 1.0), (1.0, value)):
            with pytest.raises(ValueError, match=f"^lam and alpha must be positive and "
                                                 f"finite, got lam={lam}, alpha={alpha}$"):
                BoundaryRates.strict_from_alpha(lam, alpha)
        with pytest.raises(ValueError, match=f"^lam must be positive and finite, got "
                                             f"lam={value}$"):
            BoundaryRates.weak_from_beta(value, 2.0)
        with pytest.raises(ValueError, match=f"^weak variant requires beta > lam and beta "
                                             f"finite, got beta={value}, lam=1.0$"):
            BoundaryRates.weak_from_beta(1.0, value)

    def test_rates_off_their_constraint_are_named(self):
        with pytest.raises(ValueError, match=r"^sink_param must lie in \(0, 1\)"):
            BoundaryRates("strict", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="^weak variant requires source_rate > lam"):
            BoundaryRates("weak", 0.5, 0.5, 1.0)


class TestOptimalRates:
    def test_strict_closed_form(self):
        rates, cost = optimal_rates_strict(1.0, 4.0, 1.0)
        assert rates.source_rate == pytest.approx(1.0, abs=1e-14)
        assert rates.sink_param == pytest.approx(0.5, abs=1e-14)
        assert cost == pytest.approx(3.0, abs=1e-12)

    def test_strict_domain_error(self):
        with pytest.raises(ValueError):
            optimal_rates_strict(1.0, 1.0, 1.0)

    def test_strict_residual(self):
        rates, _ = optimal_rates_strict(2.0, 8.0, 0.5)
        lam, a, p = rates.lam, rates.source_rate, rates.sink_param
        assert abs(lam / (lam + a) - p) < 1e-12

    def test_weak_closed_form(self):
        rates, cost = optimal_rates_weak(1.0, 4.0, 1.0)
        assert rates.source_rate == pytest.approx(3.0, abs=1e-14)
        assert rates.sink_param == pytest.approx(1 / 3, abs=1e-14)
        assert cost == pytest.approx(5.0, abs=1e-12)

    def test_weak_beta_dominates_lambda(self):
        rates, _ = optimal_rates_weak(100.0, 1.0, 0.001)
        assert rates.source_rate > rates.lam

    def test_residual_sweep(self):
        rng = make_rng(42, 1000)
        for _ in range(2000):
            x = 0.1 + 10 * rng.random()
            lam = 0.05 + 2 * rng.random()
            t = x * lam * (1.01 + 10 * rng.random())
            rs, cost_s = optimal_rates_strict(x, t, lam)
            assert abs(rs.lam / (rs.lam + rs.source_rate) - rs.sink_param) < 1e-12
            target_s = 2 * math.sqrt(x * t * lam) - x * lam
            assert abs(cost_s - target_s) <= 1e-10 * abs(target_s)
            rw, cost_w = optimal_rates_weak(x, t, lam)
            assert abs(rw.sink_param * rw.source_rate - rw.lam) < 1e-12 * rw.lam
            target_w = 2 * math.sqrt(x * t * lam) + x * lam
            assert abs(cost_w - target_w) <= 1e-10 * abs(target_w)


class TestPredictedMean:
    def test_values(self):
        assert predicted_mean(400, 100, "strict") == pytest.approx(300.0)
        assert predicted_mean(400, 100, "weak") == pytest.approx(500.0)
        assert abs(predicted_mean(10_000, 1, "strict") - 200.0) <= 1.0
        assert abs(predicted_mean(10_000, 1, "weak") - 200.0) <= 1.0

    def test_mean_bound_ordering(self):
        strict, weak = (mean_bound(3.0, 10.0, 1.0, order) for order in ("strict", "weak"))
        assert 0 <= strict <= weak
        assert (strict, weak) == (2.0 * math.sqrt(30.0) - 3.0, 2.0 * math.sqrt(30.0) + 3.0)
        with pytest.raises(ValueError, match="variant must be one of"):
            mean_bound(3.0, 10.0, 1.0, "both")

    @pytest.mark.parametrize("order", ["strict", "weak"])
    def test_domain_edge(self, order):
        # the first-order value holds for k <= n, and for t >= x*lam
        edge = 5.0 if order == "strict" else 15.0
        assert [predicted_mean(5, 5, order), mean_bound(5.0, 5, 1.0, order)] == [edge, edge]
        assert type(predicted_mean(5, 5, order)) is type(mean_bound(5.0, 5, 1.0, order)) is float
        assert predicted_mean(5, 6, order) is None
        assert mean_bound(5.0, 4, 1.0, order) is None
        assert mean_bound(5.0 + 1e-9, 5, 1.0, order) is None

    @pytest.mark.parametrize("order", ["strict", "weak"])
    def test_no_value_where_x_t_lam_leaves_the_floats(self, order):
        # t >= x*lam, but x*t*lam rounds to 0 or to inf: neither value can
        # take a relative error, so there is none
        assert mean_bound(1e-320, 1, 1e-300, order) is None
        assert mean_bound(1e200, 1e200, 1.0, order) is None
        # a subnormal x*t*lam still has a positive value
        assert mean_bound(1e-200, 1, 1e-120, order) > 0.0


def _log_bound(kind: str, **params) -> float:
    names, _, log_bound, _ = _KINDS[kind]
    return log_bound(*(params[name] for name in names))


def _log_exact(kind: str, **params) -> float:
    names, _, _, log_exact = _KINDS[kind]
    return log_exact(*(params[name] for name in names))


def _geometric_rate(alpha: float, a: float) -> float:
    """I(a) = a log(a / (alpha (1 + a))) - log((1 - alpha) (1 + a))."""
    return a * math.log(a / (alpha * (1.0 + a))) - math.log((1.0 - alpha) * (1.0 + a))


# Each kind's closed-form exponent, written out here as the table must state it.
_CLOSED_FORMS = {
    "poisson_lower": lambda lam, a: -a * a / (4.0 * lam),
    "poisson_upper": lambda lam, a: -a * a / (4.0 * lam),
    "binomial_upper": lambda n, p, eps: -eps * eps * n * p / 3.0,
    "binomial_lower": lambda n, p, eps: -eps * eps * n * p / 2.0,
    "geomsum_upper": lambda k, alpha, eps: -k * _geometric_rate(
        alpha, (1.0 + eps) * alpha / (1.0 - alpha)),
    "geomsum_lower": lambda k, alpha, eps: -k * _geometric_rate(
        alpha, (1.0 - eps) * alpha / (1.0 - alpha)),
}


class TestTailBoundFormulas:
    def test_poisson(self):
        assert _log_bound("poisson_lower", lam=4.0, a=4.0) == -1.0
        assert _log_bound("poisson_upper", lam=4.0, a=4.0) == -1.0

    def test_binomial(self):
        # upper tail carries the /3 exponent, lower tail the /2 exponent
        assert _log_bound("binomial_upper", n=100, p=0.5, eps=0.2) == pytest.approx(
            -0.04 * 50 / 3, rel=1e-12)
        assert _log_bound("binomial_lower", n=100, p=0.5, eps=0.2) == pytest.approx(
            -1.0, rel=1e-12)

    def test_geomsum(self):
        # -k I(a) at a = (1 -/+ eps) alpha / (1 - alpha): 1.5 above, 0.5 below
        assert _log_bound("geomsum_upper", k=100, alpha=0.5, eps=0.5) == pytest.approx(
            -100 * (1.5 * math.log(1.2) - math.log(1.25)), rel=1e-12)
        assert _log_bound("geomsum_upper", k=100, alpha=0.5, eps=0.5) == pytest.approx(
            -5.033878, abs=1e-6)
        assert _log_bound("geomsum_lower", k=100, alpha=0.5, eps=0.5) == pytest.approx(
            -100 * (0.5 * math.log(2.0 / 3.0) - math.log(0.75)), rel=1e-12)

    def test_augmented_rate_rejects_negative_eps(self):
        with pytest.raises(ValueError, match="^eps must be nonnegative$"):
            augmented_tail_rate(-0.1)

    def test_every_log_bound_is_its_closed_form(self):
        # compared as stated, not through exp and log, which move 238 of them
        for kind in TAIL_KINDS:
            for r in verify_tail_inequality(kind).records:
                assert r.log_bound == _CLOSED_FORMS[kind](**r.params), (kind, r.params)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 300), alpha=st.floats(0.02, 0.98), eps=st.floats(0.02, 0.98))
    def test_geomsum_chernoff_bound_holds(self, k, alpha, eps):
        for kind in ("geomsum_upper", "geomsum_lower"):
            params = {"k": k, "alpha": alpha, "eps": eps}
            assert _log_exact(kind, **params) <= _log_bound(kind, **params), (kind, params)

    def test_unknown_kind_raises(self):
        assert TAIL_KINDS == ("poisson_lower", "poisson_upper", "binomial_upper",
                              "binomial_lower", "geomsum_upper", "geomsum_lower")
        with pytest.raises(ValueError, match="kind must be one of"):
            verify_tail_inequality("bogus")


class TestExactTails:
    """The hand-rolled log-space CDFs against scipy, the independent oracle."""

    def test_poisson_vs_scipy(self):
        for lam in (0.5, 2.0, 17.0, 128.0):
            for thr in (lam - 2 * math.sqrt(lam), lam - 1, lam + 1, lam + 3 * math.sqrt(lam)):
                lo = log_poisson_lower(lam, thr)
                ref = stats.poisson.cdf(math.floor(thr), lam)
                if ref > 0:
                    assert lo == pytest.approx(math.log(ref), abs=1e-10)
                hi = log_poisson_upper(lam, thr)
                ref = stats.poisson.sf(math.ceil(thr) - 1, lam)
                if ref > 0:
                    assert hi == pytest.approx(math.log(ref), rel=1e-9, abs=1e-10)

    def test_binomial_vs_scipy(self):
        for n, p in ((10, 0.5), (100, 0.1), (1000, 0.9)):
            for frac in (0.5, 0.9, 1.1, 1.5):
                thr = frac * n * p
                lo = log_binomial_lower(n, p, thr)
                ref = stats.binom.cdf(math.floor(thr), n, p)
                if ref > 0:
                    assert lo == pytest.approx(math.log(ref), rel=1e-9, abs=1e-10)
                hi = log_binomial_upper(n, p, thr)
                ref = stats.binom.sf(math.ceil(thr) - 1, n, p)
                if ref > 0:
                    assert hi == pytest.approx(math.log(ref), rel=1e-9, abs=1e-10)

    def test_geomsum_vs_scipy(self):
        for k, alpha in ((1, 0.5), (10, 0.3), (200, 0.9)):
            mu = k * alpha / (1 - alpha)
            for frac in (0.5, 0.9, 1.1, 1.9):
                thr = frac * mu
                lo = log_geomsum_lower(k, alpha, thr)
                ref = stats.nbinom.cdf(math.floor(thr), k, 1 - alpha)
                if ref > 0:
                    assert lo == pytest.approx(math.log(ref), rel=1e-9, abs=1e-10)
                hi = log_geomsum_upper(k, alpha, thr)
                ref = stats.nbinom.sf(math.ceil(thr) - 1, k, 1 - alpha)
                if ref > 0:
                    assert hi == pytest.approx(math.log(ref), rel=1e-9, abs=1e-10)

    def test_threshold_below_zero_is_impossible(self):
        assert log_binomial_lower(10, 0.5, -1) == -math.inf
        assert log_geomsum_lower(3, 0.5, -0.5) == -math.inf

    def test_upper_tail_stops_at_a_zero_ratio(self):
        # lam / 2 underflows to 0: the sum is its first term, P(X = 1) = lam e^-lam,
        # which scipy's logsf(0, 5e-324) gives as -inf
        assert log_poisson_upper(5e-324, 1) == math.log(5e-324) == -744.4400719213812

    def test_deep_tail_no_underflow(self):
        # far beyond double range in linear space, still finite in log space
        val = log_poisson_upper(128.0, 128.0 + 4 * 128.0)
        assert -700 < val < -400


def assert_chi2_matches_scipy(stat: float, dof: int) -> None:
    """p to 1e-12 relative where scipy's p exceeds 1e-300, log p to 1e-9
    absolute below that."""
    got, ref = log_chi2_upper(stat, dof), float(stats.chi2.logsf(stat, dof))
    assert ref > -math.inf, "outside scipy's range"
    if ref > math.log(1e-300):
        assert math.exp(got) == pytest.approx(math.exp(ref), rel=1e-12), (stat, dof)
    else:
        assert got == pytest.approx(ref, abs=1e-9), (stat, dof)


class TestChiSquareTail:
    """`log_chi2_upper` and the Poisson pmf of the stationarity test against
    scipy, the independent oracle."""

    @pytest.mark.parametrize("parity", [0, 1])
    def test_dof_up_to_300(self, parity):
        for dof in range(1 + (not parity), 301, 2):
            for stat in (0.0, 1e-6, 0.3, 0.5 * dof, dof - 1.0, dof, 1.5 * dof, 3.0 * dof,
                         dof + 40.0, dof + 400.0, 1000.0, 1400.0):
                assert_chi2_matches_scipy(stat, dof)

    def test_large_dof_does_not_underflow(self):
        # e^-(stat/2) alone is e^-1000, below the smallest double
        for dof in (1999, 2000, 2001):
            for stat in (1800.0, 2000.0, 2200.0):
                assert math.exp(-stat / 2) == 0.0
                assert_chi2_matches_scipy(stat, dof)

    def test_odd_dof_where_erfc_vanishes(self):
        for dof in (1, 3, 301, 2001):
            for stat in (1500.0, 2000.0, 1e5):
                assert math.erfc(math.sqrt(stat / 2)) == 0.0
                got = log_chi2_upper(stat, dof)
                assert got == -math.inf or -math.inf < got < 0.0
        assert log_chi2_upper(1e5, 1) == -math.inf
        assert_chi2_matches_scipy(2000.0, 2001)
        assert_chi2_matches_scipy(1500.0, 301)

    def test_zero_stat_is_certain(self):
        assert [log_chi2_upper(0.0, dof) for dof in (1, 2, 7)] == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("stat, dof", [(-1.0, 2), (math.nan, 2), (math.inf, 2),
                                           (1.0, 0), (1.0, 2.0)])
    def test_rejects_bad_input(self, stat, dof):
        with pytest.raises(ValueError):
            log_chi2_upper(stat, dof)

    @pytest.mark.parametrize("mu", [0.005, 7.0, 50.0, 100.0, 1000.0])
    def test_poisson_pmf(self, mu):
        # at mu = 1000 the log terms reach 1e4, whose last bit is 1.8e-12
        js = np.arange(int(mu + 8 * math.sqrt(mu)) + 2)
        got = np.exp([_log_poisson_pmf(mu, int(j)) for j in js])
        ref = stats.poisson.pmf(js, mu)
        assert got == pytest.approx(ref, rel=1e-12 if mu <= 100 else 2e-12, abs=0.0)


def _default_record(kind: str, **params):
    """The record of the point ``params`` in the kind's default certificate."""
    [rec] = [r for r in verify_tail_inequality(kind).records if r.params == params]
    return rec


class TestCertificates:
    def test_poisson_example(self):
        rec = _default_record("poisson_lower", lam=4.0, a=4.0)
        assert rec.exact == pytest.approx(math.exp(-4.0), rel=1e-12)
        assert rec.bound == pytest.approx(math.exp(-1.0), rel=1e-12)
        assert rec.passed

    def test_binomial_example(self):
        # eps = 0.2 lies off the default grid: check the table's two sides directly
        exact = math.exp(_log_exact("binomial_upper", n=100, p=0.5, eps=0.2))
        bound = math.exp(_log_bound("binomial_upper", n=100, p=0.5, eps=0.2))
        assert exact == pytest.approx(0.02844, abs=2e-4)
        assert bound == pytest.approx(math.exp(-2.0 / 3.0), rel=1e-12)
        assert exact <= bound

    def test_geomsum_example(self):
        assert _default_record("geomsum_upper", k=10, alpha=0.5, eps=0.9).passed

    def test_default_poisson_and_binomial_grids_pass(self):
        for kind in ("poisson_lower", "poisson_upper", "binomial_upper", "binomial_lower"):
            assert verify_tail_inequality(kind).all_pass, kind

    def test_geomsum_known_violation_is_reported(self):
        # high multiplicity of a heavy geometric: exp(-eps^2 k alpha / (4 (1 - alpha)))
        # = exp(-3.645) lies below the exact tail here, and the certificate must
        # catch a bound like it; the Cramér-Chernoff bound exp(-2 I(17.1)) holds
        rec = _default_record("geomsum_upper", k=2, alpha=0.9, eps=0.9)
        assert rec.exact == pytest.approx(0.11264, abs=2e-4)
        assert rec.log_bound == pytest.approx(-0.47297, abs=1e-5)
        assert rec.passed

    def test_every_kind_fills_exactly_its_csv_columns(self):
        # a parameter missing from _PARAMS would be dropped from the CSV unseen
        for kind in TAIL_KINDS:
            assert set(_KINDS[kind][0]) <= set(_PARAMS), kind
        rows = certificate_rows(verify_tail_inequality(kind) for kind in TAIL_KINDS)
        assert len(rows) == 778
        for row in rows:
            assert len(row) == len(CERTIFICATE_COLUMNS)
            named = dict(zip(CERTIFICATE_COLUMNS, row))
            assert {name for name in _PARAMS if named[name] != ""} == set(_KINDS[row[0]][0])


class TestRegimeDiagnostics:
    def test_small_ratio(self):
        d = regime_diagnostics(10 ** 6, 3)
        assert d.small_ratio == pytest.approx(9 * 6 / 1000.0, rel=1e-12)

    def test_k_one(self):
        d = regime_diagnostics(10 ** 4, 1)
        assert d.small_ratio == pytest.approx(0.01, rel=1e-12)

    def test_log_space_finite(self):
        d = regime_diagnostics(1000, 400)
        assert math.isfinite(d.log_small) and math.isfinite(d.log_large)
        assert d.small_ratio == math.inf  # linear value overflows, log does not
        assert d.large_ratio < 1e-2


# Every public entry that takes a rate, geometry or count: a call by keyword
# and valid arguments, each of which must be positive and finite.
_CHECKED = {
    "mean_bound": (lambda x, t, lam: mean_bound(x, t, lam, "strict"),
                   {"x": 1.0, "t": 4.0, "lam": 1.0}),
    "optimal_rates_strict": (optimal_rates_strict, {"x": 1.0, "t": 4.0, "lam": 1.0}),
    "optimal_rates_weak": (optimal_rates_weak, {"x": 1.0, "t": 4.0, "lam": 1.0}),
    "BoundaryRates": (lambda lam, source_rate: BoundaryRates("strict", source_rate, 0.5, lam),
                      {"lam": 1.0, "source_rate": 1.0}),
    "strict_from_alpha": (BoundaryRates.strict_from_alpha, {"lam": 1.0, "alpha": 1.0}),
    "weak_from_beta": (BoundaryRates.weak_from_beta, {"lam": 1.0, "beta": 2.0}),
    "predicted_mean": (lambda n, k: predicted_mean(n, k, "weak"), {"n": 4, "k": 2}),
    "regime_diagnostics": (regime_diagnostics, {"n": 4, "k": 2}),
    "MultisetWord": (lambda n, k: MultisetWord(n, k, [1, 1]), {"n": 1, "k": 2}),
    "sample_poisson_cloud": (lambda x, lam: sample_poisson_cloud(x, 2, lam, make_rng(0)),
                             {"x": 1.0, "lam": 1.0}),
    "sample_boundary": (lambda x: sample_boundary(
        x, 2, BoundaryRates.strict_from_alpha(1.0, 1.0), make_rng(0)), {"x": 1.0}),
    "sample_uniform_multiset_permutation": (
        lambda n, k: sample_uniform_multiset_permutation(n, k, make_rng(0)), {"n": 3, "k": 2}),
}


def _named_values(message: str) -> dict:
    """The ``name=value`` pairs after "got " in a rejection message."""
    return dict(pair.split("=") for pair in message.partition(", got ")[2].split(", "))


class TestPositiveChecks:
    @pytest.mark.parametrize("entry, name, value", [
        (entry, name, value) for entry, (_, valid) in _CHECKED.items() for name in valid
        for value in (math.nan, math.inf, 0, -1)])
    def test_a_bad_value_is_named(self, entry, name, value):
        call, valid = _CHECKED[entry]
        call(**valid)
        with pytest.raises(ValueError) as info:
            call(**{**valid, name: value})
        assert _named_values(str(info.value))[name] == str(value)

    @pytest.mark.parametrize("entry, name", [
        (entry, name) for entry in ("predicted_mean", "regime_diagnostics", "MultisetWord",
                                    "sample_uniform_multiset_permutation")
        for name in ("n", "k")])
    def test_a_fractional_count_is_named(self, entry, name):
        call, valid = _CHECKED[entry]
        with pytest.raises(ValueError, match=r"^n and k must be positive integers, got ") as info:
            call(**{**valid, name: 0.5})
        assert _named_values(str(info.value))[name] == "0.5"

    @pytest.mark.parametrize("entry, name", [
        (entry, name) for entry in ("predicted_mean", "regime_diagnostics", "MultisetWord",
                                    "sample_uniform_multiset_permutation")
        for name in ("n", "k")])
    def test_a_whole_float_count_is_named(self, entry, name):
        # 2.0 is whole, but numpy takes no float for a count
        call, valid = _CHECKED[entry]
        with pytest.raises(ValueError, match=r"^n and k must be positive integers, got ") as info:
            call(**{**valid, name: float(valid[name])})
        assert _named_values(str(info.value))[name] == str(float(valid[name]))

    @pytest.mark.parametrize("t", [math.nan, 2.5, 1.0])
    @pytest.mark.parametrize("call", [
        lambda t: sample_poisson_cloud(1.0, t, 1.0, make_rng(0)),
        lambda t: sample_boundary(1.0, t, BoundaryRates.strict_from_alpha(1.0, 1.0),
                                  make_rng(0))], ids=["cloud", "boundary"])
    def test_a_t_not_an_integer_is_named(self, call, t):
        with pytest.raises(ValueError, match=r"^t must be an integer, got ") as info:
            call(t)
        assert _named_values(str(info.value)) == {"t": str(t)}

    def test_numpy_integers_are_counts(self):
        n, k, t = np.int64(3), np.int32(2), np.int64(4)
        assert predicted_mean(n, k, "weak") == predicted_mean(3, 2, "weak")
        assert (sample_uniform_multiset_permutation(n, k, make_rng(0)).letters.tolist()
                == sample_uniform_multiset_permutation(3, 2, make_rng(0)).letters.tolist())
        assert (estimate_mean_subsequence(n, k, "strict", 4, 0)
                == estimate_mean_subsequence(3, 2, "strict", 4, 0))
        assert (sample_poisson_cloud(1.0, t, 1.0, make_rng(0)).xs.tolist()
                == sample_poisson_cloud(1.0, 4, 1.0, make_rng(0)).xs.tolist())

    def test_augmented_profile_names_x(self):
        # mean_bound is the first to see x here: NaN must fail its check, not
        # pass it and fail later as a derived sink_param
        with pytest.raises(ValueError) as info:
            deviation_profile(math.nan, 4, 1.0, "strict", [0.5], 2, 0, augmented=True)
        assert _named_values(str(info.value))["x"] == "nan"

    def test_message_lists_every_name(self):
        assert str(pytest.raises(ValueError, mean_bound, math.nan, 4, 1.0, "weak").value) == (
            "x, t and lam must be positive and finite, got x=nan, t=4, lam=1.0")
