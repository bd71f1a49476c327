"""Closed-form rates, first-order means, and exact tail-inequality certificates.

The tail validators compare the exponents of closed-form bounds with exact log
Poisson / Binomial / negative-binomial tail probabilities computed by a
log-space recurrence over pmf terms, so a passing certificate is an exact
statement, not a sampled one.
"""
from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

_REL_TOL = 1e-12
_TERM_TOL = math.log(1e-18)

VARIANTS = ("strict", "weak")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _check_positive(*, integer: bool = False, **values: float) -> None:
    """Reject values not positive and finite (or, if ``integer``, not of an integer
    type), naming every value given: "x, t and lam must be positive and finite, got
    x=nan, t=4, lam=1.0"."""
    for v in values.values():
        # written so that NaN fails; a whole float is no count: numpy wants an int
        if not 0 < v < math.inf or integer and not isinstance(v, numbers.Integral):
            *most, last = values
            names = f"{', '.join(most)} and {last}" if most else last
            raise ValueError(f"{names} must be positive "
                             + ("integers" if integer else "and finite") + ", got "
                             + ", ".join(f"{name}={u}" for name, u in values.items()))


@dataclass(frozen=True)
class BoundaryRates:
    """Source/sink intensities tied by the stationarity constraint.

    strict: sources PPP(source_rate), sinks Bernoulli(sink_param), with
    lam / (lam + source_rate) = sink_param.
    weak:   sources PPP(source_rate), sinks Geometric_{>=0}(1 - sink_param),
    with sink_param * source_rate = lam and source_rate > lam.
    """

    variant: str
    source_rate: float
    sink_param: float
    lam: float

    def __post_init__(self) -> None:
        _check_variant(self.variant)
        _check_positive(lam=self.lam, source_rate=self.source_rate)
        if not 0.0 < self.sink_param < 1.0:
            raise ValueError("sink_param must lie in (0, 1)")
        if self.variant == "strict":
            residual = abs(self.lam / (self.lam + self.source_rate) - self.sink_param)
        else:
            if self.source_rate <= self.lam:
                raise ValueError("weak variant requires source_rate > lam")
            residual = abs(self.sink_param * self.source_rate - self.lam) / self.lam
        if residual > _REL_TOL:
            raise ValueError(f"stationarity constraint violated (residual {residual:.3e})")

    @staticmethod
    def strict_from_alpha(lam: float, alpha: float) -> "BoundaryRates":
        _check_positive(lam=lam, alpha=alpha)
        return BoundaryRates("strict", alpha, lam / (lam + alpha), lam)

    @staticmethod
    def weak_from_beta(lam: float, beta: float) -> "BoundaryRates":
        _check_positive(lam=lam)
        if not lam < beta < math.inf:
            raise ValueError(f"weak variant requires beta > lam and beta finite, got "
                             f"beta={beta}, lam={lam}")
        return BoundaryRates("weak", beta, lam / beta, lam)


def mean_bound(x: float, t: float, lam: float, order: str) -> float | None:
    """First-order mean chain length 2*sqrt(x*t*lam) - x*lam (strict) or + x*lam,
    or None outside its domain t >= x*lam, and where the value is not a
    positive finite float (x*t*lam under- or overflows): no relative error
    can be taken against it."""
    _check_variant(order)
    _check_positive(x=x, t=t, lam=lam)
    if t < x * lam:
        return None
    root = 2.0 * math.sqrt(x * t * lam)
    value = root - x * lam if order == "strict" else root + x * lam
    return value if 0.0 < value < math.inf else None


def optimal_rates_strict(x: float, t: float, lam: float) -> tuple[BoundaryRates, float]:
    """Cost-minimizing (alpha, p) for the strict boundary process.

    alpha = sqrt(t*lam/x) - lam and p = sqrt(x*lam/t); the boundary cost
    x*alpha + t*p equals 2*sqrt(x*t*lam) - x*lam.  Requires t > x*lam so
    that alpha > 0 and p < 1.
    """
    _check_positive(x=x, t=t, lam=lam)
    if t <= x * lam:
        raise ValueError("need t > x*lam for a positive source rate")
    alpha = math.sqrt(t * lam / x) - lam
    p = math.sqrt(x * lam / t)
    cost = x * alpha + t * p
    return BoundaryRates("strict", alpha, p, lam), cost


def optimal_rates_weak(x: float, t: float, lam: float) -> tuple[BoundaryRates, float]:
    """Cost-minimizing (beta, beta*) for the weak boundary process.

    beta = sqrt(t*lam/x) + lam, beta* = 1/(1 + sqrt(t/(x*lam))); the cost
    x*beta + t*beta*/(1-beta*) equals 2*sqrt(x*t*lam) + x*lam, and
    beta > lam always holds.
    """
    _check_positive(x=x, t=t, lam=lam)
    beta = math.sqrt(t * lam / x) + lam
    beta_star = 1.0 / (1.0 + math.sqrt(t / (x * lam)))
    cost = x * beta + t * beta_star / (1.0 - beta_star)
    return BoundaryRates("weak", beta, beta_star, lam), cost


def predicted_mean(n: int, k: int, order: str) -> float | None:
    """First-order mean subsequence length: 2*sqrt(n*k) - k (strict) or + k (weak),
    or None outside its domain k <= n."""
    _check_variant(order)
    _check_positive(n=n, k=k, integer=True)
    if k > n:
        return None
    root = 2.0 * math.sqrt(n * k)
    return root - k if order == "strict" else root + k


def augmented_tail_rate(eps: float) -> float:
    """Explicit exponential rate eps^2/12 in the exceedance bound for the
    boundary-augmented chain statistic at the optimal strict rates."""
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return eps * eps / 12.0


# ---------------------------------------------------------------------------
# Exact tail probabilities (log space)

def _log_tail_sum(log_first: float, ratios: Iterable[float]) -> float:
    """log of sum of terms t_0 >= t_1 >= ... given log t_0 and successive
    ratios t_{j+1}/t_j; stops once a term drops below 1e-18 of the total."""
    if log_first == -math.inf:
        return -math.inf
    acc = 0.0  # log(sum / first)
    log_term = 0.0
    for r in ratios:
        if r <= 0.0:
            break
        log_term += math.log(r)
        if log_term - acc < _TERM_TOL:
            break
        acc = acc + math.log1p(math.exp(log_term - acc))
    return log_first + acc


def _log_range_sum(log_terms: Sequence[float]) -> float:
    """log of sum(exp(t) for t in log_terms), stable for any ordering."""
    m = max(log_terms, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    return m + math.log(sum(math.exp(t - m) for t in log_terms))


def _log_poisson_pmf(lam: float, j: int) -> float:
    return j * math.log(lam) - lam - math.lgamma(j + 1)


def log_poisson_upper(lam: float, threshold: float) -> float:
    """log P(Poisson(lam) >= threshold)."""
    m = max(0, math.ceil(threshold))
    return _log_tail_sum(_log_poisson_pmf(lam, m),
                         (lam / j for j in itertools.count(m + 1)))


def log_poisson_lower(lam: float, threshold: float) -> float:
    """log P(Poisson(lam) <= threshold)."""
    m = math.floor(threshold)
    if m < 0:
        return -math.inf
    return _log_range_sum([_log_poisson_pmf(lam, j) for j in range(m + 1)])


def log_chi2_upper(stat: float, dof: int) -> float:
    """log P(chi-square(dof) >= stat), the regularized upper incomplete gamma
    Q(dof/2, stat/2), summed exactly in log space.

    With h = stat/2: for even dof, Q(m, h) = P(Poisson(h) <= m - 1); for odd
    dof, Q(m + 1/2, h) = erfc(sqrt h) + sum_{j<m} h^(j+1/2) e^-h / Gamma(j+3/2).
    Where erfc(sqrt h) underflows (stat above about 1480) its term is dropped.
    """
    _check_positive(dof=dof, integer=True)
    if not 0.0 <= stat < math.inf:
        raise ValueError(f"stat must be nonnegative and finite, got stat={stat}")
    if stat == 0.0:
        return 0.0
    h = 0.5 * stat
    m, odd = divmod(dof, 2)
    if not odd:
        return log_poisson_lower(h, m - 1)
    log_h, tail = math.log(h), math.erfc(math.sqrt(h))
    return _log_range_sum([math.log(tail) if tail else -math.inf]
                          + [(j + 0.5) * log_h - h - math.lgamma(j + 1.5) for j in range(m)])


def _log_binom_pmfs(n: int, p: float, js: Iterable[int]) -> list[float]:
    """log P(Binomial(n, p) = j) for each j; the logs free of j are taken once."""
    log_top, log_p, log_q = math.lgamma(n + 1), math.log(p), math.log1p(-p)
    return [log_top - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * log_p + (n - j) * log_q for j in js]


def log_binomial_upper(n: int, p: float, threshold: float) -> float:
    """log P(Binomial(n, p) >= threshold)."""
    m = max(0, math.ceil(threshold))
    if m > n:
        return -math.inf
    return _log_range_sum(_log_binom_pmfs(n, p, range(m, n + 1)))


def log_binomial_lower(n: int, p: float, threshold: float) -> float:
    """log P(Binomial(n, p) <= threshold)."""
    m = math.floor(threshold)
    if m < 0:
        return -math.inf
    return _log_range_sum(_log_binom_pmfs(n, p, range(0, min(m, n) + 1)))


def _log_nbinom_pmfs(k: int, alpha: float, js: Iterable[int]) -> list[float]:
    """log P(NegBin(k, 1 - alpha) = j) for each j; the logs free of j are
    taken once."""
    log_k, log_base, log_alpha = math.lgamma(k), k * math.log1p(-alpha), math.log(alpha)
    return [math.lgamma(k + j) - math.lgamma(j + 1) - log_k + log_base + j * log_alpha
            for j in js]


def log_geomsum_upper(k: int, alpha: float, threshold: float) -> float:
    """log P(sum of k Geometric_{>=0}(1-alpha) >= threshold)."""
    m = max(0, math.ceil(threshold))
    return _log_tail_sum(_log_nbinom_pmfs(k, alpha, [m])[0],
                         (alpha * (k + j) / (j + 1) for j in itertools.count(m)))


def log_geomsum_lower(k: int, alpha: float, threshold: float) -> float:
    """log P(sum of k Geometric_{>=0}(1-alpha) <= threshold)."""
    m = math.floor(threshold)
    if m < 0:
        return -math.inf
    return _log_range_sum(_log_nbinom_pmfs(k, alpha, range(m + 1)))


# ---------------------------------------------------------------------------
# Certificates

@dataclass(frozen=True)
class TailRecord:
    kind: str
    params: dict
    log_exact: float
    log_bound: float

    @property
    def exact(self) -> float:
        return math.exp(self.log_exact) if self.log_exact > -700 else 0.0

    @property
    def bound(self) -> float:
        return math.exp(self.log_bound) if self.log_bound > -700 else 0.0

    @property
    def passed(self) -> bool:
        return self.log_exact <= self.log_bound


@dataclass(frozen=True)
class TailCertificate:
    records: tuple[TailRecord, ...]

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    def failures(self) -> list[TailRecord]:
        return [r for r in self.records if not r.passed]


def _poisson_grid() -> list[dict]:
    grid = []
    for e in range(8):
        lam = float(2 ** e)
        lo, hi = math.sqrt(lam), 4.0 * lam
        grid += [{"lam": lam, "a": lo + (hi - lo) * i / 7.0} for i in range(8)]
    return grid


def _product_family(names: tuple[str, ...], *axes: tuple) -> tuple:
    """Parameter names and a default grid over the product of ``axes``."""
    return names, lambda: [dict(zip(names, point)) for point in itertools.product(*axes)]


def _geometric_rate(alpha: float, a: float) -> float:
    """Cramér rate I(a) of one Geometric_{>=0}(1 - alpha) variable at a > 0: a
    sum of k of them lies beyond k*a, on the side away from its mean, with
    probability at most exp(-k I(a)).

    By Chernoff that probability is at most exp(-k (s a - log M(s))) for every s
    of the tail's sign, where M(s) = (1 - alpha) / (1 - alpha e^s).  The exponent
    is greatest at e^s = a / (alpha (1 + a)), where 1 - alpha e^s = 1 / (1 + a),
    so I(a) = a log(a / (alpha (1 + a))) - log((1 - alpha) (1 + a)); that s is
    >= 0 exactly when a is at least the mean alpha / (1 - alpha).
    """
    return a * math.log(a / (alpha * (1.0 + a))) - math.log((1.0 - alpha) * (1.0 + a))


# The parameter names, default grid and (Poisson) log bound of each family.
_ODD_TENTHS = (0.1, 0.3, 0.5, 0.7, 0.9)
_POISSON = (("lam", "a"), _poisson_grid, lambda lam, a: -a * a / (4.0 * lam))
_BINOMIAL = _product_family(("n", "p", "eps"), (10, 20, 50, 100, 300, 1000),
                            _ODD_TENTHS, _ODD_TENTHS)
_GEOMSUM = _product_family(("k", "alpha", "eps"), (1, 2, 5, 10, 50, 100, 200),
                           _ODD_TENTHS, _ODD_TENTHS)

# Every certificate kind, in the order ``ulam tails --kind all`` writes them:
# kind -> (parameter names, default grid, log bound, exact log tail), the last
# two taking the parameters in the order named.  The bounds are Chernoff's,
# the binomial ones for 0 < eps < 1, at lam -/+ a and (1 -/+ eps) times the mean.
_KINDS: dict[str, tuple[tuple[str, ...], Callable, Callable, Callable]] = {
    "poisson_lower": (*_POISSON, lambda lam, a: log_poisson_lower(lam, lam - a)),
    "poisson_upper": (*_POISSON, lambda lam, a: log_poisson_upper(lam, lam + a)),
    "binomial_upper": (*_BINOMIAL, lambda n, p, eps: -eps * eps * n * p / 3.0,
                       lambda n, p, eps: log_binomial_upper(n, p, (1.0 + eps) * n * p)),
    "binomial_lower": (*_BINOMIAL, lambda n, p, eps: -eps * eps * n * p / 2.0,
                       lambda n, p, eps: log_binomial_lower(n, p, (1.0 - eps) * n * p)),
    "geomsum_upper": (*_GEOMSUM,
        lambda k, alpha, eps: -k * _geometric_rate(alpha, (1.0 + eps) * alpha / (1.0 - alpha)),
        lambda k, alpha, eps: log_geomsum_upper(
            k, alpha, (1.0 + eps) * k * alpha / (1.0 - alpha))),
    "geomsum_lower": (*_GEOMSUM,
        lambda k, alpha, eps: -k * _geometric_rate(alpha, (1.0 - eps) * alpha / (1.0 - alpha)),
        lambda k, alpha, eps: log_geomsum_lower(
            k, alpha, (1.0 - eps) * k * alpha / (1.0 - alpha))),
}
TAIL_KINDS = tuple(_KINDS)
_FAMILY = {kind: kind.partition("_")[0] for kind in TAIL_KINDS}

# What each ``ulam tails --kind`` value selects, in TAIL_KINDS order: every
# kind, a family (the kinds that share the name before "_"), or one kind.
TAIL_SELECTIONS = {"all": TAIL_KINDS,
                   **{f: tuple(k for k in TAIL_KINDS if _FAMILY[k] == f)
                      for f in _FAMILY.values()},
                   **{k: (k,) for k in TAIL_KINDS}}


def verify_tail_inequality(kind: str) -> TailCertificate:
    """Exact-CDF certificate: every point of the kind's default grid must
    satisfy exact <= bound.

    The comparison is done on log probabilities, so deep tails (down to
    exp(-hundreds)) are certified without underflow.
    """
    if kind not in TAIL_KINDS:
        raise ValueError(f"kind must be one of {TAIL_KINDS}")
    names, grid, log_bound, log_exact = _KINDS[kind]
    records = []
    for params in grid():
        args = [params[name] for name in names]
        records.append(TailRecord(kind, dict(params), log_exact(*args), log_bound(*args)))
    return TailCertificate(tuple(records))


_PARAMS = ("lam", "a", "n", "p", "k", "alpha", "eps")
CERTIFICATE_COLUMNS = ("kind", *_PARAMS, "log_exact", "log_bound", "exact", "bound", "pass")


def certificate_rows(certs: Iterable[TailCertificate]) -> list[list]:
    """Flatten certificates into CSV rows under CERTIFICATE_COLUMNS."""
    return [[r.kind, *(r.params.get(name, "") for name in _PARAMS),
             r.log_exact, r.log_bound, r.exact, r.bound, r.passed]
            for cert in certs for r in cert.records]


# ---------------------------------------------------------------------------
# Regime diagnostics

@dataclass(frozen=True)
class RegimeDiagnostics:
    """Scaling ratios for the small/large multiplicity regimes.

    small_ratio = k^2 * k! / sqrt(n); large_ratio = n^2 * k * exp(-sqrt(k))
    / sqrt(n*k).  Both are asymptotic diagnostics, so no verdict is
    attached; log values are always finite even when the linear value
    overflows.
    """

    small_ratio: float
    large_ratio: float
    log_small: float
    log_large: float


def regime_diagnostics(n: int, k: int) -> RegimeDiagnostics:
    _check_positive(n=n, k=k, integer=True)
    log_small = 2.0 * math.log(k) + math.lgamma(k + 1) - 0.5 * math.log(n)
    log_large = 2.0 * math.log(n) + math.log(k) - k ** 0.5 - 0.5 * math.log(n * k)
    def lin(v: float) -> float:
        return math.exp(v) if v < 700 else math.inf
    return RegimeDiagnostics(lin(log_small), lin(log_large), log_small, log_large)
