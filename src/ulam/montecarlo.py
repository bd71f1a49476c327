"""Replica orchestration: estimators with standard errors, stationarity
tests, deviation profiles, and the word/cloud comparison report.

Every operation draws one independent stream per replica, keyed by
(seed, op_tag << 32 | replica), and aggregates in replica order, so the
result is bit-identical whatever the parallelism.  Statistical assertions
downstream use a 4-sigma policy; everything here only reports.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .bounds import (BoundaryRates, _check_variant, _log_poisson_pmf, augmented_tail_rate,
                     log_chi2_upper, mean_bound, optimal_rates_strict, optimal_rates_weak,
                     predicted_mean)
from .hammersley import _CLOUD_REPLICAS, _chain_keys, _slab_counts, _word_counts
from .sampling import (_check_geometry, _check_word, _shuffled_letters, make_rng, sample_boundary,
                       sample_poisson_cloud)

# Disjoint stream-id blocks per operation; replica r of op with tag g uses
# stream_id (g << 32) | r.
_TAG_WORD = 1
_TAG_POISSON = 2
_TAG_STATIONARY = 3
_TAG_DEVIATION = 4
_MAX_REPS = 1 << 32

# Replicas run in balanced chunks of at most _CHUNK_REPS replicas and at
# most _CHUNK_BYTES of keys, slab and per-row arrays (`_chunks`), cut from
# the input alone, never from --jobs.  A slab row step costs the same numpy
# calls whatever its width, so wide chunks are fast: every benchmark
# geometry runs as one chunk per order (at most 60 replicas of about 1e4
# points, 4.8 MB of 8-byte cloud keys).  The replica cap leaves a run of
# more replicas several chunks for --jobs to spread; a run that fits one
# chunk runs in one process whatever --jobs is.  The budget binds only on
# large replicas: 2**24 is the least at which k = 1 words at n = 1e5 (32
# replicas a chunk) run level with a patience pass per replica; 2**25 saves
# another tenth there for 12-15 MB more peak RSS, and no budget speeds up
# n = k = 1e3.  The replica cap is the most clouds one key layout holds, so
# no planned chunk is refused.
_CHUNK_REPS = _CLOUD_REPLICAS
_CHUNK_BYTES = 1 << 24


def _stream(tag: int, rep: int) -> int:
    return (tag << 32) | rep


def _check_reps(reps: int) -> None:
    if not isinstance(reps, numbers.Integral):
        raise ValueError(f"reps must be an integer, got reps={reps}")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    if reps > _MAX_REPS:
        # replica 2**32 of tag g would draw stream (g + 1) << 32
        raise ValueError(f"reps must be <= 2**32, got {reps}")


@dataclass(frozen=True)
class EstimateReport:
    """Monte Carlo mean with its standard error, against ``predicted``."""

    mean: float
    stderr: float
    reps: int
    predicted: float | None = None
    rel_error: float | None = None

    @staticmethod
    def from_values(values: np.ndarray, predicted: float | None = None) -> "EstimateReport":
        values = np.asarray(values, dtype=float)
        reps = values.size
        mean = float(values.mean())
        stderr = float(values.std(ddof=1) / math.sqrt(reps))
        predicted = None if predicted is None else float(predicted)  # float32: no JSON form
        rel = None if predicted is None else abs(mean - predicted) / predicted
        return EstimateReport(mean, stderr, reps, predicted, rel)


def _parallel_map(fn, argses: list, jobs: int) -> list:
    workers = min(jobs, os.cpu_count() or 1, len(argses))
    if workers <= 1:
        return [fn(a) for a in argses]
    # local: the pool loads multiprocessing, logging and subprocess, which serial runs never use
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(argses) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, argses, chunksize=chunk))


def _replica_bytes(points: float, row: float, rows: float = 0.0, key: int = 4,
                   chain: float | None = None) -> float:
    """Bytes of one replica of ``points`` expected keys, ``row`` in a row,
    ``rows`` rows and a chain of ``chain`` keys (about 2 sqrt(points) if not
    given), in a chunk: a ``key``-byte key per point, a slab row of at most
    4 (chain + row) cells of that width (the slab doubles when half full),
    and 40 bytes a row for a cloud's row sizes as drawn, its int32 segment
    table, the table's cumulative sums and the int64 row offsets taken from
    them (33 bytes a row a cloud measured with tracemalloc at x = 0.01,
    t = 1e5, 20 clouds, and 32 a further replica of a chunk at t = 5000; a
    word's rows are shared, so it passes none).  A word's keys are int32
    within the budget (R replicas of p points have
    R << shift <= 2 R (p + 1), far below 2**32); a cloud's are int64,
    ``key`` = 8."""
    if chain is None:
        chain = 2.0 * math.sqrt(max(points, 0.0))
    return key * (1.0 + points + 4.0 * (chain + row)) + 40.0 * rows


def _chunks(reps: int, points: float, row: float, rows: float = 0.0,
            key: int = 4, chain: float | None = None) -> list[range]:
    """Replicas 0..reps-1 in the fewest balanced chunks of at most
    ``_CHUNK_REPS`` replicas and ``_CHUNK_BYTES`` (`_replica_bytes`), or of
    one replica where one is more."""
    per = _replica_bytes(points, row, rows, key, chain)
    size = min(_CHUNK_REPS, max(1, int(_CHUNK_BYTES // per)))
    chunks = -(-reps // size)
    cuts = [reps * i // chunks for i in range(chunks + 1)]
    return [range(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


def _expected_keys(x: float, t: int, lam: float, rates: BoundaryRates | None) -> tuple:
    """Expected keys of one replica's cloud and boundary, of its longest
    row and of its chain: x t lam points, x source_rate sources in row 0,
    and a sink unit with probability sink_param (strict) or sink_param /
    (1 - sink_param) of them (weak, Geometric) in each of the t rows.  A
    plain chain is about 2 sqrt(x t lam) long; a boundary's is its
    stationary particle count, x source_rate, plus every sink unit, each of
    which stays in the chain."""
    if rates is None:
        return x * t * lam, x * lam, 2.0 * math.sqrt(x * t * lam)
    p = rates.sink_param
    units = p if rates.variant == "strict" else p / (1.0 - p)
    sources = x * rates.source_rate
    return (x * t * lam + sources + t * units, max(x * lam + units, sources),
            sources + t * units)


# --- replica workers (top level so process pools can pickle them) ---------

def _word_chunk(args) -> np.ndarray:
    seed, reps, n, k, order = args
    words = (_shuffled_letters(n, k, make_rng(seed, _stream(_TAG_WORD, r))) for r in reps)
    return _word_counts(words, len(reps), n, k, order)


def _poisson_chunk(args) -> np.ndarray:
    """Final particle counts and total sinks of a chunk of replicas: the
    slab's chain lengths, less each boundary's total sinks if ``rates`` are
    given (the line identity).  Each replica is drawn as one (cloud,
    boundary or None) pair and keyed before the next is drawn.  The key
    buffer is reserved for the chunk's expected keys and four standard
    deviations more (as if they were Poisson)."""
    seed, reps, x, t, lam, order, tag, rates = args
    rngs = (make_rng(seed, _stream(tag, r)) for r in reps)
    # a replica's cloud, then its boundary, from its own stream, as in run_process
    draws = ((sample_poisson_cloud(x, t, lam, rng),
              sample_boundary(x, t, rates, rng) if rates else None) for rng in rngs)
    expected = len(reps) * _expected_keys(x, t, lam, rates)[0]
    reserve = int(expected + 4.0 * math.sqrt(expected)) + 1
    *layout, sinks = _chain_keys(draws, reserve)
    return np.stack((_slab_counts(*layout, order) - sinks, sinks))


def _poisson_counts(x: float, t: int, lam: float, order: str, reps: int, seed: int,
                    parallelism: int, tag: int = _TAG_POISSON,
                    rates: BoundaryRates | None = None) -> np.ndarray:
    """Final particle counts and total sinks (2, reps) of replicas 0..reps-1,
    in replica order, drawn from stream block ``tag``.  The geometry is
    checked once, here, before any chunk is planned."""
    _check_geometry(x, t, lam, rates.source_rate if rates else 0.0)
    points, row, chain = _expected_keys(x, t, lam, rates)
    argses = [(seed, chunk, x, t, lam, order, tag, rates)
              for chunk in _chunks(reps, points, row, t + 1, 8, chain)]
    return np.concatenate(_parallel_map(_poisson_chunk, argses, parallelism), axis=1)


# --- estimators ------------------------------------------------------------

def estimate_mean_subsequence(n: int, k: int, order: str, reps: int, seed: int,
                              parallelism: int = 1) -> EstimateReport:
    """Mean chain length of uniform multiset words against 2*sqrt(nk) -/+ k,
    ``predicted`` as `predicted_mean` gives it: None, with ``rel_error``,
    outside its domain k <= n."""
    _check_word(n, k)
    predicted = predicted_mean(n, k, order)  # checks the order
    _check_reps(reps)
    n, k = int(n), int(k)  # a numpy integer count has no bit_length
    argses = [(seed, chunk, n, k, order) for chunk in _chunks(reps, n * k, k)]
    vals = np.concatenate(_parallel_map(_word_chunk, argses, parallelism)).astype(float)
    return EstimateReport.from_values(vals, predicted)


def estimate_poissonized(x: float, t: int, lam: float, order: str, reps: int,
                         seed: int, parallelism: int = 1) -> EstimateReport:
    """Mean chain length of Poisson clouds; ``predicted`` is the first-order
    value 2*sqrt(x*t*lam) -/+ x*lam, an upper bound for the mean, as
    `mean_bound` gives it: None, with ``rel_error``, outside t >= x*lam."""
    _check_variant(order)
    _check_reps(reps)
    vals = _poisson_counts(x, t, lam, order, reps, seed, parallelism)[0]  # checks t
    return EstimateReport.from_values(vals, mean_bound(x, t, lam, order))


@dataclass(frozen=True, eq=False)
class StationarityReport:
    """Particle-count sample versus the exact stationary Poisson law; the
    sample size is ``counts.size``."""

    target_mean: float
    mean: float
    variance: float
    z_mean: float
    z_var: float
    chi2_stat: float
    chi2_dof: int
    p_value: float
    counts: np.ndarray


def _poisson_chi_square(sample: np.ndarray, mu: float) -> tuple[float, int, float]:
    """Chi-square GOF against Poisson(mu), merging bins to expected >= 5.

    The pmf is exp of the log-space terms of `bounds._log_poisson_pmf`, and the
    p-value exp of `bounds.log_chi2_upper`, the exact finite sum for the
    upper incomplete gamma at a whole or half-integer shape."""
    reps = sample.size
    hi = int(max(sample.max(), mu + 8 * math.sqrt(mu))) + 1
    pmf = np.exp([_log_poisson_pmf(mu, j) for j in range(hi + 1)])
    pmf = np.append(pmf, max(0.0, 1.0 - pmf.sum()))
    obs = np.bincount(sample, minlength=pmf.size).astype(float)[: pmf.size]
    exp = reps * pmf
    # merge adjacent bins until every expected count reaches 5
    m_obs, m_exp = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(obs, exp):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            m_obs.append(acc_o)
            m_exp.append(acc_e)
            acc_o = acc_e = 0.0
    if m_exp:
        m_obs[-1] += acc_o
        m_exp[-1] += acc_e
    else:
        m_obs, m_exp = [acc_o], [acc_e]
    m_obs = np.asarray(m_obs)
    m_exp = np.asarray(m_exp)
    stat = float(((m_obs - m_exp) ** 2 / m_exp).sum())
    dof = max(1, m_obs.size - 1)
    return stat, dof, math.exp(log_chi2_upper(stat, dof))


def stationarity_test(x: float, lam: float, source_rate: float, variant: str,
                      t: int, reps: int, seed: int,
                      parallelism: int = 1) -> StationarityReport:
    """Run the boundary process to a time t >= 1 over replicas, each drawn as
    `run_process` draws it, and compare the final particle count with its
    exact stationary law Poisson(x * rate)."""
    _check_variant(variant)
    _check_reps(reps)
    rates = (BoundaryRates.strict_from_alpha if variant == "strict"
             else BoundaryRates.weak_from_beta)(lam, source_rate)
    sample = _poisson_counts(x, t, lam, variant, reps, seed, parallelism,
                             _TAG_STATIONARY, rates)[0]
    mu = x * source_rate
    mean = float(sample.mean())
    var = float(sample.var(ddof=1))
    z_mean = (mean - mu) / math.sqrt(mu / reps)
    # Var(S^2) for a Poisson sample: (mu + 2 mu^2) / reps to first order
    z_var = (var - mu) / math.sqrt((mu + 2 * mu * mu) / reps)
    stat, dof, p = _poisson_chi_square(sample, mu)
    return StationarityReport(mu, mean, var, z_mean, z_var, stat, dof, p, sample)


@dataclass(frozen=True, eq=False)
class DeviationProfile:
    """Empirical exceedance frequencies around the first-order center.

    ``bound_upper`` carries the explicit boundary-process bound
    2*exp(-(eps^2/12) * (sqrt(x*t*lam) - x*lam)); it is a certified bound
    only for the boundary-augmented statistic in the strict order, and NaN
    for the weak order where no explicit rate is available.
    """

    center: float
    eps_grid: tuple[float, ...]
    upper_freq: tuple[float, ...]
    lower_freq: tuple[float, ...]
    bound_upper: tuple[float, ...]
    reps: int


def deviation_profile(x: float, t: int, lam: float, order: str, eps_grid,
                      reps: int, seed: int, parallelism: int = 1,
                      augmented: bool = False) -> DeviationProfile:
    """Exceedance frequencies of the chain length (or, with ``augmented``,
    of the boundary chain length: particle count + total sinks)."""
    _check_variant(order)
    _check_reps(reps)
    eps_grid = tuple(float(e) for e in eps_grid)
    if any(not 0.0 < e < 1.0 for e in eps_grid):
        raise ValueError("eps grid must lie in (0, 1)")
    if any(b >= a for a, b in zip(eps_grid[1:], eps_grid)):
        raise ValueError("eps grid must be strictly increasing")
    center = mean_bound(x, t, lam, order)
    if center is None:
        raise ValueError("requires t >= x*lam")
    tag, rates = _TAG_POISSON, None
    if augmented:
        tag = _TAG_DEVIATION
        rates, _ = (optimal_rates_strict if order == "strict" else optimal_rates_weak)(x, t, lam)
    vals = _poisson_counts(x, t, lam, order, reps, seed, parallelism, tag, rates).sum(0)
    upper = tuple(float(np.mean(vals > (1 + e) * center)) for e in eps_grid)
    lower = tuple(float(np.mean(vals < (1 - e) * center)) for e in eps_grid)
    scale = math.sqrt(x * t * lam) - x * lam
    if order == "strict":
        bound = tuple(min(1.0, 2.0 * math.exp(-augmented_tail_rate(e) * scale))
                      for e in eps_grid)
    else:
        bound = tuple(math.nan for _ in eps_grid)
    return DeviationProfile(center, eps_grid, upper, lower, bound, reps)


@dataclass(frozen=True)
class DepoissonizationReport:
    """Word estimator versus the matched Poisson-cloud estimator.

    The matched cloud lives on [0, k] x {1..n} with intensity 1, so each row
    holds k points on average; only the order of x counts, so its chain
    length has the law of the cloud on [0, n*k] at intensity 1/n, and
    x*lam = k exactly.  ``budget`` is the smoothness allowance
    6*sqrt(n*sqrt(k)) plus 8 standard errors; it presumes k well below n,
    so for k comparable to n the report is informative only.  It runs at
    every (n, k); where k > n, an estimate's ``predicted`` is None.
    """

    word: EstimateReport
    poissonized: EstimateReport
    diff: float
    budget: float
    within_budget: bool


def depoissonization_report(n: int, k: int, reps: int, seed: int,
                            parallelism: int = 1) -> DepoissonizationReport:
    w = estimate_mean_subsequence(n, k, "strict", reps, seed, parallelism)
    p = estimate_poissonized(float(k), n, 1.0, "strict", reps, seed, parallelism)
    diff = abs(w.mean - p.mean)
    budget = 6.0 * math.sqrt(n * math.sqrt(k)) + 8.0 * (w.stderr + p.stderr)
    return DepoissonizationReport(w, p, diff, budget, diff <= budget)
