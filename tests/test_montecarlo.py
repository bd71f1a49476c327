import ast
import concurrent.futures
import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from conftest import P_FOUR_SIGMA, assert_within_sigma
from ulam import hammersley, montecarlo
from ulam.bounds import BoundaryRates, optimal_rates_strict, optimal_rates_weak
from ulam.hammersley import run_process
from ulam.montecarlo import (depoissonization_report, deviation_profile,
                             estimate_mean_subsequence, estimate_poissonized,
                             stationarity_test)
from ulam.sampling import (make_rng, sample_boundary, sample_poisson_cloud,
                           sample_uniform_multiset_permutation)
from ulam.subsequences import lis_strict, lnds_weak


class TestEstimateMeanSubsequence:
    @pytest.mark.statistical
    def test_tiny_case_matches_enumeration(self):
        rep = estimate_mean_subsequence(2, 2, "strict", 20000, seed=50)
        assert_within_sigma(rep.mean, 11 / 6, rep.stderr, label="strict (2,2)")
        rep = estimate_mean_subsequence(2, 2, "weak", 20000, seed=50)
        assert_within_sigma(rep.mean, 17 / 6, rep.stderr, label="weak (2,2)")

    def test_report_fields(self):
        rep = estimate_mean_subsequence(10, 2, "strict", 100, seed=51)
        assert rep.reps == 100 and rep.seed == 51
        assert rep.predicted == pytest.approx(2 * math.sqrt(20) - 2)
        assert rep.rel_error == pytest.approx(abs(rep.mean - rep.predicted) / rep.predicted)

    def test_parallelism_is_result_invariant(self):
        serial = estimate_mean_subsequence(8, 2, "strict", 64, seed=52, parallelism=1)
        parallel = estimate_mean_subsequence(8, 2, "strict", 64, seed=52, parallelism=8)
        assert serial == parallel

    def test_strict_dominated_by_weak_per_replicate(self):
        # matched streams draw identical words, so dominance is per sample
        for rep in range(200):
            rng = make_rng(53, rep)
            w = sample_uniform_multiset_permutation(6, 3, rng)
            assert lis_strict(w) <= lnds_weak(w)
        s = estimate_mean_subsequence(6, 3, "strict", 200, seed=53)
        wk = estimate_mean_subsequence(6, 3, "weak", 200, seed=53)
        assert s.mean <= wk.mean

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            estimate_mean_subsequence(2, 2, "strict", 1, seed=0)

    def test_letter_count_past_int64_rejected(self):
        # checked before the first-order value, whose float of n*k would overflow
        for n, k in ((10**400, 1), (2, 10**20)):
            with pytest.raises(ValueError, match="n\\*k must be below 2\\*\\*63"):
                estimate_mean_subsequence(n, k, "strict", 2, seed=0)


class TestWordChunks:
    """The word estimator runs its replicas in chunks through the slab kernel."""

    @pytest.mark.parametrize("seed", [0, 61, 2**64 - 1])
    def test_report_equals_patience_recount(self, monkeypatch, seed):
        # 7 replicas of 36 letters take 404 bytes each, so a budget of 1300
        # bytes makes 3 chunks
        n, k, reps = 9, 4, 7
        assert montecarlo._replica_bytes(n * k, k) == 404
        chunks = []
        run_chunk = montecarlo._word_chunk
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1300)
        monkeypatch.setattr(montecarlo, "_word_chunk",
                            lambda args: chunks.append(list(args[1])) or run_chunk(args))
        for order, chain in (("strict", lis_strict), ("weak", lnds_weak)):
            rep = estimate_mean_subsequence(n, k, order, reps, seed)
            vals = np.asarray([chain(sample_uniform_multiset_permutation(
                n, k, make_rng(seed, (1 << 32) | r))) for r in range(reps)], dtype=float)
            assert rep.mean == float(vals.mean())
            assert rep.stderr == float(vals.std(ddof=1) / math.sqrt(reps))
        assert chunks == [[0, 1], [2, 3], [4, 5, 6]] * 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(1, 12), st.integers(2, 9),
           st.integers(1, 16_000), st.integers(0, 2**64 - 1))
    def test_any_chunking_matches_patience(self, n, k, reps, budget, seed):
        # up to 1650 bytes a replica: from one replica a chunk to one chunk
        with mock.patch.object(montecarlo, "_CHUNK_BYTES", budget):
            for order, chain in (("strict", lis_strict), ("weak", lnds_weak)):
                rep = estimate_mean_subsequence(n, k, order, reps, seed)
                vals = np.asarray([chain(sample_uniform_multiset_permutation(
                    n, k, make_rng(seed, (1 << 32) | r))) for r in range(reps)], dtype=float)
                assert (rep.mean, rep.stderr) == (
                    float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(reps)))

    @pytest.mark.parametrize("order", ["strict", "weak"])
    def test_parallelism_is_result_invariant(self, monkeypatch, order):
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 2000)  # 8 chunks
        serial = estimate_mean_subsequence(10, 3, order, 40, seed=69, parallelism=1)
        parallel = estimate_mean_subsequence(10, 3, order, 40, seed=69, parallelism=2)
        assert serial == parallel

    @pytest.mark.parametrize("n, k", [(1, 1), (7, 1), (3, 5), (300, 2)])
    def test_chunk_letters_are_the_sampled_words(self, monkeypatch, n, k):
        seen = []
        monkeypatch.setattr(montecarlo, "_word_counts",
                            lambda words, reps, n, k, order: seen.append((reps, list(words))))
        montecarlo._word_chunk((5, range(3, 200), n, k, "weak"))
        ((reps, words),) = seen
        assert reps == len(words) == 197
        for r, letters in zip(range(3, 200), words):
            word = sample_uniform_multiset_permutation(n, k, make_rng(5, (1 << 32) | r))
            assert letters.tolist() == list(word.letters)

    def test_rejects_empty_words(self):
        for n, k in ((0, 3), (3, 0)):
            with pytest.raises(ValueError, match="n and k"):
                estimate_mean_subsequence(n, k, "strict", 4, seed=0)


class TestChunkPlan:
    """One planner cuts words, clouds and boundary clouds by one byte budget."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3000), st.floats(0.0, 1e6), st.floats(0.0, 1e3),
           st.integers(0, 10**6), st.integers(1, 1 << 26))
    def test_balanced_chunks_within_the_budget(self, reps, points, row, rows, budget):
        with mock.patch.object(montecarlo, "_CHUNK_BYTES", budget):
            plan = montecarlo._chunks(reps, points, row, rows)
        per = montecarlo._replica_bytes(points, row, rows)
        assert per >= 40 * rows
        assert [r for chunk in plan for r in chunk] == list(range(reps))
        assert max(map(len, plan)) - min(map(len, plan)) <= 1
        # over the budget only with a single replica, never over the replica
        # cap, and no more chunks than the budget and the cap need
        assert all(len(chunk) * per <= budget or len(chunk) == 1 for chunk in plan)
        assert max(map(len, plan)) <= montecarlo._CHUNK_REPS
        size = min(montecarlo._CHUNK_REPS, max(1, int(budget // per)))
        assert len(plan) == -(-reps // size)

    def test_benchmark_geometries_run_as_one_chunk(self):
        # words at n = 1000, k = 10; clouds at x = t = 100; the boundary
        # process at x = 50, t = 200, strict at source rate 1 and weak at 2,
        # each planned as its estimator plans it
        assert len(montecarlo._chunks(60, 1e4, 10)) == 1
        for rates in (None, BoundaryRates.strict_from_alpha(1.0, 1.0),
                      BoundaryRates.weak_from_beta(1.0, 2.0)):
            x, t, reps = (100.0, 100, 60) if rates is None else (50.0, 200, 30)
            points, row, chain = montecarlo._expected_keys(x, t, 1.0, rates)
            assert len(montecarlo._chunks(reps, points, row, t + 1, 8, chain)) == 1

    def test_more_replicas_leave_chunks_to_spread(self):
        # 512 replicas of a benchmark geometry run as 8 chunks of 64, so
        # that --jobs has chunks to spread
        for plan in (montecarlo._chunks(512, 1e4, 10), montecarlo._chunks(512, 1e4, 100, 101)):
            assert list(map(len, plan)) == [64] * 8

    def test_tall_thin_clouds_count_their_rows(self):
        # x = 0.01, t = 1e6: 1e4 points in 1e6 + 1 rows, whose row sizes,
        # layout and sinks outweigh the keys: one replica a chunk
        assert montecarlo._replica_bytes(1e4, 0.01, 1e6 + 1) > montecarlo._CHUNK_BYTES
        assert len(montecarlo._chunks(1000, 1e4, 0.01, 1e6 + 1)) == 1000

    def test_rejected_geometries_plan_no_chunks(self):
        # the geometry is checked before the plan, so a rejected one costs
        # nothing however many replicas it asks for
        calls = [
            (lambda: estimate_poissonized(math.inf, 1, 1.0, "weak", 10**6, 0),
             "x and lam must be positive"),
            (lambda: estimate_poissonized(1.0, 1, math.nan, "weak", 10**6, 0),
             "x and lam must be positive"),
            (lambda: estimate_poissonized(1.0, 1, math.inf, "weak", 10**6, 0),
             "x and lam must be positive"),
            (lambda: estimate_poissonized(1.0, -5, 1.0, "weak", 10**6, 0), "t must be >= 1"),
            (lambda: stationarity_test(math.nan, 1.0, 2.0, "weak", 0, 10**6, 0),
             "x and lam must be positive"),
            (lambda: stationarity_test(1.0, 1.0, 2.0, "weak", -1, 10**6, 0), "t must be >= 1"),
            (lambda: stationarity_test(1.0, 1.0, 2.0, "weak", 0, 10**6, 0), "t must be >= 1"),
            (lambda: estimate_poissonized(1.0, 2.5, 1.0, "weak", 10**6, 0),
             "^t must be an integer, got t=2.5$"),
            (lambda: stationarity_test(1.0, 1.0, 1.0, "strict", 2.5, 10**6, 0),
             "^t must be an integer, got t=2.5$"),
            (lambda: estimate_mean_subsequence(3, 2.0, "strict", 10**6, 0),
             "^n and k must be positive integers, got n=3, k=2.0$"),
        ]
        with mock.patch.object(montecarlo, "_chunks") as chunks:
            for call, message in calls:
                with pytest.raises(ValueError, match=message):
                    call()
        chunks.assert_not_called()

    def test_plan_does_not_depend_on_parallelism(self, monkeypatch):
        plans = {}
        real = montecarlo._parallel_map
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 3000)
        for jobs in (1, 2):
            seen = plans[jobs] = []
            monkeypatch.setattr(montecarlo, "_parallel_map", lambda fn, argses, workers: (
                seen.append([list(a[1]) for a in argses]) or real(fn, argses, workers)))
            estimate_mean_subsequence(10, 3, "strict", 40, 70, jobs)
            estimate_poissonized(6.0, 12, 1.0, "weak", 40, 70, jobs)
            stationarity_test(5.0, 1.0, 1.0, "strict", 12, 23, 70, jobs)
        assert plans[1] == plans[2]
        assert [len(plan) for plan in plans[1]] == [5, 40, 23]


def _peak_traced_bytes(run, args) -> int:
    run(args)  # once untraced, so that first-call caches are not counted
    tracemalloc.start()
    try:
        run(args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestChunkMemory:
    """The lean key layout: a chunk's peak memory grows by at most 12 bytes a
    point (8-byte keys in one buffer, the slab, one row gathered at a time),
    whatever its size.  A layout with chunk-wide int64 index arrays took
    about 28."""

    # both orders: a strict row with more points than live cells steps from
    # the particle side, whose per-row arrays must fit the bound too
    @pytest.mark.parametrize("order, rates", [
        pytest.param("weak", None, id="None"),
        pytest.param("weak", BoundaryRates.weak_from_beta(1.0, 2.0), id="rates1"),
        pytest.param("strict", None, id="strict-None"),
        pytest.param("strict", BoundaryRates.strict_from_alpha(1.0, 1.0), id="strict-rates1"),
    ])
    def test_poisson_chunk(self, order, rates):
        x, t, lam = 50.0, 50, 1.0
        points = x * t * lam + (x * rates.source_rate if rates else 0.0)
        args = lambda reps: (7, range(reps), x, t, lam, order, 3, rates)
        small = _peak_traced_bytes(montecarlo._poisson_chunk, args(4))
        large = _peak_traced_bytes(montecarlo._poisson_chunk, args(40))
        assert large - small <= 12 * 36 * points

    def test_tall_thin_chunk_within_the_budget(self, monkeypatch):
        # x = 0.01, t = 5000: about 50 points in 5001 rows a replica, whose
        # row sizes, layout and sinks outweigh the keys; what the replicas of
        # a planned chunk add to one replica's peak stays within the budget,
        # and what each adds beyond its planned keys and slab within the
        # planner's 40 bytes a row (31.9 measured, 24.3 with the boundary)
        x, t, lam = 0.01, 5000, 1.0
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 20)
        for rates in (None, BoundaryRates.weak_from_beta(1.0, 2.0)):
            planned = []
            monkeypatch.setattr(montecarlo, "_parallel_map", lambda fn, argses, jobs: (
                planned.extend(argses) or [np.zeros((2, 0))]))
            montecarlo._poisson_counts(x, t, lam, "weak", 16, 7, 1, 3, rates)
            args = planned[0]
            reps = len(args[1])
            assert reps >= 2
            one = _peak_traced_bytes(montecarlo._poisson_chunk, (args[0], range(1), *args[2:]))
            full = _peak_traced_bytes(montecarlo._poisson_chunk, args)
            assert full - one <= montecarlo._CHUNK_BYTES
            keys, row, chain = montecarlo._expected_keys(x, t, lam, rates)
            rest = montecarlo._replica_bytes(keys, row, 0, 8, chain)
            assert montecarlo._replica_bytes(keys, row, t + 1, 8, chain) - rest == (
                pytest.approx(40 * (t + 1)))
            assert (full - one) / (reps - 1) - rest <= 40 * (t + 1)

    def test_sink_units_count_in_the_plan(self, monkeypatch):
        # a weak source rate a hair above lam draws about 1e6 sink units a
        # row, 3e6 keys a replica: each replica is planned alone, as one
        # replica over the budget.  Planned only, never run.
        x, lam, rate, t, reps = 1.0, 1.0, 1.0 + 1e-6, 3, 64
        planned = []
        monkeypatch.setattr(montecarlo, "_parallel_map", lambda fn, argses, jobs: (
            planned.extend(argses) or [np.zeros((2, len(a[1])), np.int64) for a in argses]))
        stationarity_test(x, lam, rate, "weak", t, reps, 0)
        rates = planned[0][-1]
        keys, row, chain = montecarlo._expected_keys(x, t, lam, rates)
        assert keys > 2.9e6 and row > 0.9e6
        per = montecarlo._replica_bytes(keys, row, t + 1, 8, chain)
        assert per > montecarlo._CHUNK_BYTES
        assert [list(a[1]) for a in planned] == [[r] for r in range(reps)]

    # every sink unit stays in the chain: about t of them a replica at
    # x = 0.01, t = 5000, beta = 2, and 20 t at x = 1, t = 200, beta = 1.05,
    # where 2 sqrt(keys) planned 573 and 603 slab cells a replica
    SINK_HEAVY = [(0.01, 5000, 2.0), (1.0, 200, 1.05)]

    @pytest.mark.parametrize("x, t, beta", SINK_HEAVY)
    def test_sink_heavy_chains_plan_their_slab(self, monkeypatch, x, t, beta):
        # planned only, never run
        planned = []
        monkeypatch.setattr(montecarlo, "_parallel_map", lambda fn, argses, jobs: (
            planned.extend(argses) or [np.zeros((2, len(a[1])), np.int64) for a in argses]))
        stationarity_test(x, 1.0, beta, "weak", t, 64, 0)
        rates = planned[0][-1]
        keys, row, chain = montecarlo._expected_keys(x, t, 1.0, rates)
        p = rates.sink_param
        assert chain == pytest.approx(x * beta + t * p / (1 - p))
        assert chain > 25 * 2 * math.sqrt(keys)
        # a chunk of replicas, each with 4 (chain + row) slab cells, fits the budget
        size = max(len(a[1]) for a in planned)
        assert size * montecarlo._replica_bytes(keys, row, t + 1, 8, chain) <= (
            montecarlo._CHUNK_BYTES)

    @pytest.mark.parametrize("x, t, beta", SINK_HEAVY)
    def test_sink_heavy_slab_within_its_planned_cells(self, monkeypatch, x, t, beta):
        widths = []

        class Recording:  # numpy, with the width of every 2-d array it repeats or joins
            def __getattr__(self, name):
                return getattr(np, name)

            def repeat(self, *args, **kwargs):
                return self.record(np.repeat(*args, **kwargs))

            def concatenate(self, *args, **kwargs):
                return self.record(np.concatenate(*args, **kwargs))

            @staticmethod
            def record(out):
                if out.ndim == 2:
                    widths.append(out.shape[1])
                return out

        rates = BoundaryRates.weak_from_beta(1.0, beta)
        keys, row, chain = montecarlo._expected_keys(x, t, 1.0, rates)
        monkeypatch.setattr(hammersley, "np", Recording())
        montecarlo._poisson_chunk((7, range(4), x, t, 1.0, "weak", 3, rates))
        assert max(widths) > 4 * (2 * math.sqrt(keys) + row)  # what 2 sqrt(keys) planned
        assert max(widths) <= 4 * (chain + row)

    def test_word_chunk(self):
        n, k = 100, 20
        args = lambda reps: (7, range(reps), n, k, "strict")
        small = _peak_traced_bytes(montecarlo._word_chunk, args(4))
        large = _peak_traced_bytes(montecarlo._word_chunk, args(40))
        assert large - small <= 12 * 36 * n * k


class TestReportJson:
    def test_non_finite_values_are_null(self):
        with np.errstate(invalid="ignore"):  # the spread of inf and 1 is NaN
            rep = montecarlo.EstimateReport.from_values(
                np.asarray([math.inf, 1.0]), 3, {"x": math.nan, "n": 2}, predicted=math.inf)

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        data = json.loads(rep.to_json("estimate"), parse_constant=reject)
        assert data["mean"] is None and data["stderr"] is None
        assert data["predicted"] is None and data["params"] == {"x": None, "n": 2}
        assert data["reps"] == 2 and data["command"] == "estimate"

    def test_numpy_integer_counts_serialize(self):
        # the counts and the seed are held as int where they enter
        n, k, t, seed = np.int64(3), np.int32(2), np.int64(4), np.int64(5)
        pairs = [(estimate_mean_subsequence(n, k, "strict", 4, seed),
                  estimate_mean_subsequence(3, 2, "strict", 4, 5)),
                 (estimate_poissonized(1.0, t, 1.0, "weak", 4, seed),
                  estimate_poissonized(1.0, 4, 1.0, "weak", 4, 5))]
        for numpy_rep, int_rep in pairs:
            assert numpy_rep.to_json("estimate") == int_rep.to_json("estimate")

    def test_numpy_float32_geometry_serializes(self):
        # mean_bound returns a float32 for float32 input; the report holds floats
        rep = estimate_poissonized(np.float32(4.0), 4, np.float32(1.0), "weak", 4, 0)
        same = estimate_poissonized(4.0, 4, 1.0, "weak", 4, 0)
        assert rep.to_json("estimate") == same.to_json("estimate")
        assert {type(v) for v in (rep.params["x"], rep.params["lam"], rep.predicted)} == {float}


class TestEstimatePoissonized:
    @pytest.mark.statistical
    def test_weak_mean_below_bound(self):
        rep = estimate_poissonized(1.0, 4, 1.0, "weak", 400, seed=54)
        assert rep.predicted == pytest.approx(5.0)
        assert rep.mean <= rep.predicted + 4 * rep.stderr

    @pytest.mark.statistical
    def test_strict_mean_below_bound(self):
        rep = estimate_poissonized(10.0, 40, 1.0, "strict", 300, seed=55)
        assert rep.mean <= rep.predicted + 4 * rep.stderr

    def test_tiny_intensity_gives_tiny_mean(self):
        rep = estimate_poissonized(1.0, 4, 1e-4, "weak", 100, seed=56)
        assert rep.mean < 0.2

    @pytest.mark.parametrize("order", ["strict", "weak"])
    def test_underflowing_geometry_predicts_nothing(self, order):
        # x*lam and x*t*lam round to 0: the first-order value would be 0.0,
        # which no relative error can be taken against
        rep = estimate_poissonized(1e-320, 1, 1e-300, order, 2, seed=0)
        assert rep.predicted is None and rep.rel_error is None
        assert (rep.mean, rep.stderr) == (0.0, 0.0)

    def test_outside_the_domain_predicts_nothing(self):
        # t < x*lam: the first-order value does not apply, and the mean still runs
        for order in ("strict", "weak"):
            rep = estimate_poissonized(10.0, 5, 1.0, order, 10, seed=0)
            assert rep.predicted is None and rep.rel_error is None
            assert rep.reps == 10 and rep.mean > 0

    @pytest.mark.parametrize("order", ["strict", "weak"])
    def test_parallelism_is_result_invariant(self, monkeypatch, order):
        # a small budget gives several chunks to spread over the workers
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 3000)
        serial = estimate_poissonized(6.0, 12, 1.0, order, 40, seed=68, parallelism=1)
        parallel = estimate_poissonized(6.0, 12, 1.0, order, 40, seed=68, parallelism=2)
        assert serial == parallel


class FakePool:
    """Stands in for ProcessPoolExecutor, which `_parallel_map` imports from
    concurrent.futures when it starts a pool: records the worker count and
    maps in this process, so no process is started."""

    started: list = []

    def __init__(self, max_workers):
        FakePool.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, argses, chunksize=1):
        return map(fn, argses)


class TestParallelMap:
    # an unknown cpu count (None) runs in this process
    @pytest.mark.parametrize("jobs, cpus, tasks, workers", [
        (10_000, 2, 50, 2), (3, 8, 50, 3), (64, 16, 5, 5), (8, None, 50, None)])
    def test_workers_capped_by_cpus_and_tasks(self, monkeypatch, jobs, cpus, tasks, workers):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: cpus)
        FakePool.started = []
        out = montecarlo._parallel_map(abs, list(range(-tasks, 0)), jobs)
        assert out == list(range(tasks, 0, -1))
        assert FakePool.started == ([workers] if workers else [])

    def test_one_task_runs_in_process(self, monkeypatch):
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        FakePool.started = []
        assert montecarlo._parallel_map(abs, [-3], 8) == [3]
        assert FakePool.started == []

    def test_real_pool_gives_the_serial_bytes(self, monkeypatch):
        # two CPUs on any host, and chunks of at most 16 replicas: each
        # call's 40 replicas make 3 chunks, which a real pool of 2 runs
        started = []

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        def runs(parallelism):
            words = [estimate_mean_subsequence(6, 2, order, 40, 70, parallelism)
                     for order in ("strict", "weak")]
            clouds = [estimate_poissonized(4.0, 6, 1.0, order, 40, 70, parallelism)
                      for order in ("strict", "weak")]
            tests = [dataclasses.astuple(stationarity_test(4.0, 1.0, rate, variant, 6, 40, 70,
                                                           parallelism))
                     for variant, rate in (("strict", 1.0), ("weak", 2.0))]
            return words, clouds, tests

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_CHUNK_REPS", 16)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
        serial = runs(1)
        assert started == []
        parallel = runs(2)
        assert started == [2] * 6
        assert serial[:2] == parallel[:2]
        for one, two in zip(serial[2], parallel[2]):
            assert one[:-1] == two[:-1]  # the fields, p-value bits included
            assert one[-1].tolist() == two[-1].tolist()  # the counts


class TestReplicaBounds:
    def test_reps_above_stream_block_rejected(self):
        # checked at entry, before any replica runs
        too_many = 2**32 + 1
        calls = [
            lambda: estimate_mean_subsequence(2, 2, "strict", too_many, seed=0),
            lambda: estimate_poissonized(1.0, 4, 1.0, "weak", too_many, seed=0),
            lambda: stationarity_test(1.0, 1.0, 1.0, "strict", 2, too_many, seed=0),
            lambda: deviation_profile(1.0, 4, 1.0, "weak", [0.5], too_many, seed=0),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="reps must be <= 2\\*\\*32"):
                call()

    def test_a_cloud_past_int32_names_its_sizes(self):
        # a source rate a hair above lam draws Geometric(1e-9) sinks, about
        # 1e9 sink units a row, more than the 2**32 keys a cloud may hold in
        # three rows: the error gives the cloud's points, sources and sink
        # units, replica 0's as its stream draws them
        rates = BoundaryRates.weak_from_beta(1.0, 1.0 + 1e-9)
        rng = make_rng(0, montecarlo._TAG_STATIONARY << 32)
        cloud = sample_poisson_cloud(1.0, 3, 1.0, rng)
        boundary = sample_boundary(1.0, 3, rates, rng)
        assert boundary.total_sinks >= 1 << 32
        message = (f"^a cloud of 2\\*\\*32 keys or more cannot be keyed: "
                   f"{cloud.size} points, {boundary.sources.size} sources and "
                   f"{boundary.total_sinks} sink units$")
        with pytest.raises(ValueError, match=message):
            stationarity_test(1.0, 1.0, 1.0 + 1e-9, "weak", 3, 5, 0)

    def test_reps_must_be_an_integer(self):
        for reps in (4.0, 2.5, "4"):
            with pytest.raises(ValueError, match=f"^reps must be an integer, got reps={reps}$"):
                estimate_mean_subsequence(3, 2, "strict", reps, 0)
        # a numpy integer is one, and draws the same streams
        assert (estimate_mean_subsequence(3, 2, "strict", np.int64(4), np.uint64(0))
                == estimate_mean_subsequence(3, 2, "strict", 4, 0))


class TestStationarity:
    @pytest.mark.statistical
    def test_strict_counts_stationary(self):
        rep = stationarity_test(x=20.0, lam=1.0, source_rate=1.0, variant="strict",
                                t=100, reps=600, seed=57)
        assert rep.target_mean == 20.0
        assert abs(rep.z_mean) < 4.0
        assert abs(rep.z_var) < 4.0
        assert rep.p_value > P_FOUR_SIGMA

    @pytest.mark.statistical
    def test_weak_counts_stationary(self):
        rep = stationarity_test(x=10.0, lam=1.0, source_rate=2.0, variant="weak",
                                t=100, reps=500, seed=58)
        assert rep.target_mean == 20.0
        assert abs(rep.z_mean) < 4.0
        assert rep.p_value > P_FOUR_SIGMA

    # pinned before the cloud keys took one rule; the 20 replicas at
    # x = t = 100 hold 7 (strict) and 8 (weak) points and sources below
    # x_max * 2**-14, which were ranked until every drawn point keyed by
    # its float bits
    @pytest.mark.parametrize("variant, rate, counts", [
        ("strict", 0.5, [42, 49, 44, 43, 52, 54, 40, 51, 67, 54,
                         45, 43, 52, 47, 48, 54, 54, 41, 44, 49]),
        ("weak", 1.5, [154, 161, 146, 123, 166, 148, 144, 159, 141, 148,
                       159, 150, 157, 135, 135, 155, 161, 154, 154, 134]),
    ])
    def test_counts_are_pinned(self, variant, rate, counts):
        rep = stationarity_test(100.0, 1.0, rate, variant, 100, 20, 7)
        assert rep.counts.tolist() == counts

    def test_no_bin_reaches_five_expected(self):
        # 3 replicas of mean 0.005: the bins merge into one, tested on 1 dof
        rep = stationarity_test(0.01, 1.0, 0.5, "strict", 1, 3, 0)
        assert (rep.chi2_dof, rep.chi2_stat, rep.p_value) == (1, 0.0, 1.0)


# Run in a fresh interpreter: conftest imports scipy.stats into this one.
COLD_START = """
import json, sys
import ulam, ulam.cli
from ulam.montecarlo import stationarity_test
rep = stationarity_test(10.0, 1.0, 1.0, "strict", 20, 50, 3)
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
print(json.dumps({"loaded": loaded, "p_value": rep.p_value.hex(),
                  "chi2_stat": rep.chi2_stat.hex(), "counts": rep.counts.tolist()}))
"""


# Run in a fresh interpreter; it prints with repr, since json is one of the
# modules it looks for.
COLD_IMPORTS = """
import sys
from ulam import (depoissonization_report, deviation_profile, estimate_mean_subsequence,
                  estimate_poissonized, stationarity_test)
estimate_mean_subsequence(6, 2, "strict", 4, 0)
estimate_poissonized(4.0, 6, 1.0, "weak", 4, 0)
stationarity_test(4.0, 1.0, 1.0, "strict", 6, 4, 0)
deviation_profile(4.0, 6, 1.0, "strict", [0.5], 4, 0, augmented=True)
depoissonization_report(6, 2, 4, 0)
print(repr(sorted(sys.modules)))
import ulam.cli
print(repr(sorted(sys.modules)))
"""


class TestColdStart:
    @staticmethod
    def fresh(code: str) -> subprocess.CompletedProcess:
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, env={**os.environ, "PYTHONPATH": path})

    def test_serial_calls_load_no_pool_fractions_or_json(self):
        # the pool, Fraction and json are imported where they are used:
        # a multi-worker run, an exact mean, a report written as JSON
        library, cli = map(ast.literal_eval, self.fresh(COLD_IMPORTS).stdout.splitlines())
        heavy = {"concurrent.futures", "multiprocessing", "fractions", "decimal", "json"}
        assert heavy.isdisjoint(library)
        assert {"concurrent.futures", "multiprocessing"}.isdisjoint(cli)
        assert "json" in cli  # the CLI writes its manifests

    def test_no_scipy_even_after_the_stationarity_test(self):
        child = json.loads(self.fresh(COLD_START).stdout)
        assert child["loaded"] == []
        rep = stationarity_test(10.0, 1.0, 1.0, "strict", 20, 50, 3)
        assert child["p_value"] == rep.p_value.hex()
        assert child["chi2_stat"] == rep.chi2_stat.hex()
        assert child["counts"] == rep.counts.tolist()


class TestDeviationProfile:
    def test_upper_freq_non_increasing_in_eps(self):
        # nested events, so monotonicity is exact, not statistical
        prof = deviation_profile(30.0, 30, 1.0, "strict", [0.02, 0.1, 0.3, 0.6],
                                 reps=200, seed=60)
        assert all(a >= b for a, b in zip(prof.upper_freq, prof.upper_freq[1:]))

    def test_bound_column(self):
        prof = deviation_profile(30.0, 60, 1.0, "strict", [0.2], reps=50, seed=61)
        scale = math.sqrt(30 * 60) - 30
        assert prof.bound_upper[0] == pytest.approx(
            min(1.0, 2 * math.exp(-(0.04 / 12) * scale)))
        weak = deviation_profile(30.0, 60, 1.0, "weak", [0.2], reps=50, seed=61)
        assert math.isnan(weak.bound_upper[0])

    @pytest.mark.statistical
    def test_doubling_geometry_concentrates(self):
        eps = [0.02, 0.05]
        small = deviation_profile(50.0, 50, 1.0, "strict", eps, reps=500, seed=62)
        big = deviation_profile(100.0, 100, 1.0, "strict", eps, reps=500, seed=63)
        for f_small, f_big in zip(small.upper_freq, big.upper_freq):
            slack = 4 * math.sqrt(max(f_small, 1e-3) / 500)
            assert f_big <= f_small + slack

    @pytest.mark.statistical
    def test_augmented_exceedance_below_explicit_bound(self):
        # boundary-augmented statistic at the optimal rates, where the
        # exponential bound is explicit; geometry keeps the bound below 1
        prof = deviation_profile(100.0, 400, 1.0, "strict", [0.5], reps=200,
                                 seed=64, augmented=True)
        bound = prof.bound_upper[0]
        assert bound < 1.0
        slack = 4 * math.sqrt(bound * (1 - bound) / prof.reps)
        assert prof.upper_freq[0] <= bound + slack

    def test_reps_validation(self):
        for reps in (0, 1):
            with pytest.raises(ValueError, match="reps must be >= 2"):
                deviation_profile(10.0, 20, 1.0, "strict", [0.5], reps=reps, seed=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            deviation_profile(10.0, 20, 1.0, "strict", [0.5, 0.2], reps=10, seed=0)
        with pytest.raises(ValueError):
            deviation_profile(10.0, 20, 1.0, "strict", [1.5], reps=10, seed=0)
        with pytest.raises(ValueError, match="requires t >= x\\*lam"):
            deviation_profile(10.0, 5, 1.0, "strict", [0.5], reps=10, seed=0)
        with pytest.raises(ValueError, match="need t > x\\*lam for a positive source rate"):
            deviation_profile(10.0, 10, 1.0, "strict", [0.5], reps=10, seed=0, augmented=True)

    def test_outside_the_domain_fails_before_any_replica(self, monkeypatch):
        calls = []
        monkeypatch.setattr(montecarlo, "make_rng", lambda *a: calls.append(a))
        for order in ("strict", "weak"):
            for augmented in (False, True):
                with pytest.raises(ValueError, match="^requires t >= x\\*lam$"):
                    deviation_profile(10.0, 5, 1.0, order, [0.5], 10, 0, augmented=augmented)
        assert calls == []


def boundary_rates(variant: str, rate: float) -> BoundaryRates:
    return (BoundaryRates.strict_from_alpha if variant == "strict"
            else BoundaryRates.weak_from_beta)(1.0, rate)


def scalar_replica(seed: int, tag: int, r: int, x: float, t: int, rates) -> tuple[int, int]:
    """Particle count and total sinks of one replica through `run_process`,
    the scalar path that shares no code with the slab."""
    run = run_process(x, t, 1.0, rates.variant, rates, make_rng(seed, (tag << 32) | r))
    return run.state.count, run.boundary.total_sinks


EPS = [0.01 * i for i in range(1, 40)]  # a fine grid pins the whole sample


class TestBoundaryEstimators:
    """`stationarity_test` and the augmented `deviation_profile` run on the
    slab, one stream per replica as `run_process` draws it."""

    @pytest.mark.parametrize("seed", [3, 70, 2**40])
    def test_stationarity_equals_run_process(self, seed):
        for variant, rate in (("strict", 0.7), ("weak", 1.6)):
            rep = stationarity_test(6.0, 1.0, rate, variant, 25, 30, seed)
            rates = boundary_rates(variant, rate)
            expected = [scalar_replica(seed, 3, r, 6.0, 25, rates)[0] for r in range(30)]
            assert rep.counts.tolist() == expected
            assert rep.mean == float(np.mean(expected))

    @pytest.mark.parametrize("seed", [4, 71, 2**40])
    def test_augmented_profile_equals_run_process(self, seed):
        for order in ("strict", "weak"):
            prof = deviation_profile(10.0, 40, 1.0, order, EPS, 40, seed, augmented=True)
            rates, _ = (optimal_rates_strict if order == "strict"
                        else optimal_rates_weak)(10.0, 40, 1.0)
            vals = np.asarray([sum(scalar_replica(seed, 4, r, 10.0, 40, rates))
                               for r in range(40)])
            assert prof.upper_freq == tuple(float(np.mean(vals > (1 + e) * prof.center))
                                            for e in EPS)
            assert prof.lower_freq == tuple(float(np.mean(vals < (1 - e) * prof.center))
                                            for e in EPS)
            assert any(prof.upper_freq) and any(prof.lower_freq)

    @staticmethod
    def reports(parallelism: int = 1):
        profiles = [deviation_profile(5.0, 12, 1.0, order, EPS, 23, 8, parallelism,
                                      augmented=True) for order in ("strict", "weak")]
        return ([stationarity_test(5.0, 1.0, rate, variant, 12, 23, 8, parallelism).counts
                 for variant, rate in (("strict", 1.0), ("weak", 2.0))],
                [(p.upper_freq, p.lower_freq, p.bound_upper) for p in profiles])

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=32_000))
    def test_any_chunking(self, budget):
        # 5 * 12 + 5 or 10 = 65 or 70 expected points in 13 rows, 1226 or
        # 1336 bytes, per replica: from one replica a chunk to one chunk of
        # all 23
        whole = self.reports()
        with mock.patch.object(montecarlo, "_CHUNK_BYTES", budget):
            split = self.reports()
        assert all(np.array_equal(a, b) for a, b in zip(whole[0], split[0]))
        assert whole[1] == split[1]

    def test_parallelism_is_result_invariant(self, monkeypatch):
        serial = self.reports(1)
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 2000)  # several chunks
        parallel = self.reports(2)
        assert all(np.array_equal(a, b) for a, b in zip(serial[0], parallel[0]))
        assert serial[1] == parallel[1]

    def test_bad_rates_fail_before_any_replica(self, monkeypatch):
        calls = []
        real = montecarlo.make_rng
        monkeypatch.setattr(montecarlo, "make_rng", lambda *a: calls.append(a) or real(*a))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        FakePool.started = []
        with pytest.raises(ValueError, match="beta > lam"):
            stationarity_test(5.0, 1.0, 0.5, "weak", 10, 20, seed=1, parallelism=2)
        with pytest.raises(ValueError, match="must be positive"):
            stationarity_test(5.0, 1.0, -1.0, "strict", 10, 20, seed=1, parallelism=2)
        assert calls == [] and FakePool.started == []

    def test_chi_square_matches_scipy(self):
        # the log-space pmf and tail give the chi-square of scipy's
        for variant, rate in (("strict", 1.0), ("weak", 2.0)):
            rep = stationarity_test(7.0, 1.0, rate, variant, 3, 25, seed=9)
            assert rep.chi2_dof > 1
            with mock.patch.object(montecarlo, "_log_poisson_pmf",
                                   lambda mu, j: stats.poisson.logpmf(j, mu)), \
                    mock.patch.object(montecarlo, "log_chi2_upper", stats.chi2.logsf):
                stat, dof, p = montecarlo._poisson_chi_square(rep.counts, rep.target_mean)
            assert dof == rep.chi2_dof
            assert rep.chi2_stat == pytest.approx(stat, rel=1e-12)
            assert rep.p_value == pytest.approx(p, rel=1e-12)


class TestDepoissonization:
    @pytest.mark.statistical
    def test_matched_geometry_within_budget(self):
        rep = depoissonization_report(100, 4, reps=300, seed=65)
        assert rep.poissonized.params == {"x": 4.0, "t": 100, "lam": 1.0,
                                          "order": "strict"}
        assert rep.within_budget

    @pytest.mark.statistical
    def test_k_one_agreement(self):
        rep = depoissonization_report(400, 1, reps=300, seed=66)
        tight = 6 * 400 ** 0.25 + 4 * (rep.word.stderr + rep.poissonized.stderr)
        assert rep.diff <= tight

    def test_report_only_for_comparable_k(self):
        rep = depoissonization_report(50, 50, reps=50, seed=67)
        assert rep.diff >= 0 and rep.budget > 0  # informative only, no verdict

    @pytest.mark.parametrize("n, k", [(3, 5)])
    def test_runs_outside_the_domain(self, n, k):
        # for k > n neither first-order value applies
        rep = depoissonization_report(n, k, reps=4, seed=69)
        assert rep.poissonized.predicted is None
        assert rep.word.predicted is None
        assert rep.diff >= 0 and rep.budget > 0

    def test_predicts_at_k_equal_n(self):
        # the matched x*lam is k exactly, so at k = n both estimates predict;
        # 93 is the least n at which float(n*n) * (1/n) rounds above n
        rep = depoissonization_report(93, 93, reps=4, seed=69)
        assert rep.poissonized.params["x"] * rep.poissonized.params["lam"] == 93
        assert rep.word.predicted == 2 * math.sqrt(93 * 93) - 93
        assert rep.poissonized.predicted == rep.word.predicted
        assert rep.diff >= 0 and rep.budget > 0
