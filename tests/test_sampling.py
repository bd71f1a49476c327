import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (assert_cellwise_four_sigma, assert_chi_square_pmf, assert_within_sigma,
                      cloud_from_rows)
from ulam import montecarlo
from ulam.bounds import BoundaryRates
from ulam.cli import main
from ulam.sampling import (_POISSON_MAX, BoundarySample, MultisetWord, PlanarPointSet,
                           _uniform_positions, make_rng, sample_boundary,
                           sample_poisson_cloud, sample_uniform_multiset_permutation,
                           sample_uniform_permutation)


def per_row_cloud(x, t, lam, rng):
    """The cloud sampler as one draw per row: the reference for the
    single-draw sampler."""
    counts = rng.poisson(lam * x, size=t)
    return [_uniform_positions(rng, int(c), x) for c in counts]


class QuantizedRng:
    """A generator whose uniforms sit on a grid of 64 values, so rows hold
    exact duplicates; it shares the stream state of the generator it wraps."""

    def __init__(self, rng):
        self.rng = rng
        self.bit_generator = rng.bit_generator
        self.random_calls = 0

    def poisson(self, *args, **kwargs):
        return self.rng.poisson(*args, **kwargs)

    def random(self, size):
        self.random_calls += 1
        return np.floor(self.rng.random(size) * 64) / 64


class TestRngStream:
    def test_determinism(self):
        a = make_rng(42, 0).random(1000)
        b = make_rng(42, 0).random(1000)
        assert a.tobytes() == b.tobytes()

    def test_stream_separation(self):
        a = make_rng(42, 0).random(1000)
        b = make_rng(42, 1).random(1000)
        assert a.tobytes() != b.tobytes()

    def test_portability_frozen_values(self):
        # counter-based generator keyed by a pure hash: the same draws must
        # appear on every platform and run
        rng = make_rng(7, 3)
        assert rng.integers(0, 2**63, size=4).tolist() == [
            7414812004628069037, 7480634498974966656,
            5089634763947977407, 5251556803951329585,
        ]

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            make_rng(-1, 0)

    def test_seed_and_stream_id_must_be_integers(self):
        for seed, stream_id in ((1.5, 0), (0, 2.0), ("3", 0)):
            with pytest.raises(ValueError, match=f"^seed and stream_id must be integers, "
                                                 f"got seed={seed}, stream_id={stream_id}$"):
                make_rng(seed, stream_id)
        # a numpy integer is one, and keys the same stream
        assert (make_rng(np.int64(7), np.uint64(3)).random(4).tobytes()
                == make_rng(7, 3).random(4).tobytes())

    def test_seed_and_stream_id_below_2_64(self):
        # masked to 64 bits, 2**64 would replay the stream of 0
        make_rng(2**64 - 1, 2**64 - 1)
        for seed, stream_id in ((2**64, 0), (0, 2**64), (2**70, 3)):
            with pytest.raises(ValueError, match="below 2\\*\\*64"):
                make_rng(seed, stream_id)

    def test_sample_serialization_roundtrip(self):
        w1 = sample_uniform_multiset_permutation(6, 3, make_rng(9, 4))
        w2 = sample_uniform_multiset_permutation(6, 3, make_rng(9, 4))
        assert w1.letters.tolist() == w2.letters.tolist()
        c1 = sample_poisson_cloud(5.0, 4, 1.0, make_rng(9, 5))
        c2 = sample_poisson_cloud(5.0, 4, 1.0, make_rng(9, 5))
        assert c1.xs.tobytes() == c2.xs.tobytes()
        assert c1.offsets.tolist() == c2.offsets.tolist()


class TestWordSampling:
    def test_single_permutation(self):
        assert sample_uniform_permutation(1, make_rng(0)).letters.tolist() == [1]

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            sample_uniform_permutation(0, make_rng(0))
        with pytest.raises(ValueError):
            sample_uniform_multiset_permutation(2, 0, make_rng(0))

    def test_letter_count_past_int64_rejected(self, capsys):
        # n*k letters must fit numpy's int64 count; a numpy product would wrap
        for n, k in ((2, 10**20), (3037000500, 3037000500), (np.int64(2**62), np.int64(2))):
            with pytest.raises(ValueError, match=f"^n\\*k must be below 2\\*\\*63, "
                                                 f"got n={n}, k={k}$"):
                sample_uniform_multiset_permutation(n, k, make_rng(0))
        assert main(["sample", "--n", "2", "--k", str(10**20), "--count", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == ("domain error: n*k must be below 2**63, "
                                     "got n=2, k=100000000000000000000\n")

    def test_permutation_contains_each_letter(self):
        w = sample_uniform_permutation(4, make_rng(3))
        assert sorted(w.letters) == [1, 2, 3, 4]

    def test_unique_multiset_word(self):
        word = sample_uniform_multiset_permutation(1, 3, make_rng(0))
        assert word.letters.tolist() == [1, 1, 1]

    def test_multiset_invariants(self):
        w = sample_uniform_multiset_permutation(5, 2, make_rng(11))
        assert len(w.letters) == 10
        assert all(w.letters.tolist().count(v) == 2 for v in range(1, 6))

    @pytest.mark.statistical
    def test_permutation_uniform(self):
        import itertools
        rng = make_rng(100)
        index = {p: i for i, p in enumerate(itertools.permutations((1, 2, 3)))}
        counts = np.zeros(6)
        for _ in range(60000):
            counts[index[tuple(sample_uniform_permutation(3, rng).letters.tolist())]] += 1
        assert_cellwise_four_sigma(counts, np.full(6, 1 / 6), "3-permutations")

    @pytest.mark.statistical
    def test_multiset_word_uniform(self):
        import itertools
        rng = make_rng(101)
        words = sorted(set(itertools.permutations((1, 1, 2, 2))))
        index = {w: i for i, w in enumerate(words)}
        counts = np.zeros(6)
        for _ in range(60000):
            word = sample_uniform_multiset_permutation(2, 2, rng)
            counts[index[tuple(word.letters.tolist())]] += 1
        assert_cellwise_four_sigma(counts, np.full(6, 1 / 6), "(2,2)-words")


class TestPoissonCloud:
    def test_rejects_bad_params(self):
        rng = make_rng(0)
        for bad in [(-1, 1, 1), (1, 1, -2), (1, 0, 1)]:
            with pytest.raises(ValueError):
                sample_poisson_cloud(*bad, rng)

    @pytest.mark.parametrize("x, t, lam", [(100.0, 100, 1.0), (1.0, 1, 1.0),
                                           (0.5, 6, 1.0), (2.0, 3, 0.3)])
    def test_single_draw_matches_per_row_draws(self, x, t, lam):
        # the tiny geometries give t = 1 and rows with 0 or 1 point
        for seed in range(200):
            rng, ref = make_rng(seed, 9), make_rng(seed, 9)
            cloud = sample_poisson_cloud(x, t, lam, rng)
            rows = per_row_cloud(x, t, lam, ref)
            assert cloud.t_max == t
            assert all(cloud.row(i).tobytes() == b.tobytes()
                       for i, b in enumerate(rows, start=1))
            # both leave the stream at the same place
            assert rng.random() == ref.random()

    def test_duplicate_draw_replays_per_row_stream(self):
        replayed = 0
        for seed in range(40):
            rng = QuantizedRng(make_rng(seed, 10))
            ref = QuantizedRng(make_rng(seed, 10))
            cloud = sample_poisson_cloud(1.0, 5, 4.0, rng)
            rows = per_row_cloud(1.0, 5, 4.0, ref)
            assert all(cloud.row(i).tobytes() == b.tobytes()
                       for i, b in enumerate(rows, start=1))
            assert rng.rng.random() == ref.rng.random()
            replayed += rng.random_calls > 1
        assert replayed > 0

    def test_rows_sorted_in_range(self):
        cloud = sample_poisson_cloud(3.0, 3, 5.0, make_rng(8))
        for row in map(cloud.row, range(1, cloud.t_max + 1)):
            assert np.all(row > 0) and np.all(row <= 3.0)
            assert np.all(np.diff(row) > 0)

    def test_rejects_nan_and_infinite_params(self):
        # checked at entry: NaN fails every comparison, so the check is
        # written to reject it; an infinite lam must fail here, not in numpy's draw
        for x, lam in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (-math.inf, 1.0),
                       (1.0, math.inf)):
            with pytest.raises(ValueError, match=f"^x and lam must be positive and finite, "
                                                 f"got x={x}, lam={lam}$"):
                sample_poisson_cloud(x, 2, lam, make_rng(0))

    def test_draw_is_not_rechecked(self, monkeypatch):
        # the draw is sorted, distinct and in (0, x] by construction
        def recheck(self):
            raise AssertionError("the sampler re-checked its own draw")

        monkeypatch.setattr(PlanarPointSet, "__post_init__", recheck)
        cloud = sample_poisson_cloud(3.0, 4, 2.0, make_rng(1))
        replayed = sample_poisson_cloud(1.0, 5, 4.0, QuantizedRng(make_rng(3, 10)))
        assert cloud.x_max == 3.0 and cloud.t_max == 4 and replayed.t_max == 5
        with pytest.raises(AssertionError, match="re-checked"):
            cloud_from_rows(([0.5],), 1.0)  # the public constructor checks

    @pytest.mark.statistical
    def test_row_count_mean(self):
        rng = make_rng(102)
        counts = [sample_poisson_cloud(10.0, 1, 2.0, rng).size for _ in range(100_000)]
        counts = np.asarray(counts)
        assert_within_sigma(counts.mean(), 20.0, math.sqrt(20.0 / counts.size),
                            label="Poisson(20) row mean")

    @pytest.mark.statistical
    def test_total_count_mean_and_variance(self):
        rng = make_rng(103)
        totals = np.asarray(
            [sample_poisson_cloud(5.0, 4, 1.0, rng).size for _ in range(100_000)])
        assert_within_sigma(totals.mean(), 20.0, math.sqrt(20.0 / totals.size),
                            label="total count mean")
        assert abs(totals.var(ddof=1) - 20.0) < 2.0  # within 10 percent

    @pytest.mark.statistical
    def test_poisson_pmf_chi_square(self):
        # the row-count sampler must follow the exact Poisson law; bin
        # merging is handled by the same helper the stationarity test uses
        from conftest import P_FOUR_SIGMA
        from ulam.montecarlo import _poisson_chi_square
        for lam in (0.5, 1.0, 4.0, 20.0):
            draws = make_rng(104, int(lam * 10)).poisson(lam, size=1_000_000)
            stat, dof, p = _poisson_chi_square(draws, lam)
            assert p > P_FOUR_SIGMA, (
                f"STATISTICAL(chi2) poisson lam={lam}: stat {stat:.2f} dof {dof} p {p:.3g}")


class TestBoundarySampling:
    @pytest.mark.statistical
    def test_strict_sink_count(self):
        rates = BoundaryRates.strict_from_alpha(1.0, 1.0)  # p = 0.5
        b = sample_boundary(1.0, 100_000, rates, make_rng(105))
        assert set(np.unique(b.sinks)) <= {0, 1}
        assert_within_sigma(b.sinks.sum(), 50_000.0, math.sqrt(100_000 * 0.25),
                            label="Bernoulli sink count")

    @pytest.mark.statistical
    def test_weak_sink_mean(self):
        # beta* = 1/3 gives mean beta*/(1-beta*) = 0.5 per row
        rates = BoundaryRates.weak_from_beta(1.0, 3.0)
        b = sample_boundary(1.0, 100_000, rates, make_rng(106))
        sd = math.sqrt((1 / 3) / (2 / 3) ** 2 / 100_000)
        assert_within_sigma(b.sinks.mean(), 0.5, sd, label="geometric sink mean")

    @pytest.mark.statistical
    def test_geometric_pmf_chi_square(self):
        beta = 0.6
        rates = BoundaryRates.weak_from_beta(beta * 0.9, 0.9)  # sink_param = 0.6
        assert abs(rates.sink_param - beta) < 1e-12
        draws = sample_boundary(1.0, 1_000_000, rates, make_rng(107)).sinks
        ks = np.arange(21)
        probs = (1 - beta) * beta ** ks
        counts = np.bincount(np.minimum(draws, 21), minlength=22).astype(float)
        probs = np.append(probs, 1.0 - probs.sum())
        assert_chi_square_pmf(counts, probs, "geometric pmf")

    @pytest.mark.statistical
    def test_source_count_is_poisson(self):
        # sources of rate r on (0, x]: a Poisson(x r) count, here of mean 9;
        # chi-square cells <= 4, 5, ..., 14 and >= 15, each of 9 or more
        # expected counts in 500 streams
        pmf = [math.exp(-9.0) * 9.0 ** j / math.factorial(j) for j in range(15)]
        probs = np.asarray([sum(pmf[:5]), *pmf[5:], 1.0 - sum(pmf)])
        for seed, rates in ((110, BoundaryRates.strict_from_alpha(1.0, 1.5)),
                            (111, BoundaryRates.weak_from_beta(1.0, 2.5))):
            x, reps = 9.0 / rates.source_rate, 500
            counts = np.asarray([sample_boundary(x, 1, rates, make_rng(seed, r)).sources.size
                                 for r in range(reps)])
            assert_within_sigma(counts.mean(), 9.0, math.sqrt(9.0 / reps),
                                label=f"{rates.variant} source count")
            cells = np.bincount(np.clip(counts, 4, 15) - 4, minlength=12).astype(float)
            assert_chi_square_pmf(cells, probs, f"{rates.variant} source count pmf")

    def test_zero_rate_sources_empty(self):
        stub = SimpleNamespace(variant="strict", source_rate=0.0, sink_param=0.5)
        b = sample_boundary(5.0, 10, stub, make_rng(108))
        assert b.sources.size == 0

    def test_sources_sorted(self):
        rates = BoundaryRates.strict_from_alpha(1.0, 2.0)
        b = sample_boundary(50.0, 5, rates, make_rng(109))
        assert np.all(np.diff(b.sources) > 0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, 0.0])
    def test_names_a_nan_or_infinite_x(self, x):
        # NaN must fail the check, not numpy's Poisson draw
        rates = BoundaryRates.strict_from_alpha(1.0, 1.0)
        with pytest.raises(ValueError, match=f"^x must be positive and finite, got x={x}$"):
            sample_boundary(x, 3, rates, make_rng(0))
        with pytest.raises(ValueError, match="^t must be >= 1$"):
            sample_boundary(1.0, 0, rates, make_rng(0))


class EdgeRng(QuantizedRng):
    """A `QuantizedRng` whose grid holds both ends of numpy's uniforms, 0 and
    1 - 2**-53, so that draws x (1 - u) reach x and x * 2**-53 and rows tie."""

    def random(self, size):
        u = super().random(size)
        u[u == 63 / 64] = 1.0 - 2.0 ** -53
        return u

    def geometric(self, *args, **kwargs):
        return self.rng.geometric(*args, **kwargs)


class TestKeyFloor:
    """Every position the samplers draw, x (1 - u) with u < 1 a multiple of
    2**-53, lies in [fl(x * 2**-53), x], the range `hammersley._chain_keys`
    keys exactly."""

    @staticmethod
    def check(x, positions):
        assert ((x * 2.0 ** -53 <= positions) & (positions <= x)).all()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-300, 1e300), st.floats(0.5, 4.0), st.floats(1.0, 3.0),
           st.sampled_from(["strict", "weak"]), st.integers(0, 2**32), st.booleans())
    def test_draws_lie_at_or_above_the_key_floor(self, x, mean, over, variant, seed, edges):
        # lam and the source rate of order 1/x: a few points a row at any x
        rng = make_rng(seed, 13)
        if edges:
            rng = EdgeRng(rng)
        lam = mean / x
        rates = (BoundaryRates.strict_from_alpha(lam, over * lam) if variant == "strict"
                 else BoundaryRates.weak_from_beta(lam, (1.0 + over) * lam))
        self.check(x, sample_poisson_cloud(x, 4, lam, rng).xs)
        self.check(x, sample_boundary(x, 4, rates, rng).sources)

    def test_forced_ties_replay_within_the_range(self):
        # the edge grid ties rows, so the sampler replays its per-row draws,
        # and reaches both ends of the range
        for x in (1e-300, 1.0, 1e300):
            replayed, ends = 0, set()
            for seed in range(20):
                rng = EdgeRng(make_rng(seed, 14))
                xs = sample_poisson_cloud(x, 5, 4.0 / x, rng).xs
                self.check(x, xs)
                replayed += rng.random_calls > 1
                ends.update({x * 2.0 ** -53, x} & set(xs.tolist()))
            assert replayed > 0 and ends == {x * 2.0 ** -53, x}


class TestPoissonCeiling:
    """A Poisson mean numpy's sampler refuses is rejected, naming both of its
    factors, before anything is drawn or planned."""

    @pytest.mark.parametrize("argv, named", [
        (["simulate", "--x", "1e10", "--t", "1", "--lambda", "1e10"],
         "x=10000000000.0, lam=10000000000.0"),
        (["estimate", "--mode", "poisson", "--order", "weak", "--x", "1e10", "--t", "1",
          "--lambda", "1e10", "--reps", "2"], "x=10000000000.0, lam=10000000000.0"),
        (["simulate", "--x", "1", "--t", "1", "--lambda", "1", "--alpha", "1e19"],
         "x=1.0, source_rate=1e+19"),
    ], ids=["simulate", "estimate", "simulate-alpha"])
    def test_cli_exits_2(self, tmp_path, capsys, argv, named):
        d = tmp_path / "d"
        assert main([*argv, "--out-dir", str(d)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("domain error: x*") and err.rstrip().endswith(named)
        assert not d.exists()

    def test_stationarity_plans_nothing(self):
        with mock.patch.object(montecarlo, "_chunks") as chunks:
            with pytest.raises(ValueError, match="^x\\*source_rate must be below .*, got "
                                                 "x=1.0, source_rate=1e\\+19$"):
                montecarlo.stationarity_test(1.0, 1.0, 1e19, "strict", 1, 2, 0)
        chunks.assert_not_called()

    def test_samplers_draw_nothing(self):
        rng = make_rng(0)
        with pytest.raises(ValueError, match="^x\\*lam must be below"):
            sample_poisson_cloud(2.0, 1, _POISSON_MAX / 2, rng)
        stub = SimpleNamespace(variant="strict", source_rate=_POISSON_MAX, sink_param=0.5)
        with pytest.raises(ValueError, match="^x\\*source_rate must be below"):
            sample_boundary(1.0, 1, stub, rng)
        assert rng.random() == make_rng(0).random()  # the stream is untouched


class TestDomainTypes:
    def test_word_validation(self):
        with pytest.raises(ValueError):
            MultisetWord(2, 2, (1, 1, 1, 2))
        with pytest.raises(ValueError):
            MultisetWord(2, 2, (1, 1, 2))

    def test_point_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            cloud_from_rows((np.asarray([0.5, 0.5]),), 1.0)

    def test_point_set_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            cloud_from_rows((np.asarray([1.5]),), 1.0)
        with pytest.raises(ValueError):
            cloud_from_rows((np.asarray([0.0]),), 1.0)
        # NaN fails every comparison, so the checks must reject it as well
        with pytest.raises(ValueError, match="row 2: positions must lie"):
            cloud_from_rows((np.asarray([0.2]), np.asarray([0.1, np.nan, 0.5])), 1.0)
        with pytest.raises(ValueError, match="x_max must be positive"):
            cloud_from_rows((np.asarray([0.5]),), float("nan"))
        # an infinite x_max would admit infinite positions
        for x_max in (float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="x_max must be positive and finite"):
                cloud_from_rows((np.asarray([np.inf]),), x_max)
        with pytest.raises(ValueError, match="finite"):
            PlanarPointSet.from_points([(np.inf, 1)], np.inf, 1)

    def test_point_set_names_the_bad_row(self):
        with pytest.raises(ValueError, match="row 2: positions must be sorted"):
            cloud_from_rows((np.asarray([0.1, 0.2]), np.asarray([0.6, 0.3])), 1.0)
        with pytest.raises(ValueError, match="row 3: duplicate"):
            cloud_from_rows(([0.1], [], [0.4, 0.4]), 1.0)
        with pytest.raises(ValueError, match="row 2: positions must lie"):
            cloud_from_rows((np.asarray([0.1]), np.asarray([0.5, 1.5])), 1.0)

    def test_point_set_accepts_equal_x_on_other_rows(self):
        # neighbours across a row boundary may be equal or decrease
        ps = cloud_from_rows((np.asarray([0.2, 0.5]), np.asarray([0.5]),
                                       np.asarray([0.1, 0.9])), 1.0)
        assert ps.size == 5

    def test_chain_rows_tie_break(self):
        # equal x, rows listed descending so equal-x pairs can never chain
        ps = PlanarPointSet.from_points([(0.5, 1), (0.5, 2), (0.7, 1)], 1.0, 2)
        assert ps.chain_rows().tolist() == [2, 1, 1]

    def test_boundary_sample_validation(self):
        with pytest.raises(ValueError):
            BoundarySample(np.asarray([0.3, 0.2]), np.asarray([0, 1]))
        with pytest.raises(ValueError):
            BoundarySample(np.asarray([0.2]), np.asarray([-1]))


# Rows of up to 4 positions on a grid of quarters, any of them empty (the
# first and the last included); equal x on different rows is common.
grid_rows = st.lists(st.sets(st.integers(min_value=1, max_value=8), max_size=4)
                     .map(lambda row: [x / 4 for x in sorted(row)]), max_size=6)


class TestFlatPointSet:
    """The flat storage against per-row definitions written here."""

    @settings(max_examples=200, deadline=None)
    @given(grid_rows)
    def test_matches_per_row_definitions(self, rows):
        ps = cloud_from_rows(rows, 2.0)
        assert (ps.t_max, ps.size) == (len(rows), sum(map(len, rows)))
        assert [ps.row(i).tolist() for i in range(1, ps.t_max + 1)] == rows
        points = [(x, i) for i, row in enumerate(rows, start=1) for x in row]
        again = PlanarPointSet.from_points(points[::-1], 2.0, len(rows))
        assert again.xs.tolist() == ps.xs.tolist()
        assert again.offsets.tolist() == ps.offsets.tolist()
        # the chain order: x ascending, equal x by row descending
        assert ps.chain_rows().tolist() == [
            r for _, r in sorted(points, key=lambda p: (p[0], -p[1]))]

    @settings(max_examples=100, deadline=None)
    @given(st.booleans(), st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3),
           st.sampled_from([([0.5, 0.5], "duplicate"), ([0.6, 0.3], "sorted"),
                            ([0.2, 0.5, 0.4], "sorted"), ([0.5, 1.5], "must lie"),
                            ([np.nan], "must lie"), ([0.0, 0.5], "must lie")]))
    def test_errors_name_the_row_after_empty_rows(self, lead, empty, after, case):
        bad, message = case
        rows = [[0.1, 0.9]] * lead + [[]] * empty + [bad] + [[]] * after
        with pytest.raises(ValueError, match=f"^row {lead + empty + 1}: .*{message}"):
            cloud_from_rows(rows, 1.0)

    def test_offsets_are_checked(self):
        cases = [np.asarray(offsets, dtype) for offsets in ([1, 1], [0, 2, 1], [0, 2, 3], [])
                 for dtype in (np.int64, np.uint64)] + [np.asarray([0.0, 1.0])]
        for offsets in cases:
            with pytest.raises(ValueError, match="offsets"):
                PlanarPointSet(np.asarray([0.5]), offsets, 1.0)

    def test_rows_must_be_integers_in_range(self):
        for row in (1.5, 0, 3, np.nan):
            with pytest.raises(ValueError, match="rows must be integers"):
                PlanarPointSet.from_points([(0.5, 1), (0.5, row)], 1.0, 2)

    def test_letters_are_a_read_only_integer_array(self):
        w = sample_uniform_multiset_permutation(3, 2, make_rng(0))
        mine = np.asarray([2, 1, 1, 2])
        for letters in (w.letters, MultisetWord(2, 2, mine).letters):
            assert isinstance(letters, np.ndarray) and letters.dtype == np.int64
            with pytest.raises(ValueError, match="read-only"):
                letters[0] = 1
        with pytest.raises(ValueError, match="integer letters"):
            MultisetWord(2, 2, (1.0, 1.0, 2.0, 2.0))
