import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulam import hammersley, montecarlo
from ulam.bounds import BoundaryRates
from ulam.hammersley import (ParticleState, run_dynamics, run_process,
                             verify_line_identity)
from ulam.sampling import (BoundarySample, MultisetWord, PlanarPointSet, make_rng,
                           sample_boundary, sample_poisson_cloud)
from ulam.subsequences import (brute_force_longest_chain, lis_strict, lnds_weak,
                               longest_chain_with_boundary)


def state(*positions, x_max=1.0):
    return ParticleState(np.asarray(positions, dtype=float), 0, x_max)


def step(variant, start: ParticleState, row, sink) -> ParticleState:
    """One row step through `run_dynamics`: a one-row cloud, the particles of
    ``start`` as its sources and ``sink`` as its one sink multiplicity."""
    cloud = PlanarPointSet.from_rows([row], start.x_max)
    boundary = BoundarySample(start.positions, np.asarray([int(sink)]))
    return run_dynamics(cloud, boundary, variant).state


class TestStepStrict:
    def test_moves_and_birth(self):
        s = step("strict", state(0.5, 0.8), [0.2, 0.6, 0.9], sink=False)
        assert s.positions.tolist() == [0.2, 0.6, 0.9]
        assert s.exits == 0

    def test_sink_absorbs_leftmost(self):
        s = step("strict", state(0.4, 0.7), [0.5], sink=True)
        assert s.positions.tolist() == [0.5]
        assert s.exits == 1

    def test_birth_from_empty(self):
        s = step("strict", state(), [0.3, 0.7], sink=False)
        assert s.positions.tolist() == [0.3]

    def test_sink_invalidates_below_exiting_particle(self):
        # the leaving particle sweeps everything below its old position
        s = step("strict", state(0.4, 0.7), [0.3, 0.5], sink=True)
        assert s.positions.tolist() == [0.5]
        assert s.exits == 1

    def test_sink_without_particles_swallows_the_row(self):
        s = step("strict", state(), [0.3, 0.7], sink=True)
        assert s.positions.size == 0
        assert s.exits == 0  # no particle actually left

    def test_gap_rule_uses_old_positions(self):
        # second particle's gap ends at its own old position, starts at the
        # first particle's old position, even after the first one moved
        s = step("strict", state(0.4, 0.8), [0.1, 0.2, 0.5], sink=False)
        assert s.positions.tolist() == [0.1, 0.5]

    def test_single_birth_only(self):
        s = step("strict", state(0.2), [0.5, 0.7, 0.9], sink=False)
        assert s.positions.tolist() == [0.2, 0.5]

    def test_rejects_out_of_range_points(self):
        with pytest.raises(ValueError):
            step("strict", state(0.5), [1.5], sink=False)
        with pytest.raises(ValueError):
            step("strict", state(0.5), [np.nan], sink=False)

    def test_exit_swallows_point_at_its_x(self):
        # the row point at the exiting particle's x ranks below it
        s = step("strict", state(0.4, 0.7), [0.4, 0.5], sink=True)
        assert s.positions.tolist() == [0.5]
        assert s.exits == 1

    def test_exit_of_the_only_particle_with_points_above(self):
        # the points above the exiting particle stay available: the least is born
        s = step("strict", state(0.4), [0.2, 0.6, 0.8], sink=True)
        assert s.positions.tolist() == [0.6]
        assert s.exits == 1

    def test_point_at_a_particle_is_taken_by_it(self):
        # the point ranks below the particle at its x, so it lies in that
        # particle's gap; the particle stays and the next one keeps its gap
        s = step("strict", state(0.4, 0.7), [0.4, 0.6], sink=False)
        assert s.positions.tolist() == [0.4, 0.6]

    def test_point_at_the_old_maximum_is_not_born(self):
        s = step("strict", state(0.4, 0.7), [0.7], sink=False)
        assert s.positions.tolist() == [0.4, 0.7]

    def test_empty_row(self):
        s = step("strict", state(0.4, 0.7), [], sink=False)
        assert s.positions.tolist() == [0.4, 0.7] and s.exits == 0
        s = step("strict", state(0.4, 0.7), [], sink=True)
        assert s.positions.tolist() == [0.7] and s.exits == 1


class TestStepWeak:
    def test_moves_keep_other_points_available(self):
        s = step("weak", state(0.5, 0.8), [0.2, 0.3, 0.9], sink=0)
        assert s.positions.tolist() == [0.2, 0.3, 0.9]

    def test_births_for_every_free_point_on_the_right(self):
        s = step("weak", state(0.5), [0.6, 0.7, 0.9], sink=0)
        assert s.positions.tolist() == [0.5, 0.6, 0.7, 0.9]

    def test_sink_multiplicity_absorbs(self):
        s = step("weak", state(0.4, 0.7), [], sink=2)
        assert s.positions.size == 0
        assert s.exits == 2

    def test_sink_multiplicity_capped_by_particles(self):
        s = step("weak", state(0.4), [], sink=3)
        assert s.exits == 1

    def test_unconsumed_point_below_old_max_is_born(self):
        # two same-row points below the particle already chain weakly, so
        # both locations carry particles afterwards
        s = step("weak", state(0.5), [0.3, 0.4], sink=0)
        assert s.positions.tolist() == [0.3, 0.4]

    def test_two_particles_share_row_points_in_order(self):
        s = step("weak", state(0.4, 0.5), [0.3], sink=0)
        assert s.positions.tolist() == [0.3, 0.5]

    def test_point_at_particle_x_is_consumed(self):
        # the row point at a particle's x ranks below it, so the particle
        # takes it and nothing is born on top of the particle
        s = step("weak", state(0.5, 0.8), [0.5, 0.8], sink=0)
        assert s.positions.tolist() == [0.5, 0.8]


class TestRunDynamics:
    def test_empty_cloud(self):
        cloud = PlanarPointSet.from_rows((np.empty(0),) * 5, 2.0)
        for variant in ("strict", "weak"):
            rec = run_dynamics(cloud, None, variant)
            assert rec.counts.tolist() == [0] * 5

    def test_counts_non_decreasing_without_boundary(self):
        rng = make_rng(21)
        for variant in ("strict", "weak"):
            run = run_process(8.0, 30, 1.0, variant, None, rng)
            assert np.all(np.diff(np.concatenate(([0], run.counts))) >= 0)
            if variant == "strict":
                assert np.all(np.diff(np.concatenate(([0], run.counts))) <= 1)
            assert run.exit_counts.tolist() == [0] * 30

    def test_prefix_counts_match_chain_lengths(self):
        rng = make_rng(22)
        cloud = sample_poisson_cloud(6.0, 12, 1.0, rng)
        for variant, fn in (("strict", lis_strict), ("weak", lnds_weak)):
            rec = run_dynamics(cloud, None, variant)
            for t in range(1, 13):
                prefix = PlanarPointSet.from_rows(map(cloud.row, range(1, t + 1)), cloud.x_max)
                assert rec.counts[t - 1] == fn(prefix)

    def test_mismatched_sinks_rejected(self):
        # both boundary engines, so that the oracle takes what the dynamics
        # takes: too many sinks, too few, and too few zeros
        for rows, sinks in ((2, [1, 1, 1]), (3, [1]), (3, [0, 0])):
            cloud = PlanarPointSet.from_rows(([0.5],) * rows, 1.0)
            b = BoundarySample(np.empty(0), np.asarray(sinks, dtype=np.int64))
            for variant in ("strict", "weak"):
                for engine in (run_dynamics, longest_chain_with_boundary):
                    with pytest.raises(ValueError, match="^need one sink multiplicity per row$"):
                        engine(cloud, b, variant)

    def test_strict_rejects_multiplicity(self):
        cloud = PlanarPointSet.from_rows((np.empty(0),), 1.0)
        b = BoundarySample(np.empty(0), np.asarray([2], dtype=np.int64))
        with pytest.raises(ValueError):
            run_dynamics(cloud, b, "strict")
        # the boundary oracle takes what the dynamics takes
        with pytest.raises(ValueError, match="multiplicities 0 or 1"):
            longest_chain_with_boundary(cloud, b, "strict")

    def test_rejects_sources_outside_the_range(self):
        # both boundary engines, so that the oracle takes what the dynamics takes
        cloud = PlanarPointSet.from_rows(([0.5], [0.7]), 1.0)
        for sources in ([0.5, 1.5], [np.nan], [-1.0], [5.0], [0.2, np.nan, 0.6]):
            b = BoundarySample(np.asarray(sources), np.zeros(2, dtype=np.int64))
            for variant in ("strict", "weak"):
                for engine in (run_dynamics, longest_chain_with_boundary):
                    with pytest.raises(ValueError, match="positions must lie"):
                        engine(cloud, b, variant)

    def test_input_checked_once_per_run(self, monkeypatch):
        # the rows step on plain arrays: a state is built for the result
        # only, and no row is re-checked
        built = []
        check = ParticleState.__post_init__
        monkeypatch.setattr(ParticleState, "__post_init__",
                            lambda self: built.append(self) or check(self))
        rng = make_rng(29)
        for rates in (BoundaryRates.strict_from_alpha(1.0, 1.0),
                      BoundaryRates.weak_from_beta(1.0, 2.0)):
            built.clear()
            run = run_process(6.0, 40, 1.0, rates.variant, rates, rng)
            assert built == [run.state]

    def test_run_process_record_carries_its_input(self):
        rates = BoundaryRates.weak_from_beta(1.0, 2.0)
        run = run_process(4.0, 6, 1.0, "weak", rates, make_rng(30))
        rng = make_rng(30)
        cloud = sample_poisson_cloud(4.0, 6, 1.0, rng)
        b = sample_boundary(4.0, 6, rates, rng)
        assert run.cloud.xs.tolist() == cloud.xs.tolist()
        assert run.cloud.offsets.tolist() == cloud.offsets.tolist()
        assert run.boundary.sources.tolist() == b.sources.tolist()
        assert run.boundary.sinks.tolist() == b.sinks.tolist()
        rec = run_dynamics(cloud, b, "weak")
        assert run.counts.tolist() == rec.counts.tolist()
        assert run.exit_counts.tolist() == rec.exit_counts.tolist()

    @pytest.mark.parametrize("variant, rates, match", [
        ("strict", BoundaryRates.strict_from_alpha(1.0, 1e19), "^x\\*source_rate must be below"),
        ("strict", BoundaryRates.weak_from_beta(1.0, 2.0), "variant does not match"),
    ], ids=["source-rate-ceiling", "variant-mismatch"])
    def test_run_process_rejects_a_boundary_before_its_cloud(self, variant, rates, match):
        rng = make_rng(31)
        with mock.patch.object(hammersley, "sample_poisson_cloud") as cloud:
            with pytest.raises(ValueError, match=match):
                run_process(1.0, 3_000_000, 1.0, variant, rates, rng)
        cloud.assert_not_called()
        assert rng.random() == make_rng(31).random()  # the stream is untouched


class TestLineIdentity:
    def test_empty_and_single_point(self):
        empty = PlanarPointSet.from_rows((np.empty(0),), 1.0)
        single = PlanarPointSet.from_points([(0.5, 1)], 1.0, 1)
        for variant in ("strict", "weak"):
            assert verify_line_identity(empty, None, variant)
            assert verify_line_identity(single, None, variant)

    def test_random_clouds(self):
        rng = make_rng(23)
        for _ in range(600):
            x = 0.2 + 19.8 * rng.random()
            t = int(rng.integers(1, 21))
            lam = 0.05 + 1.95 * rng.random()
            cloud = sample_poisson_cloud(x, t, lam, rng)
            assert verify_line_identity(cloud, None, "strict")
            assert verify_line_identity(cloud, None, "weak")

    def test_random_boundary_instances(self):
        rng = make_rng(24)
        for _ in range(300):
            x = 0.2 + 15 * rng.random()
            t = int(rng.integers(1, 16))
            lam = 0.05 + 1.95 * rng.random()
            cloud = sample_poisson_cloud(x, t, lam, rng)
            alpha = 0.05 + 2 * rng.random()
            bs = sample_boundary(x, t, BoundaryRates.strict_from_alpha(lam, alpha), rng)
            assert verify_line_identity(cloud, bs, "strict")
            beta = lam * (1.05 + 2 * rng.random())
            bw = sample_boundary(x, t, BoundaryRates.weak_from_beta(lam, beta), rng)
            assert verify_line_identity(cloud, bw, "weak")

    def test_boundary_identity_decomposition(self):
        # the two sides are computed by fully independent code paths
        rng = make_rng(25)
        cloud = sample_poisson_cloud(10.0, 10, 1.0, rng)
        rates = BoundaryRates.strict_from_alpha(1.0, 1.0)
        b = sample_boundary(10.0, 10, rates, rng)
        rec = run_dynamics(cloud, b, "strict")
        assert (rec.state.count + b.total_sinks
                == longest_chain_with_boundary(cloud, b, "strict"))


class TestWitness:
    def test_trace_events_cover_all_transitions(self):
        rng = make_rng(28)
        run = run_process(5.0, 10, 1.0, "strict", None, rng, trace=True)
        kinds = {e[3] for e in run.events}
        assert kinds <= {"move", "stay", "birth", "exit"}
        assert "birth" in kinds


# Clouds on a grid of 6 x values: equal x on different rows is common, and
# rows or whole clouds are often empty.
grid_cloud = st.integers(min_value=1, max_value=6).flatmap(
    lambda t: st.sets(st.tuples(st.integers(min_value=1, max_value=6),
                                st.integers(min_value=1, max_value=t)), max_size=18)
    .map(lambda pts: PlanarPointSet.from_points(
        [(x / 2, r) for x, r in sorted(pts)], 3.0, t)))

sampled_cloud = st.tuples(st.integers(min_value=0, max_value=10_000),
                          st.floats(min_value=0.2, max_value=12.0),
                          st.integers(min_value=1, max_value=12),
                          st.floats(min_value=0.05, max_value=2.0)).map(
    lambda a: sample_poisson_cloud(a[1], a[2], a[3], make_rng(a[0], 30)))


def grid_boundary(t: int, top_sink: int):
    """Sources on the grid of `grid_cloud` and t sink multiplicities."""
    return st.tuples(st.sets(st.integers(min_value=1, max_value=6)),
                     st.lists(st.integers(min_value=0, max_value=top_sink),
                              min_size=t, max_size=t)).map(
        lambda a: BoundarySample(np.asarray(sorted(a[0]), dtype=float) / 2,
                                 np.asarray(a[1], dtype=np.int64)))


class TestEqualX:
    """A row point at the x of a particle ranks below it, as in the chain
    order (x ascending, equal x by row descending)."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_line_identity_on_grid_clouds(self, data):
        cloud = data.draw(grid_cloud)
        for variant, top_sink in (("strict", 1), ("weak", 2)):
            assert verify_line_identity(cloud, None, variant)
            boundary = data.draw(grid_boundary(cloud.t_max, top_sink))
            assert verify_line_identity(cloud, boundary, variant)

    @settings(max_examples=200, deadline=None)
    @given(grid_cloud)
    def test_line_identity_after_every_row(self, cloud):
        prefixes = [PlanarPointSet.from_rows(map(cloud.row, range(1, i + 1)), cloud.x_max)
                    for i in range(1, cloud.t_max + 1)]
        for variant, chain in (("strict", lis_strict), ("weak", lnds_weak)):
            counts = run_dynamics(cloud, None, variant).counts.tolist()
            assert counts == [chain(prefix) for prefix in prefixes]

    def test_weak_equal_x_on_two_rows(self):
        cloud = PlanarPointSet.from_points([(0.5, 1), (0.5, 2)], 1.0, 2)
        assert run_dynamics(cloud, None, "weak").state.count == lnds_weak(cloud) == 1

    def test_strict_sink_exit_at_a_row_points_x(self):
        cloud = PlanarPointSet.from_points([(0.5, 2), (1.5, 1), (2.5, 2)], 3.5, 2)
        b = BoundarySample(np.asarray([1.5, 3.0]), np.asarray([1, 0]))
        rec = run_dynamics(cloud, b, "strict")
        assert rec.state.count + b.total_sinks == 2
        assert longest_chain_with_boundary(cloud, b, "strict") == 2
        assert brute_force_longest_chain(cloud, b, "strict") == 2


# Clouds whose x lie a few ulps apart, so that their int64 sort keys share
# high bits: the ranking falls back to argsort, or to lexsort on equal x.
close_cloud = st.integers(min_value=1, max_value=4).flatmap(
    lambda t: st.sets(st.tuples(st.integers(min_value=0, max_value=600),
                                st.integers(min_value=1, max_value=t)), max_size=40)
    .map(lambda pts: PlanarPointSet.from_points(
        [(1.0 + j * 2.0 ** -52, r) for j, r in sorted(pts)], 2.0, t)))


@st.composite
def crowded_rows(draw):
    """(flat, sizes, t_max): rows 0..t_max of up to 150 x each, all within
    2000 ulps of one base, repeats allowed: the packed keys share their high
    bits in many long runs."""
    t_max = draw(st.integers(min_value=0, max_value=5))
    sizes = draw(st.lists(st.integers(min_value=0, max_value=150),
                          min_size=t_max + 1, max_size=t_max + 1))
    base = draw(st.sampled_from([1.0, 3.5, 1e-300, 0.0]))
    steps = draw(st.lists(st.integers(min_value=0, max_value=2000),
                          min_size=sum(sizes), max_size=sum(sizes)))
    flat = base + np.asarray(steps, dtype=float) * np.spacing(base)
    return flat, np.asarray(sizes, dtype=np.int64), t_max


class TestCloudOrder:
    @staticmethod
    def check(flat, sizes, t_max):
        rows = np.repeat(np.arange(sizes.size), sizes)
        order = hammersley._cloud_order(flat, sizes, t_max)
        assert order.tolist() == np.lexsort((-rows, flat)).tolist()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(grid_cloud, sampled_cloud, close_cloud))
    def test_order_is_x_then_higher_row_first(self, cloud):
        sizes = np.diff(cloud.offsets, prepend=0)  # no sources in row 0
        self.check(cloud.xs, sizes, cloud.t_max)

    @settings(max_examples=150, deadline=None)
    @given(crowded_rows())
    def test_runs_of_shared_high_bits(self, crowded):
        self.check(*crowded)

    def test_large_cloud_with_every_key_shared(self):
        # 30000 x within 2**19 ulps of 1 and a 15-bit index: the keys fall
        # in 16 runs of equal high bits, some x repeat within a row
        rng = np.random.default_rng(7)
        sizes = np.full(60, 500, dtype=np.int64)
        flat = 1.0 + rng.integers(0, 1 << 19, sizes.sum()) * 2.0 ** -52
        self.check(flat, sizes, 59)


def slab_counts(clouds, variant: str) -> np.ndarray:
    """The slab's final particle counts of boundary-free clouds, laid out in
    one batch as the chunk workers lay out theirs."""
    return hammersley._slab_counts(*hammersley._chain_keys(clouds), variant)


class TestBatchParticleCounts:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(grid_cloud, sampled_cloud), max_size=6))
    def test_counts_match_both_oracles(self, clouds):
        for variant, chain in (("strict", lis_strict), ("weak", lnds_weak)):
            counts = slab_counts(iter(clouds), variant)
            assert counts.tolist() == [chain(c) for c in clouds]
            for cloud, count in zip(clouds, counts):
                assert count == run_dynamics(cloud, None, variant).state.count

    @pytest.mark.parametrize("variant", ["strict", "weak"])
    def test_empty_inputs(self, variant):
        assert slab_counts([], variant).tolist() == []
        empty = [PlanarPointSet.from_rows((), 1.0),
                 PlanarPointSet.from_rows((np.empty(0),) * 4, 1.0)]
        assert slab_counts(empty, variant).tolist() == [0, 0]

    @pytest.mark.parametrize("variant", ["strict", "weak"])
    def test_single_full_size_replica(self, variant):
        cloud = sample_poisson_cloud(100.0, 100, 1.0, make_rng(31))
        chain = lis_strict if variant == "strict" else lnds_weak
        assert slab_counts([cloud], variant).tolist() == [chain(cloud)]

    def test_int64_keys_when_int32_cannot_hold_them(self):
        # 2**14 replicas of 2**17 keys each end at 2**31, past int32
        big = sample_poisson_cloud(22_000.0, 3, 1.0, make_rng(33))
        assert 1 << 16 <= big.size < 1 << 17
        clouds = [PlanarPointSet.from_rows((), 1.0)] * ((1 << 14) - 1) + [big]
        assert hammersley._chain_keys(clouds[-2:])[0][0].dtype == np.int32
        assert hammersley._chain_keys(clouds)[0][0].dtype == np.int64
        for variant, chain in (("strict", lis_strict), ("weak", lnds_weak)):
            counts = slab_counts(clouds, variant)
            assert counts[-1] == chain(big) and not counts[:-1].any()

    def test_estimators_reject_unknown_variant(self):
        # the slab reads any variant but "strict" as weak: its callers check
        calls = [lambda: montecarlo.estimate_mean_subsequence(3, 2, "lax", 4, 0),
                 lambda: montecarlo.estimate_poissonized(2.0, 3, 1.0, "lax", 4, 0),
                 lambda: montecarlo.stationarity_test(2.0, 1.0, 2.0, "lax", 3, 4, 0),
                 lambda: montecarlo.deviation_profile(2.0, 9, 1.0, "lax", [0.5], 4, 0)]
        with mock.patch.object(montecarlo, "_slab_counts") as slab:
            for call in calls:
                with pytest.raises(ValueError, match="variant must be one of"):
                    call()
        slab.assert_not_called()

    @pytest.mark.parametrize("order", ["strict", "weak"])
    def test_estimate_split_into_small_chunks(self, monkeypatch, order):
        whole = montecarlo.estimate_poissonized(5.0, 9, 1.0, order, 7, seed=32)
        # a replica of x*t*lam = 45 expected points in 10 rows takes about
        # 959 bytes, so a budget of 2000 bytes makes 4 balanced chunks of at
        # most 2 replicas
        assert 667 < montecarlo._replica_bytes(45.0, 5.0, 10) <= 1000
        chunks = []
        run_chunk = montecarlo._poisson_chunk
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 2000)
        monkeypatch.setattr(montecarlo, "_poisson_chunk",
                            lambda args: chunks.append(list(args[1])) or run_chunk(args))
        split = montecarlo.estimate_poissonized(5.0, 9, 1.0, order, 7, seed=32)
        assert chunks == [[0], [1, 2], [3, 4], [5, 6]]
        assert split == whole
        chain = lis_strict if order == "strict" else lnds_weak
        values = [chain(sample_poisson_cloud(5.0, 9, 1.0, make_rng(32, (2 << 32) | r)))
                  for r in range(7)]
        assert whole.mean == float(np.mean(np.asarray(values, dtype=float)))


class TestTiedGridClouds:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(grid_cloud, min_size=1, max_size=12))
    def test_batch_matches_brute_force(self, clouds):
        # many equal x within and across rows, all clouds in one slab
        for variant in ("strict", "weak"):
            counts = slab_counts(clouds, variant)
            assert counts.tolist() == [brute_force_longest_chain(c, order=variant)
                                       for c in clouds]


def grid_cloud_on(t: int):
    """A `grid_cloud` on exactly t rows (t may be 0)."""
    return st.sets(st.tuples(st.integers(min_value=1, max_value=6),
                             st.integers(min_value=1, max_value=max(t, 1))),
                   max_size=18 if t else 0).map(
        lambda pts: PlanarPointSet.from_points([(x / 2, r) for x, r in sorted(pts)], 3.0, t))


def boundary_counts(runs, variant: str) -> np.ndarray:
    """The slab's final particle counts of (cloud, boundary) pairs."""
    return hammersley._slab_counts(*hammersley._chain_keys(
        (c for c, _ in runs), (b for _, b in runs)), variant)


@st.composite
def boundary_batches(draw, variant: str):
    """One to five tied grid clouds of one height, each with grid-valued
    sources and sinks of multiplicity up to 1 (strict) or 2 (weak)."""
    t = draw(st.integers(min_value=1, max_value=6))
    top_sink = 1 if variant == "strict" else 2
    return draw(st.lists(st.tuples(grid_cloud_on(t), grid_boundary(t, top_sink)),
                         min_size=1, max_size=5))


class TestBoundarySlab:
    """Sources and sinks on the slab against the scalar dynamics and the
    boundary chain DP, which share no code with it."""

    @staticmethod
    def check(runs, variant):
        counts = boundary_counts(runs, variant)
        for (cloud, b), count in zip(runs, counts):
            assert count == run_dynamics(cloud, b, variant).state.count
            assert count + b.total_sinks == longest_chain_with_boundary(cloud, b, variant)

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.sampled_from(["strict", "weak"]))
    def test_matches_both_oracles(self, data, variant):
        self.check(data.draw(boundary_batches(variant)), variant)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(["strict", "weak"]))
    def test_int64_keys(self, data, variant):
        runs = data.draw(boundary_batches(variant))
        seen = []
        slab = hammersley._slab_counts

        def record(keys, *args):
            seen.append(keys.dtype)
            return slab(keys, *args)

        with mock.patch.object(hammersley, "_key_dtype", lambda reps, shift: np.int64), \
                mock.patch.object(hammersley, "_slab_counts", record):
            self.check(runs, variant)
        assert seen == [np.int64]

    @pytest.mark.parametrize("variant", ["strict", "weak"])
    def test_edge_cases(self, variant):
        one = PlanarPointSet.from_points([(0.5, 1), (1.0, 1), (1.5, 2)], 3.0, 2)
        runs = [
            # a sink with no live particle: strict swallows the row
            (one, BoundarySample(np.empty(0), np.asarray([1, 0]))),
            # a sink empties the row below the only source
            (PlanarPointSet.from_points([(0.5, 1), (1.0, 1)], 3.0, 2),
             BoundarySample(np.asarray([1.0]), np.asarray([1, 1]))),
            # no sources, no sinks: the plain chain length
            (one, BoundarySample(np.empty(0), np.asarray([0, 0]))),
            # an empty cloud: sources exit one by one, rows without points
            (PlanarPointSet.from_rows((np.empty(0),) * 2, 3.0),
             BoundarySample(np.asarray([0.5, 1.0, 2.5]), np.asarray([1, 1]))),
            # nothing at all: no slab row
            (PlanarPointSet.from_rows((np.empty(0),) * 2, 3.0),
             BoundarySample(np.empty(0), np.asarray([1, 0]))),
            # a source at the x of a row point ranks above it
            (one, BoundarySample(np.asarray([1.0, 1.5]), np.asarray([0, 1]))),
        ]
        self.check(runs, variant)
        assert boundary_counts(runs, variant)[4] == 0

    @pytest.mark.parametrize("variant, rate", [("strict", 1.0), ("weak", 2.0)])
    def test_sampled_boundary_processes(self, variant, rate):
        rates = (BoundaryRates.strict_from_alpha if variant == "strict"
                 else BoundaryRates.weak_from_beta)(1.0, rate)
        runs = []
        for seed in range(20):
            rng = make_rng(seed, 34)
            cloud = sample_poisson_cloud(8.0, 30, 1.0, rng)
            runs.append((cloud, sample_boundary(8.0, 30, rates, rng)))
        self.check(runs, variant)


def multiset_words(max_letters: int = 300):
    """(n, k, words): one to four multiset words over 1..n, each letter k
    times, with n*k up to ``max_letters``."""
    return st.integers(min_value=1, max_value=30).flatmap(
        lambda n: st.integers(min_value=1, max_value=max(1, max_letters // n)).flatmap(
            lambda k: st.tuples(st.just(n), st.just(k), st.lists(
                st.permutations(np.repeat(np.arange(1, n + 1), k).tolist()),
                min_size=1, max_size=4))))


def word_oracles(n: int, k: int, words) -> dict:
    as_words = [MultisetWord(n, k, tuple(w)) for w in words]
    return {"strict": [lis_strict(w) for w in as_words],
            "weak": [lnds_weak(w) for w in as_words]}


class TestWordCounts:
    """The slab kernel on multiset words, the word estimator's engine."""

    @settings(max_examples=150, deadline=None)
    @given(multiset_words(), st.sampled_from([np.uint8, np.uint16, np.int64]))
    def test_counts_match_patience(self, words, dtype):
        n, k, words = words
        expected = word_oracles(n, k, words)
        for variant in ("strict", "weak"):
            counts = hammersley._word_counts(np.asarray(words, dtype=dtype), len(words), n,
                                             k, variant)
            assert counts.tolist() == expected[variant]

    @pytest.mark.parametrize("n, k", [(1, 1), (1, 6), (6, 1), (2, 2)])
    def test_small_shapes(self, n, k):
        rng = np.random.default_rng(40)
        words = [rng.permutation(np.repeat(np.arange(1, n + 1), k)) for _ in range(5)]
        expected = word_oracles(n, k, words)
        for variant in ("strict", "weak"):
            counts = hammersley._word_counts(iter(words), len(words), n, k, variant)
            assert counts.tolist() == expected[variant]

    @settings(max_examples=40, deadline=None)
    @given(multiset_words(120))
    def test_int64_keys(self, words):
        # the key dtype is chosen by the batch size; int64 keys would need
        # 2**31 letters in one batch, so the choice is forced here
        n, k, words = words
        seen = []
        slab = hammersley._slab_counts

        def record(keys, *args):
            seen.append(keys.dtype)
            return slab(keys, *args)

        with mock.patch.object(hammersley, "_key_dtype", lambda reps, shift: np.int64), \
                mock.patch.object(hammersley, "_slab_counts", record):
            for variant in ("strict", "weak"):
                letters = np.asarray(words, dtype=np.uint16)
                counts = hammersley._word_counts(letters, len(words), n, k, variant)
                assert counts.tolist() == word_oracles(n, k, words)[variant]
        assert seen == [np.int64, np.int64]

    @pytest.mark.parametrize("n, small", [(200, np.uint8), (300, np.uint16)])
    def test_words_sort_in_their_smallest_dtype(self, n, small):
        # int64 letters narrow before the stable argsort, which then sorts
        # by radix
        rng = np.random.default_rng(41)
        words = [rng.permutation(np.repeat(np.arange(1, n + 1), 2)) for _ in range(3)]
        sorted_dtypes = []
        argsort = np.argsort

        def record(a, *args, **kwargs):
            sorted_dtypes.append(a.dtype)
            return argsort(a, *args, **kwargs)

        with mock.patch.object(np, "argsort", record):
            counts = hammersley._word_counts(iter(words), len(words), n, 2, "strict")
        assert sorted_dtypes == [small] * len(words)
        assert counts.tolist() == word_oracles(n, 2, words)["strict"]

    def test_empty_batch(self):
        assert hammersley._word_counts(iter(()), 0, 3, 2, "weak").tolist() == []


@pytest.mark.perf
@pytest.mark.skipif(not os.environ.get("ULAM_RUN_PERF"),
                    reason="heavy performance gate; set ULAM_RUN_PERF=1")
def test_large_run_performance():
    import time
    rng = make_rng(999)
    start = time.monotonic()
    run = run_process(10_000.0, 10_000, 1.0, "strict", None, rng)
    elapsed = time.monotonic() - start
    assert run.counts[-1] > 0
    print(f"strict run x=1e4 t=1e4 lam=1: {elapsed:.1f}s")
    assert elapsed < 10.0, f"the README promises under ten seconds, took {elapsed:.1f}s"
