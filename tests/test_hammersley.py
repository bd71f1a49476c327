import itertools
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cloud_from_rows
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
    cloud = cloud_from_rows([row], start.x_max)
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
        cloud = cloud_from_rows((np.empty(0),) * 5, 2.0)
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
                prefix = cloud_from_rows(map(cloud.row, range(1, t + 1)), cloud.x_max)
                assert rec.counts[t - 1] == fn(prefix)

    def test_mismatched_sinks_rejected(self):
        # both boundary engines, so that the oracle takes what the dynamics
        # takes: too many sinks, too few, and too few zeros
        for rows, sinks in ((2, [1, 1, 1]), (3, [1]), (3, [0, 0])):
            cloud = cloud_from_rows(([0.5],) * rows, 1.0)
            b = BoundarySample(np.empty(0), np.asarray(sinks, dtype=np.int64))
            for variant in ("strict", "weak"):
                for engine in (run_dynamics, longest_chain_with_boundary):
                    with pytest.raises(ValueError, match="^need one sink multiplicity per row$"):
                        engine(cloud, b, variant)

    def test_strict_rejects_multiplicity(self):
        cloud = cloud_from_rows((np.empty(0),), 1.0)
        b = BoundarySample(np.empty(0), np.asarray([2], dtype=np.int64))
        with pytest.raises(ValueError):
            run_dynamics(cloud, b, "strict")
        # the boundary oracle takes what the dynamics takes
        with pytest.raises(ValueError, match="multiplicities 0 or 1"):
            longest_chain_with_boundary(cloud, b, "strict")

    def test_rejects_sources_outside_the_range(self):
        # both boundary engines, so that the oracle takes what the dynamics takes
        cloud = cloud_from_rows(([0.5], [0.7]), 1.0)
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
        empty = cloud_from_rows((np.empty(0),), 1.0)
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
        prefixes = [cloud_from_rows(map(cloud.row, range(1, i + 1)), cloud.x_max)
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


@st.composite
def crowded_clouds(draw):
    """(cloud, boundary): rows 0..t_max of up to 60 distinct x each, all
    within 2000 ulps of one base, x shared across rows (heavy equal-x ties),
    with sources in row 0 and sink units, under an x_max at the largest x
    or far above it."""
    t_max = draw(st.integers(min_value=1, max_value=5))
    base = draw(st.sampled_from([1.0, 3.5]))
    rows = [sorted(draw(st.sets(st.integers(min_value=0 if i == 0 else 1, max_value=2000),
                                max_size=60)))
            for i in range(t_max + 1)]
    x = [base + np.asarray(r, dtype=float) * np.spacing(base) for r in rows]
    top = max((float(r[-1]) for r in x if r.size), default=0.0)
    x_max = max(top, draw(st.sampled_from([top, 1.0, 4.0]))) or 1.0
    sinks = draw(st.lists(st.integers(min_value=0, max_value=2),
                          min_size=t_max, max_size=t_max))
    return (cloud_from_rows(x[1:], x_max),
            BoundarySample(x[0], np.asarray(sinks, dtype=np.int64)))


def chain_keys(cloud, boundary=None):
    """The keys of one cloud laid out alone: its sink units in row order,
    and its points (sources, then xs row by row), read off the rows."""
    rows, *_ = hammersley._chain_keys([(cloud, boundary)])
    units = np.zeros(cloud.t_max + 1, np.int64)
    if boundary is not None:
        units[1:] = boundary.sinks
    sinks, points = [], []
    for i, row in enumerate(rows):
        sinks.append(row[:units[i]])
        points.append(row[units[i]:])
    return np.concatenate(sinks), np.concatenate(points)


LOW = int(np.iinfo(np.int64).min)


def bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


class TestChainKeys:
    """A cloud's keys follow one rule: equal x, equal key.  Above low =
    iinfo(int64).min, sink units take 1..total, and every point, sources
    included, 2**32 + bits(x) - bits(f), with f = fl(x_max * 2**-53), the
    least x the samplers draw."""

    @staticmethod
    def check(cloud, boundary=None):
        sources = np.empty(0) if boundary is None else boundary.sources
        x = np.concatenate((sources, cloud.xs))
        sinks, keys = chain_keys(cloud, boundary)
        total = 0 if boundary is None else boundary.total_sinks
        assert keys.dtype == np.int64
        assert (sinks - LOW).tolist() == list(range(1, total + 1))
        values = keys - LOW
        f = bits(cloud.x_max * 2.0 ** -53)
        assert values.tolist() == ((1 << 32) + bits(x) - f).tolist()
        assert ((1 << 32 <= values) & (values < (1 << 32) + 54 * (1 << 52))).all()
        # keys order as x does, and are equal exactly where x is
        order = np.argsort(x, kind="stable")
        step = np.diff(keys[order])
        assert (step >= 0).all()
        assert ((step == 0) == (np.diff(x[order]) == 0)).all()

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(grid_cloud, sampled_cloud))
    def test_keys_order_as_x(self, cloud):
        self.check(cloud)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_grid_clouds_with_sources_and_sinks(self, data):
        cloud = data.draw(grid_cloud)
        self.check(cloud, data.draw(grid_boundary(cloud.t_max, 2)))

    @settings(max_examples=150, deadline=None)
    @given(crowded_clouds())
    def test_crowded_clouds(self, crowded):
        self.check(*crowded)

    @settings(max_examples=100, deadline=None)
    @given(crowded_clouds(), st.sampled_from(["strict", "weak"]))
    def test_crowded_clouds_chain_as_the_oracle(self, crowded, variant):
        # equal keys across rows: the slab's search sides order the ties
        cloud, b = crowded
        if variant == "strict":
            b = BoundarySample(b.sources, np.minimum(b.sinks, 1))
        count = boundary_counts([(cloud, b)], variant)[0]
        assert count + b.total_sinks == longest_chain_with_boundary(cloud, b, variant)

    def test_keys_read_off_the_float_bits(self):
        # x_max = 1: f = 2**-53, the least x a sampler draws, keys as 2**32
        f = 2.0 ** -53
        cloud = cloud_from_rows([[f, 3e-5, 0.5], [3e-5, 1.0]], 1.0)
        boundary = BoundarySample(np.asarray([f, 0.5]), np.asarray([1, 2]))
        sinks, keys = chain_keys(cloud, boundary)
        assert (sinks - LOW).tolist() == [1, 2, 3]
        key = lambda v: (1 << 32) + int(bits(v) - bits(f))  # noqa: E731
        # sources f, 0.5; row 1 f, 3e-5, 0.5; row 2 3e-5, 1.0: x_max is 53
        # binades above f, and equal x share a key across rows
        assert (keys - LOW).tolist() == [1 << 32, key(0.5), 1 << 32, key(3e-5), key(0.5),
                                         key(3e-5), (1 << 32) + (53 << 52)]
        self.check(cloud, boundary)

    @pytest.mark.parametrize("x_max", [5e-324, 1e-305, 1.0, 1.7e308])
    def test_64_clouds_fill_int64(self, x_max):
        # f, x_max / 3 and x_max itself bound the keys from both sides; at
        # 5e-324 f is 0.0, at 1e-305 a subnormal; the 64th cloud's pad is
        # iinfo(int64).max and the first cloud's left edge iinfo(int64).min
        f = x_max * 2.0 ** -53
        xs = sorted({f or 5e-324, x_max / 3 or 5e-324, x_max})
        cloud = cloud_from_rows([xs, xs[-1:]], x_max)
        boundary = BoundarySample(np.asarray(sorted({f, x_max})), np.asarray([1, 1]))
        self.check(cloud, boundary)
        rows, _, shift, *_ = hammersley._chain_keys([(cloud, boundary)] * 64)
        top = max(int(row.max()) for row in rows if row.size)
        assert shift == 58 and (top - LOW) >> 58 == 63 and top < np.iinfo(np.int64).max
        for variant in ("strict", "weak"):
            expected = longest_chain_with_boundary(cloud, boundary, variant)
            assert boundary_counts([(cloud, boundary)] * 64, variant).tolist() == [
                expected - boundary.total_sinks] * 64
        with pytest.raises(ValueError, match="at most 64 clouds, got 65$"):
            hammersley._chain_keys([(cloud, boundary)] * 65)

    def test_refused_batches_name_their_counts(self):
        empty = cloud_from_rows([()], 1.0)
        with pytest.raises(ValueError, match="at most 64 clouds, got 65$"):
            hammersley._chain_keys([(empty, None)] * 65)
        # 2**31 sink units and 2**31 points, the points a read-only view of
        # one value: 2**32 keys, refused before a key is written, with
        # nothing copied
        big = object.__new__(PlanarPointSet)
        big.__dict__.update(xs=np.broadcast_to(0.5, (1 << 31,)),
                            offsets=np.asarray([0, 1 << 31]), x_max=1.0)
        sinks = BoundarySample(np.empty(0), np.asarray([1 << 31]))
        with pytest.raises(ValueError, match="^a cloud of 2\\*\\*32 keys or more cannot be keyed: "
                                             "2147483648 points, 0 sources and 2147483648 "
                                             "sink units$"):
            hammersley._chain_keys([(big, sinks)])
        big.__dict__.update(xs=np.broadcast_to(0.5, (1 << 32,)),
                            offsets=np.asarray([0, 1 << 32]))
        with pytest.raises(ValueError, match=": 4294967296 points, 0 sources and 0 sink units$"):
            hammersley._chain_keys([(big, None)])

    @pytest.mark.parametrize("order, rates", [
        ("strict", None), ("weak", None),
        ("strict", BoundaryRates.strict_from_alpha(1.0, 1.0)),
        ("weak", BoundaryRates.weak_from_beta(1.0, 1.5))])
    def test_tiny_buffer_reserve_gives_the_same_counts(self, monkeypatch, order, rates):
        # a reserve of one key grows the buffer at every cloud
        args = (11, range(9), 6.0, 15, 1.0, order, 3, rates)
        whole = montecarlo._poisson_chunk(args)
        monkeypatch.setattr(montecarlo, "_expected_keys", lambda *a: (0.0, 0.0))
        assert montecarlo._poisson_chunk(args).tolist() == whole.tolist()


def recording_slab(seen: list):
    """`hammersley._slab_counts`, which appends the key dtype of each call
    to ``seen`` and checks that every row it steps has that dtype."""
    slab = hammersley._slab_counts

    def record(rows, sizes, shift, most, dtype, variant):
        def checked():
            for row in rows:
                assert row.dtype == dtype
                yield row
        seen.append(np.dtype(dtype))
        return slab(checked(), sizes, shift, most, dtype, variant)
    return record


def slab_counts(clouds, variant: str) -> np.ndarray:
    """The slab's final particle counts of boundary-free clouds, laid out in
    one batch as the chunk workers lay out theirs."""
    *layout, _ = hammersley._chain_keys((c, None) for c in clouds)
    return hammersley._slab_counts(*layout, variant)


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
        empty = [cloud_from_rows((), 1.0),
                 cloud_from_rows((np.empty(0),) * 4, 1.0)]
        assert slab_counts(empty, variant).tolist() == [0, 0]

    @pytest.mark.parametrize("variant", ["strict", "weak"])
    def test_single_full_size_replica(self, variant):
        cloud = sample_poisson_cloud(100.0, 100, 1.0, make_rng(31))
        chain = lis_strict if variant == "strict" else lnds_weak
        assert slab_counts([cloud], variant).tolist() == [chain(cloud)]

    def test_int64_keys_when_int32_cannot_hold_them(self):
        # cloud keys are int64 whatever the batch: replica << 58 is past
        # int32 from the first replica on
        big = sample_poisson_cloud(22_000.0, 3, 1.0, make_rng(33))
        assert 1 << 16 <= big.size < 1 << 17
        clouds = [cloud_from_rows((), 1.0)] * 63 + [big]
        for batch in (clouds[-1:], clouds[-2:], clouds):
            rows, _, shift, _, dtype, _ = hammersley._chain_keys([(c, None) for c in batch])
            assert shift == 58 and dtype == np.int64
            assert {row.dtype for row in rows} == {np.dtype(np.int64)}
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
        # 1437 bytes with 8-byte keys, so a budget of 3000 bytes makes 4
        # balanced chunks of at most 2 replicas
        assert 1000 < montecarlo._replica_bytes(45.0, 5.0, 10, key=8) <= 1500
        chunks = []
        run_chunk = montecarlo._poisson_chunk
        monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 3000)
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
    """The slab's final particle counts of (cloud, boundary) pairs: each
    boundary chain length less its total sinks."""
    *layout, sinks = hammersley._chain_keys(runs)
    return hammersley._slab_counts(*layout, variant) - sinks


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
        # cloud keys are always int64: every row the slab steps is
        runs = data.draw(boundary_batches(variant))
        seen = []
        with mock.patch.object(hammersley, "_slab_counts", recording_slab(seen)):
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
            (cloud_from_rows((np.empty(0),) * 2, 3.0),
             BoundarySample(np.asarray([0.5, 1.0, 2.5]), np.asarray([1, 1]))),
            # a sink alone: it chains by itself, and no particle is left
            (cloud_from_rows((np.empty(0),) * 2, 3.0),
             BoundarySample(np.empty(0), np.asarray([1, 0]))),
            # a source at the x of a row point ranks above it
            (one, BoundarySample(np.asarray([1.0, 1.5]), np.asarray([0, 1]))),
            # 255 sources and points, which uint8 ranks would hold, and four
            # sink units that push the ranks past it
            (PlanarPointSet.from_points([(0.012 * (i + 1), 1 + 3 * i % 5) for i in range(250)],
                                        3.0, 5),
             BoundarySample(np.linspace(0.1, 2.9, 5), np.asarray([1, 1, 0, 1, 1]))),
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
        with mock.patch.object(hammersley, "_key_dtype", lambda reps, shift: np.int64), \
                mock.patch.object(hammersley, "_slab_counts", recording_slab(seen)):
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

    @pytest.mark.parametrize("n, k", [(127, 1), (5, 51)])
    def test_words_of_size_two_to_the_m_less_one(self, n, k):
        # positions 1..2**m - 1 need shift m + 1: at shift m the last
        # position would key as its replica's pad
        rng = np.random.default_rng(43)
        words = [rng.permutation(np.repeat(np.arange(1, n + 1), k)) for _ in range(6)]
        expected = word_oracles(n, k, words)
        for variant in ("strict", "weak"):
            counts = hammersley._word_counts(iter(words), len(words), n, k, variant)
            assert counts.tolist() == expected[variant]

    @pytest.mark.parametrize("variant", ["strict", "weak"])
    def test_int32_keys_up_to_the_last_replica(self, variant):
        # words of 2**16 - 1 letters in replicas 0 and R - 1 of a batch of
        # R = 2**15, so R << 17 = 2**32: int32 keys, whose first cell edge
        # is iinfo(int32).min and last pad iinfo(int32).max.  Laid out here,
        # as `_word_counts` lays out a word, since its full batch would hold
        # 2**31 letters.
        n, k = 255, 257
        shift = (n * k + 1).bit_length()
        reps = (1 << 32) >> shift
        assert (shift, hammersley._key_dtype(reps, shift)) == (17, np.int32)
        assert hammersley._key_dtype(reps + 1, shift) == np.int64
        rng = np.random.default_rng(44)
        words = [rng.permutation(np.repeat(np.arange(1, n + 1), k)) for _ in range(2)]
        low = int(np.iinfo(np.int32).min) + 1
        keys = [np.argsort(w, kind="stable").reshape(n, k) + low + (r << shift)
                for w, r in zip(words, (0, reps - 1))]
        rows = [np.empty(0, np.int32), *(np.concatenate(pair).astype(np.int32)
                                         for pair in zip(*keys))]
        assert min(int(row.min()) for row in rows[1:]) == np.iinfo(np.int32).min + 1
        sizes = np.zeros(reps, np.int64)
        sizes[[0, -1]] = n * k
        counts = hammersley._slab_counts(iter(rows), sizes, shift, [0] + [k] * n, np.int32,
                                         variant)
        assert counts[[0, -1]].tolist() == word_oracles(n, k, words)[variant]
        assert not counts[1:-1].any()


class TestParticleSide:
    """A strict row with more points than live cells steps from the particle
    side: each cell takes the least row point above its left neighbour's key,
    and cell 0's left neighbour lies below every key of its replica.  Checked
    against the oracles, which share no code with the slab."""

    DENSE = [(200.0, 6), (1000.0, 10)]  # x * lam far above t

    @staticmethod
    def dense_runs(x: float, t: int, seed: int):
        """Eight clouds, each with no sources and a strict sink in about
        half its rows."""
        runs = []
        for r in range(8):
            rng = make_rng(seed, r)
            sinks = rng.integers(0, 2, t)
            runs.append((sample_poisson_cloud(x, t, 1.0, rng),
                         BoundarySample(np.empty(0), sinks)))
        return runs

    @pytest.mark.parametrize("x, t", DENSE)
    def test_dense_clouds(self, x, t):
        clouds = [sample_poisson_cloud(x, t, 1.0, make_rng(35, r)) for r in range(8)]
        assert slab_counts(clouds, "strict").tolist() == [lis_strict(c) for c in clouds]

    def test_dense_and_sparse_clouds_in_one_batch(self):
        # one dense cloud puts the whole row on the particle side, where the
        # sparse clouds' cells mostly meet empty gaps and empty rows
        clouds = [sample_poisson_cloud(x, 10, 1.0, make_rng(38, r))
                  for r, x in enumerate([1000.0, 0.5, 2.0, 1.0, 0.2, 3.0, 1.5, 0.8])]
        assert slab_counts(clouds, "strict").tolist() == [lis_strict(c) for c in clouds]

    @pytest.mark.parametrize("x, t", [*DENSE, (30.0, 4)])
    def test_estimates_outside_the_first_order_domain(self, x, t):
        rep = montecarlo.estimate_poissonized(x, t, 1.0, "strict", 8, seed=36)
        assert rep.predicted is None
        values = [lis_strict(sample_poisson_cloud(x, t, 1.0, make_rng(36, (2 << 32) | r)))
                  for r in range(8)]
        assert rep.mean == float(np.mean(np.asarray(values, dtype=float)))

    @staticmethod
    def word_batches():
        # [1, 2, 2, 1] puts letter 1 at rank 0, which cell 0's left
        # neighbour must lie below; then every word of content (2, 2), and
        # words with more letters of a row than the slab has cells
        rng = np.random.default_rng(42)
        return [(2, 2, [[1, 2, 2, 1]]),
                (2, 2, sorted(set(itertools.permutations([1, 1, 2, 2])))),
                (2, 3, sorted(set(itertools.permutations([1, 1, 1, 2, 2, 2])))),
                (4, 5, [rng.permutation(np.repeat(np.arange(1, 5), 5)) for _ in range(30)]),
                (3, 40, [rng.permutation(np.repeat(np.arange(1, 4), 40)) for _ in range(6)])]

    def test_words(self):
        # a row holds k points a word and meets at most n cells a word, many
        # of them over empty gaps
        for n, k, words in self.word_batches():
            counts = hammersley._word_counts(iter(words), len(words), n, k, "strict")
            assert counts.tolist() == word_oracles(n, k, words)["strict"]
        assert hammersley._word_counts(iter([[1, 2, 2, 1]]), 1, 2, 2, "strict").tolist() == [2]

    @pytest.mark.parametrize("x, t", DENSE)
    def test_boundaries_without_sources(self, x, t):
        # no sources: the first row of points steps an empty slab
        TestBoundarySlab.check(self.dense_runs(x, t, 37), "strict")

    def test_int64_keys(self):
        # words take int64 keys only when forced; clouds always do
        seen = []
        with mock.patch.object(hammersley, "_key_dtype", lambda reps, shift: np.int64), \
                mock.patch.object(hammersley, "_slab_counts", recording_slab(seen)):
            self.test_words()
            self.test_dense_and_sparse_clouds_in_one_batch()
            for x, t in self.DENSE:
                self.test_dense_clouds(x, t)
                self.test_boundaries_without_sources(x, t)
        assert seen == [np.int64] * 11


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
