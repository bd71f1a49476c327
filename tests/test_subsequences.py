import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cloud_from_rows
from ulam.bounds import BoundaryRates
from ulam.sampling import (BoundarySample, MultisetWord, PlanarPointSet,
                           make_rng, sample_boundary, sample_poisson_cloud,
                           sample_uniform_multiset_permutation)
from ulam.subsequences import (brute_force_longest_chain, exact_expected_lis,
                               lis_strict, lnds_weak, longest_chain_with_boundary)


def word(*letters):
    vals = sorted(set(letters))
    n = len(vals)
    k = letters.count(letters[0])
    # tests only build words that satisfy the multiset invariant
    return MultisetWord(n=n, k=k, letters=tuple(letters))


class TestFastAlgorithms:
    def test_known_words(self):
        assert lis_strict(word(2, 2, 1, 1)) == 1
        assert lis_strict(word(1, 1, 2, 2)) == 2
        assert lnds_weak(word(1, 1, 2, 2)) == 4
        assert lnds_weak(word(2, 1, 2, 1)) == 2
        assert lnds_weak(MultisetWord(4, 1, (3, 1, 4, 2))) == 2

    def test_empty(self):
        empty = cloud_from_rows((), 1.0)
        assert lis_strict(empty) == 0
        assert lnds_weak(empty) == 0

    def test_rows_must_be_integers(self):
        # a cast would truncate: [0.5, 0.7] has a chain of 2, [1.9, 1.1] of 1;
        # numpy holds 2**63 + 5 as a float beside 1, and 2**64 + 5 as an object
        for rows in ([0.5, 0.7], [1.9, 1.1], [2**63 + 5, 1], [2**64 + 5, 1], [True]):
            for fn in (lis_strict, lnds_weak):
                with pytest.raises(ValueError, match="row values must be integers"):
                    fn(rows)
        assert lis_strict([]) == lnds_weak([]) == 0
        assert lis_strict(np.asarray([2**63 + 5, 1, 2**64 - 1], dtype=np.uint64)) == 2

    def test_point_set_equal_x(self):
        # equal x never chains, even with non-decreasing rows
        ps = PlanarPointSet.from_points([(0.5, 1), (0.5, 2)], 1.0, 2)
        assert lis_strict(ps) == 1
        assert lnds_weak(ps) == 1

    def test_matches_brute_force_on_words(self):
        rng = make_rng(1)
        for _ in range(200):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(1, 4))
            w = sample_uniform_multiset_permutation(n, k, rng)
            assert lis_strict(w) == brute_force_longest_chain(w, order="strict")
            assert lnds_weak(w) == brute_force_longest_chain(w, order="weak")

    def test_matches_brute_force_on_clouds(self):
        rng = make_rng(2)
        for _ in range(200):
            cloud = sample_poisson_cloud(1 + 9 * rng.random(), int(rng.integers(1, 12)),
                                         0.1 + 1.4 * rng.random(), rng)
            assert lis_strict(cloud) == brute_force_longest_chain(cloud, order="strict")
            assert lnds_weak(cloud) == brute_force_longest_chain(cloud, order="weak")

    def test_brute_force_hand_dp(self):
        assert brute_force_longest_chain(word(2, 2, 1, 1), order="strict") == 1
        assert brute_force_longest_chain(word(2, 2, 1, 1), order="weak") == 2

    def test_brute_force_takes_words_and_point_sets_only(self):
        with pytest.raises(TypeError, match="expected MultisetWord or PlanarPointSet"):
            brute_force_longest_chain([1, 2])

    def test_brute_force_cap(self):
        w = sample_uniform_multiset_permutation(1001, 2, make_rng(3))
        with pytest.raises(ValueError):
            brute_force_longest_chain(w)


class TestBoundaryChain:
    def test_reduces_to_plain_orders(self):
        rng = make_rng(4)
        empty = BoundarySample(np.empty(0), np.zeros(6, dtype=np.int64))
        for _ in range(50):
            cloud = sample_poisson_cloud(5.0, 6, 1.0, rng)
            assert longest_chain_with_boundary(cloud, empty, "strict") == lis_strict(cloud)
            assert longest_chain_with_boundary(cloud, empty, "weak") == lnds_weak(cloud)

    def test_sources_chain_along_bottom(self):
        cloud = cloud_from_rows((np.empty(0),), 1.0)
        b = BoundarySample(np.asarray([0.1, 0.2, 0.3]), np.zeros(1, dtype=np.int64))
        assert longest_chain_with_boundary(cloud, b, "strict") == 3

    def test_sinks_chain_with_multiplicity(self):
        cloud = cloud_from_rows((np.empty(0), np.empty(0)), 1.0)
        b = BoundarySample(np.empty(0), np.asarray([2, 1], dtype=np.int64))
        assert longest_chain_with_boundary(cloud, b, "weak") == 3
        # strict rejects multiplicity 2
        with pytest.raises(ValueError):
            longest_chain_with_boundary(cloud, b, "strict")
        b1 = BoundarySample(np.empty(0), np.asarray([1, 1], dtype=np.int64))
        assert longest_chain_with_boundary(cloud, b1, "strict") == 2

    def test_sources_then_interior(self):
        cloud = PlanarPointSet.from_points([(0.5, 1)], 1.0, 1)
        b = BoundarySample(np.asarray([0.1, 0.4]), np.zeros(1, dtype=np.int64))
        assert longest_chain_with_boundary(cloud, b, "strict") == 3
        # a source right of the interior point cannot precede it
        b2 = BoundarySample(np.asarray([0.7, 0.8]), np.zeros(1, dtype=np.int64))
        assert longest_chain_with_boundary(cloud, b2, "strict") == 2

    def test_no_mixing_sources_and_sinks(self):
        cloud = cloud_from_rows((np.empty(0), np.empty(0)), 1.0)
        b = BoundarySample(np.asarray([0.1, 0.2]), np.asarray([1, 1], dtype=np.int64))
        # best chain uses either the two sources or the two sinks, never both
        assert longest_chain_with_boundary(cloud, b, "strict") == 2

    def test_matches_brute_force(self):
        rng = make_rng(5)
        for _ in range(200):
            x = 1 + 7 * rng.random()
            t = int(rng.integers(1, 9))
            lam = 0.2 + rng.random()
            cloud = sample_poisson_cloud(x, t, lam, rng)
            bs = sample_boundary(x, t, BoundaryRates.strict_from_alpha(lam, 1.0), rng)
            assert (longest_chain_with_boundary(cloud, bs, "strict")
                    == brute_force_longest_chain(cloud, bs, "strict"))
            bw = sample_boundary(x, t, BoundaryRates.weak_from_beta(lam, lam + 1.0), rng)
            assert (longest_chain_with_boundary(cloud, bw, "weak")
                    == brute_force_longest_chain(cloud, bw, "weak"))

    @pytest.mark.parametrize("rows", [(), (np.empty(0),)], ids=["no_rows", "empty_row"])
    def test_empty_cloud_and_boundary(self, rows):
        cloud = cloud_from_rows(rows, 1.0)
        b = BoundarySample(np.empty(0), np.zeros(len(rows), dtype=np.int64))
        for order in ("strict", "weak"):
            assert longest_chain_with_boundary(cloud, b, order) == 0
            assert brute_force_longest_chain(cloud, b, order) == 0

    @pytest.mark.parametrize("sources, sinks, order, match", [
        ([], [1, 1, 1], "weak", "one sink multiplicity per row"),
        ([], [1], "strict", "one sink multiplicity per row"),
        ([], [2, 0], "strict", "multiplicities 0 or 1 only"),
        ([5.0], [0, 0], "weak", "must lie in \\[0, x_max\\]"),
        ([np.nan], [0, 0], "strict", "must lie in \\[0, x_max\\]"),
    ], ids=["too_many_sinks", "too_few_sinks", "strict_multiplicity", "source_past_x_max",
            "nan_source"])
    def test_brute_force_rejects_what_the_engines_reject(self, sources, sinks, order, match):
        # one point a row on [0, 1]; the DP checks the boundary by its own code
        cloud = PlanarPointSet.from_points([(0.5, 1), (0.75, 2)], 1.0, 2)
        b = BoundarySample(np.asarray(sources, dtype=float), np.asarray(sinks, dtype=np.int64))
        for chain in (brute_force_longest_chain, longest_chain_with_boundary):
            with pytest.raises(ValueError, match=match):
                chain(cloud, b, order)


class TestExactExpectation:
    def test_tiny_values(self):
        assert exact_expected_lis((1, 1, 1, 1)) == Fraction(29, 12)
        assert exact_expected_lis((2, 2)) == Fraction(11, 6)
        assert exact_expected_lis((3,)) == Fraction(1)
        assert exact_expected_lis((0, 0, 5)) == Fraction(1)
        assert exact_expected_lis(()) == Fraction(0)

    def test_lis_profile_of_permutations(self):
        # 24 relative orders of 4 distinct rows split 1/13/9/1 by chain length
        from ulam.subsequences import _patience_length
        profile = {1: 0, 2: 0, 3: 0, 4: 0}
        for p in itertools.permutations((1, 2, 3, 4)):
            profile[_patience_length(list(p), strict=True)] += 1
        assert profile == {1: 1, 2: 13, 3: 9, 4: 1}

    def test_permutations_up_to_the_cap_total_oeis_a003316(self):
        # A003316: the sum of the longest increasing subsequence lengths
        # over all permutations of m
        totals = [1, 3, 12, 58, 335, 2261, 17465, 152020, 1473057]
        for m, total in enumerate(totals, start=1):
            assert exact_expected_lis((1,) * m) * math.factorial(m) == total

    def test_value_of_a_mixed_content(self):
        assert exact_expected_lis((2, 1, 3, 1, 1)) == Fraction(5429, 1680)

    def test_cap(self):
        with pytest.raises(ValueError):
            exact_expected_lis((5, 5))

    def test_counts_must_be_nonnegative_integers(self):
        # a cast would read (1.5, 2) as (1, 2), whose mean is 5/3
        for counts, bad in (((1.5, 2), "1.5"), ((-1, 2), "-1"), ((2, "2"), "2")):
            with pytest.raises(ValueError, match=f"^row counts must be nonnegative "
                                                 f"integers, got {bad}$"):
                exact_expected_lis(counts)
        assert exact_expected_lis(np.asarray([2, 0, 2])) == Fraction(11, 6)

    def test_monotone_and_subadditive(self):
        for length in (1, 2, 3):
            tuples = [t for t in itertools.product(range(8), repeat=length)
                      if sum(t) <= 7]
            for i in tuples:
                for j in tuples:
                    s = tuple(a + b for a, b in zip(i, j))
                    if sum(s) > 7 or sum(i) == 0 or sum(j) == 0:
                        continue
                    ei, ej, es = (exact_expected_lis(i), exact_expected_lis(j),
                                  exact_expected_lis(s))
                    assert ei <= es <= ei + ej

    def test_smoothness(self):
        import math
        for length in (1, 2, 3):
            tuples = [t for t in itertools.product(range(8), repeat=length)
                      if sum(t) <= 7]
            for i in tuples:
                for j in tuples:
                    gap = sum(abs(a - b) for a, b in zip(i, j))
                    diff = abs(exact_expected_lis(i) - exact_expected_lis(j))
                    assert float(diff) <= 6.0 * math.sqrt(gap) + 1e-12


# ---------------------------------------------------------------------------
# Property tests

letters_strategy = st.lists(st.integers(min_value=1, max_value=8),
                            min_size=0, max_size=40)


def cloud_strategy():
    return st.builds(
        lambda seed: sample_poisson_cloud(5.0, 5, 1.0, make_rng(seed, 77)),
        st.integers(min_value=0, max_value=10_000))


class TestProperties:
    @given(letters_strategy)
    def test_lis_le_lnds(self, seq):
        rows = np.asarray(seq, dtype=np.int64)
        assert lis_strict(rows) <= lnds_weak(rows)

    @given(st.permutations(list(range(1, 13))))
    def test_permutation_orders_agree(self, perm):
        rows = np.asarray(perm, dtype=np.int64)
        assert lis_strict(rows) == lnds_weak(rows)

    @given(letters_strategy)
    def test_bounded_by_counts(self, seq):
        rows = np.asarray(seq, dtype=np.int64)
        assert lis_strict(rows) <= len(set(seq))
        assert lnds_weak(rows) <= len(seq)

    @settings(max_examples=40)
    @given(cloud_strategy(), st.floats(min_value=0.01, max_value=4.99),
           st.integers(min_value=1, max_value=5))
    def test_monotone_under_point_addition(self, cloud, x, row):
        if np.any(np.abs(cloud.row(row) - x) < 1e-12):
            return
        pts = [(float(p), i) for i in range(1, cloud.t_max + 1) for p in cloud.row(i)]
        pts.append((x, row))
        bigger = PlanarPointSet.from_points(pts, cloud.x_max, cloud.t_max)
        assert lis_strict(bigger) >= lis_strict(cloud)
        assert lnds_weak(bigger) >= lnds_weak(cloud)

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_subadditive_under_splits(self, seed):
        rng = make_rng(seed, 78)
        cloud = sample_poisson_cloud(6.0, 5, 1.0, rng)
        cut = 6.0 * rng.random()
        rows = [cloud.row(i) for i in range(1, cloud.t_max + 1)]
        left = cloud_from_rows([r[r <= cut] for r in rows], 6.0)
        right = cloud_from_rows([r[r > cut] for r in rows], 6.0)
        for fn in (lis_strict, lnds_weak):
            assert fn(cloud) <= fn(left) + fn(right)
            assert fn(cloud) >= max(fn(left), fn(right))

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=100_000))
    def test_fast_equals_brute(self, seed):
        rng = make_rng(seed, 79)
        cloud = sample_poisson_cloud(4.0, 4, 1.0, rng)
        assert lis_strict(cloud) == brute_force_longest_chain(cloud, order="strict")
        assert lnds_weak(cloud) == brute_force_longest_chain(cloud, order="weak")
