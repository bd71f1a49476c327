import itertools

import numpy as np
import pytest

from conftest import assert_cellwise_four_sigma, cloud_from_rows
from ulam.couplings import (_word_from_cloud_rows, group_heights,
                            poissonized_coupling_lower, poissonized_coupling_upper,
                            project_to_multiset)
from ulam.sampling import MultisetWord, make_rng, sample_uniform_permutation
from ulam.subsequences import lis_strict, lnds_weak


class TestProjection:
    def test_examples(self):
        sigma = MultisetWord(4, 1, (3, 1, 4, 2))
        assert project_to_multiset(sigma, 2).letters.tolist() == [2, 1, 2, 1]
        ident = MultisetWord(6, 1, (1, 2, 3, 4, 5, 6))
        assert project_to_multiset(ident, 3).letters.tolist() == [1, 1, 1, 2, 2, 2]

    def test_length_must_divide(self):
        with pytest.raises(ValueError):
            project_to_multiset(MultisetWord(4, 1, (3, 1, 4, 2)), 3)

    @pytest.mark.parametrize("k", [0, -2, 1.5, 2.0])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match=rf"^k must be a positive integer, got k={k}$"):
            project_to_multiset(MultisetWord(4, 1, (3, 1, 4, 2)), k)
        assert project_to_multiset(MultisetWord(4, 1, (3, 1, 4, 2)), np.int64(2)).k == 2

    def test_only_permutations_project(self):
        with pytest.raises(ValueError, match="permutation word"):
            project_to_multiset(MultisetWord(2, 2, (1, 2, 2, 1)), 2)

    def test_sandwich_example(self):
        sigma = MultisetWord(4, 1, (3, 1, 4, 2))
        word = project_to_multiset(sigma, 2)
        assert lis_strict(word) <= lnds_weak(sigma) <= lnds_weak(word)
        assert (lis_strict(word), lnds_weak(sigma), lnds_weak(word)) == (2, 2, 2)

    def test_sandwich_holds_per_sample(self):
        rng = make_rng(31)
        for _ in range(2000):
            sigma = sample_uniform_permutation(24, rng)
            word = project_to_multiset(sigma, 3)
            mid = lnds_weak(sigma)
            assert lis_strict(word) <= mid <= lnds_weak(word)

    @pytest.mark.statistical
    def test_projection_preserves_uniformity(self):
        rng = make_rng(32)
        words = sorted(set(itertools.permutations((1, 1, 2, 2))))
        index = {w: i for i, w in enumerate(words)}
        counts = np.zeros(6)
        for _ in range(60000):
            sigma = sample_uniform_permutation(4, rng)
            counts[index[tuple(project_to_multiset(sigma, 2).letters.tolist())]] += 1
        assert_cellwise_four_sigma(counts, np.full(6, 1 / 6), "projected words")


class TestUpperCoupling:
    def test_inequality_when_event_holds(self):
        rng = make_rng(33)
        violations = 0
        held = 0
        for _ in range(2000):
            s = poissonized_coupling_upper(4, 2, 2.0, rng)
            if s.event_flag:
                held += 1
                if lnds_weak(s.objects["word"]) > lnds_weak(s.objects["cloud"]):
                    violations += 1
        assert violations == 0
        assert held > 1900  # lam=2 makes thin rows very unlikely

    def test_tied_x_takes_the_chain_order(self):
        # an equal-x pair never chains in the cloud, so the word must put the
        # higher row first too, or its weak chain outgrows the cloud's
        cloud = cloud_from_rows([[0.5], [0.5]], 2.0)
        word = _word_from_cloud_rows(cloud.xs, 2, 1)
        assert word.letters.tolist() == cloud.chain_rows().tolist() == [2, 1]
        assert lnds_weak(word) == lnds_weak(cloud) == 1

    def test_event_fails_for_tiny_intensity(self):
        s = poissonized_coupling_upper(2, 2, 1e-6, make_rng(34))
        assert not s.event_flag
        assert s.objects["word"] is None
        assert s.objects["worst_case"] == 4

    @pytest.mark.statistical
    def test_word_marginal_uniform_given_event(self):
        rng = make_rng(35)
        words = sorted(set(itertools.permutations((1, 1, 2, 2))))
        index = {w: i for i, w in enumerate(words)}
        counts = np.zeros(6)
        while counts.sum() < 30000:
            s = poissonized_coupling_upper(2, 2, 3.0, rng)
            if s.event_flag:
                counts[index[tuple(s.objects["word"].letters.tolist())]] += 1
        assert_cellwise_four_sigma(counts, np.full(6, 1 / 6), "kept words")


class TestLowerCoupling:
    def test_inequality_when_event_holds(self):
        rng = make_rng(36)
        violations = 0
        held = 0
        for _ in range(2000):
            s = poissonized_coupling_lower(4, 2, 0.05, rng)
            if s.event_flag:
                held += 1
                if lnds_weak(s.objects["word"]) < lnds_weak(s.objects["cloud"]):
                    violations += 1
        assert violations == 0
        assert held > 1900

    def test_event_fails_for_large_intensity(self):
        s = poissonized_coupling_lower(2, 2, 50.0, make_rng(37))
        assert not s.event_flag

    def test_completed_rows_have_exactly_k_points(self):
        rng = make_rng(38)
        s = poissonized_coupling_lower(5, 3, 0.05, rng)
        if s.event_flag:
            assert s.objects["word"].k == 3

    @pytest.mark.statistical
    def test_completed_marginal_uniform_given_event(self):
        rng = make_rng(39)
        words = sorted(set(itertools.permutations((1, 1, 2, 2))))
        index = {w: i for i, w in enumerate(words)}
        counts = np.zeros(6)
        while counts.sum() < 30000:
            s = poissonized_coupling_lower(2, 2, 0.1, rng)
            if s.event_flag:
                counts[index[tuple(s.objects["word"].letters.tolist())]] += 1
        assert_cellwise_four_sigma(counts, np.full(6, 1 / 6), "completed words")


class TestGroupHeights:
    def test_example(self):
        w = MultisetWord(4, 1, (3, 1, 4, 2))
        g = group_heights(w, 2)
        assert (g.n, g.k) == (2, 2)
        assert g.letters.tolist() == [2, 1, 2, 1]
        assert lnds_weak(w) <= lnds_weak(g) + 1 * 2

    def test_identity_grouping(self):
        w = MultisetWord(4, 1, (3, 1, 4, 2))
        assert group_heights(w, 1).letters.tolist() == w.letters.tolist()

    def test_truncation(self):
        w = MultisetWord(5, 1, (5, 3, 1, 4, 2))
        g = group_heights(w, 2)
        assert (g.n, g.k) == (2, 2)
        assert len(g.letters) == 4
        assert set(g.letters) == {1, 2}

    def test_group_size_bounds(self):
        w = MultisetWord(4, 1, (3, 1, 4, 2))
        with pytest.raises(ValueError):
            group_heights(w, 5)
        with pytest.raises(ValueError, match="group size must be >= 1"):
            group_heights(w, 0)

    @pytest.mark.parametrize("size", [1.5, 2.0, float("nan")])
    def test_group_size_must_be_an_integer(self, size):
        w = MultisetWord(4, 1, (3, 1, 4, 2))
        with pytest.raises(ValueError,
                           match=rf"^group size must be an integer, got group_size={size}$"):
            group_heights(w, size)
        assert group_heights(w, np.int64(2)).k == 2

    def test_inequality_per_sample(self):
        rng = make_rng(40)
        from ulam.sampling import sample_uniform_multiset_permutation
        for _ in range(2000):
            n = int(rng.integers(2, 15))
            k = int(rng.integers(1, 4))
            a = int(rng.integers(1, n + 1))
            w = sample_uniform_multiset_permutation(n, k, rng)
            g = group_heights(w, a)
            assert lnds_weak(w) <= lnds_weak(g) + k * a
