"""Same-probability-space constructions tying words to Poisson clouds.

Each sampler returns every coupled object so the defining inequality can be
asserted sample by sample; the inequalities are deterministic facts about
the construction (conditional on the event flag), not statistical ones.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .sampling import (MultisetWord, RngStream, _chain_order, _uniform_positions,
                       sample_poisson_cloud)


@dataclass(frozen=True, eq=False)
class CoupledSample:
    """One draw of a coupled construction.

    ``objects`` maps "cloud" and "word" to the coupled objects; ``event_flag``
    reports whether the good event (enough / few enough points per row)
    holds, in which case the construction's inequality is guaranteed on
    this very sample, and otherwise the word is None.
    """

    objects: dict
    event_flag: bool


def project_to_multiset(sigma: MultisetWord, k: int) -> MultisetWord:
    """Collapse a permutation word to a k-multiset word via ceil(value / k).

    If sigma is uniform over permutations of {1..kn}, the image is uniform
    over k-multiset words, and the chain lengths sandwich:
    strict(word) <= weak(sigma) <= weak(word).
    """
    if sigma.k != 1:
        raise ValueError("projection expects a permutation word (k=1)")
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    if sigma.n % k:
        raise ValueError("permutation length must be divisible by k")
    return MultisetWord(n=sigma.n // k, k=k, letters=(sigma.letters + k - 1) // k)


def _word_from_cloud_rows(xs: np.ndarray, n: int, k: int) -> MultisetWord:
    """Word of row labels in chain order, as `PlanarPointSet.chain_rows`;
    ``xs`` holds rows 1..n in turn, k points each."""
    labels = np.repeat(np.arange(1, n + 1, dtype=np.int64), k)
    return MultisetWord(n=n, k=k, letters=_chain_order(xs, labels))


def poissonized_coupling_upper(n: int, k: int, lam: float, rng: RngStream) -> CoupledSample:
    """Cloud on [0, nk] x {1..n}; keep a uniform k-subset of each row.

    When every row holds at least k points the kept points form a uniform
    k-multiset word whose weak chain length is at most the cloud's.  The
    subset must be chosen uniformly, not as the k leftmost points: once a
    row's leftmost slots fill up its later points become invisible, which
    skews the interleaving (for n=k=2 the two block words would appear with
    probability 1/4 instead of 1/6).  A uniform subset of i.i.d. uniform
    positions is again i.i.d. uniform, so uniformity of the word survives.
    """
    cloud = sample_poisson_cloud(n * k, n, lam, rng)
    flag = bool(np.all(np.diff(cloud.offsets) >= k))
    objects: dict = {"cloud": cloud, "word": None}
    if flag:
        kept = [row[rng.choice(row.size, size=k, replace=False)]
                for row in map(cloud.row, range(1, n + 1))]
        objects["word"] = _word_from_cloud_rows(np.concatenate(kept), n, k)
    return CoupledSample(objects, flag)


def poissonized_coupling_lower(n: int, k: int, lam: float, rng: RngStream) -> CoupledSample:
    """Cloud on [0, nk] x {1..n}; fill each row up to exactly k points.

    When no row exceeds k points, fresh independent uniforms complete each
    row; by exchangeability the completed word is uniform, and it contains
    the cloud, so its weak chain length dominates the cloud's.
    """
    cloud = sample_poisson_cloud(n * k, n, lam, rng)
    flag = bool(np.all(np.diff(cloud.offsets) <= k))
    objects: dict = {"cloud": cloud, "word": None}
    if flag:
        completed = []
        for row in map(cloud.row, range(1, n + 1)):
            while row.size < k:
                extra = _uniform_positions(rng, k - row.size, n * k)
                row = np.unique(np.concatenate([row, extra]))
            completed.append(row)
        objects["word"] = _word_from_cloud_rows(np.concatenate(completed), n, k)
    return CoupledSample(objects, flag)


def group_heights(word: MultisetWord, group_size: int) -> MultisetWord:
    """Merge letter values in blocks of ``group_size``.

    Letters above group_size * floor(n / group_size) are dropped (there are
    at most k * group_size of them), every kept letter v maps to
    ceil(v / group_size), and the result is a uniform multiset word with
    floor(n / group_size) letters of multiplicity k * group_size.  The weak
    chain length grows by at most k * group_size under this map.
    """
    if not isinstance(group_size, numbers.Integral):
        raise ValueError(f"group size must be an integer, got group_size={group_size}")
    if group_size < 1:
        raise ValueError("group size must be >= 1")
    if group_size > word.n:
        raise ValueError("group size exceeds the number of letters")
    m = word.n // group_size
    kept = word.letters[word.letters <= group_size * m]
    return MultisetWord(n=m, k=word.k * group_size,
                        letters=(kept + group_size - 1) // group_size)
