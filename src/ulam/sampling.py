"""Seedable random generation for every random object used by the simulations.

All randomness flows through :func:`make_rng`.  A stream is identified by a
``(seed, stream_id)`` pair; the child key is a pure hash of the pair, so
replicas can be generated in parallel (one stream per replica) and still be
bit-reproducible across runs and platforms.
"""
from __future__ import annotations

import hashlib
import numbers
import struct
from dataclasses import dataclass

import numpy as np

from .bounds import _check_positive

# Streams are numpy Generators driven by counter-based Philox; the alias is
# the type used throughout the package.
RngStream = np.random.Generator

_SEED_LIMIT = 1 << 64
# numpy's Poisson sampler rejects a larger mean ("lam value too large")
_POISSON_MAX = 9.223372006484771e18


def make_rng(seed: int, stream_id: int = 0) -> RngStream:
    """Create the random stream identified by ``(seed, stream_id)``.

    The Philox key is the first 128 bits of SHA-256 over the two values
    packed as little-endian u64, so distinct stream ids derived from one
    master seed share no state, and the mapping is a documented pure
    function of its inputs.  Both values must be integers in [0, 2**64): a
    larger one would otherwise alias the stream of its low 64 bits.
    """
    if not (isinstance(seed, numbers.Integral) and isinstance(stream_id, numbers.Integral)):
        raise ValueError(f"seed and stream_id must be integers, got seed={seed}, "
                         f"stream_id={stream_id}")
    if seed < 0 or stream_id < 0:
        raise ValueError("seed and stream_id must be nonnegative")
    if seed >= _SEED_LIMIT or stream_id >= _SEED_LIMIT:
        raise ValueError(f"seed and stream_id must be below 2**64, got seed={seed}, "
                         f"stream_id={stream_id}")
    digest = hashlib.sha256(struct.pack("<QQ", seed, stream_id)).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, eq=False)
class MultisetWord:
    """A word of length k*n over {1..n} in which each letter occurs exactly k times.

    The word is identified with the planar point set {(i, letters[i-1])}; the
    position index is the x coordinate and the letter is the row.  ``letters``
    is stored as a read-only int64 array.
    """

    n: int
    k: int
    letters: np.ndarray

    def __post_init__(self) -> None:
        _check_positive(n=self.n, k=self.k, integer=True)
        letters = np.asarray(self.letters)
        if letters.shape != (self.n * self.k,) or letters.dtype.kind not in "iu":
            raise ValueError("the word must be k*n integer letters")
        letters = letters.astype(np.int64, copy=False).view()
        letters.flags.writeable = False
        object.__setattr__(self, "letters", letters)
        counts = np.bincount(letters, minlength=self.n + 1)
        if counts[0] != 0 or len(counts) > self.n + 1 or not np.all(counts[1:] == self.k):
            raise ValueError("each letter in 1..n must occur exactly k times")

    @property
    def size(self) -> int:
        return self.n * self.k


@dataclass(frozen=True, eq=False)
class PlanarPointSet:
    """Finite set of (x, row) points with x in (0, x_max] and row in {1..t_max}.

    The positions are stored flat, sorted by row, then x: row i is
    ``xs[offsets[i - 1]:offsets[i]]``, so ``offsets`` runs from 0 to
    ``xs.size`` in t_max steps.  Duplicate (x, row) pairs are rejected
    because their multiplicity semantics under the chain orders would be
    ambiguous.
    """

    xs: np.ndarray
    offsets: np.ndarray
    x_max: float

    def __post_init__(self) -> None:
        if not 0 < self.x_max < np.inf:  # written so that NaN fails it too
            raise ValueError(f"x_max must be positive and finite, got {self.x_max}")
        xs, ends = self.xs, self.offsets
        if (xs.ndim != 1 or ends.ndim != 1 or ends.dtype.kind not in "iu" or not ends.size
                or ends[0] != 0 or ends[-1] != xs.size or np.any(ends[1:] < ends[:-1])):
            raise ValueError("offsets must run from 0 to xs.size without decreasing")
        outside = np.flatnonzero(~((xs > 0) & (xs <= self.x_max)))
        if outside.size:
            raise ValueError(f"row {self._row_of(outside[0])}: positions must lie in "
                             "(0, x_max]")
        # a bad pair counts only when both of its points lie on the same row
        bad = np.flatnonzero(np.diff(xs) <= 0)
        bad = bad[self._row_of(bad) == self._row_of(bad + 1)]
        if bad.size:
            row = int(self._row_of(bad[0]))
            if np.any(np.diff(self.row(row)) < 0):
                raise ValueError(f"row {row}: positions must be sorted ascending")
            raise ValueError(f"row {row}: duplicate (x, row) point")

    def _row_of(self, index):  # the 1-based row of each flat index
        return np.searchsorted(self.offsets, index, side="right")

    @property
    def t_max(self) -> int:
        return self.offsets.size - 1

    @property
    def size(self) -> int:
        return self.xs.size

    def row(self, i: int) -> np.ndarray:
        """Positions on row ``i`` (1-based)."""
        return self.xs[self.offsets[i - 1]:self.offsets[i]]

    def chain_rows(self) -> np.ndarray:
        """Row indices sorted by x ascending, ties broken by row descending.

        With this tie-break an equal-x pair can never chain under either
        partial order, so the planar problem reduces to a subsequence
        problem on the returned row sequence.
        """
        return _chain_order(self.xs, self._row_of(np.arange(self.size)))

    @staticmethod
    def from_points(points, x_max: float, t_max: int) -> "PlanarPointSet":
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        xs, rows = pts[:, 0], pts[:, 1]
        if not np.all((rows >= 1) & (rows <= t_max) & (rows == np.floor(rows))):
            raise ValueError("rows must be integers in 1..t_max")
        order = np.lexsort((xs, rows))
        offsets = np.searchsorted(rows[order], np.arange(t_max + 1), side="right")
        return PlanarPointSet(xs[order], offsets, x_max)


@dataclass(frozen=True, eq=False)
class BoundarySample:
    """Boundary data for a particle process run.

    ``sources`` are positions on the bottom edge (row 0), strictly increasing.
    ``sinks[i]`` is the sink multiplicity at (0, i+1); the strict process
    only ever uses multiplicities 0 or 1.
    """

    sources: np.ndarray
    sinks: np.ndarray

    def __post_init__(self) -> None:
        if self.sources.size > 1 and np.any(np.diff(self.sources) <= 0):
            raise ValueError("source positions must be strictly increasing")
        if self.sinks.size and (np.any(self.sinks < 0) or self.sinks.dtype.kind not in "iu"):
            raise ValueError("sink multiplicities must be nonnegative integers")

    @property
    def total_sinks(self) -> int:
        return int(self.sinks.sum())


def _check_boundary(boundary: BoundarySample, cloud: PlanarPointSet, variant: str) -> None:
    """Reject what neither boundary engine takes: a sink count other than one
    per row of the cloud, a source outside [0, x_max] (NaN included) and, in
    the strict variant, a sink multiplicity above 1."""
    if boundary.sinks.size != cloud.t_max:
        raise ValueError("need one sink multiplicity per row")
    sources = boundary.sources
    if not np.all((sources >= 0) & (sources <= cloud.x_max)):
        raise ValueError("source positions must lie in [0, x_max]")
    if variant == "strict" and boundary.sinks.size and int(boundary.sinks.max()) > 1:
        raise ValueError("strict variant admits sink multiplicities 0 or 1 only")


def _uniform_positions(rng: RngStream, count: int, x: float) -> np.ndarray:
    """``count`` distinct sorted uniforms in (0, x]; exact duplicates are re-drawn."""
    pos = x * (1.0 - rng.random(count))
    pos = np.unique(pos)
    while pos.size < count:
        extra = x * (1.0 - rng.random(count - pos.size))
        pos = np.unique(np.concatenate([pos, extra]))
    return pos


def _chain_order(xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` sorted by ``xs`` ascending, ties broken by row descending."""
    return rows[np.lexsort((-rows, xs))]


def _check_word(n: int, k: int) -> None:
    """Reject n and k unless positive integers with n*k below 2**63: numpy
    counts a word's letters in an int64."""
    _check_positive(n=n, k=k, integer=True)
    if int(n) * int(k) >= 2**63:  # int: a numpy product would wrap
        raise ValueError(f"n*k must be below 2**63, got n={n}, k={k}")


def _shuffled_letters(n: int, k: int, rng: RngStream) -> np.ndarray:
    """(1^k, ..., n^k) in uniform order: the letters of every word sampler."""
    letters = np.repeat(np.arange(1, n + 1, dtype=np.int64), k)
    rng.shuffle(letters)
    return letters


def sample_uniform_permutation(n: int, rng: RngStream) -> MultisetWord:
    """Uniform permutation of {1..n} as a multiset word with k=1."""
    return sample_uniform_multiset_permutation(n, 1, rng)


def sample_uniform_multiset_permutation(n: int, k: int, rng: RngStream) -> MultisetWord:
    """Uniform word over {1..n} with each letter repeated exactly k times.

    Shuffling the fixed multiset (1^k, ..., n^k) is uniform over the
    multinomial(kn; k,...,k) distinct words because every word corresponds
    to the same number (k!)^n of shuffle outcomes.
    """
    _check_word(n, k)
    return MultisetWord(n=n, k=k, letters=_shuffled_letters(n, k, rng))


def _check_geometry(x: float, t: int, lam: float | None = None,
                    source_rate: float | None = None) -> None:
    """Reject x (and lam, if given) unless positive and finite, a Poisson mean
    x*lam or x*source_rate past numpy's ceiling, and t unless a positive
    integer."""
    _check_positive(**({"x": x} if lam is None else {"x": x, "lam": lam}))
    for name, rate in (("lam", lam), ("source_rate", source_rate)):
        if rate is not None and x * rate >= _POISSON_MAX:
            raise ValueError(f"x*{name} must be below {_POISSON_MAX!r}, the largest "
                             f"Poisson mean numpy draws, got x={x}, {name}={rate}")
    if not isinstance(t, numbers.Integral):
        raise ValueError(f"t must be an integer, got t={t}")
    if t < 1:
        raise ValueError("t must be >= 1")


def sample_poisson_cloud(x: float, t: int, lam: float, rng: RngStream) -> PlanarPointSet:
    """Independent rows: row i carries Poisson(lam*x) points, i.i.d. uniform in (0, x].

    Draw order is fixed (all counts first, then positions row by row) so a
    given stream always yields the same cloud.  The positions of all rows
    come from one ``random`` call, which draws exactly what one call per row
    would, and each row's slice is sorted in place.  An exact tie between
    neighbours (a 2**-53 event per pair) rewinds the stream and replays the
    per-row draws, whose re-draw of duplicates fixes the stream from there.
    """
    _check_geometry(x, t, lam)
    counts = rng.poisson(lam * x, size=t)
    before = rng.bit_generator.state
    xs = x * (1.0 - rng.random(int(counts.sum())))
    offsets = np.concatenate(([0], np.cumsum(counts)))
    for lo, hi in zip(offsets[:-1].tolist(), offsets[1:].tolist()):
        xs[lo:hi].sort()
    if np.any(xs[1:] == xs[:-1]):
        rng.bit_generator.state = before
        xs = np.concatenate([np.empty(0), *(_uniform_positions(rng, c, x) for c in counts)])
    # the draw is sorted, distinct and in (0, x] by construction: no re-check
    cloud = object.__new__(PlanarPointSet)
    cloud.__dict__.update(xs=xs, offsets=offsets, x_max=float(x))
    return cloud


def sample_boundary(x: float, t: int, rates, rng: RngStream) -> BoundarySample:
    """Sources and sinks for a stationary boundary process.

    Sources form a PPP with the source rate on (0, x]; sinks are i.i.d. per
    row: Bernoulli(p) for the strict variant, Geometric_{>=0}(1 - beta*) for
    the weak one.  Sources are drawn before sinks.
    """
    _check_geometry(x, t, source_rate=rates.source_rate)
    n_src = int(rng.poisson(rates.source_rate * x))
    sources = _uniform_positions(rng, n_src, x)
    if rates.variant == "strict":
        sinks = (rng.random(t) < rates.sink_param).astype(np.int64)
    else:
        # numpy's geometric counts trials in {1,2,...}; shift to {0,1,...}
        sinks = rng.geometric(1.0 - rates.sink_param, size=t).astype(np.int64) - 1
    return BoundarySample(sources=sources, sinks=sinks)
