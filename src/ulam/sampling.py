"""Seedable random generation for every random object used by the simulations.

All randomness flows through :func:`make_rng`.  A stream is identified by a
``(seed, stream_id)`` pair; the child key is a pure hash of the pair, so
replicas can be generated in parallel (one stream per replica) and still be
bit-reproducible across runs and platforms.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

# Streams are numpy Generators driven by counter-based Philox; the alias is
# the type used throughout the package.
RngStream = np.random.Generator

_SEED_LIMIT = 1 << 64


def make_rng(seed: int, stream_id: int = 0) -> RngStream:
    """Create the random stream identified by ``(seed, stream_id)``.

    The Philox key is the first 128 bits of SHA-256 over the two values
    packed as little-endian u64, so distinct stream ids derived from one
    master seed share no state, and the mapping is a documented pure
    function of its inputs.  Both values must lie in [0, 2**64): a larger
    one would otherwise alias the stream of its low 64 bits.
    """
    if seed < 0 or stream_id < 0:
        raise ValueError("seed and stream_id must be nonnegative")
    if seed >= _SEED_LIMIT or stream_id >= _SEED_LIMIT:
        raise ValueError(f"seed and stream_id must be below 2**64, got seed={seed}, "
                         f"stream_id={stream_id}")
    digest = hashlib.sha256(struct.pack("<QQ", seed, stream_id)).digest()
    key = int.from_bytes(digest[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class MultisetWord:
    """A word of length k*n over {1..n} in which each letter occurs exactly k times.

    The word is identified with the planar point set {(i, letters[i-1])}; the
    position index is the x coordinate and the letter is the row.
    """

    n: int
    k: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1 or self.k < 1:
            raise ValueError("n and k must be >= 1")
        if len(self.letters) != self.n * self.k:
            raise ValueError("word length must be k*n")
        counts = np.bincount(np.asarray(self.letters, dtype=np.int64), minlength=self.n + 1)
        if counts[0] != 0 or len(counts) > self.n + 1 or not np.all(counts[1:] == self.k):
            raise ValueError("each letter in 1..n must occur exactly k times")

    @property
    def size(self) -> int:
        return self.n * self.k


@dataclass(frozen=True, eq=False)
class PlanarPointSet:
    """Finite set of (x, row) points with x in (0, x_max] and row in {1..t_max}.

    Positions are stored per row, sorted ascending; duplicate (x, row) pairs
    are rejected because their multiplicity semantics under the chain orders
    would be ambiguous.
    """

    row_positions: tuple[np.ndarray, ...]
    x_max: float

    def __post_init__(self) -> None:
        if not 0 < self.x_max < np.inf:  # written so that NaN fails it too
            raise ValueError(f"x_max must be positive and finite, got {self.x_max}")
        rows = self.row_positions
        if any(xs.ndim != 1 for xs in rows):
            raise ValueError("row positions must be 1-d arrays")
        # All rows are checked at once on their concatenation; a bad pair
        # counts only when both of its points lie on the same row.
        flat = np.concatenate(rows) if rows else np.empty(0)
        if not flat.size:
            return
        ends = np.cumsum([xs.size for xs in rows])
        outside = np.flatnonzero(~((flat > 0) & (flat <= self.x_max)))
        if outside.size:
            row = int(np.searchsorted(ends, outside[0], side="right")) + 1
            raise ValueError(f"row {row}: positions must lie in (0, x_max]")
        bad = np.flatnonzero(np.diff(flat) <= 0)
        bad = bad[np.searchsorted(ends, bad, side="right")
                  == np.searchsorted(ends, bad + 1, side="right")]
        if bad.size:
            row = int(np.searchsorted(ends, bad[0], side="right"))
            lo, hi = (0 if row == 0 else ends[row - 1]), ends[row]
            if np.any(np.diff(flat[lo:hi]) < 0):
                raise ValueError(f"row {row + 1}: positions must be sorted ascending")
            raise ValueError(f"row {row + 1}: duplicate (x, row) point")

    @property
    def t_max(self) -> int:
        return len(self.row_positions)

    @property
    def size(self) -> int:
        return int(sum(xs.size for xs in self.row_positions))

    def row(self, i: int) -> np.ndarray:
        """Positions on row ``i`` (1-based)."""
        return self.row_positions[i - 1]

    def points(self) -> list[tuple[float, int]]:
        return [(float(x), i + 1) for i, xs in enumerate(self.row_positions) for x in xs]

    def chain_rows(self) -> np.ndarray:
        """Row indices sorted by x ascending, ties broken by row descending.

        With this tie-break an equal-x pair can never chain under either
        partial order, so the planar problem reduces to a subsequence
        problem on the returned row sequence.
        """
        xs = np.concatenate([np.asarray(p, dtype=float) for p in self.row_positions]) \
            if self.row_positions else np.empty(0)
        rows = np.concatenate(
            [np.full(p.size, i + 1, dtype=np.int64) for i, p in enumerate(self.row_positions)]
        ) if self.row_positions else np.empty(0, dtype=np.int64)
        if xs.size == 0:
            return rows
        order = np.lexsort((-rows, xs))
        return rows[order]

    def restrict(self, x_lo: float = 0.0, x_hi: float | None = None) -> "PlanarPointSet":
        """Sub point set with positions in (x_lo, x_hi]."""
        hi = self.x_max if x_hi is None else x_hi
        rows = tuple(xs[(xs > x_lo) & (xs <= hi)] for xs in self.row_positions)
        return PlanarPointSet(rows, self.x_max)

    @staticmethod
    def from_points(points, x_max: float, t_max: int) -> "PlanarPointSet":
        rows: list[list[float]] = [[] for _ in range(t_max)]
        for x, r in points:
            if not 1 <= r <= t_max:
                raise ValueError("row out of range")
            rows[r - 1].append(float(x))
        return PlanarPointSet(tuple(np.sort(np.asarray(r, dtype=float)) for r in rows), x_max)


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


def _uniform_positions(rng: RngStream, count: int, x: float) -> np.ndarray:
    """``count`` distinct sorted uniforms in (0, x]; exact duplicates are re-drawn."""
    pos = x * (1.0 - rng.random(count))
    pos = np.unique(pos)
    while pos.size < count:
        extra = x * (1.0 - rng.random(count - pos.size))
        pos = np.unique(np.concatenate([pos, extra]))
    return pos


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
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return MultisetWord(n=n, k=k, letters=tuple(_shuffled_letters(n, k, rng).tolist()))


def sample_poisson_cloud(x: float, t: int, lam: float, rng: RngStream) -> PlanarPointSet:
    """Independent rows: row i carries Poisson(lam*x) points, i.i.d. uniform in (0, x].

    Draw order is fixed (all counts first, then positions row by row) so a
    given stream always yields the same cloud.  The positions of all rows
    come from one ``random`` call, which draws exactly what one call per row
    would; the rows are views of that buffer.  An exact tie between
    neighbours (a 2**-53 event per pair) rewinds the stream and replays the
    per-row draws, whose re-draw of duplicates fixes the stream from there.
    """
    if not (0 < x < np.inf and lam > 0):  # written so that NaN fails it too
        raise ValueError(f"x and lam must be positive and x finite, got x={x}, lam={lam}")
    if t < 1:
        raise ValueError("t must be >= 1")
    counts = rng.poisson(lam * x, size=t)
    before = rng.bit_generator.state
    flat = x * (1.0 - rng.random(int(counts.sum())))
    ends = np.cumsum(counts)
    rows = tuple(flat[e - c:e] for c, e in zip(counts, ends))
    for xs in rows:
        xs.sort()
    if np.any(flat[1:] == flat[:-1]):
        rng.bit_generator.state = before
        rows = tuple(_uniform_positions(rng, int(c), x) for c in counts)
    # the draw is sorted, distinct and in (0, x] by construction: no re-check
    cloud = object.__new__(PlanarPointSet)
    cloud.__dict__.update(row_positions=rows, x_max=float(x))
    return cloud


def sample_boundary(x: float, t: int, rates, rng: RngStream) -> BoundarySample:
    """Sources and sinks for a stationary boundary process.

    Sources form a PPP with the source rate on (0, x]; sinks are i.i.d. per
    row: Bernoulli(p) for the strict variant, Geometric_{>=0}(1 - beta*) for
    the weak one.  Sources are drawn before sinks.
    """
    if x <= 0 or t < 1:
        raise ValueError("x must be positive and t >= 1")
    n_src = int(rng.poisson(rates.source_rate * x))
    sources = _uniform_positions(rng, n_src, x)
    if rates.variant == "strict":
        sinks = (rng.random(t) < rates.sink_param).astype(np.int64)
    else:
        # numpy's geometric counts trials in {1,2,...}; shift to {0,1,...}
        sinks = rng.geometric(1.0 - rates.sink_param, size=t).astype(np.int64) - 1
    return BoundarySample(sources=sources, sinks=sinks)
