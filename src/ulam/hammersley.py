"""Semi-discrete Hammersley particle dynamics for the two chain orders.

Particles on [0, x] are the jump locations of y -> (longest chain length in
[0, y] x {1..t}); one time step feeds one row of points.  The step rules are
the unique ones consistent with that description:

strict step (one row, optional sink):
  * with a sink and at least one particle, the leftmost particle exits and
    every row point below its old position becomes unavailable;
  * each remaining particle, left to right, moves to the smallest row point
    strictly inside the gap to its left neighbour (old positions bound the
    gaps), staying put if the gap is empty; all other points in the gap are
    swallowed;
  * at most one particle is born, at the smallest row point beyond the
    pre-step maximum.

weak step (one row, sink multiplicity s):
  * min(s, #particles) leftmost particles exit; no points are invalidated;
  * each remaining particle, left to right, moves to the smallest
    still-available row point below its old position, consuming only that
    point;
  * every unconsumed row point spawns a new particle.  (Points below the old
    maximum can be born too: a pair of same-row points left of a particle
    already forms a weak chain of length two, so both locations must carry
    particles afterwards.)

Equal x follows the chain order of `PlanarPointSet.chain_rows` (ties by row
descending): a row point at the x of a particle, which comes from an earlier
row or is a source, ranks below it.  "Below" a particle includes its x.

With boundary data, sources are the initial particle configuration and the
particle count plus the total sink multiplicity equals the boundary chain
length; without boundary the count equals the plain chain length.  Those
identities are what `verify_line_identity` checks.

Each order has one scalar rule, for every size.  The weak rule is a greedy
loop in Python, so it steps on lists: `run_dynamics` turns the cloud and the
particles into lists once, and the rule takes slices of them instead of a
numpy array to convert per row (the list takes about four times the array's
memory).  The strict rule steps on arrays, with one search, one gather and
one minimum per row.  A list version of the strict rule was measured and not
taken: on a 2-core Xeon (two single runs of a whole cloud at lam = 1) it was
6-8x as fast at x = t = 10, about even at x = t = 100 to 300, and 0.15-0.18x
as fast at x = t = 3000 (1.2-1.3 s against 0.18-0.24 s), so it would have
lost the 1e8-point performance gate.  These rules are the oracle of the
replica-batched slab below and share no code with it.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bounds import BoundaryRates, _check_variant
from .sampling import (BoundarySample, PlanarPointSet, RngStream, _check_boundary,
                       _check_geometry, sample_boundary, sample_poisson_cloud)
from .subsequences import lis_strict, lnds_weak, longest_chain_with_boundary


@dataclass(frozen=True, eq=False)
class ParticleState:
    """Sorted particle positions in [0, x_max] plus the cumulative exit count."""

    positions: np.ndarray
    exits: int
    x_max: float

    def __post_init__(self) -> None:
        if self.exits < 0:
            raise ValueError("exits must be nonnegative")
        p = self.positions
        # sorted with both ends inside lies inside: only a fault pays the full check
        if p.size and not (p[0] >= 0 and p[-1] <= self.x_max and np.all(np.diff(p) > 0)):
            if not np.all((p >= 0) & (p <= self.x_max)):
                raise ValueError("positions must lie in [0, x_max]")
            raise ValueError("positions must be strictly increasing")

    @property
    def count(self) -> int:
        return int(self.positions.size)


def _strict_rule(y: np.ndarray, pts: np.ndarray, sink: bool) -> tuple[np.ndarray, int]:
    """One strict step on plain arrays: (new positions, number of exits)."""
    n_exit = 0
    if sink:
        if y.size:
            n_exit = 1
            # the exit swallows everything below the old position
            pts = pts[pts.searchsorted(y[0], side="right"):]
            y = y[1:]
        else:
            # A sink with no particle to absorb still swallows the whole row:
            # the sink column grows by one, and a strict chain cannot leave it
            # sideways within the same row, so no point of this row can raise
            # the chain length and none may be born.
            pts = pts[:0]
    # Candidate j is the least point above particle j - 1 (above 0 for j = 0,
    # as every point is): particle j moves there if it lies below particle j,
    # and the last candidate, the least point above the old maximum, is born.
    # The +inf pad stands for "no such point".
    at = np.concatenate(([0], pts.searchsorted(y, side="right")))
    cand = np.concatenate((pts, [np.inf]))[at]
    new_y = np.minimum(cand[:-1], y)
    if cand[-1] < np.inf:
        new_y = np.concatenate((new_y, cand[-1:]))
    return new_y, n_exit


def _weak_rule(y: list[float], pts: list[float], sink: int) -> tuple[list[float], int]:
    """One weak step on lists: (new positions, number of exits)."""
    n_exit = min(sink, len(y))
    i, r = 0, len(pts)
    new_pos: list[float] = []
    for pos in y[n_exit:]:
        if i < r and pts[i] <= pos:
            new_pos.append(pts[i])
            i += 1
        else:
            new_pos.append(pos)
    new_pos.extend(pts[i:])  # every unconsumed point is born
    return new_pos, n_exit


@dataclass(frozen=True, eq=False)
class DynamicsRecord:
    """Outcome of running the dynamics over a full cloud."""

    state: ParticleState
    counts: np.ndarray       # particle count after each step, length t_max
    exit_counts: np.ndarray  # cumulative exits after each step
    cloud: PlanarPointSet
    boundary: BoundarySample | None
    events: list | None = None  # (step, particle_index, position, event)


def _diff_events(step: int, old_pos, new_pos, n_exit: int, events: list) -> None:
    for j in range(n_exit):
        events.append((step, j, float(old_pos[j]), "exit"))
    rem = old_pos[n_exit:]
    for j in range(len(rem)):
        kind = "move" if new_pos[j] != rem[j] else "stay"
        events.append((step, n_exit + j, float(new_pos[j]), kind))
    for j in range(len(rem), len(new_pos)):
        events.append((step, j, float(new_pos[j]), "birth"))


def run_dynamics(cloud: PlanarPointSet, boundary: BoundarySample | None,
                 variant: str, trace: bool = False) -> DynamicsRecord:
    """Apply the deterministic dynamics of one variant to a given cloud: the
    one entry into the scalar step rules.

    Input is checked once, here (the cloud checked its rows when built).  The
    rows then step on plain arrays (strict) or on slices of one list of the
    cloud's positions (weak), and the final state is built once.
    """
    _check_variant(variant)
    strict = variant == "strict"
    if boundary is not None:
        _check_boundary(boundary, cloud, variant)
        y = boundary.sources.astype(float)
        sinks = boundary.sinks.tolist()
    else:
        y = np.empty(0)
        sinks = [0] * cloud.t_max
    if strict:
        rule, xs = _strict_rule, cloud.xs
    else:
        rule, xs, y = _weak_rule, cloud.xs.tolist(), y.tolist()
    ends = cloud.offsets.tolist()
    exits = 0
    events = [] if trace else None
    counts, exit_counts = [], []
    for step, sink in enumerate(sinks, start=1):
        new_y, n_exit = rule(y, xs[ends[step - 1]:ends[step]], sink)
        if trace:
            _diff_events(step, y, new_y, n_exit, events)
        y = new_y
        exits += n_exit
        counts.append(len(y))
        exit_counts.append(exits)
    state = ParticleState(np.asarray(y, dtype=float), exits, cloud.x_max)
    return DynamicsRecord(state, np.array(counts, dtype=np.int64),
                          np.array(exit_counts, dtype=np.int64), cloud, boundary,
                          events)


# --- replica-batched row steps ----------------------------------------------
#
# The particles after row i are the patience tails of rows 1..i (Hammersley
# 1972; Aldous & Diaconis 1995), so a cloud's final particle count is its
# chain length; a word is the cloud {(position, letter)}, a row per letter.
# A boundary is points too (as in `longest_chain_with_boundary`): sources in
# row 0 and each sink unit on the left edge of its row, so the chain length
# is the particle count plus the total sinks.  The kernel counts chains only,
# of many replicas at once, a few numpy calls per row, on signed keys
#     low + (replica << shift) + (value of the point in its replica),
# low = iinfo(dtype).min, whose values lie strictly between 0 and
# (1 << shift) - 1 and order the points as their x do.  A word's values are
# its positions 1..size, with shift (size + 1).bit_length(), and its keys
# are int32 while R << shift <= 2**32 for R replicas, else int64.  A cloud's
# keys are int64 with shift 58 and follow one rule, equal x, equal value:
#     1 .. total                   the sink units, in row order;
#     2**32 + bits(x) - bits(f)    every point, sources included, read off
#                                  the IEEE bits of x, which order
#                                  nonnegative doubles as their values do,
# with f = fl(x_max * 2**-53).  A cloud holds fewer than 2**32 keys, so its
# sink units lie below its points.  The samplers draw x = x_max * (1 - u),
# u < 1 a multiple of 2**-53, so no point lies below f: a precondition,
# unchecked, as the one caller, `montecarlo._poisson_chunk`, keys only
# what they draw.  bits(x_max) - bits(f) is below 54 * 2**52 (53 binades,
# subnormal x_max included), so every value lies below 2**58 - 1 and 64
# replicas fill int64.
# A row's x are distinct, and so are a replica's particles (the end of a
# longer chain lies at a greater x), so a tie is a row point against a
# particle of an earlier row (or a source), which the chain order (ties by
# row descending, as in `chain_rows`) puts above the point.  Each step ranks
# such a tie so: the point side searches with side="left" (the point falls
# into the particle's cell, below it), the particle side with side="right"
# (a point tied with cell j - 1 is not above it).  The callers are the
# estimators' chunk workers, whose batches `montecarlo._chunks` sizes.
#
# Layout: a cloud's keys go into one replica-major int64 buffer as the cloud
# is drawn: its sink units, its sources (row 0), then its points row by row,
# each point one add to the bits of x of low + (r << 58) + 2**32 - bits(f),
# taken modulo 2**64 (numpy's int64 add wraps the same way).  One table of
# each cloud's sink units and points in each row, summed in the buffer's
# order and along each row, places every segment.  Row i of the batch is gathered
# from the buffer just before it steps, replica by replica, each replica's
# sink units of row i before its row-i points.  A word's rows are
# contiguous slices of its key array.
#
# The slab: row r of an (R, C) array holds replica r's particles ascending,
# padded with low + ((r + 1) << shift) - 1, between replica r's keys and
# r + 1's.  The flat slab is sorted, so one searchsorted of a row's points
# (by replica, then value) gives each point its cell r*C + g, g counting the
# particles replica r has below it.  Row 0 (the sources) is born; every row
# with a key is stepped, each by one write of points into cells:
#   strict: the first point of a cell lies in the gap of the cell's particle
#     and moves it there or, in the first padding cell, is born; the cell's
#     other points are swallowed.  (A sink unit lies below every point of
#     its row, so it takes the leftmost particle's place above the earlier
#     sink units and swallows the row points below that particle.)
#     A replica gains at most one particle a strict row, so a row with more
#     keys than live cells (R (live + 1), live bounding every slab row's
#     particles) is stepped from the particle side instead, by the same
#     rule: cell j takes the least of its key and the least row point above
#     cell j - 1's key.  Cell 0's left neighbour is low + (r << shift),
#     below every key of replica r; a birth lands in the first padding cell,
#     and the next replica's keys and the sentinel iinfo.max, "no such
#     point", lie at or above every pad, so they never win.
#   weak: let a replica's row points p_0 < p_1 < ... have g_0, g_1, ...
#     particles below.  The greedy matching moves each particle to the least
#     free point below it; a particle stays, in its cell, exactly when every
#     point below it is taken.  With particles as closing and points as
#     opening brackets, max_{i<=m} (g_i - i) particles below p_m stay, and
#     the other new particles below p_m are p_0..p_{m-1}, so p_m lands in
#     cell m + max_{i<=m} (g_i - i), over the particle that takes it or,
#     left over, born above the new maximum.  In global cells and point
#     indices that is one cumulative maximum over the whole row.
# Capacity: with at most L particles and m row points per replica, the
# writes stay below cell L + m of their slab row, and the cumulative maximum
# restarts at each replica, if C > L + m.  The layout gives each row's m (a
# cloud's sources row is often its longest); the slab starts at twice the
# largest and doubles when C <= 2 (L + m), so L is counted only every few
# rows.

_CLOUD_SHIFT = 58
_CLOUD_REPLICAS = 64  # the last pad, low + (64 << 58) - 1, is iinfo(int64).max
_POINTS = 1 << 32  # a cloud's keys are fewer: its sink units lie below it, its points from it up
_LOW = int(np.iinfo(np.int64).min)


def _key_dtype(reps: int, shift: int):
    if reps << shift > 1 << 64:
        raise ValueError("too many points in one batch for int64 keys")
    return np.int64 if reps << shift > 1 << 32 else np.int32


def _slab_counts(rows, sizes: np.ndarray, shift: int, most, dtype,
                 variant: str) -> np.ndarray:
    """Chain length of each replica, given their sizes.  ``rows`` yields
    row 0, 1, ... of the batch, each a ``dtype`` array ordered by replica,
    then key, with at most ``most[i]`` points of one replica in row i; row 0
    (a cloud's sources) is born whole, and every other row chains in
    ``variant``.  Empty replicas take no slab row.  A strict row steps from
    the point side (each point finds its cell) or, with more points than
    live cells, from the particle side (each cell finds its least point
    above its left neighbour, cell 0's being just below its replica's
    keys); both write the same slab."""
    strict = variant == "strict"
    owners = np.flatnonzero(sizes)
    # in int64, cast once: int32 keys may have replicas whose r << shift is past it
    edge = (owners << shift) + int(np.iinfo(dtype).min)  # cell 0's left neighbour
    pad = (edge[:, None] + ((1 << shift) - 1)).astype(dtype)
    edge = edge.astype(dtype)
    most = np.asarray(most).tolist()
    slab = np.repeat(pad, 2 * max(most, default=0), axis=1)
    ramp = np.arange(0)
    top = np.iinfo(dtype).max  # above every key: "no such point"
    live = 0  # an upper bound on every slab row's particles
    for i, (pts, m) in enumerate(zip(rows, most)):
        if not pts.size:
            continue
        if live + m >= slab.shape[1]:
            live = int((slab < pad).sum(1).max())
            if 2 * (live + m) >= slab.shape[1]:
                slab = np.concatenate((slab, np.broadcast_to(pad, slab.shape)), axis=1)
        flat = slab.reshape(-1)
        if strict and i and pts.size > slab.shape[0] * (live + 1):
            # from the particle side: cell j takes the least point above cell j - 1
            cells = slab[:, :live + 1]
            left = np.empty_like(cells)
            left[:, 0] = edge
            left[:, 1:] = cells[:, :-1]
            above = np.append(pts, top)
            np.minimum(cells, above[np.searchsorted(pts, left, "right")], out=cells)
        elif strict and i:  # a cell's points all lie below its key: the least wins
            np.minimum.at(flat, np.searchsorted(flat, pts), pts)
        else:
            if ramp.size < pts.size:
                ramp = np.arange(pts.size)
            at = np.searchsorted(flat, pts)
            at -= ramp[:at.size]
            np.maximum.accumulate(at, out=at)
            at += ramp[:at.size]
            flat[at] = pts
            del at  # not held while the slab grows
        live += 1 if strict and i else m
    counts = np.zeros(sizes.size, dtype=np.int64)
    counts[owners] = (slab < pad).sum(1)
    return counts


def _chain_keys(draws, reserve: int = 0) -> tuple:
    """The slab layout of a batch of clouds (its rows, each cloud's number
    of keys, the shift, the most keys of one cloud in each row and the
    dtype) and each cloud's total sinks.  ``draws`` yields one
    ``(cloud, boundary)`` pair a replica, the boundary None or with a sink
    for each row of its cloud; its sources are row 0 and its sink units
    points below them.  Every point and source lies in
    [x_max * 2**-53, x_max], as every drawn one does (unchecked).  Each
    pair's keys are appended to one buffer as it is drawn, and the pair is
    dropped; the buffer takes ``reserve`` keys once the first pair is
    accepted, and a quarter more whenever it overflows.  The rows are
    gathered from it one at a time, as the slab steps them."""
    buf = np.empty(0, np.int64)
    used, placed = 0, []
    for r, (cloud, b) in enumerate(draws):
        if r == _CLOUD_REPLICAS:
            raise ValueError(f"a batch of cloud keys holds at most {_CLOUD_REPLICAS} clouds, "
                             f"got {r + 1}")
        sources = np.empty(0) if b is None else b.sources
        units = np.empty(0, np.int64) if b is None else b.sinks
        total = int(units.sum())
        start = total + sources.size  # where the cloud's points begin in its keys
        size = start + cloud.size
        if size >= _POINTS:
            raise ValueError(f"a cloud of 2**32 keys or more cannot be keyed: {cloud.size} "
                             f"points, {sources.size} sources and {total} sink units")
        if used + size > buf.size:
            grown = np.empty(max(used + size, reserve, buf.size + buf.size // 4), np.int64)
            grown[:used] = buf[:used]
            buf = grown
        out, base = buf[used:used + size], _LOW + (r << _CLOUD_SHIFT)
        out[:total] = np.arange(base + 1, base + total + 1)
        lift = base + _POINTS - int(np.float64(cloud.x_max * 2.0 ** -53).view(np.int64))
        lift = np.int64((lift - _LOW) % (1 << 64) + _LOW)  # into int64: the adds wrap back
        np.add(sources.view(np.int64), lift, out=out[total:start])
        np.add(cloud.xs.view(np.int64), lift, out=out[start:])
        placed.append((units, sources.size, np.diff(cloud.offsets)))
        used += size
    # lens[i, r]: cloud r's sink units and points in row i.  No segment,
    # and no place in the buffer, is past it: int32 unless it holds 2**31 keys.
    reps, dtype = len(placed), np.int32 if used < 1 << 31 else np.int64
    height = max((counts.size + 1 for *_, counts in placed), default=1)
    lens = np.zeros((height, reps, 2), dtype)
    for r, (units, n_sources, counts) in enumerate(placed):
        lens[1:units.size + 1, r, 0] = units
        lens[0, r, 1] = n_sources
        lens[1:counts.size + 1, r, 1] = counts
    del placed  # the table, its cumulative sums and the lifts: 33 bytes a row a cloud at most
    sizes, most, totals = lens.sum((0, 2)), lens.sum(2).max(1, initial=0), lens.sum((1, 2))
    sinks = lens[..., 0].sum(0)
    # A key's place in the buffer less its place in its row: the cumsum in
    # the buffer's order (cloud, units then points, row) less the cumsum
    # along the row, both inclusive.
    ahead = np.cumsum(lens.transpose(1, 2, 0), dtype=dtype)
    counts = lens.reshape(height, 2 * reps)
    lifts = np.cumsum(counts, axis=1, dtype=dtype)
    along = lifts.reshape(height, reps, 2)
    np.subtract(ahead.reshape(reps, 2, height).transpose(2, 0, 1), along, out=along)
    del ahead, along, lens
    lifts = lifts.astype(np.int64, copy=False)  # an int64 index gathers faster

    def rows():
        for lift, c, n in zip(lifts, counts, totals.tolist()):
            row = np.repeat(lift, c)
            row += np.arange(n)
            row = buf[row]  # the keys take the place of their index
            yield row

    return rows(), sizes, _CLOUD_SHIFT, most, np.int64, sinks


def _word_counts(words, reps: int, n: int, k: int, variant: str) -> np.ndarray:
    """``lis_strict`` or ``lnds_weak`` of each of the ``reps`` words of the
    iterable ``words``, multiset words over 1..n with each letter k times
    (unchecked: the estimator draws them).  A stable sort of a word (by
    radix, in its smallest letter dtype) lists the positions of each letter,
    its row, straight into the word's key columns, so that words advance
    together as clouds and each is dropped once laid out."""
    size = n * k
    shift = (size + 1).bit_length()  # positions 1..size, below the pad value
    dtype = _key_dtype(reps, shift)
    low = int(np.iinfo(dtype).min) + 1  # position 0 keys as 1
    keys = np.empty((n, reps, k), dtype=dtype)
    small = np.min_scalar_type(n)
    for r, word in enumerate(words):
        word = np.asarray(word).astype(small, copy=False)
        keys[:, r] = np.argsort(word, kind="stable").reshape(n, k)
        keys[:, r] += low + (r << shift)
    rows = itertools.chain((np.empty(0, dtype),), keys.reshape(n, -1))  # no sources
    return _slab_counts(rows, np.full(reps, size), shift, [0] + [k] * n, dtype, variant)


def run_process(x: float, t: int, lam: float, variant: str,
                rates: BoundaryRates | None, rng: RngStream,
                trace: bool = False) -> DynamicsRecord:
    """Sample a cloud (and boundary, if rates are given) and run the dynamics.

    Draw order is cloud first, then boundary, so runs are reproducible from
    the stream alone.
    """
    _check_variant(variant)
    if rates is not None:  # a rejected boundary must not pay for its cloud
        _check_geometry(x, t, lam, source_rate=rates.source_rate)
        if rates.variant != variant:
            raise ValueError("rates variant does not match process variant")
    cloud = sample_poisson_cloud(x, t, lam, rng)
    boundary = None if rates is None else sample_boundary(x, t, rates, rng)
    return run_dynamics(cloud, boundary, variant, trace=trace)


def verify_line_identity(cloud: PlanarPointSet, boundary: BoundarySample | None,
                         variant: str) -> bool:
    """Check particle count == chain length (plus total sinks with boundary)."""
    rec = run_dynamics(cloud, boundary, variant)
    if boundary is None:
        expected = lis_strict(cloud) if variant == "strict" else lnds_weak(cloud)
        return rec.state.count == expected
    expected = longest_chain_with_boundary(cloud, boundary, order=variant)
    return rec.state.count + boundary.total_sinks == expected
