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
        if p.size and not (p[0] >= 0 and p[-1] <= self.x_max):
            raise ValueError("positions must lie in [0, x_max]")
        if p.size > 1 and not np.all(np.diff(p) > 0):
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
# of many replicas at once, a few numpy calls per row, on keys
#     (replica << shift) | (rank of the point in its replica's chain order),
# 2**shift above every replica's size (int32 if they fit, else int64).  Chain
# order is x ascending, ties by row descending (as in `chain_rows`); a
# cloud's sink units take ranks 1..total in row order, below its sources and
# xs; a word's positions are its ranks.  Keys are distinct, and an equal-x
# pair never chains.  The callers are the estimators' chunk workers, whose
# batches `montecarlo._chunks` sizes.
#
# The slab: row r of an (R, C) array holds replica r's particles ascending,
# padded with ((r + 1) << shift) - 1, between replica r's keys and r + 1's.
# The flat slab is sorted, so one searchsorted of a row's points (by
# replica, then rank) gives each point its cell r*C + g, g counting the
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
#     cell j - 1's key.  Cell 0's left neighbour is (r << shift) - 1, below
#     every key of replica r (a word's rank 0 included); a birth lands in
#     the first padding cell, and the next replica's keys and the sentinel
#     iinfo.max, "no such point", lie above every pad, so they never win.
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
# restarts at each replica, if C > L + m.  The slab doubles when
# C <= 2 (L + m), so L is counted only every few rows.


def _key_dtype(reps: int, shift: int):
    if reps << shift >= 1 << 63:
        raise ValueError("too many points in one batch for int64 keys")
    return np.int64 if reps << shift >= 1 << 31 else np.int32


def _slab_counts(keys: np.ndarray, bounds: list[int], sizes: np.ndarray, shift: int,
                 most: int, variant: str) -> np.ndarray:
    """Chain length of each replica, given their sizes.  Row i is
    ``keys[bounds[i]:bounds[i + 1]]``, ordered by replica, then rank, with at
    most ``most`` points of one replica; row 0 (a cloud's sources) is born
    whole, and every other row chains in ``variant``.  Empty replicas take
    no slab row.  A strict row steps from the point side (each point finds
    its cell) or, with more points than live cells, from the particle side
    (each cell finds its least point above its left neighbour, cell 0's
    being just below its replica's keys); both write the same slab."""
    strict = variant == "strict"
    owners = np.flatnonzero(sizes)
    pad = (owners.astype(keys.dtype)[:, None] << shift) + ((1 << shift) - 1)
    slab = np.repeat(pad, 2 * most, axis=1)
    ramp = np.arange(max(np.diff(bounds), default=0))
    top = np.iinfo(keys.dtype).max  # above every key: "no such point"
    live = 0  # an upper bound on every slab row's particles
    for i in np.flatnonzero(np.diff(bounds)).tolist():
        if live + most >= slab.shape[1]:
            live = int((slab < pad).sum(1).max())
            if 2 * (live + most) >= slab.shape[1]:
                slab = np.concatenate((slab, np.broadcast_to(pad, slab.shape)), axis=1)
        flat, pts = slab.reshape(-1), keys[bounds[i]:bounds[i + 1]]
        if strict and i and pts.size > slab.shape[0] * (live + 1):
            # from the particle side: cell j takes the least point above cell j - 1
            cells = slab[:, :live + 1]
            left = np.empty_like(cells)
            left[:, 0] = pad[:, 0] - (1 << shift)
            left[:, 1:] = cells[:, :-1]
            above = np.append(pts, top)
            np.minimum(cells, above[np.searchsorted(pts, left, "right")], out=cells)
        elif strict and i:  # a cell's points all lie below its key: the least wins
            np.minimum.at(flat, np.searchsorted(flat, pts), pts)
        else:
            at = np.searchsorted(flat, pts)
            flat[np.maximum.accumulate(at - ramp[:at.size]) + ramp[:at.size]] = pts
        live += 1 if strict and i else most
    counts = np.zeros(sizes.size, dtype=np.int64)
    counts[owners] = (slab < pad).sum(1)
    return counts


def _cloud_order(flat: np.ndarray, sizes: np.ndarray, t_max: int) -> np.ndarray:
    """Indices of ``flat`` (sources, then xs row by row, ``sizes`` per row)
    in chain order: by x, the higher row first among equal x.  Every x must
    be positive, as the samplers draw them in (0, x]: one sort of the int64
    keys ``high bits of x | index`` then orders distinct x, as their float
    bits sort like their values.  Only the runs of keys that share their
    high bits are then re-ordered, by one lexsort by (x, -row) of their
    points."""
    b = flat.size.bit_length()
    packed = np.sort(flat.view(np.int64) >> b << b | np.arange(flat.size))
    order = packed & ((1 << b) - 1)
    high = packed >> b
    shared = high[1:] == high[:-1]
    if not shared.any():
        return order
    first = np.flatnonzero(shared)
    tied = np.union1d(first, first + 1)
    # runs of equal high bits follow each other in x order, so one lexsort
    # of all their points, put back in their places, orders every run
    sub = order[tied]
    rows = np.searchsorted(np.cumsum(sizes), sub, side="right")
    order[tied] = sub[np.lexsort((t_max - rows, flat[sub]))]
    return order


def _chain_keys(clouds, boundaries=()) -> tuple:
    """Keys of a batch of clouds laid out row by row, the bounds of their
    sources and rows, each cloud's size, the shift, the most keys in one row
    of a cloud, and each cloud's total sinks.  Each of ``boundaries``, if
    given, is taken after its cloud and has a sink for each of its rows; its
    sources are ranked as row 0 and its sink units as points below them.
    A cloud is ranked by ``_cloud_order`` and dropped, its ranks kept in
    their smallest unsigned dtype; once every size is known, each cloud's
    row blocks move to their rows in one scatter of its own, with no index
    array as long as the batch."""
    ranks, rows, sinks = [], [], []  # row 0 of each cloud holds its sources
    boundaries = iter(boundaries)
    for cloud in clouds:
        b = next(boundaries, None)
        sources = np.empty(0) if b is None else b.sources
        units = np.zeros(cloud.t_max, np.int64) if b is None else b.sinks.astype(np.int64)
        flat = np.concatenate((sources, cloud.xs))
        total = int(units.sum())
        if flat.size + total >= 1 << 31:
            raise ValueError("a cloud of 2**31 points or more cannot be ranked in int32: "
                             f"{cloud.size} points, {sources.size} sources and "
                             f"{total} sink units")
        sizes = np.concatenate(([sources.size], np.diff(cloud.offsets)))
        small = np.min_scalar_type(flat.size + total)  # ranks run 1..size
        rank = np.empty(flat.size, dtype=small)
        rank[_cloud_order(flat, sizes, cloud.t_max)] = np.arange(
            total + 1, total + flat.size + 1, dtype=small)
        if total:  # each row's sink units go first in it, ranked 1..total in row order
            rank = np.insert(rank, np.repeat(np.cumsum(sizes)[:-1], units),
                             np.arange(1, total + 1, dtype=small))
        sizes[1:] += units
        ranks.append(rank)
        rows.append(sizes)
        sinks.append(total)
    sizes = np.asarray([r.size for r in ranks], dtype=np.int64)
    shift = int(sizes.max(initial=0) + 1).bit_length()
    dtype = _key_dtype(sizes.size, shift)
    # grid[r, i] keys of cloud r in row i; that block moves from its place
    # in the cloud to the start of row i plus the row-i keys of earlier clouds
    grid = np.zeros((sizes.size, max((s.size for s in rows), default=1)), np.int64)
    for r, s in enumerate(rows):
        grid[r, :s.size] = s
    bounds = [0, *np.cumsum(grid.sum(axis=0)).tolist()]
    moved = np.asarray(bounds[:-1]) + np.cumsum(grid, axis=0) - grid
    keys = np.empty(int(sizes.sum()), dtype)
    for r, (rank, s) in enumerate(zip(ranks, rows)):
        at = np.repeat(moved[r, :s.size] - (np.cumsum(s) - s), s)
        at += np.arange(rank.size)
        keys[at] = rank | dtype(r << shift)
    return keys, bounds, sizes, shift, int(grid.max(initial=0)), np.asarray(sinks, np.int64)


def _word_counts(words, reps: int, n: int, k: int, variant: str) -> np.ndarray:
    """``lis_strict`` or ``lnds_weak`` of each of the ``reps`` words of the
    iterable ``words``, multiset words over 1..n with each letter k times
    (unchecked: the estimator draws them).  A stable sort of a word (by
    radix, in its smallest letter dtype) lists the positions of each letter,
    its row, straight into the word's key columns, so that words advance
    together as clouds and each is dropped once laid out."""
    size = n * k
    shift = size.bit_length()
    keys = np.empty((n, reps, k), dtype=_key_dtype(reps, shift))
    small = np.min_scalar_type(n)
    for r, word in enumerate(words):
        word = np.asarray(word).astype(small, copy=False)
        keys[:, r] = np.argsort(word, kind="stable").reshape(n, k)
        keys[:, r] |= r << shift
    bounds = [0, *(reps * k * i for i in range(n + 1))]  # no sources
    return _slab_counts(keys.reshape(-1), bounds, np.full(reps, size), shift, k, variant)


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
