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
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundaryRates, _check_variant
from .sampling import (BoundarySample, PlanarPointSet, RngStream,
                       sample_boundary, sample_poisson_cloud)
from .subsequences import (boundary_chain_witness, lis_strict, lnds_weak,
                           longest_chain_with_boundary)


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


def empty_state(x_max: float) -> ParticleState:
    return ParticleState(np.empty(0), 0, float(x_max))


def _check_row_points(pts: np.ndarray, x_max: float) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.size and not (pts[0] > 0 and pts[-1] <= x_max):
        raise ValueError("row points must lie in (0, x_max]")
    if pts.size > 1 and not np.all(np.diff(pts) >= 0):
        raise ValueError("row points must be sorted")
    return pts


def _strict_rule(y: np.ndarray, pts: np.ndarray, sink: bool) -> tuple[np.ndarray, int]:
    """One strict step on plain arrays: (new positions, number of exits)."""
    n_exit = 0
    old_max = float(y[-1]) if y.size else 0.0
    if sink:
        if y.size:
            n_exit = 1
            pts = pts[pts > y[0]]  # exit swallows everything below the old position
            y = y[1:]
        else:
            # A sink with no particle to absorb still swallows the whole row:
            # the sink column grows by one, and a strict chain cannot leave it
            # sideways within the same row, so no point of this row can raise
            # the chain length and none may be born.
            pts = pts[:0]
    if y.size and pts.size:
        gaps_lo = np.concatenate(([0.0], y[:-1]))
        idx = np.searchsorted(pts, gaps_lo, side="right")
        safe = np.minimum(idx, pts.size - 1)
        cand = np.where(idx < pts.size, pts[safe], np.inf)
        new_y = np.where(cand < y, cand, y)
    else:
        new_y = y.copy()
    if pts.size:
        j = int(np.searchsorted(pts, old_max, side="right"))
        if j < pts.size:
            new_y = np.append(new_y, pts[j])
    return new_y, n_exit


def _weak_rule(y: np.ndarray, pts: np.ndarray, sink: int) -> tuple[np.ndarray, int]:
    """One weak step on plain arrays: (new positions, number of exits)."""
    n_exit = min(sink, y.size)
    pt_list = pts.tolist()
    i, r = 0, len(pt_list)
    new_pos: list[float] = []
    for pos in y[n_exit:].tolist():
        if i < r and pt_list[i] <= pos:
            new_pos.append(pt_list[i])
            i += 1
        else:
            new_pos.append(pos)
    new_pos.extend(pt_list[i:])  # every unconsumed point is born
    return np.asarray(new_pos, dtype=float), n_exit


def step_strict(state: ParticleState, row_points, sink_present: bool) -> ParticleState:
    pts = _check_row_points(row_points, state.x_max)
    new_y, n_exit = _strict_rule(state.positions, pts, bool(sink_present))
    return ParticleState(new_y, state.exits + n_exit, state.x_max)


def step_weak(state: ParticleState, row_points, sink_multiplicity: int) -> ParticleState:
    if sink_multiplicity < 0:
        raise ValueError("sink multiplicity must be nonnegative")
    pts = _check_row_points(row_points, state.x_max)
    new_y, n_exit = _weak_rule(state.positions, pts, int(sink_multiplicity))
    return ParticleState(new_y, state.exits + n_exit, state.x_max)


@dataclass(frozen=True, eq=False)
class DynamicsRecord:
    """Outcome of running the dynamics over a full cloud."""

    state: ParticleState
    counts: np.ndarray       # particle count after each step, length t_max
    exit_counts: np.ndarray  # cumulative exits after each step
    cloud: PlanarPointSet
    boundary: BoundarySample | None
    events: list | None = None       # (step, particle_index, position, event)
    line_visits: list | None = None  # per line: [(x, row), ...] points visited


def _diff_events(step: int, old_pos: np.ndarray, new_pos: np.ndarray, n_exit: int,
                 events: list, line_ids: list[int], visits: list[list]) -> None:
    for j in range(n_exit):
        events.append((step, j, float(old_pos[j]), "exit"))
    del line_ids[:n_exit]
    rem = old_pos[n_exit:]
    for j in range(rem.size):
        if new_pos[j] != rem[j]:
            events.append((step, n_exit + j, float(new_pos[j]), "move"))
            visits[line_ids[j]].append((float(new_pos[j]), step))
        else:
            events.append((step, n_exit + j, float(new_pos[j]), "stay"))
    for j in range(rem.size, new_pos.size):
        events.append((step, j, float(new_pos[j]), "birth"))
        visits.append([(float(new_pos[j]), step)])
        line_ids.append(len(visits) - 1)


def run_dynamics(cloud: PlanarPointSet, boundary: BoundarySample | None,
                 variant: str, trace: bool = False) -> DynamicsRecord:
    """Apply the deterministic dynamics of one variant to a given cloud.

    Input is checked once, here (the cloud checked its rows when built), and
    the rows then step on plain arrays.
    """
    _check_variant(variant)
    if boundary is not None:
        if boundary.sinks.size != cloud.t_max:
            raise ValueError("need one sink multiplicity per row")
        if variant == "strict" and boundary.sinks.size and int(boundary.sinks.max()) > 1:
            raise ValueError("strict variant admits sink multiplicities 0 or 1 only")
        y = ParticleState(boundary.sources.astype(float), 0, cloud.x_max).positions
        sinks = boundary.sinks.tolist()
    else:
        y = np.empty(0)
        sinks = [0] * cloud.t_max
    rule = _strict_rule if variant == "strict" else _weak_rule
    exits = 0
    events = [] if trace else None
    visits = [[(float(x), 0)] for x in y] if trace else None
    line_ids = list(range(y.size)) if trace else None
    counts = np.empty(cloud.t_max, dtype=np.int64)
    exit_counts = np.empty(cloud.t_max, dtype=np.int64)
    for step, (pts, sink) in enumerate(zip(cloud.row_positions, sinks), start=1):
        new_y, n_exit = rule(y, pts, sink)
        if trace:
            _diff_events(step, y, new_y, n_exit, events, line_ids, visits)
        y = new_y
        exits += n_exit
        counts[step - 1] = y.size
        exit_counts[step - 1] = exits
    return DynamicsRecord(ParticleState(y, exits, cloud.x_max), counts, exit_counts,
                          cloud, boundary, events, visits)


# --- replica-batched row steps ----------------------------------------------
#
# The particles after row i are the patience tails of rows 1..i (Hammersley
# 1972; Aldous & Diaconis 1995), so the final particle count of a cloud is
# its chain length.  The batched kernel runs the boundary-free dynamics of
# many clouds at once, one row per step.  Each point is keyed by an integer
#     key = (replica << shift) | (rank of the point in its cloud's chain order),
# with 2**shift above every cloud's size.  Chain order is x ascending, ties
# by row descending (as in `PlanarPointSet.chain_rows`), so keys are
# distinct, an equal-x pair can never chain, and the dynamics on keys give
# the chain lengths of the original clouds.  The particles of all replicas
# then form one sorted array in which replica r holds the keys in
# [r << shift, (r + 1) << shift), and one numpy call over it answers a
# question for every replica at once.  Keys are int32 when they fit, which
# halves the batch's memory, and int64 otherwise.


def _chain_keys(clouds) -> tuple[list[np.ndarray], list[np.ndarray], int]:
    """Keys of each cloud's points, row bounds into them, and the shift.

    Rows are laid out top-down within a cloud, so a stable sort ranks the
    higher row first among equal x; the quicker unstable sort serves when
    no two x are equal.  Row i (from 1) of a cloud is
    ``keys[bounds[i]:bounds[i - 1]]``.  A cloud is dropped once keyed.
    """
    keys, bounds = [], []
    for cloud in clouds:
        rows = cloud.row_positions[::-1]
        flat = np.concatenate(rows) if rows else np.empty(0)
        if flat.size >= 1 << 31:
            raise ValueError("a cloud of 2**31 points or more cannot be ranked in int32")
        order = np.argsort(flat)
        ordered = flat[order]
        if np.any(ordered[1:] == ordered[:-1]):
            order = np.argsort(flat, kind="stable")
        rank = np.empty(flat.size, dtype=np.int32)
        rank[order] = np.arange(flat.size, dtype=np.int32)
        keys.append(rank)
        bounds.append(np.cumsum([0] + [xs.size for xs in rows])[::-1])
    shift = max((k.size for k in keys), default=0).bit_length()
    if len(keys) << shift >= 1 << 63:
        raise ValueError("too many points in one batch for int64 keys")
    if len(keys) << shift >= 1 << 31:
        keys = [k.astype(np.int64) for k in keys]
    for r, k in enumerate(keys):
        k |= r << shift
    return keys, bounds, shift


def _strict_row(y: np.ndarray, pts: np.ndarray, tops: np.ndarray, shift: int) -> np.ndarray:
    """`step_strict` without sink, applied to every replica's segment.

    A point with g particles below it lies in the gap of particle g when
    that particle is in the point's replica, and above the replica's old
    maximum otherwise.  The first point of each (g, replica) group moves
    particle g there, or is the replica's one birth.
    """
    g = np.searchsorted(y, pts)
    rep = pts >> shift
    first = np.ones(pts.size, dtype=bool)
    first[1:] = (g[1:] != g[:-1]) | (rep[1:] != rep[:-1])
    g, pts, rep = g[first], pts[first], rep[first]
    moves = np.append(y, tops[-1])[g] < tops[rep]
    new_y = y.copy()
    new_y[g[moves]] = pts[moves]
    # both runs are sorted and replicas never interleave, so a stable sort
    # (a merge of two runs) restores the order
    return np.sort(np.concatenate((new_y, pts[~moves])), kind="stable")


def _weak_row(y: np.ndarray, pts: np.ndarray, tops: np.ndarray, shift: int) -> np.ndarray:
    """`step_weak` without sink, applied to every replica's segment.

    In one replica let particles y_1 < ... < y_n meet row points
    p_1 < ... < p_r, and let c_j be the number of points below y_j.  The
    greedy left-to-right matching moves y_j to the next unused point
    exactly when that point lies below y_j, so with u_0 = 0 the number of
    points used by particles 1..j is
        u_j = u_{j-1} + [u_{j-1} < c_j] = min(u_{j-1} + 1, c_j),
    the second form because u_{j-1} <= c_{j-1} <= c_j.  Unrolled,
        u_j = j + min(0, min_{i<=j} (c_i - i)),
    one cumulative minimum per replica.  Particle j moves to p_{u_j} when
    u_j > u_{j-1}, and every point from p_{u_n + 1} on is born.

    Below, indices are global: ``at`` is the index in ``pts`` of p_{u_j},
    and the replica's first point has index first_p, so at = first_p - 1
    means no point is used yet.
    """
    base = tops - tops[0]
    first_y = np.searchsorted(y, base)
    first_p = np.searchsorted(pts, base)
    rep = y >> shift
    idx = np.arange(y.size)
    c = np.cumsum(np.bincount(np.searchsorted(y, pts), minlength=y.size + 1))[:-1]
    q = (first_p - first_y)[rep]
    # c_i - i is c - idx - 1 - q; subtracting ``lift`` puts each replica
    # below all earlier ones, so the running minimum restarts at its first
    # particle
    lift = rep.astype(np.int64) * (y.size + pts.size + 1)
    run = np.minimum.accumulate(c - idx - 1 - q - lift) + lift
    at = idx + q + np.minimum(0, run)
    floor = first_p - 1
    moved = at > np.maximum(np.append(-1, at[:-1]), floor[rep])
    new_y = np.where(moved, pts[at], y)
    last = np.maximum(np.append(-1, at)[np.searchsorted(y, tops)], floor)
    born = np.arange(pts.size) > last[pts >> shift]
    return np.sort(np.concatenate((new_y, pts[born])), kind="stable")


def batch_particle_counts(clouds, variant: str) -> np.ndarray:
    """Final particle count of the boundary-free dynamics on each cloud.

    All clouds advance together, one row step per numpy call for the whole
    batch, and the counts equal ``run_dynamics(cloud, None, variant)``'s,
    i.e. ``lis_strict`` or ``lnds_weak`` of each cloud.  ``clouds`` may be
    any iterable, such as a generator that samples them one by one; each is
    dropped once keyed, so memory stays at one key per point.
    """
    _check_variant(variant)
    keys, bounds, shift = _chain_keys(clouds)
    dtype = keys[0].dtype if keys else np.int32
    tops = np.arange(1, len(keys) + 1, dtype=dtype) << shift
    step = _strict_row if variant == "strict" else _weak_row
    y = np.empty(0, dtype=dtype)
    for i in range(1, max((b.size for b in bounds), default=1)):
        pts = np.concatenate([k[b[i]:b[i - 1]] for k, b in zip(keys, bounds) if i < b.size])
        if pts.size:
            y = step(y, pts, tops, shift)
    return np.diff(np.searchsorted(y, tops), prepend=0)


def run_process(x: float, t: int, lam: float, variant: str,
                rates: BoundaryRates | None, rng: RngStream,
                trace: bool = False) -> DynamicsRecord:
    """Sample a cloud (and boundary, if rates are given) and run the dynamics.

    Draw order is cloud first, then boundary, so runs are reproducible from
    the stream alone.
    """
    _check_variant(variant)
    cloud = sample_poisson_cloud(x, t, lam, rng)
    boundary = None
    if rates is not None:
        if rates.variant != variant:
            raise ValueError("rates variant does not match process variant")
        boundary = sample_boundary(x, t, rates, rng)
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


@dataclass(frozen=True)
class Witness:
    """A certified maximizing chain.

    points are (x, row) pairs in chain order; for boundary witnesses the
    sources_used / sinks_used counters report how much of the chain runs
    along the edges.
    """

    points: tuple[tuple[float, float], ...]
    length: int
    sources_used: int
    sinks_used: int


def _witness_from_lines(cloud: PlanarPointSet, variant: str) -> Witness:
    rec = run_dynamics(cloud, None, variant, trace=True)
    visits = rec.line_visits or []
    if not visits:
        return Witness((), 0, 0, 0)
    strict = variant == "strict"
    chain: list[tuple[float, int]] = []
    # Walk lines right to left; each line contributes one visited cloud point.
    x_cur, row_cur = visits[-1][-1]
    chain.append((x_cur, row_cur))
    for line in reversed(visits[:-1]):
        ok = [(x, r) for (x, r) in line
              if x < x_cur and (r < row_cur if strict else r <= row_cur)]
        if not ok:
            raise AssertionError("line witness reconstruction failed")
        x_cur, row_cur = max(ok, key=lambda p: (p[1], p[0]))
        chain.append((x_cur, row_cur))
    chain.reverse()
    for (x0, r0), (x1, r1) in zip(chain, chain[1:]):
        valid = x0 < x1 and (r0 < r1 if strict else r0 <= r1)
        if not valid:
            raise AssertionError("reconstructed chain violates the order")
    if len(chain) != rec.state.count:
        raise AssertionError("witness length does not match the particle count")
    return Witness(tuple(chain), len(chain), 0, 0)


def extract_witness(cloud: PlanarPointSet, boundary: BoundarySample | None = None,
                    variant: str = "strict") -> Witness:
    """Produce one maximizing chain and certify it.

    Without boundary the chain is rebuilt from the recorded particle
    trajectories (one point per line); with boundary it comes from the chain
    DP and reports how many sources and sinks the path uses.
    """
    _check_variant(variant)
    if boundary is None:
        return _witness_from_lines(cloud, variant)
    length, chain, n_src, n_sink = boundary_chain_witness(cloud, boundary, variant)
    pts = tuple((x, float(r)) for (x, r, _kind) in chain)
    return Witness(pts, length, n_src, n_sink)
