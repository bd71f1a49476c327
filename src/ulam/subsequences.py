"""Exact longest-chain computation under the strict and weak partial orders.

Orders on the quarter-plane: (x, y) precedes (x', y') strictly when x < x'
and y < y', weakly when x < x' and y <= y'.  The boundary extension lets a
chain additionally run through source points along the bottom edge
(x < x', y = y' = 0) and through sink points stacked on the left edge
(x = x' = 0, y < y', or y <= y' in the weak variant so multiplicities count).

Fast paths reduce everything to a patience pass over row sequences; a
quadratic relation-based DP (`brute_force_longest_chain`) is kept as a fully
independent oracle.
"""
from __future__ import annotations

import numbers
from bisect import bisect_left, bisect_right
from functools import cache
from itertools import permutations
from math import factorial

import numpy as np

from .bounds import _check_variant
from .sampling import (BoundarySample, MultisetWord, PlanarPointSet, _chain_order,
                       _check_boundary)

_BRUTE_FORCE_CAP = 2000


def _row_sequence(obj) -> np.ndarray:
    """Row values in chain-sort order (x ascending, ties by row descending).

    For a word, positions are the distinct integers 1..kn, so the letters in
    word order are already the row sequence.  Any other sequence must be an
    integer array: a cast would truncate a fraction.
    """
    if isinstance(obj, MultisetWord):
        return obj.letters
    if isinstance(obj, PlanarPointSet):
        return obj.chain_rows()
    rows = np.asarray(obj)
    if rows.size and rows.dtype.kind not in "iu":  # numpy makes [] float64
        raise ValueError(f"row values must be integers that fit int64, got an array of "
                         f"dtype {rows.dtype}")
    return rows


def _patience_length(rows, strict: bool) -> int:
    tails: list = []
    bis = bisect_left if strict else bisect_right
    for v in rows:
        i = bis(tails, v)
        if i == len(tails):
            tails.append(v)
        else:
            tails[i] = v
    return len(tails)


def lis_strict(obj) -> int:
    """Length of the longest strictly increasing chain."""
    return _patience_length(_row_sequence(obj).tolist(), strict=True)


def lnds_weak(obj) -> int:
    """Length of the longest non-decreasing chain."""
    return _patience_length(_row_sequence(obj).tolist(), strict=False)


def _boundary_nodes(points: PlanarPointSet, boundary: BoundarySample):
    """Map boundary elements onto auxiliary plane coordinates.

    The i-th source (ascending x) gets a negative row -S+i, so sources chain
    among themselves and below every interior row; the j-th sink unit
    (ascending row) gets a negative x -T+j, so sink units chain among
    themselves and to the left of every interior point.  Mixing sources with
    sinks stays impossible: a source has positive x and negative row while a
    sink has negative x and positive row.
    """
    n_src, total = boundary.sources.size, boundary.total_sinks
    xs = np.concatenate((boundary.sources.astype(float), np.arange(-total, 0.0), points.xs))
    rows = np.concatenate((
        np.arange(-n_src, 0, dtype=np.int64),
        np.repeat(np.arange(1, boundary.sinks.size + 1, dtype=np.int64), boundary.sinks),
        np.repeat(np.arange(1, points.t_max + 1, dtype=np.int64), np.diff(points.offsets))))
    return xs, rows


def longest_chain_with_boundary(points: PlanarPointSet, boundary: BoundarySample,
                                order: str) -> int:
    """Longest chain through interior points, sources, and sink units."""
    _check_variant(order)
    _check_boundary(boundary, points, order)
    # mapped sink units have distinct x, so the tie-break never splits them
    seq = _chain_order(*_boundary_nodes(points, boundary)).tolist()
    return _patience_length(seq, strict=(order == "strict"))


# ---------------------------------------------------------------------------
# Independent quadratic oracle

def _as_nodes(obj, boundary: BoundarySample | None, order: str):
    """Positions, rows and kinds (0 a point, 1 a source, 2 a sink unit) of
    every element, read off the stored arrays: a word's letters at x = 1..size,
    a cloud's xs with each row label repeated as often as its row holds points."""
    if isinstance(obj, MultisetWord):
        xs, ys = np.arange(1.0, obj.size + 1), obj.letters
        x_max, t_max = obj.size, obj.n
    elif isinstance(obj, PlanarPointSet):
        xs, ys = obj.xs, np.repeat(np.arange(1, obj.t_max + 1), np.diff(obj.offsets))
        x_max, t_max = obj.x_max, obj.t_max
    else:
        raise TypeError("expected MultisetWord or PlanarPointSet")
    sx, sink_rows = np.empty(0), np.empty(0, np.int64)
    if boundary is not None:  # checked by its own code: the oracle shares none
        sx = boundary.sources.astype(float)
        if boundary.sinks.size != t_max:
            raise ValueError("need one sink multiplicity per row")
        if not np.all((sx >= 0) & (sx <= x_max)):  # NaN fails it too
            raise ValueError("source positions must lie in [0, x_max]")
        if order == "strict" and np.any(boundary.sinks > 1):
            raise ValueError("strict variant admits sink multiplicities 0 or 1 only")
        sink_rows = np.repeat(np.arange(1, t_max + 1, dtype=np.int64), boundary.sinks)
    kinds = np.repeat(np.arange(3), (xs.size, sx.size, sink_rows.size))
    return (np.concatenate((xs, sx, np.zeros(sink_rows.size))),
            np.concatenate((ys, np.zeros(sx.size, np.int64), sink_rows)), kinds)


def brute_force_longest_chain(obj, boundary: BoundarySample | None = None,
                              order: str = "strict") -> int:
    """Quadratic longest-path DP straight from the order relations.

    Kept deliberately separate from the patience machinery so the two code
    paths can certify each other.  Capped at 2000 elements.
    """
    _check_variant(order)
    xs, ys, kinds = _as_nodes(obj, boundary, order)
    n = xs.size
    if n > _BRUTE_FORCE_CAP:
        raise ValueError(f"brute force capped at {_BRUTE_FORCE_CAP} elements, got {n}")
    if n == 0:
        return 0
    idx = np.lexsort((ys, xs))
    xs, ys, kinds = xs[idx], ys[idx], kinds[idx]
    is_source = kinds == 1
    is_sink = kinds == 2
    best = np.ones(n, dtype=np.int64)
    for i in range(1, n):
        if order == "strict":
            rel = (xs[:i] < xs[i]) & (ys[:i] < ys[i])
            rel |= is_source[:i] & is_source[i] & (xs[:i] < xs[i])
            rel |= is_sink[:i] & is_sink[i] & (ys[:i] < ys[i])
        else:
            rel = (xs[:i] < xs[i]) & (ys[:i] <= ys[i])
            rel |= is_sink[:i] & is_sink[i] & (ys[:i] <= ys[i])
        if rel.any():
            best[i] = 1 + best[:i][rel].max()
    return int(best.max())


# ---------------------------------------------------------------------------
# Exact expectations by enumeration

_ENUM_CAP = 9


def exact_expected_lis(row_counts) -> Fraction:
    """Exact E[longest strictly increasing chain] for row multiplicities.

    With row i carrying row_counts[i] points, the relative x-order of the
    points is uniform over the total! orderings of the labelled points, so
    the mean is the strict patience length averaged over them; each distinct
    word occurs prod(row_counts[i]!) times among the orderings, so this is
    also its mean over the equally likely distinct words.  Capped at a total
    of 9 points.
    """
    counts = list(row_counts)
    bad = [c for c in counts if not isinstance(c, numbers.Integral) or c < 0]
    if bad:
        raise ValueError(f"row counts must be nonnegative integers, got {bad[0]}")
    counts = [int(c) for c in counts if c > 0]  # empty rows carry no points
    total = sum(counts)
    if total > _ENUM_CAP:
        raise ValueError(f"enumeration capped at {_ENUM_CAP} points, got {total}")
    return _exact_mean(tuple(counts))


@cache
def _exact_mean(counts: tuple[int, ...]) -> Fraction:
    from fractions import Fraction  # it loads decimal; only exact means need either
    letters = [row for row, c in enumerate(counts, start=1) for _ in range(c)]
    acc = sum(_patience_length(word, strict=True) for word in permutations(letters))
    return Fraction(acc, factorial(len(letters)))
