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
from fractions import Fraction
from functools import lru_cache

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
        return np.asarray(obj.letters, dtype=np.int64)
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

def _as_nodes(obj, boundary: BoundarySample | None):
    if isinstance(obj, MultisetWord):
        xs = np.arange(1, obj.size + 1, dtype=float)
        ys = np.asarray(obj.letters, dtype=np.int64)
        kinds = np.zeros(obj.size, dtype=np.int64)
    elif isinstance(obj, PlanarPointSet):
        pts = obj.points()
        xs = np.asarray([p[0] for p in pts])
        ys = np.asarray([p[1] for p in pts], dtype=np.int64)
        kinds = np.zeros(len(pts), dtype=np.int64)
    else:
        raise TypeError("expected MultisetWord or PlanarPointSet")
    if boundary is not None:
        sx = boundary.sources.astype(float)
        xs = np.concatenate([xs, sx])
        ys = np.concatenate([ys, np.zeros(sx.size, dtype=np.int64)])
        kinds = np.concatenate([kinds, np.ones(sx.size, dtype=np.int64)])
        sink_rows = np.repeat(np.arange(1, boundary.sinks.size + 1, dtype=np.int64),
                              boundary.sinks)
        xs = np.concatenate([xs, np.zeros(sink_rows.size)])
        ys = np.concatenate([ys, sink_rows])
        kinds = np.concatenate([kinds, np.full(sink_rows.size, 2, dtype=np.int64)])
    return xs, ys, kinds


def brute_force_longest_chain(obj, boundary: BoundarySample | None = None,
                              order: str = "strict") -> int:
    """Quadratic longest-path DP straight from the order relations.

    Kept deliberately separate from the patience machinery so the two code
    paths can certify each other.  Capped at 2000 elements.
    """
    _check_variant(order)
    xs, ys, kinds = _as_nodes(obj, boundary)
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


def _multiset_words(counts: list[int]):
    """All distinct words over letters 1..len(counts) with the given
    multiplicities, in lexicographic order."""
    total = sum(counts)
    word = [0] * total
    def rec(pos: int):
        if pos == total:
            yield word
            return
        for letter in range(len(counts)):
            if counts[letter]:
                counts[letter] -= 1
                word[pos] = letter + 1
                yield from rec(pos + 1)
                counts[letter] += 1
    yield from rec(0)


def exact_expected_lis(row_counts) -> Fraction:
    """Exact E[longest strictly increasing chain] for row multiplicities.

    Enumerates every relative x-ordering: with row i carrying row_counts[i]
    points, the uniform relative order is the uniform word with those letter
    multiplicities, and each distinct word is equally likely.  Capped at a
    total of 9 points.
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


# Tuples of positive counts summing to at most _ENUM_CAP = 9 number
# 1 + 1 + 2 + ... + 2**8 = 512, so this cache holds every key.
@lru_cache(maxsize=512)
def _exact_mean(counts: tuple[int, ...]) -> Fraction:
    if not counts:
        return Fraction(0)
    n_words = 0
    acc = 0
    for word in _multiset_words(list(counts)):
        n_words += 1
        acc += _patience_length(word, strict=True)
    return Fraction(acc, n_words)
