"""Spans around the public functions of each ulam layer, recorded from
outside the package.

`Tracer.install` replaces each traced function with a wrapper in every ulam
module that holds it, so names re-bound by an importing module (for example
``ulam.montecarlo.run_process``) are traced too; `Tracer.uninstall` puts the
originals back.  Spans stay in memory as ``[name, start_ns, end_ns, parent,
attrs]`` and are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

import ulam
from ulam.sampling import PlanarPointSet


def _size(obj) -> int:
    size = getattr(obj, "size", None)
    return int(size) if size is not None else len(obj)


# Traced functions: (module, name) -> attributes recorded from the bound
# arguments and the result.  Counts are recorded here, where the work happens.
TRACED = {
    ("sampling", "make_rng"): None,
    ("sampling", "sample_poisson_cloud"): lambda a, r: {"points": r.size},
    ("sampling", "sample_uniform_multiset_permutation"): lambda a, r: {"letters": r.size},
    ("sampling", "sample_boundary"): lambda a, r: {"points": int(r.sources.size)},
    ("subsequences", "lis_strict"): lambda a, r: {"points": _size(a["obj"])},
    ("subsequences", "lnds_weak"): lambda a, r: {"points": _size(a["obj"])},
    ("subsequences", "longest_chain_with_boundary"): lambda a, r: {
        "nodes": a["points"].size + int(a["boundary"].sources.size)
        + a["boundary"].total_sinks},
    ("hammersley", "run_dynamics"): lambda a, r: {
        "variant": a["variant"], "rows": a["cloud"].t_max},
    ("hammersley", "run_process"): None,
    ("hammersley", "verify_line_identity"): None,
    ("montecarlo", "estimate_poissonized"): lambda a, r: {"reps": a["reps"]},
    ("montecarlo", "estimate_mean_subsequence"): lambda a, r: {"reps": a["reps"]},
    ("montecarlo", "stationarity_test"): lambda a, r: {"reps": a["reps"]},
    ("couplings", "poissonized_coupling_upper"): lambda a, r: {"event": r.event_flag},
    ("couplings", "poissonized_coupling_lower"): lambda a, r: {"event": r.event_flag},
    ("bounds", "verify_tail_inequality"): lambda a, r: {"grid_points": len(r.records)},
    ("cli", "main"): None,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, attrs):
        spans, stack = self.spans, self._stack
        signature = inspect.signature(fn) if attrs else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                stack.pop()
            if attrs:
                bound = signature.bind(*args, **kwargs)
                span[4] = attrs(bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [ulam] + [m for n, m in sys.modules.items() if n.startswith("ulam.")]
        for (layer, fname), attrs in TRACED.items():
            orig = getattr(getattr(ulam, layer), fname)
            wrapper = self._wrap(f"{layer}.{fname}", orig, attrs)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        orig = PlanarPointSet.chain_rows
        self._patches.append((PlanarPointSet, "chain_rows", orig))
        PlanarPointSet.chain_rows = self._wrap(
            "sampling.PlanarPointSet.chain_rows", orig,
            lambda a, r: {"points": int(r.size)})

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "attrs": attrs}) + "\n")


def layer_metrics(spans: list[list], untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics ``name -> (value, unit)`` derived from the spans.

    A span's self time is its duration minus the durations of its children;
    spans come from one thread, so children never overlap.
    """
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    child = np.zeros(len(spans), dtype=np.int64)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    self_ns = dur - child

    def pick(name, **match):
        return [i for i, s in enumerate(spans) if s[0] == name
                and all((s[4] or {}).get(k) == v for k, v in match.items())]

    def secs(idx, own=False):
        return float((self_ns if own else dur)[idx].sum()) / 1e9

    def total(idx, key):
        # a span whose call raised has no attributes
        return int(sum((spans[i][4] or {}).get(key, 0) for i in idx))

    def per(ns: float, items: int) -> float:
        return ns / items if items else 0.0

    m: dict = {}
    cloud = pick("sampling.sample_poisson_cloud")
    cloud_us = dur[cloud] / 1e3
    cloud_points = total(cloud, "points")
    m["sampling.make_rng.time_s"] = (secs(pick("sampling.make_rng")), "s")
    m["sampling.sample_poisson_cloud.calls"] = (len(cloud), "count")
    m["sampling.sample_poisson_cloud.time_s"] = (secs(cloud), "s")
    m["sampling.sample_poisson_cloud.ns_per_point"] = (per(secs(cloud) * 1e9, cloud_points), "ns/point")
    m["sampling.sample_poisson_cloud.p50_us"] = (float(np.percentile(cloud_us, 50)) if cloud else 0.0, "us")
    m["sampling.sample_poisson_cloud.p99_us"] = (float(np.percentile(cloud_us, 99)) if cloud else 0.0, "us")
    rows = pick("sampling.PlanarPointSet.chain_rows")
    m["sampling.PlanarPointSet.chain_rows.time_s"] = (secs(rows), "s")
    m["sampling.PlanarPointSet.chain_rows.ns_per_point"] = (per(secs(rows) * 1e9, total(rows, "points")), "ns/point")
    word = pick("sampling.sample_uniform_multiset_permutation")
    letters = total(word, "letters")
    m["sampling.sample_uniform_multiset_permutation.time_s"] = (secs(word), "s")
    m["sampling.sample_uniform_multiset_permutation.letters"] = (letters, "count")
    m["sampling.sample_uniform_multiset_permutation.ns_per_letter"] = (per(secs(word) * 1e9, letters), "ns/letter")
    boundary = pick("sampling.sample_boundary")
    m["sampling.sample_boundary.time_s"] = (secs(boundary), "s")
    m["sampling.points_drawn"] = (cloud_points + total(boundary, "points"), "count")
    for fname in ("lis_strict", "lnds_weak"):
        idx = pick(f"subsequences.{fname}")
        m[f"subsequences.{fname}.self_s"] = (secs(idx, own=True), "s")
        m[f"subsequences.{fname}.ns_per_point"] = (per(secs(idx, own=True) * 1e9, total(idx, "points")), "ns/point")
    chain = pick("subsequences.longest_chain_with_boundary")
    nodes = total(chain, "nodes")
    m["subsequences.longest_chain_with_boundary.time_s"] = (secs(chain), "s")
    m["subsequences.longest_chain_with_boundary.nodes"] = (nodes, "count")
    m["subsequences.longest_chain_with_boundary.ns_per_node"] = (per(secs(chain) * 1e9, nodes), "ns/node")
    dyn = pick("hammersley.run_dynamics")
    m["hammersley.run_dynamics.calls"] = (len(dyn), "count")
    m["hammersley.run_dynamics.rows"] = (total(dyn, "rows"), "count")
    for variant in ("strict", "weak"):
        idx = pick("hammersley.run_dynamics", variant=variant)
        m[f"hammersley.run_dynamics.{variant}.time_s"] = (secs(idx), "s")
        m[f"hammersley.run_dynamics.{variant}.ns_per_row"] = (per(secs(idx) * 1e9, total(idx, "rows")), "ns/row")
    m["hammersley.run_process.self_s"] = (secs(pick("hammersley.run_process"), own=True), "s")
    m["hammersley.verify_line_identity.self_s"] = (secs(pick("hammersley.verify_line_identity"), own=True), "s")
    est = [i for name in ("estimate_poissonized", "estimate_mean_subsequence", "stationarity_test")
           for i in pick(f"montecarlo.{name}")]
    m["montecarlo.self_s"] = (secs(est, own=True), "s")
    m["montecarlo.replicas"] = (total(est, "reps"), "count")
    events = 0
    for side in ("upper", "lower"):
        idx = pick(f"couplings.poissonized_coupling_{side}")
        hits = total(idx, "event")
        events += hits
        m[f"couplings.poissonized_coupling_{side}.time_s"] = (secs(idx), "s")
        m[f"couplings.poissonized_coupling_{side}.event_rate"] = (hits / len(idx) if idx else 0.0, "ratio")
    m["couplings.events"] = (events, "count")
    tails = pick("bounds.verify_tail_inequality")
    grid = total(tails, "grid_points")
    m["bounds.verify_tail_inequality.time_s"] = (secs(tails), "s")
    m["bounds.verify_tail_inequality.grid_points"] = (grid, "count")
    m["bounds.verify_tail_inequality.us_per_point"] = (per(secs(tails) * 1e6, grid), "us/point")
    m["cli.main.self_s"] = (secs(pick("cli.main"), own=True), "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m
