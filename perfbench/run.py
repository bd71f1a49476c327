"""Benchmark of the ulam package, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from ``src/`` of
that checkout, in this one process, with BLAS/OpenMP threads set to 1.
With ``--trace 0`` the workload runs rounds of fixed work, seeded from
``--seed``, for at least ``--seconds`` seconds and reports the end-to-end
metrics named in BENCHMARK.json, with its times scaled to a fixed machine
speed by the probe of ``speed.py``; the times as measured are printed too.
With ``--trace 1`` it runs the first
DIGEST_ROUNDS rounds untraced, then again with spans around every layer's
public functions, and reports the per-layer metrics.  Every round is checked
outside the timed region.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Rounds hashed into the digest; a traced run runs exactly these rounds.
DIGEST_ROUNDS = 3
# Fresh interpreters timed for setup_s; the median is reported.
SETUP_SAMPLES = 5
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import ulam
ulam.estimate_poissonized(2.0, 2, 1.0, "strict", 2, 0)
print(time.perf_counter() - start)
"""


def measure_setup() -> tuple[float, float]:
    """Median time to import ulam and make one tiny call, in fresh
    processes: scaled to the probe's reference speed, and as measured.
    The probe cannot run beside the child, which would compete with it
    for the cores, so its kernel is timed before and after each one."""
    times, refs = [], [speed.kernel_s()]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
        refs.append(speed.kernel_s())
    scaled = [t * 2 * speed.REF_SECONDS / (a + b) for t, a, b in zip(times, refs, refs[1:])]
    return statistics.median(scaled), statistics.median(times)


def git_commit() -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "ulam").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"seed": seed, "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_commit": git_commit(),
            "source_sha256": source.hexdigest()}


def round_seed(seed: int, i: int) -> int:
    return (seed << 20) + i


def digest(rounds, checks) -> str:
    h = hashlib.sha256()
    for rnd, chk in zip(rounds[:DIGEST_ROUNDS], checks[:DIGEST_ROUNDS]):
        h.update(repr((rnd.outputs, chk.outputs)).encode())
    return h.hexdigest()


def end_to_end(rounds, duration, setup_s: float) -> dict:
    """Totals over the timed region, each interval of the rounds taken as
    ``duration(start, end)``."""
    def rate(order):
        return (sum(r.order_n[order] for r in rounds)
                / sum(duration(*r.order_span[order]) for r in rounds))

    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(duration(*span) for r in rounds for span in r.wall) / len(rounds), "s"),
        "strict_per_s": (rate("strict"), "1/s"),
        "weak_per_s": (rate("weak"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "ulam" / "__init__.py").is_file():
        print(f"error: no ulam package under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import ulam
    import tracing
    import workloads
    ulam.estimate_poissonized(2.0, 2, 1.0, "strict", 2, 0)
    setup_s, raw_setup_s = (0.0, 0.0) if args.trace else measure_setup()

    OUT.mkdir(exist_ok=True)
    wl = workloads.make(args.workload, OUT)
    rounds, checks, attempted, failed = [], [], 0, 0
    try:
        if args.trace:
            start = time.perf_counter()
            plain = [wl.run(round_seed(args.seed, i)) for i in range(DIGEST_ROUNDS)]
            untraced_s = time.perf_counter() - start
            tracer = tracing.Tracer()
            tracer.install()
            try:
                start = time.perf_counter()
                rounds = [wl.run(round_seed(args.seed, i)) for i in range(DIGEST_ROUNDS)]
                traced_s = time.perf_counter() - start
            finally:
                tracer.uninstall()
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            # tracing must not change a single output
            failed += sum(repr(a.outputs) != repr(b.outputs) for a, b in zip(plain, rounds))
            attempted += sum(r.attempted for r in plain)
            metrics = tracing.layer_metrics(tracer.spans, untraced_s, traced_s)
            extra = {"spans": str(spans_path.relative_to(ROOT)), "spans_recorded": len(tracer.spans)}
        else:
            wl.run(round_seed(args.seed, 0))  # warm-up, not timed
            start = time.perf_counter()
            with speed.SpeedProbe() as probe:
                workloads.clock = probe.clock
                while len(rounds) < DIGEST_ROUNDS or time.perf_counter() - start < args.seconds:
                    rounds.append(wl.run(round_seed(args.seed, len(rounds))))
            metrics = end_to_end(rounds, probe.scaled, setup_s)
            measured = end_to_end(rounds, lambda a, b: b - a, raw_setup_s)
            extra = {"timed_s": time.perf_counter() - start,
                     "probe_samples": len(probe.samples),
                     "probe_kernel_s": statistics.median(s for _, s in probe.samples),
                     "as_measured": {k: v for k, (v, _) in measured.items()
                                     if k != "peak_rss_mb"}}
        for i, rnd in enumerate(rounds):
            checks.append(wl.check(round_seed(args.seed, i), rnd))
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": attempted + len(rounds) + 1,
                          "failed": failed + 1, "metrics": {}}))
        return 1

    attempted += sum(r.attempted for r in rounds) + sum(c.attempted for c in checks)
    failed += sum(c.failed for c in checks)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {k: u for k, (_, u) in metrics.items()} != wanted:
        print("error: metrics do not match BENCHMARK.json", file=sys.stderr)
        return 2

    result = {
        "workload": args.workload, "trace": args.trace, "rounds": len(rounds),
        "digest": digest(rounds, checks), "verdicts": wl.verdicts(rounds),
        "failed_fraction": failed / attempted, "provenance": provenance(args.seed),
        **extra,
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(rounds)} rounds")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:.6g} {unit}")
    if "as_measured" in extra:
        print(f"  as measured, unscaled (probe kernel median {extra['probe_kernel_s']:.4g} s "
              f"over {extra['probe_samples']} samples, nominal {speed.REF_SECONDS} s): " + ", ".join(
                  f"{k} {v:.6g}" for k, v in extra["as_measured"].items()))
    print(f"  failed_fraction {result['failed_fraction']:.6g} ({failed}/{attempted})")
    print(f"  digest sha256:{result['digest']} (rounds 0-{DIGEST_ROUNDS - 1})")
    for line in result["verdicts"]:
        print(f"  {line}")
    print("provenance " + json.dumps(result["provenance"]))
    out = {"correct": failed == 0, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, **out}, indent=2) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
