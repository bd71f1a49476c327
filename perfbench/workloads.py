"""The four benchmark workloads.

A workload runs one round of fixed work from a round seed, through the
package's public calls with ``parallelism=1``, and times it.  Its check then
re-derives part of that round through an independent path, outside the
timed region.  The geometries are those of the acceptance criteria, so a
gain here is a gain in the Tier-1 wall time.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ulam import bounds, cli, couplings, hammersley, montecarlo, sampling, subsequences

# The clock rounds are timed with.  The runner puts in the one of its speed
# probe, which stops while the probe runs.
clock = time.perf_counter

# montecarlo draws replica r of an operation with tag g from the stream
# (seed, g << 32 | r) (see its module docstring); the checks re-derive
# replicas from that layout.
_TAG_WORD, _TAG_POISSON, _TAG_STATIONARY = 1, 2, 3
# Replicas per order and round re-derived by a check; at least 2, the
# smallest replica count the estimators accept.
CHECKED_REPLICAS = 2
ORDERS = ("strict", "weak")


@dataclass
class Round:
    """One round of a workload: its seeded outputs, timings and counts."""

    outputs: list          # hashed into the workload digest
    wall: list             # (start, end) intervals of `clock` that make the round
    order_span: dict       # order -> (start, end) of that order's calls
    order_n: dict          # order -> replicas or instances completed
    attempted: int
    reports: dict = field(default_factory=dict)


@dataclass
class Check:
    attempted: int
    failed: int
    outputs: list


def _stream(tag: int, rep: int) -> int:
    return (tag << 32) | rep


def _report_fields(rep) -> tuple:
    return (rep.mean, rep.stderr, rep.reps, rep.predicted)


def _same_mean_and_stderr(rep, values: list[int]) -> bool:
    """Exact agreement of a report with replica values recomputed elsewhere."""
    vals = np.asarray(values, dtype=float)
    stderr = float(vals.std(ddof=1) / math.sqrt(vals.size))
    return rep.mean == float(vals.mean()) and rep.stderr == stderr


def _pooled(reports) -> tuple[float, float, int]:
    """Mean, standard error and size of the union of the reports' samples."""
    n = sum(r.reps for r in reports)
    total = sum(r.reps * r.mean for r in reports)
    squares = sum((r.reps - 1) * r.reps * r.stderr ** 2 + r.reps * r.mean ** 2
                  for r in reports)
    mean = total / n
    var = (squares - n * mean * mean) / (n - 1)
    return mean, math.sqrt(max(var, 0.0) / n), n


def _two_orders(estimate, reps: int, seed: int, fields=_report_fields) -> Round:
    """Run ``estimate(order, reps, seed)`` strict then weak, timing each;
    ``fields`` picks the seeded outputs of a report."""
    reports, order_span = {}, {}
    for order in ORDERS:
        start = clock()
        reports[order] = estimate(order, reps, seed)
        order_span[order] = (start, clock())
    return Round(outputs=[fields(reports[o]) for o in ORDERS],
                 wall=[order_span[o] for o in ORDERS], order_span=order_span,
                 order_n={o: reps for o in ORDERS}, attempted=2 * reps,
                 reports=reports)


def _recount_check(estimate, recount, seed: int) -> Check:
    """The estimator's report on the first replicas must equal, bit for bit,
    the mean and standard error of the same replicas recounted by the
    particle dynamics, ``recount(order, seed, replica)``."""
    failed, outputs = 0, []
    for order in ORDERS:
        rep = estimate(order, CHECKED_REPLICAS, seed)
        counts = [recount(order, seed, r) for r in range(CHECKED_REPLICAS)]
        failed += not _same_mean_and_stderr(rep, counts)
        outputs.append(counts)
    return Check(len(ORDERS), failed, outputs)


class CloudMean:
    """Criterion 09 at x = t = 100, lam = 1: cloud sampler plus patience pass."""

    X, T, LAM, REPS = 100.0, 100, 1.0, 60

    def estimate(self, order, reps, seed):
        return montecarlo.estimate_poissonized(self.X, self.T, self.LAM, order, reps,
                                               seed, parallelism=1)

    def run(self, seed: int) -> Round:
        return _two_orders(self.estimate, self.REPS, seed)

    def recount(self, order: str, seed: int, r: int) -> int:
        rng = sampling.make_rng(seed, _stream(_TAG_POISSON, r))
        cloud = sampling.sample_poisson_cloud(self.X, self.T, self.LAM, rng)
        return hammersley.run_dynamics(cloud, None, order).state.count

    def check(self, seed: int, rnd: Round) -> Check:
        return _recount_check(self.estimate, self.recount, seed)

    def verdicts(self, rounds: list[Round]) -> list[str]:
        lines = []
        for order in ORDERS:
            reps = [r.reports[order] for r in rounds]
            mean, stderr, n = _pooled(reps)
            bound = reps[0].predicted
            ok = mean <= bound + 4 * stderr
            lines.append(f"criterion 09 {order}({self.X:g},{self.T},{self.LAM:g}): "
                         f"mean {mean:.3f} <= {bound:.3f} + 4 * {stderr:.3f} over {n} "
                         f"replicas: {'PASS' if ok else 'FAIL'}")
        return lines


class WordMean:
    """Criteria 05/06 at n = 1000, k = 10: word sampler plus patience pass;
    no point set and no cloud sampler."""

    N, K, REPS = 1000, 10, 60

    def estimate(self, order, reps, seed):
        return montecarlo.estimate_mean_subsequence(self.N, self.K, order, reps, seed,
                                                    parallelism=1)

    def run(self, seed: int) -> Round:
        return _two_orders(self.estimate, self.REPS, seed)

    def recount(self, order: str, seed: int, r: int) -> int:
        """The word is read as the point set {(i, letter)}."""
        rng = sampling.make_rng(seed, _stream(_TAG_WORD, r))
        word = sampling.sample_uniform_multiset_permutation(self.N, self.K, rng)
        cloud = sampling.PlanarPointSet.from_points(
            [(i + 1, v) for i, v in enumerate(word.letters)], word.size, self.N)
        return hammersley.run_dynamics(cloud, None, order).state.count

    def check(self, seed: int, rnd: Round) -> Check:
        return _recount_check(self.estimate, self.recount, seed)

    def verdicts(self, rounds: list[Round]) -> list[str]:
        lines = []
        for num, order in (("05", "strict"), ("06", "weak")):
            reps = [r.reports[order] for r in rounds]
            mean, stderr, n = _pooled(reps)
            target = reps[0].predicted
            rel = abs(mean - target) / target
            ok = rel <= 0.07
            lines.append(f"criterion {num} {order}(n={self.N},k={self.K}): mean {mean:.3f}, "
                         f"rel {rel:.4f} <= 0.07, z {(mean - target) / stderr:+.2f} over "
                         f"{n} replicas: {'PASS' if ok else 'FAIL'}")
        return lines


class Stationary:
    """Criterion 08: boundary process at x = 50, t = 200, lam = 1, strict
    at source rate 1 and weak at source rate 2; no patience pass."""

    X, LAM, T, REPS = 50.0, 1.0, 200, 30
    SOURCE_RATE = {"strict": 1.0, "weak": 2.0}

    def estimate(self, order, reps, seed):
        return montecarlo.stationarity_test(self.X, self.LAM, self.SOURCE_RATE[order],
                                            order, self.T, reps, seed, parallelism=1)

    def run(self, seed: int) -> Round:
        return _two_orders(self.estimate, self.REPS, seed,
                           lambda rep: (rep.counts.tolist(), rep.mean, rep.variance,
                                        rep.chi2_stat, rep.p_value))

    def check(self, seed: int, rnd: Round) -> Check:
        """Re-run the first replicas: same final count as the report, and the
        boundary line identity count + sinks == boundary chain length."""
        failed, outputs = 0, []
        for order in ORDERS:
            rates = (bounds.BoundaryRates.strict_from_alpha if order == "strict"
                     else bounds.BoundaryRates.weak_from_beta)(self.LAM, self.SOURCE_RATE[order])
            for r in range(CHECKED_REPLICAS):
                rng = sampling.make_rng(seed, _stream(_TAG_STATIONARY, r))
                run = hammersley.run_process(self.X, self.T, self.LAM, order, rates, rng)
                chain = subsequences.longest_chain_with_boundary(run.cloud, run.boundary, order)
                failed += run.state.count != int(rnd.reports[order].counts[r])
                failed += run.state.count + run.boundary.total_sinks != chain
                outputs.append((run.state.count, chain))
        return Check(2 * len(ORDERS) * CHECKED_REPLICAS, failed, outputs)

    def verdicts(self, rounds: list[Round]) -> list[str]:
        lines = []
        for order in ORDERS:
            counts = np.concatenate([r.reports[order].counts for r in rounds])
            mu = self.X * self.SOURCE_RATE[order]
            z = (counts.mean() - mu) / math.sqrt(mu / counts.size)
            p_min = min(r.reports[order].p_value for r in rounds)
            lines.append(f"criterion 08 {order}(x={self.X:g},t={self.T},rate="
                         f"{self.SOURCE_RATE[order]:g}): mean {counts.mean():.3f} vs {mu:g}, "
                         f"z {z:+.2f}, min chi2 p {p_min:.3g} over {counts.size} replicas: "
                         f"{'PASS' if abs(z) <= 4 else 'FAIL'}")
        return lines


class Certify:
    """`ulam verify` on plain and boundary clouds, the criterion-12 coupling
    draws and `ulam tails --kind all`: thousands of tiny instances."""

    CLOUDS, BOUNDARY, DRAWS = 300, 60, 100

    def __init__(self, out_dir: Path) -> None:
        self.tails_csv = out_dir / "tails.csv"

    @staticmethod
    def _cli(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    @classmethod
    def _coupling_draws(cls, seed: int) -> tuple[list, int]:
        """Criterion 12's four coupling inequalities; returns the chain
        lengths drawn and the number of violations."""
        rng = sampling.make_rng(seed, 12)
        lengths, violations = [], 0
        for _ in range(cls.DRAWS):
            sigma = sampling.sample_uniform_permutation(24, rng)
            word = couplings.project_to_multiset(sigma, 3)
            row = (subsequences.lis_strict(word), subsequences.lnds_weak(sigma),
                   subsequences.lnds_weak(word))
            violations += not row[0] <= row[1] <= row[2]
            lengths.append(row)
        for draw, worse in ((lambda: couplings.poissonized_coupling_upper(5, 3, 2.0, rng), 1),
                            (lambda: couplings.poissonized_coupling_lower(5, 3, 0.05, rng), -1)):
            for _ in range(cls.DRAWS):
                s = draw()
                if s.event_flag:
                    gap = (subsequences.lnds_weak(s.objects["word"])
                           - subsequences.lnds_weak(s.objects["cloud"]))
                    violations += gap * worse > 0
                    lengths.append(gap)
                else:
                    lengths.append(None)
        for _ in range(cls.DRAWS):
            n, k = int(rng.integers(2, 16)), int(rng.integers(1, 4))
            a = int(rng.integers(1, n + 1))
            w = sampling.sample_uniform_multiset_permutation(n, k, rng)
            row = (subsequences.lnds_weak(w),
                   subsequences.lnds_weak(couplings.group_heights(w, a)))
            violations += row[0] > row[1] + k * a
            lengths.append(row)
        return lengths, violations

    def run(self, seed: int) -> Round:
        start = clock()
        verify = self._cli(["verify", "--seed", str(seed), "--clouds", str(self.CLOUDS),
                            "--boundary", str(self.BOUNDARY), "--max-x", "20",
                            "--max-t", "20"])
        lengths, violations = self._coupling_draws(seed)
        tails = self._cli(["tails", "--kind", "all", "--out", str(self.tails_csv)])
        wall = (start, clock())
        rows = self.tails_csv.read_text()
        instances = 2 * self.CLOUDS + 2 * self.BOUNDARY
        grid = rows.count("\n") - 1
        # verify interleaves the orders per cloud, so both rates share the
        # round's wall time; the coupling inequalities are all weak-order.
        return Round(outputs=[verify, lengths, violations, tails,
                              hashlib.sha256(rows.encode()).hexdigest()],
                     wall=[wall], order_span={o: wall for o in ORDERS},
                     order_n={"strict": instances // 2,
                              "weak": instances // 2 + 4 * self.DRAWS},
                     attempted=instances + 4 * self.DRAWS + grid,
                     reports={"tails_csv": rows})

    def check(self, seed: int, rnd: Round) -> Check:
        """Every verify instance passes, no coupling inequality is violated,
        the Poisson and binomial certificates hold on their whole grids, and
        the tails exit code matches its reported violations."""
        (code_v, out_v), _, violations, (code_t, out_t), _ = rnd.outputs
        instances = 2 * self.CLOUDS + 2 * self.BOUNDARY
        passed = int(out_v.split(":")[1].split("/")[0])
        records = list(csv.DictReader(io.StringIO(rnd.reports["tails_csv"], newline="")))
        exact_fail = sum(r["pass"] != "True" for r in records
                         if not r["kind"].startswith("geomsum"))
        geomsum_fail = sum(r["pass"] != "True" for r in records
                           if r["kind"].startswith("geomsum"))
        failed = (instances - passed) + (code_v != 0) + violations + exact_fail
        failed += code_t != (1 if exact_fail + geomsum_fail else 0)
        failed += f"{len(records) - exact_fail - geomsum_fail}/{len(records)}" not in out_t
        return Check(0, failed, [geomsum_fail])

    def verdicts(self, rounds: list[Round]) -> list[str]:
        out_t = rounds[0].outputs[3][1].strip()
        return [f"criterion 10c (red on purpose, not a failed operation): {out_t}"]


def make(name: str, out_dir: Path):
    if name == "certify":
        return Certify(out_dir)
    return {"cloud_mean": CloudMean, "word_mean": WordMean, "stationary": Stationary}[name]()
