"""Command-line front end.

Subcommands: sample, lis, simulate, estimate, verify, tails.  The commands
that draw (sample, simulate, estimate, verify) accept --seed (default from
ULAM_SEED, then 0); every command accepts --config with key=value lines, each
key an option of that command set at most once (flags override config).
Commands that write files write a ``manifest.json`` next to their outputs
before the results are written; ``ulam --manifest FILE`` replays a recorded run
and reproduces its outputs byte for byte.

Exit codes: 0 success, 1 verification or certificate failure, 2 usage or
domain error, or an input too large for memory.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (TAIL_SELECTIONS, BoundaryRates, certificate_rows,
                     CERTIFICATE_COLUMNS, verify_tail_inequality)
from .hammersley import run_process, verify_line_identity
from .montecarlo import estimate_mean_subsequence, estimate_poissonized
from .sampling import (PlanarPointSet, make_rng, sample_boundary,
                       sample_poisson_cloud, sample_uniform_multiset_permutation)
from .subsequences import lis_strict, lnds_weak


class UsageError(Exception):
    pass


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


@contextmanager
def _manifest(args, outputs: list[Path]):
    """Write the run's manifest beside its outputs before the block writes
    them, and again with the finish time once it has.  Its parameters are the
    command's options, and any value the command derived from them."""
    path = outputs[0].parent / "manifest.json"
    man = {"command": args._command,
           "parameters": {k: v for k, v in vars(args).items()
                          if k not in ("func", "config", "manifest") and not k.startswith("_")},
           "seed": getattr(args, "seed", None), "tool_version": __version__,
           "started": _now(), "finished": None, "output_paths": [str(p) for p in outputs]}
    path.write_text(json.dumps(man, indent=2) + "\n")
    yield
    man["finished"] = _now()
    path.write_text(json.dumps(man, indent=2) + "\n")


def _write_csv(path: Path, header, rows) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _flag(name: str) -> str:
    """The option that sets ``args.name``."""
    return "--lambda" if name == "lam" else "--" + name.replace("_", "-")


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError(f"missing required option {_flag(name)}")


def _at_least(args, low: int, *names) -> None:
    for name in names:
        if getattr(args, name) < low:
            raise UsageError(f"{_flag(name)} must be >= {low}, got {getattr(args, name)}")


# --- sample -----------------------------------------------------------------

def cmd_sample(args) -> int:
    _require(args, "n", "k", "count")
    _at_least(args, 0, "count")
    rng = make_rng(args.seed, 0)
    words = [sample_uniform_multiset_permutation(args.n, args.k, rng)
             for _ in range(args.count)]
    if args.format == "csv":
        text = "\n".join(",".join(map(str, w.letters.tolist())) for w in words) + "\n"
    else:
        text = json.dumps([w.letters.tolist() for w in words]) + "\n"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        with _manifest(args, [out]):
            out.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


# --- lis ---------------------------------------------------------------------

def _parse_word_text(text: str):
    """A single CSV line of integers is a word; x,row lines are a point list;
    blank text is the empty word."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) == 1:
        cells = [c.strip() for c in lines[0].split(",")]
        try:
            return [int(c) for c in cells]
        except ValueError:
            pass  # fall through to point parsing
    pts = []
    for ln in lines:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != 2:
            raise UsageError(f"cannot parse line {ln!r} as 'x,row'")
        pts.append((float(cells[0]), int(cells[1])))
    return pts


def cmd_lis(args) -> int:
    if args.word is not None:
        text = args.word
    elif args.input is not None:
        text = Path(args.input).read_text()
    else:
        text = sys.stdin.read()
    try:
        parsed = _parse_word_text(text)
    except (ValueError, UsageError) as exc:
        raise UsageError(f"parse failure: {exc}")
    if parsed and isinstance(parsed[0], tuple):
        xs, rows = zip(*parsed)
        # a chain sees only the order of the rows: ranks keep large rows cheap
        distinct, rank = np.unique(rows, return_inverse=True)
        if distinct[0] < 1:
            raise UsageError(f"row {distinct[0]} is not a positive integer")
        ps = PlanarPointSet.from_points(np.column_stack((xs, rank + 1)), max(xs),
                                        distinct.size)
        length = lis_strict(ps) if args.order == "strict" else lnds_weak(ps)
    else:
        big = [v for v in parsed if not -2**63 <= v < 2**63]
        if big:
            raise UsageError(f"letter {big[0]} does not fit in a 64-bit integer")
        rows = np.asarray(parsed, dtype=np.int64)
        length = int(lis_strict(rows) if args.order == "strict" else lnds_weak(rows))
    print(length)
    return 0


# --- simulate ----------------------------------------------------------------

def cmd_simulate(args) -> int:
    _require(args, "x", "t", "lam")
    rates = None
    if args.alpha is not None and args.beta is not None:
        raise UsageError("give at most one of --alpha / --beta")
    if args.alpha is not None:
        rates = BoundaryRates.strict_from_alpha(args.lam, args.alpha)
        if args.variant != "strict":
            raise UsageError("--alpha applies to the strict variant")
    if args.beta is not None:
        if args.variant != "weak":
            raise UsageError("--beta applies to the weak variant")
        rates = BoundaryRates.weak_from_beta(args.lam, args.beta)
    run = run_process(args.x, args.t, args.lam, args.variant, rates,
                      make_rng(args.seed, 0), trace=args.trace)
    if rates is not None:
        args.sink_param = rates.sink_param  # record the derived rate
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts_path, trace_path = out_dir / "counts.csv", out_dir / "trace.csv"
    with _manifest(args, [counts_path, trace_path] if args.trace else [counts_path]):
        _write_csv(counts_path, ("step", "count", "exits"),
                   [(s + 1, int(c), int(e))
                    for s, (c, e) in enumerate(zip(run.counts, run.exit_counts))])
        if args.trace:
            _write_csv(trace_path, ("step", "particle_index", "position", "event"),
                       run.events)
    return 0


# --- estimate ----------------------------------------------------------------

# The options that give each estimate mode its geometry, in the order of its
# estimator's arguments and its plot.csv columns; an option of the other mode
# is an error.
_MODE_OPTIONS = {"word": ("n", "k"), "poisson": ("x", "t", "lam")}


def cmd_estimate(args) -> int:
    for mode, names in _MODE_OPTIONS.items():
        given = [name for name in names if getattr(args, name) is not None]
        if mode != args.mode and given:
            raise UsageError(f"{_flag(given[0])} applies to --mode {mode}")
    names = _MODE_OPTIONS[args.mode]
    _require(args, "reps", *names)
    _at_least(args, 1, "jobs")
    geometry = [getattr(args, name) for name in names]
    estimate = estimate_mean_subsequence if args.mode == "word" else estimate_poissonized
    report = estimate(*geometry, args.order, args.reps, args.seed, args.jobs)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    plot_path = out_dir / "plot.csv"
    with _manifest(args, [report_path, plot_path]):
        report_path.write_text(report.to_json(command="estimate") + "\n")
        _write_csv(plot_path, (*names, "mean", "stderr", "predicted"),
                   [(*geometry, report.mean, report.stderr, report.predicted)])
    return 0


# --- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    _at_least(args, 0, "clouds", "boundary")
    _at_least(args, 1, "max_t")
    if not 0.05 <= args.max_x < np.inf:  # written so that NaN fails it too
        raise UsageError(f"--max-x must be at least 0.05 and finite, got {args.max_x}")
    rng = make_rng(args.seed, 0)
    failures = 0
    for i in range(args.clouds + args.boundary):
        x = 0.05 + (args.max_x - 0.05) * rng.random()
        t = int(rng.integers(1, args.max_t + 1))
        lam = 0.05 + 1.95 * rng.random()
        cloud = sample_poisson_cloud(x, t, lam, rng)
        runs = [("plain", None, "strict", ""), ("plain", None, "weak", "")]
        if i >= args.clouds:
            alpha = 0.1 + 2.0 * rng.random()
            b = sample_boundary(x, t, BoundaryRates.strict_from_alpha(lam, alpha), rng)
            beta = lam + 0.1 + 2.0 * rng.random()
            bw = sample_boundary(x, t, BoundaryRates.weak_from_beta(lam, beta), rng)
            runs = [("boundary", b, "strict", f" alpha={alpha!r}"),
                    ("boundary", bw, "weak", f" beta={beta!r}")]
        for kind, boundary, variant, rate in runs:
            if not verify_line_identity(cloud, boundary, variant):
                failures += 1  # named on stderr, so that it can be replayed alone
                print(f"line identity failed: instance {i} ({kind}, {variant}) x={x!r} "
                      f"t={t} lam={lam!r}{rate} seed={args.seed}", file=sys.stderr)
    total = 2 * args.clouds + 2 * args.boundary
    print(f"line identity: {total - failures}/{total} instances passed")
    return 0 if failures == 0 else 1


# --- tails -------------------------------------------------------------------

def cmd_tails(args) -> int:
    certs = [verify_tail_inequality(kind) for kind in TAIL_SELECTIONS[args.kind]]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with _manifest(args, [out]):
        _write_csv(out, CERTIFICATE_COLUMNS, certificate_rows(certs))
    n_fail = sum(len(c.failures()) for c in certs)
    n_all = sum(len(c.records) for c in certs)
    print(f"tail certificates: {n_all - n_fail}/{n_all} grid points passed")
    return 0 if n_fail == 0 else 1


# --- parser ------------------------------------------------------------------

def _env_seed() -> int:
    text = os.environ.get("ULAM_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"ULAM_SEED must be an integer, got {text!r}") from None


def _check_choice(action, what: str, value):
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"{what} must be one of {', '.join(action.choices)}, got {value!r}")
    return value


def _config_value(action, key: str, text: str):
    """``text`` through the option's own type; a flag such as ``trace`` takes
    0 or 1.  argparse would convert a string default itself, but a bad value
    would then fail as ``--reps``; converting here names the config key, and
    checks ``choices``, which argparse skips for defaults."""
    what = f"config key {key!r}"
    if action.nargs == 0:
        if text not in ("0", "1"):
            raise UsageError(f"{what} must be 0 or 1, got {text!r}")
        return int(text)
    if action.type is None:
        return _check_choice(action, what, text)
    try:
        return _check_choice(action, what, action.type(text))
    except ValueError:
        raise UsageError(f"{what}: invalid {action.type.__name__} value {text!r}") from None


def _config_defaults(sub: argparse.ArgumentParser, command: str, path: str) -> dict:
    """Defaults by destination from the key=value lines of a config file.  A
    key names an option of the subcommand (``lambda``, ``max-x``) or its
    destination (``lam``, ``max_x``), and no two keys name the same option."""
    options = {name.lstrip("-").replace("-", "_"): a for a in sub._actions
               for name in (*a.option_strings, a.dest) if a.dest not in ("help", "config")}
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {line!r} is not key=value")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            raise UsageError(f"config key {key!r} is not an option of {command!r}")
        action = options[key]
        if action.dest in values:
            raise UsageError(f"config key {key!r} sets {action.option_strings[0]} "
                             f"a second time")
        values[action.dest] = _config_value(action, key, text.strip())
    return values


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ulam", description=__doc__)
    parser.add_argument("--manifest", help="replay a recorded run manifest")
    sub = parser.add_subparsers(dest="_command")

    def common(p):  # the options of the commands that draw
        p.add_argument("--seed", type=int, default=0, help="default: ULAM_SEED, then 0")
        p.add_argument("--config", default=None)

    p = sub.add_parser("sample", help="sample uniform multiset words")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("lis", help="longest chain length of a word or point list")
    p.add_argument("--config", default=None)
    p.add_argument("--input")
    p.add_argument("--word")
    p.add_argument("--order", choices=("strict", "weak"), default="strict")
    p.set_defaults(func=cmd_lis)

    p = sub.add_parser("simulate", help="run a particle process")
    common(p)
    p.add_argument("--x", type=float)
    p.add_argument("--t", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--variant", choices=("strict", "weak"), default="strict")
    p.add_argument("--alpha", type=float, help="strict source rate (p is derived)")
    p.add_argument("--beta", type=float, help="weak source rate (beta* is derived)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out-dir", default="ulam-simulate")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="Monte Carlo mean chain length")
    common(p)
    p.add_argument("--mode", choices=("word", "poisson"), default="word")
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--x", type=float)
    p.add_argument("--t", type=int)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--order", choices=("strict", "weak"), default="strict")
    p.add_argument("--reps", type=int)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", default="ulam-estimate")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("verify", help="run the line-identity suite")
    common(p)
    p.add_argument("--clouds", type=int, default=1000)
    p.add_argument("--boundary", type=int, default=200)
    p.add_argument("--max-x", type=float, default=20.0)
    p.add_argument("--max-t", type=int, default=20)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tails", help="exact tail-inequality certificates")
    p.add_argument("--config", default=None)
    p.add_argument("--kind", choices=TAIL_SELECTIONS, default="all")
    p.add_argument("--out", default="tails.csv")
    p.set_defaults(func=cmd_tails)
    return parser


# JSON types a recorded parameter may take, by its option's type; a flag
# records true/false, or 0/1 from a config file.
_MANIFEST_TYPES = {int: (int,), float: (int, float), None: (str,)}


def _manifest_value(action, key: str, value):
    what = f"manifest parameter {key!r}"
    if value is None and action.default is None:
        return value
    if action.nargs == 0:
        if isinstance(value, int) and value in (0, 1):
            return value
        raise UsageError(f"{what} must be true, false, 0 or 1, got {value!r}")
    types = _MANIFEST_TYPES[action.type]
    if isinstance(value, bool) or not isinstance(value, types):
        raise UsageError(f"{what} must be {' or '.join(t.__name__ for t in types)}, "
                         f"got {value!r}")
    return _check_choice(action, what, value)


# Parameters a replay skips: those a command derives from its options and
# records in its manifest (a replay derives them again), and the seed that
# tails manifests recorded while tails took --seed.
_DERIVED = {"simulate": ("sink_param",), "tails": ("seed",)}


def _replay(manifest_path: str) -> int:
    data = json.loads(Path(manifest_path).read_text())
    if not isinstance(data, dict):
        raise UsageError(f"manifest must be a JSON object, got {type(data).__name__}")
    for key, kind in (("command", str), ("parameters", dict)):
        if key not in data:
            raise UsageError(f"manifest has no key {key!r}")
        if not isinstance(data[key], kind):
            raise UsageError(f"manifest key {key!r} must be a JSON "
                             f"{'string' if kind is str else 'object'}")
    commands = _subcommands(build_parser())
    command = data["command"]
    if command not in commands:
        raise UsageError(f"manifest names unknown command {command!r}")
    sub = commands[command]
    args = sub.parse_args([])
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    for key, val in data["parameters"].items():
        if key in _DERIVED.get(command, ()):
            continue
        if key not in actions:
            raise UsageError(f"manifest parameter {key!r} is not an option of {command!r}")
        setattr(args, key, _manifest_value(actions[key], key, val))
    args._command = command
    return args.func(args)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv[:1] == ["--manifest"]:
            if len(argv) != 2:
                raise UsageError("--manifest takes exactly one file argument")
            return _replay(argv[1])
        parser = build_parser()
        args = parser.parse_args(argv)
        if getattr(args, "_command", None) is None:
            parser.print_usage(sys.stderr)
            return 2
        sub = _subcommands(parser)[args._command]
        defaults = {"seed": _env_seed()} if "seed" in vars(args) else {}
        if args.config is not None:
            defaults.update(_config_defaults(sub, args._command, args.config))
        if defaults:
            sub.set_defaults(**defaults)
            args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large for memory
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing or unreadable --config, --input or manifest
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
