"""Command-line interface: Landen tables, verification suites, field dumps, evolution.

Subcommands
-----------
landen   print gamma, m_tilde, shifts, cyclic constants and A for one (p, m)
verify   run a verification suite; JSONL report, per-family summary, exit 0/1
eval     dump (x, u) samples of one wave family as CSV
evolve   integrate a family and compare against its exact translate

When the first argument names a command, main parses the rest with that
command's parser alone, which reports their errors under its own usage
line.  Any other command line goes to build_parser's tree, which knows
only the command names and always exits: with --help, or with a usage
error naming every token it does not know, so "-x evolve --n 3" reports
"unrecognized arguments: -x --n 3".

Exit codes: 0 success, 1 failed checks / instability / I/O failure,
2 usage or config errors.  Every command accepts --json for machine
output; schemas carry the version tag below.  Outputs contain no
timestamps and floats print at 15 significant digits, so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import shutil
import sys
from typing import Callable

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    InstabilityError,
    PeriodMismatchError,
)
from .evolve import (
    EvolverConfig,
    conservation_report,
    evolve_trajectory,
    translation_lag,
)
from .fourier import PeriodicGrid
from .landen import landen_map
from .verify import SUITES, _upm_wave, run_suite
from .waves import DnWaveParams

SCHEMA = "landen-kdv/1"


def _fmt(value: float) -> str:
    return format(float(value), ".15g")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_config(path: str) -> tuple[str, dict]:
    """(command, options) from {"schema": ..., "command": ..., "options": {...}}."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError, or UnicodeDecodeError
        raise DomainError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or not isinstance(raw.get("options"), dict):
        raise DomainError(f"config {path} must contain an 'options' object")
    return str(raw.get("command", "")), raw["options"]


def _config_value(flag: argparse.Action, value):
    """A config-file value as its flag would parse it; ValueError otherwise.

    Typed flags parse the text JSON gives, so 2.7 is not an int and "abc"
    is not a float.  Switches, repeatable flags and plain strings take the
    default's type.  null keeps an unset default; choices apply as on the
    command line.
    """
    default = flag.default
    if value is None and default is None:
        return None
    if flag.type is None:
        kind = str if default is None else type(default)
        if not isinstance(value, kind) or (
                kind is list and not all(isinstance(v, str) for v in value)):
            raise ValueError(f"expected a {kind.__name__}, got {value!r}")
        parsed = value
    else:
        text = value if isinstance(value, str) else json.dumps(value)
        try:
            parsed = flag.type(text)
        except ValueError:
            raise ValueError(f"invalid {flag.type.__name__} value: {text!r}") from None
    if flag.choices is not None and parsed not in flag.choices:
        raise ValueError(f"{parsed!r} is not one of {list(flag.choices)}")
    return parsed


def _config_defaults(path: str, command: str, flags: dict) -> dict:
    """The config file's options, checked like their flags, keyed by dest."""
    cfg_command, options = _read_config(path)
    if cfg_command and cfg_command != command:
        raise DomainError(
            f"config {path} is for command {cfg_command!r}, not {command!r}")
    unknown = set(options) - (set(flags) - {"help", "config"})
    if unknown:
        raise DomainError(f"config {path} has unknown options: "
                          f"{sorted(unknown)}")
    values = {}
    for key, value in options.items():
        try:
            values[key] = _config_value(flags[key], value)
        except ValueError as exc:
            raise DomainError(f"config {path}: {key}: {exc}") from None
    return values


def _parse_tol(pairs: list[str]) -> dict[str, str]:
    """{NAME: VALUE} from NAME=VALUE pairs; run_suite converts and judges VALUE."""
    out: dict[str, str] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise DomainError(f"--tol expects NAME=VALUE, got {pair!r}")
        out[name] = value
    return out


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _IOFailure(f"cannot write {path}: {exc}") from exc


def _xu_csv(x: np.ndarray, u: np.ndarray) -> str:
    return "x,u\n" + "".join(f"{_fmt(xv)},{_fmt(uv)}\n" for xv, uv in zip(x, u))


class _IOFailure(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# landen


def cmd_landen(args: argparse.Namespace) -> int:
    lmap = landen_map(args.p, args.m)
    if args.json:
        sys.stdout.write(_dump_json({
            "schema": SCHEMA, "p": lmap.p, "m": lmap.m, "gamma": lmap.gamma,
            "m_tilde": lmap.m_tilde, "shifts": list(lmap.shifts),
            "a": list(lmap.a), "A": lmap.A}) + "\n")
        return 0
    rows: list[tuple[str, float]] = [
        ("gamma", lmap.gamma), ("m_tilde", lmap.m_tilde), ("A", lmap.A)]
    rows += [(f"shift_{i + 1}", s) for i, s in enumerate(lmap.shifts)]
    rows += [(f"a_{r + 1}", a) for r, a in enumerate(lmap.a)]
    if args.csv:
        lines = ["name,value"] + [f"{name},{_fmt(value)}" for name, value in rows]
        sys.stdout.write("\n".join(lines) + "\n")
        return 0
    width = max(len(name) for name, _ in rows)
    header = f"p = {lmap.p}   m = {_fmt(lmap.m)}"
    lines = [header, "-" * len(header)]
    lines += [f"{name:<{width}}  {_fmt(value)}" for name, value in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# verify


def _family_table(results) -> str:
    """One row per check family: count, worst metric, tolerance, status.

    The worst metric is the one closest to failing: the largest, or the
    smallest for lower-bound checks, which pass above their tolerance.
    """
    families: dict[str, list] = {}
    for r in results:
        families.setdefault(r.check, []).append(r)
    width = max(len("check"), *map(len, families))
    lines = [f"{'check':<{width}}  {'n':>4}  {'worst metric':>12}  {'tol':>11}  status"]
    for name in sorted(families):
        group = families[name]
        lower = group[0].params.get("bound") == "lower"
        worst = (min if lower else max)(group, key=lambda r: r.metric)
        bound = f"{'>=' if lower else '<='} {worst.tol:.0e}"
        failed = sum(not r.passed for r in group)
        status = f"{failed} FAILED" if failed else "ok"
        lines.append(f"{name:<{width}}  {len(group):>4}  {worst.metric:>12.3e}  "
                     f"{bound:>11}  {status}")
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, _parse_tol(args.tol))
    report = "".join(r.json_line() + "\n" for r in results)
    n_pass = sum(r.passed for r in results)
    all_pass = n_pass == len(results)

    _write_text(args.report, report)
    summary_stream = sys.stdout if args.report else sys.stderr
    if args.json:
        failures = [r.check for r in results if not r.passed]
        summary = _dump_json({
            "schema": SCHEMA, "suite": args.suite, "total": len(results),
            "passed": n_pass, "failed_checks": failures}) + "\n"
    else:
        summary = _family_table(results) + (
            f"{args.suite}: {n_pass}/{len(results)} checks passed\n"
            if all_pass else
            f"{args.suite}: {n_pass}/{len(results)} checks passed, "
            f"{len(results) - n_pass} FAILED\n")
    summary_stream.write(summary)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# eval


def _build_wave(args: argparse.Namespace):
    if args.family == "upm":
        return _upm_wave(args.alpha, args.m, args.sign, args.scaling)
    p = 1 if args.family == "u1" else args.p
    return DnWaveParams(alpha=args.alpha, beta=args.beta, m=args.m, p=p)


def _eval_grid(wave, args: argparse.Namespace) -> PeriodicGrid:
    if args.length is not None:
        return PeriodicGrid(N=args.n, L=args.length)
    try:
        period = wave.spatial_period
    except DomainError as exc:
        raise DomainError(
            f"{exc}; pass --length to sample on an explicit window") from exc
    return PeriodicGrid(N=args.n, L=args.periods * period)


def cmd_eval(args: argparse.Namespace) -> int:
    wave = _build_wave(args)
    grid = _eval_grid(wave, args)
    u = wave.sample(grid, args.t)
    if args.json:
        payload = _dump_json({
            "schema": SCHEMA, "family": args.family, "t": args.t,
            "N": grid.N, "L": grid.L,
            "x": [float(v) for v in grid.x], "u": [float(v) for v in u]}) + "\n"
        _write_text(args.output, payload)
        return 0
    _write_text(args.output, _xu_csv(grid.x, u))
    return 0


# ---------------------------------------------------------------------------
# evolve


# record fields that describe the run, not the snapshot files
_RUN_ONLY = ("family", "steps", "lag", "predicted_lag")


def cmd_evolve(args: argparse.Namespace) -> int:
    wave = _build_wave(args)
    grid = wave.natural_grid(args.n)

    speed = abs(wave.velocity)
    if args.T is not None:
        duration = args.T
    else:
        if speed == 0.0:
            raise DomainError("wave speed is zero; pass --T explicitly")
        duration = args.periods_crossed * grid.L / speed
        # a tiny speed can overflow the crossing time: name its inputs, as
        # there is no --T to blame
        if not math.isfinite(duration):
            raise DomainError(
                f"--periods-crossed {args.periods_crossed!r} at wave speed {speed!r} "
                "takes a non-finite time; pass --T explicitly")
    # for_duration refuses a bad duration before it is sampled as a time;
    # without --dt, the run chooses its step
    config = EvolverConfig.for_duration(
        grid, duration, args.dt, snapshot_every=args.snapshot_every)
    # config.T is duration, so u0 and the exact field at T are one kernel call
    u0, exact = wave.sample(grid, np.array([[0.0], [duration]]))
    traj = evolve_trajectory(u0, config)
    config, error_estimate = traj.config, traj.error_estimate
    cons = conservation_report(traj)
    # V*T mod L in [-dx/2, L - dx/2), whose nearest grid shift is the one
    # translation_lag reads in [0, L); + 0.0 turns a -0.0 into 0.0
    predicted_lag = math.fmod(wave.velocity * config.T, grid.L) + 0.0
    half_dx = grid.spacing / 2.0
    if predicted_lag < -half_dx:
        predicted_lag += grid.L
    elif predicted_lag >= grid.L - half_dx:
        predicted_lag -= grid.L
    record = {
        "schema": SCHEMA, "family": args.family, "N": grid.N, "L": grid.L,
        "dt": config.dt, "T": config.T, "steps": config.steps,
        "cfl": traj.cfl,
        "error_estimate": error_estimate,
        "deviation": float(np.abs(traj.final - exact).max()),
        "mass_drift": cons.mass_drift, "momentum_drift": cons.momentum_drift,
        "lag": translation_lag(u0, traj.final, grid),
        "predicted_lag": predicted_lag}

    if args.output_dir:
        meta = {k: v for k, v in record.items() if k not in _RUN_ONLY}
        meta["snapshot_times"] = list(traj.times)
        _write_snapshots(args.output_dir, traj, meta)

    if args.json:
        sys.stdout.write(_dump_json(record) + "\n")
        return 0
    estimate_text = ("none (--dt given)" if error_estimate is None
                     else _fmt(error_estimate))
    sys.stdout.write(
        f"steps          {record['steps']} (dt = {_fmt(record['dt'])})\n"
        f"cfl            {_fmt(record['cfl'])}\n"
        f"error estimate {estimate_text}\n"
        f"deviation      {_fmt(record['deviation'])}\n"
        f"mass drift     {_fmt(record['mass_drift'])}\n"
        f"momentum drift {_fmt(record['momentum_drift'])}\n"
        f"lag            {_fmt(record['lag'])} (predicted {_fmt(predicted_lag)})\n")
    return 0


def _write_snapshots(out_dir: str, traj, meta: dict) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise _IOFailure(f"cannot create {out_dir}: {exc}") from exc
    for idx, u in enumerate(traj.fields):
        _write_text(os.path.join(out_dir, f"snapshot_{idx:04d}.csv"),
                    _xu_csv(traj.config.grid.x, u))
    _write_text(os.path.join(out_dir, "metadata.json"), _dump_json(meta) + "\n")


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads "-1e-05" as a value, not as a flag.

    Stock argparse recognizes only -1 and -1.5 as negative numbers, so
    "--beta -1e-05" was an unknown option; subparsers inherit this class.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_wave_flags(parser: argparse.ArgumentParser) -> None:
    """The wave and grid flags that eval and evolve share."""
    parser.add_argument("-p", type=int, default=3,
                        help="terms for family up (default %(default)s)")
    parser.add_argument("-m", type=float, default=0.5,
                        help="modulus parameter (default %(default)s)")
    parser.add_argument("--alpha", type=float, default=1.0,
                        help="wavenumber scale (default %(default)s)")
    parser.add_argument("--beta", type=float, default=0.0,
                        help="offset, in units of alpha^2 (default %(default)s)")
    parser.add_argument("--n", type=int, default=256,
                        help="grid points, a power of 2 (default %(default)s)")


def _landen_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-p", type=int, default=1,
                        help="number of superposed terms (default %(default)s)")
    parser.add_argument("-m", type=float, default=0.5,
                        help="modulus parameter, in [0, 1] for p = 1 and in "
                             "(0, 1) otherwise (default %(default)s)")
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--csv", action="store_true")


def _verify_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--suite", choices=sorted(SUITES) + ["all"],
                        default="all", help="suite to run (default %(default)s)")
    parser.add_argument("--report",
                        help="write JSONL report here instead of stdout")
    parser.add_argument("--tol", action="append", metavar="NAME=VALUE",
                        default=[], help="override one tolerance; repeatable")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable summary")


def _eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("u1", "up", "upm"), default="u1",
                        help="wave family (default %(default)s)")
    _add_wave_flags(parser)
    parser.add_argument("--sign", type=int, choices=(1, -1), default=1,
                        help="branch for family upm (default %(default)s)")
    parser.add_argument("--scaling", choices=("standard", "as_written"),
                        default="standard",
                        help="upm phase velocity scaling (default %(default)s)")
    parser.add_argument("--periods", type=int, default=1,
                        help="spatial periods to span (default %(default)s)")
    parser.add_argument("--length", type=float,
                        help="explicit window length (overrides --periods)")
    parser.add_argument("-t", type=float, default=0.0,
                        help="time (default %(default)s)")
    parser.add_argument("--output", help="CSV path (default stdout)")
    parser.add_argument("--json", action="store_true")


def _evolve_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=("u1", "up"), default="u1",
                        help="wave family (default %(default)s)")
    _add_wave_flags(parser)
    parser.add_argument("--periods-crossed", dest="periods_crossed",
                        type=float, default=1.0,
                        help="how many periods the wave travels "
                             "(default %(default)s)")
    parser.add_argument("--T", dest="T", type=float,
                        help="final time (overrides --periods-crossed)")
    parser.add_argument("--dt", type=float,
                        help="target step, reduced to land on T exactly "
                             "(default: chosen from the CFL number and an "
                             "error pilot)")
    parser.add_argument("--snapshot-every", dest="snapshot_every", type=int,
                        default=0, help="keep every s-th step (0: endpoints)")
    parser.add_argument("--output-dir", dest="output_dir",
                        help="write snapshot CSVs and metadata.json here")
    parser.add_argument("--json", action="store_true")


# each command's flags, --help line and runner, in the order --help lists them
_COMMANDS: dict[str, tuple[Callable[[argparse.ArgumentParser], None], str,
                           Callable[[argparse.Namespace], int]]] = {
    "landen": (_landen_flags, "print the Landen map data for one (p, m)", cmd_landen),
    "verify": (_verify_flags, "run a verification suite and emit a JSONL report",
               cmd_verify),
    "eval": (_eval_flags, "dump (x, u) samples of one family", cmd_eval),
    "evolve": (_evolve_flags, "integrate a family and compare to its exact translate",
               cmd_evolve),
}


def _formatter_class():
    # argparse makes a help formatter per add_argument, and each one asks
    # for the terminal size; ask once, with the width HelpFormatter would take
    return functools.partial(argparse.HelpFormatter,
                             width=shutil.get_terminal_size().columns - 2)


def build_parser() -> argparse.ArgumentParser:
    """The command names alone, for --help and the errors before a command."""
    formatter_class = _formatter_class()
    parser = _Parser(
        prog="landen-kdv",
        description="Cnoidal KdV waves, p-term Landen maps, and numerical "
                    "verification that superpositions re-express single waves.",
        formatter_class=formatter_class)
    sub = parser.add_subparsers(dest="command_name", required=True)
    for name, (_, help_line, _) in _COMMANDS.items():
        sub.add_parser(name, help=help_line, formatter_class=formatter_class)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """name's flags and --config, under the usage line of landen-kdv name."""
    parser = _Parser(prog=f"landen-kdv {name}",
                     formatter_class=_formatter_class())
    _COMMANDS[name][0](parser)
    parser.add_argument("--config",
                        help="JSON config file; flags win, --tol merges by name")
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in _COMMANDS:
        build_parser().parse_args(argv)  # prints help or a usage error; exits
    name, argv = argv[0], argv[1:]
    parser = _command_parser(name)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config values become the command's defaults, so typed flags
            # still win and a repeated --tol appends to the file's list
            parser.set_defaults(**_config_defaults(
                args.config, name, {a.dest: a for a in parser._actions}))
            args = parser.parse_args(argv)
        return _COMMANDS[name][2](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return 1
    except (ConsistencyError, PeriodMismatchError, _IOFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
