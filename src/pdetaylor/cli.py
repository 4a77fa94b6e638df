"""Command-line interface.

Four subcommands:

* ``bench``     score the expansion against a closed-form solution and check
                the published accuracy bounds (exit 1 when any bound fails),
* ``derive``    export time derivatives at t=0 at sampled points,
* ``taylor``    export series evaluations at finite horizons,
* ``plotdata``  export (x, exact, taylor) profiles on a uniform grid.

Each option is stated once, in ``_OPTIONS``, and each subcommand once, in
``_COMMANDS``, with the options it reads and their defaults.  A subcommand
has a flag for each of its options and its flat ``key = value`` config file
(``--config``) may hold only those keys; another flag is an error reported
with that subcommand's usage line.  File values go through the flag's
``type`` and ``choices``; a repeatable option (``t1``, ``param``) takes a
comma- or space-separated list there.  A flag wins over the file and the
file over the defaults, except that the file's ``param`` items merge with
the ``--param`` flags, a flag winning per key.  A subcommand that reads
``t1`` needs at least one horizon, each inside the problem's time range.
Every run is deterministic given its options: identical invocations write
byte-identical files.

Exit codes: 0 success, 1 numerical failure (bound exceeded, divergence,
sampling exhaustion, a lift outside its domain, too few jet orders) or an
array too large for memory (such as an enormous ``--points``; one above
``2**59 - 1`` is refused before any allocation), 2 usage
error, including an ``--out`` directory that cannot be created or written to
(such as an existing file) and ``plotdata`` horizons that name one file.  An
error prints one ``error:`` line; an unknown problem, or one without the
closed form a command needs, adds the ``problems:`` line.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bench import (
    OracleFailure,
    SamplingError,
    check_thresholds,
    format_report_table,
    run_benchmark,
    sample_points,
    write_report_csv,
)
from .driver import MAX_ORDER, DivergenceError, compute_expansion
from .jets import InsufficientJetOrderError
from .problems import NoExactOracleError, UnknownProblemError, available_problems, get_problem
from .series import LiftDomainError


class _UsageError(Exception):
    pass


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: it reports an argument it does not take with its own usage."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


# The argparse settings of each flag; the names are also the config-file keys.
_OPTIONS = {
    "problem": dict(help=f"problem name: {', '.join(available_problems())}"),
    "order": dict(type=int, help="highest retained time order K"),
    "points": dict(type=int, help="number of sample points"),
    "seed": dict(type=int, help="sampling seed (default 0)"),
    "t1": dict(action="append", type=float, help="evaluation horizon; repeat the flag for several"),
    "tau": dict(type=float, help="sampling exclusion threshold"),
    "out": dict(help="output directory (default .)"),
    "format": dict(choices=["csv", "json"], help="output format"),
    "param": dict(
        action="append", metavar="KEY=VALUE", help="override a problem parameter; repeatable"
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdetaylor",
        description="Taylor-expand PDE solutions in time and export or score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key, settings in _OPTIONS.items():
            if key in options:
                p.add_argument(f"--{key}", **settings)
        p.add_argument("--config", help="flat key=value config file")
    return parser


def _load_config_file(path: str, command: str, keys) -> dict[str, str]:
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise _UsageError(f"cannot read config file {path}: {e}") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise _UsageError(
                f"{path}:{lineno}: unknown key {key!r} for {command}; valid: {', '.join(keys)}"
            )
        values[key] = value.strip()
    return values


def _parse_param_items(items) -> dict[str, float]:
    params: dict[str, float] = {}
    for item in items:
        if "=" not in item:
            raise _UsageError(f"--param expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        try:
            params[key.strip()] = float(value)
        except ValueError:
            raise _UsageError(f"parameter {key.strip()!r} needs a numeric value, got {value!r}") from None
    return params


# A larger --points is refused before any allocation.  An array's size in
# bytes is an intp, so numpy can index no float64 array of twice as many
# values; half that limit leaves room for plotdata's two grid ends and for
# np.linspace, which refuses 64 values below it, where numpy raises ValueError
# in place of MemoryError.
_MAX_POINTS = np.iinfo(np.intp).max // 16


def _resolve(args: argparse.Namespace, defaults: dict) -> None:
    """Fill each option that no flag set from the config file, else from ``defaults``.

    A file's ``param`` items are kept under the flags' items, so a flag wins
    per key; any other flag, ``--t1`` included, replaces the file's value.
    """
    file_cfg = _load_config_file(args.config, args.command, defaults) if args.config else {}
    for key, text in file_cfg.items():
        flag = getattr(args, key)
        if flag is not None and key != "param":
            continue
        settings = _OPTIONS[key]
        listed = settings.get("action") == "append"
        convert = settings.get("type", str)
        try:
            values = [convert(t) for t in (text.replace(",", " ").split() if listed else [text])]
        except ValueError:
            raise _UsageError(f"config key {key!r}: cannot parse {text!r}") from None
        choices = settings.get("choices")
        for v in values:
            if choices and v not in choices:
                raise _UsageError(f"--{key} must be {' or '.join(choices)}, got {v!r}")
        setattr(args, key, values + (flag or []) if listed else values[0])
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)
    if not args.problem:
        raise _UsageError("no problem selected; pass --problem or set it in the config file")
    if not 1 <= args.order <= MAX_ORDER:
        raise _UsageError(f"--order must be in 1..{MAX_ORDER}, got {args.order}")
    if args.points < 1:
        raise _UsageError(f"--points must be >= 1, got {args.points}")
    if args.points > _MAX_POINTS:
        raise MemoryError(f"--points {args.points} is above {_MAX_POINTS}, more float64 "
                          "values than numpy can allocate")
    if "t1" in defaults and not args.t1:
        raise _UsageError(f"{args.command} needs at least one --t1 horizon")


# A plotdata profile's file: horizons that print alike under %g name one file.
_PLOT_FILE = "plot_{}_t{:g}.csv"


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _check_horizons(args: argparse.Namespace, problem) -> None:
    files = {}
    for t1 in args.t1:
        if not (0.0 <= t1 <= problem.t_end):  # also rejects NaN and inf
            raise _UsageError(
                f"t1={t1:g} outside [0, {problem.t_end:g}] for problem {problem.name}"
            )
        if args.command == "plotdata":
            name = _PLOT_FILE.format(problem.name, t1)
            if name in files:
                raise _UsageError(f"--t1 {files[name]!r} and --t1 {t1!r} would both write {name}")
            files[name] = t1


def _cmd_bench(args: argparse.Namespace, problem) -> int:
    if not problem.has_exact_oracle:
        raise NoExactOracleError(
            f"problem {problem.name!r} has no exact solution to benchmark against; "
            "use derive or taylor instead"
        )
    report = run_benchmark(
        problem,
        max_order=args.order,
        num_points=args.points,
        t1_values=args.t1,
        seed=args.seed,
        tau=args.tau,
    )
    print(format_report_table(report))
    out_path = os.path.join(args.out, f"bench_{problem.name}.csv")
    write_report_csv(report, out_path)
    print(f"\nwrote {out_path}")
    failures = check_thresholds(report)
    if failures:
        print()
        for line in failures:
            print(f"FAIL {line}")
        return 1
    print("all accuracy bounds hold")
    return 0


def _cmd_derive(args: argparse.Namespace, problem) -> int:
    x = sample_points(problem, args.points, args.tau, args.seed)
    expansion = compute_expansion(problem, x, args.order)
    derivs = expansion.derivatives()
    lines = ["component,order,x,value"]
    for m in range(problem.components):
        for i in range(args.order + 1):
            for xp, v in zip(x, derivs[m][i]):
                lines.append(f"{m},{i},{_fmt(xp)},{_fmt(v)}")
    out_path = os.path.join(args.out, f"derivatives_{problem.name}.csv")
    _write_text(out_path, lines)
    print(f"wrote {out_path} ({len(lines) - 1} rows)")
    return 0


def _cmd_taylor(args: argparse.Namespace, problem) -> int:
    x = sample_points(problem, args.points, args.tau, args.seed)
    expansion = compute_expansion(problem, x, args.order)
    evaluations = [expansion.evaluate(t1) for t1 in args.t1]
    rows = []
    for m in range(problem.components):
        for t1, values in zip(args.t1, evaluations):
            for xp, v in zip(x, values[m]):
                rows.append((m, t1, xp, v))
    if args.format == "json":
        lines = ["["]
        for idx, (m, t1, xp, v) in enumerate(rows):
            comma = "," if idx + 1 < len(rows) else ""
            lines.append(
                f'  {{"component": {m}, "t": {_fmt(t1)}, "x": {_fmt(xp)}, "value": {_fmt(v)}}}{comma}'
            )
        lines.append("]")
        out_path = os.path.join(args.out, f"taylor_points_{problem.name}.json")
        _write_text(out_path, lines)
    else:
        lines = ["component,t,x,value"]
        lines += [f"{m},{_fmt(t1)},{_fmt(xp)},{_fmt(v)}" for m, t1, xp, v in rows]
        out_path = os.path.join(args.out, f"taylor_points_{problem.name}.csv")
        _write_text(out_path, lines)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def _cmd_plotdata(args: argparse.Namespace, problem) -> int:
    if not problem.has_exact_oracle:
        raise NoExactOracleError(f"problem {problem.name!r} has no exact solution to plot against")
    lo, hi = problem.domain
    x = np.linspace(lo, hi, args.points + 2)[1:-1]
    expansion = compute_expansion(problem, x, args.order)
    for t1 in args.t1:
        exact = problem.exact(t1, x)[0]
        approx = expansion.evaluate(t1)[0]
        lines = ["x,exact,taylor"]
        lines += [
            f"{_fmt(xp)},{_fmt(e)},{_fmt(a)}" for xp, e, a in zip(x, exact, approx)
        ]
        out_path = os.path.join(args.out, _PLOT_FILE.format(problem.name, t1))
        _write_text(out_path, lines)
        print(f"wrote {out_path} ({len(x)} rows)")
    return 0


# Each subcommand: its handler, its help line, and the options it reads (its
# flags and config keys) with their defaults, None where there is none.
_COMMANDS = {
    "bench": (_cmd_bench, "score against the closed-form solution and check accuracy bounds",
              dict(problem=None, order=10, points=50, seed=0, t1=(0.01, 0.05, 0.1), tau=None,
                   out=".", param=None)),
    "derive": (_cmd_derive, "export time derivatives at t=0 at sampled points",
               dict(problem=None, order=7, points=100, seed=0, tau=None, out=".", param=None)),
    "taylor": (_cmd_taylor, "export series evaluations at finite horizons",
               dict(problem=None, order=7, points=100, seed=0, t1=(0.01, 0.02, 0.03, 0.04, 0.05),
                    tau=None, out=".", format="csv", param=None)),
    "plotdata": (_cmd_plotdata, "export exact-vs-series profiles on a uniform grid",
                 dict(problem=None, order=10, points=500, t1=(0.1,), out=".", param=None)),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    handler, _, defaults = _COMMANDS[args.command]
    try:
        _resolve(args, defaults)
        problem = get_problem(args.problem, _parse_param_items(args.param or ()) or None)
        if "t1" in defaults:
            _check_horizons(args, problem)
        os.makedirs(args.out, exist_ok=True)
        return handler(args, problem)
    except (UnknownProblemError, NoExactOracleError) as e:
        # the choice of problem is at fault: name the others
        print(f"error: {e}", file=sys.stderr)
        print(f"problems: {', '.join(available_problems())}", file=sys.stderr)
        return 2
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (LiftDomainError, InsufficientJetOrderError) as e:
        # numerical failures, though they subclass ValueError for the library
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (DivergenceError, SamplingError, OracleFailure, ArithmeticError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        # numpy names the array it could not allocate; Python's own says nothing
        print(f"error: out of memory{f': {e}' if str(e) else ''}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: cannot write output: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
