"""Command-line interface.

Four subcommands share one option set:

* ``bench``     score the expansion against a closed-form solution and check
                the published accuracy bounds (exit 1 when any bound fails),
* ``derive``    export time derivatives at t=0 at sampled points,
* ``taylor``    export series evaluations at finite horizons,
* ``plotdata``  export (x, exact, taylor) profiles on a uniform grid.

Options may also come from a flat ``key = value`` config file (``--config``);
explicit command-line flags win over the file, the file wins over defaults.
Every run is deterministic given its options: identical invocations write
byte-identical files.

Exit codes: 0 success, 1 numerical failure (bound exceeded, divergence,
sampling exhaustion, a lift outside its domain, too few jet orders), 2 usage
error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bench import (
    OracleFailure,
    SamplingError,
    check_thresholds,
    default_exclusion,
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


_DEFAULTS = {
    "bench": {"order": 10, "points": 50, "t1": (0.01, 0.05, 0.1)},
    "derive": {"order": 7, "points": 100, "t1": ()},
    "taylor": {"order": 7, "points": 100, "t1": (0.01, 0.02, 0.03, 0.04, 0.05)},
    "plotdata": {"order": 10, "points": 500, "t1": (0.1,)},
}

_CONFIG_KEYS = {"problem", "order", "points", "seed", "t1", "tau", "out", "format", "param"}


@dataclass
class RunConfig:
    command: str
    problem: str
    order: int
    points: int
    seed: int
    t1_values: tuple[float, ...]
    tau: float | None
    out_dir: str
    fmt: str
    params: dict[str, float]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdetaylor",
        description="Taylor-expand PDE solutions in time and export or score the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("bench", "score against the closed-form solution and check accuracy bounds"),
        ("derive", "export time derivatives at t=0 at sampled points"),
        ("taylor", "export series evaluations at finite horizons"),
        ("plotdata", "export exact-vs-series profiles on a uniform grid"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--problem", help="problem name (see --help epilog)")
        p.add_argument("--order", type=int, help="highest retained time order K")
        p.add_argument("--points", type=int, help="number of sample points")
        p.add_argument("--seed", type=int, help="sampling seed (default 0)")
        p.add_argument(
            "--t1",
            action="append",
            type=float,
            help="evaluation horizon; repeat the flag for several",
        )
        p.add_argument("--tau", type=float, help="sampling exclusion threshold")
        p.add_argument("--out", help="output directory (default .)")
        p.add_argument("--format", choices=["csv", "json"], help="output format for taylor")
        p.add_argument(
            "--param",
            action="append",
            metavar="KEY=VALUE",
            help="override a problem parameter; repeatable",
        )
        p.add_argument("--config", help="flat key=value config file")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
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
        if key not in _CONFIG_KEYS:
            raise _UsageError(
                f"{path}:{lineno}: unknown key {key!r}; valid: {', '.join(sorted(_CONFIG_KEYS))}"
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


def _build_config(args: argparse.Namespace) -> RunConfig:
    file_cfg = _load_config_file(args.config) if args.config else {}
    defaults = _DEFAULTS[args.command]

    def pick(flag_value, key, convert, fallback):
        if flag_value is not None:
            return flag_value
        if key in file_cfg:
            try:
                return convert(file_cfg[key])
            except ValueError:
                raise _UsageError(f"config key {key!r}: cannot parse {file_cfg[key]!r}") from None
        return fallback

    problem = pick(args.problem, "problem", str, None)
    if not problem:
        raise _UsageError("no problem selected; pass --problem or set it in the config file")

    t1 = args.t1
    if t1 is None and "t1" in file_cfg:
        try:
            t1 = [float(tok) for tok in file_cfg["t1"].replace(",", " ").split()]
        except ValueError:
            raise _UsageError(f"config key 't1': cannot parse {file_cfg['t1']!r}") from None
    if t1 is None:
        t1 = defaults["t1"]

    param_items = list(args.param or [])
    if "param" in file_cfg:
        file_items = file_cfg["param"].replace(",", " ").split()
        cli_params = _parse_param_items(param_items)
        merged = _parse_param_items(file_items)
        merged.update(cli_params)
        params = merged
    else:
        params = _parse_param_items(param_items)

    cfg = RunConfig(
        command=args.command,
        problem=problem,
        order=pick(args.order, "order", int, defaults["order"]),
        points=pick(args.points, "points", int, defaults["points"]),
        seed=pick(args.seed, "seed", int, 0),
        t1_values=tuple(float(t) for t in t1),
        tau=pick(args.tau, "tau", float, None),
        out_dir=pick(args.out, "out", str, "."),
        fmt=pick(args.format, "format", str, "csv"),
        params=params,
    )
    if not 1 <= cfg.order <= MAX_ORDER:
        raise _UsageError(f"--order must be in 1..{MAX_ORDER}, got {cfg.order}")
    if cfg.points < 1:
        raise _UsageError(f"--points must be >= 1, got {cfg.points}")
    if cfg.fmt not in ("csv", "json"):
        raise _UsageError(f"--format must be csv or json, got {cfg.fmt!r}")
    return cfg


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _write_text(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _check_horizons(cfg: RunConfig, problem) -> None:
    for t1 in cfg.t1_values:
        if not (0.0 <= t1 <= problem.t_end):  # also rejects NaN and inf
            raise _UsageError(
                f"t1={t1:g} outside [0, {problem.t_end:g}] for problem {problem.name}"
            )


def _cmd_bench(cfg: RunConfig, problem) -> int:
    if not problem.has_exact_oracle:
        raise _UsageError(
            f"problem {problem.name!r} has no exact solution to benchmark against; "
            "use derive or taylor instead"
        )
    _check_horizons(cfg, problem)
    report = run_benchmark(
        problem,
        max_order=cfg.order,
        num_points=cfg.points,
        t1_values=cfg.t1_values,
        seed=cfg.seed,
        tau=cfg.tau,
    )
    print(format_report_table(report))
    out_path = os.path.join(cfg.out_dir, f"bench_{problem.name}.csv")
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


def _cmd_derive(cfg: RunConfig, problem) -> int:
    tau = cfg.tau if cfg.tau is not None else default_exclusion(problem)
    x = sample_points(problem, cfg.points, tau, cfg.seed)
    expansion = compute_expansion(problem, x, cfg.order)
    derivs = expansion.derivatives()
    lines = ["component,order,x,value"]
    for m in range(problem.components):
        for i in range(cfg.order + 1):
            for xp, v in zip(x, derivs[m][i]):
                lines.append(f"{m},{i},{_fmt(xp)},{_fmt(v)}")
    out_path = os.path.join(cfg.out_dir, f"derivatives_{problem.name}.csv")
    _write_text(out_path, lines)
    print(f"wrote {out_path} ({len(lines) - 1} rows)")
    return 0


def _cmd_taylor(cfg: RunConfig, problem) -> int:
    _check_horizons(cfg, problem)
    if not cfg.t1_values:
        raise _UsageError("taylor needs at least one --t1 horizon")
    tau = cfg.tau if cfg.tau is not None else default_exclusion(problem)
    x = sample_points(problem, cfg.points, tau, cfg.seed)
    expansion = compute_expansion(problem, x, cfg.order)
    rows = []
    for m in range(problem.components):
        for t1 in cfg.t1_values:
            values = expansion.evaluate(t1)[m]
            for xp, v in zip(x, values):
                rows.append((m, t1, xp, v))
    if cfg.fmt == "json":
        lines = ["["]
        for idx, (m, t1, xp, v) in enumerate(rows):
            comma = "," if idx + 1 < len(rows) else ""
            lines.append(
                f'  {{"component": {m}, "t": {_fmt(t1)}, "x": {_fmt(xp)}, "value": {_fmt(v)}}}{comma}'
            )
        lines.append("]")
        out_path = os.path.join(cfg.out_dir, f"taylor_points_{problem.name}.json")
        _write_text(out_path, lines)
    else:
        lines = ["component,t,x,value"]
        lines += [f"{m},{_fmt(t1)},{_fmt(xp)},{_fmt(v)}" for m, t1, xp, v in rows]
        out_path = os.path.join(cfg.out_dir, f"taylor_points_{problem.name}.csv")
        _write_text(out_path, lines)
    print(f"wrote {out_path} ({len(rows)} rows)")
    return 0


def _cmd_plotdata(cfg: RunConfig, problem) -> int:
    if not problem.has_exact_oracle:
        raise _UsageError(
            f"problem {problem.name!r} has no exact solution to plot against"
        )
    _check_horizons(cfg, problem)
    lo, hi = problem.domain
    x = np.linspace(lo, hi, cfg.points + 2)[1:-1]
    expansion = compute_expansion(problem, x, cfg.order)
    for t1 in cfg.t1_values:
        exact = problem.exact(t1, x)[0]
        approx = expansion.evaluate(t1)[0]
        lines = ["x,exact,taylor"]
        lines += [
            f"{_fmt(xp)},{_fmt(e)},{_fmt(a)}" for xp, e, a in zip(x, exact, approx)
        ]
        out_path = os.path.join(cfg.out_dir, f"plot_{problem.name}_t{t1:g}.csv")
        _write_text(out_path, lines)
        print(f"wrote {out_path} ({len(x)} rows)")
    return 0


_COMMANDS = {
    "bench": _cmd_bench,
    "derive": _cmd_derive,
    "taylor": _cmd_taylor,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        cfg = _build_config(args)
        problem = get_problem(cfg.problem, cfg.params or None)
        os.makedirs(cfg.out_dir, exist_ok=True)
        return _COMMANDS[cfg.command](cfg, problem)
    except (_UsageError, UnknownProblemError, NoExactOracleError) as e:
        print(f"error: {e}", file=sys.stderr)
        print(f"problems: {', '.join(available_problems())}", file=sys.stderr)
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


if __name__ == "__main__":
    raise SystemExit(main())
