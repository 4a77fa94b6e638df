"""Benchmark of the pdetaylor expansion engine, one workload per run.

    python3 perfbench/run.py --workload small-batch --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run makes
``--seconds`` divided by the workload's nominal pass length passes over the
workload's fixed inputs (at least one), times fresh set-up processes between
them, and reports the end-to-end metrics scaled to the reference speed (see
``speed.py``).  With ``--trace 1`` it makes one
untraced pass of the workload, one traced pass of every workload, and the
layer probes, and reports the per-layer metrics; the spans go to
``.perfbench_out/spans-<workload>-seed<seed>.json``.  Either way the last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import duration, self_time

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_SAMPLES = 9

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "coeffs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def layer_metrics() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    import probes
    import workloads as w

    units = {}
    for name in probes.jet_names():
        units[name] = "GFLOP/s" if "_gflops." in name else "s"
    for name in probes.series_names():
        units[name] = "s"
    for p in w.PROBLEMS:
        units[f"problems.rhs_s.{p}"] = "s"
        units[f"problems.rhs_calls.{p}"] = "count"
        units[f"problems.ic_s.{p}"] = "s"
    for p, k, n in w.SMALL_CASES + w.LARGE_CASES:
        units[f"driver.expand_s.{w.case_label(p, k, n)}"] = "s"
    for p in w.PROBLEMS:
        units[f"driver.self_s.{w.case_label(p, 20, 50)}"] = "s"
    for p, _ in w.REFERENCE_CASES:
        units[f"bench.reference_s.{p}"] = "s"
    units["bench.sample_s"] = "s"
    units["bench.score_s"] = "s"
    for run in w.CLI_RUNS:
        units[f"cli.run_s.{run}"] = "s"
    units["cli.import_s"] = "s"
    units["cli.interp_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> int:
    """Keep this process, and the children it starts, on one CPU.

    The speed probes must run on the CPU that runs the measured work: the two
    vCPUs of the reference machine change speed independently of each other.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def environment(args, cpus_usable: int, pinned_cpu: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = done.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": cpus_usable,
        "pinned_cpu": pinned_cpu,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def pass_seconds(results) -> float:
    return sum(r.seconds for r in results)


def scaled_pass_seconds(passes) -> float:
    """One pass at the reference speed: each call's median scaled time, summed."""
    return sum(
        statistics.median(p[i].scaled_seconds for p in passes) for i in range(len(passes[0]))
    )


def untraced(workload, seconds: float) -> tuple[dict, dict, list]:
    """A fixed number of passes, with fresh set-up processes spread over the run."""
    count = workload.pass_count(seconds)
    # Set-up sample j runs in gap j * (count + 1) // SETUP_SAMPLES: the gaps are
    # before, between and after the passes, so the samples see the whole run.
    gaps = [j * (count + 1) // SETUP_SAMPLES for j in range(SETUP_SAMPLES)]
    workload.prepare()
    rss_after_setup = workload.peak_rss_mb()
    setups, passes = [], []
    for gap in range(count + 1):
        setups += [workload.time_setup() for _ in range(gaps.count(gap))]
        if gap < count:
            passes.append(workload.run_pass())
    pass_s = scaled_pass_seconds(passes)
    peak = workload.peak_rss_mb()
    metrics = {
        "setup_s": statistics.median(r.scaled_seconds for r in setups),
        "pass_s": pass_s,
        "coeffs_per_s": workload.values_per_pass / pass_s,
        "peak_rss_mb": peak,
    }
    median_pass = statistics.median(pass_seconds(p) for p in passes)
    scale = statistics.median(r.scale for p in passes for r in p)
    notes = {
        "setup_s": (
            f"median of {len(setups)} fresh processes, scaled; "
            f"wall median {statistics.median(r.seconds for r in setups):.4g} s"
        ),
        "pass_s": (
            f"median scaled time of each call over {len(passes)} passes, summed; "
            f"wall median pass {median_pass:.4g} s; median scale {scale:.3f}"
        ),
        "coeffs_per_s": f"{workload.values_per_pass} values per pass",
        "peak_rss_mb": (
            "largest CLI child" if workload.name == "cli-export"
            else f"{peak - rss_after_setup:.1f} MB above the level after set-up"
        ),
    }
    return metrics, notes, passes


def span_metrics(spans) -> dict:
    """driver/problems/bench/cli metrics computed from the recorded spans."""
    out = {}
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            continue
        if s["name"] == "driver.compute_expansion":
            out[f"driver.expand_s.{s['label']}"] = duration(s)
            out[f"driver.self_s.{s['label']}"] = self_time(spans, i)
        elif s["name"] == "bench.reference_solve":
            out[f"bench.reference_s.{s['label']}"] = duration(s)
        elif s["name"] == "cli.run":
            out[f"cli.run_s.{s['label']}"] = duration(s)
    # problems.* add up the ic and rhs spans under the 50-point expansions.
    for s in spans:
        if s["name"] not in ("problems.ic", "problems.rhs"):
            continue
        if not spans[s["parent"]]["label"].endswith(".N50"):
            continue
        kind = "ic_s" if s["name"] == "problems.ic" else "rhs_s"
        key = f"problems.{kind}.{s['label']}"
        out[key] = out.get(key, 0.0) + duration(s)
        if kind == "rhs_s":
            key = f"problems.rhs_calls.{s['label']}"
            out[key] = out.get(key, 0) + 1
    return out


def traced(workload, args, workdir, env) -> tuple[dict, list, list]:
    import probes
    import tracing
    import workloads

    workload.prepare()
    passes = [workload.run_pass()]
    tracer = tracing.Tracer()
    traced_s = None
    for name, cls in workloads.WORKLOADS.items():
        w = workload if name == workload.name else cls(args.seed, workdir)
        if w is not workload:
            w.prepare()
        results = w.run_pass(tracer)
        passes.append(results)
        if w is workload:
            traced_s = pass_seconds(results)
    metrics = span_metrics(tracer.spans)
    probe_metrics, absent = probes.run_probes(args.seed, workdir)
    metrics.update(probe_metrics)
    metrics["trace.overhead_frac"] = traced_s / pass_seconds(passes[0]) - 1.0
    spans_path = ROOT / ".perfbench_out" / f"spans-{workload.name}-seed{args.seed}.json"
    tracer.write(spans_path, env)
    print(f"spans: {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return metrics, absent, passes


def call_table(passes) -> list[str]:
    """Correctness verdict and median time for each distinct call."""
    by_call = {}
    for results in passes:
        for r in results:
            by_call.setdefault(r.name, []).append(r)
    lines = [f"{'call':34} {'verdict':>10} {'median_s':>10}"]
    for name, rs in by_call.items():
        ok = sum(not r.failures for r in rs)
        median = statistics.median(r.seconds for r in rs)
        lines.append(f"{name:34} {f'ok {ok}/{len(rs)}':>10} {median:10.4f}")
    for name, rs in by_call.items():
        for r in rs:
            lines += [f"FAIL {name}: {msg}" for msg in r.failures]
    return lines


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description="pdetaylor benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "pdetaylor" / "__init__.py").is_file():
        print(f"error: no pdetaylor sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    pin_threads()  # before numpy is first imported
    cpus_usable = len(os.sched_getaffinity(0))
    pinned_cpu = pin_cpu()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    args = parse_args(argv, tuple(workloads.WORKLOADS))

    workdir = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        env = environment(args, cpus_usable, pinned_cpu)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("env " + json.dumps(env, sort_keys=True))
        if args.trace:
            values, absent, passes = traced(workload, args, workdir, env)
            units, notes = layer_metrics(), {}
            missing = set(units) - set(values) - set(absent)
            if missing:
                raise RuntimeError(f"metrics not produced: {sorted(missing)}")
            if absent:
                print(f"absent probes (public name gone): {', '.join(absent)}")
        else:
            values, notes, passes = untraced(workload, args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(results) for results in passes)
    failed = sum(bool(r.failures) for results in passes for r in results)
    for line in call_table(passes):
        print(line)
    print(f"{'metric':40} {'value':>14} {'unit':>8}  notes")
    for name, unit in units.items():
        if name in values:
            print(f"{name:40} {values[name]:14.6g} {unit:>8}  {notes.get(name, '')}")
    print(f"{'fail_frac':40} {failed / attempted:14.6g} {'fraction':>8}  {failed} of {attempted} calls failed")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
