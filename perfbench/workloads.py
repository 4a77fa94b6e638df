"""The four workloads and the child processes some of them start.

Every workload is a fixed list of calls made one after another by a single
caller (a closed loop with one client).  One pass makes every call once; the
benchmark times each call, then checks its output with :mod:`gate` outside
the timed region.  Inputs come from the workload seed alone, through the
package's own ``sample_points`` with the default exclusion threshold.

Only entry points that the planned refactors keep are called here:
``get_problem``, ``sample_points``, ``default_exclusion``,
``compute_expansion``, ``TaylorExpansion.coeffs``/``evaluate``,
``reference_solve``, ``nrmse``, ``TABLE1_BOUNDS`` and ``python -m pdetaylor.cli``.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from pdetaylor import compute_expansion, default_exclusion, get_problem, reference_solve, sample_points
from pdetaylor.bench import TABLE1_BOUNDS

import gate
import speed

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

PROBLEMS = ("heat", "diffusion", "wave", "burgers", "allen_cahn", "schrodinger")
SMALL_CASES = tuple((p, k, 50) for p in PROBLEMS for k in (20, 10))
LARGE_CASES = (("allen_cahn", 20, 10_000), ("schrodinger", 20, 10_000))
REFERENCE_CASES = (("burgers", 20), ("allen_cahn", 20))
# A quarter of the t1 = 0.01 horizon of the accuracy tests: the same code path
# with a quarter of the Runge-Kutta steps, so a run holds ten short passes.
REFERENCE_T1 = 0.0025
REFERENCE_CHECK_ORDER = 7
# allen_cahn's profile is not C^1 across its periodic seam, so within a thin
# diffusion layer there the periodic reference and the pointwise series
# legitimately differ (pinned by tests/test_bench.py).  Reference points keep
# this distance from the ends of a periodic domain.
SEAM_MARGIN = 0.02
CLI_RUNS = {
    "bench_heat": ("bench", "--config", "configs/bench_heat.cfg"),
    "bench_diffusion": ("bench", "--config", "configs/bench_diffusion.cfg"),
    "bench_wave": ("bench", "--config", "configs/bench_wave.cfg"),
    "taylor_burgers": ("taylor", "--config", "configs/taylor_burgers.cfg"),
    "derive_allen_cahn": ("derive", "--problem", "allen_cahn"),
    "plotdata_diffusion": ("plotdata", "--problem", "diffusion"),
    "taylor_schrodinger_json": ("taylor", "--problem", "schrodinger", "--format", "json"),
}
# Problems and sample counts the CLI runs above draw, for their set-up time.
CLI_SETUP = (("heat", 50), ("diffusion", 50), ("wave", 50), ("burgers", 100),
             ("allen_cahn", 100), ("schrodinger", 100))
CHILD_TIMEOUT_S = 120.0
RSS_POLL_S = 0.05
COEFF_DATA = DATA / "seed_coeffs.json"
CLI_DATA = DATA / "cli"

SETUP_CODE = """\
from pdetaylor import default_exclusion, get_problem, sample_points
import pdetaylor.cli
for name, count in {items!r}:
    problem = get_problem(name)
    sample_points(problem, count, default_exclusion(problem), {seed!r})
"""


def n_tag(n: int) -> str:
    return "N1e4" if n == 10_000 else f"N{n}"


def case_label(problem: str, order: int, n: int) -> str:
    return f"{problem}.K{order}.{n_tag(n)}"


@dataclass
class CallResult:
    name: str
    seconds: float
    scale: float = 1.0  # reference seconds per wall second over the call (speed.Meter)
    failures: list[str] = field(default_factory=list)

    @property
    def scaled_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Child:
    returncode: int
    seconds: float
    peak_rss_mb: float
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def watch_peak_rss(pid: int, done: threading.Event, peak: list) -> None:
    """Keep ``peak[0]`` at the child's own peak RSS in MB until ``done`` is set.

    The kernel's ``ru_maxrss`` for a child also counts this process's resident
    memory at the moment the child was started, so the child's ``VmHWM`` is
    read while it runs instead.  It only grows after the exec, and the last
    reading before the child exits is kept.
    """
    path = f"/proc/{pid}/status"
    while not done.is_set():
        try:
            with open(path, encoding="ascii") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        peak[0] = int(line.split()[1]) / 1024.0
                        break
        except OSError:
            return
        done.wait(RSS_POLL_S)


def run_child(args, workdir: Path) -> Child:
    """Run a Python child in the checkout; wall time and its own peak RSS."""
    err_path = workdir / f"child-{time.monotonic_ns()}.err"
    done, peak = threading.Event(), [0.0]
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        watcher = threading.Thread(target=watch_peak_rss, args=(proc.pid, done, peak))
        watcher.start()
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            done.set()
        seconds = time.perf_counter() - start
    watcher.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(errors="replace")[-2000:]
    err_path.unlink()
    return Child(proc.returncode, seconds, peak[0], stderr)


def process_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Workload:
    """Common driver: set-up timing, the timed pass and its checks."""

    name = ""
    # About one pass at the seed commit.  The number of passes in a run
    # follows from it and ``--seconds`` alone, never from the speed of the code
    # being measured, so both sides of a comparison take the same samples.
    nominal_pass_s = 1.0
    # The speed probe whose kind of work is closest to the workload's calls.
    probe = speed.DISPATCH

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def pass_count(self, seconds: float) -> int:
        return max(1, int(seconds // self.nominal_pass_s))

    def setup_items(self):
        raise NotImplementedError

    def time_setup(self) -> CallResult:
        """Fresh process to first timed call: import, get_problem, sample_points."""
        code = SETUP_CODE.format(items=tuple(self.setup_items()), seed=self.seed)
        meter = speed.Meter(speed.DISPATCH)
        child = run_child(["-c", code], self.workdir)
        meter.tick(final=True)
        if child.returncode != 0:
            raise RuntimeError(f"set-up process exited {child.returncode}:\n{child.stderr}")
        return CallResult("setup", child.seconds, meter.scaled / meter.wall)

    def prepare(self) -> None:
        """Build inputs in this process and warm every code path a pass uses."""

    def run_pass(self, tracer=None) -> list[CallResult]:
        raise NotImplementedError

    @property
    def values_per_pass(self) -> int:
        """Output values one pass delivers (coefficients, solution values, numbers written)."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return process_peak_rss_mb()

    def _timed(self, tracer, layer: str, label: str, fn) -> tuple[CallResult, object]:
        """Run ``fn(meter)``; returns the call's result and its output (None if it raised).

        Untraced calls get a :class:`speed.Meter`; traced ones report raw wall
        time and get ``None``.
        """
        meter = speed.Meter(self.probe) if tracer is None else None
        ctx = tracer.span(layer, label) if tracer is not None else nullcontext()
        out, failures = None, []
        start = time.perf_counter()
        try:
            with ctx:
                out = fn(meter)
        except Exception as e:  # a call that raises is a failed call, not a crash
            failures = [f"raised {type(e).__name__}: {e}"]
        if meter is None:
            return CallResult(label, time.perf_counter() - start, 1.0, failures), out
        meter.tick(final=True)
        return CallResult(label, meter.wall, meter.scaled / meter.wall, failures), out


def load_recorded() -> dict:
    with open(COEFF_DATA, encoding="utf-8") as f:
        return json.load(f)["problems"]


class ExpansionWorkload(Workload):
    """``compute_expansion`` over a fixed (problem, K, N) grid."""

    cases: tuple = ()

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.problems = {}
        self.points = {}
        self.recorded = {}

    def setup_items(self):
        return sorted({(p, n) for p, _, n in self.cases})

    def prepare(self) -> None:
        recorded = load_recorded()
        for p, n in self.setup_items():
            problem = get_problem(p)
            x = sample_points(problem, n, default_exclusion(problem), self.seed)
            if p in recorded:
                # The last points are the fixed subsample with recorded coefficients.
                fixed = np.asarray(recorded[p]["points"], dtype=np.float64)
                x[-fixed.size:] = fixed
                self.recorded[p] = recorded[p]["coeffs"]
            self.problems[p] = problem
            self.points[(p, n)] = x
            compute_expansion(problem, x[:2], 2)

    @property
    def values_per_pass(self) -> int:
        return sum(n * (k + 1) * self.problems[p].components for p, k, n in self.cases)

    def run_pass(self, tracer=None) -> list[CallResult]:
        outputs, results = {}, []
        for p, k, n in self.cases:
            problem = self.problems[p]
            if tracer is not None:
                problem = tracer.wrap_problem(problem)
            x = self.points[(p, n)]
            label = case_label(p, k, n)
            result, out = self._timed(
                tracer, "driver.compute_expansion", label,
                lambda meter: compute_expansion(
                    problem if meter is None else meter.wrap_problem(problem), x, k
                ),
            )
            # Keep only the coefficients; the rest of the expansion is freed here.
            outputs[(p, k, n)] = None if out is None else out.coeffs
            del out
            results.append(result)
        for (p, k, n), result in zip(self.cases, results):
            coeffs = outputs[(p, k, n)]
            if coeffs is not None:
                result.failures += self._check(p, k, n, coeffs, outputs)
        return results

    def _check(self, p, k, n, coeffs, outputs) -> list[str]:
        problem = self.problems[p]
        x = self.points[(p, n)]
        failures = gate.finite_failures(coeffs)
        if problem.has_exact_oracle:
            cap = TABLE1_BOUNDS["diffusion"]["coefficient_max"]
            failures += gate.closed_form_failures(problem, x, coeffs, cap)
        longer = [outputs[c] for c in self.cases if c[0] == p and c[2] == n and c[1] > k]
        for other in longer:
            if other is not None:
                failures += gate.prefix_failures(coeffs, other)
        if p in self.recorded:
            fixed = len(self.recorded[p][0][0])
            failures += gate.recorded_failures(coeffs, slice(n - fixed, n), self.recorded[p])
        return failures


class SmallBatch(ExpansionWorkload):
    name = "small-batch"
    nominal_pass_s = 4.0
    cases = SMALL_CASES


class LargeBatch(ExpansionWorkload):
    name = "large-batch"
    nominal_pass_s = 20.0
    probe = speed.ARRAY
    cases = LARGE_CASES


class Reference(Workload):
    """``reference_solve`` on both boundary branches; never touches series, jets or driver."""

    name = "reference"
    nominal_pass_s = 2.0

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.problems, self.points, self.series = {}, {}, {}

    def setup_items(self):
        return REFERENCE_CASES

    def prepare(self) -> None:
        for p, n in REFERENCE_CASES:
            problem = get_problem(p)
            x = sample_points(problem, 2 * n, default_exclusion(problem), self.seed)
            if problem.boundary == "periodic":
                lo, hi = problem.domain
                x = x[np.minimum(x - lo, hi - x) >= SEAM_MARGIN]
            x = x[:n]
            self.problems[p], self.points[p] = problem, x
            expansion = compute_expansion(problem, x, REFERENCE_CHECK_ORDER)
            self.series[p] = expansion.evaluate(REFERENCE_T1)
            reference_solve(problem, x, 0.0)

    @property
    def values_per_pass(self) -> int:
        return sum(self.points[p].size * self.problems[p].components for p, _ in REFERENCE_CASES)

    def run_pass(self, tracer=None) -> list[CallResult]:
        results = []
        for p, _ in REFERENCE_CASES:
            problem, x = self.problems[p], self.points[p]
            result, out = self._timed(
                tracer, "bench.reference_solve", p,
                lambda meter: reference_solve(problem, x, REFERENCE_T1),
            )
            if out is not None:
                result.failures += gate.reference_failures(out, self.series[p])
            results.append(result)
        return results


def load_cli_seed_outputs() -> dict:
    return {
        run: {f.name: f.read_bytes() for f in sorted((CLI_DATA / run).iterdir())}
        for run in CLI_RUNS
    }


class CliExport(Workload):
    """Seven sequential ``python -m pdetaylor.cli`` runs writing byte-stable files."""

    name = "cli-export"
    nominal_pass_s = 6.5

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.order = list(CLI_RUNS)
        random.Random(seed).shuffle(self.order)
        self.seed_outputs = {}
        self.first = {}
        self.children_peak_mb = 0.0
        self.passes = 0

    def setup_items(self):
        return CLI_SETUP

    def prepare(self) -> None:
        self.seed_outputs = load_cli_seed_outputs()
        run_child(["-c", "import pdetaylor.cli"], self.workdir)

    @property
    def values_per_pass(self) -> int:
        return sum(
            gate.parse_output(data, name)[1].size
            for files in self.seed_outputs.values()
            for name, data in files.items()
        )

    def peak_rss_mb(self) -> float:
        return self.children_peak_mb

    def run_pass(self, tracer=None) -> list[CallResult]:
        self.passes += 1
        results = []
        for run in self.order:
            out_dir = self.workdir / f"pass{self.passes}" / run
            out_dir.mkdir(parents=True)
            args = ["-m", "pdetaylor.cli", *CLI_RUNS[run], "--out", str(out_dir)]
            result, child = self._timed(
                tracer, "cli.run", run, lambda meter: run_child(args, self.workdir)
            )
            if child is not None:
                self.children_peak_mb = max(self.children_peak_mb, child.peak_rss_mb)
                files = {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())}
                result.failures += gate.cli_failures(
                    child.returncode, files, self.first.get(run), self.seed_outputs[run]
                )
                if child.returncode != 0 and child.stderr:
                    result.failures.append(child.stderr.strip().splitlines()[-1])
                self.first.setdefault(run, files)
            shutil.rmtree(out_dir)
            results.append(result)
        return results


WORKLOADS = {w.name: w for w in (SmallBatch, LargeBatch, Reference, CliExport)}
