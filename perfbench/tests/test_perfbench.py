"""Self-tests of the benchmark: its correctness gate, tracing and metric names.

    python -m pytest -q perfbench/tests
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import pdetaylor  # noqa: E402

import gate  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- coefficient checks ---------------------------------------------------


def recorded_as_computed(name):
    """The recorded coefficients of one problem, shaped like TaylorExpansion.coeffs."""
    rec = workloads.load_recorded()[name]["coeffs"]
    return rec, [[np.array(c, dtype=np.float64) for c in comp] for comp in rec]


@pytest.mark.parametrize("name", ["burgers", "allen_cahn", "schrodinger"])
def test_recorded_coefficients_pass_unchanged_and_within_tolerance(name):
    rec, coeffs = recorded_as_computed(name)
    assert gate.recorded_failures(coeffs, slice(None), rec) == []
    coeffs[0][7][1] *= 1 + gate.COEFF_RTOL / 10
    assert gate.recorded_failures(coeffs, slice(None), rec) == []


@pytest.mark.parametrize("name", ["burgers", "allen_cahn", "schrodinger"])
def test_gate_flags_perturbed_coefficient(name):
    rec, coeffs = recorded_as_computed(name)
    largest = int(np.argmax(np.abs(coeffs[0][20])))
    coeffs[0][20][largest] *= 1 + 100 * gate.COEFF_RTOL
    failures = gate.recorded_failures(coeffs, slice(None), rec)
    assert failures and "order 20" in failures[0]


def test_gate_flags_non_finite_coefficient():
    rec, coeffs = recorded_as_computed("burgers")
    coeffs[0][5][0] = np.nan
    assert gate.recorded_failures(coeffs, slice(None), rec)
    assert gate.finite_failures(coeffs)


def test_gate_flags_closed_form_and_prefix_deviation():
    problem = pdetaylor.get_problem("heat")
    x = pdetaylor.sample_points(problem, 20, pdetaylor.default_exclusion(problem), 3)
    long = pdetaylor.compute_expansion(problem, x, 8).coeffs
    short = pdetaylor.compute_expansion(problem, x, 4).coeffs
    cap = workloads.TABLE1_BOUNDS["diffusion"]["coefficient_max"]
    assert gate.closed_form_failures(problem, x, long, cap) == []
    assert gate.prefix_failures(short, long) == []

    bad = [list(comp) for comp in short]
    bad[0][3] = bad[0][3] + 1e-9
    assert gate.closed_form_failures(problem, x, bad, cap)
    one_ulp = [list(comp) for comp in short]
    one_ulp[0][2] = np.nextafter(one_ulp[0][2], np.inf)
    assert gate.prefix_failures(one_ulp, long)


def test_gate_flags_reference_mismatch():
    series = [np.linspace(0.0, 1.0, 5)]
    assert gate.reference_failures([series[0] + 1e-7], series) == []
    assert gate.reference_failures([series[0] + 1e-4], series)


# -- CLI checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def seed_outputs():
    return workloads.load_cli_seed_outputs()


def test_cli_seed_outputs_pass(seed_outputs):
    for files in seed_outputs.values():
        assert gate.cli_failures(0, files, files, files) == []


def test_gate_flags_nonzero_exit(seed_outputs):
    files = seed_outputs["bench_heat"]
    assert gate.cli_failures(2, files, None, files) == ["exit code 2"]


def test_gate_flags_bytes_changed_between_passes(seed_outputs):
    files = seed_outputs["taylor_burgers"]
    (name, data), = files.items()
    reformatted = {name: data.replace(b"\n", b"\r\n")}
    failures = gate.cli_failures(0, reformatted, files, files)
    assert any("differ from the first pass" in f for f in failures)


def test_gate_flags_cli_value_change(seed_outputs):
    files = seed_outputs["taylor_schrodinger_json"]
    (name, data), = files.items()
    text = data.decode()
    value = text.split('"value": ')[1].split("}")[0]
    changed = {name: text.replace(value, repr(float(value) * (1 + 1e-6)), 1).encode()}
    failures = gate.cli_failures(0, changed, None, files)
    assert failures and "seed output has" in failures[0]


def test_cli_workload_reports_nonzero_exit(tmp_path, monkeypatch):
    # burgers has no closed form, so ``bench`` exits 2 (usage error).
    runs = {"bench_heat": ("bench", "--problem", "burgers")}
    monkeypatch.setattr(workloads, "CLI_RUNS", runs)
    w = workloads.CliExport(0, tmp_path)
    w.seed_outputs = workloads.load_cli_seed_outputs()
    (result,) = w.run_pass()
    assert result.failures and result.failures[0] == "exit code 2"


# -- tracing ----------------------------------------------------------------


def test_self_time_subtracts_covered_interval():
    spans = [
        {"name": "a", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "b", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "c", "parent": 0, "start": 3.0, "end": 5.0},
        {"name": "d", "parent": 2, "start": 3.5, "end": 4.5},
        {"name": "e", "parent": 0, "start": 7.0, "end": 8.0},
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(10.0 - 4.0 - 1.0)
    assert tracing.self_time(spans, 2) == pytest.approx(1.0)


def test_traced_pass_nests_problem_spans_under_expansion(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.SmallBatch, "cases", (("burgers", 5, 50), ("burgers", 3, 50)))
    w = workloads.SmallBatch(1, tmp_path)
    w.prepare()
    tracer = tracing.Tracer()
    results = w.run_pass(tracer)
    assert all(not r.failures for r in results)

    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s["parent"] is None]
    assert [spans[i]["label"] for i in roots] == ["burgers.K5.N50", "burgers.K3.N50"]
    for i, order in zip(roots, (5, 3)):
        kids = tracing.children(spans, i)
        assert [s["name"] for s in kids] == ["problems.ic"] + ["problems.rhs"] * order
        assert all(s["call"] == spans[i]["call"] for s in kids)

    metrics = run.span_metrics(spans)
    assert metrics["problems.rhs_calls.burgers"] == 5 + 3
    first = tracing.children(spans, roots[0])
    expected_self = tracing.duration(spans[roots[0]]) - sum(tracing.duration(s) for s in first)
    assert metrics["driver.self_s.burgers.K5.N50"] == pytest.approx(expected_self)


def test_missing_public_name_reports_probe_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(pdetaylor, "seed_variable")
    monkeypatch.setattr(probes, "bench_probe", lambda seed: {})
    monkeypatch.setattr(probes, "cli_probe", lambda workdir: {})
    metrics, absent = probes.run_probes(0, tmp_path)
    assert metrics == {}
    assert absent == probes.jet_names() + probes.series_names()


# -- speed scaling and pass counts -----------------------------------------


class FakeProbe:
    """Reads twice its reference time: the machine runs at half speed."""

    reference_s = 0.001

    def __init__(self):
        self.calls = 0

    def seconds(self):
        self.calls += 1
        return 2 * self.reference_s


def test_meter_scales_wall_time_by_reference_over_probe():
    meter = speed.Meter(FakeProbe())
    time.sleep(0.01)
    meter.tick(final=True)
    assert meter.wall >= 0.01
    assert meter.scaled == pytest.approx(meter.wall / 2)


def test_meter_probes_between_rhs_calls_of_a_long_call(monkeypatch):
    monkeypatch.setattr(speed, "MIN_STRETCH_S", 0.0)
    probe = FakeProbe()
    meter = speed.Meter(probe)
    problem = meter.wrap_problem(pdetaylor.get_problem("heat"))
    pdetaylor.compute_expansion(problem, np.array([0.3, 0.6]), 3)
    meter.tick(final=True)
    assert probe.calls > 2
    assert meter.scaled == pytest.approx(meter.wall / 2)


def test_pass_count_follows_seconds_only(tmp_path):
    counts = {
        name: cls(0, tmp_path).pass_count(BENCHMARK["run_seconds"])
        for name, cls in workloads.WORKLOADS.items()
    }
    assert counts == {"small-batch": 5, "large-batch": 1, "reference": 10, "cli-export": 3}
    assert all(cls(0, tmp_path).pass_count(0) == 1 for cls in workloads.WORKLOADS.values())


class FakeWorkload:
    """Three calls a pass; the second pass runs at half speed (scale 0.5)."""

    name = "fake"
    values_per_pass = 60

    def __init__(self):
        self.passes = 0
        self.setups = []

    def pass_count(self, seconds):
        return 2

    def prepare(self):
        pass

    def peak_rss_mb(self):
        return 100.0

    def time_setup(self):
        self.setups.append(self.passes)
        return workloads.CallResult("setup", 1.0, 0.5)

    def run_pass(self):
        self.passes += 1
        scale = 1.0 if self.passes == 1 else 0.5
        return [workloads.CallResult(f"c{i}", 1.0 / scale, scale) for i in range(3)]


def test_untraced_sums_median_scaled_call_times():
    fake = FakeWorkload()
    metrics, notes, passes = run.untraced(fake, 10)
    assert len(passes) == 2
    assert metrics["pass_s"] == pytest.approx(3.0)
    assert metrics["coeffs_per_s"] == pytest.approx(20.0)
    assert metrics["setup_s"] == pytest.approx(0.5)
    # The set-up samples fall before, between and after the passes.
    assert sorted(set(fake.setups)) == [0, 1, 2]
    assert len(fake.setups) == run.SETUP_SAMPLES


# -- metric names -----------------------------------------------------------


def test_declared_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.layer_metrics()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_printed_metrics_match_benchmark_json():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-export",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 7
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = {line.split()[0] for line in lines[:-1] if line.split()}
    assert set(declared) | {"fail_frac"} <= table
