"""Layer probes timed from outside, through each layer's public names.

A probe looks its names up on the ``pdetaylor`` package at run time.  When a
name is gone (``JetAlgebra``, ``BatchAlgebra`` and ``seed_variable`` are
expected to go when jets become flat arrays), the probe's metrics are
reported as absent: the run neither crashes nor counts a failure.  The
end-to-end workloads never use these names.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import pdetaylor

import workloads

JET_ORDERS = (22, 42)
JET_SIZES = (50, 10_000)
SERIES_ORDER = 9
SERIES_JET_ORDER = 22
SERIES_SIZES = (50, 10_000)
PROBE_BUDGET_S = 0.25
MIN_REPS = 3
MAX_REPS = 50
CHILD_REPS = 3
SCORE_ORDER = 20
SCORE_POINTS = 50


class Absent(Exception):
    """A public name a probe needs is missing from ``pdetaylor``."""


def need(name: str):
    try:
        return getattr(pdetaylor, name)
    except AttributeError:
        raise Absent(name) from None


def median_seconds(fn) -> float:
    """Median time of ``fn()`` over repeats filling about ``PROBE_BUDGET_S``."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    reps = int(min(MAX_REPS, max(MIN_REPS, PROBE_BUDGET_S / max(first, 1e-9))))
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def jet_product_flops(order: int, n: int) -> int:
    """Convolution arithmetic of one jet product: (P+1)(P+2)/2 multiplies + P(P+1)/2 adds per point."""
    return n * ((order + 1) * (order + 2) // 2 + order * (order + 1) // 2)


def _points(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-0.9, 0.9, size=n)


def jet_names() -> list[str]:
    return [
        f"jets.{kind}.P{p}.{workloads.n_tag(n)}"
        for kind in ("mul_s", "sin_cos_s", "mul_gflops")
        for p in JET_ORDERS
        for n in JET_SIZES
    ]


def series_names() -> list[str]:
    tag = f"n{SERIES_ORDER}.P{SERIES_JET_ORDER}"
    return [f"series.mul_s.{tag}.{workloads.n_tag(n)}" for n in SERIES_SIZES] + [
        f"series.exp_s.{tag}.{workloads.n_tag(SERIES_SIZES[0])}"
    ]


def jets_probe(seed: int) -> dict:
    seed_variable, sin_cos = need("seed_variable"), need("sin_cos")
    out = {}
    for p in JET_ORDERS:
        for n in JET_SIZES:
            tag = f"P{p}.{workloads.n_tag(n)}"
            jet = seed_variable(_points(n, seed), p)
            a, b = sin_cos(jet)
            mul = median_seconds(lambda: a * b)
            out[f"jets.mul_s.{tag}"] = mul
            out[f"jets.sin_cos_s.{tag}"] = median_seconds(lambda: sin_cos(jet))
            out[f"jets.mul_gflops.{tag}"] = jet_product_flops(p, n) / mul / 1e9
    return out


def series_probe(seed: int) -> dict:
    seed_variable, sin_cos, exp = need("seed_variable"), need("sin_cos"), need("exp")
    series, jet_algebra, batch = need("TruncatedSeries"), need("JetAlgebra"), need("BatchAlgebra")
    tag = f"n{SERIES_ORDER}.P{SERIES_JET_ORDER}"
    out = {}
    for n in SERIES_SIZES:
        a, b = sin_cos(seed_variable(_points(n, seed), SERIES_JET_ORDER))
        alg = jet_algebra(batch(n), SERIES_JET_ORDER)
        u = series(alg, [a * (1.0 / (k + 1)) for k in range(SERIES_ORDER + 1)])
        v = series(alg, [b * (1.0 / (k + 2)) for k in range(SERIES_ORDER + 1)])
        out[f"series.mul_s.{tag}.{workloads.n_tag(n)}"] = median_seconds(lambda: u * v)
        if n == SERIES_SIZES[0]:
            out[f"series.exp_s.{tag}.{workloads.n_tag(n)}"] = median_seconds(lambda: exp(u))
    return out


def bench_probe(seed: int) -> dict:
    """Sampling all six problems at 50 points, and scoring three closed-form K=20 expansions."""
    problems = {p: pdetaylor.get_problem(p) for p in workloads.PROBLEMS}
    taus = {p: pdetaylor.default_exclusion(prob) for p, prob in problems.items()}

    def sample():
        for p, prob in problems.items():
            pdetaylor.sample_points(prob, SCORE_POINTS, taus[p], seed)

    scored = []
    for p, prob in problems.items():
        if prob.has_exact_oracle:
            x = pdetaylor.sample_points(prob, SCORE_POINTS, taus[p], seed)
            expansion = pdetaylor.compute_expansion(prob, x, SCORE_ORDER)
            for m, comp in enumerate(expansion.coeffs):
                for i, c in enumerate(comp):
                    exact = prob.exact_derivative(i, 0.0, x)[m] / math.factorial(i)
                    scored.append((exact, c))

    def score():
        for exact, c in scored:
            pdetaylor.nrmse(exact, c)

    return {"bench.sample_s": median_seconds(sample), "bench.score_s": median_seconds(score)}


def cli_probe(workdir) -> dict:
    def child_median(code: str) -> float:
        times = []
        for _ in range(CHILD_REPS):
            child = workloads.run_child(["-c", code], workdir)
            if child.returncode != 0:
                raise RuntimeError(f"python -c {code!r} exited {child.returncode}:\n{child.stderr}")
            times.append(child.seconds)
        return statistics.median(times)

    return {
        "cli.import_s": child_median("import pdetaylor.cli"),
        "cli.interp_s": child_median("pass"),
    }


def run_probes(seed: int, workdir) -> tuple[dict, list[str]]:
    """All layer probes; returns (metrics, names of absent metrics)."""
    metrics, absent = {}, []
    for names, probe in (
        (jet_names(), lambda: jets_probe(seed)),
        (series_names(), lambda: series_probe(seed)),
        (["bench.sample_s", "bench.score_s"], lambda: bench_probe(seed)),
        (["cli.import_s", "cli.interp_s"], lambda: cli_probe(workdir)),
    ):
        try:
            metrics.update(probe())
        except Absent:
            absent += names
    return metrics, absent
