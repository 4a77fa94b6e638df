"""Metrics, sampling, benchmark reports, and the numerical reference solver."""

import dataclasses
import math

import numpy as np
import pytest

from pdetaylor import (
    BenchReport,
    NoExactOracleError,
    OracleFailure,
    PdeProblem,
    SamplingError,
    check_thresholds,
    compute_expansion,
    format_report_table,
    get_problem,
    nrmse,
    reference_solve,
    run_benchmark,
    sample_points,
    write_report_csv,
)
from pdetaylor.bench import _CELLS, _DT_MAX, default_exclusion
from pdetaylor.series import sin as series_sin

PI = math.pi


# -- the error metric ------------------------------------------------------


def test_nrmse_frozen_example():
    got = nrmse([0.0, 2.0], [0.1, 2.1])
    assert got == pytest.approx(0.023570226039551585, rel=1e-14)


def test_nrmse_constant_truth_uses_unit_regulariser():
    got = nrmse([5.0, 5.0], [6.0, 6.0])
    assert got == pytest.approx(math.sqrt(2) / 2, rel=1e-14)


def test_nrmse_zero_for_identical_vectors():
    assert nrmse([1.0, -2.0, 3.0], [1.0, -2.0, 3.0]) == 0.0


def test_nrmse_shrinks_with_sample_count():
    # the 1/N prefactor sits outside the norm, so duplicating the data
    # halves the score instead of leaving it fixed
    one = nrmse([0.0, 1.0], [0.1, 1.1])
    two = nrmse([0.0, 1.0] * 2, [0.1, 1.1] * 2)
    assert two == pytest.approx(one / math.sqrt(2), rel=1e-12)


def test_nrmse_input_validation():
    with pytest.raises(ValueError):
        nrmse([], [])
    with pytest.raises(ValueError):
        nrmse([1.0, 2.0], [1.0])


# -- point sampling ---------------------------------------------------------


def test_default_exclusion_is_a_tenth_of_peak_amplitude():
    assert default_exclusion(get_problem("heat")) == pytest.approx(0.1, rel=1e-12)
    assert default_exclusion(get_problem("wave")) == pytest.approx(0.2, rel=1e-12)
    assert default_exclusion(get_problem("schrodinger")) == pytest.approx(0.2, rel=1e-12)


def test_sampling_is_deterministic_and_in_range():
    prob = get_problem("heat")
    a = sample_points(prob, 50, tau=0.1, seed=7)
    b = sample_points(prob, 50, tau=0.1, seed=7)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (50,)
    assert np.all((a > 0.0) & (a < 1.0))
    assert np.all(np.abs(np.sin(PI * a)) > 0.1)
    c = sample_points(prob, 50, tau=0.1, seed=8)
    assert not np.array_equal(a, c)


def test_sampling_without_threshold_is_plain_uniform():
    prob = get_problem("diffusion")
    got = sample_points(prob, 7, tau=0.0, seed=9)
    want = np.random.default_rng(9).uniform(-1.0, 1.0, 7)
    np.testing.assert_array_equal(got, want)


def test_sampling_ignores_identically_zero_components():
    # the second wave component starts at rest; a filter demanding amplitude
    # there would reject every draw
    prob = get_problem("wave")
    pts = sample_points(prob, 30, tau=0.15, seed=1)
    assert pts.shape == (30,)
    g = prob.ic_numpy(pts)
    assert np.all(np.abs(g[0]) > 0.15)
    assert np.all(g[1] == 0.0)


def test_sampling_threshold_validation():
    prob = get_problem("heat")
    with pytest.raises(ValueError):
        sample_points(prob, 5, tau=-0.1, seed=0)
    with pytest.raises(ValueError):
        sample_points(prob, 5, tau=1.0, seed=0)  # nothing exceeds the peak
    with pytest.raises(ValueError):
        sample_points(prob, 0, tau=0.1, seed=0)


def test_sampling_error_when_threshold_leaves_no_room():
    with pytest.raises(SamplingError):
        sample_points(get_problem("heat"), 5, tau=1.0 - 1e-9, seed=0)


def test_sampling_evaluates_the_probe_grid_once():
    # the peak amplitude and the active components come from one evaluation
    prob = get_problem("heat")
    sizes = []

    def counting(x):
        sizes.append(np.size(x))
        return prob.ic_numpy(x)

    sample_points(dataclasses.replace(prob, ic_numpy=counting), 50, tau=0.1, seed=7)
    assert sizes.count(4097) == 1


def test_default_threshold_is_the_explicit_default_exclusion():
    prob = get_problem("wave")
    np.testing.assert_array_equal(
        sample_points(prob, 30, None, 3), sample_points(prob, 30, default_exclusion(prob), 3)
    )


def test_benchmark_evaluates_the_probe_grid_once():
    # the default threshold and the draws come from one probe-grid evaluation
    prob = get_problem("heat")
    sizes = []

    def counting(x):
        sizes.append(np.size(x))
        return prob.ic_numpy(x)

    report = run_benchmark(dataclasses.replace(prob, ic_numpy=counting), max_order=2, num_points=20)
    assert sizes.count(4097) == 1
    assert report.tau == default_exclusion(prob)


def test_single_point_sampling():
    prob = get_problem("heat")
    a = sample_points(prob, 1, tau=0.1, seed=4)
    b = sample_points(prob, 1, tau=0.1, seed=4)
    assert a.shape == (1,)
    np.testing.assert_array_equal(a, b)


# -- benchmark runs ----------------------------------------------------------


def test_run_benchmark_is_deterministic():
    prob = get_problem("heat")
    r1 = run_benchmark(prob, max_order=5, num_points=20, seed=3)
    r2 = run_benchmark(prob, max_order=5, num_points=20, seed=3)
    assert r1.derivative_nrmse == r2.derivative_nrmse
    assert r1.coefficient_nrmse == r2.coefficient_nrmse
    assert r1.taylor_nrmse == r2.taylor_nrmse
    np.testing.assert_array_equal(r1.points, r2.points)


def test_run_benchmark_report_shape():
    prob = get_problem("wave")
    r = run_benchmark(prob, max_order=4, num_points=10, t1_values=(0.01, 0.02), seed=0)
    assert r.problem == "wave"
    assert len(r.derivative_nrmse) == 2
    assert len(r.derivative_nrmse[0]) == 5
    assert len(r.taylor_nrmse[1]) == 2
    assert r.t1_values == (0.01, 0.02)
    assert r.runtime_seconds > 0
    assert all(v >= 0 and math.isfinite(v) for row in r.derivative_nrmse for v in row)


def test_run_benchmark_requires_oracle():
    with pytest.raises(NoExactOracleError):
        run_benchmark(get_problem("burgers"))


def test_wave_odd_orders_are_exactly_zero():
    r = run_benchmark(get_problem("wave"), max_order=7, num_points=15, seed=5)
    for i in (1, 3, 5, 7):
        assert r.derivative_nrmse[0][i] == 0.0
        assert r.coefficient_nrmse[0][i] == 0.0


def test_check_thresholds_passes_on_real_runs():
    for name in ("heat", "diffusion", "wave"):
        r = run_benchmark(get_problem(name), max_order=10, num_points=50, seed=7)
        assert check_thresholds(r) == []


def test_check_thresholds_flags_derivative_breach():
    # no evaluation horizons: a short expansion cannot meet the finite-time
    # bounds, and this test is about the derivative cap alone
    r = run_benchmark(get_problem("heat"), max_order=3, num_points=10, seed=0, t1_values=())
    row = list(r.derivative_nrmse[0])
    row[2] = 1e-10
    bad = dataclasses.replace(r, derivative_nrmse=(tuple(row),))
    failures = check_thresholds(bad)
    assert len(failures) == 1
    assert "derivative order 2" in failures[0]


def test_check_thresholds_flags_evaluation_breach():
    r = run_benchmark(get_problem("heat"), max_order=10, num_points=10, seed=0)
    assert check_thresholds(r) == []
    row = list(r.taylor_nrmse[0])
    row[1] = 1e-5  # t1 = 0.05 slot
    bad = dataclasses.replace(r, taylor_nrmse=(tuple(row),))
    failures = check_thresholds(bad)
    assert len(failures) == 1
    assert "t1=0.05" in failures[0]


def test_check_thresholds_fails_underconverged_low_order_run():
    # the finite-time bounds assume the full ten retained orders; a K=3 run
    # genuinely misses them and must be reported, not excused
    r = run_benchmark(get_problem("heat"), max_order=3, num_points=10, seed=0)
    failures = check_thresholds(r)
    assert any("evaluation at t1=0.1" in f for f in failures)


def test_check_thresholds_flags_nonzero_odd_wave_order():
    r = run_benchmark(get_problem("wave"), max_order=3, num_points=10, seed=0)
    row = list(r.derivative_nrmse[0])
    row[1] = 1e-20
    bad = dataclasses.replace(r, derivative_nrmse=(tuple(row),) + r.derivative_nrmse[1:])
    failures = check_thresholds(bad)
    assert any("expected exactly 0" in f for f in failures)


def test_check_thresholds_degradation_window_is_two_sided():
    r = run_benchmark(get_problem("diffusion"), max_order=10, num_points=20, seed=0)
    for breach in (1e-10, 1e-3):
        row = list(r.derivative_nrmse[0])
        row[10] = breach
        bad = dataclasses.replace(r, derivative_nrmse=(tuple(row),))
        failures = check_thresholds(bad)
        assert any("degradation window" in f for f in failures)


def test_check_thresholds_unknown_problem_has_no_bounds():
    r = run_benchmark(get_problem("heat"), max_order=2, num_points=5, seed=0)
    assert check_thresholds(dataclasses.replace(r, problem="toy")) == []


# -- report output ------------------------------------------------------------


def test_write_report_csv_round_trips(tmp_path):
    r = run_benchmark(get_problem("wave"), max_order=3, num_points=8, seed=2)
    path = tmp_path / "report.csv"
    write_report_csv(r, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "metric,component,key,value"
    # two metric blocks of K+1 rows plus one evaluation row per t1, per component
    assert len(lines) == 1 + 2 * (2 * 4 + 3)
    row = lines[1].split(",")
    assert row[0] == "derivative_nrmse" and row[1] == "0" and row[2] == "0"
    assert float(row[3]) == r.derivative_nrmse[0][0]


def test_format_report_table_layout():
    r = run_benchmark(get_problem("heat"), max_order=3, num_points=8, seed=2)
    table = format_report_table(r)
    assert "problem: heat" in table
    assert "derivative" in table and "coefficient" in table
    assert "evaluation" in table
    # heading + column row + four order rows + separator + t1 heading + three t1 rows
    assert len(table.splitlines()) == 1 + 1 + 4 + 1 + 1 + 3


# -- numerical reference solver -----------------------------------------------


def test_reference_contract_enforced():
    prob = get_problem("heat")
    pts = np.array([0.4])
    with pytest.raises(ValueError):
        reference_solve(prob, pts, 0.2)
    with pytest.raises(ValueError):
        reference_solve(prob, pts, -0.01)
    with pytest.raises(ValueError, match="horizon"):
        reference_solve(prob, pts, math.nan)
    # the grid and step are fixed at the contract: at least 2048 cells, dt <= 1e-6
    assert _CELLS >= 2048 and _DT_MAX <= 1e-6


def test_reference_at_zero_returns_initial_profile():
    prob = get_problem("heat")
    pts = np.linspace(0.1, 0.9, 9)
    got = reference_solve(prob, pts, 0.0)
    np.testing.assert_allclose(got[0], np.sin(PI * pts), rtol=0, atol=1e-10)


def test_reference_matches_heat_closed_form(heat_reference_error):
    assert heat_reference_error < 1e-8


def test_reference_matches_diffusion_closed_form():
    prob = get_problem("diffusion")
    pts = np.linspace(-0.85, 0.85, 12)
    got = reference_solve(prob, pts, 0.01)
    want = prob.exact(0.01, pts)
    assert np.max(np.abs(got[0] - want[0])) < 1e-8


def test_reference_matches_wave_closed_form_both_components():
    prob = get_problem("wave")
    pts = np.linspace(0.12, 0.88, 10)
    got = reference_solve(prob, pts, 0.01)
    want = prob.exact(0.01, pts)
    for m in range(2):
        assert np.max(np.abs(got[m] - want[m])) < 1e-8


def test_reference_periodic_branch_against_closed_form():
    # same decay physics as the Dirichlet heat problem, but on a periodic
    # domain, exercising the wrap-around stencils and the periodic spline
    prob = PdeProblem(
        name="heat_periodic",
        components=1,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params={},
        ic=lambda seed: [series_sin(seed * PI)],
        rhs=lambda u, u_x, u_xx, t, x: [u_xx[0] * 0.4],
        ic_numpy=lambda x: [np.sin(PI * x)],
        rhs_numpy=lambda u, u_x, u_xx, t, x: [0.4 * u_xx[0]],
        boundary="periodic",
        diffusivity=0.4,
    )
    pts = np.linspace(-0.8, 0.8, 9)
    got = reference_solve(prob, pts, 0.01)
    want = math.exp(-0.4 * PI**2 * 0.01) * np.sin(PI * pts)
    assert np.max(np.abs(got[0] - want)) < 1e-8


def test_reference_raises_on_blow_up():
    prob = PdeProblem(
        name="explosive",
        components=1,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params={},
        ic=lambda seed: [seed * 0.0 + 1e200],
        rhs=lambda u, u_x, u_xx, t, x: [u[0] * u[0]],
        ic_numpy=lambda x: [np.full_like(x, 1e200)],
        rhs_numpy=lambda u, u_x, u_xx, t, x: [u[0] * u[0]],
        boundary="periodic",
    )
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(OracleFailure):
        reference_solve(prob, np.array([0.0]), 0.01)


def test_taylor_and_reference_disagree_only_at_the_periodic_seam():
    # The x^2*cos(pi*x) profile is continuous but not C^1 across the periodic
    # boundary, so the periodic evolution develops a thin layer there that a
    # pointwise expansion of the smooth profile cannot know about.  Away from
    # the seam the two solutions coincide to solver precision; inside the
    # diffusion length they genuinely differ.  This pins the effect so the
    # equivalence checks elsewhere are read correctly.
    prob = get_problem("allen_cahn")
    pts = np.array([-0.997, -0.6])
    taylor = compute_expansion(prob, pts, 7).evaluate(0.01)[0]
    ref = reference_solve(prob, pts, 0.01)[0]
    near_seam, interior = np.abs(taylor - ref)
    assert 1e-6 < near_seam < 1e-3
    assert interior < 1e-9
