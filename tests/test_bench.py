"""Metrics, sampling, benchmark reports, and the numerical reference solver."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdetaylor import (
    BenchReport,
    DivergenceError,
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
    available_problems,
    sample_points,
    write_report_csv,
)
from pdetaylor.bench import (
    _CELLS, _DT_MAX, _PCG64, _affine128, _interpolate, _stable_step, default_exclusion,
)
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


# multi-word seeds up to seven 32-bit words, and numpy integer seeds
_STREAM_SEEDS = [*range(256), 2**32, 2**64 - 1, 2**64 + 5, 2**128, 2**200 + 12345,
                 np.int64(7), np.uint64(2**64 - 1)]
# draws that end just before, at and just past the 64 stepped states and
# the jumps to 128 and 1024 states, two that run through many jumps, and a
# small one from the state the largest leaves
_JUMP_SIZES = (63, 64, 65, 127, 128, 129, 1023, 1024, 1025, 10_001, 100_003, 7)


def test_sampling_stream_is_numpys_default_rng_uniform_bit_for_bit():
    # successive draws over each problem's domain from one generator per
    # seed: of sizes 1, 7 and 50 for every seed, and of _JUMP_SIZES for seed
    # 0 and the multi-word and numpy seeds; the tests may import
    # numpy.random, the package not
    domains = [get_problem(name).domain for name in available_problems()]
    runs = [(seed, (1, 7, 50)) for seed in _STREAM_SEEDS]
    runs += [(seed, _JUMP_SIZES) for seed in [0, *_STREAM_SEEDS[256:]]]
    mismatched = []
    for seed, sizes in runs:
        ours, numpys = _PCG64(seed), np.random.default_rng(seed)
        for size in sizes:
            for lo, hi in domains:
                got, want = ours.uniform(lo, hi, size), numpys.uniform(lo, hi, size)
                if got.dtype != want.dtype or got.tobytes() != want.tobytes():
                    mismatched.append((seed, size, (lo, hi)))
    assert mismatched == []


_WORDS = st.integers(0, 2**128 - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(_WORDS, min_size=1, max_size=8), _WORDS, _WORDS)
# words of 0 and 2**64 - 1, so that both carries into the high word run
@example([2**128 - 1], 2**128 - 1, 2**128 - 1)
@example([2**64 - 1, 2**128 - 2**64, 0], 2**64 - 1, 2**64 - 1)
@example([2**64 - 1, 2**128 - 1], 2**64, 2**128 - 2**64)
@example([2**128 - 2**64 + 1], 2**128 - 1, 0)
def test_jump_is_the_affine_map_mod_2_128(states, mult, add):
    lo = np.array([s & (2**64 - 1) for s in states], dtype=np.uint64)
    hi = np.array([s >> 64 for s in states], dtype=np.uint64)
    out_lo, out_hi = np.empty_like(lo), np.empty_like(hi)
    _affine128(lo, hi, mult, add, out_lo, out_hi)
    got = [int(h) << 64 | int(l) for l, h in zip(out_lo, out_hi)]
    assert got == [(mult * s + add) & (2**128 - 1) for s in states]


def test_sampling_memory_per_draw_is_bounded():
    # a million draws peak at 43.0 traced bytes a draw: two state words, the
    # output and the last jump round's temporaries; 54 leaves a quarter's
    # margin, a read-out outside the state words peaked at 64, and stepping
    # every state in Python ints at 161
    ours = _PCG64(0)
    tracemalloc.start()
    try:
        ours.uniform(0.0, 1.0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 54 * 10**6


def test_an_empty_draw_is_empty_and_leaves_the_stream_where_it_was():
    ours, numpys = _PCG64(3), np.random.default_rng(3)
    got = []
    for size in (0, 100, 0, 3):
        draw = ours.uniform(-1.0, 1.0, size)
        assert draw.dtype == np.float64 and draw.shape == (size,)
        got.append(draw.tobytes())
    assert got == [b"", numpys.uniform(-1.0, 1.0, 100).tobytes(), b"",
                   numpys.uniform(-1.0, 1.0, 3).tobytes()]


def _numpy_sample(problem, count, seed):
    """``sample_points`` at the default threshold as it was drawn with
    ``numpy.random.default_rng``, before the package computed the stream."""
    lo, hi = problem.domain
    peaks = [float(np.abs(g).max()) for g in problem.ic_numpy(np.linspace(lo, hi, 4097))]
    tau = 0.1 * max(peaks)
    active = [m for m, peak in enumerate(peaks) if peak > 1e-12]
    rng = np.random.default_rng(seed)
    kept, n_kept, total = [], 0, 0
    while n_kept < count and total < 10 * count:
        draw = rng.uniform(lo, hi, size=count)
        total += count
        g = problem.ic_numpy(draw)
        mask = np.ones(count, dtype=bool)
        for m in active:
            mask &= np.abs(g[m]) > tau
        kept.append(draw[mask])
        n_kept += int(mask.sum())
    return np.concatenate(kept)[:count]


@pytest.mark.parametrize("name", available_problems())
def test_sample_points_are_those_numpy_random_drew(name):
    problem = get_problem(name)
    for seed in (0, 1, 4243, 2**40 + 3):
        for count in (1, 13, 100):
            got = sample_points(problem, count, None, seed)
            assert got.tobytes() == _numpy_sample(problem, count, seed).tobytes(), (seed, count)


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
    # numpy would raise its own TypeError for a fractional count, and read
    # True as a count of 1
    for count in (2.5, True, "5"):
        with pytest.raises(ValueError, match=r"^count must be an integer >= 1, got "):
            sample_points(prob, count, tau=0.1, seed=0)
    assert sample_points(prob, np.int64(5), tau=0.1, seed=0).shape == (5,)
    # run_benchmark takes the count as num_points, and says so
    for count in (0, 2.5, True):
        with pytest.raises(ValueError, match=rf"^num_points must be an integer >= 1, got {count!r}$"):
            run_benchmark(prob, max_order=2, num_points=count)


def test_negative_seed_is_rejected_by_name():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        sample_points(get_problem("heat"), 5, tau=0.1, seed=-1)
    # numpy would reject 1.5 without naming the seed, and sample True as seed 1
    for seed in (1.5, True):
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed!r}$"):
            sample_points(get_problem("heat"), 5, tau=0.1, seed=seed)
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed!r}$"):
            run_benchmark(get_problem("heat"), max_order=2, num_points=5, seed=seed)
    np.testing.assert_array_equal(
        sample_points(get_problem("heat"), 5, tau=0.1, seed=np.int64(3)),
        sample_points(get_problem("heat"), 5, tau=0.1, seed=3),
    )


def test_sampling_error_when_threshold_leaves_no_room():
    with pytest.raises(SamplingError):
        sample_points(get_problem("heat"), 5, tau=1.0 - 1e-9, seed=0)


@pytest.mark.parametrize(
    "sample",
    [
        lambda prob: sample_points(prob, 3, 5.0, 0),
        lambda prob: sample_points(prob, 3, None, 0),
        default_exclusion,
    ],
    ids=["tau", "default-tau", "default_exclusion"],
)
def test_sampling_rejects_a_non_finite_initial_condition(sample):
    # sin(inf * x) is NaN at every point, and a NaN peak would pass every
    # threshold test; sampling raises the expansion's order-0 error instead
    with pytest.raises(DivergenceError) as err:
        sample(get_problem("heat", {"mode": 1e308}))
    assert (err.value.order, err.value.component) == (0, 0)


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


@pytest.mark.parametrize(
    "problem, order",
    [
        # V's closed form at order 10 needs speed**11, a Python float
        (get_problem("wave", {"speed": 1e30}), 10),
        # an array closed form reads inf
        (
            dataclasses.replace(
                get_problem("heat"),
                exact_time_derivative=lambda i, t, x: [np.exp(np.full_like(x, 800.0 * i))],
            ),
            1,
        ),
    ],
    ids=["float", "array"],
)
def test_run_benchmark_rejects_an_overflowing_closed_form(problem, order):
    with pytest.raises(OracleFailure, match=f"order {order} overflows$"):
        run_benchmark(problem, max_order=10, num_points=5, t1_values=(0.01,))


def test_run_benchmark_scores_an_overflowing_error_without_warnings():
    # with alpha = 0, C_1 is zero; C_0 is at least 1e306 at the sampled points
    # (a tenth of its peak), so its error against the oracle's -1.797e308
    # overflows, and the score is not finite
    heat = get_problem("heat", {"alpha": 0.0})
    big = dataclasses.replace(
        heat,
        ic=lambda seed: [h * 1e307 for h in heat.ic(seed)],
        ic_numpy=lambda x: [g * 1e307 for g in heat.ic_numpy(x)],
        exact_time_derivative=lambda i, t, x: [np.full_like(x, -1.797e308 if i == 0 else 0.0)],
    )
    r = run_benchmark(big, max_order=1, num_points=5, t1_values=(0.01,))
    assert not math.isfinite(r.derivative_nrmse[0][0])
    assert r.derivative_nrmse[0][1] == 0.0


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


def _passing_report(problem, components, max_order=10, t1_values=(0.01, 0.05, 0.1)):
    """A report that meets every bound of ``problem``: zero errors, but for
    diffusion's order 10, which sits inside its degradation window."""
    rows = tuple((0.0,) * (max_order + 1) for _ in range(components))
    report = BenchReport(
        problem=problem, max_order=max_order, seed=0, tau=0.1, points=np.zeros(5),
        t1_values=t1_values, derivative_nrmse=rows, coefficient_nrmse=rows,
        taylor_nrmse=tuple((0.0,) * len(t1_values) for _ in range(components)),
        runtime_seconds=0.0,
    )
    if problem == "diffusion" and max_order >= 10:
        report = _with_error(report, "derivative_nrmse", 10, 1e-7)
    return report


def _with_error(report, field, index, value):
    """``report`` with entry ``index`` of component 0's ``field`` set to ``value``."""
    rows = getattr(report, field)
    row = list(rows[0])
    row[index] = value
    return dataclasses.replace(report, **{field: (tuple(row),) + rows[1:]})


@pytest.mark.parametrize(
    "problem, components, field, index, value, message",
    [
        ("heat", 1, "derivative_nrmse", 2, 1e-10,
         "heat derivative order 2: nrmse 1.000e-10 exceeds 1e-14"),
        ("wave", 2, "derivative_nrmse", 4, 2.5e-13,
         "wave derivative order 4: nrmse 2.500e-13 exceeds 1e-14"),
        ("wave", 2, "derivative_nrmse", 3, 1e-20,
         "wave derivative order 3: nrmse 1.000e-20, expected exactly 0"),
        ("diffusion", 1, "coefficient_nrmse", 7, 3.25e-11,
         "diffusion coefficient order 7: nrmse 3.250e-11 exceeds 1e-12"),
        ("diffusion", 1, "derivative_nrmse", 10, 2e-4,
         "diffusion derivative order 10: nrmse 2.000e-04 outside the degradation window [1e-09, 1e-05]"),
        ("heat", 1, "taylor_nrmse", 2, 4e-11,
         "heat evaluation at t1=0.1: nrmse 4.000e-11 exceeds 1e-11"),
        ("diffusion", 1, "taylor_nrmse", 0, 2e-15,
         "diffusion evaluation at t1=0.01: nrmse 2.000e-15 exceeds 1e-15"),
        ("wave", 2, "taylor_nrmse", 1, 3e-14,
         "wave evaluation at t1=0.05: nrmse 3.000e-14 exceeds 1e-14"),
    ],
    ids=["derivative_max", "even_derivative_max", "odd_derivative_exact_zero", "coefficient_max",
         "derivative_order10_range", "heat-horizon", "diffusion-horizon", "wave-horizon"],
)
def test_check_thresholds_message_of_each_rule(problem, components, field, index, value, message):
    report = _passing_report(problem, components)
    assert check_thresholds(report) == []
    assert check_thresholds(_with_error(report, field, index, value)) == [message]


@pytest.mark.parametrize(
    "problem, components, field, index, flagged",
    [
        ("heat", 1, "derivative_nrmse", 0, False),  # derivative_max holds from order 1
        ("heat", 1, "derivative_nrmse", 10, True),
        ("wave", 2, "derivative_nrmse", 0, True),  # even_derivative_max from order 0
        ("wave", 2, "derivative_nrmse", 10, True),
        ("diffusion", 1, "coefficient_nrmse", 0, True),  # coefficient_max at every order
        ("diffusion", 1, "coefficient_nrmse", 10, True),
        ("diffusion", 1, "derivative_nrmse", 9, False),  # diffusion caps no derivative
    ],
)
def test_check_thresholds_orders_each_cap_covers(problem, components, field, index, flagged):
    report = _with_error(_passing_report(problem, components), field, index, 1.0)
    assert len(check_thresholds(report)) == flagged


def test_check_thresholds_lists_breaches_rule_by_rule_and_order_by_order():
    wave = _passing_report("wave", 2)
    for field, index, value in (("taylor_nrmse", 2, 1.0), ("derivative_nrmse", 5, 1e-30),
                                ("derivative_nrmse", 1, 2e-30), ("derivative_nrmse", 8, 1e-3),
                                ("derivative_nrmse", 2, 2e-3)):
        wave = _with_error(wave, field, index, value)
    assert check_thresholds(wave) == [
        "wave derivative order 2: nrmse 2.000e-03 exceeds 1e-14",
        "wave derivative order 8: nrmse 1.000e-03 exceeds 1e-14",
        "wave derivative order 1: nrmse 2.000e-30, expected exactly 0",
        "wave derivative order 5: nrmse 1.000e-30, expected exactly 0",
        "wave evaluation at t1=0.1: nrmse 1.000e+00 exceeds 1e-13",
    ]
    diffusion = _passing_report("diffusion", 1)
    for field, index, value in (("taylor_nrmse", 1, 5e-15), ("derivative_nrmse", 10, 1e-12),
                                ("coefficient_nrmse", 4, 1e-6), ("coefficient_nrmse", 0, 2e-6)):
        diffusion = _with_error(diffusion, field, index, value)
    assert check_thresholds(diffusion) == [
        "diffusion coefficient order 0: nrmse 2.000e-06 exceeds 1e-12",
        "diffusion coefficient order 4: nrmse 1.000e-06 exceeds 1e-12",
        "diffusion derivative order 10: nrmse 1.000e-12 outside the degradation window [1e-09, 1e-05]",
        "diffusion evaluation at t1=0.05: nrmse 5.000e-15 exceeds 1e-15",
    ]


def test_check_thresholds_skip_the_window_below_order_10_and_unknown_horizons():
    # the degradation window needs order 10, and a horizon with no bound is not judged
    short = _passing_report("diffusion", 1, max_order=9, t1_values=(0.02,))
    assert check_thresholds(_with_error(short, "taylor_nrmse", 0, 1.0)) == []


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


def _table_report(problem, components, max_order, t1_values):
    """A report with a different error in every cell."""
    return BenchReport(
        problem=problem, max_order=max_order, seed=7, tau=0.123456789, points=np.zeros(50),
        t1_values=t1_values,
        derivative_nrmse=tuple(tuple(1.25e-17 * (i + 1) * 3**c for i in range(max_order + 1))
                               for c in range(components)),
        coefficient_nrmse=tuple(tuple(2.5e-16 / (i + 1) * 7**c for i in range(max_order + 1))
                                for c in range(components)),
        taylor_nrmse=tuple(tuple(3.125e-15 * (j + 1) * 11**c for j in range(len(t1_values)))
                           for c in range(components)),
        runtime_seconds=0.0,
    )


_HEAT_TABLE = """\
problem: heat  (max order 3, 50 points, seed 7, tau 0.123457)
       order    derivative   coefficient
           0     1.250e-17     2.500e-16
           1     2.500e-17     1.250e-16
           2     3.750e-17     8.333e-17
           3     5.000e-17     6.250e-17

          t1    evaluation
        0.01     3.125e-15
      0.0025     6.250e-15
         0.1     9.375e-15"""

_WAVE_TABLE = """\
problem: wave  (max order 10, 50 points, seed 7, tau 0.123457)
       order  derivative[0]  coefficient[0]  derivative[1]  coefficient[1]
           0      1.250e-17       2.500e-16      3.750e-17       1.750e-15
           1      2.500e-17       1.250e-16      7.500e-17       8.750e-16
           2      3.750e-17       8.333e-17      1.125e-16       5.833e-16
           3      5.000e-17       6.250e-17      1.500e-16       4.375e-16
           4      6.250e-17       5.000e-17      1.875e-16       3.500e-16
           5      7.500e-17       4.167e-17      2.250e-16       2.917e-16
           6      8.750e-17       3.571e-17      2.625e-16       2.500e-16
           7      1.000e-16       3.125e-17      3.000e-16       2.188e-16
           8      1.125e-16       2.778e-17      3.375e-16       1.944e-16
           9      1.250e-16       2.500e-17      3.750e-16       1.750e-16
          10      1.375e-16       2.273e-17      4.125e-16       1.591e-16

          t1  evaluation[0]  evaluation[1]
        0.01      3.125e-15      3.437e-14
      0.0025      6.250e-15      6.875e-14
         0.1      9.375e-15      1.031e-13"""


@pytest.mark.parametrize(
    "problem, components, max_order, table",
    [("heat", 1, 3, _HEAT_TABLE), ("wave", 2, 10, _WAVE_TABLE)],
    ids=["heat", "wave"],
)
def test_format_report_table_text_is_pinned(problem, components, max_order, table):
    # every column right-justified to its header, and at least 12, two spaces
    # apart; without horizons the table ends after its last order
    with_horizons = _table_report(problem, components, max_order, (0.01, 0.0025, 0.1))
    assert format_report_table(with_horizons) == table
    without = _table_report(problem, components, max_order, ())
    assert format_report_table(without) == table.split("\n\n")[0]


def test_format_report_table_layout():
    r = run_benchmark(get_problem("heat"), max_order=3, num_points=8, seed=2)
    table = format_report_table(r)
    assert "problem: heat" in table
    assert "derivative" in table and "coefficient" in table
    assert "evaluation" in table
    # heading + column row + four order rows + separator + t1 heading + three t1 rows
    assert len(table.splitlines()) == 1 + 1 + 4 + 1 + 1 + 3


# -- numerical reference solver -----------------------------------------------


@pytest.mark.parametrize("points", [np.array([0.3 + 0.2j]), [0.4, 0.3 + 0j]], ids=["complex", "zero-imaginary"])
def test_reference_rejects_complex_points_before_any_work(points):
    def no_work(x):
        raise AssertionError("solved at complex points")

    prob = dataclasses.replace(get_problem("heat"), ic_numpy=no_work)
    with pytest.raises(ValueError, match=r"reference query points must be real, got complex points .*\(0\.3\+"):
        reference_solve(prob, points, 0.01)


def test_reference_contract_enforced():
    prob = get_problem("heat")
    pts = np.array([0.4])
    with pytest.raises(ValueError):
        reference_solve(prob, pts, 0.2)
    with pytest.raises(ValueError):
        reference_solve(prob, pts, -0.01)
    with pytest.raises(ValueError, match="horizon"):
        reference_solve(prob, pts, math.nan)
    # every point finite and inside [lo, hi], where the interpolant has its nodes
    lo, hi = prob.domain
    for bad in ([], [hi + 1e-12], [lo - 0.5], [0.4, math.nan], [math.inf]):
        with pytest.raises(ValueError, match="inside"):
            reference_solve(prob, np.array(bad), 0.0)
    ends = reference_solve(prob, np.array([lo, hi]), 0.0)[0]
    np.testing.assert_allclose(ends, [0.0, 0.0], rtol=0, atol=1e-12)
    # the grid and step are fixed at the contract: at least 2048 cells, dt <= 1e-6
    assert _CELLS >= 2048 and _DT_MAX <= 1e-6


def test_reference_at_zero_returns_initial_profile():
    prob = get_problem("heat")
    pts = np.linspace(0.1, 0.9, 9)
    got = reference_solve(prob, pts, 0.0)
    np.testing.assert_allclose(got[0], np.sin(PI * pts), rtol=0, atol=1e-10)


@pytest.mark.parametrize("periodic", [False, True])
def test_interpolant_reproduces_a_quintic_on_interior_cells(periodic):
    # six nodes fix a degree-5 polynomial, so only rounding is left: measured
    # 1.3e-15 on both boundary kinds
    lo, hi = -1.0, 1.0
    h = (hi - lo) / _CELLS
    grid = lo + h * np.arange(_CELLS) if periodic else np.linspace(lo, hi, _CELLS + 1)
    coeffs = [0.3, -1.1, 0.7, 2.0, -0.4, 1.3]
    state = np.stack([np.polyval(coeffs, grid), np.polyval(coeffs[::-1], grid)])
    # cells 2 .. _CELLS - 4 read no ghost node
    x = np.random.default_rng(0).uniform(lo + 2 * h, hi - 3 * h, 500)
    got = _interpolate(state, x, lo, h, periodic)
    for row, c in zip(got, (coeffs, coeffs[::-1])):
        np.testing.assert_allclose(row, np.polyval(c, x), rtol=0, atol=1e-14)


@pytest.mark.parametrize("periodic", [False, True])
def test_interpolant_reads_the_solver_ghost_cells_near_the_ends(periodic):
    # sin(pi x) on [0, 1] is odd about both Dirichlet ends, and on [-1, 1] it
    # is periodic, so each ghost rule extends it smoothly: the six-node error
    # is then about (pi h)**6, near the ends as inside, and what is left is
    # rounding: measured 2.9e-16 (Dirichlet) and 7.6e-16 (periodic)
    lo, hi = (-1.0, 1.0) if periodic else (0.0, 1.0)
    h = (hi - lo) / _CELLS
    grid = lo + h * np.arange(_CELLS) if periodic else np.linspace(lo, hi, _CELLS + 1)
    x = np.concatenate([np.linspace(lo, lo + 3 * h, 31), np.linspace(hi - 3 * h, hi, 31)])
    got = _interpolate(np.sin(PI * grid)[None], x, lo, h, periodic)[0]
    np.testing.assert_allclose(got, np.sin(PI * x), rtol=0, atol=4e-15)


@pytest.mark.parametrize("name", ["heat", "burgers", "wave", "allen_cahn", "schrodinger"])
def test_reference_at_zero_reads_the_ends_exactly(name):
    # lo and hi fall on a node with weight exactly one; on a periodic domain
    # hi is lo's node
    problem = get_problem(name)
    ends = np.array(problem.domain)
    for got, want in zip(reference_solve(problem, ends, 0.0), problem.ic_numpy(ends)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("name", ["heat", "diffusion", "wave", "burgers", "schrodinger"])
def test_reference_at_zero_matches_the_initial_profile(name):
    # measured worst 3.9e-16 (heat, diffusion, burgers), 7.8e-16 (wave) and
    # 8.0e-15 (schrodinger); a cubic spline read 1.5e-11 on schrodinger.
    # allen_cahn is left out: x^2 cos(pi x) is not C^1 at its periodic seam,
    # and any interpolant through the seam reads about 2.5e-4 there
    problem = get_problem(name)
    x = sample_points(problem, 200, default_exclusion(problem), 0)
    for got, want in zip(reference_solve(problem, x, 0.0), problem.ic_numpy(x)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("t1", [0.0025, 0.01])
def test_reference_matches_cole_hopf_burgers(burgers_truth, t1):
    # the one check of the solver against truth on a nonlinear problem;
    # measured 1.3e-14 at t1 = 0.0025 and 4.9e-14 at 0.01, twice below the
    # bound, where a cubic-spline readout read 2.3e-13 and 2.8e-13
    x, truth = burgers_truth
    got = reference_solve(get_problem("burgers"), x, t1)[0]
    assert np.max(np.abs(got - truth[t1])) < 1e-13


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
    # domain, exercising the wrap-around stencils and the periodic interpolant
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


def test_reference_first_derivative_against_advection_closed_form():
    # u_t = -c u_x transports the profile unchanged, so only the U_x stencil
    # shapes the solution; a speed other than 1 shows a scale error in it
    c = 0.7
    prob = PdeProblem(
        name="advection_periodic",
        components=1,
        domain=(-1.0, 1.0),
        t_end=1.0,
        params={},
        ic=lambda seed: [series_sin(seed * PI)],
        rhs=lambda u, u_x, u_xx, t, x: [u_x[0] * -c],
        ic_numpy=lambda x: [np.sin(PI * x)],
        rhs_numpy=lambda u, u_x, u_xx, t, x: [-c * u_x[0]],
        boundary="periodic",
        advection_speed=c,
    )
    pts = np.linspace(-0.9, 0.9, 13)
    got = reference_solve(prob, pts, 0.01)
    want = np.sin(PI * (pts - c * 0.01))
    assert np.max(np.abs(got[0] - want)) < 1e-10


def test_reference_keeps_its_heat_accuracy(heat_reference_error):
    # the stencils sum with integer weights and scale once; weights prescaled
    # by 1/(12 h^2) no longer sum to zero and raised this error to 2e-12
    assert heat_reference_error < 1e-13


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


def test_reference_checks_the_final_state_of_a_short_solve():
    # 100 steps of 1e-6 end before the check every 1000 steps runs once, so
    # only the final check sees the infinite rows, and it warns of nothing
    prob = dataclasses.replace(
        get_problem("heat"), rhs_numpy=lambda u, u_x, u_xx, t, x: [np.full_like(u[0], np.inf)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleFailure, match="^reference solve finished with non-finite values$"):
            reference_solve(prob, np.array([0.4]), 1e-4)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"rhs_numpy": lambda u, u_x, u_xx, t, x: []}, "rhs_numpy returned 0 components, expected 1"),
        ({"rhs_numpy": lambda u, u_x, u_xx, t, x: [u[0], u[0]]}, "rhs_numpy returned 2 components, expected 1"),
        ({"ic_numpy": lambda x: [np.sin(PI * x), np.zeros_like(x)]}, "ic_numpy returned 2 components, expected 1"),
    ],
    ids=["rhs-none", "rhs-two", "ic-two"],
)
def test_reference_checks_component_counts(change, message):
    # too few rows would leave stage slopes unwritten, too many would index
    # past them, and a second initial component would be dropped unsolved
    prob = dataclasses.replace(get_problem("heat"), **change)
    with pytest.raises(ValueError, match=message):
        reference_solve(prob, np.array([0.4]), 1e-6)


@pytest.mark.parametrize(
    "name, per_stage",
    [("heat", 1), ("diffusion", 1), ("wave", 1), ("burgers", 2), ("allen_cahn", 1), ("schrodinger", 2)],
)
def test_reference_correlates_only_the_rows_rhs_numpy_reads(monkeypatch, name, per_stage):
    # wave reads u_xx[0] of its two components, schrodinger u_xx of both, and
    # only burgers reads u_x; every stage is handed one read-only grid, so no
    # equation can change it between stages
    problem = get_problem(name)
    stages, correlations, grids = [], [], []

    def rhs_numpy(u, u_x, u_xx, t, x):
        stages.append(t)
        grids.append(x)
        assert not x.flags.writeable
        return problem.rhs_numpy(u, u_x, u_xx, t, x)

    def correlate(*args, **kwargs):
        correlations.append(args)
        return real_correlate(*args, **kwargs)

    real_correlate = np.correlate
    monkeypatch.setattr(np, "correlate", correlate)
    lo, hi = problem.domain
    reference_solve(dataclasses.replace(problem, rhs_numpy=rhs_numpy), np.array([(lo + hi) / 2]), 2e-6)
    assert stages and len(correlations) == per_stage * len(stages)
    assert all(x is grids[0] for x in grids)


def _reference_stage_by_stage(problem, points, t1):
    """``reference_solve`` written out plainly: every stage builds its rows,
    ghost cells and eager stencil lists anew, from a writeable grid."""
    lo, hi = problem.domain
    periodic = problem.boundary == "periodic"
    h = (hi - lo) / _CELLS
    grid = lo + h * np.arange(_CELLS) if periodic else np.linspace(lo, hi, _CELLS + 1)
    state = np.stack(problem.ic_numpy(grid))
    dt = _stable_step(problem, h)
    n_steps = max(1, math.ceil(t1 / dt))
    dt = t1 / n_steps
    first = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
    second = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])

    def stencil(ue, weights, scale):
        rows = [np.correlate(row, weights, "valid") for row in ue]
        for row in rows:
            row *= scale
        return rows

    def deriv(t, s):
        ue = np.empty((len(s), s.shape[1] + 4))
        ue[:, 2:-2] = s
        if periodic:
            ue[:, :2] = s[:, -2:]
            ue[:, -2:] = s[:, :2]
        else:
            np.negative(s[:, 2:0:-1], out=ue[:, :2])
            np.negative(s[:, -2:-4:-1], out=ue[:, -2:])
        ux = stencil(ue, first, 1 / (12 * h))
        uxx = stencil(ue, second, 1 / (12 * h * h))
        out = np.stack(problem.rhs_numpy(list(ue[:, 2:-2]), ux, uxx, t, grid))
        if not periodic:
            out[:, :: s.shape[1] - 1] = 0.0
        return out

    t = 0.0
    for _ in range(n_steps):
        k1 = deriv(t, state)
        k2 = deriv(t + dt / 2, k1 * (dt / 2) + state)
        k3 = deriv(t + dt / 2, k2 * (dt / 2) + state)
        k4 = deriv(t + dt, k3 * dt + state)
        state = state + (((k2 + k3) * 2 + k1) + k4) * (dt / 6)
        t += dt
    return _interpolate(state, np.asarray(points, dtype=float), lo, h, periodic)


@pytest.mark.parametrize("name", ["heat", "diffusion", "wave", "burgers", "allen_cahn", "schrodinger"])
def test_reference_stages_match_a_stage_by_stage_solve(name):
    # the views, row lists and stencil caches bound once per solve change no
    # bit: a stage that kept a row from the stage before would
    problem = get_problem(name)
    pts = sample_points(problem, 30, default_exclusion(problem), 0)
    got = reference_solve(problem, pts, 2e-5)
    want = _reference_stage_by_stage(problem, pts, 2e-5)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize("name", ["burgers", "schrodinger"])
def test_reference_stages_do_not_reach_each_other_through_their_arguments(name):
    # an rhs_numpy that reads the sequences it was handed a stage before and
    # rebinds the rows of its u gets the bits of the one it wraps
    problem = get_problem(name)
    before = []

    def meddling(u, u_x, u_xx, t, x):
        for seq in before:
            list(seq)
        f = problem.rhs_numpy(u, u_x, u_xx, t, x)
        u[:] = [np.full_like(row, np.nan) for row in u]
        before[:] = u, u_x, u_xx
        return f

    pts = sample_points(problem, 20, default_exclusion(problem), 1)
    want = reference_solve(problem, pts, 2e-5)
    got = reference_solve(dataclasses.replace(problem, rhs_numpy=meddling), pts, 2e-5)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


def test_diffusion_forcing_follows_a_changed_grid_behind_a_read_only_view():
    # a read-only view does not stop its base from changing, so the forcing is
    # computed from the grid of each call, with the bits of a fresh array's
    problem = get_problem("diffusion")
    base = np.linspace(-1.0, 1.0, 5)
    view = base.view()
    view.flags.writeable = False
    u, u_xx = [np.zeros(5)], [np.full(5, 0.25)]
    problem.rhs_numpy(u, u_xx, u_xx, 0.1, view)
    base += 0.3
    got = problem.rhs_numpy(u, u_xx, u_xx, 0.1, view)[0]
    fresh = problem.rhs_numpy(u, u_xx, u_xx, 0.1, base.copy())[0]
    np.testing.assert_array_equal(got.view(np.uint64), fresh.view(np.uint64))
    s = np.sin(PI * base)
    np.testing.assert_allclose(got, 0.25 - math.exp(-0.1) * (s - PI * PI * s), rtol=0, atol=1e-15)


def test_reference_stencil_rows_answer_as_a_list_does():
    # burgers through len, a negative index, iteration and a slice: the same
    # rows, each correlated once per stage, and the same bits
    burgers = get_problem("burgers")
    nu = burgers.params["viscosity"]

    def through_the_sequence(u, u_x, u_xx, t, x):
        assert len(u_x) == len(u_xx) == 1
        assert u_xx[-1] is u_xx[0] and u_x[0:1][0] is next(iter(u_x)) is u_x[0]
        assert list(u_xx) == [u_xx[0]] and u_xx[1:] == []
        with pytest.raises(IndexError):
            u_x[1]
        (ux,) = u_x
        return [nu * u_xx[-1] - u[0] * ux]

    pts = np.linspace(-0.9, 0.9, 7)
    want = reference_solve(burgers, pts, 1e-4)
    got = reference_solve(dataclasses.replace(burgers, rhs_numpy=through_the_sequence), pts, 1e-4)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.view(np.uint64), w.view(np.uint64))


@pytest.mark.parametrize(
    "returned, copied, exact",
    [
        (lambda u, u_xx: u[0], lambda u, u_xx: u[0] * 1.0, lambda t, x: np.exp(t) * np.sin(PI * x)),
        (lambda u, u_xx: u_xx[0], lambda u, u_xx: u_xx[0] * 1.0,
         lambda t, x: np.exp(-PI * PI * t) * np.sin(PI * x)),
    ],
    ids=["state-row", "stencil-row"],
)
def test_reference_copies_a_returned_argument_row(returned, copied, exact):
    # u[0] is a view of the stage argument, which the next stage overwrites:
    # returning it, or a stencil row, gives the bits of returning a fresh array
    pts = np.linspace(0.1, 0.9, 5)
    got, want = (
        reference_solve(
            dataclasses.replace(get_problem("heat"), diffusivity=1.0,
                                rhs_numpy=lambda u, u_x, u_xx, t, x, f=f: [f(u, u_xx)]),
            pts, 1e-4,
        )[0]
        for f in (returned, copied)
    )
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.max(np.abs(got - exact(1e-4, pts))) < 1e-9


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


def test_allen_cahn_series_and_reference_part_only_within_a_hundredth_of_the_seam():
    # On 2001 evenly spaced points at t1 = 0.01 the K=20 series and the
    # periodic solve differ by up to 6.6e-4 at the seam, by more than 1e-12
    # only within 0.0100 of it, and by at most 6.7e-15 farther than 0.0125.
    prob = get_problem("allen_cahn")
    pts = np.linspace(-1.0, 1.0, 2003)[1:-1]
    gap = np.abs(compute_expansion(prob, pts, 20).evaluate(0.01)[0] - reference_solve(prob, pts, 0.01)[0])
    to_seam = 1.0 - np.abs(pts)
    assert gap[to_seam > 0.02].max() <= 1e-13
    assert gap[to_seam <= 0.01].max() > 1e-6
