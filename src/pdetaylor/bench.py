"""Accuracy metrics, point sampling, benchmark runs and a reference solver.

The benchmark compares the series expansion against closed-form solutions
where they exist (heat, diffusion, wave) using a normalised error

    nrmse(y, y~) = (1/N) * ||y - y~||_2 / (max(y) - min(y) + 1),

the 1/N prefactor and the +1 range regulariser both included deliberately so
reported numbers are comparable across problems and orders.

For problems with no closed form, :func:`reference_solve` provides a
method-of-lines oracle: fourth-order centred finite differences in space on a
fine grid, classical Runge-Kutta in time with a conservatively small step,
six-point Lagrange interpolation onto the query points.  It is built
exclusively on the plain-array evaluators of a problem, never on the series
machinery it is used to check, and is only trusted over short horizons
(t <= 0.1).  At each Runge-Kutta stage it differentiates only what
``rhs_numpy`` reads: a stencil row is computed the first time it is read, so
heat, diffusion, wave, allen_cahn and Schrodinger, which read no ``U_x``,
correlate one stencil per component they read, and burgers two.  What a
stage reuses is bound once per solve: the row views, ghost cells and stencil
sequences of the state and of the stage argument, so a stage fills the ghost
cells, clears the two stencil sequences and does the arithmetic that
changes.  It needs numpy alone.

Sample points are numpy's ``default_rng(seed).uniform`` stream, bit for
bit, computed without importing ``numpy.random``: :class:`_PCG64` seeds
PCG64 (O'Neill, HMC-CS-2014-0905) the way ``SeedSequence`` does, steps its
128-bit state in Python integers for the first 64 draws of a call and jumps
ahead in uint64 arrays for the rest, and maps the outputs to doubles with
numpy's arithmetic.  NEP 19 keeps that raw stream stable across numpy
versions and no ``Generator`` method is called, so the points, and the
CLI's files, are the same on each one.
"""

from __future__ import annotations

import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .driver import DivergenceError, compute_expansion
from .jets import _as_int, _real_points
from .problems import NoExactOracleError, PdeProblem

__all__ = [
    "BenchReport",
    "OracleFailure",
    "SamplingError",
    "check_thresholds",
    "default_exclusion",
    "format_report_table",
    "nrmse",
    "reference_solve",
    "run_benchmark",
    "sample_points",
    "write_report_csv",
]


class SamplingError(RuntimeError):
    """Could not draw enough admissible sample points."""


class OracleFailure(RuntimeError):
    """Reference solve went non-finite; its output must not be trusted."""


# Acceptance bounds for the exact-oracle problems, applied to component 0.
# Derivative and coefficient bounds hold per expansion order; evaluation
# bounds hold per horizon t1.
TABLE1_BOUNDS = {
    "heat": {"derivative_max": 1e-14},
    "wave": {"even_derivative_max": 1e-14, "odd_derivative_exact_zero": True},
    "diffusion": {
        "coefficient_max": 1e-12,
        "derivative_order10_range": (1e-9, 1e-5),
    },
}
TABLE2_BOUNDS = {
    "heat": {0.01: 1e-14, 0.05: 1e-13, 0.1: 1e-11},
    "diffusion": {0.01: 1e-15, 0.05: 1e-15, 0.1: 1e-15},
    "wave": {0.01: 1e-14, 0.05: 1e-14, 0.1: 1e-13},
}

# The reference solver's grid and largest time step: the contract of at
# least 2048 cells and a step of at most 1e-6 holds by construction.
_CELLS = 2048
_DT_MAX = 1e-6


def nrmse(y_true, y_approx) -> float:
    """Range-regularised, size-normalised root-mean-square error (see module docs)."""
    yt = np.asarray(y_true, dtype=np.float64).ravel()
    ya = np.asarray(y_approx, dtype=np.float64).ravel()
    if yt.size == 0 or yt.shape != ya.shape:
        raise ValueError(f"need equal-length non-empty vectors, got {yt.size} and {ya.size}")
    spread = float(yt.max() - yt.min()) + 1.0
    return float(np.linalg.norm(yt - ya)) / spread / yt.size


def _ic_peaks(problem: PdeProblem) -> list[float]:
    """Largest magnitude of each initial-condition component on a 4097-point grid.

    A component that is not finite there raises the :class:`DivergenceError`
    that :func:`compute_expansion` gives for it, at order 0; a NaN peak would
    pass every threshold test.
    """
    lo, hi = problem.domain
    with np.errstate(over="ignore", invalid="ignore"):
        g = problem.ic_numpy(np.linspace(lo, hi, 4097))
    for m, gm in enumerate(g):
        if not np.isfinite(gm).all():
            raise DivergenceError(order=0, component=m)
    return [float(np.abs(gm).max()) for gm in g]


def _exclusion(peaks: list[float]) -> float:
    return 0.1 * max(peaks)


def default_exclusion(problem: PdeProblem) -> float:
    """Default sampling threshold: a tenth of the largest initial amplitude."""
    return _exclusion(_ic_peaks(problem))


def sample_points(problem: PdeProblem, count: int, tau: float | None, seed: int) -> np.ndarray:
    """Draw points uniformly inside the domain, skipping small-amplitude regions.

    A draw is kept when every non-trivial component of the initial condition
    exceeds ``tau`` in magnitude there (with ``tau = 0`` the filter is off and
    this is a plain uniform sample; ``tau = None`` is
    :func:`default_exclusion`).  Draws are capped at ten times ``count``;
    a threshold leaving too little of the domain raises :class:`SamplingError`.
    Each round draws ``count`` points, the next values of
    ``numpy.random.default_rng(seed).uniform(lo, hi)`` bit for bit on every
    supported numpy, though ``numpy.random`` is never imported; past its
    first 64 a round's states are filled by jump-ahead in about
    ``log2(count / 64)`` array passes.
    """
    return _sample(problem, count, tau, seed)[0]


def _sample(problem: PdeProblem, count: int, tau: float | None, seed: int, count_name="count"):
    """:func:`sample_points` and the threshold it applied; a bad count is
    reported under its caller's name for it."""
    # numpy's own errors would not name the argument, and would take True as 1
    if _as_int(count) is None or count < 1:
        raise ValueError(f"{count_name} must be an integer >= 1, got {count!r}")
    if _as_int(seed) is None:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if tau is not None and not tau >= 0:  # also rejects NaN
        raise ValueError(f"exclusion threshold must be >= 0, got {tau}")
    peaks = _ic_peaks(problem)
    if tau is None:
        tau = _exclusion(peaks)
    gmax = max(peaks)
    if tau >= gmax:
        raise ValueError(
            f"exclusion threshold {tau} is not below the largest initial amplitude {gmax}"
        )
    lo, hi = problem.domain
    rng = _PCG64(seed)
    if tau == 0.0:
        return rng.uniform(lo, hi, size=count), tau
    active = [m for m, peak in enumerate(peaks) if peak > 1e-12]  # not identically zero
    kept: list[np.ndarray] = []
    total = 0
    n_kept = 0
    while n_kept < count and total < 10 * count:
        draw = rng.uniform(lo, hi, size=count)
        total += count
        with np.errstate(over="ignore", invalid="ignore"):
            g = problem.ic_numpy(draw)
        mask = np.ones(count, dtype=bool)
        for m in active:
            mask &= np.abs(g[m]) > tau
        kept.append(draw[mask])
        n_kept += int(mask.sum())
    if n_kept < count:
        raise SamplingError(
            f"only {n_kept} of {count} requested points admissible after {total} draws; "
            f"lower the exclusion threshold (currently {tau})"
        )
    return np.concatenate(kept)[:count], tau


# numpy's SeedSequence constants, for uint32 arithmetic, and PCG64's multiplier
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64, _MASK128 = (1 << 64) - 1, (1 << 128) - 1
# the states a draw steps one by one before it jumps; a power of two, as
# the jump is squared up from one step to the states filled
_STEPPED = 64
_LOW32, _32 = np.uint64(_MASK32), np.uint64(32)


def _affine128(lo, hi, mult, add, out_lo, out_hi):
    """Write ``(mult * s + add) mod 2**128`` to ``out_lo`` and ``out_hi`` for
    the 128-bit states ``s`` whose low and high words are ``lo`` and ``hi``.

    ``mult`` and ``add`` are Python ints below ``2**128``.  Every product and
    sum is of uint64 arrays and ``np.uint64`` operands, which wrap mod
    ``2**64`` without a warning or a float64 promotion on every numpy.  The
    high word is ``hi * mult_lo + lo * mult_hi + add_hi`` wrapped, plus two
    carries: the high word of the 128-bit product ``lo * mult_lo``, which a
    uint64 product drops and 32-bit limbs recover, and the carry of adding
    ``add_lo`` to the low word.
    """
    m_lo, a_lo = np.uint64(mult & _MASK64), np.uint64(add & _MASK64)
    m0, m1 = np.uint64(mult & _MASK32), np.uint64(mult >> 32 & _MASK32)
    s0, s1 = lo & _LOW32, lo >> _32
    # lo * m_lo = 2**64 s1*m1 + 2**32 (s1*m0 + s0*m1) + s0*m0, and t and w stay
    # below 2**64; the sums run in place, as fewer temporaries are faster
    t = s1 * m0
    t += s0 * m0 >> _32
    w = t & _LOW32
    w += s0 * m1
    np.multiply(hi, m_lo, out=out_hi)
    out_hi += lo * np.uint64(mult >> 64)
    out_hi += s1 * m1
    out_hi += t >> _32
    out_hi += w >> _32
    out_hi += np.uint64(add >> 64)
    np.multiply(lo, m_lo, out=out_lo)
    out_lo += a_lo
    out_hi += out_lo < a_lo


class _PCG64:
    """The draws of ``numpy.random.default_rng(seed).uniform``, without
    importing ``numpy.random``.

    ``SeedSequence(seed)`` hashes the seed's 32-bit words, least significant
    first, into a pool of four and expands the pool into four 64-bit words:
    the initial state and the increment of PCG64's 128-bit linear
    congruential generator.  A call steps its first 64 states in Python
    integers and jumps to the rest: ``n`` steps are one affine map
    ``s -> M**n * s + c_n mod 2**128`` (Brown, 1994), composed exactly in
    Python integers by squaring, and states ``[n, 2n)`` are states
    ``[0, n)`` mapped by it, so ``size`` states take about
    ``log2(size / 64)`` rounds of :func:`_affine128`, exact 128-bit
    arithmetic on uint64 arrays of low and high words with 32-bit limbs.
    Each draw reads its state's XSL-RR output, the xor of its two halves
    rotated right by its top six bits; ``>> 11`` and ``* 2**-53`` make that
    a double ``u`` in [0, 1), and the draw is ``lo + (hi - lo) * u``.
    """

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int):
        # a Python int: the bit arithmetic below would overflow an np.int64
        seed = int(seed)
        entropy = [seed & _MASK32]
        while seed := seed >> 32:
            entropy.append(seed & _MASK32)
        hash_const = _INIT_A

        def hashmix(value):
            nonlocal hash_const
            value ^= hash_const
            hash_const = hash_const * _MULT_A & _MASK32
            value = value * hash_const & _MASK32
            return value ^ value >> 16

        def mix(x, y):
            r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
            return r ^ r >> 16

        pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
        for i_src in range(4):
            for i_dst in range(4):
                if i_src != i_dst:
                    pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
        for word in entropy[4:]:
            for i_dst in range(4):
                pool[i_dst] = mix(pool[i_dst], hashmix(word))
        # generate_state(4, np.uint64): eight 32-bit words, paired low word first
        hash_const = _INIT_B
        words = []
        for i in range(8):
            value = pool[i % 4] ^ hash_const
            hash_const = hash_const * _MULT_B & _MASK32
            value = value * hash_const & _MASK32
            words.append(value ^ value >> 16)
        w = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
        # PCG64's srandom, with the state seed w[0]:w[1] and the stream w[2]:w[3]
        self._inc = ((w[2] << 64 | w[3]) << 1 | 1) & _MASK128
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, lo: float, hi: float, size: int) -> np.ndarray:
        """The next ``size`` draws, uniform between ``lo`` and ``hi``."""
        # allocated first, so that a size beyond memory raises before the loop
        out = np.empty(size)
        s, inc = self._state, self._inc
        n = min(size, _STEPPED)
        stepped = b"".join([(s := (s * _PCG_MULT + inc) & _MASK128).to_bytes(16, "little")
                            for _ in range(n)])
        low, high = words = np.empty((2, size), np.uint64)
        words[:, :n] = np.frombuffer(stepped, dtype="<u8").reshape(n, 2).T
        if n < size:
            # s -> mult * s + add advances `jump` states, squared up to the n
            # filled before each round, which doubles them
            mult, add, jump = _PCG_MULT, inc, 1
            while n < size:
                while jump < n:
                    mult, add, jump = mult * mult & _MASK128, (add * mult + add) & _MASK128, 2 * jump
                m = min(n, size - n)
                _affine128(low[:m], high[:m], mult, add, low[n:n + m], high[n:n + m])
                n += m
            s = int(high[-1]) << 64 | int(low[-1])
        self._state = s
        # the read-out runs in the state words: low becomes the xsl and high
        # the rotation, negated in place for the left shift
        low ^= high
        high >>= np.uint64(58)
        right = low >> high
        low <<= np.negative(high, out=high) & np.uint64(63)
        low |= right
        np.multiply(low >> np.uint64(11), 2.0**-53, out=out)
        out *= hi - lo
        out += lo
        return out


@dataclass(frozen=True)
class BenchReport:
    """Accuracy summary of one expansion run against the closed-form oracle.

    NRMSE lists are indexed ``[component][order]``; evaluation errors are
    ``[component][horizon]`` aligned with ``t1_values``.
    """

    problem: str
    max_order: int
    seed: int
    tau: float
    points: np.ndarray
    t1_values: tuple[float, ...]
    derivative_nrmse: tuple[tuple[float, ...], ...]
    coefficient_nrmse: tuple[tuple[float, ...], ...]
    taylor_nrmse: tuple[tuple[float, ...], ...]
    runtime_seconds: float


@np.errstate(over="ignore", invalid="ignore")
def run_benchmark(
    problem: PdeProblem,
    max_order: int = 10,
    num_points: int = 50,
    t1_values=(0.01, 0.05, 0.1),
    seed: int = 0,
    tau: float | None = None,
) -> BenchReport:
    """Expand at sampled points and score derivatives, coefficients and values.

    Requires a problem with closed-form solution and derivatives; one that
    overflows raises :class:`OracleFailure`.  An overflowing error scores inf.
    """
    if not problem.has_exact_oracle:
        raise NoExactOracleError(
            f"problem {problem.name!r} has no closed-form oracle to benchmark against"
        )
    start = time.perf_counter()
    x, tau = _sample(problem, num_points, tau, seed, "num_points")
    expansion = compute_expansion(problem, x, max_order)
    derivs = expansion.derivatives()

    d_rows, c_rows = [], []
    for m in range(problem.components):
        d_row, c_row = [], []
        for i in range(max_order + 1):
            try:
                truth = problem.exact_derivative(i, 0.0, x)[m]
            except OverflowError:  # a Python float raises; an array reads inf
                truth = np.inf
            if not np.isfinite(truth).all():
                raise OracleFailure(f"closed-form time derivative of order {i} overflows")
            d_row.append(nrmse(truth, derivs[m][i]))
            c_row.append(nrmse(truth / math.factorial(i), expansion.coeffs[m][i]))
        d_rows.append(tuple(d_row))
        c_rows.append(tuple(c_row))

    t_rows = [[] for _ in range(problem.components)]
    for t1 in t1_values:
        approx = expansion.evaluate(t1)
        truth = problem.exact(t1, x)
        for m in range(problem.components):
            t_rows[m].append(nrmse(truth[m], approx[m]))

    return BenchReport(
        problem=problem.name,
        max_order=max_order,
        seed=seed,
        tau=float(tau),
        points=x,
        t1_values=tuple(float(t) for t in t1_values),
        derivative_nrmse=tuple(d_rows),
        coefficient_nrmse=tuple(c_rows),
        taylor_nrmse=tuple(tuple(r) for r in t_rows),
        runtime_seconds=time.perf_counter() - start,
    )


def check_thresholds(report: BenchReport) -> list[str]:
    """Compare a report against the published accuracy bounds (component 0).

    Returns a list of human-readable failures; empty means every bound holds.
    Bounds are only applied where they are defined: the diffusion
    derivative-degradation window needs order 10 in the run, and evaluation
    bounds apply to whichever of the standard horizons were requested.
    """
    failures: list[str] = []
    t1_bounds = TABLE2_BOUNDS.get(report.problem, {})
    bounds = TABLE1_BOUNDS.get(report.problem, {})
    deriv = report.derivative_nrmse[0]
    k = report.max_order
    # each per-order cap: its bound, the orders it holds at, the row it reads
    # and that row's name in a message; a cap the problem lacks is infinite
    caps = [
        ("derivative_max", range(1, k + 1), deriv, "derivative"),
        ("even_derivative_max", range(0, k + 1, 2), deriv, "derivative"),
        ("coefficient_max", range(k + 1), report.coefficient_nrmse[0], "coefficient"),
    ]
    for key, orders, row, label in caps:
        cap = bounds.get(key, math.inf)
        for i in orders:
            if row[i] > cap:
                failures.append(
                    f"{report.problem} {label} order {i}: nrmse {row[i]:.3e} exceeds {cap:.0e}"
                )
    if bounds.get("odd_derivative_exact_zero"):
        for i in range(1, k + 1, 2):
            if deriv[i] != 0.0:
                failures.append(
                    f"{report.problem} derivative order {i}: nrmse {deriv[i]:.3e}, expected exactly 0"
                )
    if "derivative_order10_range" in bounds and k >= 10:
        lo, hi = bounds["derivative_order10_range"]
        if not (lo <= deriv[10] <= hi):
            failures.append(
                f"{report.problem} derivative order 10: nrmse {deriv[10]:.3e} "
                f"outside the degradation window [{lo:.0e}, {hi:.0e}]"
            )
    for j, t1 in enumerate(report.t1_values):
        cap = next((v for horizon, v in t1_bounds.items() if abs(horizon - t1) <= 1e-12), None)
        if cap is not None and report.taylor_nrmse[0][j] > cap:
            failures.append(
                f"{report.problem} evaluation at t1={t1:g}: nrmse "
                f"{report.taylor_nrmse[0][j]:.3e} exceeds {cap:.0e}"
            )
    return failures


def write_report_csv(report: BenchReport, path) -> None:
    """Long-format CSV: metric,component,key,value with full float precision."""
    lines = ["metric,component,key,value"]
    for m in range(len(report.derivative_nrmse)):
        for i, v in enumerate(report.derivative_nrmse[m]):
            lines.append(f"derivative_nrmse,{m},{i},{v:.17g}")
        for i, v in enumerate(report.coefficient_nrmse[m]):
            lines.append(f"coefficient_nrmse,{m},{i},{v:.17g}")
        for t1, v in zip(report.t1_values, report.taylor_nrmse[m]):
            lines.append(f"taylor_nrmse,{m},{t1:.17g},{v:.17g}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _table_lines(header: list[str], rows: list[list[str]]) -> list[str]:
    """The header and the rows, each column right-justified to the width of
    its header, and at least 12, with two spaces between columns."""
    widths = [max(len(t), 12) for t in header]
    return ["  ".join(t.rjust(w) for t, w in zip(cells, widths)) for cells in [header, *rows]]


def format_report_table(report: BenchReport) -> str:
    """Aligned text table: orders as rows, one NRMSE column pair per component."""
    m = len(report.derivative_nrmse)
    suffixes = [f"[{c}]" if m > 1 else "" for c in range(m)]
    lines = [
        f"problem: {report.problem}  (max order {report.max_order}, "
        f"{report.points.size} points, seed {report.seed}, tau {report.tau:.6g})"
    ]
    header = ["order"]
    for suffix in suffixes:
        header += [f"derivative{suffix}", f"coefficient{suffix}"]
    rows = []
    for i in range(report.max_order + 1):
        cells = [str(i)]
        for c in range(m):
            cells += [f"{report.derivative_nrmse[c][i]:.3e}",
                      f"{report.coefficient_nrmse[c][i]:.3e}"]
        rows.append(cells)
    lines += _table_lines(header, rows)
    if report.t1_values:
        header = ["t1"] + [f"evaluation{suffix}" for suffix in suffixes]
        rows = [[f"{t1:g}"] + [f"{report.taylor_nrmse[c][j]:.3e}" for c in range(m)]
                for j, t1 in enumerate(report.t1_values)]
        lines += [""] + _table_lines(header, rows)
    return "\n".join(lines)


# -- method-of-lines reference solver ------------------------------------


def reference_solve(problem: PdeProblem, points, t1: float) -> list[np.ndarray]:
    """Short-horizon reference solution interpolated onto ``points``.

    Fourth-order centred differences on 2048 grid intervals (periodic
    wrap-around or odd reflection through zero-valued Dirichlet endpoints),
    classical fourth-order Runge-Kutta stepping with a step of at most 1e-6,
    lowered further whenever the explicit stability bound demands it, and
    six-point Lagrange interpolation back onto the query points, whose
    nodes past an end are the ghost cells of the stencils.  ``t1`` must lie
    in [0, 0.1], and the points must be at least one, each real and inside
    the closed domain: past it the interpolant would extrapolate.
    ``rhs_numpy`` receives ``U_x`` and ``U_xx`` as read-only sequences whose
    rows are correlated and scaled the first time it reads them, at most
    once per stage; the rows it returns are copied into the stage slope.
    The two sequences of each buffer (state and stage argument) are built
    once per solve and cleared at every stage, and ``U`` is a fresh list of
    row views of that buffer, so a row that ``rhs_numpy`` rebinds does not
    reach a later stage.  The grid it receives is the same at every stage,
    and read-only, so that no equation changes it between stages.
    ``ic_numpy`` and ``rhs_numpy`` must each return ``problem.components``
    rows, or this raises ``ValueError``.

    It solves the problem as posed on its domain, with periodic or Dirichlet
    ends, while the series solves the whole-line problem with the same data.
    The two are the same problem only where periodic data are C¹ across the
    seam: schrodinger's are not at ±5, nor allen_cahn's at ±1, so there the
    reference and the series part at t > 0.

    On schrodinger the solve vouches for values only to about 1e-6 at
    t1 = 0.01.  Its initial data ``2 sech(x)`` are not C¹ across the periodic
    seam at ±5, and the dispersive equation carries that kink's grid-scale
    waves inside ``|x| < 3`` within the horizon: there the sixth difference
    of the solution on the grid reads 1.2e-4 (1.7e-12 at t = 0), and a
    periodic cubic spline through the grid values and the six-point read-out
    differ by 3.4e-7 on the 41 ``sample_points`` of seed 0, against 6.2e-12
    at t = 0.
    """
    x_query = _real_points(points, "reference query points").ravel()
    if not 0.0 <= t1 <= 0.1:
        raise ValueError("reference solver horizon is limited to 0 <= t1 <= 0.1")
    lo, hi = problem.domain
    # a NaN fails both comparisons
    if x_query.size == 0 or not np.all((x_query >= lo) & (x_query <= hi)):
        raise ValueError(f"reference query points must be non-empty and inside [{lo}, {hi}]")
    periodic = problem.boundary == "periodic"
    h = (hi - lo) / _CELLS
    if periodic:
        grid = lo + h * np.arange(_CELLS)
    else:
        grid = np.linspace(lo, hi, _CELLS + 1)

    g = problem.ic_numpy(grid)
    m = problem.components
    if len(g) != m:
        raise ValueError(f"ic_numpy returned {len(g)} components, expected {m}")
    state = np.stack(g)
    if t1 == 0.0:
        return _interpolate(state, x_query, lo, h, periodic)

    dt = _stable_step(problem, h)
    n_steps = max(1, math.ceil(t1 / dt))
    dt = t1 / n_steps

    # The state and the Runge-Kutta stage argument each live inside an array
    # with two ghost cells per end.  Everything a stage reuses is bound once
    # per buffer: the rows handed to ``rhs_numpy``, the ghost cells and the
    # interior cells they are filled from, and one :class:`_StencilRows` per
    # stencil, whose rows are computed the first time ``rhs_numpy`` reads
    # them, so a problem that reads no ``u_x`` pays for none.
    padded = np.empty((m, state.shape[1] + 4))
    padded[:, 2:-2] = state
    state = padded[:, 2:-2]
    stage_padded = np.empty_like(padded)
    stage = stage_padded[:, 2:-2]
    k1, k2, k3, k4 = (np.empty_like(state) for _ in range(4))
    first = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
    second = np.array([-1.0, 16.0, -30.0, 16.0, -1.0])
    first_scale, second_scale = 1 / (12 * h), 1 / (12 * h * h)
    last = state.shape[1] - 1
    # read-only, so that no equation changes the grid between stages
    grid.flags.writeable = False

    def bind(ue):
        # each row's ghost cells and the interior cells they are filled from,
        # by a periodic wrap or an odd reflection through the zero-valued
        # Dirichlet endpoints; as one-row views, since numpy negates two
        # elements of one in about 0.4 us and of an (m, 2) view in about 1.3
        ghosts = []
        for row in ue:
            s = row[2:-2]
            if periodic:
                ghosts += [(row[:2], s[-2:]), (row[-2:], s[:2])]
            else:
                ghosts += [(row[:2], s[2:0:-1]), (row[-2:], s[-2:-4:-1])]
        return (list(ue[:, 2:-2]), ghosts,
                _StencilRows(ue, first, first_scale), _StencilRows(ue, second, second_scale))

    state_views, stage_views = bind(padded), bind(stage_padded)

    def deriv(t, views, out):
        # the right-hand side at the buffer's argument, written into ``out``
        rows, ghosts, ux, uxx = views
        for dst, src in ghosts:
            if periodic:
                dst[...] = src
            else:
                np.negative(src, out=dst)
        ux.clear()
        uxx.clear()
        # a copy of the list, so that one that rebinds a row leaves the next
        # stage's rows as they are
        f = problem.rhs_numpy(rows.copy(), ux, uxx, t, grid)
        if len(f) != m:
            raise ValueError(f"rhs_numpy returned {len(f)} components, expected {m}")
        # a copy: a row may be one of the arguments, a view of the stage
        for c, row in enumerate(f):
            out[c] = row
        if not periodic:
            out[:, ::last] = 0.0

    t = 0.0
    for step in range(n_steps):
        deriv(t, state_views, k1)
        np.multiply(k1, dt / 2, out=stage)
        stage += state
        deriv(t + dt / 2, stage_views, k2)
        np.multiply(k2, dt / 2, out=stage)
        stage += state
        deriv(t + dt / 2, stage_views, k3)
        np.multiply(k3, dt, out=stage)
        stage += state
        deriv(t + dt, stage_views, k4)
        # state + (dt/6) * (k1 + 2*(k2 + k3) + k4)
        k2 += k3
        k2 *= 2
        k2 += k1
        k2 += k4
        k2 *= dt / 6
        state += k2
        t += dt
        if step % 1000 == 999 and not np.isfinite(state).all():
            raise OracleFailure(f"reference solve went non-finite near t={t:.3e}")
    if not np.isfinite(state).all():
        raise OracleFailure("reference solve finished with non-finite values")
    return _interpolate(state, x_query, lo, h, periodic)


class _StencilRows(Sequence):
    """One finite-difference stencil of each row of a padded stage argument,
    as a read-only sequence of rows.

    Row ``c`` is one ``np.correlate`` of padded row ``c`` with the integer
    fourth-order weights, scaled in place after the sum, computed the first
    time it is read and kept until :meth:`clear`.  The reference solver
    binds one per stencil and buffer once per solve and clears it at every
    stage, before ``rhs_numpy`` reads it.  The integer weights sum to
    exactly zero, so a constant row has no derivative; weights prescaled by
    1/(12 h^2) round to values that do not, and that bias, added at every
    step, took the heat closed-form error at t1 = 0.01 from 1e-14 to 2e-12.
    """

    __slots__ = ("_padded", "_weights", "_scale", "_rows")

    def __init__(self, padded: np.ndarray, weights: np.ndarray, scale: float):
        self._padded, self._weights, self._scale = padded, weights, scale
        self._rows = [None] * len(padded)

    def clear(self):
        """Forget every computed row, for a new argument in the same buffer."""
        self._rows = [None] * len(self._rows)

    def __len__(self):
        return len(self._rows)

    def __getitem__(self, c):
        if isinstance(c, slice):
            return [self[i] for i in range(*c.indices(len(self._rows)))]
        row = self._rows[c]
        if row is None:
            row = np.correlate(self._padded[c], self._weights, "valid")
            row *= self._scale
            self._rows[c] = row
        return row


def _stable_step(problem: PdeProblem, h: float) -> float:
    """Explicit RK4 stability bound for the stiffest advertised terms."""
    dt = _DT_MAX
    if problem.diffusivity > 0:
        # fourth-order second-difference spectral radius is 16/(3 h^2)
        dt = min(dt, 2.5 * 3 * h * h / (16 * problem.diffusivity))
    if problem.advection_speed > 0:
        dt = min(dt, h / problem.advection_speed)
    return dt


def _interpolate(state, x_query, lo, h, periodic):
    """Each row of ``state`` on the solver's grid, read at ``x_query`` by the
    degree-5 Lagrange polynomial through the six nodes around each point's
    cell, at offsets -2..+3; ``x == hi`` reads the last cell.  Past an end
    the nodes are the solver's own ghost cells: a periodic wrap, or an odd
    reflection through the zero-valued Dirichlet ends.
    """
    if periodic:
        padded = np.concatenate([state[:, -2:], state, state[:, :3]], axis=1)
    else:
        padded = np.concatenate([-state[:, 2:0:-1], state, -state[:, -2:-4:-1]], axis=1)
    r = (x_query - lo) / h
    cell = np.minimum(np.floor(r).astype(np.intp), _CELLS - 1)
    s = r - cell
    nodes = range(-2, 4)
    weights = np.array([np.prod([(s - k) / (j - k) for k in nodes if k != j], axis=0)
                        for j in nodes])
    # padded column n + 2 holds grid node n
    values = padded[:, cell + np.arange(6)[:, None]]
    return list((values * weights).sum(axis=1))
