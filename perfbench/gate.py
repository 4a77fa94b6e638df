"""Correctness gate: each function returns the failures of one call, empty when it passed.

Tolerances are fixed here, before any run:

* closed-form problems: every coefficient order of every component meets the
  published ``coefficient_max`` bound (1e-12 NRMSE) against the exact
  ``d^i U/dt^i / i!``;
* a ``K = 10`` run is a bit-identical prefix of the ``K = 20`` run on the same
  points (the driver's triangularity invariant);
* problems without a closed form match coefficients recorded at the seed
  commit on a fixed subsample of points, to ``COEFF_RTOL`` times the largest
  recorded magnitude of that order and component;
* ``reference_solve`` agrees with the ``K = 7`` series at the workload's ``t1`` to
  ``REFERENCE_ATOL`` (at points clear of a periodic seam, see ``workloads``);
* CLI runs exit 0, write the same bytes on every pass, and their numbers match
  the seed commit's outputs to ``CLI_RTOL * |seed value| + CLI_ATOL``.
"""

from __future__ import annotations

import json
import math

import numpy as np
from pdetaylor import nrmse

COEFF_RTOL = 1e-9
REFERENCE_ATOL = 1e-5
CLI_RTOL = 1e-9
CLI_ATOL = 1e-12


def closed_form_failures(problem, x, coeffs, cap: float) -> list[str]:
    for m, comp in enumerate(coeffs):
        for i, c in enumerate(comp):
            exact = problem.exact_derivative(i, 0.0, x)[m] / math.factorial(i)
            err = nrmse(exact, c)
            if not err <= cap:
                return [f"coefficient nrmse {err:.3e} exceeds {cap:.0e} (component {m}, order {i})"]
    return []


def prefix_failures(short, long) -> list[str]:
    for m, (a, b) in enumerate(zip(short, long)):
        for i, c in enumerate(a):
            if i >= len(b) or not np.array_equal(c, b[i]):
                return [f"order {i} of component {m} differs from the longer expansion"]
    return []


def recorded_failures(coeffs, positions, recorded) -> list[str]:
    """Compare coeffs[m][i][positions] with recorded[m][i] (orders present in both)."""
    for m, comp in enumerate(recorded):
        for i, want in enumerate(comp):
            if i >= len(coeffs[m]):
                break
            want = np.asarray(want)
            got = np.asarray(coeffs[m][i])[positions]
            tol = COEFF_RTOL * float(np.abs(want).max())
            err = np.abs(got - want)
            if not bool(np.all(err <= tol)):
                return [
                    f"component {m} order {i}: deviation {float(np.max(err)):.3e} "
                    f"from the recorded values exceeds {tol:.3e}"
                ]
    return []


def finite_failures(coeffs) -> list[str]:
    for m, comp in enumerate(coeffs):
        for i, c in enumerate(comp):
            if not np.isfinite(c).all():
                return [f"non-finite coefficient at component {m}, order {i}"]
    return []


def reference_failures(reference, series) -> list[str]:
    for m, (r, s) in enumerate(zip(reference, series)):
        err = np.abs(np.asarray(r) - np.asarray(s))
        if not bool(np.all(err <= REFERENCE_ATOL)):
            return [
                f"component {m}: reference differs from the K=7 series by up to "
                f"{float(np.max(err)):.3e} (limit {REFERENCE_ATOL:.0e})"
            ]
    return []


def cli_failures(returncode: int, files: dict, first: dict | None, seed: dict) -> list[str]:
    """``files``/``first``/``seed`` map output file names to their bytes."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    failures = []
    if first is not None and files != first:
        changed = sorted(set(files) ^ set(first) | {k for k in files if first.get(k) != files[k]})
        failures.append(f"output bytes differ from the first pass: {', '.join(changed)}")
    if sorted(files) != sorted(seed):
        failures.append(f"output files {sorted(files)} differ from the seed outputs {sorted(seed)}")
        return failures
    for name in sorted(files):
        failures += [f"{name}: {msg}" for msg in _value_failures(files[name], seed[name], name)]
    return failures


def parse_output(data: bytes, name: str) -> tuple[list[str], np.ndarray]:
    """Split a CLI output file into its text tokens and its numbers, in file order."""
    if name.endswith(".json"):
        items = []
        _walk(json.loads(data.decode("utf-8")), items)
    else:
        items = [tok for line in data.decode("utf-8").splitlines() for tok in line.split(",")]
    words, numbers = [], []
    for tok in items:
        try:
            numbers.append(float(tok))
        except (TypeError, ValueError):
            words.append(str(tok))
    return words, np.asarray(numbers, dtype=np.float64)


def _walk(obj, out: list) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.append(k)
            _walk(v, out)
    elif isinstance(obj, list):
        for v in obj:
            _walk(v, out)
    else:
        out.append(obj)


def _value_failures(data: bytes, seed_data: bytes, name: str) -> list[str]:
    words, got = parse_output(data, name)
    seed_words, want = parse_output(seed_data, name)
    if words != seed_words or got.shape != want.shape:
        return ["layout differs from the seed output"]
    err = np.abs(got - want)
    tol = CLI_RTOL * np.abs(want) + CLI_ATOL
    if not bool(np.all(err <= tol)):
        k = int(np.argmax(np.where(np.isfinite(err), err - tol, np.inf)))
        return [f"value {k} is {got[k]!r}, seed output has {want[k]!r}"]
    return []
