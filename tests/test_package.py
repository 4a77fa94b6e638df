"""The package's export list names only what the package defines, and the
public calls that the benchmark's layer probes make keep working."""

import numpy as np

import pdetaylor


def test_every_exported_name_exists_and_star_import_succeeds():
    missing = [name for name in pdetaylor.__all__ if not hasattr(pdetaylor, name)]
    assert missing == []
    namespace = {}
    exec("from pdetaylor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pdetaylor.__all__)


def test_layer_probe_calls_run_on_a_few_points():
    # perfbench/probes.py looks these names up on the package and times these
    # calls; a missing name drops the probe's metrics from the run
    x = np.array([-0.5, 0.1, 0.7])
    a, b = pdetaylor.sin_cos(pdetaylor.seed_variable(x, 6))
    np.testing.assert_allclose((a * b).coeffs[0], np.sin(x) * np.cos(x), rtol=1e-15)

    alg = pdetaylor.JetAlgebra(pdetaylor.BatchAlgebra(x.size), 6)
    u = pdetaylor.TruncatedSeries(alg, [a * (1.0 / (k + 1)) for k in range(4)])
    v = pdetaylor.TruncatedSeries(alg, [b * (1.0 / (k + 2)) for k in range(4)])
    assert (u * v).order == 3
    e = pdetaylor.exp(u)
    # the constant term of a series of jets is lifted as a jet again
    want = pdetaylor.exp(u.coeffs[0]).coeffs
    np.testing.assert_array_equal(e.coeffs[0].coeffs.view(np.uint64), want.view(np.uint64))
