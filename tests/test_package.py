"""Each module's export list names only what that module defines, the
package exports their union, and the public calls that the benchmark's layer
probes make keep working."""

import ast
import inspect

import numpy as np
import pytest

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


MODULES = [pdetaylor.bench, pdetaylor.driver, pdetaylor.jets, pdetaylor.problems, pdetaylor.series]


def _assigned_names(module):
    """Names bound by a top-level assignment in the module's own source."""
    tree = ast.parse(inspect.getsource(module))
    return {
        target.id
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_exports_only_names_it_defines(module):
    names = module.__all__
    assert len(names) == len(set(names))
    assigned = _assigned_names(module)
    for name in names:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, name
        else:
            assert name in assigned, name


def test_package_exports_the_union_of_the_module_lists():
    lists = [set(module.__all__) for module in MODULES]
    union = set().union(*lists)
    assert sum(map(len, lists)) == len(union)
    assert set(pdetaylor.__all__) == union
    assert len(pdetaylor.__all__) == 38
    # the names perfbench/probes.py looks up on the package
    probed = {
        "BatchAlgebra", "JetAlgebra", "TruncatedSeries", "exp", "seed_variable", "sin_cos",
        "compute_expansion", "default_exclusion", "get_problem", "nrmse", "sample_points",
    }
    assert probed <= union
