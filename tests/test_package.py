"""Each module's export list names only what that module defines, the
package exports their union, the public calls that the benchmark's layer
probes make keep working, and every cross-reference in a docstring names
something that still exists."""

import ast
import builtins
import importlib
import inspect
import re
from pathlib import Path

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


# a Sphinx cross-reference, :role:`target` or :role:`~target`
ROLE = re.compile(r":(?:func|meth|class|data|exc|mod):`~?([\w.]+)`")


def _docstrings(node, cls=None):
    """Each docstring of a module's syntax tree, with the name of the class it
    sits in, or None: the module's, every class's and every function's."""
    doc = ast.get_docstring(node, clean=False)
    if doc:
        yield doc, cls
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from _docstrings(child, child.name)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _docstrings(child, cls)


def _resolve(target, module, cls):
    """What ``target`` names as seen from a docstring of ``module`` inside the
    class ``cls``: a dotted path from the package, or a name of the class, the
    module or the builtins and then its attributes; None when nothing is."""
    parts = target.split(".")
    if parts[0] == "pdetaylor":
        scopes, parts = [pdetaylor], parts[1:]
    else:
        scopes = [getattr(module, cls)] if cls else []
        scopes += [module, builtins]
    for obj in scopes:
        try:
            for part in parts:
                obj = getattr(obj, part)
        except AttributeError:
            continue
        home = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", None)
        if home is None or home == "builtins" or home.split(".")[0] == "pdetaylor":
            return obj
    return None


def test_every_docstring_cross_reference_names_something_in_src_or_builtins():
    # a deleted function, method or class must take its references with it
    refs, stale = 0, []
    for path in sorted(Path(pdetaylor.__file__).parent.glob("*.py")):
        name = "pdetaylor" if path.stem == "__init__" else f"pdetaylor.{path.stem}"
        module = importlib.import_module(name)
        for doc, cls in _docstrings(ast.parse(path.read_text())):
            for target in ROLE.findall(doc):
                refs += 1
                if _resolve(target, module, cls) is None:
                    stale.append(f"{path.name}: {target}")
    assert refs > 0
    assert stale == []
