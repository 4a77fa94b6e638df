"""The package's export list names only what the package defines."""

import pdetaylor


def test_every_exported_name_exists_and_star_import_succeeds():
    missing = [name for name in pdetaylor.__all__ if not hasattr(pdetaylor, name)]
    assert missing == []
    namespace = {}
    exec("from pdetaylor import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(pdetaylor.__all__)
