"""The package's export list."""

import genage


def test_every_exported_name_resolves_and_appears_once():
    names = genage.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(genage, name)] == []
    namespace = {}
    exec("from genage import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == sorted(names)
