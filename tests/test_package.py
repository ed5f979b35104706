"""Public surface: every exported name resolves, and a star import works."""

import focsim as fs


def test_every_exported_name_resolves_and_star_imports():
    assert len(fs.__all__) == len(set(fs.__all__))
    assert [name for name in fs.__all__ if not hasattr(fs, name)] == []
    namespace: dict = {}
    exec("from focsim import *", namespace)
    assert set(fs.__all__) <= set(namespace)
