"""The package's public names."""

import types

import dpbayes


def test_star_import_binds_public_names_and_no_module():
    namespace: dict = {}
    exec("from dpbayes import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(set(dpbayes.__all__))
    assert len(set(dpbayes.__all__)) == len(dpbayes.__all__)
    assert all(hasattr(dpbayes, name) for name in dpbayes.__all__)
    modules = [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]
    assert modules == []
