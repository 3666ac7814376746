"""The package namespace: one flat export of every module's public names."""

import importlib

import etaquad

MODULES = ("expr", "simpson", "invex", "identity", "bounds", "quadrature", "harness")


def test_every_module_name_is_exported_once():
    names = ["__version__"]
    for name in MODULES:
        module = importlib.import_module(f"etaquad.{name}")
        for attr in module.__all__:
            assert getattr(etaquad, attr) is getattr(module, attr), attr
        names += module.__all__
    assert etaquad.__all__ == names
    assert len(set(etaquad.__all__)) == len(etaquad.__all__)
