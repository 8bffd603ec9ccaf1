import importlib
import pkgutil
import types

import pytest

import snwell

MODULES = sorted(m.name for m in pkgutil.iter_modules(snwell.__path__, prefix="snwell."))


@pytest.mark.parametrize("name", ["snwell", *MODULES])
def test_every_exported_name_resolves(name):
    # the traced benchmark run getattr()s every name in each layer's __all__
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_package_exports_what_it_imports():
    bound = {
        n for n, v in vars(snwell).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert sorted(bound) == sorted(snwell.__all__)
