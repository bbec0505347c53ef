import importlib
import pkgutil

import pytest

import pinchlab

MODULES = [pinchlab] + [
    importlib.import_module(f"pinchlab.{info.name}")
    for info in pkgutil.iter_modules(pinchlab.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_exported_names_resolve_once(module):
    names = getattr(module, "__all__", ())
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []
