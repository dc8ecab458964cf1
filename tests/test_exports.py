import importlib
import pkgutil

import pytest

import pbw

MODULES = [f"pbw.{m.name}" for m in pkgutil.iter_modules(pbw.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # perfbench wraps exactly the functions named in __all__, so a stale
    # entry would silently drop a layer from its trace
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
