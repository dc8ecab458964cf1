import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_the_runtime_imports_only_the_standard_library():
    # -I -S: no site hooks (such as setuptools' _distutils_hack), no user paths
    src = Path(pbw.__file__).resolve().parent.parent
    code = ("import importlib, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "for name in sys.argv[2:]:\n"
            "    importlib.import_module(name)\n"
            "print(*sorted({m.partition('.')[0] for m in sys.modules}))\n")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(src), "pbw", *MODULES],
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = proc.stdout.split()
    assert "pbw" in loaded
    assert [m for m in loaded
            if m not in sys.stdlib_module_names and m not in ("pbw", "__main__")] == []
