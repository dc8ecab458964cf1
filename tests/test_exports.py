import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import pbw

MODULES = [f"pbw.{m.name}" for m in pkgutil.iter_modules(pbw.__path__)]
# the layers whose `__all__` the package namespace holds, loaded on first use
LAYERS = ["coxeter", "holonomy", "normalizer", "presentation", "tensor"]
HOMES = {name: layer for layer in LAYERS for name in importlib.import_module(f"pbw.{layer}").__all__}
F42 = Path(__file__).resolve().parent / "fixtures" / "f42.lie"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # perfbench wraps exactly the functions named in __all__, so a stale
    # entry would silently drop a layer from its trace
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)


def test_the_runtime_imports_only_the_standard_library():
    # -I -S: no site hooks (such as setuptools' _distutils_hack), no user paths;
    # -B: -I ignores PYTHONDONTWRITEBYTECODE, and bytecode left in src/pbw
    # would cut the start-up time a later benchmark run measures, `import
    # pbw` and six table parses, from 7.8 to 4.0 ms (medians of 25 runs)
    src = Path(pbw.__file__).resolve().parent.parent
    code = ("import importlib, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "for name in sys.argv[2:]:\n"
            "    importlib.import_module(name)\n"
            "print(*sorted({m.partition('.')[0] for m in sys.modules}))\n")
    proc = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", code, str(src), "pbw", *MODULES],
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = proc.stdout.split()
    assert "pbw" in loaded
    assert [m for m in loaded
            if m not in sys.stdlib_module_names and m not in ("pbw", "__main__")] == []


@pytest.mark.parametrize("name", ["pbw", "pbw.cli"])
def test_import_loads_neither_dataclasses_nor_inspect(name):
    # every pbw command pays for its imports at start-up, and dataclasses
    # alone brings in inspect, ast, dis and tokenize; the child lists which
    # of the two are loaded before and after importing the package
    src = Path(pbw.__file__).resolve().parent.parent
    code = ("import sys\n"
            "heavy = ('dataclasses', 'inspect')\n"
            "print([m for m in heavy if m in sys.modules])\n"
            f"import {name}\n"
            "print([m for m in heavy if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stdout.splitlines() == ["[]", "[]"]


def run_fresh(code):
    """The JSON lines that a fresh interpreter prints after `import pbw` and
    `code`; the last is the sorted list of pbw modules it loaded."""
    src = Path(pbw.__file__).resolve().parent.parent
    script = ("import json, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              f"import pbw\n{code}\n"
              "print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'pbw')))\n")
    proc = subprocess.run([sys.executable, "-B", "-I", "-S", "-c", script, str(src)],
                          capture_output=True, text=True, check=True, timeout=60)
    return [json.loads(line) for line in proc.stdout.splitlines()]


@pytest.mark.parametrize("code, loaded", [
    ("", []),
    (f"pbw.parse_presentation(open({str(F42)!r}).read())", ["presentation"]),
    ("pbw.GeneratorWord", ["coxeter"]),
    ("pbw.normalize", ["normalizer", "presentation", "tensor"]),
    ("assert pbw.coxeter is sys.modules['pbw.coxeter']", ["coxeter"]),
    ("assert pbw.holonomy is sys.modules['pbw.holonomy']", LAYERS),
    ("assert pbw.normalizer is sys.modules['pbw.normalizer']", ["normalizer", "presentation", "tensor"]),
    ("assert pbw.presentation is sys.modules['pbw.presentation']", ["presentation"]),
    ("assert pbw.tensor is sys.modules['pbw.tensor']", ["presentation", "tensor"]),
], ids=["import", "parse", "GeneratorWord", "normalize", *LAYERS])
def test_a_layer_loads_on_first_use_with_its_own_imports_only(code, loaded):
    # setup_s times `import pbw` and six parses without bytecode, so a parse
    # must compile only the presentation layer
    assert run_fresh(code) == [["pbw", *(f"pbw.{layer}" for layer in loaded)]]


def test_the_package_namespace_is_the_layers_names():
    # a fresh interpreter, so the star import is the first to bind the layers
    names, listed, loaded = run_fresh(
        "ns = {}\nexec('from pbw import *', ns)\n"
        "assert all(ns[n] is sys.modules.get('pbw.' + n, ns[n]) for n in ns)\n"
        "print(json.dumps(sorted(ns.keys() - {'__builtins__'})))\nprint(json.dumps(dir(pbw)))")
    assert len(HOMES) == 32
    assert names == sorted([*HOMES, *LAYERS])
    assert set(names) <= set(listed)
    assert loaded == sorted(["pbw", *(f"pbw.{layer}" for layer in LAYERS)])
    assert pbw._HOME == HOMES
    assert [n for n, layer in HOMES.items()
            if getattr(pbw, n) is not getattr(importlib.import_module(f"pbw.{layer}"), n)] == []
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        pbw.nope
