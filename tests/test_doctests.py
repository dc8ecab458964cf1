import doctest
import importlib
import pkgutil

import pbw


def test_module_examples_pass():
    names = ["pbw"] + [f"pbw.{m.name}" for m in pkgutil.iter_modules(pbw.__path__)]
    results = {name: doctest.testmod(importlib.import_module(name)) for name in names}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert results["pbw.coxeter"].attempted >= 3
