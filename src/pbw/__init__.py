"""Exact straightening to canonical form in enveloping algebras, holonomy
checks over the symmetric group's Cayley graph, and the associated
spherical chamber geometry.  Each layer loads on first use (PEP 562):
`pbw.X` imports only the layer whose `__all__` names X."""

import importlib

__version__ = "0.1.0"
_LAYERS = {"coxeter": "BRAID CANCEL COMMUTE CellType GeneratorWord Move MoveError codim2_census"
           " codim2_census_by_cosets contract_loop evaluate is_identity_loop random_identity_loop replay",
           "normalizer": "SearchBudgetExceeded Strategy descents normalize normalize_all_ways"
           " swap_reduce_at transport", "holonomy": "hexagon_defect transport_loop",
           "presentation": "LieFormatError LiePresentation check_jacobi jacobi_defect parse_presentation"
           " parse_terms serialize_presentation", "tensor": "TensorElement monomial"}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names.split()}
__all__ = [*_HOME, *_LAYERS]
__dir__ = lambda: sorted({*globals(), *__all__})  # noqa: E731


def __getattr__(name):  # not cached, so pbw.X is always its layer's current X
    if name not in _HOME and name not in _LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    layer = importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    return getattr(layer, name) if name in _HOME else layer
