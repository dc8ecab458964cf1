"""Exact straightening to canonical form in enveloping algebras, holonomy
checks over the symmetric group's Cayley graph, and the associated
spherical chamber geometry."""

from .coxeter import (BRAID, CANCEL, COMMUTE, CellType, GeneratorWord, Move,
                      MoveError, Permutation, classify_pair, codim2_census,
                      codim2_census_by_cosets, contract_loop, evaluate,
                      hexagon_loop, is_identity_loop, random_identity_loop,
                      replay, square_loop)
from .errors import SearchBudgetExceeded
from .holonomy import hexagon_defect, transport, transport_loop
from .normalizer import (Strategy, descents, normalize, normalize_all_ways,
                         swap_reduce_at)
from .presentation import (LieFormatError, LiePresentation, Vector, bracket,
                           check_jacobi, jacobi_defect, parse_presentation,
                           parse_terms, serialize_presentation)
from .tensor import TensorElement, Word, add, monomial, scale

__version__ = "0.1.0"
