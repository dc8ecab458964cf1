"""Exact straightening to canonical form in enveloping algebras, holonomy
checks over the symmetric group's Cayley graph, and the associated
spherical chamber geometry."""

from .coxeter import (BRAID, CANCEL, COMMUTE, CellType, GeneratorWord, Move,
                      MoveError, Permutation, apply_move, classify_pair,
                      codim2_census, codim2_census_by_cosets, contract_loop,
                      evaluate, hexagon_loop, is_identity_loop,
                      loop_from_arrangements, random_identity_loop, replay,
                      sample_excursion_s4, square_loop)
from .errors import SearchBudgetExceeded
from .holonomy import (TransportState, hexagon_defect, transport_loop,
                       transport_step)
from .normalizer import (Strategy, descents, inversions, is_canonical,
                         normalize, normalize_all_ways, swap_reduce_at)
from .presentation import (LieFormatError, LiePresentation, Vector, bracket,
                           check_jacobi, jacobi_defect, parse_presentation,
                           parse_terms, serialize_presentation)
from .tensor import (TensorElement, Word, add, bracket_in_context, from_vector,
                     monomial, scale, unit, zero)

__version__ = "0.1.0"
