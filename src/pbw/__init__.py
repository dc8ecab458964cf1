"""Exact straightening to canonical form in enveloping algebras, holonomy
checks over the symmetric group's Cayley graph, and the associated
spherical chamber geometry."""

from .coxeter import *
from .holonomy import *
from .normalizer import *
from .presentation import *
from .tensor import *

__version__ = "0.1.0"
