"""Exact design-strength verification for codes, lattices and graded traces.

The package computes with truncated q-expansions over exact rationals and
uses them to decide combinatorial, spherical and conformal design properties
of the homogeneous pieces of the associated structures.  Every name in a
module's ``__all__`` is exported here.
"""

from .errors import *
from .qseries import *
from .modforms import *
from .codes import *
from .lattices import *
from .voa import *

__version__ = "0.1.0"
