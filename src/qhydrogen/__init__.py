"""Hydrogen bound-state spectrum under a real deformation of its symmetry algebra.

The package evaluates q-brackets [x] = sinh(s x)/sinh(s), builds the
deformed angular-momentum matrices they weight, and derives the bound
energies E/Ry = -2/D with D = 8[j][j+1] - 4[m]([m+1]+[m-1]) + 8m^2 + 2,
including the partial degeneracy breaking (one sublevel per |m|, with
multiplicity 4 or 1) and the resulting line splittings.

Everything runs on plain Python floats: an irrep is stored as its
ladder weights, never as a matrix, and no module imports an array
library.
"""

from . import irreps, lines, qnum, spectrum
from .qnum import *
from .spectrum import *
from .lines import *
from .irreps import *

__version__ = "0.1.0"

__all__ = [*qnum.__all__, *spectrum.__all__, *lines.__all__, *irreps.__all__]
