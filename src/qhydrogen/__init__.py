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

from .qnum import (
    DeformationParameter,
    QNumberOverflowError,
    SpinLabel,
    qnumber,
)
from .spectrum import (
    EnergyLevel,
    NonPositiveDenominatorError,
    QuantumState,
    RYDBERG_EV,
    RYDBERG_PER_CM,
    degeneracy_summary,
    denominator,
    energy,
    energy_undeformed,
    enumerate_states,
    level_table,
)
from .lines import (
    DegenerateTransitionError,
    ScanRow,
    TransitionLine,
    series_table,
    splitting_scan,
    transition,
)
from .irreps import (
    IrrepMatrices,
    VerificationReport,
    build_irrep,
    build_irreps,
    casimir_identity_report,
    verify_commutators,
    verify_so4_limit,
)

__version__ = "0.1.0"

__all__ = [
    "DeformationParameter",
    "DegenerateTransitionError",
    "EnergyLevel",
    "IrrepMatrices",
    "NonPositiveDenominatorError",
    "QNumberOverflowError",
    "QuantumState",
    "RYDBERG_EV",
    "RYDBERG_PER_CM",
    "ScanRow",
    "SpinLabel",
    "TransitionLine",
    "VerificationReport",
    "build_irrep",
    "build_irreps",
    "casimir_identity_report",
    "degeneracy_summary",
    "denominator",
    "energy",
    "energy_undeformed",
    "enumerate_states",
    "level_table",
    "qnumber",
    "series_table",
    "splitting_scan",
    "transition",
    "verify_commutators",
    "verify_so4_limit",
]

