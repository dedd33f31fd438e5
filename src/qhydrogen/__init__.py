"""Hydrogen bound-state spectrum under a real deformation of its symmetry algebra.

The package evaluates q-brackets [x] = sinh(s x)/sinh(s), builds the
deformed angular-momentum matrices they weight, and derives the bound
energies E/Ry = -2/D with D = 8[j][j+1] - 4[m]([m+1]+[m-1]) + 8m^2 + 2,
including the partial degeneracy breaking (one sublevel per |m|, with
multiplicity 4 or 1) and the resulting line splittings.

The spectrum needs only the scalar brackets.  numpy is loaded with the
irreps layer alone: on first access to one of its names here
(``build_irrep``, ``verify_commutators``, ...) or by the ``verify`` and
``dump-irrep`` commands, so importing the package and running the table
commands never imports it.
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

__version__ = "0.1.0"

# Resolved from .irreps on first access (PEP 562), which imports numpy.
_IRREPS_NAMES = frozenset({
    "IrrepMatrices",
    "VerificationReport",
    "build_irrep",
    "casimir_identity_report",
    "casimir_symmetrized",
    "verify_commutators",
    "verify_so4_limit",
})

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
    "casimir_identity_report",
    "casimir_symmetrized",
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


def __getattr__(name: str):
    if name in _IRREPS_NAMES:
        from . import irreps

        # Cached here; setdefault keeps a name that was bound meanwhile.
        return globals().setdefault(name, getattr(irreps, name))
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _IRREPS_NAMES)
