"""Entanglement dynamics of two two-level atoms in an m-mode cavity.

Closed-form evolution amplitudes (in a published-form "literal" convention
and an initial-condition-"consistent" convention) are cross-validated
against an exact sector-decomposed evolution of the excitation-conserving
interaction.  Observables: atomic inversion, Wootters concurrence, and
entanglement of formation.
"""

from .analysis import (RevivalReport, collapse_windows, detect_revival_peaks,
                       deviation_report, mode_sweep, oscillation_rate)
from .basis import BRANCHES
from .closed_form import CONSISTENT, LITERAL
from .entanglement import binary_entropy, concurrence, eof, spin_flip
from .errors import ConfigurationError, NumericalFailureError, TcmError
from .fock_field import (FieldDistribution, TruncationWindow,
                         coherent_amplitudes, coherent_field, custom_field,
                         default_window, fock_field, load_custom_field)
from .inversion import single_atom_jcm_series
from .oracle import (ExactEvolver, ExpansionReport, HamiltonianBlock,
                     OracleState, SectorBasis, build_hamiltonian,
                     build_sector_basis, evolve, expansion_diagnostic,
                     rho_atom_exact)
from .pipeline import closed_form_series, compute_observables, oracle_series
from .reduced_density import TwoAtomDensity
from .series import TimeSeries

__all__ = [
    "BRANCHES", "CONSISTENT", "ConfigurationError", "ExactEvolver",
    "ExpansionReport", "FieldDistribution", "HamiltonianBlock", "LITERAL",
    "NumericalFailureError", "OracleState", "RevivalReport", "SectorBasis",
    "TcmError", "TimeSeries", "TruncationWindow", "TwoAtomDensity",
    "binary_entropy", "build_hamiltonian", "build_sector_basis",
    "closed_form_series", "coherent_amplitudes", "coherent_field",
    "collapse_windows", "compute_observables", "concurrence", "custom_field",
    "default_window", "detect_revival_peaks", "deviation_report", "eof",
    "evolve", "expansion_diagnostic", "fock_field", "load_custom_field",
    "mode_sweep", "oracle_series", "oscillation_rate", "rho_atom_exact",
    "single_atom_jcm_series", "spin_flip",
]

__version__ = "0.1.0"
