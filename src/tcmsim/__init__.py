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
from .closed_form import (CONSISTENT, LITERAL, AmplitudeSet, BranchAmplitudes,
                          EvolutionParams, assemble, multimode_literal,
                          single_mode_consistent, single_mode_literal)
from .entanglement import (EntanglementPoint, binary_entropy, concurrence,
                           entanglement_point, eof, spin_flip)
from .errors import ConfigurationError, NumericalFailureError, TcmError
from .fock_field import (FieldDistribution, TruncationWindow,
                         coherent_amplitudes, coherent_field, custom_field,
                         default_window, enumerate_configs, fock_field,
                         joint_weight, load_custom_field)
from .inversion import (InversionPoint, single_atom_jcm_inversion,
                        single_atom_jcm_series, two_atom_inversion)
from .oracle import (ExactEvolver, ExpansionReport, HamiltonianBlock,
                     OracleState, SectorBasis, build_hamiltonian,
                     build_sector_basis, evolve, expansion_diagnostic,
                     rho_atom_exact)
from .pipeline import closed_form_series, compute_observables, oracle_series
from .reduced_density import TwoAtomDensity, partial_trace
from .series import TimeSeries

__all__ = [
    "AmplitudeSet", "BRANCHES", "BranchAmplitudes", "CONSISTENT",
    "ConfigurationError", "EntanglementPoint", "EvolutionParams",
    "ExactEvolver", "ExpansionReport", "FieldDistribution",
    "HamiltonianBlock", "InversionPoint", "LITERAL", "NumericalFailureError",
    "OracleState", "RevivalReport", "SectorBasis", "TcmError", "TimeSeries",
    "TruncationWindow", "TwoAtomDensity", "assemble", "binary_entropy",
    "build_hamiltonian", "build_sector_basis", "closed_form_series",
    "coherent_amplitudes", "coherent_field", "collapse_windows",
    "compute_observables", "concurrence", "custom_field", "default_window",
    "detect_revival_peaks", "deviation_report", "enumerate_configs",
    "entanglement_point", "eof", "evolve", "expansion_diagnostic",
    "fock_field", "joint_weight", "load_custom_field", "mode_sweep",
    "multimode_literal", "oracle_series", "oscillation_rate", "partial_trace",
    "rho_atom_exact", "single_atom_jcm_inversion", "single_atom_jcm_series",
    "single_mode_consistent", "single_mode_literal", "spin_flip",
    "two_atom_inversion",
]

__version__ = "0.1.0"
