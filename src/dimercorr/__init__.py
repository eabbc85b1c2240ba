"""Correlations of two-qubit Heisenberg-type thermal states.

Computes the total (mutual information), quantum (entanglement of
formation) and classical correlations of the Gibbs state of an
anisotropic two-qubit exchange model with local fields, together with
threshold temperatures where the thermal entanglement vanishes, grid
sweeps with qualitative shape detectors, and independent cross-checks.
"""

from .correlations import (
    CorrelationReport,
    Ensemble,
    average_entanglement,
    classical_correlation,
    concurrence,
    entanglement_of_formation,
    formation_from_concurrence,
    is_separable_ppt,
    mutual_information,
    random_density_matrix,
    random_ensemble,
    random_unitary,
    report,
    sample_decomposition_average,
    von_neumann_entropy,
)
from .exceptions import DomainError, UnsupportedFamilyError, ValidationError
from .matkernel import (
    EigenSystem,
    check_density_matrix,
    gibbs,
    hermitian_eig,
    is_hermitian,
    is_psd,
    is_unit_trace,
    kron,
    partial_trace,
    partial_transpose,
    pauli,
)
from .models import (
    EigenPair,
    ModelParams,
    analytic_eigensystem,
    build_hamiltonian,
    closed_form_correlations,
    concurrence_analytic,
    ground_state_limit,
    thermal_state,
    thermal_state_analytic,
)
from .sweep import (
    Axis,
    SweepRow,
    SweepSpec,
    SweepTable,
    count_peaks,
    detect_quantum_exceeds_classical,
    detect_zero_plateau,
    run_sweep,
)
from .threshold import ThresholdPoint, threshold_curve, tth_anisotropic, tth_numeric
from .verify import CheckResult, run_suites

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "CheckResult",
    "CorrelationReport",
    "DomainError",
    "EigenPair",
    "EigenSystem",
    "Ensemble",
    "ModelParams",
    "SweepRow",
    "SweepSpec",
    "SweepTable",
    "ThresholdPoint",
    "UnsupportedFamilyError",
    "ValidationError",
    "analytic_eigensystem",
    "average_entanglement",
    "build_hamiltonian",
    "check_density_matrix",
    "classical_correlation",
    "closed_form_correlations",
    "concurrence",
    "concurrence_analytic",
    "count_peaks",
    "detect_quantum_exceeds_classical",
    "detect_zero_plateau",
    "entanglement_of_formation",
    "formation_from_concurrence",
    "gibbs",
    "ground_state_limit",
    "hermitian_eig",
    "is_hermitian",
    "is_psd",
    "is_separable_ppt",
    "is_unit_trace",
    "kron",
    "mutual_information",
    "partial_trace",
    "partial_transpose",
    "pauli",
    "random_density_matrix",
    "random_ensemble",
    "random_unitary",
    "report",
    "run_suites",
    "run_sweep",
    "sample_decomposition_average",
    "thermal_state",
    "thermal_state_analytic",
    "threshold_curve",
    "tth_anisotropic",
    "tth_numeric",
    "von_neumann_entropy",
]
