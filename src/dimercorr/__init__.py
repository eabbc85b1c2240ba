"""Correlations of two-qubit Heisenberg-type thermal states.

Computes the total (mutual information), quantum (entanglement of
formation) and classical correlations of the Gibbs state of an
anisotropic two-qubit exchange model with local fields, together with
threshold temperatures where the thermal entanglement vanishes, grid
sweeps with qualitative shape detectors, and independent cross-checks.
"""

import importlib

__version__ = "0.1.0"

# Each public name -> the submodule that defines it.  ``import dimercorr``
# loads none of these submodules (and so no numpy): a name's submodule is
# imported on its first access, through __getattr__ below (PEP 562).  No
# name is cached here, so dimercorr.X is always the submodule's current X.
_SUBMODULE = {
    "CorrelationReport": "correlations",
    "concurrence": "correlations",
    "entanglement_of_formation": "correlations",
    "is_separable_ppt": "correlations",
    "random_density_matrix": "correlations",
    "report": "correlations",
    "sample_decomposition_average": "correlations",
    "DomainError": "domain",
    "ModelParams": "domain",
    "ValidationError": "domain",
    "check_density_matrix": "matkernel",
    "gibbs": "matkernel",
    "build_hamiltonian": "models",
    "closed_form_correlations": "models",
    "thermal_state": "models",
    "thermal_state_analytic": "models",
    "Axis": "sweep",
    "SweepSpec": "sweep",
    "SweepTable": "sweep",
    "count_peaks": "sweep",
    "detect_quantum_exceeds_classical": "sweep",
    "detect_zero_plateau": "sweep",
    "run_sweep": "sweep",
    "ThresholdPoint": "threshold",
    "threshold_curve": "threshold",
    "tth_anisotropic": "threshold",
    "tth_numeric": "threshold",
    "CheckResult": "verify",
    "run_suites": "verify",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    module = _SUBMODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
