"""Self-check suites pairing closed forms with independent numeric routes.

Each suite returns CheckResult records; a residual below its bound means
the two routes agree.  The suites are what the ``verify`` CLI subcommand
runs, and the test suite reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import (
    concurrence,
    entanglement_of_formation,
    is_separable_ppt,
    random_density_matrix,
    sample_decomposition_average,
)
from .models import ModelParams, concurrence_analytic, thermal_state, thermal_state_analytic

__all__ = [
    "CheckResult",
    "SUITES",
    "check_ensemble_bound",
    "check_gibbs_equivalence",
    "check_ppt_agreement",
    "check_wootters_closed_form",
    "run_suites",
]

GIBBS_TOL = 1e-10
WOOTTERS_TOL = 1e-10
# strong fields push the thermal state toward singular, where the matrix
# square root amplifies eigensolver noise past 1e-10 even at T >= 0.5
WOOTTERS_FIELD_TOL = 1e-9
ENSEMBLE_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    residual: float
    detail: str


def _random_supported_params(rng: np.random.Generator, n: int) -> list[tuple[ModelParams, float]]:
    """Half zero-field points, half XY points with fields, T in [0.05, 5]."""
    points = []
    for i in range(n):
        t = float(rng.uniform(0.05, 5.0))
        if i % 2 == 0:
            points.append((ModelParams(gamma=float(rng.uniform(-1.0, 1.0))), t))
        else:
            b1, b2 = rng.uniform(-3.0, 3.0, 2)
            points.append((ModelParams(gamma=-1.0, b1=float(b1), b2=float(b2)), t))
    return points


def check_gibbs_equivalence(samples: int = 200, seed: int = 7) -> CheckResult:
    """Closed-form thermal states vs the spectral Gibbs construction."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, t in _random_supported_params(rng, samples):
        delta = np.max(np.abs(thermal_state_analytic(p, t) - thermal_state(p, t)))
        worst = max(worst, float(delta))
    return CheckResult(
        suite="gibbs",
        name="analytic vs numeric thermal state",
        passed=worst < GIBBS_TOL,
        residual=worst,
        detail=f"max entrywise deviation over {samples} random supported points",
    )


def check_wootters_closed_form() -> list[CheckResult]:
    """Closed-form concurrence (the kernel behind point and sweep) vs the eigenvalue pipeline.

    Temperatures start at 0.5: below that the smallest pipeline eigenvalue
    underflows and its square root amplifies eigensolver noise above 1e-10,
    so the comparison would measure float behaviour instead of agreement.
    """
    worst = 0.0
    for g in np.linspace(-1.0, 1.0, 10):
        for t in np.linspace(0.5, 5.0, 5):
            p = ModelParams(gamma=float(g))
            delta = abs(concurrence_analytic(p, float(t)) - concurrence(thermal_state(p, float(t))))
            worst = max(worst, delta)
    results = [
        CheckResult(
            suite="wootters",
            name="zero-field closed form vs pipeline",
            passed=worst < WOOTTERS_TOL,
            residual=worst,
            detail="max deviation over a 10x5 (gamma, T) grid",
        )
    ]
    worst = 0.0
    rng = np.random.default_rng(11)
    for _ in range(50):
        b1, b2 = rng.uniform(-3.0, 3.0, 2)
        t = float(rng.uniform(0.5, 5.0))
        p = ModelParams(gamma=-1.0, b1=float(b1), b2=float(b2))
        delta = abs(concurrence_analytic(p, t) - concurrence(thermal_state(p, t)))
        worst = max(worst, delta)
    results.append(
        CheckResult(
            suite="wootters",
            name="XY closed form vs pipeline",
            passed=worst < WOOTTERS_FIELD_TOL,
            residual=worst,
            detail="max deviation over 50 random field points",
        )
    )
    return results


def check_ppt_agreement(samples: int = 1000, seed: int = 7) -> CheckResult:
    """Concurrence positivity must coincide with partial-transpose negativity."""
    rng = np.random.default_rng(seed)
    disagreements = 0
    for _ in range(samples):
        rho = random_density_matrix(rng)
        entangled_c = concurrence(rho) > 1e-9
        entangled_ppt = not is_separable_ppt(rho)
        disagreements += entangled_c != entangled_ppt
    return CheckResult(
        suite="ppt",
        name="concurrence vs partial-transpose criterion",
        passed=disagreements == 0,
        residual=float(disagreements),
        detail=f"disagreements over {samples} random density matrices",
    )


def check_ensemble_bound(samples: int = 10000, seed: int = 7, states: int = 5) -> CheckResult:
    """No sampled decomposition average may undercut the entanglement of formation."""
    rng = np.random.default_rng(seed)
    worst_gap = np.inf
    for _ in range(states):
        rho = random_density_matrix(rng)
        floor = entanglement_of_formation(rho)
        best = sample_decomposition_average(rho, ensemble_size=4, samples=samples, seed=seed)
        worst_gap = min(worst_gap, best - floor)
    return CheckResult(
        suite="ensemble",
        name="sampled decomposition average vs formation floor",
        passed=worst_gap >= -ENSEMBLE_TOL,
        residual=float(worst_gap),
        detail=f"worst (average - E_f) over {states} states x {samples} samples",
    )


SUITES = ("gibbs", "wootters", "ppt", "ensemble")


def run_suites(
    suite: str = "all",
    seed: int = 7,
    samples: int | None = None,
) -> list[CheckResult]:
    """Run one named suite or all of them and collect the results."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    wanted = SUITES if suite == "all" else (suite,)
    results: list[CheckResult] = []
    for name in wanted:
        if name == "gibbs":
            results.append(check_gibbs_equivalence(samples or 200, seed))
        elif name == "wootters":
            results.extend(check_wootters_closed_form())
        elif name == "ppt":
            results.append(check_ppt_agreement(samples or 1000, seed))
        else:
            results.append(check_ensemble_bound(samples or 10000, seed))
    return results
