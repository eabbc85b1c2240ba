"""Self-check suites pairing closed forms with independent numeric routes.

Each suite returns CheckResult records; a residual below its bound means
the two routes agree.  The suites are what the ``verify`` CLI subcommand
runs, and the test suite reuses them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import (
    _concurrence,
    _separable_ppt,
    concurrence,
    entanglement_of_formation,
    random_density_matrix,
    sample_decomposition_average,
)
from .matkernel import check_density_matrix
from .models import ModelParams, closed_form_correlations, thermal_state, thermal_state_analytic

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
ENSEMBLE_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    residual: float
    detail: str


def _random_supported_params(rng: np.random.Generator, n: int) -> np.ndarray:
    """Half zero-field points, half XY points with fields, T in [0.05, 5].

    Returns a (4, n) array of (gamma, b1, b2, T) columns.
    """
    points = []
    for i in range(n):
        t = float(rng.uniform(0.05, 5.0))
        if i % 2 == 0:
            points.append((float(rng.uniform(-1.0, 1.0)), 0.0, 0.0, t))
        else:
            b1, b2 = rng.uniform(-3.0, 3.0, 2)
            points.append((-1.0, float(b1), float(b2), t))
    return np.array(points, dtype=float).reshape(n, 4).T


def check_gibbs_equivalence(samples: int = 200, seed: int = 7) -> CheckResult:
    """Closed-form thermal states vs the spectral Gibbs construction."""
    gamma, b1, b2, t = _random_supported_params(np.random.default_rng(seed), samples)
    params = ModelParams(gamma, b1, b2)
    worst = float(np.max(np.abs(thermal_state_analytic(params, t) - thermal_state(params, t)), initial=0.0))
    return CheckResult(
        suite="gibbs",
        name="analytic vs numeric thermal state",
        passed=worst < GIBBS_TOL,
        residual=worst,
        detail=f"max entrywise deviation over {samples} random supported points",
    )


def check_wootters_closed_form() -> list[CheckResult]:
    """Closed-form concurrence (the kernel behind point and sweep) vs the eigenvalue pipeline.

    Both sample sets, a zero-field (gamma, T) grid and random XY field
    points, are evaluated as one stack on each route.
    """
    g, t = np.meshgrid(np.linspace(-1.0, 1.0, 10), np.linspace(0.5, 5.0, 5), indexing="ij")
    rng = np.random.default_rng(11)
    fields = np.array([(*rng.uniform(-3.0, 3.0, 2), rng.uniform(0.5, 5.0)) for _ in range(50)])
    gamma = np.concatenate([g.ravel(), np.full(50, -1.0)])
    b1 = np.concatenate([np.zeros(g.size), fields[:, 0]])
    b2 = np.concatenate([np.zeros(g.size), fields[:, 1]])
    temp = np.concatenate([t.ravel(), fields[:, 2]])
    closed = closed_form_correlations(gamma, b1, b2, temp)["concurrence"]
    delta = np.abs(closed - concurrence(thermal_state(ModelParams(gamma, b1, b2), temp)))
    checks = (
        ("zero-field closed form vs pipeline", delta[: g.size], "max deviation over a 10x5 (gamma, T) grid"),
        ("XY closed form vs pipeline", delta[g.size :], "max deviation over 50 random field points"),
    )
    return [
        CheckResult(
            suite="wootters",
            name=name,
            passed=float(part.max()) < WOOTTERS_TOL,
            residual=float(part.max()),
            detail=detail,
        )
        for name, part, detail in checks
    ]


def check_ppt_agreement(samples: int = 1000, seed: int = 7) -> CheckResult:
    """Concurrence positivity must coincide with partial-transpose negativity."""
    # one validation for the stack: the public concurrence and
    # is_separable_ppt would each repeat it
    rho = check_density_matrix(random_density_matrix(np.random.default_rng(seed), size=samples), 4)
    entangled_c = _concurrence(*np.linalg.eigh(rho)) > 1e-9
    entangled_ppt = ~_separable_ppt(rho)
    disagreements = int(np.count_nonzero(entangled_c != entangled_ppt))
    return CheckResult(
        suite="ppt",
        name="concurrence vs partial-transpose criterion",
        passed=disagreements == 0,
        residual=float(disagreements),
        detail=f"disagreements over {samples} random density matrices",
    )


def check_ensemble_bound(samples: int = 10000, seed: int = 7, states: int = 5) -> CheckResult:
    """No sampled decomposition average may undercut the entanglement of formation."""
    rho = random_density_matrix(np.random.default_rng(seed), size=states)
    best = sample_decomposition_average(rho, ensemble_size=4, samples=samples, seed=seed)
    worst_gap = float(np.min(best - entanglement_of_formation(rho), initial=np.inf))
    return CheckResult(
        suite="ensemble",
        name="sampled decomposition average vs formation floor",
        passed=worst_gap >= -ENSEMBLE_TOL,
        residual=worst_gap,
        detail=f"worst (average - E_f) over {states} states x {samples} samples",
    )


SUITES = ("gibbs", "wootters", "ppt", "ensemble")


def run_suites(
    suite: str = "all",
    seed: int = 7,
    samples: int | None = None,
) -> list[CheckResult]:
    """Run one named suite or all of them and collect the results.

    ``samples`` overrides the per-suite sample counts and must be at least 1.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
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
