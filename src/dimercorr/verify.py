"""Self-check suites pairing closed forms with independent numeric routes.

Each suite returns CheckResult records, each with its residual and the
bound it is held to: the routes agree when the residual stays below the
bound (the ppt count at it, the ensemble gap at or above it).  The gibbs
and wootters suites draw from the full parameter box: gamma in [-1, 1],
|b1|, |b2| <= 5 and T in [0.02, 5].  The suites are what the ``verify``
CLI subcommand runs, and the test suite reuses them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .correlations import (
    _concurrence,
    _separable_ppt,
    concurrence,
    entanglement_of_formation,
    random_density_matrix,
    sample_decomposition_average,
)
from .domain import SEED, SUITES
from .matkernel import _density_eigh, gibbs
from .models import build_hamiltonian, closed_form_correlations, thermal_state_analytic

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


class CheckResult(NamedTuple):
    suite: str
    name: str
    passed: bool
    residual: float
    bound: float
    detail: str


def _box(rng: np.random.Generator, n: int) -> tuple[np.ndarray, ...]:
    """n random (gamma, b1, b2, T) over the full box: gamma in [-1, 1], |b| <= 5, T in [0.02, 5]."""
    return rng.uniform(-1.0, 1.0, n), *rng.uniform(-5.0, 5.0, (2, n)), rng.uniform(0.02, 5.0, n)


def check_gibbs_equivalence(samples: int = 200, seed: int = SEED) -> CheckResult:
    """Closed-form thermal states vs the spectral Gibbs construction."""
    gamma, b1, b2, t = _box(np.random.default_rng(seed), samples)
    dense = gibbs(build_hamiltonian(gamma, b1, b2), t)
    worst = float(np.max(np.abs(thermal_state_analytic(gamma, b1, b2, t) - dense), initial=0.0))
    return CheckResult(
        suite="gibbs",
        name="analytic vs numeric thermal state",
        passed=worst < GIBBS_TOL,
        residual=worst,
        bound=GIBBS_TOL,
        detail=f"max entrywise deviation over {samples} random box points",
    )


def check_wootters_closed_form() -> list[CheckResult]:
    """Closed-form concurrence (the kernel behind point and sweep) vs the eigenvalue pipeline.

    Both sample sets, a zero-field (gamma, T) grid and random points of the
    full box, are evaluated as one stack on each route.
    """
    g, t = np.meshgrid(np.linspace(-1.0, 1.0, 10), np.linspace(0.02, 5.0, 5), indexing="ij")
    grid = (g.ravel(), np.zeros(g.size), np.zeros(g.size), t.ravel())
    gamma, b1, b2, temp = (np.concatenate(pair) for pair in zip(grid, _box(np.random.default_rng(11), 50)))
    closed = closed_form_correlations(gamma, b1, b2, temp)["concurrence"]
    delta = np.abs(closed - concurrence(gibbs(build_hamiltonian(gamma, b1, b2), temp)))
    checks = (
        ("zero-field closed form vs pipeline", delta[: g.size], "max deviation over a 10x5 (gamma, T) grid"),
        ("box closed form vs pipeline", delta[g.size :], "max deviation over 50 random box points"),
    )
    return [
        CheckResult(
            suite="wootters",
            name=name,
            passed=float(part.max()) < WOOTTERS_TOL,
            residual=float(part.max()),
            bound=WOOTTERS_TOL,
            detail=detail,
        )
        for name, part, detail in checks
    ]


def check_ppt_agreement(samples: int = 1000, seed: int = SEED) -> CheckResult:
    """Concurrence positivity must coincide with partial-transpose negativity."""
    # one validation, whose eigh the concurrence reads: concurrence and is_separable_ppt would each repeat it
    rho, values, vectors = _density_eigh(random_density_matrix(np.random.default_rng(seed), size=samples))
    entangled_c = _concurrence(values, vectors) > 1e-9
    entangled_ppt = ~_separable_ppt(rho)
    disagreements = int(np.count_nonzero(entangled_c != entangled_ppt))
    return CheckResult(
        suite="ppt",
        name="concurrence vs partial-transpose criterion",
        passed=disagreements == 0,
        residual=float(disagreements),
        bound=0.0,
        detail=f"disagreements over {samples} random density matrices",
    )


def check_ensemble_bound(samples: int = 10000, seed: int = SEED) -> CheckResult:
    """No sampled decomposition average may undercut the entanglement of formation (5 random states)."""
    rho = random_density_matrix(np.random.default_rng(seed), size=5)
    best = sample_decomposition_average(rho, samples=samples, seed=seed)
    worst_gap = float(np.min(best - entanglement_of_formation(rho), initial=np.inf))
    return CheckResult(
        suite="ensemble",
        name="sampled decomposition average vs formation floor",
        passed=worst_gap >= -ENSEMBLE_TOL,
        residual=worst_gap,
        bound=-ENSEMBLE_TOL,
        detail=f"worst (average - E_f) over 5 states x {samples} samples; must not fall below the bound",
    )


def run_suites(
    suite: str = "all",
    seed: int = SEED,
    samples: int | None = None,
) -> list[CheckResult]:
    """Run one named suite or all of them and collect the results.

    ``samples`` overrides the per-suite sample counts and must be at least 1;
    ``seed`` must be nonnegative.  Neither reaches the wootters suite, whose
    panel is fixed (see check_wootters_closed_form).
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from all, {', '.join(SUITES)}")
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    draws = {"seed": seed} if samples is None else {"seed": seed, "samples": samples}  # None: each check's own count
    suites = {  # built per call, so each check is looked up at call time
        "gibbs": lambda: [check_gibbs_equivalence(**draws)],
        "wootters": check_wootters_closed_form,
        "ppt": lambda: [check_ppt_agreement(**draws)],
        "ensemble": lambda: [check_ensemble_bound(**draws)],
    }
    return [result for name in (SUITES if suite == "all" else (suite,)) for result in suites[name]()]
