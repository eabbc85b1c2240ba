"""End-to-end acceptance checks.

One test per advertised guarantee; each prints a single pass/fail line
with the measured figure so ``pytest tests/test_acceptance.py -v -s``
reads as a checklist.
"""

import math

import numpy as np
from test_kernel import mp_reference

from dimercorr.correlations import (
    concurrence,
    entanglement_of_formation,
    random_density_matrix,
    report,
    sample_decomposition_average,
)
from dimercorr.models import (
    ModelParams,
    closed_form_correlations,
    thermal_state,
    thermal_state_analytic,
)
from dimercorr.sweep import (
    Axis,
    SweepSpec,
    count_peaks,
    detect_quantum_exceeds_classical,
    detect_zero_plateau,
    run_sweep,
)
from dimercorr.threshold import threshold_curve, tth_anisotropic, tth_numeric
from dimercorr.verify import check_gibbs_equivalence, check_ppt_agreement


def _criterion(number, label, passed, metric):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} {label}: {status} ({metric})")
    assert passed, f"criterion {number} failed: {metric}"


def test_criterion_01_cold_singlet_report():
    r = report(thermal_state(ModelParams(gamma=0.0), 0.01))
    err = max(abs(r.total - 2.0), abs(r.quantum - 1.0), abs(r.classical - 1.0))
    _criterion(1, "cold isotropic report is (2, 1, 1)", err < 1e-3, f"max error {err:.2e}")


def test_criterion_02_classical_mixture_report():
    mix = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
    r = report(mix)
    err = max(abs(r.total - 1.0), abs(r.quantum), abs(r.classical - 1.0))
    _criterion(2, "classical mixture report is (1, 0, 1)", err < 1e-12, f"max error {err:.2e}")


def test_criterion_03_gibbs_routes_agree():
    result = check_gibbs_equivalence(samples=200, seed=7)
    _criterion(
        3,
        "closed-form thermal states match spectral Gibbs over 200 points",
        result.passed and result.residual < 1e-10,
        f"max entrywise deviation {result.residual:.2e}",
    )


def test_criterion_04_concurrence_closed_form_on_grid():
    worst = 0.0
    for gamma in np.linspace(-1.0, 1.0, 10):
        for t in np.linspace(0.5, 5.0, 5):
            rho = thermal_state_analytic(float(gamma), 0.0, 0.0, float(t))
            closed = closed_form_correlations(float(gamma), 0.0, 0.0, float(t))["concurrence"]
            worst = max(worst, abs(closed - concurrence(rho)))
    _criterion(
        4,
        "closed-form concurrence matches pipeline on 50-point grid",
        worst < 1e-10,
        f"max deviation {worst:.2e}",
    )


def test_criterion_05_threshold_closed_forms():
    err_iso = abs(tth_anisotropic(0.0) - 2.0 / math.log(3.0))
    err_xy = abs(tth_anisotropic(-1.0) - 2.0 / math.log(1.0 + math.sqrt(2.0)))
    curve = [p.t_th for p in threshold_curve(np.linspace(-1.0, 1.0, 100))]
    decreasing = all(a > b for a, b in zip(curve, curve[1:]))
    _criterion(
        5,
        "threshold roots hit 2/ln3 and 2/ln(1+sqrt2); curve decreases",
        err_iso < 1e-6 and err_xy < 1e-6 and decreasing,
        f"errors {err_iso:.2e}, {err_xy:.2e}; strictly decreasing {decreasing}",
    )


def test_criterion_06_threshold_ignores_uniform_field():
    found = [
        tth_numeric(ModelParams(gamma=-1.0, b1=b, b2=b)) for b in (0.0, 0.5, 1.0, 1.5)
    ]
    spread = max(found) - min(found)
    _criterion(
        6,
        "numeric threshold is field-independent for uniform fields",
        all(f is not None for f in found) and spread < 1e-6,
        f"spread {spread:.2e} around {found[0]:.6f}",
    )


def test_criterion_07_quantum_exceeds_classical_window():
    windows = {}
    for b in (0.95, 1.05):
        spec = SweepSpec(
            base=ModelParams(gamma=-1.0, b1=b, b2=b), axis1=Axis("T", 0.01, 2.0, 400)
        )
        windows[b] = detect_quantum_exceeds_classical(run_sweep(spec))
    # the window needs T > 0: at b = 0.95 the ground state is the entangled lower mixed level, pure, so quantum and
    # classical are both half of total as T -> 0; at b = 1.05 it is |dd>, with no correlation at all
    cold = {b: closed_form_correlations(-1.0, b, b, 1e-300) for b in (0.95, 1.05)}
    warm = closed_form_correlations(-1.0, 0.95, 0.95, 0.05)
    limits = {b: tuple(r[name] for name in ("total", "quantum", "classical")) for b, r in cold.items()}
    drift = max(
        abs(r["total"] - float(mp_reference(-1.0, b, b, t)["total"]))
        for r, b, t in ((cold[0.95], 0.95, 1e-300), (cold[1.05], 1.05, 1e-300), (warm, 0.95, 0.05))
    )
    _criterion(
        7,
        "quantum part exceeds classical in a finite T window, and only at T > 0",
        any(windows.values())
        and limits == {0.95: (2.0, 1.0, 1.0), 1.05: (0.0, 0.0, 0.0)}
        and warm["quantum"] > warm["classical"]
        and drift < 1e-13,
        "; ".join(
            f"b={b}: " + (f"({iv[0][0]:.2f}, {iv[-1][1]:.2f})" if iv else "none")
            for b, iv in windows.items()
        )
        + f"; (total, quantum, classical) at T=1e-300 {limits}; at b=0.95, T=0.05 quantum "
        f"{warm['quantum']:.4f}, classical {warm['classical']:.4f}; total off the 50-digit reference by {drift:.1e}",
    )


def test_criterion_08_peak_splitting_and_plateau():
    def table(t):
        spec = SweepSpec(
            base=ModelParams(gamma=-1.0), axis1=Axis("b_anti", -3.0, 3.0, 201), temp=t
        )
        return run_sweep(spec)

    low, high = count_peaks(table(0.3), "quantum"), count_peaks(table(1.6), "quantum")
    plateaus = detect_zero_plateau(table(2.5), "quantum")
    central = [iv for iv in plateaus if iv[0] <= 0.0 <= iv[1]]
    _criterion(
        8,
        "quantum peak splits and a central zero plateau opens",
        low == 1 and high == 2 and len(central) == 1,
        f"peaks {low} then {high}; plateau "
        + (f"({central[0][0]:.2f}, {central[0][1]:.2f})" if central else "missing"),
    )


def test_criterion_09_ising_limit_is_classical():
    spec = SweepSpec(base=ModelParams(gamma=1.0), axis1=Axis("T", 0.05, 4.0, 100))
    t = run_sweep(spec)
    q_max = float(np.max(np.abs(t.column("quantum"))))
    gap = float(np.max(np.abs(t.column("total") - t.column("classical"))))
    _criterion(
        9,
        "gamma=1 has zero quantum part and total equals classical",
        q_max == 0.0 and gap < 1e-12,
        f"max quantum {q_max:.1e}; max |total - classical| {gap:.1e}",
    )


def test_criterion_10_ppt_matches_concurrence():
    result = check_ppt_agreement(samples=1000, seed=7)
    _criterion(
        10,
        "concurrence positivity matches the PPT test on 1000 states",
        result.passed,
        f"{int(result.residual)} disagreements",
    )


def test_criterion_11_sampled_averages_respect_lower_bound():
    rng = np.random.default_rng(2024)
    worst = math.inf
    for i in range(20):
        rho = random_density_matrix(rng)
        floor = entanglement_of_formation(rho)
        found = sample_decomposition_average(rho, 10000, seed=i)
        worst = min(worst, found - floor)
    _criterion(
        11,
        "no sampled decomposition average undercuts the formation bound",
        worst >= -1e-9,
        f"smallest margin {worst:.2e} over 20 states x 10^4 samples",
    )


def test_criterion_12_high_temperature_decay():
    worst = 0.0
    for gamma in (-1.0, 0.0, 0.9):
        r = report(thermal_state_analytic(gamma, 0.0, 0.0, 100.0))
        worst = max(worst, r.total, r.quantum, r.classical, r.concurrence)
    _criterion(
        12,
        "all correlations decay below 1e-3 by T=100",
        worst <= 1e-3,
        f"largest correlation {worst:.2e}",
    )


def test_criterion_13_quantum_is_the_more_fragile():
    # at the zero-field threshold the concurrence has closed, so quantum is gone while classical still holds all of
    # total
    found = {}
    for gamma in (-1.0, 0.0, 0.5):
        t = tth_anisotropic(gamma)
        r = closed_form_correlations(gamma, 0.0, 0.0, t)
        found[gamma] = (r, abs(r["total"] - float(mp_reference(gamma, 0.0, 0.0, t)["total"])))
    _criterion(
        13,
        "at the threshold quantum is gone and classical is all of total",
        all(
            r["quantum"] <= 1e-30 and r["concurrence"] <= 1e-15 and r["classical"] == r["total"] and drift < 1e-13
            for r, drift in found.values()
        ),
        "; ".join(
            f"gamma={g}: classical {r['classical']:.6f}, quantum {r['quantum']:.1e}, total off by {drift:.1e}"
            for g, (r, drift) in found.items()
        ),
    )
