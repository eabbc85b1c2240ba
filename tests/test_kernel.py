"""The vectorised X-state closed form behind ``point`` and ``sweep``.

Three independent checks: a 50-digit mpmath Gibbs state built from the
Pauli-matrix Hamiltonian, the dense eigen-pipeline (report(thermal_state)),
and physical invariants over the full parameter box.
"""

import itertools
import warnings

import mpmath as mp
import numpy as np
import pytest

from dimercorr.correlations import formation_from_concurrence, report
from dimercorr.exceptions import DomainError
from dimercorr.models import ModelParams, closed_form_correlations, thermal_state, thermal_state_analytic
from dimercorr.sweep import Axis, SweepSpec, run_sweep
from dimercorr.threshold import tth_anisotropic

OUTPUTS = ("total", "quantum", "classical", "concurrence")
GAMMAS = (-1.0, -0.3, 0.4, 0.9)

# --- 50-digit reference ------------------------------------------------------

_SX = mp.matrix([[0, 1], [1, 0]])
_SZ = mp.matrix([[1, 0], [0, -1]])
_SYSY = mp.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])  # sy x sy is real


def _mp_kron(a, b):
    return mp.matrix([[a[i // 2, k // 2] * b[i % 2, k % 2] for k in range(4)] for i in range(4)])


def _mp_xlog2x(x):
    return x * mp.log(x, 2) if x > 0 else mp.mpf(0)


def _mp_entropy(m):
    return -sum(_mp_xlog2x(x) for x in mp.eigsy(m, eigvals_only=True))


def mp_reference(gamma, b1, b2, t, j=1.0):
    """Total, quantum, classical and concurrence of the Gibbs state at 50 digits.

    Generic dense route: Hamiltonian from Pauli products, spectral Gibbs
    state, partial traces, and the Wootters spectrum of sqrt(rho) rho~ sqrt(rho).
    """
    with mp.workdps(50):
        gamma, b1, b2, t, j = (mp.mpf(v) for v in (gamma, b1, b2, t, j))
        ident = mp.eye(2)
        h = j * (
            (1 - gamma) / 2 * (_mp_kron(_SX, _SX) + _SYSY)
            + (1 + gamma) / 2 * _mp_kron(_SZ, _SZ)
            + b1 * _mp_kron(_SZ, ident)
            + b2 * _mp_kron(ident, _SZ)
        )
        energies, vectors = mp.eigsy(h)
        ground = min(energies)
        weights = [mp.exp(-(e - ground) / t) for e in energies]
        pops = [w / sum(weights) for w in weights]
        rho = vectors * mp.diag(pops) * vectors.T
        root = vectors * mp.diag([mp.sqrt(p) for p in pops]) * vectors.T
        rho1 = mp.matrix([[rho[2 * a, 2 * c] + rho[2 * a + 1, 2 * c + 1] for c in range(2)] for a in range(2)])
        rho2 = mp.matrix([[rho[b, d] + rho[2 + b, 2 + d] for d in range(2)] for b in range(2)])
        total = _mp_entropy(rho1) + _mp_entropy(rho2) + sum(_mp_xlog2x(p) for p in pops)
        spectrum = mp.eigsy(root * _SYSY * rho * _SYSY * root, eigvals_only=True)
        lam = sorted((mp.sqrt(max(x, 0)) for x in spectrum), reverse=True)
        c = min(max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3]), mp.mpf(1))
        x = (1 + mp.sqrt(1 - c * c)) / 2
        quantum = -(_mp_xlog2x(x) + _mp_xlog2x(1 - x))
        return {"total": total, "quantum": quantum, "classical": total - quantum, "concurrence": c}


def assert_gibbs_matches_dense_and_reference(gamma, b1, b2, t, j=1.0):
    """thermal_state_analytic against the dense route (1e-10) and, through report, mp_reference (1e-13)."""
    gamma, b1, b2, t, j = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in (gamma, b1, b2, t, j)))
    params = ModelParams(gamma, b1, b2, j)
    stack = thermal_state_analytic(params, t)
    assert np.max(np.abs(stack - thermal_state(params, t))) < 1e-10
    got = report(stack)
    for k, point in enumerate(zip(gamma, b1, b2, t, j)):
        want = mp_reference(*point)
        for name in OUTPUTS:
            assert abs(getattr(got, name)[k] - float(want[name])) < 1e-13, (point, name)
    return stack


# the (1, 1) pair sits on the |dd> / mixed-level crossing for every gamma
FIELDS = ((0.0, 0.0), (0.7, -1.1), (1.0, 1.0), (5.0, 5.0), (-5.0, 2.5), (3.0, -5.0))
TEMPS = (1e-3, 0.02, 0.1, 0.3, 1.0, 5.0)


def test_matches_fifty_digit_reference():
    worst = dict.fromkeys(OUTPUTS, 0.0)
    for t, gamma, (b1, b2) in itertools.product(TEMPS, GAMMAS, FIELDS):
        got = closed_form_correlations(gamma, b1, b2, t)
        want = mp_reference(gamma, b1, b2, t)
        for name in OUTPUTS:
            worst[name] = max(worst[name], abs(float(got[name]) - float(want[name])))
    assert max(worst.values()) < 1e-13, worst


def test_reference_with_coupling_scale():
    got = closed_form_correlations(0.4, 0.7, -1.1, 0.3, 2.5)
    want = mp_reference(0.4, 0.7, -1.1, 0.3, 2.5)
    for name in OUTPUTS:
        assert abs(float(got[name]) - float(want[name])) < 1e-13


# --- agreement with the dense route ------------------------------------------


@pytest.mark.parametrize("gamma", GAMMAS)
def test_sweep_matches_dense_route(gamma):
    for t in (0.5, 1.0, 2.0):
        spec = SweepSpec(
            base=ModelParams(gamma=gamma),
            axis1=Axis("b1", -3.0, 3.0, 9),
            axis2=Axis("b2", -3.0, 3.0, 9),
            temp=t,
        )
        table = run_sweep(spec)
        g, b1, b2, temp = (table.column(name) for name in ("gamma", "b1", "b2", "T"))
        dense = report(thermal_state(ModelParams(gamma=g, b1=b1, b2=b2), temp))
        for name in ("total", "quantum", "concurrence"):
            assert np.max(np.abs(table.column(name) - getattr(dense, name))) < 1e-12


def test_dense_route_matches_closed_form_over_the_box():
    # the dense route takes the Wootters singular values directly, so
    # cold, nearly singular states lose no digits to a square root
    rng = np.random.default_rng(2026)
    n = 3000
    gamma = rng.uniform(-1.0, 1.0, n)
    b1, b2 = rng.uniform(-5.0, 5.0, (2, n))
    t = rng.uniform(0.02, 5.0, n)
    closed = closed_form_correlations(gamma, b1, b2, t)
    dense = report(thermal_state(ModelParams(gamma, b1, b2), t))
    for name in ("quantum", "concurrence"):
        assert np.max(np.abs(getattr(dense, name) - closed[name])) < 1e-13


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_dense_quantum_keeps_its_digits_below_the_threshold(k):
    # C falls to 5.5e-10 at k = 9, where h((1 + sqrt(1 - C^2)) / 2) formed
    # naively rounds to 0; the remaining error is the dense concurrence's own
    t = tth_anisotropic(0.0) * (1.0 - 10.0**-k)
    got = report(thermal_state(ModelParams(gamma=0.0), t)).quantum
    want = float(mp_reference(0.0, 0.0, 0.0, t)["quantum"])
    assert abs(got - want) < 1e-7 * want


# --- invariants over the full parameter box ----------------------------------


def _box(n=4000, seed=5):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(-1.0, 1.0, n)
    b1, b2 = rng.uniform(-5.0, 5.0, (2, n))
    t = np.exp(rng.uniform(np.log(1e-3), np.log(10.0), n))
    return gamma, b1, b2, t


def _gap(a, b):
    return max(float(np.max(np.abs(a[name] - b[name]))) for name in OUTPUTS)


def test_qubit_swap_invariance():
    gamma, b1, b2, t = _box()
    assert _gap(closed_form_correlations(gamma, b1, b2, t), closed_form_correlations(gamma, b2, b1, t)) < 1e-14


def test_global_spin_flip_invariance():
    gamma, b1, b2, t = _box()
    flipped = closed_form_correlations(gamma, -b1, -b2, t)
    assert _gap(closed_form_correlations(gamma, b1, b2, t), flipped) < 1e-14


def test_energy_scale_invariance():
    gamma, b1, b2, t = _box()
    base = closed_form_correlations(gamma, b1, b2, t)
    for scale in (0.25, 3.0, 40.0):
        scaled = closed_form_correlations(gamma, b1, b2, scale * t, scale)
        assert _gap(base, scaled) < 1e-14


def test_bounds_and_exact_split():
    out = closed_form_correlations(*_box())
    assert np.all((out["concurrence"] >= 0.0) & (out["concurrence"] <= 1.0))
    assert np.all(out["classical"] == out["total"] - out["quantum"])
    assert np.all(out["total"] >= 0.0) and np.all(out["total"] <= 2.0 + 1e-15)
    assert np.all(out["quantum"] >= -1e-15) and np.all(out["quantum"] <= 1.0 + 1e-15)


def test_quantum_is_the_formation_of_its_own_concurrence():
    out = closed_form_correlations(*_box())
    assert np.array_equal(out["quantum"], formation_from_concurrence(out["concurrence"]))


def test_no_output_is_negative_zero():
    for out in (closed_form_correlations(*_box()), closed_form_correlations(GAMMAS, 1e200, 1e200, 1.0)):
        for name in OUTPUTS:
            assert not np.signbit(out[name]).any(), name


def test_results_broadcast():
    out = closed_form_correlations(0.2, np.linspace(-1.0, 1.0, 5)[:, None], 0.5, [0.5, 1.0, 2.0])
    for name in OUTPUTS:
        assert out[name].shape == (5, 3)
    one = closed_form_correlations(0.2, 1.0, 0.5, 1.0)
    assert float(one["total"]) == out["total"][4, 1]


# --- input domain --------------------------------------------------------------


@pytest.mark.parametrize(
    "args,name",
    [
        ((np.nan, 0.0, 0.0, 1.0), "gamma"),
        ((1.5, 0.0, 0.0, 1.0), "gamma"),
        ((0.0, np.inf, 0.0, 1.0), "b1"),
        ((0.0, 0.0, [0.0, np.nan], 1.0), "b2"),
        ((0.0, 0.0, 0.0, np.nan), "temperature"),
        ((0.0, 0.0, 0.0, np.inf), "temperature"),
        ((0.0, 0.0, 0.0, [1.0, 0.0]), "temperature"),
        ((0.0, 0.0, 0.0, 1.0, np.inf), "j"),
        ((0.0, 0.0, 0.0, 1.0, -1.0), "j"),
        ((0.0, 1e308, 1e308, 1.0), r"b1 \+ b2"),
        ((0.0, [0.0, 1e308], -1e308, 1.0), "b1 - b2"),
    ],
)
def test_rejects_inputs_outside_the_domain(args, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=name):
            closed_form_correlations(*args)
