"""The vectorised X-state closed form behind ``point`` and ``sweep``.

Three independent checks: a 50-digit mpmath Gibbs state built from the
Pauli-matrix Hamiltonian, the dense eigen-pipeline (report(thermal_state)),
and physical invariants over the full parameter box.
"""

import hashlib
import itertools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from dimercorr.correlations import report
from dimercorr.domain import DomainError
from dimercorr.matkernel import gibbs
from dimercorr.models import (
    ModelParams,
    _correlations,
    _formation,
    _x_form,
    build_hamiltonian,
    closed_form_correlations,
    thermal_state,
    thermal_state_analytic,
)
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


def mp_reference(gamma, b1, b2, t, digits=50):
    """Total, quantum, classical and concurrence of the Gibbs state, its populations, ascending, and |rho23|.

    Generic dense route at ``digits`` decimal digits: Hamiltonian from Pauli
    products, spectral Gibbs state, partial traces, and the Wootters
    spectrum of sqrt(rho) rho~ sqrt(rho).
    """
    with mp.workdps(digits):
        gamma, b1, b2, t = (mp.mpf(v) for v in (gamma, b1, b2, t))
        ident = mp.eye(2)
        h = (
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
        outputs = {"total": total, "quantum": quantum, "classical": total - quantum, "concurrence": c}
        return {**outputs, "populations": sorted(pops), "coherence": abs(rho[1, 2])}


def assert_gibbs_matches_dense_and_reference(gamma, b1, b2, t):
    """thermal_state_analytic against the dense route (1e-10) and, through report, mp_reference (1e-13)."""
    gamma, b1, b2, t = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in (gamma, b1, b2, t)))
    stack = thermal_state_analytic(gamma, b1, b2, t)
    assert np.max(np.abs(stack - gibbs(build_hamiltonian(gamma, b1, b2), t))) < 1e-10
    got = report(stack)
    for k, point in enumerate(zip(gamma, b1, b2, t)):
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
        dense = report(gibbs(build_hamiltonian(g, b1, b2), temp))
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
    dense = report(gibbs(build_hamiltonian(gamma, b1, b2), t))
    for name in ("quantum", "concurrence"):
        assert np.max(np.abs(getattr(dense, name) - closed[name])) < 1e-13


# backward errors in ulps of T, the largest measured below the threshold at
# 4 x 232 temperatures (81 spaced 2e-13 relative apart and 151 seeded draws
# within 1e-11 relative of each case): dense route 7.3, closed form 2.3
DENSE_ULPS = 8
CLOSED_FORM_ULPS = 3


@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_dense_quantum_keeps_its_digits_below_the_threshold(k):
    # C falls to 5.5e-10 at k = 9, where h((1 + sqrt(1 - C^2)) / 2) formed
    # naively rounds to 0.  The quantum's relative condition number in T is
    # about 10^k there, so at k = 9 one ulp of T moves it by about 4e-7
    # relative: a forward bound of 1e-7 fails for most T, on either route,
    # while both stay within a few ulps of T of the exact curve
    t = tth_anisotropic(0.0) * (1.0 - 10.0**-k)
    got = report(thermal_state(ModelParams(gamma=0.0), t)).quantum
    closed = closed_form_correlations(0.0, 0.0, 0.0, t)["quantum"]
    if k < 9:
        want = float(mp_reference(0.0, 0.0, 0.0, t)["quantum"])
        assert abs(got - want) < 1e-7 * want
    for value, ulps in ((got, DENSE_ULPS), (closed, CLOSED_FORM_ULPS)):
        # the quantum falls as T rises toward the threshold
        step = ulps * math.ulp(t)
        upper, lower = (mp_reference(0.0, 0.0, 0.0, t + d)["quantum"] for d in (-step, step))
        assert lower <= value <= upper, (ulps, value)


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


def _swap_draw(n=4000):
    """Points for the b1 <-> b2 symmetry: fields up to +-1e200, equal and zero fields, T from 1e-300 to 1e300.

    Each point comes with its global spin flip (-b1, -b2), so a pure qubit
    turns up both spin up and spin down.
    """
    rng = np.random.default_rng(3401)
    gamma = rng.uniform(-1.0, 1.0, n)
    gamma[::13] = 1.0  # with b1 = b2 below, the r = 0 point
    gamma[1::13] = -1.0
    exponents = np.where(rng.random((2, n)) < 0.5, rng.uniform(-3.0, 1.0, (2, n)), rng.uniform(1.0, 200.0, (2, n)))
    b1, b2 = rng.choice([-1.0, 1.0], (2, n)) * 10.0**exponents
    b2[::5] = b1[::5]
    b1[1::7] = 0.0
    b2[2::7] = -0.0
    b1[3::11], b2[3::11] = 0.0, -0.0
    t = 10.0 ** np.where(rng.random(n) < 0.5, rng.uniform(-2.0, 1.0, n), rng.uniform(-300.0, 300.0, n))
    t[:2] = 1e-300, 1e300
    return np.tile(gamma, 2), np.concatenate([b1, -b1]), np.concatenate([b2, -b2]), np.tile(t, 2)


def test_the_kernel_is_symmetric_in_the_fields_bit_for_bit():
    # run_sweep evaluates a b1 x b2 map on one grid once per pair and mirrors the rest on this
    gamma, b1, b2, t = _swap_draw()
    assert np.any(np.abs(b1 - b2) > 1e155)  # (b1 - b2)^2 overflows: the lift's overflow branch
    for point in zip(gamma.tolist(), b1.tolist(), b2.tolist(), t.tolist()):
        g, x, y, temp = point
        assert [v.hex() for v in _correlations(g, x, y, temp)] == [v.hex() for v in _correlations(g, y, x, temp)], point
    swap = [0, 2, 1, 3]  # |ud> <-> |du>: rho22 and rho33 trade places, every other entry stays
    rho = thermal_state_analytic(gamma, b1, b2, t)
    swapped = thermal_state_analytic(gamma, b2, b1, t)
    assert swapped.tobytes() == rho[..., swap, :][..., swap].tobytes()  # bit for bit, the signs of zeros too


def test_global_spin_flip_invariance():
    gamma, b1, b2, t = _box()
    flipped = closed_form_correlations(gamma, -b1, -b2, t)
    assert _gap(closed_form_correlations(gamma, b1, b2, t), flipped) < 1e-14


def test_bounds_and_exact_split():
    out = closed_form_correlations(*_box())
    assert np.all((out["concurrence"] >= 0.0) & (out["concurrence"] <= 1.0))
    assert np.all(out["classical"] == out["total"] - out["quantum"])
    assert np.all(out["total"] >= 0.0) and np.all(out["total"] <= 2.0 + 1e-15)
    assert np.all(out["quantum"] >= -1e-15) and np.all(out["quantum"] <= 1.0 + 1e-15)


def test_quantum_is_the_formation_of_its_own_concurrence():
    out = closed_form_correlations(*_box())
    assert np.array_equal(out["quantum"], [_formation(c) for c in out["concurrence"].tolist()])


def test_no_output_is_negative_zero():
    for out in (closed_form_correlations(*_box()), closed_form_correlations(GAMMAS, 1e200, 1e200, 1.0)):
        for name in OUTPUTS:
            assert not np.signbit(out[name]).any(), name


def test_ising_point_with_a_vanishing_field_difference():
    # at gamma = 1 the |ud>, |du> block does not mix, also where r (r + |b1 - b2|) underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert closed_form_correlations(1.0, 1e-170, 0.0, 1.0) == closed_form_correlations(1.0, 0.0, 0.0, 1.0)


def test_a_field_difference_whose_square_overflows_matches_dense_and_reference():
    # (b1 - b2)^2 = 1e400 overflows, so the levels come from the overflow
    # branch; at T = 1e200 all four populations are of order 1
    assert_gibbs_matches_dense_and_reference(0.0, 5e199, -5e199, 1e200)


def test_a_field_difference_past_half_the_largest_float_keeps_every_level():
    # at b1 = T = 1e308 the levels 2r and (1+gamma) + r + sigma pass the largest float, so the kernel forms
    # them at half scale: |uu> and the upper mixed level keep their weight e^-2 / (2 + 2 e^-2) = 0.0596,
    # and the state is the product (0.119 |u><u| + 0.881 |d><d|) x I/2, whose concurrence is exactly 0
    point = (0.0, 1e308, 0.0, 1e308)
    want = mp_reference(*point)
    for got, value in zip(sorted(_x_form(*point)[:4]), want["populations"]):
        assert abs(got - float(value)) < 1e-15 * float(value)
    out = closed_form_correlations(*point)
    assert out["concurrence"] == float(want["concurrence"]) == 0.0
    for name in OUTPUTS:
        assert abs(out[name] - float(want[name])) < 1e-13, name


def test_a_subnormal_coherence_is_rounded_once():
    # at b1 = b2 = 0 and T ~ 1e308 the coherence (p_lo - p_hi) (1 - gamma) / 2r is subnormal; _x_form divides
    # by 2r in one rounding, and its fork's other form, numerator / r * 0.5 (kept for a 2r that overflows),
    # would round twice and land 0.80 ulp off, against 0.20.  The dense route needs about 360 digits to see
    # an entry 1e-309 beside populations near 0.25
    gamma, t = 0.5450296273265802, 1.2435284534052465e308
    want = mp_reference(gamma, 0.0, 0.0, t, digits=400)["coherence"]
    with mp.workdps(50):
        assert mp.nstr(want, 50) == "9.1467624127847768203777440421362712290766790371439e-310"
        assert abs(mp.mpf(_x_form(gamma, 0.0, 0.0, t)[6]) - want) < mp.mpf(2) ** -1075  # the nearest float


# Corners of the kernel: extreme temperatures, fields whose square or
# doubled splitting overflows, the r = 0 point and its neighbour, strong
# uniform fields, and a box point whose total correlation is tiny.
KERNEL_CORNERS = (
    (0.4, 0.7, -1.1, 1e-320),
    (-1.0, 1e13, 0.0, 1e-300),
    (0.0, 0.0, 0.0, 1e-300),
    (0.4, 0.7, -1.1, 1e300),
    (-1.0, 1e160, 0.0, 1.0),
    (0.3, 0.0, -1e160, 1e-3),
    (-1.0, 1e308, 0.0, 1.0),
    (0.9, -1e308, 0.0, 1e300),
    (1.0, 0.0, 0.0, 0.7),
    (1.0, 0.5, 0.5, 0.02),
    (1.0, 1e-170, 0.0, 1.0),
    (-1.0, 1e200, 1e200, 1.0),
    (1.0, -1e200, -1e200, 1e-300),
    (0.99989988, -3.09898549, -3.29893479, 0.18741016),
)


def test_arrays_map_the_scalar_kernel_bit_for_bit():
    gamma, b1, b2, t = (np.concatenate([v, corner]) for v, corner in zip(_box(), zip(*KERNEL_CORNERS)))
    scales = np.array([1.0, 2.5])
    out = closed_form_correlations(gamma[:, None], b1[:, None], b2[:, None], t[:, None] * scales)
    assert all(out[name].shape == (gamma.size, 2) for name in OUTPUTS)
    for k, point in enumerate(zip(gamma.tolist(), b1.tolist(), b2.tolist(), t.tolist())):
        for m, scale in enumerate(scales.tolist()):
            one = closed_form_correlations(*point[:3], point[3] * scale)
            for name in OUTPUTS:
                assert type(one[name]) is float
                assert one[name].hex() == float(out[name][k, m]).hex(), (point, scale, name)


# The r = 0 point, fields whose difference is 2e300, extreme temperatures and
# a negative zero field, each at three anisotropies; then KERNEL_CORNERS.
DIGEST_EDGES = [
    (gamma, b1, b2, t)
    for gamma in (-1.0, 0.4, 1.0)
    for b1, b2 in ((0.0, 0.0), (1.0, 1.0), (-0.0, 0.5), (-0.0, -0.0), (1e300, -1e300), (-1e300, 1e300))
    for t in (1e-300, 0.3, 1e300)
] + list(KERNEL_CORNERS)

# sha256 of the float.hex of every output over 2,000 box points and
# DIGEST_EDGES, recorded from the closed form as it stood before the kernel
# moved onto flat locals.  Any change to the kernel's arithmetic moves them:
# a deliberate accuracy fix must re-record them, and a refactor must not.
KERNEL_DIGESTS = {
    "closed_form_correlations": "e042bd25950d2ba7b275ee58335c04476a22c82e10c19dc08c6066e2a883462d",
    "thermal_state_analytic": "d7e9f4be25fe3841bf5deca9d3f2d8bb3c191a8d20c3b80f1ae1eac05bb09320",
}


def _digest(arrays):
    text = " ".join(v.hex() for a in arrays for v in np.asarray(a, dtype=float).ravel().tolist())
    return hashlib.sha256(text.encode()).hexdigest()


def _kernel_digests():
    points = [np.concatenate([v, edge]) for v, edge in zip(_box(n=2000, seed=19), zip(*DIGEST_EDGES))]
    out = closed_form_correlations(*points)
    rho = thermal_state_analytic(*points)
    return {
        "closed_form_correlations": _digest(out[name] for name in OUTPUTS),
        "thermal_state_analytic": _digest([rho.real, rho.imag]),
    }


def test_kernel_bits_are_pinned():
    # the other tests here hold the kernel to references within bounds; this
    # one holds every bit of it, over 2,000 box points and the edges above
    assert _kernel_digests() == KERNEL_DIGESTS


def test_results_broadcast():
    out = closed_form_correlations(0.2, np.linspace(-1.0, 1.0, 5)[:, None], 0.5, [0.5, 1.0, 2.0])
    for name in OUTPUTS:
        assert out[name].shape == (5, 3)
    one = closed_form_correlations(0.2, 1.0, 0.5, 1.0)
    assert float(one["total"]) == out["total"][4, 1]


def test_numpy_scalars_are_numbers():
    args = (np.float32(0.25), np.int64(1), np.float64(-0.5), np.float32(0.5))
    floats = [float(a) for a in args]
    out, expected = closed_form_correlations(*args), closed_form_correlations(*floats)
    for name in OUTPUTS:
        assert type(out[name]) is float
        assert out[name].hex() == expected[name].hex(), name
    assert np.array_equal(thermal_state_analytic(*args), thermal_state_analytic(*floats))
    # a 0-d array is an array, not a number
    held = closed_form_correlations(*floats[:3], np.array(0.5))
    assert all(type(held[name]) is np.ndarray and held[name].shape == () for name in OUTPUTS)


def test_empty_inputs_give_empty_arrays():
    out = closed_form_correlations(np.array([]), 0.0, 0.0, 1.0)
    for name in OUTPUTS:
        assert out[name].dtype == float and out[name].shape == (0,)
    rho = thermal_state_analytic([], [], [], [])
    assert rho.dtype == complex and rho.shape == (0, 4, 4)


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
        ((0.0, 0.0, 0.0, -1.0), "temperature"),
        ((0.0, 0.0, 0.0, [1.0, -np.inf]), "temperature"),
        ((0.0, 1e308, 1e308, 1.0), r"b1 \+ b2"),
        ((0.0, [0.0, 1e308], -1e308, 1.0), "b1 - b2"),
    ],
)
def test_rejects_inputs_outside_the_domain(args, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=name):
            closed_form_correlations(*args)
