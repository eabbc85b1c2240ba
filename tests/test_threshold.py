"""Threshold temperatures: the one root of the sign equation, against 60-digit roots and the dense route."""

import math
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from dimercorr.correlations import concurrence
from dimercorr.domain import DomainError
from dimercorr.matkernel import _partial_transpose, gibbs
from dimercorr.models import (
    ModelParams,
    build_hamiltonian,
    closed_form_correlations,
    thermal_state,
    thermal_state_analytic,
)
from dimercorr.threshold import threshold_curve, tth_anisotropic, tth_numeric

ROOT_TOL = 4.4e-16  # two units of 2^-52 relative: the root to its last bit or two


def mp_threshold(gamma, delta):
    """The threshold at 60 digits: the root in u = 1/T of (1+gamma) u + ln sinh(r u) + ln((1-gamma) / r)."""
    with mp.workdps(60):
        gamma, delta = mp.mpf(gamma), mp.mpf(delta)
        r = mp.sqrt(delta**2 + (1 - gamma) ** 2)

        def g(u):
            return (1 + gamma) * u + mp.log(mp.sinh(r * u)) + mp.log((1 - gamma) / r)

        lo = hi = mp.mpf(1)  # g increases: widen one side until the sign changes
        while g(lo) > 0:
            lo /= 2
        while g(hi) <= 0:
            hi *= 2
        return 1 / mp.findroot(g, (lo, hi), solver="anderson")


def relative_error(t, root):
    return float(abs(mp.mpf(t) - root) / root)


def test_isotropic_threshold():
    # gamma=0: (T/2) ln(e^{2/T} - 2) = 0 solves to T = 2 / ln 3
    assert abs(tth_anisotropic(0.0) - 2.0 / math.log(3.0)) < 1e-6


def test_extreme_anisotropy_threshold():
    # gamma=-1: T = 2 / ln(1 + sqrt 2), the same point where sinh(2/T) = 1
    assert abs(tth_anisotropic(-1.0) - 2.0 / math.log(1.0 + math.sqrt(2.0))) < 1e-6


def test_half_anisotropy_threshold():
    # substituting T = 2 / ln 4 gives (1/ln 4) ln 2 = 1/2 exactly
    assert abs(tth_anisotropic(0.5) - 2.0 / math.log(4.0)) < 1e-6


def test_ising_limit_is_degenerate():
    assert tth_anisotropic(1.0) == 0.0
    (point,) = threshold_curve([1.0])
    assert point.degenerate
    assert point.t_th == 0.0


def test_threshold_rejects_out_of_range_gamma():
    with pytest.raises(DomainError):
        tth_anisotropic(1.5)
    with pytest.raises(DomainError):
        tth_anisotropic(-1.01)


def test_numpy_scalar_gamma_is_a_float():
    # float32 arithmetic would move the root in its eighth digit
    gamma = np.float32(0.3)
    assert tth_anisotropic(gamma) == tth_anisotropic(float(gamma))
    assert type(tth_anisotropic(gamma)) is float


@pytest.mark.parametrize("gamma", [np.array([0.1]), np.zeros((2, 1)), 2.0, -1.01, math.nan])
def test_gamma_passes_the_point_gate(gamma):
    # tth_anisotropic checks its gamma as ModelParams does: the same error, word for word
    with pytest.raises(ValueError) as gate:
        ModelParams(gamma)
    with pytest.raises(ValueError) as raised:
        tth_anisotropic(gamma)
    assert (type(raised.value), str(raised.value)) == (type(gate.value), str(gate.value))


def test_threshold_roundtrip():
    # feeding the solved T back through the defining equation recovers gamma
    for gamma in np.linspace(-1.0, 0.99, 50):
        t = tth_anisotropic(float(gamma))
        recovered = 0.5 * t * math.log(math.exp(2.0 / t) - 2.0)
        assert abs(recovered - gamma) < 1e-8


def test_threshold_curve_is_strictly_decreasing():
    points = threshold_curve(np.linspace(-1.0, 1.0, 100))
    values = [p.t_th for p in points]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert points[0].gamma == -1.0
    assert not points[0].degenerate


def test_concurrence_changes_sign_at_threshold():
    for gamma in (-1.0, -0.4, 0.0, 0.6, 0.95):
        t = tth_anisotropic(gamma)
        assert closed_form_correlations(gamma, 0.0, 0.0, 0.99 * t)["concurrence"] > 0.0
        assert closed_form_correlations(gamma, 0.0, 0.0, 1.01 * t)["concurrence"] == 0.0


def test_pipeline_concurrence_agrees_near_threshold():
    # the full eigenvalue route sees the same sign change
    for gamma in (-1.0, 0.0):
        t = tth_anisotropic(gamma)
        p = ModelParams(gamma=gamma)
        assert concurrence(thermal_state_analytic(*p, 0.95 * t)) > 1e-4
        assert concurrence(thermal_state_analytic(*p, 1.05 * t)) < 1e-12


def test_numeric_threshold_matches_closed_form():
    for gamma in (-1.0, -0.5, 0.0, 0.5):
        direct = tth_anisotropic(gamma)
        scanned = tth_numeric(ModelParams(gamma=gamma))
        assert abs(scanned - direct) < 1e-6


def test_numeric_threshold_ignores_uniform_fields():
    # XY thresholds do not move with a uniform field
    reference = tth_numeric(ModelParams(gamma=-1.0))
    for b in (0.5, 1.5):
        shifted = tth_numeric(ModelParams(gamma=-1.0, b1=b, b2=b))
        assert abs(shifted - reference) < 1e-6


def test_numeric_threshold_with_opposite_fields():
    # delta=2 widens the central gap: sinh(sqrt(8)/T) sqrt(2)/2... solves
    # to T = sqrt(8) / asinh(sqrt 2)
    expected = math.sqrt(8.0) / math.asinh(math.sqrt(2.0))
    found = tth_numeric(ModelParams(gamma=-1.0, b1=1.0, b2=-1.0))
    assert abs(found - expected) < 1e-6


def test_numeric_threshold_zero_when_never_entangled():
    # the Ising state is never entangled at any T > 0: the threshold is the limit 0.0, as tth_anisotropic gives
    for b1, b2 in ((0.0, 0.0), (0.5, 0.5), (1.0, -1.0)):
        found = tth_numeric(ModelParams(1.0, b1, b2))
        assert found == 0.0 and type(found) is float


@pytest.mark.parametrize(
    ("params", "expected"),
    [
        ((0.4, 0.3, -0.6), "0x1.9370c4d9f033ep+0"),
        ((0.0, 0.0, 0.0), "0x1.d20ae03bcc152p+0"),
        ((-1.0, 1.05, 1.05), "0x1.2274aa148de08p+1"),
        ((0.9, 0.0, 0.0), "0x1.c0a48b11e4a16p-1"),
        ((-0.5, 2.0, -1.0), "0x1.3b178fbb764b2p+1"),
        ((-1.0, 1.0, -1.0), "0x1.3bdb078ec9658p+1"),
        ((0.3, 0.7, 0.7), "0x1.9d741a91fa4f8p+0"),
    ],
)
def test_numeric_threshold_bits_are_pinned(params, expected):
    # recorded from the sign-of-g solver; each lies within 1.2e-16 relative of
    # its 60-digit root, so a change that moves one bit must say why
    assert tth_numeric(ModelParams(*params)).hex() == expected


def test_numeric_threshold_with_fields_off_the_xy_point():
    # no closed-form threshold here: check the sign change against the dense route
    p = ModelParams(gamma=0.4, b1=0.3, b2=-0.6)
    t = tth_numeric(p)
    assert concurrence(thermal_state(p, t - 1e-4)) > 1e-9
    assert concurrence(thermal_state(p, t + 1e-4)) < 1e-9


def test_numeric_threshold_loads_no_numpy():
    code = (
        "import sys; from dimercorr.models import ModelParams; from dimercorr.threshold import tth_numeric; "
        "assert tth_numeric(ModelParams(-1.0, 0.5, -0.5)) > 0.0; assert 'numpy' not in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "params",
    [
        *(ModelParams(gamma) for gamma in (-1.0, 0.0, 0.5)),
        ModelParams(0.4, 0.3, -0.6),
        # opposite fields of 1e10 put the threshold near 8.2e8, where adjacent
        # floats are 1.2e-7 apart
        ModelParams(0.0, 1e10, -1e10),
    ],
    ids=["gamma=-1", "gamma=0", "gamma=0.5", "off-xy", "fields=1e10"],
)
def test_numeric_threshold_stops_at_float_resolution(params):
    # the root of g and the closed-form kernel's own sign change of C agree to
    # a few ulps: C > 0 four ulps below the result and C = 0 four ulps above
    t = tth_numeric(params)
    step = 4.0 * math.ulp(t)
    below, above = (
        closed_form_correlations(params.gamma, params.b1, params.b2, t + d)["concurrence"] for d in (-step, step)
    )
    assert below > 0.0 == above


ZERO_FIELD_GAMMAS = (-1.0, 0.0, 0.5, 0.9, 0.99999, 1.0 - 1e-9, 1.0 - 1e-15)


def _box_points(n, seed, gamma_max):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(-1.0, gamma_max, n)
    b1, b2 = rng.uniform(-5.0, 5.0, (2, n))
    return [ModelParams(*point) for point in zip(gamma.tolist(), b1.tolist(), b2.tolist())]


def test_thresholds_match_sixty_digit_roots():
    for gamma in ZERO_FIELD_GAMMAS:
        t = tth_anisotropic(gamma)
        assert relative_error(t, mp_threshold(gamma, 0.0)) <= ROOT_TOL, gamma
    for p in _box_points(60, seed=2101, gamma_max=0.999):
        t = tth_numeric(p)
        assert relative_error(t, mp_threshold(p.gamma, abs(p.b1 - p.b2))) <= ROOT_TOL, p


_BIG = sys.float_info.max
# gamma = -1, gamma -> 1, and field differences up to the largest finite
# b1 - b2 that ModelParams accepts, where the threshold nears 1e305
EDGE_POINTS = [
    ModelParams(-1.0),
    ModelParams(1.0 - 2.0**-53),
    ModelParams(1.0 - 2.0**-53, 1.0, -1.0),
    ModelParams(-1.0, _BIG, 0.0),
    ModelParams(0.0, _BIG / 2.0, -_BIG / 2.0),
    ModelParams(1.0 - 2.0**-53, _BIG / 2.0, -_BIG / 2.0),
    ModelParams(0.0, 1e10, -1e10),
    ModelParams(0.5, 1e-300, -1e-300),
]


def test_thresholds_at_the_edges_of_the_domain():
    for p in EDGE_POINTS:
        t = tth_numeric(p)
        assert math.isfinite(t) and t > 0.0, p
        assert relative_error(t, mp_threshold(p.gamma, abs(p.b1 - p.b2))) <= ROOT_TOL, p


def bisection_threshold(gamma, delta):
    """The former solver: bisect the sign of g in T from its doubling bracket down to adjacent floats."""
    gap = 1.0 - gamma
    r = math.hypot(delta, gap)
    offset = math.log(gap) - math.log(r) - math.log(2.0)

    def entangled(t):
        x = r / t
        return (1.0 + gamma) / t + x + math.log(-math.expm1(-2.0 * x)) + offset > 0.0

    lo = hi = 1.0
    while entangled(hi):
        lo, hi = hi, 2.0 * hi
    while not entangled(lo):
        lo, hi = 0.5 * lo, lo
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return mid
        if entangled(mid):
            lo = mid
        else:
            hi = mid


def _bisection_panel():
    """(gamma, b1, b2) points: the CLI's grid, the zero-field list, the domain's edges, gamma ladders and a seeded box."""
    gammas = np.linspace(-1.0, 0.99, 100).tolist() + list(ZERO_FIELD_GAMMAS)
    points = [(g, 0.0, 0.0) for g in gammas] + EDGE_POINTS
    # gamma = +-(1 - 2^-k): at delta = 0 the solver starts at u = ln2 / 2 for
    # every gamma while the root runs out to u ≈ 18, its farthest start
    ladder = [s * (1.0 - 2.0**-k) for k in range(1, 54) for s in (1.0, -1.0)]
    for half in (0.0, 0.5e-300, 0.5, 0.5e10, _BIG / 2.0):
        points += [(g, half, -half) for g in ladder]
    rng = np.random.default_rng(2401)
    gamma = rng.uniform(-1.0, 1.0, 2000)
    b1, b2 = rng.uniform(-5.0, 5.0, (2, 2000))
    points += zip(gamma.tolist(), b1.tolist(), b2.tolist())
    # field differences log-uniform from 1e-300 out to the largest float, as +-half on each spin
    half = 0.5 * 10.0 ** rng.uniform(-300.0, math.log10(_BIG), 200)
    points += zip(rng.uniform(-1.0, 1.0, 200).tolist(), half.tolist(), (-half).tolist())
    return points


def test_solver_returns_the_bisection_float():
    # Newton steps and a float-by-float walk land on the same adjacent pair
    # as bisection, so every threshold keeps its bits
    for gamma, b1, b2 in _bisection_panel():
        expected = bisection_threshold(gamma, abs(b1 - b2)).hex()
        assert tth_numeric(ModelParams(gamma, b1, b2)).hex() == expected, (gamma, b1, b2)
        if b1 == b2:
            assert tth_anisotropic(gamma).hex() == expected, gamma


# the most float-by-float steps the solver may take after its Newton steps,
# and the most evaluations of g per root; the panel above needs at most 4 and 11
WALK_STEPS = 8
EVALUATIONS = 16
# how many panel points take each number of evaluations of g: a start or a
# step that moves changes it, even where the result keeps its bits
EVALUATION_COUNTS = {3: 274, 4: 68, 5: 149, 6: 700, 7: 881, 8: 615, 9: 140, 10: 17, 11: 1}


def test_newton_stops_a_few_floats_from_the_root(monkeypatch):
    from dimercorr import threshold

    steps, evaluations = [], []

    def nextafter(x, y):
        steps.append(x)
        assert len(steps) <= WALK_STEPS, steps  # fails fast where a bad start would walk far
        return math.nextafter(x, y)

    def expm1(x):  # called once per evaluation of g, in the sign test and in the Newton step
        evaluations.append(x)
        assert len(evaluations) <= EVALUATIONS, evaluations  # fails fast where Newton would run on
        return math.expm1(x)

    patched = {**vars(math), "nextafter": nextafter, "expm1": expm1}
    monkeypatch.setattr(threshold, "math", SimpleNamespace(**patched))
    counts = Counter()
    for gamma, b1, b2 in _bisection_panel():
        steps.clear()
        evaluations.clear()
        tth_numeric(ModelParams(gamma, b1, b2))
        assert steps, (gamma, b1, b2)
        counts[len(evaluations)] += 1
    assert counts == EVALUATION_COUNTS


def test_a_walk_that_finds_no_sign_change_fails_fast(monkeypatch):
    from dimercorr import threshold

    calls = []

    def nextafter(x, y):  # a walk that never moves, as if Newton had stopped far from the root
        calls.append(x)
        assert len(calls) <= 1000, "the walk is unbounded"
        return x

    monkeypatch.setattr(threshold, "math", SimpleNamespace(**{**vars(math), "nextafter": nextafter}))
    with pytest.raises(RuntimeError, match=r"gamma = 0\.3, \|b1 - b2\| = 0\.5"):
        tth_numeric(ModelParams(0.3, 0.5, 0.0))


def test_uniform_fields_give_the_zero_field_threshold_bit_for_bit():
    # the threshold depends on (gamma, |b1 - b2|) only, so equal fields change nothing
    for gamma in (-1.0, -0.3, 0.0, 0.6, 0.999, 1.0):
        for b in (0.0, -0.0, 0.5, -1.5, 5.0, 1e300):
            assert tth_numeric(ModelParams(gamma, b, b)) == tth_anisotropic(gamma)


# the dense eigenvalue's absolute rounding moves its sign change by about
# 2^-53 / |T d(lambda_min)/dT| relative; the worst of 165 points (gamma in
# [-1, 0.9], |b| <= 5, seeds 21-24, plus zero-field gammas) measured 6.7
# times that, the strongest uniform fields where lambda_min is flattest
DENSE_ROUNDING_UNITS = 8.0


def _dense_min_eigenvalue(h, t):
    """Smallest eigenvalue of the partial transpose of the dense Gibbs state: negative iff entangled."""
    return float(np.linalg.eigvalsh(_partial_transpose(gibbs(h, t)))[0])


def _dense_threshold(p, lo=0.5, hi=8.0):
    """Bisect the Peres-Horodecki sign of the dense route to adjacent floats; shares no formula with g."""
    h = build_hamiltonian(*p)
    assert _dense_min_eigenvalue(h, lo) < 0.0 <= _dense_min_eigenvalue(h, hi)
    while True:
        mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return mid, h
        if _dense_min_eigenvalue(h, mid) < 0.0:
            lo = mid
        else:
            hi = mid


def test_dense_partial_transpose_route_finds_the_same_threshold():
    panel = [ModelParams(g) for g in (-1.0, -0.5, 0.0, 0.5, 0.9)] + _box_points(12, seed=2102, gamma_max=0.9)
    for p in panel:
        dense, h = _dense_threshold(p)
        root = mp_threshold(p.gamma, abs(p.b1 - p.b2))
        t = float(root)
        step = 1e-6 * t
        lever = abs(t * (_dense_min_eigenvalue(h, t + step) - _dense_min_eigenvalue(h, t - step)) / (2.0 * step))
        assert relative_error(dense, root) <= DENSE_ROUNDING_UNITS * 2.0**-53 / lever, p
        assert relative_error(tth_numeric(p), root) <= ROOT_TOL, p


def test_cli_prints_the_rounded_roots():
    # every t_th printed is the 60-digit root rounded to 12 significant digits
    proc = subprocess.run(
        [sys.executable, "-m", "dimercorr", "threshold", "--gamma", "-1:0.99:100"],
        capture_output=True,
        text=True,
        check=True,
    )
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    gammas = np.linspace(-1.0, 0.99, 100).tolist()
    assert len(rows) == len(gammas)
    for gamma, (_, printed, _) in zip(gammas, rows):
        assert printed == f"{float(mp.nstr(mp_threshold(gamma, 0.0), 12)):.12g}", gamma
