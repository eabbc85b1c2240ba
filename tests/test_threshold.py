"""Threshold temperatures: closed-form inversion and numeric scanning."""

import math
import subprocess
import sys

import numpy as np
import pytest

from dimercorr.correlations import concurrence
from dimercorr.exceptions import DomainError
from dimercorr.models import ModelParams, closed_form_correlations, thermal_state, thermal_state_analytic
from dimercorr.threshold import threshold_curve, tth_anisotropic, tth_numeric


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
        scanned = tth_numeric(ModelParams(gamma=gamma), 5.0)
        assert scanned is not None
        assert abs(scanned - direct) < 1e-6


def test_numeric_threshold_ignores_uniform_fields():
    # XY thresholds do not move with a uniform field
    reference = tth_numeric(ModelParams(gamma=-1.0), 5.0)
    for b in (0.5, 1.5):
        shifted = tth_numeric(ModelParams(gamma=-1.0, b1=b, b2=b), 5.0)
        assert abs(shifted - reference) < 1e-6


def test_numeric_threshold_with_opposite_fields():
    # delta=2 widens the central gap: sinh(sqrt(8)/T) sqrt(2)/2... solves
    # to T = sqrt(8) / asinh(sqrt 2)
    expected = math.sqrt(8.0) / math.asinh(math.sqrt(2.0))
    found = tth_numeric(ModelParams(gamma=-1.0, b1=1.0, b2=-1.0), 5.0)
    assert abs(found - expected) < 1e-6


def test_numeric_threshold_none_when_never_entangled():
    assert tth_numeric(ModelParams(gamma=1.0), 5.0) is None


def test_numeric_threshold_argument_checks():
    with pytest.raises(DomainError):
        tth_numeric(ModelParams(gamma=0.0), 0.0)
    with pytest.raises(DomainError, match="temperature"):  # t_max / 200 underflows to a 0 on the scan grid
        tth_numeric(ModelParams(gamma=0.0), 5e-324)


def test_numeric_threshold_rejects_non_finite_range():
    for t_max in (math.nan, math.inf, np.float64(np.inf)):
        with pytest.raises(DomainError, match="t_max"):
            tth_numeric(ModelParams(gamma=0.0), t_max)


@pytest.mark.parametrize(
    ("params", "expected"),
    [
        ((0.4, 0.3, -0.6), "0x1.9370c4d9ecc4ap+0"),
        ((0.0, 0.0, 0.0), "0x1.d20ae03bc8706p+0"),
        ((-1.0, 1.05, 1.05), "0x1.2274aa148b002p+1"),
        ((0.9, 0.0, 0.0), "0x1.c0a48b11deadap-1"),
        ((-0.5, 2.0, -1.0), "0x1.3b178fbb737eap+1"),
        ((-1.0, 1.0, -1.0), "0x1.3bdb078ec6c1ap+1"),
        ((0.3, 0.7, 0.7), "0x1.9d741a91f6a60p+0"),
        ((1.0, 0.0, 0.0), None),
    ],
)
def test_numeric_threshold_bits_are_pinned(params, expected):
    # recorded when the scan still took the clamped concurrence from the full
    # correlation kernel; the scan's predicate on the bare X-state entries must
    # land on the same float
    found = tth_numeric(ModelParams(*params), 5.0)
    assert (None if found is None else found.hex()) == expected


def test_numeric_threshold_with_fields_off_the_xy_point():
    # no closed-form threshold here: check the sign change against the dense route
    p = ModelParams(gamma=0.4, b1=0.3, b2=-0.6)
    t = tth_numeric(p, 5.0)
    assert t is not None
    assert concurrence(thermal_state(p, t - 1e-4)) > 1e-9
    assert concurrence(thermal_state(p, t + 1e-4)) < 1e-9


def test_numeric_threshold_loads_no_numpy():
    code = (
        "import sys; from dimercorr.models import ModelParams; from dimercorr.threshold import tth_numeric; "
        "assert tth_numeric(ModelParams(-1.0, 0.5, -0.5), 5.0) > 0.0; assert 'numpy' not in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "params, t_max",
    [
        *((ModelParams(gamma), 5.0) for gamma in (-1.0, 0.0, 0.5)),
        (ModelParams(0.4, 0.3, -0.6), 5.0),
        # opposite fields of 1e10 put the threshold near 8.2e8, where adjacent
        # floats are 1.2e-7 apart
        (ModelParams(0.0, 1e10, -1e10), 1e10),
    ],
    ids=["gamma=-1", "gamma=0", "gamma=0.5", "off-xy", "fields=1e10"],
)
def test_numeric_threshold_stops_at_float_resolution(params, t_max):
    # the bisection stops only when the bracket ends are adjacent floats, so
    # the concurrence crosses 1e-12 within one ulp of the result
    t = tth_numeric(params, t_max)
    step = math.ulp(t)
    below, above = (
        closed_form_correlations(params.gamma, params.b1, params.b2, t + d)["concurrence"] for d in (-step, step)
    )
    assert below > 1e-12 >= above
