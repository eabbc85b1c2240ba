"""Threshold temperatures: closed-form inversion and numeric scanning."""

import math

import numpy as np
import pytest

from dimercorr.correlations import concurrence
from dimercorr.exceptions import DomainError
from dimercorr.models import ModelParams, concurrence_analytic, thermal_state, thermal_state_analytic
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
        p = ModelParams(gamma=gamma)
        assert concurrence_analytic(p, 0.99 * t) > 0.0
        assert concurrence_analytic(p, 1.01 * t) == 0.0


def test_pipeline_concurrence_agrees_near_threshold():
    # the full eigenvalue route sees the same sign change
    for gamma in (-1.0, 0.0):
        t = tth_anisotropic(gamma)
        p = ModelParams(gamma=gamma)
        assert concurrence(thermal_state_analytic(p, 0.95 * t)) > 1e-4
        assert concurrence(thermal_state_analytic(p, 1.05 * t)) < 1e-12


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


def test_numeric_threshold_rejects_non_finite_range():
    for t_max in (math.nan, math.inf):
        with pytest.raises(DomainError, match="t_max"):
            tth_numeric(ModelParams(gamma=0.0), t_max)


def test_numeric_threshold_with_fields_off_the_xy_point():
    # no closed-form threshold here: check the sign change against the dense route
    p = ModelParams(gamma=0.4, b1=0.3, b2=-0.6)
    t = tth_numeric(p, 5.0)
    assert t is not None
    assert concurrence(thermal_state(p, t - 1e-4)) > 1e-9
    assert concurrence(thermal_state(p, t + 1e-4)) < 1e-9


def test_numeric_threshold_stops_at_float_resolution():
    # at J = 1e9 the threshold sits near 1.8e9, where adjacent floats are
    # more than 1e-8 apart, so the bracket can only shrink to one ulp
    t = tth_numeric(ModelParams(gamma=0.0, j=1e9), 5e9)
    assert abs(t / 1e9 - tth_anisotropic(0.0)) < 1e-9
