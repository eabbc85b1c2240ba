"""The fault panel: each fault, injected by monkeypatch, must fail the check named for it.

A check that no fault can fail shows nothing.  Each fault here replaces one
piece of the program with a plausible bug and leaves every source file as it
is.  A fault on the dense route must make ``run_suites`` report the named
suite failed; a fault in the writer or the threshold solver must make the
named test raise AssertionError.
"""

import math

import pytest
import test_cli  # the named tests are reached through their modules, so pytest collects them once
import test_threshold

from dimercorr import threshold
from dimercorr.domain import RECORD_COLUMNS
from dimercorr.models import build_hamiltonian
from dimercorr.verify import run_suites


def _identity(rho):
    return rho


def _flipped_yy_sign(gamma, b1, b2):
    """build_hamiltonian with sy x sy added at the wrong sign: only H[1,2] and H[2,1] change."""
    h = build_hamiltonian(gamma, b1, b2)  # models' own function, which the patch on verify leaves alone
    h[..., [1, 2], [2, 1]] *= -1.0
    return h


@pytest.mark.parametrize(
    ("suite", "target", "fault"),
    [
        # every state reads as separable, so each entangled one disagrees with its concurrence
        ("ppt", "dimercorr.correlations._partial_transpose", _identity),
        # the wootters suite passes this fault: the concurrence reads |rho23| only, which the sign leaves
        ("gibbs", "dimercorr.verify.build_hamiltonian", _flipped_yy_sign),
    ],
    ids=["identity_partial_transpose", "flipped_yy_sign"],
)
def test_fault_fails_its_suite(monkeypatch, suite, target, fault):
    assert all(result.passed for result in run_suites(suite))
    monkeypatch.setattr(target, fault)
    results = run_suites(suite)
    assert results and not any(result.passed for result in results)


def _unfolded_record_columns(columns):
    """cli._record_columns without the + 0.0 that folds -0.0 into 0."""
    return [[float(v) for v in columns[name]] for name in RECORD_COLUMNS]


def _shifted_threshold(floats):
    """threshold._threshold with its result moved ``floats`` adjacent floats up, or down when negative."""
    solve = threshold._threshold

    def shifted(gamma, delta):
        t = solve(gamma, delta)
        for _ in range(abs(floats)):
            t = math.nextafter(t, math.copysign(math.inf, floats))
        return t

    return shifted


def _pinned_json_sweep(capsys):
    test_cli.test_cli_bytes_are_pinned(capsys, "sweep --temp 1 --axis b_anti=-1:1:3 --format json")


def _bisection_float_test(capsys):
    test_threshold.test_solver_returns_the_bisection_float()


@pytest.mark.parametrize(
    ("target", "fault", "check"),
    [
        # b_anti = 0 writes b2 = -0.0: of the pinned lines, only this one then prints "-0"
        ("dimercorr.cli._record_columns", _unfolded_record_columns, _pinned_json_sweep),
        ("dimercorr.threshold._threshold", _shifted_threshold(1), _bisection_float_test),
        # stopping 4 ulps early
        ("dimercorr.threshold._threshold", _shifted_threshold(-4), _bisection_float_test),
    ],
    ids=["unfolded_negative_zero", "threshold_one_float_up", "threshold_four_floats_down"],
)
def test_fault_fails_its_test(monkeypatch, capsys, target, fault, check):
    monkeypatch.setattr(target, fault)
    with pytest.raises(AssertionError):
        check(capsys)
