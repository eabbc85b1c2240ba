"""The fault panel: each fault, injected by monkeypatch, must fail the check named for it.

A check that no fault can fail shows nothing.  Each fault here replaces one
piece of the program with a plausible bug and leaves every source file as it
is.  A fault on either route must make ``run_suites`` report the named
suite failed (and ``verify`` exit 4); a fault in the writer or the
threshold solver must make the named test raise AssertionError, or the
solver raise RuntimeError at once rather than run on.
"""

import math
import time
from types import SimpleNamespace

import pytest
import test_cli  # the named tests are reached through their modules, so pytest collects them once
import test_sweep
import test_threshold

from dimercorr import cli, threshold
from dimercorr.cli import main
from dimercorr.domain import ModelParams
from dimercorr.models import build_hamiltonian, closed_form_correlations
from dimercorr.sweep import Axis
from dimercorr.verify import run_suites


def _identity(rho):
    return rho


def _flipped_yy_sign(gamma, b1, b2):
    """build_hamiltonian with sy x sy added at the wrong sign: only H[1,2] and H[2,1] change."""
    h = build_hamiltonian(gamma, b1, b2)  # models' own function, which the patch on verify leaves alone
    h[..., [1, 2], [2, 1]] *= -1.0
    return h


def _scaled_concurrence(gamma, b1, b2, t):
    """closed_form_correlations with the concurrence 1e-6 relative too large: only entangled points move."""
    out = closed_form_correlations(gamma, b1, b2, t)  # models' own function, which the patch on verify leaves alone
    out["concurrence"] = out["concurrence"] * (1.0 + 1e-6)
    return out


@pytest.mark.parametrize(
    ("suite", "target", "fault"),
    [
        # every state reads as separable, so each entangled one disagrees with its concurrence
        ("ppt", "dimercorr.correlations._partial_transpose", _identity),
        # the wootters suite passes this fault: the concurrence reads |rho23| only, which the sign leaves
        ("gibbs", "dimercorr.verify.build_hamiltonian", _flipped_yy_sign),
        # each of its two panels has unentangled points, where the deviation stays 0: only its worst point shows
        ("wootters", "dimercorr.verify.closed_form_correlations", _scaled_concurrence),
    ],
    ids=["identity_partial_transpose", "flipped_yy_sign", "scaled_concurrence"],
)
def test_fault_fails_its_suite(monkeypatch, suite, target, fault):
    assert all(result.passed for result in run_suites(suite))
    monkeypatch.setattr(target, fault)
    results = run_suites(suite)
    assert results and not any(result.passed for result in results)


def test_a_failed_suite_exits_4_and_names_it(monkeypatch, capsys):
    monkeypatch.setattr("dimercorr.correlations._partial_transpose", _identity)
    assert main(["verify", "--suite", "ppt"]) == 4
    captured = capsys.readouterr()
    assert "  FAIL  " in captured.out and "checks passed" not in captured.out
    assert captured.err.startswith("verification failed: 1 check(s); worst residual ")
    assert captured.err.endswith(" from ppt\n")


def _unfolded_tokens(column):
    """cli._tokens without the + 0.0 that folds -0.0 into 0."""
    return [cli._json_number(v) for v in column]


def _mirror_size_of_counts(spec):
    """sweep._mirror_size that takes any b1 x b2 map with equal point counts for a map over one grid."""
    axis1, axis2 = spec.axis1, spec.axis2
    if axis2 is None or {axis1.name, axis2.name} != {"b1", "b2"} or axis1.points != axis2.points:
        return 0
    return axis1.points


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


def _unequal_field_grids_test(capsys):
    axis1, axis2 = Axis("b1", -3.0, 3.0, 7), Axis("b2", -3.0, 2.0, 7)
    with pytest.MonkeyPatch.context() as patch:
        test_sweep.test_a_map_on_one_grid_evaluates_each_field_pair_once(patch, axis1, axis2, 7 * 7)


def _bisection_float_test(capsys):
    test_threshold.test_solver_returns_the_bisection_float()


@pytest.mark.parametrize(
    ("target", "fault", "check"),
    [
        # b_anti = 0 writes b2 = -0.0: of the pinned lines, only this one then prints "-0"
        ("dimercorr.cli._tokens", _unfolded_tokens, _pinned_json_sweep),
        # two 7-point field grids that differ: the map must evaluate all 49 points, not 28
        ("dimercorr.sweep._mirror_size", _mirror_size_of_counts, _unequal_field_grids_test),
        ("dimercorr.threshold._threshold", _shifted_threshold(1), _bisection_float_test),
        # stopping 4 ulps early
        ("dimercorr.threshold._threshold", _shifted_threshold(-4), _bisection_float_test),
    ],
    ids=["unfolded_negative_zero", "mirror_of_equal_counts", "threshold_one_float_up", "threshold_four_floats_down"],
)
def test_fault_fails_its_test(monkeypatch, capsys, target, fault, check):
    monkeypatch.setattr(target, fault)
    with pytest.raises(AssertionError):
        check(capsys)


def test_a_failed_verify_names_its_worst_residual(monkeypatch, capsys):
    monkeypatch.setattr("dimercorr.verify.closed_form_correlations", _scaled_concurrence)
    assert main(["verify", "--suite", "wootters"]) == 4
    captured = capsys.readouterr()
    residuals = [float(line.split("residual ")[1].split()[0]) for line in captured.out.splitlines()]
    assert len(residuals) == 2 and residuals[0] != residuals[1]
    assert captured.err == f"verification failed: 2 check(s); worst residual {max(residuals):.3e} from wootters\n"


def test_newton_that_never_reaches_the_root_raises(monkeypatch):
    calls = []

    def expm1(x):
        # -1e-12 at every x: g reads about -27 and its slope 2e12 too steep, so
        # each Newton step climbs about 1e-11 and none reaches the root
        calls.append(x)
        assert len(calls) <= 1000, "the Newton steps are unbounded"
        return -1e-12

    monkeypatch.setattr(threshold, "math", SimpleNamespace(**{**vars(math), "expm1": expm1}))
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"Newton did not stop .* gamma = 0\.3, \|b1 - b2\| = 0\.5"):
        threshold.tth_numeric(ModelParams(0.3, 0.5, 0.0))
    assert time.perf_counter() - start < 1.0
