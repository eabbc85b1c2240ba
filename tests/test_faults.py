"""The fault panel: each fault, injected by monkeypatch, must fail the check named for it.

A check that no fault can fail shows nothing.  Each fault here replaces one
piece of the dense route with a plausible bug, leaves every source file as
it is, and asserts that ``run_suites`` then reports the named suite failed.
"""

import pytest

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
