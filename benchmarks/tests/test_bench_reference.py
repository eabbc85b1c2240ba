"""The numpy X-state reference against a 50-digit mpmath Gibbs state.

The mpmath route shares no formula with the reference: it builds H from
Pauli products, diagonalises it, forms the Gibbs state and its marginals,
and takes the concurrence from the spectrum of sqrt(rho) rho~ sqrt(rho).
"""

import math

import mpmath as mp
import numpy as np
import pytest

from reference import correlations, threshold_temperature

mp.mp.dps = 50

# Largest |numpy reference - mpmath| allowed.  Measured: <= 2e-15.
REF_TOL = 1e-13

TEMPS = (1e-3, 0.02, 0.1, 0.3, 1.0, 5.0)
PARAMS = (
    (-1.0, 0.0, 0.0),
    (0.3, 0.0, 0.0),
    (0.95, 0.0, 0.0),
    (1.0, 0.0, 0.0),
    (-1.0, 1.05, 1.05),
    (-1.0, 2.5, -1.0),
    (-1.0, 3.0, 3.0),
    (0.4, 0.7, -1.1),
    (0.9, -2.8, 2.9),
    (-0.5, 10.0, -10.0),
)


def _kron(a, b):
    out = mp.matrix(4, 4)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for m in range(2):
                    out[2 * i + k, 2 * j + m] = a[i, j] * b[k, m]
    return out


SX = mp.matrix([[0, 1], [1, 0]])
SZ = mp.matrix([[1, 0], [0, -1]])
ANTI = mp.matrix([[0, -1], [1, 0]])  # sigma_y = i * ANTI, so sy x sy = -(ANTI x ANTI)
ONE = mp.eye(2)
SYY = -_kron(ANTI, ANTI)


def _entropy(probs) -> mp.mpf:
    probs = [mp.re(p) for p in probs]  # eigsy of a degenerate block can return mpc
    return -sum((p * mp.log(p, 2) for p in probs if p > 0), mp.mpf(0))


def _binary(x) -> mp.mpf:
    return _entropy([x, 1 - x])


def mp_correlations(gamma: float, b1: float, b2: float, t: float) -> dict[str, mp.mpf]:
    g, b1, b2, t = (mp.mpf(v) for v in (gamma, b1, b2, t))
    h = (1 - g) / 2 * (_kron(SX, SX) + SYY) + (1 + g) / 2 * _kron(SZ, SZ)
    h += b1 * _kron(SZ, ONE) + b2 * _kron(ONE, SZ)
    energies, vecs = mp.eigsy(h)
    e0 = min(energies)
    weights = [mp.exp(-(e - e0) / t) for e in energies]
    z = sum(weights)
    probs = [w / z for w in weights]
    rho = vecs * mp.diag(probs) * vecs.T
    root = vecs * mp.diag([mp.sqrt(p) for p in probs]) * vecs.T

    marg1 = mp.matrix(2, 2)
    marg2 = mp.matrix(2, 2)
    for i in range(2):
        for j in range(2):
            marg1[i, j] = sum(rho[2 * i + k, 2 * j + k] for k in range(2))
            marg2[i, j] = sum(rho[2 * k + i, 2 * k + j] for k in range(2))
    s1 = _entropy(mp.eigsy(marg1)[0])
    s2 = _entropy(mp.eigsy(marg2)[0])
    total = s1 + s2 - _entropy(probs)

    flipped = SYY * rho * SYY  # rho is real here
    squared = mp.eigsy(root * flipped * root)[0]
    lam = sorted((mp.sqrt(max(mp.re(v), 0)) for v in squared), reverse=True)
    c = max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])
    quantum = _binary((1 + mp.sqrt(1 - c * c)) / 2)
    return {"total": total, "quantum": quantum, "classical": total - quantum, "concurrence": c}


@pytest.mark.parametrize("gamma,b1,b2", PARAMS)
def test_reference_matches_mpmath(gamma, b1, b2):
    ref = correlations(gamma, b1, b2, np.array(TEMPS))
    for k, t in enumerate(TEMPS):
        exact = mp_correlations(gamma, b1, b2, t)
        for name, value in exact.items():
            assert abs(ref[name][k] - float(value)) <= REF_TOL, (name, t)


def test_reference_panel_is_not_trivial():
    """The panel holds entangled and separable states, so C is really tested."""
    concurrences = [float(mp_correlations(*p, t)["concurrence"]) for p in PARAMS for t in TEMPS]
    assert max(concurrences) > 0.9 and min(concurrences) == 0.0


@pytest.mark.parametrize("gamma", [-1.0, -0.5, 0.0, 0.5, 0.9, 0.99])
def test_threshold_matches_mpmath(gamma):
    def rhs(t):
        return t / 2 * mp.log(mp.exp(2 / t) - 2) - gamma

    exact = mp.findroot(rhs, threshold_temperature(gamma))
    assert abs(threshold_temperature(gamma) - float(exact)) <= 1e-14 * float(exact)
    assert math.isclose(float(rhs(mp.mpf(threshold_temperature(gamma)))) + gamma, gamma, abs_tol=1e-13)
