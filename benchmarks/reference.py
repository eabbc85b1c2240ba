"""Independent numpy reference for the dimer's correlations.

Every Gibbs state of the two-qubit XXZ dimer with z fields is an X-state,
because the Hamiltonian conserves total S_z.  With J = 1, sigma = b1 + b2,
delta = b1 - b2 and r = sqrt(delta^2 + (1 - gamma)^2) the energies are
(1 + gamma)/2 + sigma for |uu>, (1 + gamma)/2 - sigma for |dd> and
-(1 + gamma)/2 +- r for the mixed pair of |ud>, |du>.  Everything below is
evaluated over arrays from those four energies; nothing here imports the
package under test.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["correlations", "threshold_temperature"]


def _xlog2x(x: np.ndarray) -> np.ndarray:
    safe = np.where(x > 0.0, x, 1.0)
    return np.where(x > 0.0, x * np.log2(safe), 0.0)


def _binary_entropy(x: np.ndarray) -> np.ndarray:
    return -(_xlog2x(x) + _xlog2x(1.0 - x))


def correlations(gamma, b1, b2, t) -> dict[str, np.ndarray]:
    """Total, quantum and classical correlation (bits) and concurrence.

    Arguments broadcast against each other; temperatures are in units of J.
    """
    gamma, b1, b2, t = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (gamma, b1, b2, t)))
    sigma = b1 + b2
    delta = b1 - b2
    off = 1.0 - gamma
    r = np.hypot(delta, off)
    corner = 0.5 * (1.0 + gamma)
    energies = np.stack([corner + sigma, corner - sigma, -corner + r, -corner - r])
    weights = np.exp(-(energies - energies.min(axis=0)) / t)
    pops = weights / weights.sum(axis=0)
    p_uu, p_dd, p_hi, p_lo = pops

    # Mixing of |ud>, |du>: cos(theta) = delta / r.  1 - |cos| is written as
    # off^2 / (r (r + |delta|)) so strong fields lose no digits to cancellation.
    r_safe = np.where(r > 0.0, r, 1.0)
    minus = np.where(r > 0.0, off * off / (r_safe * (r_safe + np.abs(delta))), 1.0)
    plus = 2.0 - minus
    big = 0.5 * (p_hi * plus + p_lo * minus)
    small = 0.5 * (p_hi * minus + p_lo * plus)
    rho22 = np.where(delta >= 0.0, big, small)  # |ud>
    rho33 = np.where(delta >= 0.0, small, big)  # |du>
    rho23 = np.where(r > 0.0, np.abs(p_hi - p_lo) * off / (2.0 * r_safe), 0.0)

    s12 = -(_xlog2x(p_uu) + _xlog2x(p_dd) + _xlog2x(p_hi) + _xlog2x(p_lo))
    s1 = _binary_entropy(p_uu + rho22)
    s2 = _binary_entropy(p_uu + rho33)
    total = s1 + s2 - s12

    c = np.clip(2.0 * (rho23 - np.sqrt(p_uu * p_dd)), 0.0, 1.0)
    quantum = _binary_entropy(0.5 * (1.0 + np.sqrt((1.0 - c) * (1.0 + c))))
    return {"total": total, "quantum": quantum, "classical": total - quantum, "concurrence": c}


def _vanishing_gamma(t: float) -> float:
    """(t/2) ln(e^{2/t} - 2), the anisotropy whose zero-field threshold is t."""
    return 1.0 + 0.5 * t * math.log1p(-2.0 * math.exp(-2.0 / t))


def threshold_temperature(gamma: float) -> float:
    """Zero-field temperature above which the concurrence is 0.

    Bisection on (0, 2/ln 2), where the right-hand side falls strictly from
    1 toward -infinity, run until the bracket stops shrinking.
    """
    if not -1.0 <= gamma < 1.0:
        raise ValueError(f"gamma must lie in [-1, 1), got {gamma}")
    lo, hi = 1e-6, 2.0 / math.log(2.0)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if _vanishing_gamma(mid) > gamma:
            lo = mid
        else:
            hi = mid
