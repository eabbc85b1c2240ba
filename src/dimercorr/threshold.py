"""Threshold temperatures where the thermal concurrence vanishes.

At zero field the concurrence of the anisotropic dimer dies at the
temperature solving  gamma = (T/2) ln(e^{2/T} - 2)  (temperatures in units
of J).  The right-hand side decreases strictly from 1 toward -infinity on
(0, 2/ln 2), so a bracketed bisection is enough.  For arbitrary parameters
the threshold is located numerically from the closed-form concurrence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exceptions import DomainError
from .matkernel import check_positive_finite
from .models import ModelParams, closed_form_correlations

__all__ = [
    "ThresholdPoint",
    "threshold_curve",
    "tth_anisotropic",
    "tth_numeric",
]

_T_SUPPORT = 2.0 / math.log(2.0)  # e^{2/T} - 2 changes sign here
_RESIDUAL_TOL = 1e-10
_POSITIVE_C = 1e-12
_SCAN_POINTS = 200  # temperatures of the coarse scan in tth_numeric
_REFINE_POINTS = 64  # temperatures per re-scan of the bracket in tth_numeric


@dataclass(frozen=True)
class ThresholdPoint:
    """One point of a threshold curve; ``degenerate`` marks the gamma = 1 limit."""

    gamma: float
    b1: float
    b2: float
    t_th: float
    degenerate: bool = False


def _vanishing_rhs(t: float) -> float:
    """(t/2) ln(e^{2/t} - 2), via log1p so it is finite and overflow-free."""
    if t >= _T_SUPPORT:
        return -math.inf
    return 1.0 + 0.5 * t * math.log1p(-2.0 * math.exp(-2.0 / t))


def tth_anisotropic(gamma: float) -> float:
    """Zero-field threshold temperature, in units of J.

    Solves gamma = (T/2) ln(e^{2/T} - 2) by bisection on [1e-3, 10] until
    the residual drops below 1e-10.  gamma = 1 is the degenerate limit and
    returns 0 directly (the state never entangles there).
    """
    if not -1.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [-1, 1], got {gamma}")
    if gamma == 1.0:
        return 0.0
    lo, hi = 1e-3, 10.0
    mid = 0.5 * (lo + hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        residual = _vanishing_rhs(mid) - gamma
        if abs(residual) < _RESIDUAL_TOL:
            return mid
        if residual > 0.0:
            lo = mid
        else:
            hi = mid
    return mid


def threshold_curve(gammas: Sequence[float]) -> list[ThresholdPoint]:
    """tth_anisotropic applied pointwise; strictly decreasing for ascending gammas."""
    points = []
    for g in gammas:
        g = float(g)
        points.append(
            ThresholdPoint(gamma=g, b1=0.0, b2=0.0, t_th=tth_anisotropic(g), degenerate=g == 1.0)
        )
    return points


def tth_numeric(p: ModelParams, t_max: float) -> float | None:
    """Largest temperature in (0, t_max] where the concurrence turns off.

    A coarse scan over 200 temperatures locates positive-to-zero
    transitions of the thermal concurrence.  The bracket of the largest one
    is re-scanned with the array kernel, keeping its largest transition each
    time, until it is at most 1e-8 wide (or one float apart).  Returns None
    when no transition exists in the range.  Multiple transitions trigger a
    warning and the largest is returned.
    """
    check_positive_finite(t_max, "t_max")

    def entangled(t):
        c = closed_form_correlations(p.gamma, p.b1, p.b2, t, p.j)["concurrence"]
        return c > _POSITIVE_C

    grid = np.linspace(t_max / _SCAN_POINTS, t_max, _SCAN_POINTS)
    positive = entangled(grid)
    transitions = np.flatnonzero(positive[:-1] & ~positive[1:])
    if transitions.size == 0:
        return None
    if transitions.size > 1:
        warnings.warn(
            "concurrence turns off more than once in the scan range; "
            "returning the largest transition temperature",
            stacklevel=2,
        )
    lo, hi = grid[transitions[-1]], grid[transitions[-1] + 1]
    while hi - lo > 1e-8:
        grid = np.linspace(lo, hi, _REFINE_POINTS)
        positive = entangled(grid)
        positive[0], positive[-1] = True, False  # the bracket ends are already known
        k = np.flatnonzero(positive[:-1] & ~positive[1:])[-1]
        if (grid[k], grid[k + 1]) == (lo, hi):  # the bracket is down to adjacent floats
            break
        lo, hi = grid[k], grid[k + 1]
    return float(0.5 * (lo + hi))
