"""Threshold temperatures where the thermal concurrence vanishes.

Every Gibbs state of the dimer is an X-state, and the field sum b1 + b2
cancels from rho11 rho44, so the concurrence is positive exactly where

    g(u) = (1+gamma) u + ln sinh(r u) + ln((1-gamma) / r) > 0,

with u = 1/T and r = sqrt((b1-b2)^2 + (1-gamma)^2) (temperatures in units
of J).  g' = (1+gamma) + r coth(r u) > 0, so for gamma < 1 there is exactly
one threshold, and it depends on (gamma, |b1 - b2|) alone; at b1 = b2 it
solves the paper's gamma = (T/2) ln(e^{2/T} - 2).  One solver finds the
sign change of g between adjacent floats (at most 32 Newton steps on u = 1/T
from a closed-form start, then a walk of at most 64 floats) for tth_numeric,
which checks its point through numpy-free domain.ModelParams; tth_anisotropic
is its b1 = b2 case.  At gamma = 1 the state is never entangled at any
T > 0, and both return the limit 0.0.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .domain import ModelParams

__all__ = [
    "ThresholdPoint",
    "threshold_curve",
    "tth_anisotropic",
    "tth_numeric",
]

_LN2 = math.log(2.0)
_NEWTON_LIMIT = 32  # Newton steps; the test panel needs at most 8
_WALK_LIMIT = 64  # floats walked after the Newton steps; the test panel needs at most 4


class ThresholdPoint(NamedTuple):
    """One point of a threshold curve; ``degenerate`` marks the gamma = 1 limit."""

    gamma: float
    t_th: float
    degenerate: bool = False


def _threshold(gamma: float, delta: float) -> float:
    """The one root in T of g(1/T) for gamma < 1 and field difference |b1 - b2| = ``delta``.

    g is written as (1+gamma) u + x + ln(-expm1(-2x)) + offset, with x = r u
    and offset = ln((1-gamma) / (2r)) < 0, so it is finite for every finite
    delta.  ln(-expm1(-2x)) < 0, so g < 0 at u0 = -offset / (1+gamma+r), the
    root's large-r asymptote.  g is increasing and concave in u = 1/T, so
    Newton steps (g/r) / ((1+gamma)/r + coth(r u)), which cannot overflow,
    climb from u0 to the root without passing it: at most 11 evaluations of
    g, measured.  A walk of a few floats from where they stop finds the
    adjacent pair (entangled, not entangled); the result is its midpoint,
    the float that bisecting down to that pair returns.  More than
    _NEWTON_LIMIT steps or a walk longer than _WALK_LIMIT floats raises
    RuntimeError rather than run on.
    """
    gap = 1.0 - gamma
    r = math.hypot(delta, gap)
    offset = math.log(gap) - math.log(r) - _LN2

    def entangled(t: float) -> bool:  # g(1/t) > 0
        x = r / t
        return (1.0 + gamma) / t + x + math.log(-math.expm1(-2.0 * x)) + offset > 0.0

    slope = (1.0 + gamma) / r
    u = -offset / (1.0 + gamma + r)  # g < 0 here, for every gamma < 1 and finite delta
    for _ in range(_NEWTON_LIMIT):
        x = r * u
        em = -math.expm1(-2.0 * x)  # coth x = (2 - em) / em
        step = ((1.0 + gamma) * u + x + math.log(em) + offset) / r / (slope + (2.0 - em) / em)
        nxt = u - step
        if not nxt > u:  # at the root, to rounding
            break
        u = nxt
    else:
        raise RuntimeError(f"Newton did not stop in {_NEWTON_LIMIT} steps at gamma = {gamma!r}, |b1 - b2| = {delta!r}")
    t = 1.0 / u
    side = entangled(t)
    toward = math.inf if side else 0.0  # up to the first float past the root, or down to the last before it
    for _ in range(_WALK_LIMIT):
        nxt = math.nextafter(t, toward)
        if entangled(nxt) != side:
            lo, hi = (t, nxt) if side else (nxt, t)
            return lo + 0.5 * (hi - lo)
        t = nxt
    raise RuntimeError(
        f"threshold not found within {_WALK_LIMIT} floats of the Newton steps' end"
        f" at gamma = {gamma!r}, |b1 - b2| = {delta!r}"
    )


def tth_anisotropic(gamma: float) -> float:
    """Zero-field threshold temperature, in units of J, to the last bit.

    The root of gamma = (T/2) ln(e^{2/T} - 2): tth_numeric at b1 = b2 = 0,
    so 0.0 at the degenerate gamma = 1.  ``gamma`` is checked as a ModelParams.
    """
    return tth_numeric((gamma,))


def threshold_curve(gammas: Sequence[float]) -> list[ThresholdPoint]:
    """tth_anisotropic applied pointwise; strictly decreasing for ascending gammas."""
    return [ThresholdPoint(gamma=g, t_th=tth_anisotropic(g), degenerate=g == 1.0) for g in map(float, gammas)]


def tth_numeric(p: ModelParams) -> float:
    """Temperature at which the concurrence at one point ``p`` turns off, in units of J.

    Below the threshold the state is entangled, above it never.  At
    gamma = 1 it never entangles at any T > 0, and the result is that
    limit, 0.0.  Uniform fields do not move it: equal b1 and b2 give
    tth_anisotropic(gamma), bit for bit.  ``p`` is checked as a ModelParams.
    """
    gamma, b1, b2 = ModelParams(*p)
    return 0.0 if gamma == 1.0 else _threshold(gamma, abs(b1 - b2))
