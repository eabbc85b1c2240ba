"""Numpy-free input checks and grids.

The closed form, sweeps, the threshold scan and the command line share
these, so a call that only evaluates closed forms never loads numpy; an
array handed to a check is the one case that imports it.
"""

from __future__ import annotations

import math

from .exceptions import DomainError

__all__ = ["as_floats", "check_positive_finite", "linspace"]


def as_floats(value) -> list[float]:
    """A number, or any array-like flattened in C order, as a list of floats.

    Only an array-like loads numpy.
    """
    if isinstance(value, (int, float)):
        return [float(value)]
    import numpy as np

    return np.asarray(value, dtype=float).ravel().tolist()


def check_positive_finite(value, name: str = "temperature") -> None:
    """Raise DomainError unless every entry of ``value`` is finite and positive.

    ``value`` is a number, a list of floats (checked as is) or an array;
    NaN and +-inf are rejected, so they never reach an exponent or an
    eigensolver.
    """
    for v in value if isinstance(value, list) else as_floats(value):
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {v}")


def linspace(start: float, stop: float, points: int) -> list[float]:
    """The grid np.linspace(start, stop, points) gives, bit for bit, as a list of floats.

    The caller checks that the endpoints and their span are finite and
    that ``points`` >= 1.
    """
    if points == 1:
        return [start + 0.0]  # np.linspace adds start to 0 * delta
    grid = [stop] * points  # allocated whole, as np.linspace does: a size too large fails at once
    div = points - 1
    delta = stop - start
    step = delta / div
    for i in range(div):  # where the step underflows to 0, np.linspace scales by delta last
        grid[i] = (i * step if step else i / div * delta) + start
    return grid
