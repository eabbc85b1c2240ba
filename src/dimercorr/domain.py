"""Numpy-free input checks and grids.

The closed form, sweeps, the threshold solver and the command line share
these, and this module never imports numpy: a caller holding an array
flattens it to a list of floats first.  The rules of a
``start:stop:points`` grid live here too (parse_grid, check_grid), for
``threshold``'s range and ``sweep``'s axes alike.
"""

from __future__ import annotations

import math

from .exceptions import DomainError

__all__ = ["check_grid", "check_positive_finite", "linspace", "parse_grid"]


def check_positive_finite(value, name: str = "temperature") -> None:
    """Raise DomainError unless every entry of ``value`` is finite and positive.

    ``value`` is a list of floats (checked as is) or one number, taken
    through ``float``; NaN and +-inf are rejected, so they never reach an
    exponent or an eigensolver.
    """
    for v in value if isinstance(value, list) else [float(value)]:
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {v}")


def parse_grid(text: str, what: str = "range") -> tuple[float, float, int]:
    """Read ``start:stop:points`` as (start, stop, points); ValueError if it does not parse.

    ``what`` names the grid in the messages.  The numbers are not checked
    here: check_grid does that.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{what} must look like start:stop:points, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"could not parse {what} numbers in {text!r}") from None


def check_grid(start: float, stop: float, points: int, what: str = "range") -> None:
    """The rules of an inclusive linear grid, which linspace relies on.

    Non-finite endpoints or span stop - start are a DomainError.  A
    non-integer count, fewer than 1 point, start >= stop, or a single
    point with start != stop are a ValueError.
    """
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"{what} needs finite endpoints, got {start}:{stop}")
    if not hasattr(points, "__index__"):  # operator.index's test: int and numpy integers pass, 3.0 does not
        raise ValueError(f"{what} needs an integer number of points, got {points!r}")
    if points < 1:
        raise ValueError(f"{what} needs at least 1 point, got {points}")
    if points == 1 and start != stop:
        raise ValueError(f"a single-point {what} needs start == stop, got {start}:{stop}")
    if points > 1 and not start < stop:
        raise ValueError(f"{what} needs start < stop, got {start}:{stop}")
    if not math.isfinite(stop - start):
        raise DomainError(f"{what} needs a finite span stop - start, got {start}:{stop}")


def linspace(start: float, stop: float, points: int) -> list[float]:
    """The grid np.linspace(start, stop, points) gives, bit for bit, as a list of floats.

    The caller checks the grid first, with check_grid.
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
