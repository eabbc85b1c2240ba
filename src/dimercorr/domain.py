"""The numpy-free boundary: the input rules, types and names all layers share.

The command line, the closed-form kernel, sweeps and the threshold solver
share these, and this module never imports numpy, so every subcommand
loads it: a caller holding an array flattens it to a list of floats first.
Here are the two exceptions, the name tables (record columns and outputs,
sweep axes, verify suites) the parser offers as choices, verify's default
seed, ModelParams (the one checked parameter point) and _check_params (its
rule over float columns), and the rules of a ``start:stop:points`` grid
(parse_grid, check_grid, linspace), for ``threshold``'s range and
``sweep``'s axes alike.
"""

from __future__ import annotations

import math
import sys
from operator import add, sub
from typing import NamedTuple

__all__ = [
    "AXIS_NAMES", "AXIS_WRITES", "OUTPUTS", "RECORD_COLUMNS", "SEED", "SUITES",
    "DomainError", "ModelParams", "ValidationError",
    "check_grid", "check_positive_finite", "linspace", "parse_grid",
]


# Both derive from ValueError, so a caller that only cares about "bad input"
# can catch one class; the command line maps them to distinct exit codes.
class ValidationError(ValueError):
    """A matrix failed a physical-contract check (Hermiticity, trace, positivity)."""


class DomainError(ValueError):
    """A parameter lies outside the supported physical domain."""


# The columns of every point, sweep and JSON record, in output order: the
# parameters, then the outputs of the closed form.
RECORD_COLUMNS = ("T", "gamma", "b1", "b2", "total", "quantum", "classical", "concurrence")
OUTPUTS = RECORD_COLUMNS[4:]

# (column, sign) pairs each sweep axis writes; two axes must not share a column.
AXIS_WRITES = {
    "T": (("T", 1.0),),
    "gamma": (("gamma", 1.0),),
    "b1": (("b1", 1.0),),
    "b2": (("b2", 1.0),),
    "b_uniform": (("b1", 1.0), ("b2", 1.0)),
    "b_anti": (("b1", 1.0), ("b2", -1.0)),
}
AXIS_NAMES = tuple(AXIS_WRITES)

# The verification suites, in the order ``verify --suite all`` runs them,
# and the seed their random draws take unless the caller gives one.
SUITES = ("gibbs", "wootters", "ppt", "ensemble")
SEED = 7


class _Point(NamedTuple):
    gamma: float
    b1: float
    b2: float


class ModelParams(_Point):
    """One parameter point selecting a dimer Hamiltonian, held as three floats.

    gamma : anisotropy in [-1, 1]; -1 is the XY point, +1 the Ising point.
    b1, b2 : local z fields on qubits 1 and 2, in units of J.

    Each value may be a real number, a numpy scalar or a 0-d array.  An
    array of one or more dimensions is a ValueError, and a value outside
    the domain a DomainError.  Arrays of points go to build_hamiltonian,
    thermal_state_analytic and closed_form_correlations instead.
    """

    __slots__ = ()

    def __new__(cls, gamma: float, b1: float = 0.0, b2: float = 0.0) -> ModelParams:
        for name, value in zip(cls._fields, (gamma, b1, b2)):
            if getattr(value, "ndim", 0):
                raise ValueError(f"ModelParams holds one parameter point, got {name} of shape {value.shape}")
        point = super().__new__(cls, float(gamma), float(b1), float(b2))
        _check_params(*([v] for v in point))
        return point

    @classmethod
    def _make(cls, iterable) -> ModelParams:  # behind _replace too, which would otherwise skip the checks
        return cls(*iterable)


def _check_params(gamma: list, b1: list, b2: list) -> None:
    """Raise DomainError unless gamma lies in [-1, 1] and b1, b2 and b1 +- b2 are finite.

    Each argument is a list of floats, all of one length; each rule
    is checked over every point before the next.
    """
    for g in gamma:
        if not -1.0 <= g <= 1.0:  # NaN fails both comparisons
            raise DomainError(f"gamma must lie in [-1, 1], got {g}")
    for name, values in (("b1", b1), ("b2", b2), ("b1 + b2", map(add, b1, b2)), ("b1 - b2", map(sub, b1, b2))):
        for v in values:
            if not math.isfinite(v):
                raise DomainError(f"{name} must be finite, got {v}")


def check_positive_finite(value: list) -> None:
    """Raise DomainError unless every temperature in the list of floats ``value`` is finite and positive.

    NaN and +-inf are rejected, so they never reach an exponent or an
    eigensolver.
    """
    for v in value:
        if not (math.isfinite(v) and v > 0.0):
            raise DomainError(f"temperature must be positive and finite, got {v}")


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
    non-integer count, fewer than 1 or more than sys.maxsize points,
    start >= stop, or a single point with start != stop are a ValueError.
    """
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise DomainError(f"{what} needs finite endpoints, got {start}:{stop}")
    if not hasattr(points, "__index__"):  # operator.index's test: int and numpy integers pass, 3.0 does not
        raise ValueError(f"{what} needs an integer number of points, got {points!r}")
    if points < 1:
        raise ValueError(f"{what} needs at least 1 point, got {points}")
    if points > sys.maxsize:  # no list that long can exist: linspace's allocation would raise OverflowError
        raise ValueError(f"{what} needs at most {sys.maxsize} points, got {points}")
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
