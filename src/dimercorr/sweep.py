"""Parameter sweeps over temperature, anisotropy and fields.

A sweep evaluates the full correlation report on a one- or two-axis grid
with one call to the vectorised closed form, closed_form_correlations.
Rows are produced in row-major order (axis 1 outer, axis 2 inner) and the
output is deterministic for a fixed spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .matkernel import check_positive_finite
from .models import ModelParams, closed_form_correlations

__all__ = [
    "AXIS_NAMES",
    "RECORD_COLUMNS",
    "Axis",
    "SweepSpec",
    "SweepTable",
    "count_peaks",
    "detect_quantum_exceeds_classical",
    "detect_zero_plateau",
    "run_sweep",
]

# (column, sign) pairs each axis writes; two axes must not share a column.
_AXIS_WRITES = {
    "T": (("T", 1.0),),
    "gamma": (("gamma", 1.0),),
    "b1": (("b1", 1.0),),
    "b2": (("b2", 1.0),),
    "b_uniform": (("b1", 1.0), ("b2", 1.0)),
    "b_anti": (("b1", 1.0), ("b2", -1.0)),
}
AXIS_NAMES = tuple(_AXIS_WRITES)

RECORD_COLUMNS = ("T", "gamma", "b1", "b2", "total", "quantum", "classical", "concurrence")


def _targets(axis: Axis) -> set[str]:
    return {column for column, _ in _AXIS_WRITES[axis.name]}


@dataclass(frozen=True)
class Axis:
    """An inclusive linear grid over one sweep variable."""

    name: str
    start: float
    stop: float
    points: int

    def __post_init__(self) -> None:
        if self.name not in _AXIS_WRITES:
            raise ValueError(f"unknown axis {self.name!r}; choose from {', '.join(AXIS_NAMES)}")
        for end in (self.start, self.stop):
            if not math.isfinite(end):
                raise DomainError(f"axis {self.name!r} needs finite endpoints, got {end}")
        if self.points < 2:
            raise ValueError(f"axis {self.name!r} needs at least 2 points, got {self.points}")
        if not self.start < self.stop:
            raise ValueError(f"axis {self.name!r} needs start < stop, got {self.start}:{self.stop}")

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class SweepSpec:
    """Base parameters plus one or two axes to scan.

    ``temp`` is the fixed temperature used when no T axis is present.
    """

    base: ModelParams
    axis1: Axis
    axis2: Axis | None = None
    temp: float | None = None

    def __post_init__(self) -> None:
        axes = [self.axis1] + ([self.axis2] if self.axis2 is not None else [])
        if self.axis2 is not None:
            if self.axis1.name == self.axis2.name:
                raise ValueError("sweep axes must have distinct names")
            if _targets(self.axis1) & _targets(self.axis2):
                raise ValueError(
                    f"axes {self.axis1.name!r} and {self.axis2.name!r} write the same field"
                )
        has_t_axis = any(a.name == "T" for a in axes)
        if has_t_axis:
            t_axis = next(a for a in axes if a.name == "T")
            if t_axis.start <= 0:
                raise DomainError("temperature grid must be strictly positive")
        elif self.temp is None:
            raise ValueError("a sweep without a T axis needs a fixed temp")
        else:
            check_positive_finite(self.temp)


@dataclass(frozen=True)
class SweepTable:
    """Sweep output: one array per record column, in row-major grid order.

    ``columns`` maps each name of RECORD_COLUMNS to an array with one entry
    per grid point, aligned with the axis value arrays.
    """

    spec: SweepSpec
    axis1_values: np.ndarray
    axis2_values: np.ndarray | None
    columns: dict[str, np.ndarray]

    @property
    def is_1d(self) -> bool:
        return self.axis2_values is None

    def column(self, name: str) -> np.ndarray:
        if name not in RECORD_COLUMNS:
            raise ValueError(f"unknown column {name!r}; choose from {', '.join(RECORD_COLUMNS)}")
        return self.columns[name].copy()


def run_sweep(spec: SweepSpec, threads: int | None = None) -> SweepTable:
    """Evaluate the whole grid in one vectorised closed-form call.

    ``threads`` is accepted for compatibility and otherwise ignored: the
    grid is one array computation, so there is nothing to spread over
    threads.  A value below 1 is still a usage error (ValueError).
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    grids = [axis.values() for axis in axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    base = spec.base
    base_t = spec.temp if spec.temp is not None else 1.0  # overwritten by any T axis
    fixed = {"T": base_t, "gamma": base.gamma, "b1": base.b1, "b2": base.b2}
    columns = {name: np.full(mesh[0].size, value, dtype=float) for name, value in fixed.items()}
    for axis, values in zip(axes, mesh):
        for name, sign in _AXIS_WRITES[axis.name]:
            columns[name] = sign * values.ravel()
    columns.update(
        closed_form_correlations(columns["gamma"], columns["b1"], columns["b2"], columns["T"], base.j)
    )
    return SweepTable(
        spec=spec,
        axis1_values=grids[0],
        axis2_values=grids[1] if len(grids) == 2 else None,
        columns=columns,
    )


def _require_1d(table: SweepTable) -> None:
    if not table.is_1d:
        raise ValueError("this analysis needs a one-axis sweep")


def _runs_to_intervals(axis_values: np.ndarray, mask: np.ndarray) -> list[tuple[float, float]]:
    intervals = []
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            intervals.append((float(axis_values[start]), float(axis_values[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(axis_values[start]), float(axis_values[len(mask) - 1])))
    return intervals


def detect_quantum_exceeds_classical(table: SweepTable) -> list[tuple[float, float]]:
    """Maximal axis intervals where quantum > classical + 1e-12."""
    _require_1d(table)
    mask = table.column("quantum") > table.column("classical") + 1e-12
    return _runs_to_intervals(table.axis1_values, mask)


def count_peaks(table: SweepTable, column: str) -> int:
    """Number of interior local maxima of ``column`` with a prominence of at least 0.01."""
    _require_1d(table)
    from scipy.signal import find_peaks  # imported here: it dominates the package's import time

    peaks, _ = find_peaks(table.column(column), prominence=0.01)
    return int(peaks.size)


def detect_zero_plateau(table: SweepTable, column: str) -> list[tuple[float, float]]:
    """Maximal axis intervals where ``column`` stays at zero (<= 1e-10)."""
    _require_1d(table)
    mask = table.column(column) <= 1e-10
    return _runs_to_intervals(table.axis1_values, mask)
