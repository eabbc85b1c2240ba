"""Parameter sweeps over temperature, anisotropy and fields.

A sweep evaluates the full correlation report on a one- or two-axis grid,
running the closed-form kernel of closed_form_correlations point by point
on plain float columns, so it loads no numpy.  Rows are produced in
row-major order (axis 1 outer, axis 2 inner) and the output is
deterministic for a fixed spec.  SweepTable.column, Axis.values and the
two interval detectors build numpy arrays and import numpy when called;
count_peaks walks the float lists and loads neither numpy nor scipy.
"""

from __future__ import annotations

from itertools import takewhile
from typing import TYPE_CHECKING, NamedTuple

from .domain import check_grid, check_positive_finite, linspace
from .exceptions import DomainError
from .models import OUTPUTS, ModelParams, _correlation_columns
from .names import AXIS_NAMES, AXIS_WRITES, RECORD_COLUMNS

if TYPE_CHECKING:
    import numpy as np

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

def _targets(axis: Axis) -> set[str]:
    return {column for column, _ in AXIS_WRITES[axis.name]}


class _AxisFields(NamedTuple):
    name: str
    start: float
    stop: float
    points: int


class Axis(_AxisFields):
    """An inclusive linear grid over one sweep variable, under the rules of check_grid."""

    __slots__ = ()

    def __new__(cls, name: str, start: float, stop: float, points: int) -> Axis:
        if name not in AXIS_WRITES:
            raise ValueError(f"unknown axis {name!r}; choose from {', '.join(AXIS_NAMES)}")
        check_grid(start, stop, points, f"axis {name!r}")
        return super().__new__(cls, name, start, stop, points)

    @classmethod
    def _make(cls, iterable) -> Axis:  # behind _replace too, which would otherwise skip the checks
        return cls(*iterable)

    def values(self) -> np.ndarray:
        """The grid np.linspace(start, stop, points) gives."""
        import numpy as np

        return np.array(linspace(self.start, self.stop, self.points))


class _SpecFields(NamedTuple):
    base: ModelParams
    axis1: Axis
    axis2: Axis | None = None
    temp: float | None = None


class SweepSpec(_SpecFields):
    """One base parameter point plus one or two axes to scan.

    ``temp`` is the fixed temperature used when no T axis is present; when
    given, it must be positive and finite whether or not a T axis is.
    """

    __slots__ = ()

    def __new__(
        cls, base: ModelParams, axis1: Axis, axis2: Axis | None = None, temp: float | None = None
    ) -> SweepSpec:
        axes = [axis1] + ([axis2] if axis2 is not None else [])
        if axis2 is not None:
            if axis1.name == axis2.name:
                raise ValueError("sweep axes must have distinct names")
            if _targets(axis1) & _targets(axis2):
                raise ValueError(f"axes {axis1.name!r} and {axis2.name!r} write the same field")
        t_axes = [a for a in axes if a.name == "T"]
        if t_axes and t_axes[0].start <= 0:
            raise DomainError("temperature grid must be strictly positive")
        if not t_axes and temp is None:
            raise ValueError("a sweep without a T axis needs a fixed temp")
        if temp is not None:  # checked beside a T axis too, since the JSON spec records it
            check_positive_finite(temp)
        return super().__new__(cls, base, axis1, axis2, temp)

    @classmethod
    def _make(cls, iterable) -> SweepSpec:  # behind _replace too, which would otherwise skip the checks
        return cls(*iterable)


class SweepTable(NamedTuple):
    """Sweep output: one list of floats per record column, in row-major grid order.

    ``columns`` maps each name of RECORD_COLUMNS to a list with one entry
    per grid point, aligned with the axis value arrays.
    """

    spec: SweepSpec
    columns: dict[str, list[float]]

    @property
    def axis1_values(self) -> np.ndarray:
        return self.spec.axis1.values()

    @property
    def axis2_values(self) -> np.ndarray | None:
        return None if self.spec.axis2 is None else self.spec.axis2.values()

    @property
    def is_1d(self) -> bool:
        return self.spec.axis2 is None

    def column(self, name: str) -> np.ndarray:
        """A new float array of one record column."""
        if name not in RECORD_COLUMNS:
            raise ValueError(f"unknown column {name!r}; choose from {', '.join(RECORD_COLUMNS)}")
        import numpy as np

        return np.array(self.columns[name], dtype=float)


def run_sweep(spec: SweepSpec, threads: int | None = None) -> SweepTable:
    """Evaluate the whole grid with the closed-form kernel, one point at a time.

    ``threads`` is accepted for compatibility and otherwise ignored: each
    point costs microseconds, so there is nothing worth spreading over
    threads.  A value below 1 is still a usage error (ValueError).
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    grids = [linspace(axis.start, axis.stop, axis.points) for axis in axes]
    if len(grids) == 2:  # row-major: axis 1 outer, axis 2 inner
        grids = [[v for v in grids[0] for _ in grids[1]], grids[1] * len(grids[0])]
    n = len(grids[0])
    base_t = spec.temp if spec.temp is not None else 1.0  # overwritten by any T axis
    fixed = dict(zip(("T", "gamma", "b1", "b2"), [base_t, *spec.base]))
    columns = {name: [float(value)] * n for name, value in fixed.items()}
    for axis, values in zip(axes, grids):
        for name, sign in AXIS_WRITES[axis.name]:
            columns[name] = [sign * v for v in values]
    outputs = _correlation_columns(columns["gamma"], columns["b1"], columns["b2"], columns["T"])
    columns.update(zip(OUTPUTS, outputs))
    return SweepTable(spec=spec, columns=columns)


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
    """Number of interior local maxima of ``column`` with a prominence of at least 0.01.

    Counted as scipy.signal.find_peaks(y, prominence=0.01) counts them: a flat
    top counts once and the edges never do.  Plain Python: no numpy, no scipy.
    """
    _require_1d(table)
    y = table.columns[column] if column in RECORD_COLUMNS else table.column(column)  # column() rejects the name
    count = 0
    for i in range(1, len(y) - 1):
        if y[i - 1] < y[i]:  # a rise: a peak if what follows its flat top falls
            ahead = i + 1
            while ahead < len(y) - 1 and y[ahead] == y[i]:
                ahead += 1
            if y[ahead] < y[i]:
                # prominence: the height above the higher side minimum, each side
                # walked out from the peak until the column rises above it (or is NaN)
                sides = range(i, -1, -1), range(i, len(y))
                base = max(min(takewhile(lambda v: v <= y[i], (y[k] for k in side))) for side in sides)
                if y[i] - base >= 0.01:
                    count += 1
    return count


def detect_zero_plateau(table: SweepTable, column: str) -> list[tuple[float, float]]:
    """Maximal axis intervals where ``column`` stays at zero (<= 1e-10)."""
    _require_1d(table)
    mask = table.column(column) <= 1e-10
    return _runs_to_intervals(table.axis1_values, mask)
