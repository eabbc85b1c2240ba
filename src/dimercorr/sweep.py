"""Parameter sweeps over temperature, anisotropy and fields.

A sweep evaluates the full correlation report on a one- or two-axis grid,
running the closed-form kernel of closed_form_correlations point by point
on plain float columns, so it loads no numpy.  Rows are produced in
row-major order (axis 1 outer, axis 2 inner) and the output is
deterministic for a fixed spec.  A b1 x b2 map whose axes hold the same
grid runs the kernel on the points with i <= j only and mirrors the rest,
since the kernel is symmetric under b1 <-> b2 bit for bit.  The analyses
(count_peaks and the two interval detectors) walk the float lists too;
only SweepTable.column imports numpy, when it is called.
"""

from __future__ import annotations

from itertools import chain, groupby, takewhile
from typing import TYPE_CHECKING, NamedTuple

from .domain import AXIS_NAMES, AXIS_WRITES, OUTPUTS, RECORD_COLUMNS, DomainError, ModelParams
from .domain import check_grid, check_positive_finite, linspace
from .models import _correlations, _kernel_columns

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

    def values(self) -> list[float]:
        """The grid np.linspace(float(start), float(stop), points) gives, as a list of floats."""
        return linspace(float(self.start), float(self.stop), self.points)


class _SpecFields(NamedTuple):
    base: ModelParams
    axis1: Axis
    axis2: Axis | None = None
    temp: float | None = None


class SweepSpec(_SpecFields):
    """One base parameter point, checked and stored as a ModelParams, plus one or two axes to scan.

    ``temp`` is the fixed temperature used when no T axis is present; when
    given, it must be positive and finite whether or not a T axis is.
    """

    __slots__ = ()

    def __new__(
        cls, base: ModelParams, axis1: Axis, axis2: Axis | None = None, temp: float | None = None
    ) -> SweepSpec:
        base = ModelParams(*base)
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
            check_positive_finite([float(temp)])
        return super().__new__(cls, base, axis1, axis2, temp)

    @classmethod
    def _make(cls, iterable) -> SweepSpec:  # behind _replace too, which would otherwise skip the checks
        return cls(*iterable)


class SweepTable(NamedTuple):
    """Sweep output: one list of floats per record column, in row-major grid order.

    ``columns`` maps each name of RECORD_COLUMNS to a list with one entry
    per grid point, aligned with the axes' values().
    """

    spec: SweepSpec
    columns: dict[str, list[float]]

    @property
    def is_1d(self) -> bool:
        return self.spec.axis2 is None

    def column(self, name: str) -> np.ndarray:
        """A new float array of one record column."""
        _check_column(name)
        import numpy as np

        return np.array(self.columns[name], dtype=float)


def run_sweep(spec: SweepSpec, threads: int | None = None) -> SweepTable:
    """Evaluate the whole grid with the closed-form kernel, one point at a time.

    A b1 x b2 map whose two axes hold the same grid evaluates each pair
    once: the kernel is symmetric under b1 <-> b2 bit for bit, so point
    (j, i) is point (i, j), and a 61 x 61 map takes 1,891 kernel calls
    instead of 3,721.  ``threads`` is accepted for compatibility and
    otherwise ignored: each point costs microseconds, so there is nothing
    worth spreading over threads.  A value below 1 is still a usage error
    (ValueError).
    """
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    axes = [spec.axis1] + ([spec.axis2] if spec.axis2 is not None else [])
    grids = [axis.values() for axis in axes]
    if len(grids) == 2:  # row-major: axis 1 outer, axis 2 inner
        grids = [[v for v in grids[0] for _ in grids[1]], grids[1] * len(grids[0])]
    n = len(grids[0])
    written = {name: [sign * v for v in values] for axis, values in zip(axes, grids)
               for name, sign in AXIS_WRITES[axis.name]}
    fixed = zip(("T", "gamma", "b1", "b2"), [spec.temp, *spec.base])  # a spec without a temp has a T axis
    columns = {name: written[name] if name in written else [float(value)] * n for name, value in fixed}
    inputs = [columns[k] for k in ("gamma", "b1", "b2", "T")]
    m = _mirror_size(spec)
    if m:
        inputs = [_upper(column, m) for column in inputs]
    outputs = _kernel_columns(_correlations, len(OUTPUTS), *inputs)
    if m:
        outputs = [_mirrored(column, m) for column in outputs]
    columns.update(zip(OUTPUTS, outputs))
    return SweepTable(spec=spec, columns=columns)


# On a b1 x b2 map over one grid, point (j, i) is point (i, j) with the fields swapped, and the kernel
# is symmetric under that swap bit for bit: sigma = b1 + b2 commutes, delta = b1 - b2 enters only as
# |delta|, delta^2 and hypot, and its sign only swaps rho22 and rho33, that is s1 and s2 of the sum
# s1 + s2.  So such a map is evaluated, and its outputs written, at the points i <= j only.
def _mirror_size(spec: SweepSpec) -> int:
    """m for a b1 x b2 map whose two axes hold the same m-point grid, else 0."""
    axis1, axis2 = spec.axis1, spec.axis2
    if axis2 is None or {axis1.name, axis2.name} != {"b1", "b2"} or axis1.values() != axis2.values():
        return 0
    return axis1.points


def _upper(column: list[float], m: int) -> list[float]:
    """The points i <= j of an m x m row-major grid, in row-major order."""
    return list(chain.from_iterable(column[i * m + i : (i + 1) * m] for i in range(m)))


def _mirrored(upper: list, m: int) -> list:
    """The m x m row-major grid with point (j, i) = point (i, j), from its points i <= j in row-major order."""
    rows, start = [], 0
    for i in range(m):
        rows.append(upper[start : start + m - i])
        start += m - i
    full = []
    for i, row in enumerate(rows):
        full += [rows[j][i - j] for j in range(i)]
        full += row
    return full


def _check_column(name: str) -> None:
    if name not in RECORD_COLUMNS:
        raise ValueError(f"unknown column {name!r}; choose from {', '.join(RECORD_COLUMNS)}")


def _series(table: SweepTable, column: str) -> list[float]:
    """One record column of a one-axis sweep; ValueError for a two-axis sweep or an unknown column."""
    if not table.is_1d:
        raise ValueError("this analysis needs a one-axis sweep")
    _check_column(column)
    return table.columns[column]


def _intervals(table: SweepTable, mask: list[bool]) -> list[tuple[float, float]]:
    """The first and last axis value of each maximal run of True in ``mask``."""
    axis = table.spec.axis1.values()
    intervals = []
    start = 0
    for flag, run in groupby(mask):
        end = start + len(list(run))
        if flag:
            intervals.append((axis[start], axis[end - 1]))
        start = end
    return intervals


def detect_quantum_exceeds_classical(table: SweepTable) -> list[tuple[float, float]]:
    """Maximal axis intervals where quantum > classical + 1e-12."""
    pairs = zip(_series(table, "quantum"), _series(table, "classical"))
    return _intervals(table, [q > c + 1e-12 for q, c in pairs])


def count_peaks(table: SweepTable, column: str) -> int:
    """Number of interior local maxima of ``column`` with a prominence of at least 0.01.

    Counted as scipy.signal.find_peaks(y, prominence=0.01) counts them: a flat
    top counts once and the edges never do.  Plain Python: no numpy, no scipy.
    """
    y = _series(table, column)
    count = 0
    for i in range(1, len(y) - 1):
        if y[i - 1] < y[i]:  # a rise: the left end of a top, flat or not
            # prominence: the height above the higher side minimum, each side
            # walked out from the peak until the column rises above it (or is
            # NaN); a top that rises again or runs into an edge has height 0
            sides = range(i, -1, -1), range(i, len(y))
            base = max(min(takewhile(lambda v: v <= y[i], (y[k] for k in side))) for side in sides)
            if y[i] - base >= 0.01:
                count += 1
    return count


def detect_zero_plateau(table: SweepTable, column: str) -> list[tuple[float, float]]:
    """Maximal axis intervals where ``column`` stays at zero (<= 1e-10)."""
    return _intervals(table, [v <= 1e-10 for v in _series(table, column)])
