"""Workload definitions: the CLI calls of one round, made from a seed.

A round is a fixed list of ``dimercorr`` invocations.  Every call carries
what its output must satisfy: the exact parameter columns it should print
(for ``point`` and ``sweep``), the gamma grid (for ``threshold``), and the
property checks that apply to it.  The benchmark repeats whole rounds, so
every run attempts the same operations in the same proportions.

Every workload runs each of the four subcommands at least once per round,
so each reports every end-to-end metric; the workloads differ in which
calls carry the work.  quantum_digits is taken over the calls marked
``digits``: fixed sweeps, so it is the same for every seed.  Seeded calls
are held to the same tolerances but would make it jump between the
discrete error levels of the dense route (1.07e-8, 1.32e-8, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reference import threshold_temperature

__all__ = ["BAND", "Call", "SweepInput", "WORKLOADS", "build_round"]

# Relative half-width of the band around a zero-field threshold temperature
# that the C > 0 / C = 0 property check leaves out.  At 0.1 % below the
# threshold C is still about 5e-4, far above the dense route's noise.
BAND = 1e-3

THRESHOLD_RANGE = (-1.0, 0.99, 100)
INPUT_COLUMNS = ("T", "gamma", "b1", "b2")


@dataclass(frozen=True)
class SweepInput:
    """A sweep as the library sees it: base parameters, axes and fixed T."""

    gamma: float
    b1: float
    b2: float
    temp: float | None
    axes: tuple[tuple[str, float, float, int], ...]  # (name, start, stop, points)


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must satisfy."""

    kind: str  # "point", "sweep", "threshold" or "verify"
    argv: tuple[str, ...]
    inputs: dict[str, np.ndarray] | None = None  # expected T, gamma, b1, b2 columns
    sweep: SweepInput | None = None
    fmt: str = "csv"
    symmetric_grid: bool = False  # 2-D b1 x b2 map: b1 <-> b2 and global flip
    window: bool = False  # 1-D T scan with a finite quantum > classical window
    digits: bool = False  # a fixed sweep whose quantum column sets quantum_digits
    gammas: np.ndarray | None = None  # threshold grid


def _num(x: float) -> str:
    return repr(float(x))


def point_call(model: str, t: float, gamma: float | None = None, b1: float = 0.0, b2: float = 0.0) -> Call:
    argv = ["point", "--model", model]
    if gamma is not None:
        argv += ["--gamma", _num(gamma)]
    if b1 or b2:
        argv += ["--b1", _num(b1), "--b2", _num(b2)]
    argv += ["--temp", _num(t)]
    g = -1.0 if model == "xy" else (0.0 if gamma is None else gamma)
    inputs = {k: np.array([v], dtype=float) for k, v in zip(INPUT_COLUMNS, (t, g, b1, b2))}
    return Call("point", tuple(argv), inputs=inputs)


def _sweep_columns(s: SweepInput) -> dict[str, np.ndarray]:
    """Parameter columns in the CLI's row-major order (axis 1 outer)."""
    grids = [np.linspace(start, stop, points) for _, start, stop, points in s.axes]
    mesh = np.meshgrid(*grids, indexing="ij")
    n = mesh[0].size
    cols = {
        "T": np.full(n, s.temp if s.temp is not None else np.nan),
        "gamma": np.full(n, s.gamma),
        "b1": np.full(n, s.b1),
        "b2": np.full(n, s.b2),
    }
    for (name, *_), values in zip(s.axes, mesh):
        cols[name] = values.ravel().copy()
    return cols


def sweep_call(
    model: str,
    axes: list[tuple[str, float, float, int]],
    *,
    gamma: float | None = None,
    b1: float = 0.0,
    b2: float = 0.0,
    temp: float | None = None,
    fmt: str = "csv",
    symmetric_grid: bool = False,
    window: bool = False,
    digits: bool = False,
) -> Call:
    argv = ["sweep", "--model", model]
    if gamma is not None:
        argv += ["--gamma", _num(gamma)]
    if b1 or b2:
        argv += ["--b1", _num(b1), "--b2", _num(b2)]
    if temp is not None:
        argv += ["--temp", _num(temp)]
    for name, start, stop, points in axes:
        argv += ["--axis", f"{name}={_num(start)}:{_num(stop)}:{points}"]
    if fmt == "json":
        argv += ["--format", "json"]
    g = -1.0 if model == "xy" else (0.0 if gamma is None else gamma)
    s = SweepInput(g, b1, b2, temp, tuple(axes))
    return Call(
        "sweep",
        tuple(argv),
        inputs=_sweep_columns(s),
        sweep=s,
        fmt=fmt,
        symmetric_grid=symmetric_grid,
        window=window,
        digits=digits,
    )


def threshold_call() -> Call:
    start, stop, points = THRESHOLD_RANGE
    return Call(
        "threshold",
        ("threshold", "--gamma", f"{start:g}:{stop:g}:{points}"),
        gammas=np.linspace(start, stop, points),
    )


def verify_call() -> Call:
    return Call("verify", ("verify", "--suite", "all"))


def _straddling_t_scan(gamma: float, points: int) -> Call:
    """Heisenberg T scan from 0.02 whose grid puts the threshold mid-gap.

    The threshold falls halfway between grid points points/2 - 1 and
    points/2, so the scan itself leaves out a band of half a grid step
    (larger than BAND) on each side of it.
    """
    t_min = 0.02
    t_th = threshold_temperature(gamma)
    step = (t_th - t_min) / (points // 2 - 0.5)
    t_max = t_min + (points - 1) * step
    return sweep_call("heisenberg", [("T", t_min, t_max, points)], gamma=gamma)


def field_map(rng: np.random.Generator) -> list[Call]:
    """The paper's nonuniform-field map: every point has a new Hamiltonian."""
    grid = np.linspace(-3.0, 3.0, 61)
    b1, b2 = rng.choice(grid, 2)
    return [
        sweep_call(
            "xy",
            [("b1", -3.0, 3.0, 61), ("b2", -3.0, 3.0, 61)],
            temp=0.3,
            fmt="json",
            symmetric_grid=True,
            digits=True,
        ),
        point_call("xy", 0.3, b1=float(b1), b2=float(b2)),
        threshold_call(),
        verify_call(),
    ]


def temperature_scan(rng: np.random.Generator) -> list[Call]:
    """T rows at fixed H, down to T = 0.02, across the threshold."""
    gamma = round(float(rng.uniform(-1.0, 0.9)), 3)
    point_gamma = round(float(rng.uniform(-1.0, 0.9)), 3)
    point_t = round(math.exp(rng.uniform(math.log(0.02), math.log(0.2))), 4)
    return [
        sweep_call("heisenberg", [("gamma", -1.0, 0.9, 10), ("T", 0.02, 4.0, 150)], digits=True),
        _straddling_t_scan(gamma, 600),
        sweep_call("xy", [("T", 0.02, 3.0, 600)], b1=1.05, b2=1.05, window=True, digits=True),
        point_call("heisenberg", point_t, gamma=point_gamma),
        threshold_call(),
        verify_call(),
    ]


WORKLOADS = {
    "field_map": field_map,
    "temperature_scan": temperature_scan,
}


def build_round(name: str, seed: int) -> list[Call]:
    """The calls of one round of workload ``name``; the same seed gives the same calls."""
    return WORKLOADS[name](np.random.default_rng(seed))
