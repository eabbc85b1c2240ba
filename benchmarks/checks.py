"""Output parsers and correctness checks for the benchmark's CLI calls.

Every check compares what the program printed with the independent
reference in ``reference.py`` or with a physical property; no stored copy
of earlier output is used.  The tolerances, and the figures they rest on,
are listed in README.md.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from reference import correlations, threshold_temperature
from workloads import BAND, INPUT_COLUMNS, Call

__all__ = ["DIGITS_FLOOR", "TOL", "Outcome", "Tally", "check_call", "quantum_digits"]

CSV_HEADER = "T,gamma,b1,b2,total,quantum,classical,concurrence"
OUTPUT_COLUMNS = ("total", "quantum", "classical", "concurrence")

# Largest allowed |printed - reference| per column.  Values are printed to
# 12 significant digits (<= 5e-12 of rounding for values up to 2 bits); the
# dense route is good to ~1e-14 in total and ~1.5e-8 in the others.
TOL = {"total": 1e-11, "quantum": 1e-7, "classical": 1e-7, "concurrence": 1e-7}
THRESHOLD_TOL = 1e-9
# Parameter columns are printed to 12 significant digits.
INPUT_RTOL = 1e-11
# classical = total - quantum, up to three 12-digit roundings.
PRINT_TOL = 2e-11
# quantum_digits is floored at the printed precision of the quantum column.
DIGITS_FLOOR = 1e-12


@dataclass
class Outcome:
    """Result of checking one call: problems found and worst deviations."""

    failed: bool = False  # the call exited with a nonzero code
    problems: list[str] = field(default_factory=list)
    deviations: dict[str, float] = field(default_factory=dict)


def quantum_digits(worst_deviation: float) -> float:
    """-log10 of the worst quantum deviation, floored at print precision.

    A deviation of 1 or more, or an infinite one (a digits call that failed
    or printed nothing readable), reads 0 digits.
    """
    return -math.log10(min(max(worst_deviation, DIGITS_FLOOR), 1.0))


def parse_records(text: str, fmt: str) -> dict[str, np.ndarray]:
    """Columns of a ``point``/``sweep`` output, CSV or JSON."""
    names = INPUT_COLUMNS + OUTPUT_COLUMNS
    if fmt == "json":
        records = json.loads(text)["records"]
        return {k: np.array([rec[k] for rec in records], dtype=float) for k in names}
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"CSV header is {lines[0] if lines else ''!r}, expected {CSV_HEADER!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]], dtype=float)
    rows = rows.reshape(-1, len(names))
    return {k: rows[:, i] for i, k in enumerate(names)}


def _close(got: np.ndarray, want: np.ndarray) -> bool:
    return bool(np.all(np.abs(got - want) <= INPUT_RTOL * np.maximum(1.0, np.abs(want))))


def check_records(rec: dict[str, np.ndarray], call: Call) -> Outcome:
    """Reference agreement and physical properties of printed records."""
    out = Outcome()
    want = call.inputs
    if rec["T"].shape != want["T"].shape:
        out.problems.append(f"{rec['T'].size} records, expected {want['T'].size}")
        return out
    for name in INPUT_COLUMNS:
        if not _close(rec[name], want[name]):
            out.problems.append(f"column {name} does not match the requested grid")
    if out.problems:
        return out

    ref = correlations(want["gamma"], want["b1"], want["b2"], want["T"])
    for name in OUTPUT_COLUMNS:
        dev = float(np.max(np.abs(rec[name] - ref[name])))
        out.deviations[name] = dev
        if not dev <= TOL[name]:
            out.problems.append(f"{name} is {dev:.3g} from the reference (tolerance {TOL[name]:g})")

    split = float(np.max(np.abs(rec["classical"] - (rec["total"] - rec["quantum"]))))
    if not split <= PRINT_TOL:
        out.problems.append(f"classical differs from total - quantum by {split:.3g}")
    c = rec["concurrence"]
    if not np.all((c >= 0.0) & (c <= 1.0)):
        out.problems.append("concurrence outside [0, 1]")
    out.problems += _threshold_property(rec)
    if call.symmetric_grid:
        out.problems += _symmetry_property(rec)
    if call.window:
        out.problems += _window_property(rec)
    return out


def _threshold_property(rec: dict[str, np.ndarray]) -> list[str]:
    """At zero field, C > 0 below the threshold temperature and C = 0 above it."""
    zero_field = (rec["b1"] == 0.0) & (rec["b2"] == 0.0) & (rec["gamma"] < 1.0)
    problems = []
    for gamma in np.unique(rec["gamma"][zero_field]):
        rows = zero_field & (rec["gamma"] == gamma)
        t, c = rec["T"][rows], rec["concurrence"][rows]
        t_th = threshold_temperature(float(gamma))
        below, above = t < t_th * (1.0 - BAND), t > t_th * (1.0 + BAND)
        if not np.all(c[below] > 0.0):
            problems.append(f"gamma={gamma:g}: C = 0 below the threshold T={t_th:.6g}")
        if not np.all(c[above] == 0.0):
            problems.append(f"gamma={gamma:g}: C > 0 above the threshold T={t_th:.6g}")
    return problems


def _symmetry_property(rec: dict[str, np.ndarray]) -> list[str]:
    """A square b1 x b2 map is unchanged by b1 <-> b2 and by (b1, b2) -> (-b1, -b2)."""
    n = math.isqrt(rec["b1"].size)
    if n * n != rec["b1"].size:
        return ["field map is not a square grid"]
    b1 = rec["b1"].reshape(n, n)[:, 0]
    if not np.allclose(b1, -b1[::-1]):
        return ["field map grid is not symmetric about zero"]
    problems = []
    for name in OUTPUT_COLUMNS:
        grid = rec[name].reshape(n, n)
        for label, image in (("b1 <-> b2", grid.T), ("global flip", grid[::-1, ::-1])):
            gap = float(np.max(np.abs(grid - image)))
            if not gap <= 2.0 * TOL[name]:
                problems.append(f"{name} changes by {gap:.3g} under {label}")
    return problems


def _window_property(rec: dict[str, np.ndarray]) -> list[str]:
    """quantum > classical on a finite T window inside the scan."""
    above = rec["quantum"] > rec["classical"]
    if not above.any() or above[0] or above[-1]:
        return ["no finite T window with quantum > classical"]
    return []


def check_threshold(text: str, gammas: np.ndarray) -> Outcome:
    """``threshold`` output against the reference root of gamma = (T/2) ln(e^{2/T} - 2)."""
    out = Outcome()
    lines = text.splitlines()
    if not lines or lines[0] != "gamma,t_th,degenerate":
        out.problems.append("threshold header is wrong")
        return out
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != gammas.size or any(len(r) != 3 for r in rows):
        out.problems.append(f"threshold printed {len(rows)} rows, expected {gammas.size}")
        return out
    got_gamma = np.array([float(r[0]) for r in rows])
    t_th = np.array([float(r[1]) for r in rows])
    if not _close(got_gamma, gammas):
        out.problems.append("threshold gamma column does not match the requested range")
        return out
    want = np.array([threshold_temperature(float(g)) for g in gammas])
    dev = float(np.max(np.abs(t_th - want)))
    out.deviations["t_th"] = dev
    if not dev <= THRESHOLD_TOL:
        out.problems.append(f"t_th is {dev:.3g} from the reference (tolerance {THRESHOLD_TOL:g})")
    if any(r[2] != "false" for r in rows):
        out.problems.append("a gamma < 1 threshold is marked degenerate")
    if not np.all(np.diff(t_th) < 0.0):
        out.problems.append("t_th does not fall strictly as gamma rises")
    return out


def check_verify(text: str) -> Outcome:
    """``verify`` must list its checks, pass all of them and say so."""
    out = Outcome()
    lines = text.splitlines()
    results = [line for line in lines if line.startswith("[")]
    passed = [line for line in results if "  PASS  " in line]
    if not results or len(passed) != len(results):
        out.problems.append(f"verify passed {len(passed)} of {len(results)} checks")
    if not lines or lines[-1] != f"all {len(results)} checks passed":
        out.problems.append("verify does not report that every check passed")
    return out


def check_call(call: Call, returncode: int, stdout: str) -> Outcome:
    """Check one call's exit code and output."""
    if returncode != 0:
        return Outcome(failed=True, problems=[f"{' '.join(call.argv)} exited {returncode}"])
    try:
        if call.kind == "threshold":
            return check_threshold(stdout, call.gammas)
        if call.kind == "verify":
            return check_verify(stdout)
        return check_records(parse_records(stdout, call.fmt), call)
    except (ValueError, KeyError, IndexError, TypeError) as exc:  # unparsable output
        return Outcome(problems=[f"{' '.join(call.argv)}: unreadable output ({exc})"])


class Tally:
    """Operations attempted and failed, output problems and worst deviations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.deviations: dict[str, float] = {}
        self.digits_deviation = 0.0

    def add(self, call: Call, outcome: Outcome) -> None:
        self.attempted += 1
        if call.digits:  # no quantum column compared (failed, unreadable, wrong grid): no digits
            self.digits_deviation = max(self.digits_deviation, outcome.deviations.get("quantum", math.inf))
        if outcome.failed:
            self.failed += 1
        else:
            self.problems += outcome.problems
        for name, dev in outcome.deviations.items():
            self.deviations[name] = max(dev, self.deviations.get(name, 0.0))
        for problem in outcome.problems:
            print(f"check: {problem}", file=sys.stderr)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }

    def quantum_digits(self) -> float:
        return quantum_digits(self.digits_deviation)

    def report_deviations(self) -> None:
        worst = ", ".join(f"{k} {v:.3g}" for k, v in sorted(self.deviations.items()))
        print(f"worst |printed - reference|: {worst}", file=sys.stderr)
