"""Traced pass: per-layer spans and counts, recorded from the benchmark's side.

The package is not changed.  For the duration of the pass the public
functions of each layer are replaced, in every ``dimercorr`` module that
holds a reference to them, by wrappers that record a span (name, start,
end, parent span, request, thread); ``numpy.linalg.eigh`` and ``eigvalsh``
are wrapped to count calls.  Everything is restored afterwards.

Each round replays the workload's CLI calls through ``dimercorr.cli.main``
with standard output captured (one request each), then re-runs every sweep
of the round with ``threads=1`` (the "serial" request).  Per-call layer
times of the sweep pipeline and the per-point counts come from that serial
replay, where no thread pool shares the interpreter.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import re
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from checks import Tally, check_call
from workloads import Call

SERIAL = "serial"
IMPORT_REPEATS = 2  # python -X importtime runs; the init.* metrics are their medians
OVERHEAD_PAIRS = 9  # untraced/traced block pairs in tracing_overhead
OVERHEAD_CALLS = 200  # report(thermal_state(...)) calls per block

# (module, function) -> span name.
LAYERS = {
    ("cli", "main"): "cli.main",
    ("sweep", "run_sweep"): "sweep.run_sweep",
    ("models", "build_hamiltonian"): "models.build_hamiltonian",
    ("models", "thermal_state"): "models.thermal_state",
    ("models", "thermal_state_analytic"): "models.thermal_state_analytic",
    ("models", "concurrence_analytic"): "models.concurrence_analytic",
    ("matkernel", "gibbs"): "matkernel.gibbs",
    ("matkernel", "check_density_matrix"): "matkernel.check_density_matrix",
    ("correlations", "report"): "correlations.report",
    ("correlations", "mutual_information"): "correlations.mutual_information",
    ("correlations", "concurrence"): "correlations.concurrence",
    ("correlations", "is_separable_ppt"): "correlations.is_separable_ppt",
    ("correlations", "sample_decomposition_average"): "correlations.sample_decomposition_average",
    ("threshold", "threshold_curve"): "threshold.threshold_curve",
    ("verify", "check_gibbs_equivalence"): "verify.gibbs",
    ("verify", "check_wootters_closed_form"): "verify.wootters",
    ("verify", "check_ppt_agreement"): "verify.ppt",
    ("verify", "check_ensemble_bound"): "verify.ensemble",
}
COUNTED = ("eigh", "eigvalsh")  # numpy.linalg functions whose calls are counted

# Per-call means in microseconds, taken from the serial sweep replay.
PIPELINE_US = (
    "models.build_hamiltonian",
    "models.thermal_state",
    "matkernel.gibbs",
    "matkernel.check_density_matrix",
    "correlations.report",
    "correlations.mutual_information",
    "correlations.concurrence",
)
# Per-call means from the workload's own calls on the main thread.
OTHER_US = (
    "models.thermal_state_analytic",
    "models.concurrence_analytic",
    "correlations.is_separable_ppt",
)
OTHER_S = (
    "correlations.sample_decomposition_average",
    "threshold.threshold_curve",
    "verify.gibbs",
    "verify.wootters",
    "verify.ppt",
    "verify.ensemble",
)


@dataclass(slots=True)
class Span:
    ident: int
    parent: int | None
    request: str
    name: str
    thread: int
    start: float
    end: float = 0.0
    child_time: float = 0.0


class Tracer:
    """Collects spans and counts in memory while wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.request = ""
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                s = Span(len(self.spans), stack[-1].ident if stack else None, self.request,
                         name, threading.get_ident(), time.perf_counter())
                self.spans.append(s)
                self.counts[name] += 1
            stack.append(s)
            try:
                return fn(*args, **kwargs)
            finally:
                s.end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1].child_time += s.end - s.start

        return traced

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        for mod_name, _ in LAYERS:
            importlib.import_module(f"dimercorr.{mod_name}")
        modules = [m for n, m in list(sys.modules.items()) if n == "dimercorr" or n.startswith("dimercorr.")]
        for (mod_name, fn_name), span_name in LAYERS.items():
            fn = getattr(sys.modules[f"dimercorr.{mod_name}"], fn_name, None)
            if fn is None:  # a layer function that no longer exists reports 0
                continue
            wrapper = self.span(span_name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)
        for name in COUNTED:
            self._replace(np.linalg, name, self.counter(f"linalg.{name}", getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,request,name,thread,start,end\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.ident},{parent},{s.request},{s.name},{s.thread},{s.start!r},{s.end!r}\n")


def import_times(root: Path, env: dict[str, str]) -> dict[str, float]:
    """Cumulative import seconds of numpy and scipy.signal under ``import dimercorr``."""
    found: dict[str, list[float]] = defaultdict(list)
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import dimercorr"],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in ("numpy", "scipy.signal"):
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    return {name: statistics.median(values) for name, values in found.items()}


def _spec(call: Call):
    from dimercorr import Axis, ModelParams, SweepSpec

    s = call.sweep
    base = ModelParams(gamma=s.gamma, b1=s.b1, b2=s.b2)
    axes = [Axis(name, start, stop, points) for name, start, stop, points in s.axes]
    return SweepSpec(base=base, axis1=axes[0], axis2=axes[1] if len(axes) > 1 else None, temp=s.temp)


def tracing_overhead() -> float:
    """Traced over untraced time of one point's report: median over adjacent pairs.

    Each pair times OVERHEAD_CALLS calls untraced and then traced, back to back,
    so both sides see the same phase of a noisy machine.
    """
    import dimercorr

    p = dimercorr.ModelParams(gamma=-1.0, b1=0.7, b2=-1.1)

    def block() -> float:
        t0 = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):  # looked up on each call, so the wrappers apply
            dimercorr.report(dimercorr.thermal_state(p, 0.3))
        return time.perf_counter() - t0

    block()  # warm-up
    ratios = []
    for _ in range(OVERHEAD_PAIRS):
        untraced = block()
        tracer = Tracer()
        tracer.install()
        try:
            ratios.append(block() / untraced)
        finally:
            tracer.uninstall()
    return statistics.median(ratios)


def cli_call(call: Call) -> tuple[int, str]:
    """Run one call through ``dimercorr.cli.main``; return its exit code and stdout.

    An exception that ``main`` lets through counts as exit code 1, as it
    would for the CLI in a subprocess.
    """
    import dimercorr.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = dimercorr.cli.main(list(call.argv))
        except Exception as exc:
            print(f"{' '.join(call.argv)} raised {exc!r}", file=sys.stderr)
            code = 1
    return code, buf.getvalue()


def run_traced(calls: list[Call], seconds: float, root: Path, env: dict[str, str]) -> dict:
    """Replay whole rounds in process with tracing on; return the per-layer result."""
    tally = Tally()
    src = root / "src"
    init = import_times(root, env)
    sys.path.insert(0, str(src))
    import dimercorr.sweep

    if not Path(dimercorr.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: dimercorr does not import from {src}")
    overhead = tracing_overhead()
    specs = [_spec(c) for c in calls if c.kind == "sweep"]
    points = sum(c.inputs["T"].size for c in calls if c.kind == "sweep")

    tracer = Tracer()
    tracer.install()
    per_round: dict[str, list[float]] = defaultdict(list)
    start = time.perf_counter()
    try:
        for round_no in itertools.count():
            first = len(tracer.spans)
            for i, call in enumerate(calls):
                tracer.request = f"{round_no}.{i}"
                tally.add(call, check_call(call, *cli_call(call)))
            tracer.request = SERIAL
            before = dict(tracer.counts)
            for spec in specs:
                dimercorr.sweep.run_sweep(spec, threads=1)
            serial_counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
            for key, value in _round_totals(tracer.spans[first:]).items():
                per_round[key].append(value)
            if time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.uninstall()
    tracer.write(root / ".bench_runs" / "spans.csv")

    print(f"tracing overhead: report(thermal_state(...)) {100 * (overhead - 1):+.1f} % traced", file=sys.stderr)
    tally.report_deviations()
    return tally.result(_metrics(tracer, per_round, serial_counts, points, init))


def _round_totals(spans: list[Span]) -> dict[str, float]:
    """Top-level times of one round: CLI calls, their self time, and sweeps."""
    totals = dict.fromkeys(
        ("cli.main_s", "cli.main_self_s", "sweep.run_sweep_s", "sweep.run_sweep_serial_s"), 0.0
    )
    for s in spans:
        if s.name == "cli.main":
            totals["cli.main_s"] += s.end - s.start
            totals["cli.main_self_s"] += s.end - s.start - s.child_time
        elif s.name == "sweep.run_sweep":
            key = "sweep.run_sweep_serial_s" if s.request == SERIAL else "sweep.run_sweep_s"
            totals[key] += s.end - s.start
    return totals


def _metrics(tracer: Tracer, per_round, serial_counts, points: int, init) -> dict[str, tuple[float, str]]:
    main_thread = threading.main_thread().ident
    serial: dict[str, list[float]] = defaultdict(list)
    own: dict[str, list[float]] = defaultdict(list)
    for s in tracer.spans:
        if s.thread == main_thread:
            (serial if s.request == SERIAL else own)[s.name].append(s.end - s.start)

    def mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    m: dict[str, tuple[float, str]] = {
        "init.import_scipy_signal_s": (init.get("scipy.signal", 0.0), "s"),
        "init.import_numpy_s": (init.get("numpy", 0.0), "s"),
    }
    for key in ("cli.main_s", "cli.main_self_s", "sweep.run_sweep_s", "sweep.run_sweep_serial_s"):
        m[key] = (statistics.median(per_round[key]), "s")
    m["sweep.points"] = (points, "count")
    m["sweep.point_us"] = (m["sweep.run_sweep_serial_s"][0] / points * 1e6, "us")
    m["models.build_hamiltonian_calls"] = (serial_counts.get("models.build_hamiltonian", 0), "count")
    m["matkernel.check_density_matrix_calls_per_point"] = (
        serial_counts.get("matkernel.check_density_matrix", 0) / points, "count")
    for name in COUNTED:
        m[f"linalg.{name}_calls_per_point"] = (serial_counts.get(f"linalg.{name}", 0) / points, "count")
    for name in PIPELINE_US:
        m[f"{name}_us"] = (mean(serial[name]) * 1e6, "us")
    for name in OTHER_US:
        m[f"{name}_us"] = (mean(own[name]) * 1e6, "us")
    for name in OTHER_S:
        m[f"{name}_s"] = (mean(own[name]), "s")
    return m
