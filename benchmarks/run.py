"""End-to-end benchmark of the dimercorr CLI.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload field_map --seed 1 --seconds 40 --trace 0

With ``--trace 0`` it calls ``python -m dimercorr`` as subprocesses, one at
a time, repeating whole rounds of the workload's calls until ``--seconds``
have passed, and reports the end-to-end metrics.  With ``--trace 1`` it
runs the same calls in process through ``dimercorr.cli.main`` with every
layer's public functions wrapped (see trace_layers.py) and reports the per-layer
metrics.  Either way each call's output is checked against the independent
reference.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import Tally, check_call
from trace_layers import run_traced
from workloads import WORKLOADS, Call, build_round

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3
CALL_TIMEOUT_S = 60.0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(args: list[str], stdout_path: Path) -> tuple[int, float, float]:
    """Run one process; return its exit code, wall seconds and peak RSS in MB."""
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4: Popen must not wait again
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def setup(run_dir: Path) -> float:
    """Median wall time of a fresh interpreter importing dimercorr from src/.

    Bytecode is compiled first, as an installed package would have it.
    Exits the benchmark when the package does not import from this checkout.
    """
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "dimercorr")],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, check=False,
    )
    probe = "import dimercorr, sys; sys.stdout.write(dimercorr.__file__)"
    times = []
    for _ in range(SETUP_REPEATS):
        code, wall, _ = run_child([sys.executable, "-c", probe], run_dir / "setup.out")
        where = (run_dir / "setup.out").read_text()
        if code != 0 or not Path(where).resolve().is_relative_to(SRC):
            sys.exit(f"error: dimercorr does not import from {SRC} (exit {code}, found {where!r})")
        times.append(wall)
    return statistics.median(times)


def run_untraced(calls: list[Call], seconds: float, run_dir: Path) -> dict:
    """Set up, then run whole rounds of CLI subprocesses; return the end-to-end result."""
    tally = Tally()
    setup_s = setup(run_dir)
    walls: dict[str, list[float]] = {"point": [], "threshold": [], "verify": []}
    sweep_rounds: list[float] = []  # a round's sweeps summed, so each one weighs on sweep_s
    peak_rss = 0.0
    out_path = run_dir / "call.out"
    start = time.perf_counter()
    while True:
        sweep_wall = 0.0
        for call in calls:
            code, wall, rss = run_child([sys.executable, "-m", "dimercorr", *call.argv], out_path)
            tally.add(call, check_call(call, code, out_path.read_text(errors="replace")))
            if call.kind == "sweep":
                sweep_wall += wall
            else:
                walls[call.kind].append(wall)
            peak_rss = max(peak_rss, rss)
        sweep_rounds.append(sweep_wall)
        if time.perf_counter() - start >= seconds:
            break
    tally.report_deviations()
    metrics = {
        "setup_s": (setup_s, "s"),
        "sweep_s": (statistics.median(sweep_rounds), "s"),
        **{f"{kind}_s": (statistics.median(w), "s") for kind, w in walls.items()},
        "quantum_digits": (tally.quantum_digits(), "digits"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return tally.result(metrics)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "dimercorr" / "__init__.py").is_file():
        print(f"error: no dimercorr package under {SRC}", file=sys.stderr)
        return 2

    calls = build_round(args.workload, args.seed)
    if args.trace:
        result = run_traced(calls, args.seconds, ROOT, child_env())
    else:
        run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            result = run_untraced(calls, args.seconds, run_dir)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
