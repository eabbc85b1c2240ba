"""numpy is the package's only run-time dependency: nothing it runs imports scipy."""

import re
import subprocess
import sys
from pathlib import Path

import dimercorr

# Each run first blocks scipy: an `import scipy...` anywhere then raises ImportError.
GUARDED_RUN = """
import contextlib, io, sys
sys.modules["scipy"] = None
from dimercorr import cli
from dimercorr.models import ModelParams
from dimercorr.sweep import Axis, SweepSpec, run_sweep
from dimercorr.sweep import count_peaks, detect_quantum_exceeds_classical, detect_zero_plateau
from dimercorr.threshold import tth_numeric

def anti(t):
    return run_sweep(SweepSpec(base=ModelParams(-1.0), axis1=Axis("b_anti", -3.0, 3.0, 201), temp=t))

assert count_peaks(anti(1.6), "quantum") == 2
assert detect_zero_plateau(anti(2.5), "quantum") == [(-1.08, 1.08)]
window = run_sweep(SweepSpec(base=ModelParams(-1.0, 1.05, 1.05), axis1=Axis("T", 0.01, 2.0, 400)))
assert detect_quantum_exceeds_classical(window)
assert tth_numeric(ModelParams(-1.0, 0.5, -0.5)) > 0.0
assert "numpy" not in sys.modules  # the closed-form route and its analyses run on float lists
for argv in (
    ["point", "--gamma", "0", "--b1", "0.7", "--b2", "-0.3", "--temp", "1.2"],
    ["sweep", "--model", "xy", "--temp", "0.3", "--axis", "b_anti=-3:3:61"],
    ["threshold", "--gamma", "-1:0.99:100"],
    ["verify", "--suite", "all"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
"""


def test_the_package_runs_with_scipy_blocked():
    proc = subprocess.run([sys.executable, "-c", GUARDED_RUN], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_no_module_imports_scipy():
    importing = re.compile(r"^\s*(from|import)\s+scipy\b", re.MULTILINE)
    package = Path(dimercorr.__file__).resolve().parent
    assert not [path.name for path in package.glob("*.py") if importing.search(path.read_text(encoding="utf-8"))]
