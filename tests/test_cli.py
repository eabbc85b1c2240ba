"""Command-line interface: formats, exit codes, determinism."""

import hashlib
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dimercorr.cli import CSV_HEADER, _json_number, main
from dimercorr.models import ModelParams, closed_form_correlations
from dimercorr.sweep import RECORD_COLUMNS, Axis, SweepSpec, run_sweep
from dimercorr.threshold import threshold_curve


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    assert lines[0] == CSV_HEADER
    return [dict(zip(CSV_HEADER.split(","), map(float, line.split(",")))) for line in lines[1:]]


def test_point_cold_isotropic(capsys):
    code, out, _ = run_cli(capsys, "point", "--model", "heisenberg", "--temp", "0.01")
    assert code == 0
    (row,) = parse_csv(out)
    assert abs(row["total"] - 2.0) < 1e-3
    assert abs(row["quantum"] - 1.0) < 1e-3
    assert abs(row["classical"] - 1.0) < 1e-3
    assert abs(row["concurrence"] - 1.0) < 1e-3
    assert (row["T"], row["gamma"], row["b1"], row["b2"]) == (0.01, 0.0, 0.0, 0.0)


def test_point_hot_xy(capsys):
    code, out, _ = run_cli(capsys, "point", "--model", "xy", "--temp", "100")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["gamma"] == -1.0
    for name in ("total", "quantum", "classical", "concurrence"):
        assert row[name] <= 1e-3


def test_point_writes_file(tmp_path, capsys):
    target = tmp_path / "point.csv"
    code, out, _ = run_cli(
        capsys, "point", "--model", "xy", "--b1", "0.5", "--temp", "1", "--output", str(target)
    )
    assert code == 0 and out == ""
    (row,) = parse_csv(target.read_text())
    assert row["b1"] == 0.5


def test_point_serves_fields_for_heisenberg(capsys, tmp_path):
    # the paper's system: a Heisenberg dimer in a nonuniform field
    columns = {"T": 1.0, "gamma": 0.0, "b1": 0.3, "b2": 0.0}
    columns.update(closed_form_correlations(0.0, 0.3, 0.0, 1.0))
    out = cli_bytes(capsys, tmp_path, "point", "--model", "heisenberg", "--b1", "0.3", "--temp", "1")
    assert out == oracle_csv(columns)


def test_point_gamma_overrides_the_xy_preset(capsys, tmp_path):
    columns = {"T": 1.0, "gamma": 0.2, "b1": 0.0, "b2": 0.0}
    columns.update(closed_form_correlations(0.2, 0.0, 0.0, 1.0))
    out = cli_bytes(capsys, tmp_path, "point", "--model", "xy", "--gamma", "0.2", "--temp", "1")
    assert out == oracle_csv(columns)


def test_point_model_defaults_to_heisenberg(capsys, tmp_path):
    argv = ["point", "--b1", "0.7", "--b2", "-0.3", "--temp", "1"]
    assert cli_bytes(capsys, tmp_path, *argv) == cli_bytes(capsys, tmp_path, *argv, "--model", "heisenberg")
    assert cli_bytes(capsys, tmp_path, "point", "--temp", "1").splitlines()[1].startswith("1,0,0,0,")


def test_sweep_csv_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        "heisenberg",
        "--gamma",
        "0",
        "--axis",
        "T=0.5:2:4",
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 4
    assert [r["T"] for r in rows] == [0.5, 1.0, 1.5, 2.0]
    # recompute one row independently from the closed form
    c = (math.sinh(1.0) - math.exp(-1.0)) / (math.cosh(1.0) + math.exp(-1.0))
    assert abs(rows[1]["concurrence"] - c) < 1e-9


def test_sweep_json_structure(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--model",
        "xy",
        "--temp",
        "1",
        "--axis",
        "b1=0:1:3",
        "--axis",
        "b2=0:1:2",
        "--format",
        "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["spec"]["gamma"] == -1.0
    assert doc["spec"]["temp"] == 1.0
    assert [a["name"] for a in doc["spec"]["axes"]] == ["b1", "b2"]
    assert len(doc["records"]) == 6
    first = doc["records"][0]
    assert set(first) == {"T", "gamma", "b1", "b2", "total", "quantum", "classical", "concurrence"}
    # row-major: b2 varies fastest
    assert [(r["b1"], r["b2"]) for r in doc["records"][:2]] == [(0.0, 0.0), (0.0, 1.0)]


def test_sweep_rejects_zero_temperature_grid(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--model", "heisenberg", "--gamma", "0", "--axis", "T=0:4:10"
    )
    assert code == 3
    assert "positive" in err.lower()


def test_sweep_takes_every_axis_with_either_preset(capsys, tmp_path):
    grid = np.linspace(0.25, 1.0, 4)
    writes = {
        "T": {"T": grid},
        "gamma": {"gamma": grid},
        "b1": {"b1": grid},
        "b2": {"b2": grid},
        "b_uniform": {"b1": grid, "b2": grid},
        "b_anti": {"b1": grid, "b2": -grid},
    }
    for model, gamma in (("heisenberg", 0.0), ("xy", -1.0)):
        for axis, written in writes.items():
            columns = {"T": 0.7, "gamma": gamma, "b1": 0.0, "b2": 0.0, **written}
            columns.update(closed_form_correlations(*(columns[name] for name in ("gamma", "b1", "b2", "T"))))
            argv = ["sweep", "--model", model, "--temp", "0.7", "--axis", f"{axis}=0.25:1:4"]
            assert cli_bytes(capsys, tmp_path, *argv) == oracle_csv(columns), argv


def test_sweep_rejects_malformed_axis(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--model", "heisenberg", "--gamma", "0", "--axis", "T=0.5:2"
    )
    assert code == 2


def test_sweep_is_deterministic(capsys):
    argv = ["sweep", "--model", "xy", "--temp", "0.8", "--axis", "b_anti=-2:2:41"]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0 and len(first.splitlines()) == 42
    code, again, _ = run_cli(capsys, *argv)
    assert code == 0 and again == first


def test_threshold_range_output(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma", "-1:1:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "gamma,t_th,degenerate"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == -1.0
    assert abs(float(first[1]) - 2.0 / math.log(1.0 + math.sqrt(2.0))) < 1e-6
    assert first[2] == "false"
    last = lines[-1].split(",")
    assert (float(last[0]), float(last[1]), last[2]) == (1.0, 0.0, "true")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_threshold_single_point(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma", "0:0:1")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert abs(float(row[1]) - 2.0 / math.log(3.0)) < 1e-6


def test_threshold_rejects_gamma_outside_range(capsys):
    code, _, err = run_cli(capsys, "threshold", "--gamma", "0:2:5")
    assert code == 3


def test_threshold_rejects_malformed_range(capsys):
    code, _, _ = run_cli(capsys, "threshold", "--gamma", "0:1")
    assert code == 2
    code, _, _ = run_cli(capsys, "threshold", "--gamma", "1:0:5")
    assert code == 2


def test_verify_runs_clean(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "gibbs", "--samples", "20")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out
    assert "  bound 1.0e-10  PASS  " in out  # each line shows the bound beside the residual
    assert out.splitlines()[-1] == "all 1 checks passed"


# verify --suite all's standard output with each residual masked: the
# residual digits depend on the BLAS build, the rest of each line does not
VERIFY_TEXT = "".join(
    f"[{suite:8s}] {name:<48s}  residual *  bound {bound}  PASS  ({detail})\n"
    for suite, name, bound, detail in (
        ("gibbs", "analytic vs numeric thermal state", "1.0e-10", "max entrywise deviation over 200 random box points"),
        ("wootters", "zero-field closed form vs pipeline", "1.0e-10", "max deviation over a 10x5 (gamma, T) grid"),
        ("wootters", "box closed form vs pipeline", "1.0e-10", "max deviation over 50 random box points"),
        (
            "ppt",
            "concurrence vs partial-transpose criterion",
            "0.0e+00",
            "disagreements over 1000 random density matrices",
        ),
        (
            "ensemble",
            "sampled decomposition average vs formation floor",
            "-1.0e-09",
            "worst (average - E_f) over 5 states x 10000 samples; must not fall below the bound",
        ),
    )
) + "all 5 checks passed\n"


def test_verify_prints_each_check_with_its_bound(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "all")
    assert (code, err) == (0, "")
    assert re.sub(r"residual \S+", "residual *", out) == VERIFY_TEXT


def test_verify_unknown_suite_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dimercorr", "point", "--model", "heisenberg", "--temp", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(CSV_HEADER)


def test_the_process_writes_every_byte_and_exit_code_before_it_exits(tmp_path):
    # entry() freezes the objects it leaves before sys.exit: nothing written may be lost
    def dimercorr(*argv):
        return subprocess.run([sys.executable, "-m", "dimercorr", *argv], capture_output=True, text=True)

    argv = ["sweep", "--model", "xy", "--temp", "0.3", "--axis", "b1=-3:3:61", "--axis", "b2=-3:3:61"]
    path = tmp_path / "map.csv"
    written, printed = dimercorr(*argv, "--output", str(path)), dimercorr(*argv)
    assert (written.returncode, written.stdout, written.stderr) == (0, "", "")
    assert (printed.returncode, printed.stderr) == (0, "")
    assert len(printed.stdout.splitlines()) == 1 + 61 * 61
    assert path.read_bytes() == printed.stdout.encode()
    domain = dimercorr("point", "--temp", "0")
    assert (domain.returncode, domain.stdout) == (3, "")
    assert domain.stderr == "error: temperature must be positive and finite, got 0.0\n"
    verify = dimercorr("verify", "--suite", "ppt")
    assert (verify.returncode, verify.stderr) == (0, "")
    assert verify.stdout.endswith("\nall 1 checks passed\n")


def _without_blas_threads(monkeypatch):
    # set, then delete, so that undo removes whatever entry() adds
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
def test_entry_defaults_blas_to_one_thread(monkeypatch, preset, seen):
    from dimercorr import cli

    _without_blas_threads(monkeypatch)
    if preset is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    observed = []

    def main():
        observed.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return 0

    monkeypatch.setattr(cli, "main", main)
    with pytest.raises(SystemExit) as exit_:
        cli.entry()
    assert exit_.value.code == 0
    assert observed == [seen]  # the caller's value wins over the default


def test_main_leaves_the_environment_alone(monkeypatch, capsys):
    _without_blas_threads(monkeypatch)
    before = dict(os.environ)
    code, _, _ = run_cli(capsys, "verify", "--suite", "gibbs", "--samples", "2")
    assert code == 0
    assert dict(os.environ) == before


def test_verify_output_does_not_depend_on_blas_threads():
    # the verdicts and residual digits on this build, whatever they are, with one BLAS thread or two
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "dimercorr", "verify", "--suite", "all"], env=env, capture_output=True, text=True
        )
        for env in (base, dict(base, OPENBLAS_NUM_THREADS="2"))
    ]
    for proc in runs:
        assert (proc.returncode, proc.stderr) == (0, "")
    assert runs[0].stdout == runs[1].stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--temp", "1"],
        ["sweep", "--temp", "1", "--axis", "b1=0:1:3"],
        ["threshold", "--gamma", "0:1:3"],
        ["verify", "--suite", "ppt"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout_exits_1_without_a_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dimercorr", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv,rows,concurrence",
    [
        pytest.param(["sweep", "--temp", "1e-300", "--axis", "b1=1e13:1.5e15:50"], 50, None, id="sweep"),
        # (b1 - b2)^2 overflows; the |dd> level stays degenerate with the
        # lower mixed level, and C = sin(theta) / 2 = 1e-160 (700-digit mpmath)
        pytest.param(["point", "--b1", "1e160", "--b2", "0", "--temp", "1"], 1, 1e-160, id="point"),
        # 2r overflows; C = sin(theta) / 2 = 1e-308 all the same
        pytest.param(["point", "--b1", "1e308", "--b2", "0", "--temp", "1"], 1, 1e-308, id="point-2r-overflows"),
        pytest.param(["point", "--b1", "-1e308", "--b2", "0", "--temp", "1"], 1, 1e-308, id="point-2r-overflows-neg"),
    ],
)
def test_extreme_field_to_temperature_ratio_runs_without_warnings(argv, rows, concurrence):
    proc = subprocess.run(
        [sys.executable, "-m", "dimercorr", argv[0], "--model", "xy", *argv[1:]],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) == rows + 1
    if concurrence is not None:
        got = float(proc.stdout.splitlines()[1].split(",")[-1])
        assert abs(got - concurrence) < 1e-12 * concurrence


@pytest.mark.parametrize(
    "flag,value,name",
    [("--b1", "inf", "b1"), ("--b1", "nan", "b1"), ("--temp", "nan", "temp"), ("--temp", "inf", "temp")],
)
def test_point_rejects_non_finite_inputs(capsys, flag, value, name):
    argv = {"--b1": "0.5", "--temp": "1", flag: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape main() and fail the test
        code, out, err = run_cli(
            capsys, "point", "--model", "xy", "--b1", argv["--b1"], "--temp", argv["--temp"]
        )
    assert code == 3
    assert out == ""
    assert name in err and "finite" in err


def test_sweep_rejects_non_finite_axis_and_temp(capsys):
    code, _, err = run_cli(capsys, "sweep", "--model", "xy", "--temp", "1", "--axis", "b1=-inf:1:5")
    assert code == 3 and "finite" in err
    code, _, err = run_cli(capsys, "sweep", "--model", "xy", "--temp", "nan", "--axis", "b1=0:1:5")
    assert code == 3 and "temperature" in err
    for temp in ("nan", "inf", "-1"):  # a fixed T beside a T axis is checked too
        code, out, err = run_cli(capsys, "sweep", "--temp", temp, "--axis", "T=0.1:1:3", "--format", "json")
        assert code == 3 and out == "" and "temperature" in err


def test_sweep_rejects_grid_leaving_the_domain(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--model", "heisenberg", "--temp", "1", "--axis", "gamma=-1.5:0.5:5"
    )
    assert code == 3
    assert out == ""
    assert "gamma" in err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_sweep_threads_below_one_is_usage_error(capsys, threads):
    # --threads is no longer an option, so any value, 1 included, is a usage error
    argv = ["sweep", "--model", "xy", "--temp", "0.8", "--axis", "b_anti=-2:2:5"]
    for value in (threads, "1"):
        code, out, err = run_cli(capsys, *argv, "--threads", value)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments: --threads" in err


@pytest.mark.parametrize(
    ("grid", "code"),
    [
        ("0:1", 2),
        ("0:x:3", 2),
        ("0:1:0", 2),
        ("1:0:5", 2),
        ("0:1:1", 2),
        ("0.5:0.5:1", 0),
        ("1:1:2", 2),
        ("1:1:3", 2),
        ("-inf:0:3", 3),
        ("0:nan:3", 3),
        ("-1e308:1e308:3", 3),
    ],
)
def test_threshold_ranges_and_sweep_axes_share_the_grid_rules(capsys, grid, code):
    assert run_cli(capsys, "threshold", "--gamma", grid)[0] == code
    assert run_cli(capsys, "sweep", "--temp", "1", "--axis", f"b1={grid}")[0] == code


def test_a_range_ending_at_negative_zero_prints_zero(capsys):
    # "-0" parses as -0.0, and the last grid point is the stop value itself
    code, out, _ = run_cli(capsys, "threshold", "--gamma", "-1:-0:3")
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()[1:]] == ["-1", "-0.5", "0"]


def test_three_axes_are_a_usage_error(capsys):
    axes = ("--axis", "b1=0:1:2", "--axis", "b2=0:1:2", "--axis", "gamma=0:1:2")
    code, out, err = run_cli(capsys, "sweep", "--temp", "1", *axes)
    assert (code, out) == (2, "") and "one or two --axis options" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and out.startswith("usage: dimercorr")


def test_json_numbers_are_what_json_dumps_prints_for_the_csv_digits():
    # every decimal exponent from underflow to overflow, and subnormals down to the smallest
    values = [float(f"{sign}1.5e{k}") for sign in "+-" for k in range(-330, 331)]
    values += [sign * math.ldexp(1.0, k) for sign in (1.0, -1.0) for k in range(-1074, -1021, 4)]
    for x in values:
        assert _json_number(x) == json.dumps(float("%.12g" % x)), x


def test_point_and_sweep_print_the_same_row(capsys):
    # the grid's last point is its stop value, 0.7 exactly
    _, sweep_out, _ = run_cli(
        capsys, "sweep", "--model", "xy", "--temp", "0.3", "--axis", "b1=0:0.7:2", "--b2", "-1.1"
    )
    row = sweep_out.splitlines()[-1]
    assert row.startswith("0.3,-1,0.7,-1.1,")
    _, point_out, _ = run_cli(
        capsys, "point", "--model", "xy", "--b1", "0.7", "--b2", "-1.1", "--temp", "0.3"
    )
    assert point_out.splitlines()[1] == row


# Each subcommand line: the package modules it loads beside the numpy-free boundary, and the modules it must leave
# unloaded.  One process per line, which first checks that ``import dimercorr`` alone loads neither numpy nor
# scipy.signal.
_BOUNDARY = {"dimercorr", "dimercorr.cli", "dimercorr.domain"}
_NOT_FOR_SWEEP = ["numpy", "dataclasses", "inspect", "json"]
_IMPORTS = {
    "point": ("point --model xy --b1 0.7 --b2 -1.1 --temp 0.3", {"models"}, ["numpy", "dataclasses"]),
    "point-heisenberg-fields": ("point --gamma 0 --b1 0.7 --b2 -0.3 --temp 0.3", {"models"}, ["numpy"]),
    "sweep-csv-T": ("sweep --model heisenberg --gamma 0.3 --axis T=0.02:4:150", {"models", "sweep"}, _NOT_FOR_SWEEP),
    "sweep-json-2d": (
        "sweep --model xy --temp 0.3 --axis b1=-3:3:61 --axis b2=-3:3:61 --format json",
        {"models", "sweep"},
        _NOT_FOR_SWEEP,
    ),
    "threshold": ("threshold --gamma -1:0.99:100", {"threshold"}, ["numpy", "dataclasses"]),
    "verify-gibbs": (
        "verify --suite gibbs --samples 2", {"models", "matkernel", "correlations", "verify"}, ["dataclasses"]
    ),
}


@pytest.mark.parametrize(("line", "runs", "absent"), list(_IMPORTS.values()), ids=list(_IMPORTS))
def test_subcommand_does_not_load(line, runs, absent):
    code = (
        "import contextlib, io, sys\n"
        "import dimercorr\n"
        "assert not {'numpy', 'scipy.signal'} & set(sys.modules)\n"
        "from dimercorr import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()): assert cli.main({line.split()!r}) == 0\n"
        f"print(*(name for name in sys.modules if name.partition('.')[0] == 'dimercorr' or name in {absent!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) == _BOUNDARY | {f"dimercorr.{module}" for module in runs}


def test_each_public_name_is_listed_in_its_submodule():
    # the package looks each public name up in one submodule, the names moved into domain too
    import importlib

    import dimercorr

    for name, module in dimercorr._SUBMODULE.items():
        assert name in importlib.import_module(f"dimercorr.{module}").__all__, name


def test_lazy_namespace_reads_the_submodule_at_every_lookup(monkeypatch):
    import dimercorr
    import dimercorr.correlations

    original = dimercorr.report
    sentinel = object()
    monkeypatch.setattr(dimercorr.correlations, "report", sentinel)
    assert dimercorr.report is sentinel  # a first lookup cached nothing
    monkeypatch.undo()
    assert dimercorr.report is original


def test_lazy_namespace_resolves_every_public_name():
    import importlib

    import dimercorr

    # the public surface, spelled out: adding or removing a name is a deliberate edit here
    assert dimercorr.__all__ == [
        "Axis",
        "CheckResult",
        "CorrelationReport",
        "DomainError",
        "ModelParams",
        "SweepSpec",
        "SweepTable",
        "ThresholdPoint",
        "ValidationError",
        "build_hamiltonian",
        "check_density_matrix",
        "closed_form_correlations",
        "concurrence",
        "count_peaks",
        "detect_quantum_exceeds_classical",
        "detect_zero_plateau",
        "entanglement_of_formation",
        "gibbs",
        "is_separable_ppt",
        "random_density_matrix",
        "report",
        "run_suites",
        "run_sweep",
        "sample_decomposition_average",
        "thermal_state",
        "thermal_state_analytic",
        "threshold_curve",
        "tth_anisotropic",
        "tth_numeric",
    ]
    for name in dimercorr.__all__:
        module = importlib.import_module(f"dimercorr.{dimercorr._SUBMODULE[name]}")
        assert getattr(dimercorr, name) is getattr(module, name), name
    assert set(dimercorr.__all__) <= set(dir(dimercorr))
    star: dict = {}
    exec("from dimercorr import *", star)
    assert all(star[name] is getattr(dimercorr, name) for name in dimercorr.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        dimercorr.no_such_name


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_samples_below_one_is_usage_error(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "--suite", "gibbs", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "samples" in err


def test_verify_negative_seed_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "ppt", "--seed", "-1")
    assert code == 2
    assert out == ""
    assert "seed" in err


# The record format the CLI has always printed, one Python call per value,
# kept here as the oracle for the bytes of the one-pass writer.
def _g(v):
    return format(float(v) + 0.0, ".12g")


def _oracle_records(columns):
    arrays = np.broadcast_arrays(*(np.asarray(columns[name], dtype=float) for name in RECORD_COLUMNS))
    return list(zip(*(a.ravel().tolist() for a in arrays)))


def oracle_csv(columns):
    lines = [CSV_HEADER] + [",".join(_g(v) for v in rec) for rec in _oracle_records(columns)]
    return "\n".join(lines) + "\n"


def oracle_json(table):
    spec = table.spec
    axes = [
        {"name": a.name, "start": a.start, "stop": a.stop, "points": a.points}
        for a in (spec.axis1, spec.axis2)
        if a is not None
    ]
    payload = {
        "spec": {
            "gamma": spec.base.gamma,
            "b1": spec.base.b1,
            "b2": spec.base.b2,
            "j": 1.0,
            "temp": spec.temp,
            "axes": axes,
        },
        "records": [
            {name: float(_g(v)) for name, v in zip(RECORD_COLUMNS, rec)}
            for rec in _oracle_records(table.columns)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def first_difference(got, want):
    """(line number, got's line, want's line) of the first line where two texts differ, or None if they are equal.

    pytest's own report of two unequal texts diffs them whole, which takes
    minutes for a map's 60,000 lines.
    """
    pairs = itertools.zip_longest(got.splitlines(True), want.splitlines(True))
    return next(((k, *pair) for k, pair in enumerate(pairs) if pair[0] != pair[1]), None)


def cli_bytes(capsys, tmp_path, *argv):
    """The command's standard output, checked to equal what --output writes."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    target = tmp_path / "out.txt"
    code, printed, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0 and printed == ""
    assert target.read_bytes() == out.encode("utf-8")
    return out


_XY = ModelParams(gamma=-1.0)
_MAP = (Axis("b1", -3.0, 3.0, 61), Axis("b2", -3.0, 3.0, 61))
_FIELD_MAP = ["--model", "xy", "--temp", "0.3", "--axis", "b1=-3:3:61", "--axis", "b2=-3:3:61"]


@pytest.mark.parametrize(
    ("fmt", "argv", "spec"),
    [
        ("csv", _FIELD_MAP, SweepSpec(_XY, *_MAP, temp=0.3)),
        ("json", _FIELD_MAP, SweepSpec(_XY, *_MAP, temp=0.3)),
        # the JSON spec: a null temp, a temp beside a T axis, -0.0, a two-column axis, a one-point grid, a
        # subnormal start beside 1e300, and the map with its axes swapped
        (
            "json",
            ["--gamma", "0.3", "--axis", "T=0.02:4:7"],
            SweepSpec(ModelParams(0.3), Axis("T", 0.02, 4.0, 7)),
        ),
        (
            "json",
            ["--gamma", "0.3", "--temp", "0.5", "--axis", "T=0.02:4:7"],
            SweepSpec(ModelParams(0.3), Axis("T", 0.02, 4.0, 7), temp=0.5),
        ),
        (
            "json",
            ["--model", "xy", "--b1", "-0.0", "--temp", "0.3", "--axis", "b2=-1:1:5"],
            SweepSpec(ModelParams(-1.0, -0.0), Axis("b2", -1.0, 1.0, 5), temp=0.3),
        ),
        (
            "json",
            ["--model", "xy", "--temp", "1.6", "--axis", "b_anti=-2:2:9"],
            SweepSpec(_XY, Axis("b_anti", -2.0, 2.0, 9), temp=1.6),
        ),
        (
            "json",
            ["--model", "xy", "--temp", "0.3", "--axis", "b1=0.25:0.25:1"],
            SweepSpec(_XY, Axis("b1", 0.25, 0.25, 1), temp=0.3),
        ),
        (
            "json",
            ["--model", "xy", "--temp", "0.3", "--axis", "b1=5e-324:1e300:3"],
            SweepSpec(_XY, Axis("b1", 5e-324, 1e300, 3), temp=0.3),
        ),
        (
            "json",
            ["--model", "xy", "--temp", "0.3", "--axis", "b2=-3:3:61", "--axis", "b1=-3:3:61"],
            SweepSpec(_XY, *_MAP[::-1], temp=0.3),
        ),
        # the writer's mirror: maps over one grid from -0.0 (whose grid starts at 0.0) and to -0.0 (whose b1 and
        # b2 columns end at -0.0), a 1 x 1 map, and equal counts on two grids, where the mirror must not engage
        (
            "json",
            ["--model", "xy", "--temp", "0.3", "--axis", "b1=-0.0:1:3", "--axis", "b2=-0.0:1:3"],
            SweepSpec(_XY, Axis("b1", -0.0, 1.0, 3), Axis("b2", -0.0, 1.0, 3), temp=0.3),
        ),
        (
            "json",
            ["--model", "xy", "--temp", "0.3", "--axis", "b1=-1:-0.0:3", "--axis", "b2=-1:-0.0:3"],
            SweepSpec(_XY, Axis("b1", -1.0, -0.0, 3), Axis("b2", -1.0, -0.0, 3), temp=0.3),
        ),
        (
            "json",
            ["--model", "xy", "--temp", "0.3", "--axis", "b1=-0.0:-0.0:1", "--axis", "b2=-0.0:-0.0:1"],
            SweepSpec(_XY, Axis("b1", -0.0, -0.0, 1), Axis("b2", -0.0, -0.0, 1), temp=0.3),
        ),
        (
            "json",
            ["--model", "xy", "--temp", "0.3", "--axis", "b1=-3:3:61", "--axis", "b2=-3:3.5:61"],
            SweepSpec(_XY, _MAP[0], Axis("b2", -3.0, 3.5, 61), temp=0.3),
        ),
    ],
    ids=[
        "csv", "json", "T-axis", "temp-beside-T-axis", "negative-zero-b1", "b_anti", "one-point", "subnormal",
        "reversed", "mirror-from-negative-zero", "mirror-to-negative-zero", "mirror-one-point",
        "equal-counts-two-grids",
    ],
)
def test_field_map_bytes_match_the_oracle(capsys, tmp_path, fmt, argv, spec):
    table = run_sweep(spec)
    expected = oracle_json(table) if fmt == "json" else oracle_csv(table.columns)
    assert first_difference(cli_bytes(capsys, tmp_path, "sweep", *argv, "--format", fmt), expected) is None


def test_point_bytes_match_the_oracle(capsys, tmp_path):
    columns = {"T": 0.3, "gamma": -1.0, "b1": -0.0, "b2": 0.5}
    columns.update(closed_form_correlations(-1.0, -0.0, 0.5, 0.3))
    out = cli_bytes(capsys, tmp_path, "point", "--model", "xy", "--b1", "-0.0", "--b2", "0.5", "--temp", "0.3")
    assert out == oracle_csv(columns)
    assert out.splitlines()[1].startswith("0.3,-1,0,0.5,")


@pytest.mark.parametrize(
    "gammas",
    # a single point, a step that underflows to 0, tiny steps across zero, a fine grid
    ["-1:0.99:100", "-1:1:5", "0.3:0.3:1", "0:5e-324:3", "-1e-300:1e-300:7", "-1:1:1001"],
)
def test_threshold_bytes_match_the_oracle(capsys, tmp_path, gammas):
    start, stop, points = gammas.split(":")
    lines = ["gamma,t_th,degenerate"] + [
        f"{_g(pt.gamma)},{_g(pt.t_th)},{str(pt.degenerate).lower()}"
        for pt in threshold_curve(np.linspace(float(start), float(stop), int(points)))
    ]
    assert cli_bytes(capsys, tmp_path, "threshold", "--gamma", gammas) == "\n".join(lines) + "\n"


def _awkward_columns():
    """-0.0, integers, the exponent switch points of %.12g and repr, subnormals, extremes, non-finite."""
    special = [-0.0, 0.0, 1.0, -3.0, 12.0, 0.1, 1.0 / 3.0, -2.5e-7, 123456789012.0, 999999999999.5]
    special += [10.0**k for k in range(11, 18)] + [-(10.0**k) for k in range(11, 18)]
    special += [1e-4, 1e-5, 9.99999999999e-5, 5e-324, -5e-324, 1e-310, -3.3e-320]
    special += [2.2250738585072014e-308, 2.2250738585e-308, 1e-307, 1.797e308, -1.797e308]
    special += [math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(2024)
    randoms = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300.0, 300.0, 2000)
    values = np.concatenate([special, randoms])
    values = np.resize(values, 8 * math.ceil(values.size / 8)).reshape(8, -1)
    return dict(zip(RECORD_COLUMNS, values))


def _repeated_parameter_columns():
    """Parameter columns that repeat awkward values, which the writer formats once per distinct value.

    A NaN never equals itself, so a memo keyed on values cannot count on
    finding one; -0.0 and 0.0 are one dict key, yet -0.0 must print as 0
    whichever of the two comes first.
    """
    repeated = [math.nan, float("nan"), -0.0, 0.0, -0.0, math.inf, -math.inf, math.inf, 3.0, -7.0, 3.0]
    repeated += [5e-324, -5e-324, 1e-310, 5e-324, 2.2250738585072014e-308, 1e15, 1e15, 0.1, 0.1]
    n = len(repeated)
    columns = {
        "T": repeated,
        "gamma": repeated[::-1],
        "b1": [math.nan] * n,
        "b2": [-0.0] * (n // 2) + [0.0] * (n - n // 2),
    }
    rng = np.random.default_rng(19)
    columns.update({name: rng.uniform(-1.0, 1.0, n) for name in RECORD_COLUMNS[4:]})
    return columns


@pytest.mark.parametrize(
    "columns",
    [
        _awkward_columns(),
        {name: np.array([]) for name in RECORD_COLUMNS},
        _repeated_parameter_columns(),
    ],
    ids=["awkward", "empty", "repeated-parameters"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_hand_built_columns_match_the_oracle(capsys, tmp_path, monkeypatch, columns, fmt):
    tables = []

    def hand_built(spec, threads=None):
        tables.append(run_sweep(spec)._replace(columns=columns))
        return tables[-1]

    monkeypatch.setattr("dimercorr.sweep.run_sweep", hand_built)
    out = cli_bytes(capsys, tmp_path, "sweep", "--model", "xy", "--temp", "0.5", "--axis", "b1=0:1:2", "--format", fmt)
    assert out == (oracle_json(tables[-1]) if fmt == "json" else oracle_csv(columns))


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--model", "xy", "--b1", "-inf", "--temp", "1"],
        ["point", "--model", "xy", "--temp", "-inf"],
        ["threshold", "--gamma", "-inf:0:3"],
        ["threshold", "--gamma=-inf:0:3"],
        ["point", "--model", "xy", "--b1", "1e308", "--b2", "1e308", "--temp", "1"],  # b1 + b2 overflows
        ["threshold", "--gamma", "-1e308:1e308:3"],  # stop - start overflows
        ["sweep", "--model", "xy", "--temp", "1", "--axis", "b1=-1e308:1e308:3"],
    ],
)
def test_negative_non_finite_values_are_domain_errors(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would escape main() and fail the test
        code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "finite" in err


@pytest.mark.parametrize(
    ("target", "argv"),
    [
        ("dimercorr.sweep.run_sweep", ["sweep", "--model", "xy", "--temp", "0.3", "--axis", "b1=0:1:100000000000"]),
        ("dimercorr.verify.run_suites", ["verify", "--suite", "ppt", "--samples", "100000000000"]),
    ],
)
def test_an_impossible_allocation_is_a_usage_error(capsys, monkeypatch, target, argv):
    def too_large(*args, **kwargs):  # stands in for the allocation; nothing large is attempted
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(target, too_large)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: not enough memory: Unable to allocate 745. GiB for an array\n"


@pytest.mark.parametrize(
    ("argv", "what"),
    [
        (["threshold", "--gamma", "0:0.5:10000000000000000000"], "range"),
        (["sweep", "--temp", "1", "--axis", "b1=0:1:10000000000000000000"], "axis 'b1'"),
    ],
)
def test_a_point_count_past_sys_maxsize_is_a_usage_error(capsys, argv, what):
    # no list can hold that many points, so the grid rules reject the count before anything is allocated
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {what} needs at most {sys.maxsize} points, got 10000000000000000000\n"


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["sweep", "--temp", "1", "--axis", "T"], "error: axis must look like name=start:stop:points, got 'T'\n"),
        # a dash token that is not a number is not joined to its flag, so argparse reads it as an option
        (["point", "--model", "-x", "--temp", "1"], "point: error: argument --model: expected one argument\n"),
    ],
    ids=["axis-without-name", "dash-value-not-a-number"],
)
def test_a_malformed_option_value_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.endswith(message)


@pytest.mark.parametrize(
    "argv",
    [
        ["point", "--model", "xy", "--temp", "0.3"],
        ["sweep", "--model", "xy", "--temp", "0.3", "--axis", "b1=0:1:3", "--format", "json"],
    ],
)
def test_unwritable_output_is_a_clean_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


# sha256 of repr((stdout, stderr, exit code)) of cli.main for each command
# line: points, the 61x61 JSON map, T scans, an antisymmetric-field JSON
# sweep, extreme fields and temperatures, a threshold range and two domain
# errors.  A refactor must leave every byte; a deliberate change of output
# re-records them.  verify is left out: its residual digits come from LAPACK,
# which varies from one build to another.
CLI_DIGESTS = {
    "point --model xy --b1 0.7 --b2 -1.1 --temp 0.3": "442d769102cb4677b081d762ed8e7f3c0219907e2a3b93734856e28125a47a40",
    "point --gamma 0.816 --temp 1.0456180777492812": "473af40a81188903e0c184b8c12f8911d925b283bdfb12ea86307c85a9fe2727",
    "point --model xy --b1 1e160 --b2 0 --temp 1": "f8126f4d418e3980a5fca2bc93a998fb526b589db18813be73d51ee9b7a21b92",
    "sweep --model xy --temp 0.3 --axis b1=-3:3:61 --axis b2=-3:3:61 --format json": (
        "c056a3d994f93d0caa02c5572406b7f9c7b035549f680b09cfc2f8c333505579"
    ),
    "sweep --model heisenberg --axis gamma=-1:0.9:10 --axis T=0.02:4:150": (
        "398a488dd11c6b4490d63fcdb6ca88c074ff250f1762de8d25b550abaf6bdc6a"
    ),
    "sweep --model xy --b1 1.05 --b2 1.05 --axis T=0.02:3:600": (
        "5185b6a179c2068d88e4303e82080a5450c225b576e57706564c8360017c3b08"
    ),
    "sweep --temp 1 --axis b_anti=-1:1:3 --format json": "a6dcb156c7cc1c46441560f3e108aacdcc4abca48227a5509d47d9a6d0e17482",
    "sweep --model xy --temp 1e-300 --axis b1=1e13:1.5e15:50": (
        "85910952b5ec8eef4d481aff88cf7b7a2cd4aba19d33e8dce7a35e01e3949ecf"
    ),
    "threshold --gamma -1:0.99:100": "716f76fda1993452b04a61ec9540240b607a931aac6f06a08d273a9271c2613a",
    "point --temp 0": "20b9c0be37136b569cb235973881c762f1494b3f72bdbd4720aa88358c92b027",
    "sweep --temp 1 --axis gamma=-1:2:3": "c86b22706b3afa48febeda47744297f930878467b5889e9303e2c3989a4c0f38",
    # the map's mirror with the field axes the other way round, and a map whose field grids differ
    "sweep --model xy --temp 0.3 --axis b2=-3:3:61 --axis b1=-3:3:61": (
        "c28bce062c34d01b11079a1d5f23caf1c98aaab9b437bfbd04dc2fb645a78b70"
    ),
    "sweep --model xy --temp 0.3 --axis b1=-3:3:7 --axis b2=-3:3:8": (
        "4218302ed205d77c7e53161026027aa8bae843d34fd5f7f84eb01fa1bd58cf4d"
    ),
}


@pytest.mark.parametrize("line", list(CLI_DIGESTS))
def test_cli_bytes_are_pinned(capsys, line):
    code, out, err = run_cli(capsys, *shlex.split(line))
    assert hashlib.sha256(repr((out, err, code)).encode()).hexdigest() == CLI_DIGESTS[line]
