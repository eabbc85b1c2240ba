"""Command-line interface: formats, exit codes, determinism."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from dimercorr.cli import CSV_HEADER, main


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


def test_point_rejects_fields_for_heisenberg(capsys):
    code, _, err = run_cli(capsys, "point", "--model", "heisenberg", "--b1", "0.3", "--temp", "1")
    assert code == 3
    assert "b1 = b2 = 0" in err


def test_point_rejects_gamma_override_for_xy(capsys):
    code, _, err = run_cli(capsys, "point", "--model", "xy", "--gamma", "0.2", "--temp", "1")
    assert code == 3
    assert "gamma" in err.lower()


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


def test_sweep_rejects_axis_outside_model(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--model", "xy", "--temp", "1", "--axis", "gamma=-1:1:5"
    )
    assert code == 3
    assert "axis" in err.lower()


def test_sweep_rejects_malformed_axis(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--model", "heisenberg", "--gamma", "0", "--axis", "T=0.5:2"
    )
    assert code == 2


def test_sweep_deterministic_across_threads(capsys):
    argv = ["sweep", "--model", "xy", "--temp", "0.8", "--axis", "b_anti=-2:2:41"]
    _, out1, _ = run_cli(capsys, *argv, "--threads", "1")
    _, out4, _ = run_cli(capsys, *argv, "--threads", "4")
    assert out1 == out4
    _, again, _ = run_cli(capsys, *argv, "--threads", "4")
    assert again == out4


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
    assert "all" in out and "passed" in out


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


def test_sweep_rejects_grid_leaving_the_domain(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--model", "heisenberg", "--temp", "1", "--axis", "gamma=-1.5:0.5:5"
    )
    assert code == 3
    assert out == ""
    assert "gamma" in err


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_sweep_threads_below_one_is_usage_error(capsys, threads):
    argv = ["sweep", "--model", "xy", "--temp", "0.8", "--axis", "b_anti=-2:2:5"]
    code, out, err = run_cli(capsys, *argv, "--threads", threads)
    assert code == 2
    assert out == ""
    assert "threads" in err


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


def test_import_does_not_load_scipy_signal():
    proc = subprocess.run(
        [sys.executable, "-c", "import dimercorr, sys; assert 'scipy.signal' not in sys.modules"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_samples_below_one_is_usage_error(capsys, samples):
    code, out, err = run_cli(capsys, "verify", "--suite", "gibbs", "--samples", samples)
    assert code == 2
    assert out == ""
    assert "samples" in err
