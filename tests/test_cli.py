"""Command-line interface: formats, exit codes, determinism."""

import dataclasses
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dimercorr import cli
from dimercorr.cli import CSV_HEADER, main
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
    "argv,rows,concurrence",
    [
        pytest.param(["sweep", "--temp", "1e-300", "--axis", "b1=1e13:1.5e15:50"], 50, None, id="sweep"),
        # (b1 - b2)^2 overflows; the |dd> level stays degenerate with the
        # lower mixed level, and C = sin(theta) / 2 = 1e-160 (700-digit mpmath)
        pytest.param(["point", "--b1", "1e160", "--b2", "0", "--temp", "1"], 1, 1e-160, id="point"),
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
            "j": spec.base.j,
            "temp": spec.temp,
            "axes": axes,
        },
        "records": [
            {name: float(_g(v)) for name, v in zip(RECORD_COLUMNS, rec)}
            for rec in _oracle_records(table.columns)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def cli_bytes(capsys, tmp_path, *argv):
    """The command's standard output, checked to equal what --output writes."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    target = tmp_path / "out.txt"
    code, printed, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0 and printed == ""
    assert target.read_bytes() == out.encode("utf-8")
    return out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_field_map_bytes_match_the_oracle(capsys, tmp_path, fmt):
    argv = ["sweep", "--model", "xy", "--temp", "0.3", "--axis", "b1=-3:3:61", "--axis", "b2=-3:3:61"]
    table = run_sweep(
        SweepSpec(
            base=ModelParams(gamma=-1.0),
            axis1=Axis("b1", -3.0, 3.0, 61),
            axis2=Axis("b2", -3.0, 3.0, 61),
            temp=0.3,
        )
    )
    expected = oracle_json(table) if fmt == "json" else oracle_csv(table.columns)
    assert cli_bytes(capsys, tmp_path, *argv, "--format", fmt) == expected


def test_point_bytes_match_the_oracle(capsys, tmp_path):
    columns = {"T": 0.3, "gamma": -1.0, "b1": -0.0, "b2": 0.5}
    columns.update(closed_form_correlations(-1.0, -0.0, 0.5, 0.3))
    out = cli_bytes(capsys, tmp_path, "point", "--model", "xy", "--b1", "-0.0", "--b2", "0.5", "--temp", "0.3")
    assert out == oracle_csv(columns)
    assert out.splitlines()[1].startswith("0.3,-1,0,0.5,")


@pytest.mark.parametrize("gammas", ["-1:0.99:100", "-1:1:5"])
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
    special += [1e-4, 1e-5, 9.99999999999e-5, 5e-324, -5e-324, 2.2250738585072014e-308, 1.797e308, -1.797e308]
    special += [math.nan, math.inf, -math.inf]
    rng = np.random.default_rng(2024)
    randoms = rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-300.0, 300.0, 2000)
    values = np.concatenate([special, randoms])
    values = np.resize(values, 8 * math.ceil(values.size / 8)).reshape(8, -1)
    return dict(zip(RECORD_COLUMNS, values))


@pytest.mark.parametrize(
    "columns",
    [
        _awkward_columns(),
        {**_awkward_columns(), "T": -0.0, "gamma": np.array(7.0)},  # scalar columns broadcast
        {name: np.array([]) for name in RECORD_COLUMNS},
    ],
    ids=["awkward", "broadcast", "empty"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_hand_built_columns_match_the_oracle(capsys, tmp_path, monkeypatch, columns, fmt):
    tables = []

    def hand_built(spec, threads=None):
        tables.append(dataclasses.replace(run_sweep(spec), columns=columns))
        return tables[-1]

    monkeypatch.setattr(cli, "run_sweep", hand_built)
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
