"""The output checks accept right answers and catch wrong ones.

Correct outputs are made here from the reference and printed the way the
CLI prints (12 significant digits); the wrong ones are the same outputs
with one fault put in.
"""

import json

import numpy as np
import pytest

from checks import CSV_HEADER, TOL, Tally, check_call, check_threshold, check_verify, quantum_digits
from reference import correlations, threshold_temperature
from workloads import BAND, WORKLOADS, build_round, sweep_call, threshold_call

COLUMNS = CSV_HEADER.split(",")


def _fmt(x: float) -> str:
    return format(float(x) + 0.0, ".12g")


def _printed(call, **change) -> dict[str, np.ndarray]:
    """The columns a correct program prints for ``call``, then ``change`` applied."""
    inp = call.inputs
    cols = dict(inp)
    cols.update(correlations(inp["gamma"], inp["b1"], inp["b2"], inp["T"]))
    cols = {k: np.array([float(_fmt(v)) for v in cols[k]]) for k in COLUMNS}
    for name, fn in change.items():
        cols[name] = fn(cols)
    return cols


def _csv(cols: dict[str, np.ndarray]) -> str:
    rows = zip(*(cols[k] for k in COLUMNS))
    return "\n".join([CSV_HEADER, *(",".join(_fmt(v) for v in row) for row in rows)]) + "\n"


MAP = sweep_call("xy", [("b1", -3.0, 3.0, 13), ("b2", -3.0, 3.0, 13)], temp=0.3, symmetric_grid=True)
SCAN = sweep_call("heisenberg", [("gamma", -1.0, 0.9, 4), ("T", 0.02, 4.0, 40)])
WINDOW = sweep_call("xy", [("T", 0.02, 3.0, 60)], b1=1.05, b2=1.05, window=True)


@pytest.mark.parametrize("call", [MAP, SCAN, WINDOW])
def test_correct_output_passes(call):
    outcome = check_call(call, 0, _csv(_printed(call)))
    assert not outcome.failed and outcome.problems == []
    assert outcome.deviations["total"] <= 5e-12


@pytest.mark.parametrize("call", [MAP, SCAN, WINDOW])
def test_quantum_perturbed_by_1e6_is_caught(call):
    def bump(cols):
        q = cols["quantum"].copy()
        q[len(q) // 2] += 1e-6
        return q

    outcome = check_call(call, 0, _csv(_printed(call, quantum=bump)))
    assert any("quantum" in p for p in outcome.problems)


@pytest.mark.parametrize("pair", [("quantum", "classical"), ("total", "classical"), ("b1", "b2")])
def test_swapped_columns_are_caught(pair):
    a, b = pair
    outcome = check_call(MAP, 0, _csv(_printed(MAP, **{a: lambda c: c[b], b: lambda c: c[a]})))
    assert outcome.problems


def test_nonzero_exit_is_a_failed_operation():
    outcome = check_call(MAP, 3, "")
    assert outcome.failed and outcome.problems


def test_failed_calls_count_apart_from_wrong_answers():
    tally = Tally()
    tally.add(MAP, check_call(MAP, 3, ""))
    assert (tally.attempted, tally.failed, tally.result({})["correct"]) == (1, 1, True)
    tally.add(MAP, check_call(MAP, 0, "not csv"))
    assert (tally.attempted, tally.failed, tally.result({})["correct"]) == (2, 1, False)


def test_wrong_header_or_garbage_is_caught():
    text = _csv(_printed(SCAN))
    assert check_call(SCAN, 0, text.replace("quantum", "quantity", 1)).problems
    assert check_call(SCAN, 0, "T,gamma\n1,2\n").problems
    assert check_call(SCAN, 0, text.splitlines()[0] + "\n").problems


def test_json_records_are_read():
    cols = _printed(MAP)
    records = [dict(zip(COLUMNS, map(float, row))) for row in zip(*(cols[k] for k in COLUMNS))]
    call = sweep_call("xy", [("b1", -3.0, 3.0, 13), ("b2", -3.0, 3.0, 13)], temp=0.3, fmt="json")
    assert check_call(call, 0, json.dumps({"spec": {}, "records": records})).problems == []


def test_broken_symmetry_is_caught():
    def tilt(cols):
        return cols["concurrence"] + 1e-6 * (cols["b1"] > cols["b2"])

    problems = check_call(MAP, 0, _csv(_printed(MAP, concurrence=tilt))).problems
    assert any("b1 <-> b2" in p for p in problems)


def test_threshold_property_is_caught():
    t_th = np.array([threshold_temperature(g) for g in SCAN.inputs["gamma"]])
    below = SCAN.inputs["T"] < t_th * (1 - BAND)

    def zero_below(cols):
        return np.where(below, 0.0, cols["concurrence"])

    problems = check_call(SCAN, 0, _csv(_printed(SCAN, concurrence=zero_below))).problems
    assert any("below the threshold" in p for p in problems)


def test_missing_window_is_caught():
    def no_window(cols):
        return np.minimum(cols["quantum"], cols["classical"])

    problems = check_call(WINDOW, 0, _csv(_printed(WINDOW, quantum=no_window))).problems
    assert any("window" in p for p in problems)


def _threshold_text(shift: float = 0.0) -> str:
    gammas = threshold_call().gammas
    rows = [f"{_fmt(g)},{_fmt(threshold_temperature(g) + shift)},false" for g in gammas]
    return "\n".join(["gamma,t_th,degenerate", *rows]) + "\n"


def test_threshold_output():
    gammas = threshold_call().gammas
    assert check_threshold(_threshold_text(), gammas).problems == []
    assert check_threshold(_threshold_text(1e-8), gammas).problems
    assert check_threshold(_threshold_text().replace("false", "true", 1), gammas).problems


VERIFY_OK = (
    "[gibbs   ] analytic vs numeric thermal state  residual 1.0e-15  PASS  (x)\n"
    "[ppt     ] concurrence vs partial-transpose   residual 0.000e+00  PASS  (y)\n"
    "all 2 checks passed\n"
)


def test_verify_output():
    assert check_verify(VERIFY_OK).problems == []
    assert check_verify(VERIFY_OK.replace("PASS  (y)", "FAIL  (y)")).problems
    assert check_verify(VERIFY_OK.replace("all 2", "all 3")).problems


def test_quantum_digits_is_floored():
    assert quantum_digits(0.0) == 12.0
    assert quantum_digits(1e-8) == pytest.approx(8.0)
    assert quantum_digits(float("inf")) == 0.0


@pytest.mark.parametrize("returncode, stdout", [(1, ""), (0, "not,a,csv\n")])
def test_a_digits_sweep_that_fails_reads_no_digits(returncode, stdout):
    digits = sweep_call("xy", [("T", 0.02, 1.0, 10)], b1=0.5, digits=True)
    tally = Tally()
    tally.add(digits, check_call(digits, 0, _csv(_printed(digits))))
    assert tally.quantum_digits() > 7.0
    tally.add(digits, check_call(digits, returncode, stdout))
    assert tally.quantum_digits() == 0.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workloads_are_seeded_and_cover_every_command(name):
    first, again, other = build_round(name, 5), build_round(name, 5), build_round(name, 6)
    assert [c.argv for c in first] == [c.argv for c in again]
    assert [c.argv for c in first] != [c.argv for c in other]
    assert {c.kind for c in first} == {"point", "sweep", "threshold", "verify"}
    assert [c.argv for c in first if c.digits] == [c.argv for c in other if c.digits] != []


@pytest.mark.parametrize("seed", range(5))
def test_straddling_scan_leaves_out_the_band(seed):
    scan = build_round("temperature_scan", seed)[1]
    t, t_th = scan.inputs["T"], threshold_temperature(scan.inputs["gamma"][0])
    assert t.min() == 0.02 and t.max() > t_th
    assert np.all(np.abs(t / t_th - 1.0) > BAND)


def test_tolerances_catch_a_1e6_error():
    assert max(TOL.values()) < 1e-6
