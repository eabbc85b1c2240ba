"""Grid sweeps and qualitative curve-shape detectors."""

import sys

import numpy as np
import pytest

from dimercorr import sweep
from dimercorr.domain import OUTPUTS, DomainError
from dimercorr.models import ModelParams, _correlations, closed_form_correlations
from dimercorr.sweep import (
    RECORD_COLUMNS,
    Axis,
    SweepSpec,
    SweepTable,
    count_peaks,
    detect_quantum_exceeds_classical,
    detect_zero_plateau,
    run_sweep,
)
from dimercorr.threshold import tth_anisotropic

XY = ModelParams(gamma=-1.0)


def anti_sweep(t, points=201):
    spec = SweepSpec(base=XY, axis1=Axis("b_anti", -3.0, 3.0, points), temp=t)
    return run_sweep(spec)


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("tilt", 0.0, 1.0, 5)
    with pytest.raises(ValueError):
        Axis("T", 0.1, 1.0, 1)
    with pytest.raises(ValueError):
        Axis("gamma", 1.0, -1.0, 5)
    for points in (2.5, 3.0):  # linspace would fail deep inside with a bare TypeError
        with pytest.raises(ValueError, match="axis 'T' needs an integer number of points"):
            Axis("T", 0.5, 1.0, points)
    assert Axis("T", 0.5, 1.0, np.int64(3)).values() == [0.5, 0.75, 1.0]
    axis = Axis("T", 0.5, 1.0, 3)
    assert repr(axis) == "Axis(name='T', start=0.5, stop=1.0, points=3)"
    assert hash(axis) == hash(Axis(name="T", start=0.5, stop=1.0, points=3))
    assert len({axis, Axis("T", 0.5, 1.0, 3)}) == 1
    with pytest.raises(AttributeError):
        axis.points = 4
    with pytest.raises(ValueError):
        axis._replace(points=1)  # _replace validates as the constructor does
    Axis("b1", 0.0, 1.0, sys.maxsize)  # the most points a list may hold: checked, never allocated here
    with pytest.raises(ValueError, match="at most"):
        Axis("b1", 0.0, 1.0, sys.maxsize + 1)


@pytest.mark.parametrize("value", [0.25, -0.0, 5e-324])
def test_a_single_point_axis_is_np_linspace_bit_for_bit(value):
    # np.linspace adds start to 0 * delta, so a -0.0 start comes back as 0.0
    (got,) = Axis("b1", value, value, 1).values()
    assert got.hex() == np.linspace(value, value, 1)[0].hex()


def test_float32_endpoints_give_the_float_grid():
    axis = Axis("T", np.float32(0.05), np.float32(2.0), 200)
    as_floats = Axis("T", float(np.float32(0.05)), float(np.float32(2.0)), 200)
    assert all(type(v) is float for v in axis.values())
    assert axis.values() == as_floats.values()
    tables = [run_sweep(SweepSpec(base=XY, axis1=a)) for a in (axis, as_floats)]
    for name in RECORD_COLUMNS:
        assert [v.hex() for v in tables[0].columns[name]] == [v.hex() for v in tables[1].columns[name]], name


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(base=XY, axis1=Axis("T", 0.1, 1.0, 5), axis2=Axis("T", 2.0, 3.0, 5))
    with pytest.raises(ValueError):
        # b_uniform writes both fields, so it collides with b1
        SweepSpec(base=XY, axis1=Axis("b1", 0.0, 1.0, 5), axis2=Axis("b_uniform", 0.0, 1.0, 5))
    with pytest.raises(DomainError):
        SweepSpec(base=XY, axis1=Axis("T", 0.0, 1.0, 5))
    with pytest.raises(ValueError):
        SweepSpec(base=XY, axis1=Axis("b1", 0.0, 1.0, 5))  # no temperature anywhere
    with pytest.raises(DomainError):
        SweepSpec(base=XY, axis1=Axis("b1", 0.0, 1.0, 5), temp=-2.0)
    with pytest.raises(DomainError):
        SweepSpec(base=XY, axis1=Axis("b1", 0.0, 1.0, 5), temp=0.5)._replace(temp=-2.0)


def test_rows_follow_axis_values_row_major():
    spec = SweepSpec(
        base=XY, axis1=Axis("b1", 0.0, 1.0, 3), axis2=Axis("b2", -1.0, 1.0, 4), temp=0.8
    )
    table = run_sweep(spec)
    assert not table.is_1d
    assert len(table.column("b1")) == 12
    rows = list(zip(*(table.column(name).tolist() for name in ("b1", "b2", "T", "gamma"))))
    for i, b1 in enumerate(spec.axis1.values()):
        for j, b2 in enumerate(spec.axis2.values()):
            assert rows[i * 4 + j] == (b1, b2, 0.8, -1.0)


@pytest.mark.parametrize("names", [("b1", "b2"), ("b2", "b1")])
@pytest.mark.parametrize(
    "gamma, grid, temp",
    [
        (-1.0, (-3.0, 3.0, 61), 0.3),
        (0.4, (-1e200, 1e200, 9), 1e-3),
        (1.0, (-0.5, 0.5, 5), 2.0),
        (0.2, (0.0, 0.0, 1), 1.0),
    ],
)
def test_a_map_on_one_grid_is_the_kernel_at_every_point(names, gamma, grid, temp):
    # the mirrored half of the map, bit for bit, against the kernel over the full grid
    spec = SweepSpec(base=ModelParams(gamma), axis1=Axis(names[0], *grid), axis2=Axis(names[1], *grid), temp=temp)
    table = run_sweep(spec)
    full = closed_form_correlations(gamma, table.column("b1"), table.column("b2"), temp)
    for name in OUTPUTS:
        assert [v.hex() for v in table.columns[name]] == [v.hex() for v in full[name].tolist()], name


@pytest.mark.parametrize(
    "axis1, axis2, calls",
    [
        (Axis("b1", -3.0, 3.0, 61), Axis("b2", -3.0, 3.0, 61), 61 * 62 // 2),
        (Axis("b2", -3.0, 3.0, 61), Axis("b1", -3.0, 3.0, 61), 61 * 62 // 2),
        (Axis("b1", -3.0, 3.0, 7), Axis("b2", -3.0, 3.0, 8), 7 * 8),
        (Axis("b1", -3.0, 3.0, 7), Axis("b2", -3.0, 2.0, 7), 7 * 7),
        (Axis("b1", 0.5, 3.0, 7), Axis("T", 0.5, 3.0, 7), 7 * 7),
        (Axis("b1", -3.0, 3.0, 7), None, 7),
    ],
)
def test_a_map_on_one_grid_evaluates_each_field_pair_once(monkeypatch, axis1, axis2, calls):
    points = []

    def counted(*point):
        points.append(point)
        return _correlations(*point)

    monkeypatch.setattr(sweep, "_correlations", counted)
    run_sweep(SweepSpec(base=XY, axis1=axis1, axis2=axis2, temp=0.3))
    assert len(points) == len(set(points)) == calls


def test_temperature_axis_overrides_fixed_temp():
    spec = SweepSpec(base=ModelParams(gamma=0.2), axis1=Axis("T", 0.5, 2.0, 4))
    table = run_sweep(spec)
    assert table.is_1d
    assert table.column("T").tolist() == spec.axis1.values()


def test_cold_isotropic_endpoint_reaches_two_bits():
    spec = SweepSpec(base=ModelParams(gamma=0.0), axis1=Axis("T", 0.05, 4.0, 100))
    table = run_sweep(spec)
    assert abs(table.column("total")[0] - 2.0) < 0.01
    assert abs(table.column("quantum")[0] - 1.0) < 0.01
    assert abs(table.column("classical")[0] - 1.0) < 0.01


def test_ising_slice_has_no_quantum_correlation():
    spec = SweepSpec(base=ModelParams(gamma=1.0), axis1=Axis("T", 0.05, 4.0, 100))
    table = run_sweep(spec)
    assert np.all(table.column("quantum") == 0.0)
    assert np.max(np.abs(table.column("total") - table.column("classical"))) < 1e-12


def test_opposite_field_sweep_is_even_in_the_field():
    table = anti_sweep(1.6, points=61)
    for name in ("total", "quantum", "classical", "concurrence"):
        col = table.column(name)
        assert np.max(np.abs(col - col[::-1])) < 1e-10


def test_high_temperature_tail_decays():
    spec = SweepSpec(base=ModelParams(gamma=0.5), axis1=Axis("T", 1.0, 100.0, 12))
    table = run_sweep(spec)
    assert max(table.column(name)[-1] for name in ("total", "quantum", "classical", "concurrence")) <= 1e-3


def test_quantum_exceeds_classical_in_a_window():
    # near-critical uniform fields open a finite window where the quantum
    # part dominates; far from it the window closes
    for b in (0.95, 1.05):
        spec = SweepSpec(
            base=ModelParams(gamma=-1.0, b1=b, b2=b), axis1=Axis("T", 0.01, 2.0, 400)
        )
        intervals = detect_quantum_exceeds_classical(run_sweep(spec))
        assert intervals, f"no dominance window found at b={b}"
        lo, hi = intervals[0]
        assert 0.0 < lo < hi <= 2.0

    calm = SweepSpec(base=ModelParams(gamma=-1.0, b1=5.0, b2=5.0), axis1=Axis("T", 0.01, 2.0, 200))
    assert detect_quantum_exceeds_classical(run_sweep(calm)) == []


def test_quantum_peak_count_vs_temperature():
    # one central quantum peak at low T splits into two lobes at higher T
    assert count_peaks(anti_sweep(0.3), "quantum") == 1
    assert count_peaks(anti_sweep(1.6), "quantum") == 2


def test_constant_column_has_no_peaks():
    spec = SweepSpec(base=ModelParams(gamma=1.0), axis1=Axis("T", 0.5, 2.0, 50))
    assert count_peaks(run_sweep(spec), "quantum") == 0


def test_zero_plateau_between_the_lobes():
    table = anti_sweep(2.5)
    plateaus = detect_zero_plateau(table, "quantum")
    containing = [iv for iv in plateaus if iv[0] <= 0.0 <= iv[1]]
    assert len(containing) == 1
    lo, hi = containing[0]
    assert abs(lo + hi) < 1e-10  # symmetric window
    assert 0.9 < hi < 1.3


def test_quantum_plateau_above_threshold():
    spec = SweepSpec(base=ModelParams(gamma=0.0), axis1=Axis("T", 0.05, 4.0, 200))
    plateaus = detect_zero_plateau(run_sweep(spec), "concurrence")
    assert len(plateaus) == 1
    lo, hi = plateaus[0]
    t_th = tth_anisotropic(0.0)
    step = (4.0 - 0.05) / 199
    assert abs(lo - t_th) < step
    assert hi == 4.0


def test_all_columns_peak_at_zero_fields():
    # cold two-field grid: every correlation is sharply peaked at B1=B2=0
    spec = SweepSpec(
        base=XY, axis1=Axis("b1", -3.0, 3.0, 61), axis2=Axis("b2", -3.0, 3.0, 61), temp=0.3
    )
    table = run_sweep(spec)
    center = 30 * 61 + 30
    for name in ("total", "quantum", "classical", "concurrence"):
        assert int(np.argmax(table.column(name))) == center


def test_classical_correlation_dips_then_rebounds():
    # strong anisotropy: the classical part falls to an interior minimum,
    # recovers to an interior maximum, then decays
    spec = SweepSpec(base=ModelParams(gamma=0.9), axis1=Axis("T", 0.02, 1.0, 200))
    table = run_sweep(spec)
    classical = table.column("classical")
    t = spec.axis1.values()
    from scipy.signal import find_peaks  # imported here: at the top it adds about 0.9 s to collecting tier-1

    minima, _ = find_peaks(-classical, prominence=1e-3)
    maxima, _ = find_peaks(classical, prominence=1e-3)
    assert len(minima) == 1 and len(maxima) == 1
    assert 0.08 < t[minima[0]] < 0.15
    assert t[minima[0]] < t[maxima[0]]
    assert classical[minima[0]] < classical[maxima[0]] < classical[0]


def test_detectors_reject_bad_usage():
    table_2d = run_sweep(
        SweepSpec(base=XY, axis1=Axis("b1", 0.0, 1.0, 3), axis2=Axis("b2", 0.0, 1.0, 3), temp=1.0)
    )
    with pytest.raises(ValueError):
        detect_quantum_exceeds_classical(table_2d)
    with pytest.raises(ValueError):
        count_peaks(table_2d, "quantum")
    table_1d = run_sweep(SweepSpec(base=XY, axis1=Axis("T", 0.5, 1.0, 5)))
    with pytest.raises(ValueError):
        table_1d.column("negativity")


def test_non_finite_axis_and_temperature_are_domain_errors():
    for start, stop in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(DomainError, match="finite"):
            Axis("b1", start, stop, 5)
    for temp in (np.nan, np.inf, np.array(np.nan)):
        with pytest.raises(DomainError, match="temperature"):
            SweepSpec(base=XY, axis1=Axis("b1", 0.0, 1.0, 5), temp=temp)


def test_grid_leaving_the_domain_is_rejected():
    spec = SweepSpec(base=ModelParams(gamma=0.0), axis1=Axis("gamma", -1.5, 0.5, 5), temp=1.0)
    with pytest.raises(DomainError, match="gamma"):
        run_sweep(spec)


def test_threads_is_a_validated_no_op():
    spec = SweepSpec(base=XY, axis1=Axis("b_anti", -2.0, 2.0, 9), temp=0.8)
    for threads in (0, -4):
        with pytest.raises(ValueError, match="threads"):
            run_sweep(spec, threads=threads)
    reference = run_sweep(spec)
    for threads in (1, 2, 64):
        table = run_sweep(spec, threads=threads)
        for name in ("T", "gamma", "b1", "b2", "total", "quantum", "classical", "concurrence"):
            assert np.array_equal(table.column(name), reference.column(name))


def test_columns_and_rows_agree():
    spec = SweepSpec(base=XY, axis1=Axis("T", 0.5, 1.0, 3), axis2=Axis("b_anti", -1.0, 1.0, 4))
    table = run_sweep(spec)
    assert all(len(table.column(name)) == 12 for name in RECORD_COLUMNS)
    anti = spec.axis2.values()
    assert table.column("b1").tolist() == anti * 3
    assert table.column("b2").tolist() == [-v for v in anti] * 3
    assert table.column("T").tolist() == [t for t in spec.axis1.values() for _ in range(4)]
    # each record's outputs belong to that record's own grid point
    points = closed_form_correlations(*(table.column(name) for name in ("gamma", "b1", "b2", "T")))
    for name in ("total", "quantum", "classical", "concurrence"):
        assert points[name].tolist() == table.column(name).tolist()


def _oracle_peaks(column):
    from scipy.signal import find_peaks

    return find_peaks(np.array(column, dtype=float), prominence=0.01)[0].size


def _column_table(column):
    return SweepTable(spec=SweepSpec(base=XY, axis1=Axis("T", 0.5, 1.0, 5)), columns={"quantum": list(column)})


def _random_column(rng):
    n = int(rng.integers(0, 40))
    kind = rng.integers(4)
    if kind == 0:  # noise
        return rng.normal(0.0, 0.05, n)
    if kind == 1:  # rounded: ties and flat tops
        return np.round(rng.normal(0.0, 0.05, n), 2)
    if kind == 2:  # three-level steps
        return rng.integers(0, 3, n) * 0.02
    return np.cumsum(rng.normal(0.0, 0.02, n))  # random walk


def test_count_peaks_matches_find_peaks_on_random_columns():
    rng = np.random.default_rng(15)
    for _ in range(12000):
        column = _random_column(rng).tolist()
        assert count_peaks(_column_table(column), "quantum") == _oracle_peaks(column), column


def test_count_peaks_matches_find_peaks_on_random_walks_with_plateaus():
    rng = np.random.default_rng(31)
    for _ in range(2000):
        n = int(rng.integers(3, 60))
        steps = np.round(rng.normal(0.0, 0.01, n), 2)  # a step rounded to 0 leaves the walk flat
        column = np.repeat(np.cumsum(steps), rng.integers(1, 4, n)).tolist()  # and repeats widen the runs
        assert count_peaks(_column_table(column), "quantum") == _oracle_peaks(column), column


@pytest.mark.parametrize(
    "column, peaks",
    [
        ([], 0),
        ([1.0], 0),
        ([0.0, 1.0], 0),
        ([1.0, 1.0, 0.5, 0.0], 0),  # a flat top at the left edge
        ([0.0, 0.5, 1.0, 1.0], 0),  # a flat top at the right edge
        ([0.0, 1.0, 1.0, 2.0, 0.0], 1),  # a plateau that rises again is no peak
        ([0.0, 1.0, 1.0, 1.0, 0.0], 1),  # a flat top counts once
        ([0.0, 0.005, 0.0], 0),  # prominence below 0.01
        ([0.0, 0.01, 0.0], 1),  # prominence exactly 0.01
        ([0.0, 0.5, 0.49, 0.499, 0.0], 1),  # the lower top stands 0.009 above its saddle
        ([0.0, 0.5, 0.49, 0.5, 0.0], 2),  # equal tops: each side walk passes the other
        ([0.0, 1.0, 0.5, 2.0, 0.0], 2),
    ],
)
def test_count_peaks_hand_cases(column, peaks):
    assert count_peaks(_column_table(column), "quantum") == peaks == _oracle_peaks(column)


# every 1-D sweep of tests/test_sweep.py and tests/test_acceptance.py, plus
# b_uniform and gamma axes
ONE_AXIS_SPECS = [
    *(SweepSpec(XY, Axis("b_anti", -3.0, 3.0, n), temp=t) for t, n in ((0.3, 201), (1.6, 201), (2.5, 201), (1.6, 61))),
    SweepSpec(base=XY, axis1=Axis("b_anti", -2.0, 2.0, 9), temp=0.8),
    SweepSpec(base=XY, axis1=Axis("T", 0.5, 1.0, 5)),
    *(SweepSpec(ModelParams(g), Axis("T", 0.05, 4.0, n)) for g, n in ((0.0, 100), (1.0, 100), (0.0, 200))),
    SweepSpec(base=ModelParams(gamma=0.2), axis1=Axis("T", 0.5, 2.0, 4)),
    SweepSpec(base=ModelParams(gamma=-0.3), axis1=Axis("T", 0.05, 3.0, 40)),
    SweepSpec(base=ModelParams(gamma=0.5), axis1=Axis("T", 1.0, 100.0, 12)),
    SweepSpec(base=ModelParams(gamma=1.0), axis1=Axis("T", 0.5, 2.0, 50)),
    SweepSpec(base=ModelParams(gamma=0.9), axis1=Axis("T", 0.02, 1.0, 200)),
    *(SweepSpec(base=ModelParams(-1.0, b, b), axis1=Axis("T", 0.01, 2.0, 400)) for b in (0.95, 1.05)),
    SweepSpec(base=ModelParams(-1.0, 5.0, 5.0), axis1=Axis("T", 0.01, 2.0, 200)),
    SweepSpec(base=XY, axis1=Axis("b_uniform", -3.0, 3.0, 201), temp=0.3),
    SweepSpec(base=ModelParams(0.0, 0.7, -0.3), axis1=Axis("gamma", -1.0, 1.0, 201), temp=0.4),
]


@pytest.mark.parametrize("spec", ONE_AXIS_SPECS, ids=lambda s: f"{s.axis1.name}-{s.axis1.points}-{s.base}-{s.temp}")
def test_count_peaks_matches_find_peaks_on_the_test_sweeps(spec):
    table = run_sweep(spec)
    for name in RECORD_COLUMNS:
        assert count_peaks(table, name) == _oracle_peaks(table.columns[name]), name
