"""Grid sweeps and qualitative curve-shape detectors."""

import numpy as np
import pytest
from scipy.signal import find_peaks

from dimercorr.exceptions import DomainError
from dimercorr.models import ModelParams, closed_form_correlations
from dimercorr.sweep import (
    RECORD_COLUMNS,
    Axis,
    SweepSpec,
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


def test_rows_follow_axis_values_row_major():
    spec = SweepSpec(
        base=XY, axis1=Axis("b1", 0.0, 1.0, 3), axis2=Axis("b2", -1.0, 1.0, 4), temp=0.8
    )
    table = run_sweep(spec)
    assert not table.is_1d
    assert len(table.column("b1")) == 12
    rows = list(zip(*(table.column(name).tolist() for name in ("b1", "b2", "T", "gamma"))))
    for i, b1 in enumerate(table.axis1_values):
        for j, b2 in enumerate(table.axis2_values):
            assert rows[i * 4 + j] == (b1, b2, 0.8, -1.0)


def test_temperature_axis_overrides_fixed_temp():
    spec = SweepSpec(base=ModelParams(gamma=0.2), axis1=Axis("T", 0.5, 2.0, 4))
    table = run_sweep(spec)
    assert table.is_1d
    assert table.column("T").tolist() == list(table.axis1_values)


def test_thread_count_does_not_change_results():
    spec = SweepSpec(base=ModelParams(gamma=-0.3), axis1=Axis("T", 0.05, 3.0, 40))
    serial = run_sweep(spec, threads=1)
    threaded = run_sweep(spec, threads=4)
    for name in ("total", "quantum", "classical", "concurrence"):
        assert serial.column(name).tolist() == threaded.column(name).tolist()


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
    t = table.axis1_values
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
    for temp in (np.nan, np.inf):
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
    anti = table.axis2_values.tolist()
    assert table.column("b1").tolist() == anti * 3
    assert table.column("b2").tolist() == [-v for v in anti] * 3
    assert table.column("T").tolist() == [t for t in table.axis1_values.tolist() for _ in range(4)]
    # each record's outputs belong to that record's own grid point
    points = closed_form_correlations(*(table.column(name) for name in ("gamma", "b1", "b2", "T")))
    for name in ("total", "quantum", "classical", "concurrence"):
        assert points[name].tolist() == table.column(name).tolist()
