"""The traced pass counts exactly and leaves the package as it found it."""

import numpy as np

import dimercorr
import dimercorr.cli
import dimercorr.correlations
from checks import check_call
from trace_layers import Tracer, cli_call
from workloads import threshold_call


def test_counts_per_point_and_restore():
    originals = (np.linalg.eigh, np.linalg.eigvalsh, dimercorr.correlations.check_density_matrix)
    tracer = Tracer()
    tracer.install()
    try:
        from dimercorr import ModelParams, report, thermal_state

        report(thermal_state(ModelParams(gamma=-1.0, b1=0.3, b2=-0.2), 0.5))
    finally:
        tracer.uninstall()
    assert tracer.counts["linalg.eigh"] == 2
    assert tracer.counts["linalg.eigvalsh"] == 9
    assert tracer.counts["matkernel.check_density_matrix"] == 5
    assert tracer.counts["models.build_hamiltonian"] == 1
    assert (np.linalg.eigh, np.linalg.eigvalsh, dimercorr.correlations.check_density_matrix) == originals
    assert dimercorr.report.__module__ == "dimercorr.correlations"
    assert not hasattr(dimercorr.report, "__wrapped__")


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()
    tracer.install()
    try:
        rho = dimercorr.thermal_state(dimercorr.ModelParams(gamma=0.2), 0.7)
        dimercorr.report(rho)
    finally:
        tracer.uninstall()
    report = next(s for s in tracer.spans if s.name == "correlations.report")
    children = [s for s in tracer.spans if s.parent == report.ident]
    assert {s.name for s in children} >= {"correlations.mutual_information", "correlations.concurrence"}
    assert 0.0 <= report.child_time <= report.end - report.start
    assert report.child_time == sum(s.end - s.start for s in children)


def test_an_exception_in_main_is_one_failed_call(monkeypatch):
    def crash(argv):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(dimercorr.cli, "main", crash)
    call = threshold_call()
    code, stdout = cli_call(call)
    assert code == 1 and stdout == ""
    assert check_call(call, code, stdout).failed
