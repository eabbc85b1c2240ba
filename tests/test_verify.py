"""Cross-check suites used by the verify subcommand."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dimercorr.correlations import (
    concurrence,
    entanglement_of_formation,
    random_density_matrix,
    report,
    sample_decomposition_average,
)
from dimercorr.verify import (
    SUITES,
    check_ensemble_bound,
    check_gibbs_equivalence,
    check_ppt_agreement,
    check_wootters_closed_form,
    run_suites,
)


def test_suite_names():
    assert SUITES == ("gibbs", "wootters", "ppt", "ensemble")


def test_gibbs_check_passes():
    result = check_gibbs_equivalence(samples=50, seed=3)
    assert result.passed
    assert result.residual < result.bound == 1e-10
    assert result.suite == "gibbs"


def test_wootters_checks_pass():
    results = check_wootters_closed_form()
    assert len(results) == 2
    assert all(r.passed for r in results)


def test_ppt_check_passes_for_several_seeds():
    for seed in (1, 2, 3):
        result = check_ppt_agreement(samples=200, seed=seed)
        assert result.passed
        assert result.residual == 0.0


def test_run_suites_all():
    results = run_suites("all", samples=50)
    assert {r.suite for r in results} == set(SUITES)
    assert all(r.passed for r in results)
    drawn = [r.detail for r in results if r.suite != "wootters"]  # the override reaches each drawn suite
    assert len(drawn) == 3 and all(" 50 " in detail for detail in drawn)


def test_run_suites_single():
    results = run_suites("ppt", samples=100)
    assert [r.suite for r in results] == ["ppt"]


def test_run_suites_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suites("bogus")


@pytest.mark.parametrize("samples", [0, -5])
def test_run_suites_rejects_samples_below_one(samples):
    with pytest.raises(ValueError, match="samples"):
        run_suites("ppt", samples=samples)


def test_run_suites_rejects_a_negative_seed():
    with pytest.raises(ValueError, match="seed"):
        run_suites("ppt", seed=-1)


def test_ensemble_gap_is_kept():
    # the five states share one stream of Haar draws; the Gram-Schmidt
    # isometries and the members' weights and concurrences depend on the
    # order of their sums only at roundoff, so the gap stays at its pin
    result = check_ensemble_bound()
    assert result.passed
    assert abs(result.residual - 0.03783709843670115) < 1e-12
    assert result.bound == -1e-9


def test_ensemble_check_has_a_small_fixed_working_set():
    # 10,000 draws pass through one 2,048-draw buffer (0.5 MB) and 256-draw
    # batches, so the peak does not grow with the sample count
    check_ensemble_bound(samples=1)  # one-time allocations of the first call
    tracemalloc.start()
    try:
        check_ensemble_bound()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6


def test_ppt_check_has_a_small_working_set():
    # the concurrence builds X = V sqrt(Lambda) in eigh's own vectors, so the
    # 1,000-state stack holds the states, X, X^T (sy x sy) and tau at most
    check_ppt_agreement(samples=1)  # one-time allocations of the first call
    tracemalloc.start()
    try:
        check_ppt_agreement()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1e6


LAPACK_BACKED = (
    "cholesky", "det", "eig", "eigh", "eigvals", "eigvalsh", "inv", "lstsq",
    "matrix_rank", "pinv", "qr", "slogdet", "solve", "svd",
)


@pytest.fixture
def lapack_calls(monkeypatch):
    """Names of the LAPACK-backed numpy.linalg functions called during the test, in call order."""
    calls = []
    for name in LAPACK_BACKED:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


# each state is validated and decomposed by one eigh, which the concurrence,
# the entropies and the sampler read
SUITE_CALLS = {
    "gibbs": {"eigh": 1},
    "wootters": {"eigh": 2, "svd": 1},
    "ppt": {"eigh": 1, "eigvalsh": 1, "svd": 1},
    "ensemble": {"eigh": 2, "svd": 1},
}


def test_run_suites_makes_few_lapack_calls(lapack_calls):
    results = run_suites("all")
    assert all(r.passed for r in results)
    assert Counter(lapack_calls) == {"eigh": 6, "svd": 3, "eigvalsh": 1}
    for suite, expected in SUITE_CALLS.items():
        lapack_calls.clear()
        run_suites(suite)
        assert Counter(lapack_calls) == expected, suite


def test_ppt_suite_validates_its_stack_once(lapack_calls):
    (result,) = run_suites("ppt")
    assert result.passed
    # one validation whose eigh the concurrence reads (eigh + svd), the partial transpose (eigvalsh)
    assert sorted(lapack_calls) == ["eigh", "eigvalsh", "svd"]


@pytest.mark.parametrize(
    "fn,expected",
    [
        (report, ["eigh", "eigvalsh", "svd"]),  # the marginals' entropies take the eigvalsh
        (concurrence, ["eigh", "svd"]),
        (entanglement_of_formation, ["eigh", "svd"]),
        (lambda rho: sample_decomposition_average(rho, 10, seed=1), ["eigh"]),
    ],
    ids=["report", "concurrence", "entanglement_of_formation", "sample_decomposition_average"],
)
def test_dense_functions_decompose_each_state_once(fn, expected, lapack_calls):
    fn(random_density_matrix(np.random.default_rng(3), size=5))
    assert sorted(lapack_calls) == expected
