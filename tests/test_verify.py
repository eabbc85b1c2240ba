"""Cross-check suites used by the verify subcommand."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from dimercorr.cli import main
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
    # 10,000 draws are taken 2,048 at a time (0.5 MB a block) and evaluated in
    # 256-draw batches, so the peak does not grow with the sample count
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


def _draws(monkeypatch, run):
    """What ``run()`` passes to the functions the suites draw from, in call order.

    Arrays are recorded as lists and a generator by its state at the call,
    before it draws.
    """
    from dimercorr import verify

    calls = []

    def record(name):
        original = getattr(verify, name)

        def recorded(*args, **kwargs):
            seen = [a.bit_generator.state if isinstance(a, np.random.Generator) else np.asarray(a).tolist()
                    for a in args]
            calls.append((name, seen, kwargs))
            return original(*args, **kwargs)

        monkeypatch.setattr(verify, name, recorded)

    drawing = (
        "thermal_state_analytic", "closed_form_correlations", "random_density_matrix", "sample_decomposition_average"
    )
    for name in drawing:
        record(name)
    run()
    monkeypatch.undo()
    return calls


def _box_draw(seed, n):
    """n points of the full box, (gamma, b1, b2, T) as verify's module docstring states it, from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(-1.0, 1.0, n), *rng.uniform(-5.0, 5.0, (2, n)), rng.uniform(0.02, 5.0, n)]


def test_verify_draws_the_panels_its_lines_name(monkeypatch, capsys):
    # the draws, unlike the residual digits, do not depend on the BLAS build
    calls = _draws(monkeypatch, lambda: main(["verify"]))
    capsys.readouterr()
    names = [name for name, _, _ in calls]
    assert names == ["thermal_state_analytic", "closed_form_correlations"] + ["random_density_matrix"] * 2 + [
        "sample_decomposition_average"
    ]
    (_, gibbs_points, _), (_, wootters_points, _), ppt, ensemble, (_, (rho,), sampled) = calls
    assert gibbs_points == [a.tolist() for a in _box_draw(7, 200)]
    g, t = np.meshgrid(np.linspace(-1.0, 1.0, 10), np.linspace(0.02, 5.0, 5), indexing="ij")
    grid = [g.ravel(), np.zeros(50), np.zeros(50), t.ravel()]
    assert wootters_points == [np.concatenate(pair).tolist() for pair in zip(grid, _box_draw(11, 50))]
    seed_7 = np.random.default_rng(7).bit_generator.state
    assert ppt[1:] == ([seed_7], {"size": 1000}) and ensemble[1:] == ([seed_7], {"size": 5})
    assert np.shape(rho) == (5, 4, 4) and sampled == {"samples": 10000, "seed": 7}


@pytest.mark.parametrize(
    ("check", "suite"),
    [(check_gibbs_equivalence, "gibbs"), (check_ppt_agreement, "ppt"), (check_ensemble_bound, "ensemble")],
)
def test_a_bare_check_draws_what_run_suites_draws(monkeypatch, check, suite):
    assert _draws(monkeypatch, check) == _draws(monkeypatch, lambda: run_suites(suite))


def test_run_suites_takes_the_smallest_samples_and_seed():
    (result,) = run_suites("ppt", seed=0, samples=1)
    assert result.passed and result.detail == "disagreements over 1 random density matrices"


def test_ensemble_check_passes_within_its_tolerance_below_the_floor(monkeypatch):
    # Wootters' decomposition attains E_f, so an average at the floor, or rounding below it, must pass
    from dimercorr import verify

    def at_the_floor(rho, samples, seed):
        return entanglement_of_formation(rho) - 0.5e-9

    monkeypatch.setattr(verify, "sample_decomposition_average", at_the_floor)
    result = check_ensemble_bound()
    assert result.passed and abs(result.residual + 0.5e-9) < 1e-15
