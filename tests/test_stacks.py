"""The (..., 4, 4) stack contract of the dense route.

Every dense function takes one matrix or a stack.  A stack gives what a
loop over its members gives, a single input keeps its scalar return type,
and one bad member rejects the whole stack.
"""

import numpy as np
import pytest

from dimercorr.correlations import (
    concurrence,
    entanglement_of_formation,
    formation_from_concurrence,
    is_separable_ppt,
    mutual_information,
    random_density_matrix,
    report,
    sample_decomposition_average,
    von_neumann_entropy,
)
from dimercorr.exceptions import DomainError, ValidationError
from dimercorr.matkernel import (
    check_density_matrix,
    gibbs,
    hermitian_eig,
    partial_trace,
    partial_transpose,
)
from dimercorr.models import ModelParams, build_hamiltonian, thermal_state, thermal_state_analytic
from test_kernel import assert_gibbs_matches_dense_and_reference

STACK_TOL = 1e-14


def _states(n=12, seed=3):
    return random_density_matrix(np.random.default_rng(seed), size=n)


def _params(n=12, seed=4):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(-3.0, 3.0, n), rng.uniform(0.05, 5.0, n)


def test_random_density_matrix_stack_draws_like_single_calls():
    rng = np.random.default_rng(7)
    singles = np.array([random_density_matrix(rng) for _ in range(1000)])
    assert np.array_equal(random_density_matrix(np.random.default_rng(7), size=1000), singles)


@pytest.mark.parametrize(
    "fn,kind",
    [
        (concurrence, float),
        (mutual_information, float),
        (entanglement_of_formation, float),
        (von_neumann_entropy, float),
        (is_separable_ppt, bool),
    ],
)
def test_state_functions_on_a_stack_match_a_loop(fn, kind):
    rho = _states()
    singles = [fn(member) for member in rho]
    assert all(type(v) is kind for v in singles)
    stacked = fn(rho)
    assert isinstance(stacked, np.ndarray) and stacked.shape == (len(rho),)
    if kind is bool:
        assert stacked.tolist() == singles
    else:
        assert np.max(np.abs(stacked - np.array(singles))) < STACK_TOL


def test_stacks_of_any_leading_shape():
    rho = _states(6).reshape(2, 3, 4, 4)
    assert concurrence(rho).shape == (2, 3)
    assert is_separable_ppt(rho).shape == (2, 3)
    assert check_density_matrix(rho).shape == (2, 3, 4, 4)


def test_report_on_a_stack_matches_a_loop():
    rho = _states()
    stacked = report(rho)
    for i, member in enumerate(rho):
        single = report(member)
        for name in ("total", "quantum", "classical", "concurrence"):
            assert type(getattr(single, name)) is float
            assert abs(getattr(stacked, name)[i] - getattr(single, name)) < STACK_TOL
    assert np.all(stacked.classical == stacked.total - stacked.quantum)


def test_formation_from_concurrence_on_an_array():
    c = np.linspace(0.0, 1.0, 11)
    singles = [formation_from_concurrence(float(x)) for x in c]
    assert all(type(v) is float for v in singles)
    assert np.array_equal(formation_from_concurrence(c), np.array(singles))
    with pytest.raises(DomainError):
        formation_from_concurrence(np.array([0.5, 1.5]))


def test_matrix_helpers_on_a_stack_match_a_loop():
    rho = _states()
    assert np.array_equal(check_density_matrix(rho), rho)
    for keep in (1, 2):
        stacked = partial_trace(rho, keep)
        assert stacked.shape == (len(rho), 2, 2)
        for i, member in enumerate(rho):
            assert np.max(np.abs(stacked[i] - partial_trace(member, keep))) < STACK_TOL
            assert np.array_equal(partial_transpose(rho, keep)[i], partial_transpose(member, keep))
    values, vectors = hermitian_eig(rho)
    for i, member in enumerate(rho):
        single = hermitian_eig(member)
        assert np.max(np.abs(values[i] - single.values)) < STACK_TOL
        rebuilt = (vectors[i] * values[i]) @ vectors[i].conj().T
        assert np.max(np.abs(rebuilt - member)) < 1e-13


def test_hamiltonian_and_thermal_state_on_parameter_arrays():
    gamma, b1, b2, t = _params()
    h = build_hamiltonian(ModelParams(gamma, b1, b2))
    rho = thermal_state(ModelParams(gamma, b1, b2), t)
    assert h.shape == rho.shape == (len(gamma), 4, 4)
    for i, point in enumerate(zip(gamma.tolist(), b1.tolist(), b2.tolist(), t.tolist())):
        p = ModelParams(*point[:3])
        single_h = build_hamiltonian(p)
        assert single_h.shape == (4, 4)
        assert np.array_equal(h[i], single_h)
        assert np.max(np.abs(rho[i] - thermal_state(p, point[3]))) < STACK_TOL


def test_gibbs_broadcasts_one_hamiltonian_over_temperatures():
    h = build_hamiltonian(ModelParams(gamma=0.3, b1=0.7, b2=-1.1))
    temps = np.array([0.1, 0.5, 2.0])
    stacked = gibbs(h, temps)
    assert stacked.shape == (3, 4, 4)
    for i, t in enumerate(temps):
        assert np.max(np.abs(stacked[i] - gibbs(h, float(t)))) < STACK_TOL


def test_sample_decomposition_average_on_a_stack_matches_a_loop():
    rho = _states(3)
    singles = [sample_decomposition_average(member, 4, 3000, seed=5) for member in rho]
    assert all(type(v) is float for v in singles)
    stacked = sample_decomposition_average(rho, 4, 3000, seed=5)
    assert np.max(np.abs(stacked - np.array(singles))) < STACK_TOL


def test_sample_decomposition_average_on_a_stack_of_mixed_rank():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    rho = np.stack([pure, _states(1)[0]])
    stacked = sample_decomposition_average(rho, 4, 500, seed=2)
    assert stacked[0] == 0.0  # every decomposition of a product state is unentangled
    assert abs(stacked[1] - sample_decomposition_average(rho[1], 4, 500, seed=2)) < STACK_TOL
    with pytest.raises(DomainError):
        sample_decomposition_average(rho, 3, 10, seed=1)  # the second state has rank 4


def _spoil(rho, index, kind):
    bad = rho.copy()
    if kind == "hermitian":
        bad[index, 0, 1] += 0.1
    elif kind == "trace":
        bad[index] *= 2.0
    else:
        bad[index] = np.diag([1.5, -0.5, 0.0, 0.0])
    return bad


@pytest.mark.parametrize("kind", ["hermitian", "trace", "positive"])
def test_one_bad_member_rejects_the_stack(kind):
    bad = _spoil(_states(), 7, kind)
    with pytest.raises(ValidationError, match="stack member 7"):
        check_density_matrix(bad)
    for fn in (concurrence, mutual_information, is_separable_ppt, report):
        with pytest.raises(ValidationError):
            fn(bad)
    with pytest.raises(ValidationError):
        sample_decomposition_average(bad, 4, 10, seed=1)


def test_one_bad_parameter_rejects_the_array():
    gamma, b1, b2, t = _params()
    gamma[3] = 1.5
    with pytest.raises(DomainError, match="gamma"):
        ModelParams(gamma, b1, b2)
    t[5] = np.nan
    with pytest.raises(DomainError, match="temperature"):
        thermal_state(ModelParams(0.0, b1, b2), t)
    h = build_hamiltonian(ModelParams(0.0, b1, b2))
    h[2, 0, 1] += 1.0
    with pytest.raises(ValidationError, match="stack member 2"):
        gibbs(h, 1.0)


def _family_points(n=40, seed=9):
    """Zero-field points and XY field points, from T = 0.005 J to 5 J."""
    rng = np.random.default_rng(seed)
    zero = np.arange(n) % 2 == 0
    gamma = np.where(zero, rng.uniform(-1.0, 1.0, n), -1.0)
    b1 = np.where(zero, 0.0, rng.uniform(-3.0, 3.0, n))
    b2 = np.where(zero, 0.0, rng.uniform(-3.0, 3.0, n))
    j = rng.uniform(0.5, 2.0, n)
    t = j * np.exp(rng.uniform(np.log(0.005), np.log(5.0), n))
    return gamma, b1, b2, j, t


def test_thermal_state_analytic_on_parameter_arrays_matches_a_loop():
    gamma, b1, b2, j, t = _family_points()
    assert (t / j < 0.02).any() and (t / j >= 0.02).any()
    singles = [
        thermal_state_analytic(ModelParams(*point[:4]), point[4])
        for point in zip(gamma.tolist(), b1.tolist(), b2.tolist(), j.tolist(), t.tolist())
    ]
    assert all(rho.shape == (4, 4) for rho in singles)
    stacked = thermal_state_analytic(ModelParams(gamma, b1, b2, j), t)
    assert np.array_equal(stacked, np.array(singles))
    grid = thermal_state_analytic(ModelParams(gamma.reshape(5, 8), b1.reshape(5, 8), b2.reshape(5, 8)), 0.7)
    assert grid.shape == (5, 8, 4, 4)


def test_thermal_state_analytic_stack_with_a_general_point_matches_dense_and_reference():
    gamma, b1, b2, j, t = _family_points()
    gamma[7] = 0.5  # a field point (7 is odd) away from gamma = -1
    assert_gibbs_matches_dense_and_reference(gamma, b1, b2, t, j)


def test_thermal_state_analytic_strong_cold_field_is_polarized():
    # b = 8 at T = 0.02 J: Boltzmann factors such as e^800 lie beyond the float range
    b = np.array([0.5, 8.0, 1.0])
    stack = assert_gibbs_matches_dense_and_reference(-1.0, b, b, 0.02)
    assert np.isfinite(stack).all()
    assert stack[1, 3, 3].real > 1.0 - 1e-12  # all in |dd>
