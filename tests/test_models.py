"""Hamiltonian construction, analytic spectra, and thermal states."""

import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from dimercorr.correlations import concurrence, report
from dimercorr.domain import DomainError
from dimercorr.matkernel import EigenSystem, check_density_matrix, gibbs, hermitian_eig
from dimercorr.models import (
    ModelParams,
    analytic_eigensystem,
    build_hamiltonian,
    closed_form_correlations,
    thermal_state,
    thermal_state_analytic,
)
from test_kernel import KERNEL_CORNERS, OUTPUTS, assert_gibbs_matches_dense_and_reference

SINGLET_RHO = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
SINGLET_RHO[1, 2] = SINGLET_RHO[2, 1] = -0.5


def test_params_validation():
    with pytest.raises(DomainError):
        ModelParams(gamma=1.2)
    with pytest.raises(DomainError):
        ModelParams(gamma=-1.0001)


def test_hamiltonian_ising_limit_is_diagonal():
    # gamma=1 kills the in-plane exchange, leaving sigma_z terms only
    h = build_hamiltonian(1.0, 0.3, -0.7)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    assert np.allclose(np.diag(h).real, [1.0 - 0.4, -1.0 + 1.0, -1.0 - 1.0, 1.0 + 0.4])


def test_hamiltonian_isotropic_entries():
    h = build_hamiltonian(0.0, 0.0, 0.0)
    expected = np.array(
        [
            [0.5, 0, 0, 0],
            [0, -0.5, 1.0, 0],
            [0, 1.0, -0.5, 0],
            [0, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(h - expected)) < 1e-15


def test_singlet_is_eigenstate_without_fields():
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    for gamma in (-1.0, -0.3, 0.0, 0.7, 1.0):
        h = build_hamiltonian(gamma, 0.0, 0.0)
        energy = (gamma - 3.0) / 2.0
        assert np.max(np.abs(h @ singlet - energy * singlet)) < 1e-12


@pytest.mark.parametrize(
    "gamma,expected",
    [
        (0.0, [-1.5, 0.5, 0.5, 0.5]),
        (0.9, [-1.05, -0.85, 0.95, 0.95]),
        (-1.0, [-2.0, 0.0, 0.0, 2.0]),
    ],
)
def test_zero_field_energies(gamma, expected):
    values = analytic_eigensystem(ModelParams(gamma=gamma)).values
    assert np.allclose(values, expected, atol=1e-12)


def test_xy_energies_with_fields():
    # opposite fields of 0.5 split the central block by 2 sqrt(5)/2
    energies = analytic_eigensystem(ModelParams(gamma=-1.0, b1=0.5, b2=-0.5)).values
    root5 = math.sqrt(5.0)
    assert np.allclose(energies, [-root5, 0.0, 0.0, root5], atol=1e-12)


def test_xy_energies_uniform_field():
    energies = analytic_eigensystem(ModelParams(gamma=-1.0, b1=0.8, b2=0.8)).values
    assert np.allclose(energies, [-2.0, -1.6, 1.6, 2.0], atol=1e-12)


def test_analytic_pairs_solve_the_hamiltonian():
    rng = np.random.default_rng(13)
    # each field block also draws (and drops) a value in [0.5, 2]; the draws after it follow from that
    params = [ModelParams(gamma=float(g)) for g in rng.uniform(-1.0, 1.0, 25)]
    params += [
        ModelParams(gamma=-1.0, b1=float(b1), b2=float(b2))
        for b1, b2, _ in zip(
            rng.uniform(-3.0, 3.0, 25), rng.uniform(-3.0, 3.0, 25), rng.uniform(0.5, 2.0, 25)
        )
    ]
    params += [
        ModelParams(gamma=float(g), b1=float(b1), b2=float(b2))
        for g, b1, b2, _ in zip(
            rng.uniform(-1.0, 1.0, 25),
            rng.uniform(-3.0, 3.0, 25),
            rng.uniform(-3.0, 3.0, 25),
            rng.uniform(0.5, 2.0, 25),
        )
    ]
    for p in params:
        h = build_hamiltonian(*p)
        values, vectors = analytic_eigensystem(p)
        for energy, state in zip(values, vectors.T):
            assert abs(np.linalg.norm(state) - 1.0) < 1e-12
            assert np.max(np.abs(h @ state - energy * state)) < 1e-10


@pytest.mark.parametrize(
    "p",
    # gamma = 1 with b1 = b2 (r = 0, no mixing angle), and zero field, where levels coincide
    [ModelParams(1.0), ModelParams(1.0, 0.4, 0.4), ModelParams(0.0), ModelParams(-1.0), ModelParams(0.9)],
)
def test_analytic_eigensystem_contract_at_degenerate_points(p):
    h = build_hamiltonian(*p)
    system = analytic_eigensystem(p)
    assert isinstance(system, EigenSystem)
    assert np.all(np.diff(system.values) >= 0.0)
    assert np.max(np.abs(system.values - hermitian_eig(h).values)) < 1e-10
    for k in range(4):
        v = system.vectors[:, k]
        assert np.max(np.abs(h @ v - system.values[k] * v)) < 1e-10


def test_analytic_eigensystem_where_twice_r_overflows():
    # r ~ 1e308 is finite but 2r is not: the shift and the upper mixed level are formed from r
    gamma, b1, b2 = 0.0, 5e307, -5e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = analytic_eigensystem(ModelParams(gamma, b1, b2)).values
    assert np.all(np.isfinite(values)) and np.all(np.diff(values) >= 0.0)
    half, sigma = mp.mpf(1 + gamma) / 2, mp.mpf(b1) + mp.mpf(b2)
    r = mp.sqrt((mp.mpf(b1) - mp.mpf(b2)) ** 2 + (1 - mp.mpf(gamma)) ** 2)
    exact = sorted([half + sigma, half - sigma, -half + r, -half - r])
    worst = max(abs(mp.mpf(float(v)) - e) for v, e in zip(values, exact))
    assert worst <= 4 * np.spacing(np.max(np.abs(values)))


def test_analytic_eigensystem_has_no_nan_at_the_kernel_corners():
    # a level measured from the lower mixed level may itself overflow: at
    # (-1, 1e308, 0), |uu> sits 2e308 above it and its value stays +inf
    for gamma, b1, b2, _ in KERNEL_CORNERS:
        values, vectors = analytic_eigensystem(ModelParams(gamma, b1, b2))
        assert not np.isnan(values).any() and not np.isnan(vectors).any(), (gamma, b1, b2)


def test_fields_away_from_the_xy_point_match_dense_and_reference():
    p = ModelParams(gamma=0.5, b1=0.1)
    energies = analytic_eigensystem(p).values
    assert np.max(np.abs(energies - hermitian_eig(build_hamiltonian(*p))[0])) < 1e-10
    assert_gibbs_matches_dense_and_reference(0.5, 0.1, 0.0, 1.0)
    assert_gibbs_matches_dense_and_reference(0.0, 0.0, 0.2, 1.0)


def test_thermal_state_closed_form_entries():
    # gamma=0, T=1: corners eta/e, central block eta (cosh 1, -sinh 1)
    rho = thermal_state_analytic(0.0, 0.0, 0.0, 1.0)
    eta = 1.0 / (2.0 * (math.cosh(1.0) + math.exp(-1.0)))
    assert abs(rho[0, 0] - eta * math.exp(-1.0)) < 1e-14
    assert abs(rho[3, 3] - eta * math.exp(-1.0)) < 1e-14
    assert abs(rho[1, 1] - eta * math.cosh(1.0)) < 1e-14
    assert abs(rho[1, 2] + eta * math.sinh(1.0)) < 1e-14
    assert abs(rho[0, 3]) == 0.0


def test_thermal_state_xy_entries():
    # delta=0 keeps the central block balanced; off-diagonal is sinh(2/T)/Z
    t = 1.3
    rho = thermal_state_analytic(-1.0, 0.5, 0.5, t)
    z = 2.0 * (math.cosh(1.0 / t) + math.cosh(2.0 / t))
    assert abs(rho[0, 0] - math.exp(-1.0 / t) / z) < 1e-14
    assert abs(rho[3, 3] - math.exp(1.0 / t) / z) < 1e-14
    assert abs(rho[1, 1] - math.cosh(2.0 / t) / z) < 1e-14
    assert abs(rho[1, 2] + math.sinh(2.0 / t) / z) < 1e-14


def test_thermal_state_routes_agree():
    rng = np.random.default_rng(7)
    cases = [ModelParams(gamma=float(g)) for g in rng.uniform(-1.0, 1.0, 40)]
    cases += [
        ModelParams(gamma=-1.0, b1=float(b1), b2=float(b2))
        for b1, b2 in zip(rng.uniform(-3.0, 3.0, 40), rng.uniform(-3.0, 3.0, 40))
    ]
    cases += [
        ModelParams(gamma=float(g), b1=float(b1), b2=float(b2))
        for g, b1, b2 in zip(rng.uniform(-1.0, 1.0, 40), rng.uniform(-3.0, 3.0, 40), rng.uniform(-3.0, 3.0, 40))
    ]
    for p in cases:
        for t in (0.05, 0.7, 3.0):
            gap = np.max(np.abs(thermal_state_analytic(*p, t) - thermal_state(p, t)))
            assert gap < 1e-10


def test_cold_thermal_state_matches_dense_and_reference():
    for p in (
        ModelParams(gamma=0.0),
        ModelParams(gamma=0.9),
        ModelParams(gamma=-1.0, b1=1.5, b2=-0.5),
    ):
        for t in (0.005, 0.01, 0.019):
            rho = thermal_state_analytic(*p, t)
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.isfinite(rho).all()
            assert_gibbs_matches_dense_and_reference(p.gamma, p.b1, p.b2, t)


def test_eigenpairs_gibbs_state_and_correlations_agree_over_the_box():
    rng = np.random.default_rng(21)
    n = 400
    gamma, b1, b2 = rng.uniform(-1.0, 1.0, n), *rng.uniform(-5.0, 5.0, (2, n))
    t = rng.uniform(0.02, 5.0, n)
    gamma[:3] = -1.0, 1.0, 1.0  # both endpoints, and the r = 0 point gamma = 1, b1 = b2
    b2[2] = b1[2]
    rho = thermal_state_analytic(gamma, b1, b2, t)
    for k in range(n):
        energies, vectors = analytic_eigensystem(ModelParams(float(gamma[k]), float(b1[k]), float(b2[k])))
        weights = np.exp(-(energies - energies.min()) / t[k])
        weights /= weights.sum()
        mixture = sum(w * np.outer(state, state.conj()) for w, state in zip(weights, vectors.T))
        assert np.max(np.abs(mixture - rho[k])) < 1e-14, k
    check_density_matrix(rho)
    x_pattern = np.eye(4, dtype=bool) | np.eye(4, dtype=bool)[::-1]
    assert np.all(rho[:, ~x_pattern] == 0.0)
    got, closed = report(rho), closed_form_correlations(gamma, b1, b2, t)
    for name in OUTPUTS:
        assert np.max(np.abs(getattr(got, name) - closed[name])) < 1e-13, name


def test_thermal_state_rejects_nonpositive_temperature():
    with pytest.raises(DomainError):
        thermal_state_analytic(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DomainError):
        thermal_state(ModelParams(gamma=0.0), -0.5)


def test_high_temperature_limit_is_maximally_mixed():
    rho = thermal_state_analytic(0.3, 0.0, 0.0, 1e6)
    assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-5


# T = 0.02 J lies far below the gap above each ground space here (2 J, 2 J
# and 1 J), so the excited weights, e^-100 and e^-50, vanish in double
# precision: the dense Gibbs state is its T -> 0+ limit, the uniform mixture
# over the ground eigenspace, to rounding.
GROUND_T = 0.02
POLARIZED_RHO = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)


def test_ground_state_limit_isotropic_is_singlet():
    rho = thermal_state(ModelParams(gamma=0.0), GROUND_T)
    assert np.max(np.abs(rho - SINGLET_RHO)) < 1e-12


def test_ground_state_limit_ising_is_degenerate_mixture():
    # gamma=1, B=0: singlet and triplet-0 are both at -J, mixing to
    # an equal classical blend of up-down and down-up
    rho = thermal_state(ModelParams(gamma=1.0), GROUND_T)
    assert np.max(np.abs(rho - np.diag([0.0, 0.5, 0.5, 0.0]))) < 1e-12


def test_ground_state_limit_strong_field_polarizes():
    rho = thermal_state(ModelParams(gamma=-1.0, b1=1.5, b2=1.5), GROUND_T)
    assert np.max(np.abs(rho - POLARIZED_RHO)) < 1e-12


def test_cold_thermal_state_approaches_ground_state_limit():
    for p, ground in ((ModelParams(gamma=0.0), SINGLET_RHO), (ModelParams(gamma=-1.0, b1=1.5, b2=1.5), POLARIZED_RHO)):
        gap = np.max(np.abs(thermal_state_analytic(*p, 0.02) - ground))
        assert gap < 1e-6


def test_concurrence_closed_form_isotropic_point():
    # gamma=0, T=1: C = (sinh 1 - 1/e) / (cosh 1 + 1/e)
    expected = (math.sinh(1.0) - math.exp(-1.0)) / (math.cosh(1.0) + math.exp(-1.0))
    assert abs(closed_form_correlations(0.0, 0.0, 0.0, 1.0)["concurrence"] - expected) < 1e-14


def test_concurrence_closed_form_matches_pipeline():
    rng = np.random.default_rng(3)
    zero_field = [ModelParams(gamma=float(g)) for g in rng.uniform(-1.0, 1.0, 20)]
    with_fields = [
        ModelParams(gamma=-1.0, b1=float(b1), b2=float(b2))
        for b1, b2 in zip(rng.uniform(-3.0, 3.0, 20), rng.uniform(-3.0, 3.0, 20))
    ]
    for p in zero_field + with_fields:
        for t in (0.5, 1.0, 2.2, 5.0):
            direct = closed_form_correlations(p.gamma, p.b1, p.b2, t)["concurrence"]
            via_state = concurrence(thermal_state_analytic(*p, t))
            assert abs(direct - via_state) < 1e-12


def test_concurrence_closed_form_cold_limits():
    # the singlet ground state gives maximal concurrence; a strongly
    # polarized pair keeps only an exponentially small entangled admixture
    assert abs(closed_form_correlations(0.0, 0.0, 0.0, 0.01)["concurrence"] - 1.0) < 1e-12
    polarized = closed_form_correlations(-1.0, 2.0, 2.0, 0.01)["concurrence"]
    assert 0.0 <= polarized < 1e-12


def test_concurrence_closed_form_vanishes_at_high_temperature():
    for p in (ModelParams(gamma=0.0), ModelParams(gamma=-1.0, b1=1.0, b2=-1.0)):
        assert closed_form_correlations(p.gamma, p.b1, p.b2, 50.0)["concurrence"] == 0.0


@pytest.mark.parametrize(
    "kwargs,name",
    [
        ({"gamma": float("nan")}, "gamma"),
        ({"gamma": 0.0, "b1": float("inf")}, "b1"),
        ({"gamma": 0.0, "b2": float("nan")}, "b2"),
    ],
)
def test_params_reject_non_finite_values(kwargs, name):
    with pytest.raises(DomainError, match=name):
        ModelParams(**kwargs)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_thermal_states_reject_non_finite_temperature(t):
    p = ModelParams(gamma=-1.0, b1=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="temperature"):
            thermal_state(p, t)
        with pytest.raises(DomainError, match="temperature"):
            thermal_state_analytic(*p, t)
        with pytest.raises(DomainError, match="temperature"):
            closed_form_correlations(p.gamma, p.b1, p.b2, t)
        with pytest.raises(DomainError, match="temperature"):
            gibbs(build_hamiltonian(*p), t)


def test_concurrence_closed_form_covers_every_family():
    rng = np.random.default_rng(17)
    for _ in range(40):
        p = ModelParams(
            gamma=float(rng.uniform(-1.0, 1.0)), b1=float(rng.uniform(-3.0, 3.0)), b2=float(rng.uniform(-3.0, 3.0))
        )
        for t in (0.5, 1.0, 2.2, 5.0):
            closed = closed_form_correlations(p.gamma, p.b1, p.b2, t)["concurrence"]
            assert abs(closed - concurrence(thermal_state(p, t))) < 1e-12
