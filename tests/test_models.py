"""Hamiltonian construction, spectra, and thermal states."""

import math
import warnings

import numpy as np
import pytest

from dimercorr.correlations import concurrence, report
from dimercorr.domain import DomainError
from dimercorr.matkernel import check_density_matrix, gibbs
from dimercorr.models import (
    ModelParams,
    build_hamiltonian,
    closed_form_correlations,
    thermal_state,
    thermal_state_analytic,
)
from test_kernel import OUTPUTS, assert_gibbs_matches_dense_and_reference

SINGLET_RHO = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
SINGLET_RHO[1, 2] = SINGLET_RHO[2, 1] = -0.5


def test_params_default_to_zero_fields():
    assert ModelParams(0.3) == (0.3, 0.0, 0.0)
    assert ModelParams(0.3, 0.5) == (0.3, 0.5, 0.0)


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
    values = np.linalg.eigvalsh(build_hamiltonian(*ModelParams(gamma=gamma)))
    assert np.allclose(values, expected, atol=1e-12)


def test_xy_energies_with_fields():
    # opposite fields of 0.5 split the central block by 2 sqrt(5)/2
    energies = np.linalg.eigvalsh(build_hamiltonian(*ModelParams(gamma=-1.0, b1=0.5, b2=-0.5)))
    root5 = math.sqrt(5.0)
    assert np.allclose(energies, [-root5, 0.0, 0.0, root5], atol=1e-12)


def test_xy_energies_uniform_field():
    energies = np.linalg.eigvalsh(build_hamiltonian(*ModelParams(gamma=-1.0, b1=0.8, b2=0.8)))
    assert np.allclose(energies, [-2.0, -1.6, 1.6, 2.0], atol=1e-12)


def test_fields_away_from_the_xy_point_match_dense_and_reference():
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
    gap = np.abs(gibbs(build_hamiltonian(gamma, b1, b2), t) - rho).max(axis=(-2, -1))
    assert gap.max() < 1e-14, int(gap.argmax())
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
