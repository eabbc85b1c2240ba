"""Entropy, correlation splitting, concurrence, and decomposition sampling."""

import math

import mpmath as mp
import numpy as np
import pytest

from dimercorr.correlations import (
    MAX_ENSEMBLE,
    Ensemble,
    average_entanglement,
    classical_correlation,
    concurrence,
    entanglement_of_formation,
    formation_from_concurrence,
    is_separable_ppt,
    mutual_information,
    random_density_matrix,
    random_ensemble,
    random_unitary,
    report,
    sample_decomposition_average,
    von_neumann_entropy,
)
from dimercorr.exceptions import DomainError, ValidationError
from dimercorr.models import ModelParams, thermal_state_analytic

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / math.sqrt(2.0)
SINGLET_RHO = np.outer(SINGLET, SINGLET.conj())
CLASSICAL_MIX = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)


def binary_entropy(x):
    # independent reference used to cross-check library values
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def mp_formation(c):
    """h((1 + sqrt(1 - C^2)) / 2) at 50 digits, where the cancellation in 1 - C^2 costs nothing."""
    with mp.workdps(50):
        x = (1 - mp.sqrt(1 - mp.mpf(c) ** 2)) / 2
        return float(-(x * mp.log(x, 2) + (1 - x) * mp.log(1 - x, 2)))


def test_entropy_reference_points():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert abs(von_neumann_entropy(np.eye(2, dtype=complex) / 2.0) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.eye(4, dtype=complex) / 4.0) - 2.0) < 1e-12
    assert von_neumann_entropy(SINGLET_RHO) < 1e-10
    p = 0.3
    mixed = np.diag([p, 1.0 - p]).astype(complex)
    assert abs(von_neumann_entropy(mixed) - binary_entropy(p)) < 1e-12


def test_entropy_rejects_bad_input():
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.triu(np.ones((4, 4))) / 4.0)
    with pytest.raises(ValidationError):
        von_neumann_entropy(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError):
        von_neumann_entropy(np.eye(3, dtype=complex) / 3.0)


def test_mutual_information_reference_points():
    assert abs(mutual_information(SINGLET_RHO) - 2.0) < 1e-12
    assert abs(mutual_information(CLASSICAL_MIX) - 1.0) < 1e-12
    assert abs(mutual_information(np.eye(4, dtype=complex) / 4.0)) < 1e-12


def test_mutual_information_vanishes_on_products():
    rng = np.random.default_rng(19)
    for _ in range(100):
        product = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert abs(mutual_information(product)) < 1e-10


def test_mutual_information_bounds():
    rng = np.random.default_rng(23)
    for _ in range(200):
        mi = mutual_information(random_density_matrix(rng))
        assert -1e-12 <= mi <= 2.0 + 1e-12


def test_concurrence_reference_points():
    assert abs(concurrence(SINGLET_RHO) - 1.0) < 1e-12
    assert concurrence(CLASSICAL_MIX) < 1e-12
    assert concurrence(np.eye(4, dtype=complex) / 4.0) < 1e-12


def test_concurrence_of_isotropic_thermal_state():
    # gamma=0, T=1: C = (sinh 1 - 1/e) / (cosh 1 + 1/e)
    rho = thermal_state_analytic(ModelParams(gamma=0.0), 1.0)
    expected = (math.sinh(1.0) - math.exp(-1.0)) / (math.cosh(1.0) + math.exp(-1.0))
    assert abs(concurrence(rho) - expected) < 1e-10


def test_concurrence_vanishes_on_products():
    rng = np.random.default_rng(37)
    for _ in range(100):
        product = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert concurrence(product) < 1e-10


def test_local_unitary_invariance():
    rng = np.random.default_rng(101)
    for _ in range(100):
        rho = random_density_matrix(rng)
        u = np.kron(random_unitary(2, rng), random_unitary(2, rng))
        rotated = u @ rho @ u.conj().T
        assert abs(concurrence(rotated) - concurrence(rho)) < 1e-10
        assert abs(mutual_information(rotated) - mutual_information(rho)) < 1e-10


def test_formation_from_concurrence():
    assert formation_from_concurrence(0.0) == 0.0
    assert formation_from_concurrence(1.0) == 1.0
    c = 0.6
    expected = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    assert abs(formation_from_concurrence(c) - expected) < 1e-14
    # near the threshold, where h((1 + sqrt(1 - C^2)) / 2) formed naively cancels
    for c in (1e-4, 1e-6, 1e-8):
        want = mp_formation(c)
        assert abs(formation_from_concurrence(c) - want) < 1e-12 * want, c
    with pytest.raises(DomainError):
        formation_from_concurrence(-0.1)
    with pytest.raises(DomainError):
        formation_from_concurrence(1.1)


def test_formation_of_isotropic_thermal_state():
    rho = thermal_state_analytic(ModelParams(gamma=0.0), 1.0)
    c = (math.sinh(1.0) - math.exp(-1.0)) / (math.cosh(1.0) + math.exp(-1.0))
    expected = binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)
    assert abs(entanglement_of_formation(rho) - expected) < 1e-10


def test_report_on_singlet():
    r = report(SINGLET_RHO)
    assert abs(r.total - 2.0) < 1e-12
    assert abs(r.quantum - 1.0) < 1e-12
    assert abs(r.classical - 1.0) < 1e-12
    assert abs(r.concurrence - 1.0) < 1e-12


def test_report_on_classical_mixture():
    # perfectly correlated classical bits: one bit of purely classical
    # correlation and no entanglement
    r = report(CLASSICAL_MIX)
    assert abs(r.total - 1.0) < 1e-12
    assert r.quantum == 0.0
    assert abs(r.classical - 1.0) < 1e-12
    assert r.concurrence < 1e-12


def test_report_on_maximally_mixed_state():
    r = report(np.eye(4, dtype=complex) / 4.0)
    assert abs(r.total) < 1e-12
    assert r.quantum == 0.0
    assert abs(r.classical) < 1e-12


def test_report_split_is_exact_and_consistent():
    rng = np.random.default_rng(47)
    for _ in range(200):
        r = report(random_density_matrix(rng))
        assert r.total - r.quantum == r.classical
        assert r.quantum >= 0.0
        assert 0.0 <= r.concurrence <= 1.0
        if r.concurrence == 0.0:
            assert r.quantum == 0.0
        if r.concurrence > 1e-6:
            assert r.quantum > 0.0
        assert abs(classical_correlation(random_density_matrix(rng))) >= 0.0


def test_separability_reference_points():
    assert not is_separable_ppt(SINGLET_RHO)
    assert is_separable_ppt(CLASSICAL_MIX)
    assert is_separable_ppt(np.eye(4, dtype=complex) / 4.0)
    rng = np.random.default_rng(53)
    product = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
    assert is_separable_ppt(product)


def test_separability_werner_boundary():
    # p |s><s| + (1-p) I/4 is separable exactly for p <= 1/3
    def werner(p):
        return p * SINGLET_RHO + (1.0 - p) * np.eye(4) / 4.0

    assert is_separable_ppt(werner(0.32))
    assert not is_separable_ppt(werner(0.34))


def test_separability_agrees_with_concurrence():
    rng = np.random.default_rng(59)
    for _ in range(300):
        rho = random_density_matrix(rng)
        assert (concurrence(rho) > 1e-9) == (not is_separable_ppt(rho))


def test_random_unitary_properties():
    rng = np.random.default_rng(61)
    for dim in (2, 4, 6):
        u = random_unitary(dim, rng)
        assert np.max(np.abs(u @ u.conj().T - np.eye(dim))) < 1e-12
    same = random_unitary(4, np.random.default_rng(8))
    assert np.array_equal(same, random_unitary(4, np.random.default_rng(8)))


def test_random_density_matrix_properties():
    rng = np.random.default_rng(67)
    for _ in range(20):
        rho = random_density_matrix(rng)
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.linalg.eigvalsh(rho)[0] > 0.0  # full rank almost surely
    same = random_density_matrix(np.random.default_rng(8))
    assert np.array_equal(same, random_density_matrix(np.random.default_rng(8)))


def test_random_ensemble_reconstructs_the_state():
    rng = np.random.default_rng(71)
    for _ in range(30):
        rho = random_density_matrix(rng)
        size = int(rng.integers(4, MAX_ENSEMBLE + 1))
        ensemble = random_ensemble(rho, size, rng)
        assert ensemble.probabilities.shape == (size,)
        assert np.all(ensemble.probabilities >= 0.0)
        assert abs(ensemble.probabilities.sum() - 1.0) < 1e-12
        norms = np.linalg.norm(ensemble.states, axis=1)
        assert np.max(np.abs(norms[ensemble.probabilities > 1e-12] - 1.0)) < 1e-12
        assert np.max(np.abs(ensemble.density_matrix() - rho)) < 1e-10


def test_random_ensemble_size_limits():
    rng = np.random.default_rng(73)
    rho = random_density_matrix(rng)  # full rank
    with pytest.raises(DomainError):
        random_ensemble(rho, 3, rng)
    with pytest.raises(ValueError):
        random_ensemble(rho, MAX_ENSEMBLE + 1, rng)


def test_average_entanglement_of_pure_decompositions():
    # any decomposition of a pure state repeats that state, so the average
    # equals the marginal entropy exactly
    rng = np.random.default_rng(79)
    ensemble = random_ensemble(SINGLET_RHO, 3, rng)
    assert abs(average_entanglement(ensemble) - 1.0) < 1e-12

    lopsided = np.array([math.sqrt(0.8), 0.0, 0.0, math.sqrt(0.2)], dtype=complex)
    rho = np.outer(lopsided, lopsided.conj())
    value = sample_decomposition_average(rho, 3, 50, seed=5)
    assert abs(value - binary_entropy(0.8)) < 1e-12

    # a near-product state, 2 |det A| = 1e-8: its entanglement is 1.4e-15,
    # which a marginal spectrum (1 +- sqrt(1 - C^2)) / 2 rounds to 0
    theta = 0.5 * math.asin(1e-8)
    near_product = np.array([math.cos(theta), 0.0, 0.0, math.sin(theta)], dtype=complex)
    want = mp_formation(2.0 * math.cos(theta) * math.sin(theta))
    single = Ensemble(probabilities=np.array([1.0]), states=near_product[None, :])
    assert abs(average_entanglement(single) - want) < 1e-12 * want
    value = sample_decomposition_average(np.outer(near_product, near_product.conj()), 3, 50, seed=5)
    assert abs(value - want) < 1e-12 * want


def test_eigendecomposition_of_classical_mixture_is_unentangled():
    up_up = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    down_down = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
    ensemble = Ensemble(
        probabilities=np.array([0.5, 0.5]), states=np.vstack([up_up, down_down])
    )
    assert average_entanglement(ensemble) == 0.0


def test_sampled_average_never_undercuts_formation():
    rng = np.random.default_rng(83)
    for seed in range(5):
        rho = random_density_matrix(rng)
        floor = entanglement_of_formation(rho)
        found = sample_decomposition_average(rho, 4, 500, seed=seed)
        assert found >= floor - 1e-9


def test_sampled_average_approaches_formation():
    # a fixed full-rank state whose optimum is nearly reached with
    # rank-sized ensembles and 10^4 draws
    rho = random_density_matrix(np.random.default_rng(6))
    floor = entanglement_of_formation(rho)
    found = sample_decomposition_average(rho, 4, 10000, seed=7)
    assert floor - 1e-9 <= found
    assert found - floor < 0.05


def test_sample_decomposition_argument_checks():
    rho = random_density_matrix(np.random.default_rng(6))
    with pytest.raises(ValueError):
        sample_decomposition_average(rho, 0, 10, seed=1)
    with pytest.raises(ValueError):
        sample_decomposition_average(rho, 4, 0, seed=1)
    with pytest.raises(DomainError):
        sample_decomposition_average(rho, 2, 10, seed=1)
