import numpy as np
import pytest

from dimercorr.correlations import concurrence, entanglement_of_formation, report, sample_decomposition_average
from dimercorr.domain import DomainError, ValidationError
from dimercorr.matkernel import _marginals, _partial_transpose, check_density_matrix, gibbs
from dimercorr.models import build_hamiltonian

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET_RHO = np.outer(SINGLET, SINGLET.conj())


def rand_rho(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_hermitian(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def test_kron_yy_antidiagonal():
    # at the XY point H = sx sx + sy sy: sy sy's corners -1 cancel sx sx's, its inner +1 entries add
    expected = np.zeros((4, 4), dtype=complex)
    expected[1, 2] = expected[2, 1] = 2.0
    assert np.array_equal(build_hamiltonian(-1.0, 0.0, 0.0), expected)


def test_kron_ordering():
    # qubit 1 is the left Kronecker factor: b1 splits the first index, b2 the second (sz sz is [1, -1, -1, 1])
    assert np.array_equal(np.diag(build_hamiltonian(1.0, 1.0, 0.0)), [2, 0, -2, 0])
    assert np.array_equal(np.diag(build_hamiltonian(1.0, 0.0, 1.0)), [2, -2, 0, 0])


def test_gibbs_rejects_non_hermitian():
    h = np.eye(4, dtype=complex)
    h[0, 1] = 1.0
    with pytest.raises(ValidationError, match=r"^matrix is not Hermitian within 1e-10$"):
        gibbs(h, 1.0)
    stack = np.stack([np.eye(4, dtype=complex), h, np.eye(4, dtype=complex)])
    with pytest.raises(ValidationError, match=r"^matrix is not Hermitian within 1e-10 \(stack member 1\)$"):
        gibbs(stack, 1.0)


def test_gibbs_matches_hyperbolic_form():
    # at gamma=0, T=1 the thermal state has corners eta/e and a
    # cosh/sinh central block with eta = 1 / (2 (cosh 1 + 1/e))
    h = np.array(
        [
            [0.5, 0, 0, 0],
            [0, -0.5, 1.0, 0],
            [0, 1.0, -0.5, 0],
            [0, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    eta = 1.0 / (2.0 * (np.cosh(1.0) + np.exp(-1.0)))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[3, 3] = eta * np.exp(-1.0)
    expected[1, 1] = expected[2, 2] = eta * np.cosh(1.0)
    expected[1, 2] = expected[2, 1] = -eta * np.sinh(1.0)
    assert np.max(np.abs(gibbs(h, 1.0) - expected)) < 1e-12


def test_gibbs_high_temperature_is_maximally_mixed():
    rng = np.random.default_rng(5)
    for _ in range(10):
        rho = gibbs(rand_hermitian(rng), 1e6)
        assert np.max(np.abs(rho - np.eye(4) / 4.0)) < 1e-5


def test_gibbs_low_temperature_projects_on_ground_state():
    h = np.array(
        [
            [0.5, 0, 0, 0],
            [0, -0.5, 1.0, 0],
            [0, 1.0, -0.5, 0],
            [0, 0, 0, 0.5],
        ],
        dtype=complex,
    )
    assert np.max(np.abs(gibbs(h, 0.01) - SINGLET_RHO)) < 1e-10


def test_gibbs_contract():
    rng = np.random.default_rng(21)
    for _ in range(50):
        h = rand_hermitian(rng)
        t = float(rng.uniform(0.05, 10.0))
        rho = gibbs(h, t)
        check_density_matrix(rho)  # Hermitian, unit trace and positive, each within 1e-10
        assert abs(np.trace(rho).real - 1.0) < 1e-12
        assert np.max(np.abs(rho @ h - h @ rho)) < 1e-10


def test_gibbs_takes_4x4_matrices_only():
    with pytest.raises(ValueError, match="4x4"):
        gibbs(np.diag([1.0, -1.0]), 1.0)


def test_gibbs_rejects_nonpositive_temperature():
    with pytest.raises(DomainError):
        gibbs(np.eye(4, dtype=complex), 0.0)
    with pytest.raises(DomainError):
        gibbs(np.eye(4, dtype=complex), -1.0)


def test_partial_trace_of_singlet_is_maximally_mixed():
    assert np.max(np.abs(_marginals(SINGLET_RHO) - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_of_products():
    rng = np.random.default_rng(33)
    for _ in range(100):
        a, b = rand_rho(rng, 2), rand_rho(rng, 2)
        product = np.kron(a, b)
        assert np.max(np.abs(_marginals(product) - [a, b])) < 1e-12


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rho = rand_rho(rng)
        assert np.array_equal(_partial_transpose(_partial_transpose(rho)), rho)


def test_partial_transpose_of_singlet_has_minus_half_eigenvalue():
    eigenvalues = np.linalg.eigvalsh(_partial_transpose(SINGLET_RHO))
    assert abs(eigenvalues[0] - (-0.5)) < 1e-12


def test_partial_transpose_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(29)
    for _ in range(100):
        rho = rand_rho(rng)
        pt = _partial_transpose(rho)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-10
        assert abs(np.trace(pt).real - 1.0) < 1e-12


def test_partial_transpose_of_products_stays_positive():
    rng = np.random.default_rng(41)
    for _ in range(100):
        product = np.kron(rand_rho(rng, 2), rand_rho(rng, 2))
        assert np.linalg.eigvalsh(_partial_transpose(product))[0] >= -1e-10


# The dense entry points that validate a state: each must reject a bad one
# with check_density_matrix's own message.
DENSITY_ENTRY_POINTS = (
    check_density_matrix,
    report,
    concurrence,
    entanglement_of_formation,
    lambda rho: sample_decomposition_average(rho, 10, seed=1),
)


def test_check_density_matrix_rejects_bad_input():
    good = np.eye(4, dtype=complex) / 4.0
    assert np.array_equal(check_density_matrix(good), good)
    skewed = good.copy()
    skewed[0, 1] = 0.1j  # its mirror entry stays 0
    negative = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    rejected = (
        (np.triu(np.ones((4, 4))) / 4.0, "density matrix is not Hermitian within tolerance"),
        (np.eye(4, dtype=complex), "density matrix trace is 4, expected 1"),
        (negative, "density matrix has an eigenvalue below -1e-10"),
        (skewed, "density matrix is not Hermitian within tolerance"),
        (0.5 * good, "density matrix trace is 0.5, expected 1"),
        (np.stack([good, negative, good]), "density matrix has an eigenvalue below -1e-10 (stack member 1)"),
    )
    for fn in DENSITY_ENTRY_POINTS:
        for bad, message in rejected:
            with pytest.raises(ValidationError) as caught:
                fn(bad)
            assert str(caught.value) == message
        for wrong_shape in (np.eye(3, dtype=complex) / 3.0, np.eye(2) / 2.0, np.full(4, 0.25)):
            with pytest.raises(ValueError, match="expected a 4x4 matrix"):
                fn(wrong_shape)
