import numpy as np
import pytest

from dimercorr.correlations import concurrence, entanglement_of_formation, report, sample_decomposition_average
from dimercorr.domain import DomainError, ValidationError
from dimercorr.matkernel import (
    _partial_trace,
    check_density_matrix,
    gibbs,
    kron,
    partial_transpose,
    pauli,
)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
SINGLET_RHO = np.outer(SINGLET, SINGLET.conj())


def rand_rho(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def rand_hermitian(rng, dim=4):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return g + g.conj().T


def test_pauli_matrices():
    assert np.array_equal(pauli("x"), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(pauli("y"), np.array([[0, -1j], [1j, 0]], dtype=complex))
    assert np.array_equal(pauli("z"), np.array([[1, 0], [0, -1]], dtype=complex))


def test_pauli_algebra():
    for axis in "xyz":
        assert np.allclose(pauli(axis) @ pauli(axis), np.eye(2))
    assert np.allclose(pauli("x") @ pauli("y"), 1j * pauli("z"))


def test_pauli_unknown_axis():
    with pytest.raises(ValueError):
        pauli("w")


def test_kron_yy_antidiagonal():
    # hand expansion of sigma_y x sigma_y
    expected = np.array(
        [
            [0, 0, 0, -1],
            [0, 0, 1, 0],
            [0, 1, 0, 0],
            [-1, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert np.array_equal(kron(pauli("y"), pauli("y")), expected)


def test_kron_ordering():
    # qubit 1 is the left factor: (a x 1)|q1 q2> acts on the first index
    sz = pauli("z")
    assert np.array_equal(np.diag(kron(sz, np.eye(2))).real, [1, 1, -1, -1])
    assert np.array_equal(np.diag(kron(np.eye(2), sz)).real, [1, -1, 1, -1])


def test_kron_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        kron(np.eye(2), np.eye(4))


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


def test_gibbs_rejects_nonpositive_temperature():
    with pytest.raises(DomainError):
        gibbs(np.eye(4, dtype=complex), 0.0)
    with pytest.raises(DomainError):
        gibbs(np.eye(4, dtype=complex), -1.0)


def test_partial_trace_of_singlet_is_maximally_mixed():
    for keep in (1, 2):
        assert np.max(np.abs(_partial_trace(SINGLET_RHO, keep) - np.eye(2) / 2.0)) < 1e-12


def test_partial_trace_of_products():
    rng = np.random.default_rng(33)
    for _ in range(100):
        a, b = rand_rho(rng, 2), rand_rho(rng, 2)
        product = np.kron(a, b)
        assert np.max(np.abs(_partial_trace(product, 1) - a)) < 1e-12
        assert np.max(np.abs(_partial_trace(product, 2) - b)) < 1e-12


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rho = rand_rho(rng)
        for sub in (1, 2):
            assert np.array_equal(partial_transpose(partial_transpose(rho, sub), sub), rho)


def test_partial_transpose_of_singlet_has_minus_half_eigenvalue():
    for sub in (1, 2):
        eigenvalues = np.linalg.eigvalsh(partial_transpose(SINGLET_RHO, sub))
        assert abs(eigenvalues[0] - (-0.5)) < 1e-12


def test_partial_transpose_preserves_hermiticity_and_trace():
    rng = np.random.default_rng(29)
    for _ in range(100):
        rho = rand_rho(rng)
        pt = partial_transpose(rho, 2)
        assert np.max(np.abs(pt - pt.conj().T)) <= 1e-10
        assert abs(np.trace(pt).real - 1.0) < 1e-12


def test_partial_transpose_of_products_stays_positive():
    rng = np.random.default_rng(41)
    for _ in range(100):
        product = np.kron(rand_rho(rng, 2), rand_rho(rng, 2))
        assert np.linalg.eigvalsh(partial_transpose(product, 2))[0] >= -1e-10


def test_partial_transpose_input_contract():
    # the input must be Hermitian with unit trace, but need not be positive
    with pytest.raises(ValidationError):
        partial_transpose(np.triu(np.ones((4, 4))) / 4.0, 2)  # trace 1, not Hermitian
    with pytest.raises(ValidationError):
        partial_transpose(np.eye(4), 2)  # Hermitian, trace 4
    pt = partial_transpose(SINGLET_RHO, 2)
    assert np.linalg.eigvalsh(pt)[0] < -0.4
    for sub in (1, 2):
        assert np.array_equal(partial_transpose(partial_transpose(pt, sub), sub), pt)


# The dense entry points that validate a state: each must reject a bad one
# with check_density_matrix's own message.
DENSITY_ENTRY_POINTS = (
    check_density_matrix,
    report,
    concurrence,
    entanglement_of_formation,
    lambda rho: sample_decomposition_average(rho, 4, 10, seed=1),
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
        with pytest.raises(ValueError):
            fn(np.eye(3, dtype=complex) / 3.0)
