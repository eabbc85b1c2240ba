"""Dense complex linear algebra sized for two-qubit problems.

All operators live in the fixed product basis |uu>, |ud>, |du>, |dd>
(indices 0 through 3, qubit 1 is the left Kronecker factor).  States and
operators are plain complex128 numpy arrays; the helpers here validate the
physical contracts (Hermiticity, unit trace, positivity) rather than
wrapping arrays in a dedicated class.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .exceptions import DomainError, ValidationError

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "EigenSystem",
    "check_density_matrix",
    "check_positive_finite",
    "gibbs",
    "hermitian_eig",
    "is_hermitian",
    "is_psd",
    "is_unit_trace",
    "kron",
    "partial_trace",
    "partial_transpose",
    "pauli",
]

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10

_PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Pauli matrix for ``axis`` in {"x", "y", "z"}; spin-up is basis index 0."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}") from None


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two single-qubit operators.

    The result indexes the pair as 2 * (qubit-1 state) + (qubit-2 state),
    so ``a`` acts on qubit 1 and ``b`` on qubit 2.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise ValueError(
            f"kron expects two 2x2 operators, got shapes {a.shape} and {b.shape}"
        )
    return np.kron(a, b)


def _as_square(m: np.ndarray, dims: tuple[int, ...] = (2, 4)) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] not in dims:
        raise ValueError(f"expected a square matrix with dimension in {dims}, got shape {m.shape}")
    return m


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    """True when ``m`` equals its conjugate transpose entrywise within ``tol``."""
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unit_trace(m: np.ndarray, tol: float = TRACE_TOL) -> bool:
    """True when trace(m) is 1 within ``tol`` (imaginary part included)."""
    return bool(abs(np.trace(np.asarray(m, dtype=complex)) - 1.0) <= tol)


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool:
    """True when the smallest eigenvalue of Hermitian ``m`` is at least ``-tol``."""
    m = np.asarray(m, dtype=complex)
    return bool(np.linalg.eigvalsh(m)[0] >= -tol)


def check_density_matrix(
    m: np.ndarray,
    dim: int | None = None,
    *,
    hermitian_tol: float = HERMITIAN_TOL,
    trace_tol: float = TRACE_TOL,
    psd_tol: float = PSD_TOL,
) -> np.ndarray:
    """Validate a density matrix and return it as a complex array.

    Checks shape (2x2 or 4x4, or exactly ``dim`` when given), Hermiticity,
    unit trace and positive semidefiniteness, each within its tolerance.
    Raises ValidationError on the first failed contract.
    """
    dims = (dim,) if dim is not None else (2, 4)
    m = _as_square(m, dims)
    if not is_hermitian(m, hermitian_tol):
        raise ValidationError("density matrix is not Hermitian within tolerance")
    if not is_unit_trace(m, trace_tol):
        raise ValidationError(f"density matrix trace is {np.trace(m):.6g}, expected 1")
    if not is_psd(m, psd_tol):
        raise ValidationError("density matrix has an eigenvalue below -1e-10")
    return m


def check_positive_finite(value, name: str = "temperature") -> None:
    """Raise DomainError unless every entry of ``value`` is finite and positive.

    Works on scalars and arrays alike; NaN and +-inf are rejected, so they
    never reach an exponent or an eigensolver.
    """
    v = np.asarray(value, dtype=float)
    bad = ~(np.isfinite(v) & (v > 0.0))
    if bad.any():
        raise DomainError(f"{name} must be positive and finite, got {v[bad].flat[0]}")


class EigenSystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""

    values: np.ndarray
    vectors: np.ndarray  # column k pairs with values[k]


def hermitian_eig(m: np.ndarray) -> EigenSystem:
    """Full eigendecomposition of a Hermitian matrix.

    Eigenvalues are real and ascending; eigenvectors form an orthonormal
    set of columns.  The input must be Hermitian within 1e-10.
    """
    m = _as_square(m)
    if not is_hermitian(m):
        raise ValidationError("matrix is not Hermitian within 1e-10")
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(values, vectors)


def gibbs(h: np.ndarray, temperature: float) -> np.ndarray:
    """Thermal state exp(-h/T) / Z built from the spectral decomposition.

    Boltzmann weights are shifted by the ground energy before
    exponentiating, so the construction stays finite at any T > 0.
    """
    check_positive_finite(temperature)
    values, vectors = hermitian_eig(h)
    weights = np.exp(-(values - values[0]) / temperature)
    weights /= weights.sum()
    rho = (vectors * weights) @ vectors.conj().T
    return 0.5 * (rho + rho.conj().T)


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced 2x2 state of qubit ``keep`` (1 or 2) of a two-qubit density matrix."""
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep}")
    rho = check_density_matrix(rho, 4)
    blocks = rho.reshape(2, 2, 2, 2)  # axes: (row q1, row q2, col q1, col q2)
    if keep == 1:
        return np.einsum("ikjk->ij", blocks)
    return np.einsum("kikj->ij", blocks)


def partial_transpose(rho: np.ndarray, subsystem: int) -> np.ndarray:
    """Transpose of one qubit's indices, leaving the other untouched.

    Accepts any Hermitian unit-trace 4x4 matrix (not necessarily positive),
    so applying it twice returns the original input exactly.  The output is
    Hermitian with the same trace, but positivity is not guaranteed.
    """
    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    rho = _as_square(rho, (4,))
    if not is_hermitian(rho):
        raise ValidationError("partial transpose input is not Hermitian within tolerance")
    if not is_unit_trace(rho):
        raise ValidationError("partial transpose input does not have unit trace")
    blocks = rho.reshape(2, 2, 2, 2)
    if subsystem == 1:
        swapped = blocks.transpose(2, 1, 0, 3)
    else:
        swapped = blocks.transpose(0, 3, 2, 1)
    return swapped.reshape(4, 4)
