"""Dense complex linear algebra sized for two-qubit problems.

All operators live in the fixed product basis |uu>, |ud>, |du>, |dd>
(indices 0 through 3, qubit 1 is the left Kronecker factor).  States and
operators are plain complex128 numpy arrays; the helpers here validate the
physical contracts (Hermiticity, unit trace, positivity) rather than
wrapping arrays in a dedicated class.  Every matrix function also takes a
(..., d, d) stack and handles it with one eigensolver call per stage.
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
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] not in dims:
        raise ValueError(
            f"expected a square matrix (or a stack of them) with dimension in {dims}, got shape {m.shape}"
        )
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _hermitian_mask(m: np.ndarray, tol: float) -> np.ndarray:
    return np.abs(m - _adjoint(m)).max(axis=(-2, -1)) <= tol  # NaN entries fail


def _trace(m: np.ndarray) -> np.ndarray:
    return np.asarray(np.einsum("...ii->...", m))


def _member(bad: np.ndarray) -> str:
    """Where the first failing matrix of a stack sits; empty for a single matrix."""
    if bad.ndim == 0:
        return ""
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    return f" (stack member {index[0] if len(index) == 1 else index})"


def is_hermitian(m: np.ndarray) -> bool:
    """True when ``m`` (one matrix or every matrix of a stack) equals its adjoint within HERMITIAN_TOL."""
    return bool(np.all(_hermitian_mask(np.asarray(m, dtype=complex), HERMITIAN_TOL)))


def is_unit_trace(m: np.ndarray) -> bool:
    """True when every trace is 1 within TRACE_TOL (imaginary part included)."""
    return bool(np.all(np.abs(_trace(np.asarray(m, dtype=complex)) - 1.0) <= TRACE_TOL))


def is_psd(m: np.ndarray) -> bool:
    """True when every smallest eigenvalue of Hermitian ``m`` is at least -PSD_TOL."""
    m = np.asarray(m, dtype=complex)
    return bool(np.all(np.linalg.eigvalsh(m)[..., 0] >= -PSD_TOL))


def check_density_matrix(m: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix, or a (..., d, d) stack of them, and return it as a complex array.

    Checks shape (2x2 or 4x4, or exactly ``dim`` when given), Hermiticity,
    unit trace and positive semidefiniteness, each within its tolerance
    (HERMITIAN_TOL, TRACE_TOL and PSD_TOL, all 1e-10).
    A stack costs one eigensolver call.  Raises ValidationError on the first
    failed contract, naming the first failing member of a stack.
    """
    dims = (dim,) if dim is not None else (2, 4)
    m = _as_square(m, dims)
    bad = ~_hermitian_mask(m, HERMITIAN_TOL)
    if bad.any():
        raise ValidationError("density matrix is not Hermitian within tolerance" + _member(bad))
    trace = _trace(m)
    bad = ~(np.abs(trace - 1.0) <= TRACE_TOL)
    if bad.any():
        raise ValidationError(
            f"density matrix trace is {trace[bad].flat[0]:.6g}, expected 1" + _member(bad)
        )
    bad = ~(np.linalg.eigvalsh(m)[..., 0] >= -PSD_TOL)
    if bad.any():
        raise ValidationError(f"density matrix has an eigenvalue below {-PSD_TOL:g}" + _member(bad))
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
    """Full eigendecomposition of a Hermitian matrix, or of a (..., d, d) stack in one call.

    Eigenvalues are real and ascending; eigenvectors form an orthonormal
    set of columns.  The input must be Hermitian within 1e-10.
    """
    m = _as_square(m)
    bad = ~_hermitian_mask(m, HERMITIAN_TOL)
    if bad.any():
        raise ValidationError("matrix is not Hermitian within 1e-10" + _member(bad))
    values, vectors = np.linalg.eigh(m)
    return EigenSystem(values, vectors)


def gibbs(h: np.ndarray, temperature) -> np.ndarray:
    """Thermal state exp(-h/T) / Z built from the spectral decomposition.

    ``h`` may be a (..., 4, 4) stack and ``temperature`` an array; they
    broadcast against each other (one Hamiltonian at many temperatures, or
    a stack at one), with one eigensolver call for the stack.  Boltzmann
    weights are shifted by the ground energy before exponentiating, so the
    construction stays finite at any T > 0.
    """
    check_positive_finite(temperature)
    t = np.asarray(temperature, dtype=float)[..., None]
    values, vectors = hermitian_eig(h)
    weights = np.exp(-(values - values[..., :1]) / t)
    weights /= weights.sum(axis=-1, keepdims=True)
    rho = (vectors * weights[..., None, :]) @ _adjoint(vectors)
    return 0.5 * (rho + _adjoint(rho))


def _partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    blocks = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)  # (row q1, row q2, col q1, col q2)
    return np.einsum("...ikjk->...ij" if keep == 1 else "...kikj->...ij", blocks)


def partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced 2x2 state of qubit ``keep`` (1 or 2) of a two-qubit density matrix (or stack)."""
    if keep not in (1, 2):
        raise ValueError(f"keep must be 1 or 2, got {keep}")
    return _partial_trace(check_density_matrix(rho, 4), keep)


def _partial_transpose(rho: np.ndarray, subsystem: int) -> np.ndarray:
    blocks = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    swapped = blocks.swapaxes(-4, -2) if subsystem == 1 else blocks.swapaxes(-3, -1)
    return swapped.reshape(rho.shape)


def partial_transpose(rho: np.ndarray, subsystem: int) -> np.ndarray:
    """Transpose of one qubit's indices, leaving the other untouched.

    Accepts any Hermitian unit-trace 4x4 matrix, or a stack of them (not
    necessarily positive), so applying it twice returns the original input
    exactly.  The output is Hermitian with the same trace, but positivity
    is not guaranteed.
    """
    if subsystem not in (1, 2):
        raise ValueError(f"subsystem must be 1 or 2, got {subsystem}")
    rho = _as_square(rho, (4,))
    if not is_hermitian(rho):
        raise ValidationError("partial transpose input is not Hermitian within tolerance")
    if not is_unit_trace(rho):
        raise ValidationError("partial transpose input does not have unit trace")
    return _partial_transpose(rho, subsystem)
