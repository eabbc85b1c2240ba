"""Dense complex linear algebra sized for two-qubit problems.

All operators live in the fixed product basis |uu>, |ud>, |du>, |dd>
(indices 0 through 3, qubit 1 is the left Kronecker factor).  States and
operators are plain complex128 numpy arrays; the helpers here validate the
physical contracts (Hermiticity, unit trace, positivity) rather than
wrapping arrays in a dedicated class.  Every matrix function also takes a
(..., d, d) stack and handles it with one eigensolver call per stage.
"""

from __future__ import annotations

import numpy as np

from .domain import ValidationError, check_positive_finite

__all__ = [
    "HERMITIAN_TOL",
    "PSD_TOL",
    "TRACE_TOL",
    "check_density_matrix",
    "gibbs",
    "kron",
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


def _member(bad: np.ndarray) -> str:
    """Where the first failing matrix of a stack sits; empty for a single matrix."""
    if bad.ndim == 0:
        return ""
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    return f" (stack member {index[0] if len(index) == 1 else index})"


def _check_hermitian_unit_trace(m: np.ndarray, what: str) -> None:
    """Raise ValidationError, naming ``what``, unless every matrix of ``m`` is Hermitian with unit trace."""
    bad = ~_hermitian_mask(m, HERMITIAN_TOL)
    if bad.any():
        raise ValidationError(f"{what} is not Hermitian within tolerance" + _member(bad))
    trace = np.asarray(np.einsum("...ii->...", m))
    bad = ~(np.abs(trace - 1.0) <= TRACE_TOL)
    if bad.any():
        raise ValidationError(f"{what} trace is {trace.real[bad].flat[0]:.6g}, expected 1" + _member(bad))


def _density_eigh(m: np.ndarray, dim: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """check_density_matrix, returning (m, values, vectors) with the eigh its positivity test reads."""
    m = _as_square(m, (dim,) if dim is not None else (2, 4))
    _check_hermitian_unit_trace(m, "density matrix")
    values, vectors = np.linalg.eigh(m)
    bad = ~(values[..., 0] >= -PSD_TOL)
    if bad.any():
        raise ValidationError(f"density matrix has an eigenvalue below {-PSD_TOL:g}" + _member(bad))
    return m, values, vectors


def check_density_matrix(m: np.ndarray, dim: int | None = None) -> np.ndarray:
    """Validate a density matrix, or a (..., d, d) stack of them, and return it as a complex array.

    Checks shape (2x2 or 4x4, or exactly ``dim`` when given), Hermiticity,
    unit trace and positive semidefiniteness, each within its tolerance
    (HERMITIAN_TOL, TRACE_TOL and PSD_TOL, all 1e-10).
    A stack costs one eigensolver call.  Raises ValidationError on the first
    failed contract, naming the first failing member of a stack.
    """
    return _density_eigh(m, dim)[0]


def gibbs(h: np.ndarray, temperature) -> np.ndarray:
    """Thermal state exp(-h/T) / Z built from the spectral decomposition.

    ``h`` may be a (..., 4, 4) stack and ``temperature`` an array; they
    broadcast against each other (one Hamiltonian at many temperatures, or
    a stack at one), with one eigensolver call for the stack.  Boltzmann
    weights are shifted by the ground energy before exponentiating, so the
    construction stays finite at any T > 0.  ``h`` must be Hermitian within
    1e-10; ValidationError names the first failing member of a stack.
    """
    t = np.asarray(temperature, dtype=float)
    check_positive_finite(t.ravel().tolist())
    t = t[..., None]
    h = _as_square(h)
    bad = ~_hermitian_mask(h, HERMITIAN_TOL)
    if bad.any():
        raise ValidationError("matrix is not Hermitian within 1e-10" + _member(bad))
    values, vectors = np.linalg.eigh(h)
    weights = np.exp(-(values - values[..., :1]) / t)
    weights /= weights.sum(axis=-1, keepdims=True)
    rho = (vectors * weights[..., None, :]) @ _adjoint(vectors)
    return 0.5 * (rho + _adjoint(rho))


def _partial_trace(rho: np.ndarray, keep: int) -> np.ndarray:
    """Reduced 2x2 state of qubit ``keep`` (1 or 2) of a validated two-qubit state (or stack)."""
    blocks = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)  # (row q1, row q2, col q1, col q2)
    return np.einsum("...ikjk->...ij" if keep == 1 else "...kikj->...ij", blocks)


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
    _check_hermitian_unit_trace(rho, "partial transpose input")
    return _partial_transpose(rho, subsystem)
