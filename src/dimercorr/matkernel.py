"""Dense complex linear algebra sized for two-qubit problems.

All operators live in the fixed product basis |uu>, |ud>, |du>, |dd>
(indices 0 through 3, qubit 1 is the left Kronecker factor).  States and
operators are plain complex128 numpy arrays; the helpers here validate the
physical contracts (Hermiticity, unit trace, positivity) rather than
wrapping arrays in a dedicated class.  Every matrix is 4x4: each function
also takes a (..., 4, 4) stack and handles it with one eigensolver call per
stage.
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
]

HERMITIAN_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10


def _as_square(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise ValueError(f"expected a 4x4 matrix (or a stack of them), got shape {m.shape}")
    return m


def _adjoint(m: np.ndarray) -> np.ndarray:
    return m.conj().swapaxes(-1, -2)


def _hermitian_mask(m: np.ndarray) -> np.ndarray:
    return np.abs(m - _adjoint(m)).max(axis=(-2, -1)) <= HERMITIAN_TOL  # NaN entries fail


def _member(bad: np.ndarray) -> str:
    """Where the first failing matrix of a stack sits; empty for a single matrix."""
    if bad.ndim == 0:
        return ""
    index = tuple(int(i) for i in np.argwhere(bad)[0])
    return f" (stack member {index[0] if len(index) == 1 else index})"


def _density_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """check_density_matrix, returning (m, values, vectors) with the eigh its positivity test reads."""
    m = _as_square(m)
    bad = ~_hermitian_mask(m)
    if bad.any():
        raise ValidationError("density matrix is not Hermitian within tolerance" + _member(bad))
    trace = np.asarray(np.einsum("...ii->...", m))
    bad = ~(np.abs(trace - 1.0) <= TRACE_TOL)
    if bad.any():
        raise ValidationError(f"density matrix trace is {trace.real[bad].flat[0]:.6g}, expected 1" + _member(bad))
    values, vectors = np.linalg.eigh(m)
    bad = ~(values[..., 0] >= -PSD_TOL)
    if bad.any():
        raise ValidationError(f"density matrix has an eigenvalue below {-PSD_TOL:g}" + _member(bad))
    return m, values, vectors


def check_density_matrix(m: np.ndarray) -> np.ndarray:
    """Validate a 4x4 density matrix, or a (..., 4, 4) stack of them, and return it as a complex array.

    Checks the 4x4 shape (any other is a ValueError), Hermiticity, unit
    trace and positive semidefiniteness, each within its tolerance
    (HERMITIAN_TOL, TRACE_TOL and PSD_TOL, all 1e-10).
    A stack costs one eigensolver call.  Raises ValidationError on the first
    failed contract, naming the first failing member of a stack.
    """
    return _density_eigh(m)[0]


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
    bad = ~_hermitian_mask(h)
    if bad.any():
        raise ValidationError("matrix is not Hermitian within 1e-10" + _member(bad))
    values, vectors = np.linalg.eigh(h)
    weights = np.exp(-(values - values[..., :1]) / t)
    weights /= weights.sum(axis=-1, keepdims=True)
    rho = (vectors * weights[..., None, :]) @ _adjoint(vectors)
    return 0.5 * (rho + _adjoint(rho))


def _marginals(rho: np.ndarray) -> np.ndarray:
    """Reduced 2x2 states of qubits 1 and 2 of a validated two-qubit state (or stack), as a (2, ..., 2, 2) stack."""
    blocks = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)  # (row q1, row q2, col q1, col q2)
    return np.stack([np.einsum("...ikjk->...ij", blocks), np.einsum("...kikj->...ij", blocks)])


def _partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose of qubit 2's indices of a two-qubit state (or stack), leaving qubit 1's untouched."""
    blocks = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)
    return blocks.swapaxes(-3, -1).reshape(rho.shape)
