"""Total, quantum, and classical correlations of a two-qubit state.

Total correlation is the quantum mutual information S(1) + S(2) - S(12),
quantum correlation is the entanglement of formation obtained from the
concurrence, and classical correlation is their difference.  All entropies
are in bits (base-2 logarithms).  Two independent checks live here as
well: the positive-partial-transpose separability test and a sampler over
random pure-state decompositions whose ensemble-average entanglement can
never drop below the entanglement of formation.

Every state function takes one 4x4 state or a (..., 4, 4) stack; a stack
makes one eigensolver call per stage and returns arrays where a single
state returns a float or a bool.  Public functions validate their input
once; the private helpers behind them trust it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError
from .matkernel import (
    _partial_trace,
    _partial_transpose,
    check_density_matrix,
    kron,
    pauli,
)

__all__ = [
    "CorrelationReport",
    "Ensemble",
    "average_entanglement",
    "classical_correlation",
    "concurrence",
    "entanglement_of_formation",
    "formation_from_concurrence",
    "is_separable_ppt",
    "mutual_information",
    "random_density_matrix",
    "random_ensemble",
    "random_unitary",
    "report",
    "sample_decomposition_average",
    "von_neumann_entropy",
]

_SIGMA_YY = kron(pauli("y"), pauli("y")).real  # entries are +-1 on the antidiagonal

MAX_ENSEMBLE = 8
_BLOCK = 2048  # decompositions drawn per block in sample_decomposition_average


def _scalar(x):
    """A 0-d result as a Python float or bool; arrays from stacks pass through."""
    return x.item() if np.ndim(x) == 0 else x


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x log2 x elementwise, with 0 log 0 = 0 (and x <= 0 counting as 0)."""
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _formation(c: np.ndarray) -> np.ndarray:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) of C in [0, 1], elementwise.

    h is taken at its smaller argument (1 - sqrt(1 - C^2)) / 2, written as
    C^2 / (2 (1 + sqrt((1 - C)(1 + C)))), and through log1p, so that a small
    C (a state near its threshold) loses no digits to cancellation.
    """
    root = np.sqrt((1.0 - c) * (1.0 + c))
    small = c * c / (2.0 * (1.0 + root))
    # written as -a - b, since -(a + b) is -0.0 where C = 0
    return -_xlog2x(small) - (1.0 - small) * np.log1p(-small) / math.log(2.0)


def _entropy_bits(eigenvalues: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis (0 log 0 = 0, p <= 0 counts as 0), clamped to >= 0."""
    return np.maximum(0.0, -_xlog2x(eigenvalues).sum(axis=-1))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -tr(rho log2 rho) of a 2x2 or 4x4 density matrix (or a stack), in bits.

    Eigenvalues in [-1e-10, 0) count as zero (0 log 0 = 0); anything more
    negative is a validation error.  The result is clamped to >= 0.
    """
    rho = check_density_matrix(rho)
    return _scalar(_entropy_bits(np.linalg.eigvalsh(rho)))


def _mutual_information(rho: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """S(1) + S(2) - S(12) of validated states with eigenvalues ``spectrum``."""
    marginals = np.stack([_partial_trace(rho, 1), _partial_trace(rho, 2)])
    s1, s2 = _entropy_bits(np.linalg.eigvalsh(marginals))
    return s1 + s2 - _entropy_bits(spectrum)


def mutual_information(rho: np.ndarray) -> float:
    """Total correlation S(1) + S(2) - S(12) of a two-qubit state (or a stack), in bits."""
    rho = check_density_matrix(rho, 4)
    return _scalar(_mutual_information(rho, np.linalg.eigvalsh(rho)))


def _concurrence(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Wootters concurrence of validated states with eigenpairs (values, vectors).

    With rho = X X^dagger, X = V sqrt(Lambda), the decreasing square roots
    l_i of the spectrum of rho (sy x sy) rho* (sy x sy) are the singular
    values of the complex-symmetric tau = X^T (sy x sy) X.  Taking them
    directly keeps a nearly singular state from losing half its digits to
    a square root of eigenvalue noise.
    """
    x = vectors * np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    lam = np.linalg.svd(x.swapaxes(-1, -2) @ _SIGMA_YY @ x, compute_uv=False)  # descending
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def concurrence(rho: np.ndarray) -> float:
    """Concurrence C(rho) = max{0, l1 - l2 - l3 - l4} of a state, or an array for a stack.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), taken as singular values (see _concurrence).
    """
    rho = check_density_matrix(rho, 4)
    return _scalar(_concurrence(*np.linalg.eigh(rho)))


def formation_from_concurrence(c):
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) for C in [0, 1] (a float or an array)."""
    c = np.asarray(c, dtype=float)
    bad = ~((c >= 0.0) & (c <= 1.0))
    if bad.any():
        raise DomainError(f"concurrence must lie in [0, 1], got {c[bad].flat[0]}")
    return _scalar(_formation(c))


def entanglement_of_formation(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit state (or a stack), in bits."""
    return _scalar(_formation(concurrence(rho)))


def classical_correlation(rho: np.ndarray) -> float:
    """Classical correlation: mutual information minus entanglement of formation."""
    return mutual_information(rho) - entanglement_of_formation(rho)


@dataclass(frozen=True)
class CorrelationReport:
    """All four correlation quantities of one state, in bits (arrays for a stack of states)."""

    total: float
    quantum: float
    classical: float
    concurrence: float


def report(rho: np.ndarray) -> CorrelationReport:
    """Bundle total, quantum, and classical correlations plus concurrence.

    The state is validated once and decomposed once; the concurrence is
    reused for the quantum part, and classical = total - quantum holds
    exactly by construction.  For a (..., 4, 4) stack every field is an array.
    """
    rho = check_density_matrix(rho, 4)
    values, vectors = np.linalg.eigh(rho)
    total = _mutual_information(rho, values)
    c = _concurrence(values, vectors)
    quantum = _formation(c)
    return CorrelationReport(*(_scalar(v) for v in (total, quantum, total - quantum, c)))


def is_separable_ppt(rho: np.ndarray):
    """Peres-Horodecki test, exact for two qubits; a bool, or a bool array for a stack.

    True iff the partial transpose has no eigenvalue below -1e-10.
    """
    return _scalar(_separable_ppt(check_density_matrix(rho, 4)))


def _separable_ppt(rho: np.ndarray) -> np.ndarray:
    """is_separable_ppt of validated states, as a bool array."""
    return np.linalg.eigvalsh(_partial_transpose(rho, 2))[..., 0] >= -1e-10


# --- random states and pure-state decompositions ---------------------------


def _orthonormal_columns(z: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` columns of the Q factor of z = QR (per matrix of a stack), R with positive diagonal.

    Gram-Schmidt with one reorthogonalisation pass, which keeps the columns
    orthonormal to roundoff; this Q is unique, so it is the Q of a QR
    factorisation with its phases fixed.
    """
    q = np.empty(z.shape[:-1] + (k,), dtype=complex)
    for i in range(k):
        v = z[..., i]
        for _ in range(2):
            coeffs = np.einsum("...ji,...j->...i", q[..., :i].conj(), v)
            v = v - np.einsum("...ji,...i->...j", q[..., :i], coeffs)
        q[..., i] = v / np.sqrt(np.einsum("...j,...j->...", v, v.conj()).real)[..., None]
    return q


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary: the phase-fixed Q factor of a complex Ginibre matrix."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return _orthonormal_columns(z / math.sqrt(2.0), dim)


def random_density_matrix(rng: np.random.Generator, dim: int = 4, size: int | None = None) -> np.ndarray:
    """Full-rank random density matrix G G† / tr(G G†), G complex Gaussian.

    With ``size``, a (size, dim, dim) stack drawn from ``rng`` exactly as
    ``size`` single calls would draw it.
    """
    lead = () if size is None else (size,)
    z = rng.standard_normal((*lead, 2, dim, dim))
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]


@dataclass(frozen=True)
class Ensemble:
    """A pure-state decomposition rho = sum_i p_i |psi_i><psi_i|."""

    probabilities: np.ndarray  # shape (m,), nonnegative, sums to 1
    states: np.ndarray  # shape (m, 4), rows are normalized pure states

    def density_matrix(self) -> np.ndarray:
        weighted = self.states * self.probabilities[:, None]
        return weighted.T @ self.states.conj()


def _weighted_eigenrows(rho: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Rows sqrt(mu_i) e_i^T over the support of each validated state, and the largest rank.

    Support eigenpairs (mu_i > 1e-10) come first, in ascending order, and
    the rest are zero rows, so a stack of states of different rank shares
    one layout.  Raises ValueError unless 1 <= ``size`` <= MAX_ENSEMBLE, and
    DomainError when ``size`` is below a state's rank.
    """
    if not 1 <= size <= MAX_ENSEMBLE:
        raise ValueError(f"ensemble size must lie in 1..{MAX_ENSEMBLE}, got {size}")
    values, vectors = np.linalg.eigh(rho)
    kept = values > 1e-10
    rank = int(kept.sum(axis=-1).max())
    if size < rank:
        raise DomainError(f"ensemble size {size} is below the state rank {rank}")
    order = np.argsort(~kept, axis=-1, kind="stable")
    weights = np.sqrt(np.take_along_axis(np.where(kept, values, 0.0), order, axis=-1))
    columns = np.take_along_axis(vectors, order[..., None, :], axis=-1) * weights[..., None, :]
    return columns.swapaxes(-1, -2)[..., :rank, :], rank


def random_ensemble(rho: np.ndarray, size: int, rng: np.random.Generator) -> Ensemble:
    """Random ``size``-member pure-state decomposition of ``rho``.

    Members are built by applying the first rank(rho) columns of a Haar
    unitary to the weighted eigenvectors, which exhausts every
    decomposition of the given size.  ``size`` must be at least rank(rho).
    """
    rho = check_density_matrix(rho, 4)
    basis, rank = _weighted_eigenrows(rho, size)
    unnormalized = random_unitary(size, rng)[:, :rank] @ basis  # row j is the j-th member
    probabilities = np.einsum("ij,ij->i", unnormalized, unnormalized.conj()).real
    norms = np.sqrt(np.where(probabilities > 0, probabilities, 1.0))
    return Ensemble(probabilities=probabilities, states=unnormalized / norms[:, None])


def _pure_entanglement(states: np.ndarray) -> np.ndarray:
    """Entropy of the qubit-1 marginal for each row of normalized pure states.

    A pure two-qubit state with amplitude matrix A (reshaped 2x2) has
    concurrence 2 |det A|, and its marginal entropy is the entanglement of
    formation of that concurrence.
    """
    amps = states.reshape(-1, 2, 2)
    dets = np.abs(amps[:, 0, 0] * amps[:, 1, 1] - amps[:, 0, 1] * amps[:, 1, 0])
    return _formation(np.minimum(2.0 * dets, 1.0))


def average_entanglement(ensemble: Ensemble) -> float:
    """Probability-weighted mean pure-state entanglement of an ensemble."""
    return float(ensemble.probabilities @ _pure_entanglement(ensemble.states))


def sample_decomposition_average(
    rho: np.ndarray,
    ensemble_size: int,
    samples: int,
    seed: int,
) -> float:
    """Minimum ensemble-average entanglement over random decompositions.

    Draws ``samples`` random ``ensemble_size``-member decompositions of
    ``rho`` and returns the smallest average entanglement found.  Since the
    entanglement of formation is the infimum over all decompositions, the
    result can never fall below it (up to roundoff); the gap shrinks as
    ``samples`` grows.  For a (..., 4, 4) stack the result is an array, and
    every state is decomposed with the same Haar draws (the same ``seed``).
    """
    rho = check_density_matrix(rho, 4)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    basis, rank = _weighted_eigenrows(rho, ensemble_size)
    rows = basis.reshape(-1, rank, 4)
    rng = np.random.default_rng(seed)

    best = np.full(len(rows), np.inf)
    for start in range(0, samples, _BLOCK):
        block = min(_BLOCK, samples - start)
        shape = (block, ensemble_size, ensemble_size)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        isometries = _orthonormal_columns(z, rank)
        for i, state_rows in enumerate(rows):  # one state at a time keeps the block's arrays small
            members = isometries @ state_rows  # (block, m, 4)
            probs = np.einsum("bmj,bmj->bm", members, members.conj()).real
            norms = np.sqrt(np.where(probs > 0, probs, 1.0))
            flat = (members / norms[:, :, None]).reshape(-1, 4)
            entanglements = _pure_entanglement(flat).reshape(block, ensemble_size)
            averages = np.einsum("bm,bm->b", probs, entanglements)
            best[i] = min(best[i], averages.min())
    return _scalar(best.reshape(rho.shape[:-2]))
