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
once and decompose each state once; the private helpers behind them trust it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .matkernel import _density_eigh, _marginals, _partial_transpose, check_density_matrix

__all__ = [
    "CorrelationReport",
    "concurrence",
    "entanglement_of_formation",
    "is_separable_ppt",
    "random_density_matrix",
    "report",
    "sample_decomposition_average",
]

# sy x sy is the antidiagonal matrix with entries -1, 1, 1, -1: as a right
# factor it reverses a row's entries and flips the sign of the outer two
_SIGMA_YY_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0])

_MEMBERS = 4  # per decomposition, as in Wootters' constructive one (PRL 80, 2245 (1998)); no rank exceeds it
_BLOCK = 2048  # decompositions drawn per block in sample_decomposition_average
_SUB_BATCH = 256  # decompositions orthonormalised and evaluated at once


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


def _mutual_information(rho: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """S(1) + S(2) - S(12) of validated states with eigenvalues ``spectrum``."""
    s1, s2 = _entropy_bits(np.linalg.eigvalsh(_marginals(rho)))
    return s1 + s2 - _entropy_bits(spectrum)


def _sigma_yy_form(rows: np.ndarray) -> np.ndarray:
    """The complex-symmetric tau = R (sy x sy) R^T of a (..., k, 4) stack of rows R, as one matrix product."""
    return (rows[..., ::-1] * _SIGMA_YY_SIGNS) @ rows.swapaxes(-1, -2)


def _concurrence(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Wootters concurrence of validated states with eigenpairs (values, vectors).

    With rho = X X^dagger, X = V sqrt(Lambda), the decreasing square roots
    l_i of the spectrum of rho (sy x sy) rho* (sy x sy) are the singular
    values of the complex-symmetric tau = X^T (sy x sy) X.  Taking them
    directly keeps a nearly singular state from losing half its digits to
    a square root of eigenvalue noise.  X is built in place in ``vectors``,
    which the caller must not use afterwards.
    """
    x = vectors
    x *= np.sqrt(np.clip(values, 0.0, None))[..., None, :]
    lam = np.linalg.svd(_sigma_yy_form(x.swapaxes(-1, -2)), compute_uv=False)  # descending
    return np.clip(lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3], 0.0, 1.0)


def concurrence(rho: np.ndarray) -> float:
    """Concurrence C(rho) = max{0, l1 - l2 - l3 - l4} of a state, or an array for a stack.

    The l_i are the decreasing square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), taken as singular values (see _concurrence).
    """
    return _scalar(_concurrence(*_density_eigh(rho)[1:]))


def entanglement_of_formation(rho: np.ndarray) -> float:
    """Entanglement of formation of a two-qubit state (or a stack), in bits."""
    return _scalar(_formation(concurrence(rho)))


class CorrelationReport(NamedTuple):
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
    rho, values, vectors = _density_eigh(rho)
    total = _mutual_information(rho, values)
    c = _concurrence(values, vectors)
    quantum = _formation(c)
    return CorrelationReport(*(_scalar(v) for v in (total, quantum, total - quantum, c)))


def is_separable_ppt(rho: np.ndarray):
    """Peres-Horodecki test, exact for two qubits; a bool, or a bool array for a stack.

    True iff the partial transpose has no eigenvalue below -1e-10.
    """
    return _scalar(_separable_ppt(check_density_matrix(rho)))


def _separable_ppt(rho: np.ndarray) -> np.ndarray:
    """is_separable_ppt of validated states, as a bool array."""
    return np.linalg.eigvalsh(_partial_transpose(rho))[..., 0] >= -1e-10


# --- random states and pure-state decompositions ---------------------------


def _orthonormal_columns(z: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` columns of the Q factor of z = QR, R with positive diagonal.

    ``z`` holds its columns on the leading axis: z[i] is column i, of shape
    (n, ...) for n x n matrices stacked along the trailing axes.  Q comes
    back the same way, so every dot product is an elementwise product of
    such arrays summed over their first axis.
    Gram-Schmidt with one reorthogonalisation pass keeps the columns
    orthonormal to roundoff; this Q is unique, so it is the Q of a QR
    factorisation with its phases fixed.
    """
    q = np.empty((k,) + z.shape[1:], dtype=complex)
    for i in range(k):
        v = z[i]
        for _ in range(2):  # at i = 0 the projection onto q[:0] subtracts an exact 0
            coeffs = (q[:i].conj() * v).sum(axis=1)
            v = v - (q[:i] * coeffs[:, None]).sum(axis=0)
        q[i] = v / np.sqrt((v.real * v.real + v.imag * v.imag).sum(axis=0))
    return q


def random_density_matrix(rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Full-rank random 4x4 density matrix G G† / tr(G G†), G complex Gaussian.

    With ``size``, a (size, 4, 4) stack drawn from ``rng`` exactly as
    ``size`` single calls would draw it.
    """
    lead = () if size is None else (size,)
    z = rng.standard_normal((*lead, 2, 4, 4))
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    return rho


def _weighted_eigenrows(values: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, int]:
    """Rows sqrt(mu_i) e_i^T over each state's support, from its eigenpairs, and the largest rank.

    Support eigenpairs (mu_i > 1e-10) come first, in ascending order, and
    the rest are zero rows, so a stack of states of different rank shares
    one layout of ``rank`` rows.
    """
    kept = values > 1e-10
    rank = int(kept.sum(axis=-1).max())
    order = np.argsort(~kept, axis=-1, kind="stable")
    weights = np.sqrt(np.take_along_axis(np.where(kept, values, 0.0), order, axis=-1))
    columns = np.take_along_axis(vectors, order[..., None, :], axis=-1) * weights[..., None, :]
    return columns.swapaxes(-1, -2)[..., :rank, :], rank


def _least_averages(u, norms, coeffs, first, second) -> np.ndarray:
    """Smallest average entanglement of each state over one batch of decompositions.

    u[k, j, b] is member j's amplitude on eigenrow k in draw b, ``norms``
    (states, rank) holds |R_k|^2 and ``coeffs`` (states, pairs) the
    coefficients of u^T tau u on the pair products u_k u_l, k <= l, with k
    and l listed by the index arrays ``first`` and ``second``.
    """
    probs = norms @ (u.real * u.real + u.imag * u.imag).reshape(len(u), -1)  # (states, members x draws)
    products = u[first] * u[second]  # (pairs, members, draws)
    quad = np.abs(coeffs @ products.reshape(len(first), -1))
    c = np.minimum(quad / np.where(probs > 0.0, probs, 1.0), 1.0)
    averages = (probs * _formation(c)).reshape(len(norms), u.shape[1], -1).sum(axis=1)
    return averages.min(axis=1)


def sample_decomposition_average(rho: np.ndarray, samples: int, seed: int) -> float:
    """Minimum ensemble-average entanglement over random 4-member decompositions.

    Draws ``samples`` random decompositions of ``rho`` into _MEMBERS = 4
    pure states and returns the smallest average entanglement found.  Since
    the entanglement of formation is the infimum over all decompositions,
    the result can never fall below it (up to roundoff); the gap shrinks as
    ``samples`` grows.  For a (..., 4, 4) stack the result is an array, and
    every state is decomposed with the same Haar draws (the same ``seed``).

    A member is psi = u R, with R the weighted eigenrows and u a row of a
    Haar isometry, so no member is ever built: its weight is
    p = sum_k |u_k|^2 |R_k|^2 (the rows are orthogonal) and its concurrence
    2 |det A| = |psi^T (sy x sy) psi| / p = |u^T tau u| / p, with the tau of
    _concurrence.  u^T tau u is one product of tau's coefficients, for
    every state at once, against the pair products u_k u_l (k <= l).
    """
    rho, values, vectors = _density_eigh(rho)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    basis, rank = _weighted_eigenrows(values, vectors)
    rows = basis.reshape(-1, rank, 4)
    norms = (rows.real * rows.real + rows.imag * rows.imag).sum(axis=-1)  # (states, rank)
    first, second = np.triu_indices(rank)
    coeffs = _sigma_yy_form(rows)[:, first, second] * np.where(first == second, 1.0, 2.0)  # (states, pairs)

    best = np.full(len(rows), np.inf)
    columns = np.empty((_MEMBERS, _MEMBERS, _SUB_BATCH), dtype=complex)
    rng = np.random.default_rng(seed)
    for block in range(0, samples, _BLOCK):  # real and imaginary parts of one complex Ginibre matrix per draw
        draws = rng.standard_normal((2, min(_BLOCK, samples - block), _MEMBERS, _MEMBERS))
        for start in range(0, draws.shape[1], _SUB_BATCH):
            part = draws[:, start : start + _SUB_BATCH].transpose(0, 3, 2, 1)  # column, row, draw
            z = columns[..., : part.shape[-1]]
            z.real, z.imag = part
            least = _least_averages(_orthonormal_columns(z, rank), norms, coeffs, first, second)
            np.minimum(best, least, out=best)
    return _scalar(best.reshape(rho.shape[:-2]))
