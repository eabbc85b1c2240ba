"""The decomposition sampler against the member-stack sampler it replaced.

The sampler evaluates each member's weight and concurrence as quadratic
forms in the Haar isometry's rows (p = sum_k |u_k|^2 |R_k|^2 and
C = |u^T tau u| / p), over Ginibre draws taken by one ``standard_normal``
call per block.  The oracle here builds every member psi = u R, normalises
it and takes 2 |det A| of its 2x2 amplitude matrix, as the library did
before, from two ``standard_normal`` calls per block, which draw the same
stream.  Same draws, same result up to the order of the sums.
"""

import numpy as np
import pytest

from dimercorr.correlations import (
    _BLOCK,
    _formation,
    _orthonormal_columns,
    _weighted_eigenrows,
    random_density_matrix,
    sample_decomposition_average,
)

SAMPLER_TOL = 1e-14
MEMBERS = 4


def member_stack_sampler(rho, samples, seed):
    """The former sample_decomposition_average: one (block, 4, 4) member stack per state."""
    basis, rank = _weighted_eigenrows(*np.linalg.eigh(rho))
    rows = basis.reshape(-1, rank, 4)
    rng = np.random.default_rng(seed)
    best = np.full(len(rows), np.inf)
    for start in range(0, samples, _BLOCK):
        block = min(_BLOCK, samples - start)
        shape = (block, MEMBERS, MEMBERS)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        isometries = np.empty((block, MEMBERS, rank), dtype=complex)
        for i in range(rank):  # Gram-Schmidt with one reorthogonalisation pass
            v = z[..., i]
            for _ in range(2):
                coeffs = np.einsum("...ji,...j->...i", isometries[..., :i].conj(), v)
                v = v - np.einsum("...ji,...i->...j", isometries[..., :i], coeffs)
            isometries[..., i] = v / np.sqrt(np.einsum("...j,...j->...", v, v.conj()).real)[..., None]
        for i, state_rows in enumerate(rows):
            members = isometries @ state_rows
            probs = np.einsum("bmj,bmj->bm", members, members.conj()).real
            norms = np.sqrt(np.where(probs > 0, probs, 1.0))
            amps = (members / norms[:, :, None]).reshape(-1, 2, 2)
            dets = np.abs(amps[:, 0, 0] * amps[:, 1, 1] - amps[:, 0, 1] * amps[:, 1, 0])
            entanglements = _formation(np.minimum(2.0 * dets, 1.0)).reshape(block, MEMBERS)
            best[i] = min(best[i], np.einsum("bm,bm->b", probs, entanglements).min())
    return best.reshape(rho.shape[:-2])


def _of_rank(rank, rng):
    """A random state of the given rank: G G^dagger / tr, G a complex Gaussian 4 x ``rank`` matrix."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


FULL_RANK = random_density_matrix(np.random.default_rng(31), size=3)
MIXED_RANK = np.stack([_of_rank(r, np.random.default_rng(40 + r)) for r in (1, 2, 3)])


@pytest.mark.parametrize("samples", [1, 255, 2049, 3000])
@pytest.mark.parametrize("rho", [FULL_RANK, MIXED_RANK], ids=["full-m4", "mixed-m4"])
def test_sampler_matches_the_member_stack_oracle(rho, samples):
    got = sample_decomposition_average(rho, samples, seed=9)
    want = member_stack_sampler(rho, samples, seed=9)
    assert np.max(np.abs(got - want)) < SAMPLER_TOL


def test_mixed_rank_stack_has_the_expected_ranks():
    values = np.linalg.eigvalsh(MIXED_RANK)
    assert list((values > 1e-10).sum(axis=-1)) == [1, 2, 3]


def test_orthonormal_columns_is_the_phase_fixed_qr():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((7, 4, 4)) + 1j * rng.standard_normal((7, 4, 4))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r, axis1=-2, axis2=-1) / np.abs(np.diagonal(r, axis1=-2, axis2=-1))
    want = q * phases[:, None, :]  # R's diagonal made positive
    got = _orthonormal_columns(z.transpose(2, 1, 0), 3)  # columns on the leading axis
    assert np.max(np.abs(got.transpose(2, 1, 0) - want[..., :3])) < 1e-13


@pytest.mark.parametrize("size", [None, 7])
def test_random_density_matrix_draws_as_before(size):
    # the former construction, with its temporaries: G from two slices, then G G^dagger / tr
    rng = np.random.default_rng(12)
    z = rng.standard_normal(((size,) if size else ()) + (2, 4, 4))
    g = z[..., 0, :, :] + 1j * z[..., 1, :, :]
    rho = g @ g.conj().swapaxes(-1, -2)
    want = rho / np.trace(rho, axis1=-2, axis2=-1).real[..., None, None]
    assert np.array_equal(random_density_matrix(np.random.default_rng(12), size=size), want)
