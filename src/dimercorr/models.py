"""Two-qubit Heisenberg-type dimer: Hamiltonian, spectra, thermal states.

The model is

    H = J [ (1-gamma)/2 (sx sx + sy sy) + (1+gamma)/2 (sz sz) ]
        + J b1 sz(1) + J b2 sz(2)

with anisotropy gamma in [-1, 1], exchange J > 0 (antiferromagnetic) and
local fields b1, b2 measured in units of J.  Boltzmann's constant is 1, so
temperatures are energies.  The Hamiltonian conserves total S_z, so every
thermal state is an X-state and closed_form_correlations evaluates the
correlations for any (gamma, b1, b2) over whole arrays at once.  Closed-form
eigensystems and thermal states are written out for two families: zero
field with any gamma, and gamma = -1 (the XY point) with arbitrary fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DomainError, UnsupportedFamilyError
from .matkernel import check_positive_finite, gibbs, hermitian_eig, kron, pauli

__all__ = [
    "LOG_DOMAIN_T",
    "EigenPair",
    "ModelParams",
    "analytic_eigensystem",
    "build_hamiltonian",
    "closed_form_correlations",
    "concurrence_analytic",
    "ground_state_limit",
    "thermal_state",
    "thermal_state_analytic",
]

# Below this scaled temperature the closed forms switch to log-domain
# Boltzmann weights; the margin is conservative (direct hyperbolics would
# only overflow near T/J ~ 0.003).
LOG_DOMAIN_T = 0.02


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters selecting a dimer Hamiltonian.

    gamma : anisotropy in [-1, 1]; -1 is the XY point, +1 the Ising point.
    b1, b2 : local z fields on qubits 1 and 2, in units of J.
    j : exchange constant, > 0; all energies and temperatures scale with it.

    Each field is a float, or an array when one instance stands for many
    points; the arrays broadcast against each other, and build_hamiltonian
    and thermal_state then return (..., 4, 4) stacks.
    """

    gamma: float
    b1: float = 0.0
    b2: float = 0.0
    j: float = 1.0

    def __post_init__(self) -> None:
        _check_params(self.gamma, self.b1, self.b2, self.j)


@dataclass(frozen=True)
class EigenPair:
    """One closed-form eigenstate: energy and a normalized 4-vector."""

    energy: float
    state: np.ndarray


_EXCHANGE_XY = kron(pauli("x"), pauli("x")) + kron(pauli("y"), pauli("y"))
_EXCHANGE_Z = kron(pauli("z"), pauli("z"))
_FIELD_1 = kron(pauli("z"), np.eye(2))
_FIELD_2 = kron(np.eye(2), pauli("z"))


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """Dense 4x4 Hamiltonian matrix in the product basis; (..., 4, 4) for array parameters."""
    gamma, b1, b2, j = (np.asarray(v, dtype=float)[..., None, None] for v in (p.gamma, p.b1, p.b2, p.j))
    exchange = 0.5 * (1.0 - gamma) * _EXCHANGE_XY + 0.5 * (1.0 + gamma) * _EXCHANGE_Z
    return j * (exchange + (b1 * _FIELD_1 + b2 * _FIELD_2))


_ROOT2 = math.sqrt(2.0)
# Zero-field eigenvectors as columns: singlet, triplet-zero, |uu>, |dd>.
_ZERO_FIELD_STATES = np.array(
    [[0.0, 0.0, _ROOT2, 0.0], [1.0, 1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, _ROOT2]],
    dtype=complex,
) / _ROOT2


def _zero_field_eigensystem(gamma, j) -> tuple[np.ndarray, np.ndarray]:
    """Zero-field energies (..., 4) and eigenvectors (..., 4, 4), one per column."""
    gamma, j = np.asarray(gamma, dtype=float), np.asarray(j, dtype=float)
    energies = np.stack(
        [j * (gamma - 3.0) / 2.0, j * (1.0 - 3.0 * gamma) / 2.0, j * (1.0 + gamma) / 2.0, j * (1.0 + gamma) / 2.0],
        axis=-1,
    )
    return energies, np.broadcast_to(_ZERO_FIELD_STATES, energies.shape + (4,))


def _xy_eigensystem(b1, b2, j) -> tuple[np.ndarray, np.ndarray]:
    """Energies (..., 4) and eigenvectors (..., 4, 4), one per column, at gamma = -1."""
    b1, b2, j = (np.asarray(v, dtype=float) for v in (b1, b2, j))
    delta = b1 - b2
    root_d = np.sqrt(delta * delta + 4.0)
    energies = np.stack([j * (b1 + b2), -j * (b1 + b2), j * root_d, -j * root_d], axis=-1)
    vectors = np.zeros(energies.shape + (4,), dtype=complex)
    vectors[..., 0, 0] = vectors[..., 3, 1] = 1.0  # |uu>, |dd>
    for k, sign in ((2, 1.0), (3, -1.0)):  # (delta +- sqrt(D)) / 2 |ud> + |du>, normalised
        amp = (delta + sign * root_d) / 2.0
        norm = np.hypot(amp, 1.0)
        vectors[..., 1, k] = amp / norm
        vectors[..., 2, k] = 1.0 / norm
    return energies, vectors


def analytic_eigensystem(p: ModelParams) -> list[EigenPair]:
    """Closed-form eigenpairs for the two supported families.

    Zero field (any gamma): singlet at J(gamma-3)/2, triplet-zero at
    J(1-3 gamma)/2, and the two polarized states degenerate at
    J(1+gamma)/2.  XY point (gamma = -1, any fields): polarized states at
    +-J(b1+b2) and an entangled pair at +-J sqrt((b1-b2)^2 + 4).
    Raises UnsupportedFamilyError elsewhere; the numeric route via
    hermitian_eig(build_hamiltonian(p)) always works.
    """
    if p.b1 == 0.0 and p.b2 == 0.0:
        energies, vectors = _zero_field_eigensystem(p.gamma, p.j)
    elif p.gamma == -1.0:
        energies, vectors = _xy_eigensystem(p.b1, p.b2, p.j)
    else:
        raise UnsupportedFamilyError(
            "no closed-form eigensystem for gamma != -1 with nonzero fields; "
            "use hermitian_eig(build_hamiltonian(p))"
        )
    return [EigenPair(float(energies[k]), vectors[:, k].copy()) for k in range(4)]


def _boltzmann_mixture(energies: np.ndarray, vectors: np.ndarray, t: np.ndarray) -> np.ndarray:
    # Weights shifted by the ground energy stay in (0, 1] at any T > 0.
    weights = np.exp(-(energies - energies.min(axis=-1, keepdims=True)) / t[..., None])
    weights /= weights.sum(axis=-1, keepdims=True)
    return (vectors * weights[..., None, :]) @ vectors.conj().swapaxes(-1, -2)


def _x_state(d0, d1, d2, d3, off) -> np.ndarray:
    """(..., 4, 4) states with diagonal (d0, d1, d2, d3) and rho[1, 2] = rho[2, 1] = off."""
    rho = np.zeros(np.shape(d0) + (4, 4), dtype=complex)
    for k, d in enumerate((d0, d1, d2, d3)):
        rho[..., k, k] = d
    rho[..., 1, 2] = rho[..., 2, 1] = off
    return rho


def _zero_field_state(gamma: np.ndarray, tau: np.ndarray) -> np.ndarray:
    u = (1.0 - gamma) / tau
    corner = np.exp(-(1.0 + gamma) / tau)
    eta = 1.0 / (2.0 * (np.cosh(u) + corner))
    return _x_state(eta * corner, eta * np.cosh(u), eta * np.cosh(u), eta * corner, -eta * np.sinh(u))


def _xy_state(b1: np.ndarray, b2: np.ndarray, tau: np.ndarray) -> np.ndarray:
    delta = b1 - b2
    sigma = b1 + b2
    root_d = np.sqrt(delta * delta + 4.0)
    z = 2.0 * (np.cosh(sigma / tau) + np.cosh(root_d / tau))
    b = np.cosh(root_d / tau)
    c = np.sinh(root_d / tau) * delta / root_d
    s = 2.0 * np.sinh(root_d / tau) / root_d
    d = np.exp(-sigma / tau)
    return _x_state(d / z, (b - c) / z, (b + c) / z, 1.0 / (d * z), -s / z)


def thermal_state_analytic(p: ModelParams, t) -> np.ndarray:
    """Closed-form Gibbs state for the supported families.

    Zero field: an X-shaped matrix with corners eta e^{-(1+gamma) J/T} and a
    central block eta [[cosh u, -sinh u], [-sinh u, cosh u]] where
    u = (1-gamma) J/T and eta normalizes the trace.  XY point: corners
    e^{-+(b1+b2) J/T} and central block [[b-c, -s], [-s, b+c]], all over
    Z = 2 [cosh((b1+b2) J/T) + cosh(sqrt(D) J/T)] with D = (b1-b2)^2 + 4,
    b = cosh(sqrt(D) J/T), c = sinh(sqrt(D) J/T)(b1-b2)/sqrt(D) and
    s = 2 sinh(sqrt(D) J/T)/sqrt(D).

    Below T/J = 0.02 both families fall back to log-domain Boltzmann
    weights over the closed-form eigenpairs, which cannot overflow; above
    it a field so strong that a hyperbolic overflows raises
    FloatingPointError.  Array parameters and temperatures broadcast to a
    (..., 4, 4) stack, and every point must lie in one of the two families.
    """
    check_positive_finite(t)
    gamma, b1, b2, j, t = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (p.gamma, p.b1, p.b2, p.j, t))
    )
    zero = (b1 == 0.0) & (b2 == 0.0)
    xy = ~zero & (gamma == -1.0)
    if not (zero | xy).all():
        raise UnsupportedFamilyError(
            "no closed-form thermal state for gamma != -1 with nonzero fields; "
            "use thermal_state(p, t)"
        )
    tau = t / j  # closed forms are written for J = 1
    cold = tau < LOG_DOMAIN_T
    rho = np.zeros(tau.shape + (4, 4), dtype=complex)
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        m = zero & ~cold
        if m.any():
            rho[m] = _zero_field_state(gamma[m], tau[m])
        m = xy & ~cold
        if m.any():
            rho[m] = _xy_state(b1[m], b2[m], tau[m])
        m = zero & cold
        if m.any():
            rho[m] = _boltzmann_mixture(*_zero_field_eigensystem(gamma[m], j[m]), t[m])
        m = xy & cold
        if m.any():
            rho[m] = _boltzmann_mixture(*_xy_eigensystem(b1[m], b2[m], j[m]), t[m])
    return rho


def thermal_state(p: ModelParams, t) -> np.ndarray:
    """Gibbs state of the dimer at temperature ``t``, any parameters.

    Array parameters and temperatures broadcast to a (..., 4, 4) stack,
    built with one eigensolver call.
    """
    return gibbs(build_hamiltonian(p), t)


def ground_state_limit(p: ModelParams) -> np.ndarray:
    """T -> 0+ limit of the thermal state.

    Uniform mixture over the ground eigenspace; energies within 1e-10 of
    the minimum count as degenerate, so the Ising point (gamma = 1) yields
    the equal mixture of the singlet and triplet-zero projectors.
    """
    values, vectors = hermitian_eig(build_hamiltonian(p))
    ground = values <= values[0] + 1e-10
    cols = vectors[:, ground]
    return (cols @ cols.conj().T) / int(ground.sum())


def concurrence_analytic(p: ModelParams, t: float) -> float:
    """Closed-form concurrence of the thermal state, any (gamma, b1, b2).

    A scalar view of closed_form_correlations, kept as the closed-form side
    of the comparisons with the dense route concurrence(thermal_state(p, t)).
    """
    return float(closed_form_correlations(p.gamma, p.b1, p.b2, t, p.j)["concurrence"])


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x log2 x elementwise, with 0 log 0 = 0."""
    return np.where(x > 0.0, x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)


def _check_params(gamma, b1, b2, j) -> None:
    """Raise DomainError unless gamma lies in [-1, 1], b1 and b2 are finite, and j is positive and finite."""
    gamma = np.asarray(gamma, dtype=float)
    bad = ~((gamma >= -1.0) & (gamma <= 1.0))  # NaN fails both comparisons
    if bad.any():
        raise DomainError(f"gamma must lie in [-1, 1], got {gamma[bad].flat[0]}")
    for name, v in (("b1", b1), ("b2", b2)):
        v = np.asarray(v, dtype=float)
        bad = ~np.isfinite(v)
        if bad.any():
            raise DomainError(f"{name} must be finite, got {v[bad].flat[0]}")
    check_positive_finite(j, "j")


def closed_form_correlations(gamma, b1, b2, t, j=1.0) -> dict[str, np.ndarray]:
    """Total, quantum and classical correlation (bits) and concurrence of the Gibbs state.

    Arguments broadcast against each other and every result has the
    broadcast shape.  H conserves total S_z, so the thermal state is an
    X-state: |uu> and |dd> are eigenstates at J[(1+gamma)/2 +- (b1+b2)], and
    |ud>, |du> mix into levels at J[-(1+gamma)/2 +- r] with
    r = sqrt((b1-b2)^2 + (1-gamma)^2) and mixing angle cos(theta) = (b1-b2)/r.
    From the ground-shifted Boltzmann populations of these four levels:

    - S12 is the entropy of the populations, and both marginals are diagonal;
    - rho22 and rho33 split the mixed pair by the mixing angle, with
      1 - |cos(theta)| written as (1-gamma)^2 / (r (r + |b1-b2|)) so that
      strong fields lose no digits to cancellation;
    - |rho23| = (p_low - p_high) sin(theta) / 2 and rho14 = 0, so the
      concurrence is C = 2 max(0, |rho23| - sqrt(rho11 rho44))
      (Yu and Eberly, QIC 7, 459 (2007); Wootters, PRL 80, 2245 (1998)).

    Every exponent is nonpositive, so nothing overflows at any T > 0.
    Non-finite inputs, gamma outside [-1, 1] and T or j <= 0 raise DomainError.
    """
    gamma, b1, b2, t, j = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (gamma, b1, b2, t, j))
    )
    _check_params(gamma, b1, b2, j)
    check_positive_finite(t)
    tau = t / j  # the levels below are in units of J
    sigma = b1 + b2
    delta = b1 - b2
    gap = 1.0 - gamma  # coupling inside the |ud>, |du> block
    r = np.hypot(delta, gap)
    r_safe = np.where(r > 0.0, r, 1.0)  # r = 0 only at gamma = 1, b1 = b2
    # Levels measured from the lower mixed level, in units of J.  |uu> and |dd>
    # sit (1+gamma) + r +- sigma above it; writing (1+gamma) + r as
    # 2 + (r - (1-gamma)) = 2 + delta^2 / (r + 1 - gamma) keeps level crossings
    # such as b1 = b2 = 1 exact, where 1/T would amplify any rounding.
    lift = 2.0 + np.where(r > 0.0, delta * delta / (r_safe + gap), 0.0)
    levels = np.stack([lift + sigma, lift - sigma, 2.0 * r, np.zeros_like(r)])
    x = (levels - levels.min(axis=0)) / tau  # Boltzmann exponents, all >= 0
    weights = np.exp(-x)
    z = weights.sum(axis=0)
    p_uu, p_dd, p_hi, p_lo = weights / z

    one_minus_cos = np.where(r > 0.0, gap * gap / (r_safe * (r_safe + np.abs(delta))), 1.0)
    # diagonal weight of the basis state the upper level leans toward, and of the other
    upper_side = 0.5 * (p_hi * (2.0 - one_minus_cos) + p_lo * one_minus_cos)
    lower_side = 0.5 * (p_hi * one_minus_cos + p_lo * (2.0 - one_minus_cos))
    rho22 = np.where(delta >= 0.0, upper_side, lower_side)  # |ud>
    rho33 = np.where(delta >= 0.0, lower_side, upper_side)  # |du>

    # p_lo - p_hi = p_lo (1 - e^{-2r/tau}), kept exact for small r / tau
    rho23 = -p_lo * np.expm1(-2.0 * r / tau) * gap / (2.0 * r_safe)
    corners = np.exp(-0.5 * (x[0] + x[1])) / z  # sqrt(rho11 rho44) without underflow
    c = np.clip(2.0 * (rho23 - corners), 0.0, 1.0)

    s12 = -(_xlog2x(p_uu) + _xlog2x(p_dd) + _xlog2x(p_hi) + _xlog2x(p_lo))
    s1 = -(_xlog2x(p_uu + rho22) + _xlog2x(rho33 + p_dd))
    s2 = -(_xlog2x(p_uu + rho33) + _xlog2x(rho22 + p_dd))
    total = np.maximum(s1 + s2 - s12, 0.0)  # >= 0 by subadditivity; clamp the rounding

    # E_f = h(x) at x = (1 - sqrt(1 - C^2)) / 2, formed without cancellation
    root = np.sqrt((1.0 - c) * (1.0 + c))
    small = c * c / (2.0 * (1.0 + root))
    quantum = -(_xlog2x(small) + (1.0 - small) * np.log1p(-small) / math.log(2.0))
    return {"total": total, "quantum": quantum, "classical": total - quantum, "concurrence": c}
