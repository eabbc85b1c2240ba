"""Two-qubit Heisenberg-type dimer: Hamiltonian, spectra, thermal states.

The model is

    H = J [ (1-gamma)/2 (sx sx + sy sy) + (1+gamma)/2 (sz sz) ]
        + J b1 sz(1) + J b2 sz(2)

with anisotropy gamma in [-1, 1], exchange J > 0 (antiferromagnetic) and
local fields b1, b2 measured in units of J.  Boltzmann's constant is 1, so
temperatures are energies.  The Hamiltonian conserves total S_z, so every
thermal state is an X-state.  One closed form for its levels, populations
and mixing angle (_x_form) gives the eigenpairs, the Gibbs state and the
correlations for any (gamma, b1, b2) and any T > 0, over whole arrays at
once; the dense route (thermal_state) is the independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .correlations import _formation, _xlog2x
from .exceptions import DomainError
from .matkernel import check_positive_finite, gibbs, hermitian_eig, kron, pauli

__all__ = [
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


class _XForm(NamedTuple):
    """The Gibbs state of the dimer as an X-state, in units of J; each field broadcasts over the points."""

    levels: np.ndarray  # (4, ...) |uu>, |dd>, upper and lower mixed level, above the lower mixed level
    populations: np.ndarray  # (4, ...) Boltzmann populations of those levels
    one_minus_cos: np.ndarray  # 1 - |cos(theta)| of the |ud>, |du> mixing angle
    rho22: np.ndarray  # <ud|rho|ud>
    rho33: np.ndarray  # <du|rho|du>
    coherence: np.ndarray  # |rho23| = -rho23; rho14 = 0
    corners: np.ndarray  # sqrt(rho11 rho44), formed without underflow


@np.errstate(over="ignore")  # a level or product that overflows saturates to +inf
def _x_form(gamma, b1, b2, tau) -> _XForm:
    """Levels, populations and mixing angle of the Gibbs state at tau = T/J.

    H conserves total S_z: |uu> and |dd> are eigenstates at
    J[(1+gamma)/2 +- (b1+b2)], and |ud>, |du> mix into levels at
    J[-(1+gamma)/2 +- r] with r = sqrt((b1-b2)^2 + (1-gamma)^2),
    cos(theta) = (b1-b2)/r and sin(theta) = (1-gamma)/r.  The upper mixed
    level leans toward |ud> when b1 >= b2.  Every Boltzmann exponent is
    nonpositive, and one that overflows saturates to -inf, so nothing
    overflows or warns at any T > 0 and any fields with finite b1 +- b2.
    """
    sigma = b1 + b2
    delta = b1 - b2
    size = np.abs(delta)
    gap = 1.0 - gamma  # coupling inside the |ud>, |du> block
    r = np.hypot(delta, gap)
    r_safe = np.where(r > 0.0, r, 1.0)  # r = 0 only at gamma = 1, b1 = b2
    # |uu> and |dd> sit (1+gamma) + r +- sigma above the lower mixed level;
    # writing (1+gamma) + r as 2 + (r - (1-gamma)) = 2 + delta^2 / (r + 1 - gamma)
    # keeps level crossings such as b1 = b2 = 1 exact, where 1/T would
    # amplify any rounding.  Past |delta| ~ 1.3e154, where delta^2
    # overflows, the ratio is formed one factor at a time.
    square = delta * delta
    lift = 2.0 + np.where(np.isfinite(square), square / (r_safe + gap), size * (size / (r_safe + gap)))
    levels = np.stack([lift + sigma, lift - sigma, 2.0 * r, np.zeros_like(r)])
    x = (levels - levels.min(axis=0)) / tau  # exp and expm1 map +inf to the right limits
    split = 2.0 * r / tau
    weights = np.exp(-x)
    z = weights.sum(axis=0)
    populations = weights / z
    _, _, p_hi, p_lo = populations

    one_minus_cos = np.where(r > 0.0, gap * gap / (r_safe * (r_safe + size)), 1.0)
    # diagonal weight of the basis state the upper level leans toward, and of the other
    upper_side = 0.5 * (p_hi * (2.0 - one_minus_cos) + p_lo * one_minus_cos)
    lower_side = 0.5 * (p_hi * one_minus_cos + p_lo * (2.0 - one_minus_cos))
    # (p_lo - p_hi) sin(theta) / 2 = (p_lo - p_hi) gap / 2r with p_lo - p_hi =
    # p_lo (1 - e^{-2r/tau}), kept exact for small r / tau; where 2r overflows
    # (|b1 - b2| past ~9e307) the numerator is divided by r and then halved,
    # which only there rounds a subnormal result twice
    numerator = -p_lo * np.expm1(-split) * gap
    twice_r = 2.0 * r_safe
    coherence = np.where(np.isfinite(twice_r), numerator / twice_r, numerator / r_safe * 0.5)
    return _XForm(
        levels=levels,
        populations=populations,
        one_minus_cos=one_minus_cos,
        rho22=np.where(delta >= 0.0, upper_side, lower_side),
        rho33=np.where(delta >= 0.0, lower_side, upper_side),
        coherence=coherence,
        corners=np.exp(-0.5 * (x[0] + x[1])) / z,
    )


def analytic_eigensystem(p: ModelParams) -> list[EigenPair]:
    """Closed-form eigenpairs of one dimer (scalar parameters), any (gamma, b1, b2).

    |uu> and |dd> at J[(1+gamma)/2 +- (b1+b2)], then the upper and lower
    mixed levels at J[-(1+gamma)/2 +- r]: the upper one is
    cos(phi)|ud> + sin(phi)|du> and the lower one -sin(phi)|ud> + cos(phi)|du>,
    with 2 phi = theta.  The half-angle components come from 1 - |cos(theta)|
    without cancellation.
    """
    form = _x_form(p.gamma, p.b1, p.b2, 1.0)  # the populations are not used
    # the lower mixed level sits at -(1+gamma)/2 - r, and levels[2] = 2r
    energies = p.j * (form.levels - (0.5 * (1.0 + p.gamma) + 0.5 * form.levels[2]))
    small = math.sqrt(0.5 * float(form.one_minus_cos))
    big = math.sqrt(1.0 - 0.5 * float(form.one_minus_cos))
    cos_phi, sin_phi = (big, small) if p.b1 >= p.b2 else (small, big)
    vectors = np.zeros((4, 4), dtype=complex)  # one eigenvector per column
    vectors[0, 0] = vectors[3, 1] = 1.0
    vectors[1:3, 2] = cos_phi, sin_phi
    vectors[1:3, 3] = -sin_phi, cos_phi
    return [EigenPair(float(energies[k]), vectors[:, k].copy()) for k in range(4)]


def thermal_state_analytic(p: ModelParams, t) -> np.ndarray:
    """Closed-form Gibbs state, any (gamma, b1, b2) and any T > 0.

    An X-state: the populations of |uu> and |dd> in the corners, and the
    |ud>, |du> block split by the mixing angle with rho23 = rho32 =
    -(p_lo - p_hi) sin(theta) / 2 (see _x_form).  Array parameters and
    temperatures broadcast to a (..., 4, 4) stack.
    """
    check_positive_finite(t)
    gamma, b1, b2, j, t = np.broadcast_arrays(
        *(np.asarray(v, dtype=float) for v in (p.gamma, p.b1, p.b2, p.j, t))
    )
    form = _x_form(gamma, b1, b2, t / j)
    rho = np.zeros(t.shape + (4, 4), dtype=complex)
    rho[..., 0, 0], rho[..., 3, 3] = form.populations[0], form.populations[1]
    rho[..., 1, 1], rho[..., 2, 2] = form.rho22, form.rho33
    rho[..., 1, 2] = rho[..., 2, 1] = -form.coherence
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


def _check_params(gamma, b1, b2, j) -> None:
    """Raise DomainError unless gamma lies in [-1, 1], b1, b2 and b1 +- b2 are finite, and j is positive and finite."""
    gamma = np.asarray(gamma, dtype=float)
    bad = ~((gamma >= -1.0) & (gamma <= 1.0))  # NaN fails both comparisons
    if bad.any():
        raise DomainError(f"gamma must lie in [-1, 1], got {gamma[bad].flat[0]}")
    b1, b2 = np.asarray(b1, dtype=float), np.asarray(b2, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked right below
        fields = (("b1", b1), ("b2", b2), ("b1 + b2", b1 + b2), ("b1 - b2", b1 - b2))
    for name, v in fields:
        bad = ~np.isfinite(v)
        if bad.any():
            raise DomainError(f"{name} must be finite, got {v[bad].flat[0]}")
    check_positive_finite(j, "j")


def closed_form_correlations(gamma, b1, b2, t, j=1.0) -> dict[str, np.ndarray]:
    """Total, quantum and classical correlation (bits) and concurrence of the Gibbs state.

    Arguments broadcast against each other and every result has the
    broadcast shape.  From the X-state of _x_form, built on the
    ground-shifted Boltzmann populations of the four levels:

    - S12 is the entropy of the populations, and both marginals are diagonal;
    - rho22 and rho33 split the mixed pair by the mixing angle, with
      1 - |cos(theta)| written as (1-gamma)^2 / (r (r + |b1-b2|)) so that
      strong fields lose no digits to cancellation;
    - |rho23| = (p_low - p_high) sin(theta) / 2 and rho14 = 0, so the
      concurrence is C = 2 max(0, |rho23| - sqrt(rho11 rho44))
      (Yu and Eberly, QIC 7, 459 (2007); Wootters, PRL 80, 2245 (1998));
    - quantum is the entanglement of formation of C, from the same
      cancellation-free E_f(C) that the dense route uses.

    Nothing overflows at any T > 0, and no result is -0.0.
    Non-finite inputs, gamma outside [-1, 1] and T or j <= 0 raise DomainError.
    """
    gamma, b1, b2, t, j = np.broadcast_arrays(
        *(np.asarray(a, dtype=float) for a in (gamma, b1, b2, t, j))
    )
    _check_params(gamma, b1, b2, j)
    check_positive_finite(t)
    form = _x_form(gamma, b1, b2, t / j)
    p_uu, p_dd, p_hi, p_lo = form.populations
    c = np.clip(2.0 * (form.coherence - form.corners), 0.0, 1.0)

    s12 = -(_xlog2x(p_uu) + _xlog2x(p_dd) + _xlog2x(p_hi) + _xlog2x(p_lo))
    s1 = -(_xlog2x(p_uu + form.rho22) + _xlog2x(form.rho33 + p_dd))
    s2 = -(_xlog2x(p_uu + form.rho33) + _xlog2x(form.rho22 + p_dd))
    total = np.maximum(s1 + s2 - s12, 0.0)  # >= 0 by subadditivity; clamp the rounding
    quantum = _formation(c)
    return {"total": total, "quantum": quantum, "classical": total - quantum, "concurrence": c}
