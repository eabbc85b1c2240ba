"""Two-qubit Heisenberg-type dimer: Hamiltonian, spectra, thermal states.

The model is

    H = J [ (1-gamma)/2 (sx sx + sy sy) + (1+gamma)/2 (sz sz) ]
        + J b1 sz(1) + J b2 sz(2)

with anisotropy gamma in [-1, 1], exchange J > 0 (antiferromagnetic) and
local fields b1, b2 measured in units of J.  Boltzmann's constant is 1, so
temperatures are energies.  The Hamiltonian conserves total S_z, so every
thermal state is an X-state.  One closed form (_x_form), built from its
levels, populations and mixing angle, gives the Gibbs state and the
correlations for any (gamma, b1, b2) and any T > 0; the dense route
(thermal_state) is the independent check.

The closed form is a scalar kernel in plain ``math``, so ``point`` and
``sweep`` never load numpy.  It runs once per sweep point, so it is
written for the interpreter: _x_form works on named locals and returns one
flat tuple of floats (populations and X-state entries), which _correlations
and thermal_state_analytic unpack; _correlations and _formation write their
x log2 x terms out inline.

Every input reaches the kernel and the threshold solver as checked Python
floats, through one of two gates that both apply domain._check_params:
domain.ModelParams for one point (thermal_state, threshold's
tth_anisotropic and tth_numeric, a SweepSpec's base), and
_kernel_columns for float columns (run_sweep, and _map_kernel, the one
mapping of numbers or arrays).
"""

from __future__ import annotations

import math
import sys
from math import log2
from typing import TYPE_CHECKING

from .domain import OUTPUTS, ModelParams, _check_params, check_positive_finite

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ModelParams",
    "build_hamiltonian",
    "closed_form_correlations",
    "thermal_state",
    "thermal_state_analytic",
]

_LN2 = math.log(2.0)


def build_hamiltonian(gamma, b1, b2) -> np.ndarray:
    """Dense Hamiltonian in the product basis: 4x4, or (..., 4, 4) for arrays that broadcast to (...).

    The parameters are validated as in closed_form_correlations.
    """
    import numpy as np

    # Pauli matrices, spin-up at index 0; qubit 1 is np.kron's left factor
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    exchange_xy = np.kron(sx, sx) + np.kron(sy, sy)
    exchange_z = np.kron(sz, sz)
    field_1, field_2 = np.kron(sz, np.eye(2)), np.kron(np.eye(2), sz)
    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (gamma, b1, b2)))
    _check_params(*(a.ravel().tolist() for a in arrays))
    gamma, b1, b2 = (a[..., None, None] for a in arrays)
    exchange = 0.5 * (1.0 - gamma) * exchange_xy + 0.5 * (1.0 + gamma) * exchange_z
    return exchange + (b1 * field_1 + b2 * field_2)


def _x_form(gamma: float, b1: float, b2: float, t: float) -> tuple[float, ...]:
    """Populations and X-state entries of the Gibbs state at temperature t > 0.

    Returns, as one flat tuple:

    - p_uu, p_dd, p_hi, p_lo: the Boltzmann populations of |uu>, |dd> and
      the upper and lower mixed level;
    - rho22, rho33: <ud|rho|ud> and <du|rho|du>;
    - coherence: |rho23| = -rho23 (rho14 = 0);
    - corners: sqrt(rho11 rho44), formed without underflow.

    H conserves total S_z: |uu> and |dd> are eigenstates at
    J[(1+gamma)/2 +- (b1+b2)], and |ud>, |du> mix into levels at
    J[-(1+gamma)/2 +- r] with r = sqrt((b1-b2)^2 + (1-gamma)^2),
    cos(theta) = (b1-b2)/r and sin(theta) = (1-gamma)/r.  The upper mixed
    level leans toward |ud> when b1 >= b2.  Every Boltzmann exponent is
    nonpositive, and one that overflows saturates to -inf (float * and /
    saturate to +-inf without raising), so nothing overflows or raises at
    any T > 0 and any fields with finite b1 +- b2.
    """
    sigma = b1 + b2
    delta = b1 - b2
    size = abs(delta)
    gap = 1.0 - gamma  # coupling inside the |ud>, |du> block
    r = abs(complex(delta, gap))  # libm's hypot, as np.hypot
    r_safe = r if r > 0.0 else 1.0  # r = 0 only at gamma = 1, b1 = b2
    # |uu> and |dd> sit (1+gamma) + r +- sigma above the lower mixed level, and
    # the upper mixed level 2r above it.  The levels are formed at half scale,
    # where none exceeds max(|b1 + b2|, |b1 - b2|) + 2, so none overflows for
    # finite b1 +- b2 (at full scale, 2r and lift + sigma overflow past
    # |b1 - b2| ~ 9e307); each exponent is doubled after its division.
    # Halving and doubling are exact, so the bits are the full-scale form's
    # except where a halved quotient is subnormal.
    # Writing (1+gamma) + r as 2 + (r - (1-gamma)) = 2 + delta^2 / (r + 1 - gamma)
    # keeps level crossings such as b1 = b2 = 1 exact, where 1/T would
    # amplify any rounding.  Past |delta| ~ 1.3e154, where delta^2
    # overflows, gap <= 2 is below half an ulp of |delta|, so r + gap = |delta|
    # and the ratio is |delta|.
    square = delta * delta
    lift = 1.0 + 0.5 * (square / (r_safe + gap) if math.isfinite(square) else size)
    half_sigma = 0.5 * sigma
    level_uu = lift + half_sigma
    level_dd = lift - half_sigma
    low = min(level_uu, level_dd, 0.0)  # the ground level; r >= 0 never lies below 0
    # nonpositive Boltzmann exponents; exp and expm1 map -inf to the right limits
    e_uu = (low - level_uu) / t * 2.0
    e_dd = (low - level_dd) / t * 2.0
    w_uu = math.exp(e_uu)
    w_dd = math.exp(e_dd)
    w_hi = math.exp((low - r) / t * 2.0)
    w_lo = math.exp(low / t * 2.0)
    z = w_uu + w_dd + w_hi + w_lo
    p_hi = w_hi / z
    p_lo = w_lo / z

    # 1 - |cos(theta)|; at gamma = 1 there is no mixing (at r = 0, p_hi = p_lo,
    # so any value gives the same state)
    one_minus_cos = gap * gap / (r * (r + size)) if gap > 0.0 else 0.0
    # diagonal weight of the basis state the upper level leans toward, and of the other
    upper_side = 0.5 * (p_hi * (2.0 - one_minus_cos) + p_lo * one_minus_cos)
    lower_side = 0.5 * (p_hi * one_minus_cos + p_lo * (2.0 - one_minus_cos))
    # (p_lo - p_hi) sin(theta) / 2 = (p_lo - p_hi) gap / 2r with p_lo - p_hi =
    # p_lo (1 - e^{-2r/T}), kept exact for small r / T; where 2r overflows
    # (|b1 - b2| past ~9e307) the numerator is divided by r and then halved,
    # which only there rounds a subnormal result twice
    numerator = -p_lo * math.expm1(-r / t * 2.0) * gap
    twice_r_safe = 2.0 * r_safe
    coherence = numerator / twice_r_safe if math.isfinite(twice_r_safe) else numerator / r_safe * 0.5
    if delta >= 0.0:
        rho22, rho33 = upper_side, lower_side
    else:
        rho22, rho33 = lower_side, upper_side
    corners = math.exp(0.5 * (e_uu + e_dd)) / z
    return w_uu / z, w_dd / z, p_hi, p_lo, rho22, rho33, coherence, corners


def _formation(c: float) -> float:
    """Entanglement of formation h((1 + sqrt(1 - C^2)) / 2) of one C in [0, 1].

    h is taken at its smaller argument (1 - sqrt(1 - C^2)) / 2, written as
    C^2 / (2 (1 + sqrt((1 - C)(1 + C)))), and through log1p, so that a small
    C (a state near its threshold) loses no digits to cancellation.
    """
    root = math.sqrt((1.0 - c) * (1.0 + c))
    small = c * c / (2.0 * (1.0 + root))
    # written as -a - b, since -(a + b) is -0.0 where C = 0; 0 log 0 = 0
    return -(small * log2(small) if small > 0.0 else 0.0) - (1.0 - small) * math.log1p(-small) / _LN2


def _correlations(gamma: float, b1: float, b2: float, t: float) -> tuple[float, float, float, float]:
    """Total, quantum and classical correlation and concurrence at one point (see closed_form_correlations)."""
    p_uu, p_dd, p_hi, p_lo, rho22, rho33, coherence, corners = _x_form(gamma, b1, b2, t)
    # no clamp at 1: 2 coherence <= p_lo <= 1 with every rounding step too, and
    # corners >= 0 (a C above 1 would make _formation's sqrt raise)
    c = max(2.0 * (coherence - corners), 0.0)
    # the entropies, each x log2 x (0 at x = 0) written out and summed left to right as a + b + c + d
    s12 = -(
        (p_uu * log2(p_uu) if p_uu > 0.0 else 0.0)
        + (p_dd * log2(p_dd) if p_dd > 0.0 else 0.0)
        + (p_hi * log2(p_hi) if p_hi > 0.0 else 0.0)
        + (p_lo * log2(p_lo) if p_lo > 0.0 else 0.0)
    )
    up, down = p_uu + rho22, rho33 + p_dd
    s1 = -((up * log2(up) if up > 0.0 else 0.0) + (down * log2(down) if down > 0.0 else 0.0))
    up, down = p_uu + rho33, rho22 + p_dd
    s2 = -((up * log2(up) if up > 0.0 else 0.0) + (down * log2(down) if down > 0.0 else 0.0))
    total = max(s1 + s2 - s12, 0.0)  # >= 0 by subadditivity; clamp the rounding
    quantum = _formation(c)
    return total, quantum, total - quantum, c


def _kernel_columns(kernel, width: int, gamma: list, b1: list, b2: list, t: list) -> list[list[float]]:
    """The scalar ``kernel`` over equal-length float lists, every point checked first: ``width`` output lists."""
    _check_params(gamma, b1, b2)
    check_positive_finite(t)
    rows = list(map(kernel, gamma, b1, b2, t))
    return [list(column) for column in zip(*rows)] if rows else [[] for _ in range(width)]


def _map_kernel(kernel, width: int, gamma, b1, b2, t) -> list:
    """_kernel_columns at one point or over arrays that broadcast (ValueError if not): one result per output.

    Numbers (Python or numpy scalars) give floats, with numpy left unloaded
    for Python numbers; arrays, a 0-d one included, give arrays of the
    broadcast shape.
    """
    args = (gamma, b1, b2, t)
    numpy = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    scalars = (int, float) if numpy is None else (int, float, numpy.generic)
    if all(isinstance(a, scalars) for a in args):
        return [column[0] for column in _kernel_columns(kernel, width, *([float(a)] for a in args))]
    import numpy as np

    arrays = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in args))
    columns = _kernel_columns(kernel, width, *(a.ravel().tolist() for a in arrays))
    return [np.array(column, dtype=float).reshape(arrays[0].shape) for column in columns]


def thermal_state_analytic(gamma, b1, b2, t) -> np.ndarray:
    """Closed-form Gibbs state, any (gamma, b1, b2) and any T > 0.

    An X-state: the populations of |uu> and |dd> in the corners, and the
    |ud>, |du> block split by the mixing angle with rho23 = rho32 =
    -(p_lo - p_hi) sin(theta) / 2, all read from _x_form.  Numbers give one
    4x4 state, and arrays that broadcast a (..., 4, 4) stack; the inputs
    are validated as in closed_form_correlations.
    """
    import numpy as np

    p_uu, p_dd, _, _, rho22, rho33, coherence, _ = _map_kernel(_x_form, 8, gamma, b1, b2, t)
    rho = np.zeros(np.shape(p_uu) + (4, 4), dtype=complex)
    rho[..., 0, 0], rho[..., 3, 3] = p_uu, p_dd
    rho[..., 1, 1], rho[..., 2, 2] = rho22, rho33
    rho[..., 1, 2] = rho[..., 2, 1] = -coherence
    return rho


def thermal_state(p: ModelParams, t) -> np.ndarray:
    """Gibbs state of the dimer at one point ``p``, checked as a ModelParams, by the dense route.

    Any T > 0; an array of temperatures gives a (..., 4, 4) stack, built
    with one eigensolver call.  A stack over parameters is
    gibbs(build_hamiltonian(gamma, b1, b2), t).
    """
    from .matkernel import gibbs

    return gibbs(build_hamiltonian(*ModelParams(*p)), t)


def closed_form_correlations(gamma, b1, b2, t) -> dict:
    """Total, quantum and classical correlation (bits) and concurrence of the Gibbs state.

    Numbers (Python or numpy scalars) give floats.  Arrays, a 0-d array
    included, broadcast against each other, and every result is an array
    of the broadcast shape, the kernel's value at each
    point.  From the X-state of _x_form, built on the ground-shifted
    Boltzmann populations of the four levels:

    - S12 is the entropy of the populations, and both marginals are diagonal;
    - rho22 and rho33 split the mixed pair by the mixing angle, with
      1 - |cos(theta)| written as (1-gamma)^2 / (r (r + |b1-b2|)) so that
      strong fields lose no digits to cancellation;
    - |rho23| = (p_low - p_high) sin(theta) / 2 and rho14 = 0, so the
      concurrence is C = 2 max(0, |rho23| - sqrt(rho11 rho44))
      (Yu and Eberly, QIC 7, 459 (2007); Wootters, PRL 80, 2245 (1998));
    - quantum is the entanglement of formation of C, h((1 + sqrt(1 - C^2)) / 2),
      taken without cancellation (_formation).

    Nothing overflows at any T > 0, and no result is -0.0.
    Non-finite inputs, gamma outside [-1, 1] and T <= 0 raise DomainError.
    """
    return dict(zip(OUTPUTS, _map_kernel(_correlations, len(OUTPUTS), gamma, b1, b2, t)))
