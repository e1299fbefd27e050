"""Maxwell electromagnetism as a complex field on the eta basis.

The magnetic and electric fields combine into one complex 3-vector
f_k = B_k - i E_k whose 4x4 matrix realization is sum_k (-f_k) eta_k.
Applying the first-order operator

    D = i c^-1 dt eta_0 + dx eta_x + dy eta_y + dz eta_z

to that matrix reproduces all four Maxwell laws at once, and D^T D is the
scalar wave operator times the identity.

All differentiation here is pointwise 2nd-order central differencing of
caller-supplied analytic field functions; there is no stored grid state.
Functions of spacetime take the four scalars (t, x, y, z).  Units are
Gaussian (4 pi / c source factors) with a configurable c defaulting to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .quaternion import ETA_0, ETA_X, ETA_Y, ETA_Z

FOUR_PI = 4.0 * math.pi


class DegenerateStep(ValueError):
    """Finite-difference step is zero or negative."""


def _check_step(h: float):
    if not h > 0.0:
        raise DegenerateStep(f"step h must be positive, got {h!r}")


@dataclass(frozen=True)
class FourPotential:
    """Scalar potential phi(t,x,y,z) and vector potential a(t,x,y,z) -> 3-vector."""

    phi: Callable[[float, float, float, float], float]
    a: Callable[[float, float, float, float], np.ndarray]


@dataclass(frozen=True)
class EmFieldSample:
    """Electric and magnetic field 3-vectors at one spacetime point, or equal-shape (..., 3) batches."""

    e: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "e", np.asarray(self.e, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        if self.e.shape[-1:] != (3,) or self.e.shape != self.b.shape:
            raise ValueError("e and b must be 3-vectors or equal-shape (..., 3) batches")


@dataclass(frozen=True)
class EmTensor:
    """Complex field triple f_k = B_k - i E_k (or a (..., 3) batch) with its 4x4 matrix view."""

    f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "f", np.asarray(self.f, dtype=complex))
        if self.f.shape[-1:] != (3,):
            raise ValueError("f must be a complex 3-vector or a (..., 3) batch")

    @property
    def matrix(self) -> np.ndarray:
        """Zero-diagonal (..., 4, 4) realization sum_k (-f_k) eta_k."""
        return -np.tensordot(self.f, (ETA_X, ETA_Y, ETA_Z), axes=1)

    @classmethod
    def from_matrix(cls, m) -> "EmTensor":
        """Rebuild the coefficients from the matrix view (lossless: first column)."""
        m = np.asarray(m, dtype=complex)
        return cls(f=-m[..., 1:4, 0])

    def fields(self) -> EmFieldSample:
        return EmFieldSample(e=-np.imag(self.f), b=np.real(self.f))


@dataclass(frozen=True)
class FourCurrent:
    """Charge density rho and current density 3-vector j."""

    rho: float
    j: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "j", np.asarray(self.j, dtype=float))
        if self.j.shape != (3,):
            raise ValueError("j must be a 3-vector")


ZERO_CURRENT = FourCurrent(rho=0.0, j=np.zeros(3))


@dataclass(frozen=True)
class MaxwellResidual:
    """The four law residuals: div B, Faraday, Ampere, div E - 4 pi rho."""

    gauss_b: float
    faraday: np.ndarray
    ampere: np.ndarray
    gauss_e: float

    def max_abs(self) -> float:
        return max(
            abs(self.gauss_b),
            float(np.max(np.abs(self.faraday))),
            float(np.max(np.abs(self.ampere))),
            abs(self.gauss_e),
        )


# ---------------------------------------------------------------------------
# pointwise differencing


def _shift(point, axis: int, delta: float) -> tuple:
    p = list(point)
    p[axis] += delta
    return tuple(p)


def _partial(fn, point, axis: int, h: float):
    """2nd-order central first derivative along one spacetime axis."""
    return (np.asarray(fn(*_shift(point, axis, h))) - np.asarray(fn(*_shift(point, axis, -h)))) / (2.0 * h)


def _second(fn, point, axis: int, h: float):
    """Composed central second derivative (f(+2h) - 2f + f(-2h)) / (4h^2).

    This is two first-order central differences applied in sequence, which
    is exactly the stencil the operator product D^T D generates.
    """
    plus = np.asarray(fn(*_shift(point, axis, 2.0 * h)))
    minus = np.asarray(fn(*_shift(point, axis, -2.0 * h)))
    return (plus - 2.0 * np.asarray(fn(*point)) + minus) / (4.0 * h * h)


def _div(vec_fn, point, h: float) -> float:
    return float(sum(_partial(vec_fn, point, 1 + k, h)[k] for k in range(3)))


def _curl(vec_fn, point, h: float) -> np.ndarray:
    dx = _partial(vec_fn, point, 1, h)
    dy = _partial(vec_fn, point, 2, h)
    dz = _partial(vec_fn, point, 3, h)
    return np.array([dy[2] - dz[1], dz[0] - dx[2], dx[1] - dy[0]])


def _grad(scalar_fn, point, h: float) -> np.ndarray:
    return np.array([float(_partial(scalar_fn, point, 1 + k, h)) for k in range(3)])


# ---------------------------------------------------------------------------
# potentials


def fields_from_potential(pot: FourPotential, point, h: float, c: float = 1.0) -> EmFieldSample:
    """B = curl A and E = -grad phi - (1/c) dA/dt by central differences."""
    _check_step(h)
    b = _curl(pot.a, point, h)
    e = -_grad(pot.phi, point, h) - _partial(pot.a, point, 0, h) / c
    return EmFieldSample(e=e, b=b)


def lorenz_gauge_residual(pot: FourPotential, point, h: float, c: float = 1.0) -> float:
    """(1/c) d phi/dt + div A; zero for a potential in Lorenz gauge."""
    _check_step(h)
    return float(_partial(pot.phi, point, 0, h)) / c + _div(pot.a, point, h)


def potential_matrix(pot: FourPotential, t, x, y, z, c: float = 1.0) -> np.ndarray:
    """4x4 realization i*phi*eta_0 + Ax*eta_x + Ay*eta_y + Az*eta_z.

    The c argument is accepted for signature symmetry with apply_dirac.
    """
    a = np.asarray(pot.a(t, x, y, z), dtype=float)
    return 1j * pot.phi(t, x, y, z) * ETA_0 + a[0] * ETA_X + a[1] * ETA_Y + a[2] * ETA_Z


def current_matrix(cur: FourCurrent, c: float = 1.0) -> np.ndarray:
    """4x4 realization -i*c*rho*eta_0 + jx*eta_x + jy*eta_y + jz*eta_z."""
    return -1j * c * cur.rho * ETA_0 + cur.j[0] * ETA_X + cur.j[1] * ETA_Y + cur.j[2] * ETA_Z


def apply_dirac(mat_fn, point, h: float, c: float = 1.0, transpose: bool = False) -> np.ndarray:
    """Apply D (or D^T) to a 4x4-matrix-valued function of spacetime.

    D M = i c^-1 eta_0 (dt M) + eta_x (dx M) + eta_y (dy M) + eta_z (dz M);
    the transpose flips the sign of the three spatial basis matrices.
    """
    _check_step(h)
    sign = -1.0 if transpose else 1.0
    out = (1j / c) * ETA_0 @ _partial(mat_fn, point, 0, h)
    for axis, eta in ((1, ETA_X), (2, ETA_Y), (3, ETA_Z)):
        out = out + sign * eta @ _partial(mat_fn, point, axis, h)
    return out


def eta_decompose(m) -> np.ndarray:
    """Coefficients (c0, cx, cy, cz) of an eta-span matrix (its first column)."""
    m = np.asarray(m, dtype=complex)
    return m[:, 0].copy()


# ---------------------------------------------------------------------------
# fields


def em_tensor(sample: EmFieldSample) -> EmTensor:
    """Complex tensor f_k = B_k - i E_k from a field sample."""
    return EmTensor(f=sample.b - 1j * sample.e)


def maxwell_residual(field_fn, source_fn, point, h: float, c: float = 1.0) -> MaxwellResidual:
    """Central-difference residuals of the four Maxwell laws at one point.

        gauss_b = div B
        faraday = curl E + (1/c) dB/dt
        ampere  = curl B - (1/c) dE/dt - (4 pi / c) j
        gauss_e = div E - 4 pi rho

    field_fn maps (t,x,y,z) to an EmFieldSample; source_fn maps (t,x,y,z)
    to a FourCurrent, or is None for vacuum.  The same four numbers are the
    eta components of D F - (4 pi / c) J.
    """
    _check_step(h)

    def e_fn(*p):
        return field_fn(*p).e

    def b_fn(*p):
        return field_fn(*p).b

    src = source_fn(*point) if source_fn is not None else ZERO_CURRENT
    gauss_b = _div(b_fn, point, h)
    faraday = _curl(e_fn, point, h) + _partial(b_fn, point, 0, h) / c
    ampere = _curl(b_fn, point, h) - _partial(e_fn, point, 0, h) / c - (FOUR_PI / c) * src.j
    gauss_e = _div(e_fn, point, h) - FOUR_PI * src.rho
    return MaxwellResidual(gauss_b=gauss_b, faraday=faraday, ampere=ampere, gauss_e=gauss_e)


def wave_residual(field_fn, point, h: float, c: float = 1.0) -> np.ndarray:
    """(laplacian - (1/c^2) dtt) (B - i E), via the composed second stencil.

    Needs field samples up to +-2h along every axis.  Zero for any vacuum
    solution of the Maxwell equations.
    """
    _check_step(h)

    def f_fn(*p):
        s = field_fn(*p)
        return s.b - 1j * s.e

    out = -_second(f_fn, point, 0, h) / (c * c)
    for axis in (1, 2, 3):
        out = out + _second(f_fn, point, axis, h)
    return out


def continuity_residual(source_fn, point, h: float) -> float:
    """d rho/dt + div j by central differences; the trace form of D^T J / 4."""
    _check_step(h)

    def rho_fn(*p):
        return source_fn(*p).rho

    def j_fn(*p):
        return source_fn(*p).j

    return float(_partial(rho_fn, point, 0, h)) + _div(j_fn, point, h)


# ---------------------------------------------------------------------------
# quadratic forms


def _dot(a, b):
    """Row-wise a . b over the last axis: a float for one sample, an array for a batch."""
    d = np.einsum("...i,...i->...", a, b)
    return float(d) if d.ndim == 0 else d


def energy_quadratic(sample: EmFieldSample) -> tuple[float, np.ndarray]:
    """Energy density W0 = (E^2 + B^2)/2 and flux W = E x B, row-wise for a batch.

    Equals the eta decomposition of (1/2) F F* with entrywise conjugation:
    the eta_0 coefficient is -W0 and the vector coefficients are i W.
    """
    e, b = sample.e, sample.b
    return 0.5 * (_dot(e, e) + _dot(b, b)), np.cross(e, b)


def lorentz_invariants(sample: EmFieldSample) -> tuple[float, float]:
    """The two field invariants I1 = (B^2 - E^2)/2 and I2 = E . B, row-wise for a batch.

    (1/2) F^T F is (I1 - i I2) times the identity; both numbers are
    unchanged by every rotation and boost, unlike the energy density.
    """
    e, b = sample.e, sample.b
    return 0.5 * (_dot(b, b) - _dot(e, e)), _dot(e, b)
