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
Gaussian (4 pi / c source factors) with a configurable c defaulting to 1,
which every function refuses unless 0 < c < inf.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .quaternion import ETA_0, ETA_X, ETA_Y, ETA_Z, _checked_make

FOUR_PI = 4.0 * math.pi


class DegenerateStep(ValueError):
    """Finite-difference step is zero, negative or NaN."""


class FourPotential(namedtuple("FourPotential", "phi a")):
    """Scalar potential phi(t, x, y, z) -> float and vector potential a(t, x, y, z) -> 3-vector."""

    __slots__ = ()


class EmFieldSample(namedtuple("EmFieldSample", "e b")):
    """Electric and magnetic field 3-vectors at one spacetime point, or equal-shape (..., 3) batches."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, e, b):
        e, b = np.asarray(e, dtype=float), np.asarray(b, dtype=float)
        if e.shape[-1:] != (3,) or e.shape != b.shape:
            raise ValueError("e and b must be 3-vectors or equal-shape (..., 3) batches")
        return super().__new__(cls, e, b)


class EmTensor(namedtuple("EmTensor", "f")):
    """Complex field triple f_k = B_k - i E_k (or a (..., 3) batch) with its 4x4 matrix view."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, f):
        f = np.asarray(f, dtype=complex)
        if f.shape[-1:] != (3,):
            raise ValueError("f must be a complex 3-vector or a (..., 3) batch")
        return super().__new__(cls, f)

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


class FourCurrent(namedtuple("FourCurrent", "rho j")):
    """Charge density rho and current density 3-vector j."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, rho, j):
        j = np.asarray(j, dtype=float)
        if j.shape != (3,):
            raise ValueError("j must be a 3-vector")
        return super().__new__(cls, rho, j)


ZERO_CURRENT = FourCurrent(rho=0.0, j=np.zeros(3))


class MaxwellResidual(namedtuple("MaxwellResidual", "gauss_b faraday ampere gauss_e")):
    """The four law residuals: div B (float), Faraday and Ampere (3-vectors), div E - 4 pi rho (float)."""

    __slots__ = ()

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(part))) for part in self)


# ---------------------------------------------------------------------------
# pointwise differencing


def _check_light_speed(c: float) -> None:
    """The speed of light rule of every function that takes c: ValueError unless 0 < c < inf."""
    if not 0.0 < c < math.inf:
        raise ValueError(f"c must be positive and finite, got {c!r}")


def _stencil(fn, point, h: float) -> list:
    """fn at point + h and point - h along each of t, x, y, z: four (plus, minus) pairs; needs 0 < h < inf."""
    if not 0.0 < h < math.inf:  # an infinite step would difference a constant field to an exact 0
        raise DegenerateStep(f"step h must be positive and finite, got {h!r}")
    pairs = []
    for axis in range(4):
        plus, minus = list(point), list(point)
        plus[axis] += h
        minus[axis] -= h
        pairs.append((fn(*plus), fn(*minus)))
    return pairs


def _jacobian(pairs, h: float) -> np.ndarray:
    """2nd-order central first derivatives from the _stencil pairs of an array-valued function.

    Row mu is the derivative along t, x, y, z; for a 3-vector field, column k is component k.
    """
    return np.array([(np.asarray(plus) - np.asarray(minus)) / (2.0 * h) for plus, minus in pairs])


def _div(jac) -> float:
    """Divergence of a 3-vector field from its (4, 3) Jacobian."""
    return float(sum(jac[1 + k, k] for k in range(3)))


def _curl(jac) -> np.ndarray:
    """Curl of a 3-vector field from its (4, 3) Jacobian."""
    return np.array([jac[2, 2] - jac[3, 1], jac[3, 0] - jac[1, 2], jac[1, 1] - jac[2, 0]])


# ---------------------------------------------------------------------------
# potentials


def fields_from_potential(pot: FourPotential, point, h: float, c: float = 1.0) -> EmFieldSample:
    """B = curl A and E = -grad phi - (1/c) dA/dt by central differences."""
    _check_light_speed(c)
    da = _jacobian(_stencil(pot.a, point, h), h)
    dphi = _jacobian(_stencil(pot.phi, point, h), h)
    return EmFieldSample(e=-dphi[1:] - da[0] / c, b=_curl(da))


def lorenz_gauge_residual(pot: FourPotential, point, h: float, c: float = 1.0) -> float:
    """(1/c) d phi/dt + div A; zero for a potential in Lorenz gauge."""
    _check_light_speed(c)
    da = _jacobian(_stencil(pot.a, point, h), h)
    dphi = _jacobian(_stencil(pot.phi, point, h), h)
    return float(dphi[0]) / c + _div(da)


def potential_matrix(pot: FourPotential, t, x, y, z) -> np.ndarray:
    """4x4 realization i*phi*eta_0 + Ax*eta_x + Ay*eta_y + Az*eta_z."""
    a = np.asarray(pot.a(t, x, y, z), dtype=float)
    return 1j * pot.phi(t, x, y, z) * ETA_0 + a[0] * ETA_X + a[1] * ETA_Y + a[2] * ETA_Z


def current_matrix(cur: FourCurrent, c: float = 1.0) -> np.ndarray:
    """4x4 realization -i*c*rho*eta_0 + jx*eta_x + jy*eta_y + jz*eta_z."""
    _check_light_speed(c)
    return -1j * c * cur.rho * ETA_0 + cur.j[0] * ETA_X + cur.j[1] * ETA_Y + cur.j[2] * ETA_Z


def apply_dirac(mat_fn, point, h: float, c: float = 1.0, transpose: bool = False) -> np.ndarray:
    """Apply D (or D^T) to a 4x4-matrix-valued function of spacetime.

    D M = i c^-1 eta_0 (dt M) + eta_x (dx M) + eta_y (dy M) + eta_z (dz M);
    the transpose flips the sign of the three spatial basis matrices.
    """
    _check_light_speed(c)
    sign = -1.0 if transpose else 1.0
    dm = _jacobian(_stencil(mat_fn, point, h), h)
    out = (1j / c) * ETA_0 @ dm[0]
    for axis, eta in ((1, ETA_X), (2, ETA_Y), (3, ETA_Z)):
        out = out + sign * eta @ dm[axis]
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
    eta components of D F - (4 pi / c) J.  All four are read off one
    Jacobian of (E, B): field_fn is called once at each of the 8 stencil points.
    """
    _check_light_speed(c)
    pairs = _stencil(field_fn, point, h)
    de = _jacobian([(plus.e, minus.e) for plus, minus in pairs], h)
    db = _jacobian([(plus.b, minus.b) for plus, minus in pairs], h)
    src = source_fn(*point) if source_fn is not None else ZERO_CURRENT
    gauss_b = _div(db)
    faraday = _curl(de) + db[0] / c
    ampere = _curl(db) - de[0] / c - (FOUR_PI / c) * src.j
    gauss_e = _div(de) - FOUR_PI * src.rho
    return MaxwellResidual(gauss_b=gauss_b, faraday=faraday, ampere=ampere, gauss_e=gauss_e)


def wave_residual(field_fn, point, h: float, c: float = 1.0) -> np.ndarray:
    """(laplacian - (1/c^2) dtt) (B - i E), via the composed second stencil.

    The second difference (f(+2h) - 2f + f(-2h)) / (4h^2) along each axis is
    two first-order central differences applied in sequence, which is exactly
    the stencil the operator product D^T D generates.  field_fn is called 9
    times: at the point and at +-2h along every axis.  Zero for any vacuum
    solution of the Maxwell equations.
    """
    _check_light_speed(c)
    pairs = _stencil(field_fn, point, 2.0 * h)  # first: a bad step raises before field_fn is called
    f0 = em_tensor(field_fn(*point)).f
    dtt, dxx, dyy, dzz = [(em_tensor(plus).f - 2.0 * f0 + em_tensor(minus).f) / (4.0 * h * h)
                          for plus, minus in pairs]
    return -dtt / (c * c) + dxx + dyy + dzz


def continuity_residual(source_fn, point, h: float) -> float:
    """d rho/dt + div j by central differences; the trace form of D^T J / 4."""
    pairs = _stencil(source_fn, point, h)
    drho = _jacobian([(plus.rho, minus.rho) for plus, minus in pairs], h)
    dj = _jacobian([(plus.j, minus.j) for plus, minus in pairs], h)
    return float(drho[0]) + _div(dj)


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
