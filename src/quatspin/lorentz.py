"""Lorentz transformations of the complex electromagnetic field.

Rotations and boosts act on the 4x4 tensor realization by the conjugation
F' = L F L^T, with generators

    L = nu0 eta_0 + v_x eta_x + v_y eta_y + v_z eta_z,  (nu0, v) = (cos(z/2), m sin(z/2)).

A boost is a rotation by an imaginary angle: z is the angle a of a rotation,
or i phi for a boost of rapidity phi, realized as (cosh(phi/2), i m sinh(phi/2)).
One constraint nu0^2 + v.v = 1 holds for both kinds and keeps L L^T equal to
the identity.  The batch kernels carry realized coefficients; LorentzQuat
stores the real pair (nu0, nu), realized as v = nu, or i nu for a boost.

The eta realization is a ring homomorphism and L^T realizes the conjugate
quaternion, so the conjugation is the product L (x) (0, f) (x) conj(L) on
complex coefficients.  Closed forms in this module act on the field triple
F = -B + i E; the tensor type stores f = B - i E, so the adapter between
them is a plain negation.  Every kernel works row-wise on (..., 3) arrays.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .emfield import EmFieldSample, EmTensor, _check_light_speed
from .quaternion import ETA_0, ETA_X, ETA_Y, ETA_Z, NonUnitAxis, UNIT_TOL_INPUT, _checked_make, _mul4

KIND_ROTATION = "rotation"
KIND_BOOST = "boost"

_CONSTRAINT_TOL = 1e-12  # scaled by max(1, nu0^2): the terms compared carry round-off at that scale


class SuperluminalSpeed(ValueError):
    """Boost speed at or above c."""


def _unit_axes(m) -> np.ndarray:
    """Row-wise unit axes from a (..., 3) array; raises NonUnitAxis naming the first bad row."""
    m = np.asarray(m, dtype=float)
    if m.shape[-1:] != (3,):
        raise NonUnitAxis(f"axis must be a 3-vector, got shape {m.shape}")
    n = np.linalg.norm(m, axis=-1, keepdims=True)
    bad = ~(np.abs(n - 1.0) <= UNIT_TOL_INPUT)
    if np.any(bad):
        raise NonUnitAxis(f"|m| = {float(n[bad][0])!r} is not 1 within {UNIT_TOL_INPUT}")
    return m / n


def _trig(angle, boost):
    """Row-wise complex (cos z, sin z) of z = angle, or of z = i angle where boost is set: (cosh, i sinh) there."""
    with np.errstate(over="raise", invalid="raise"):  # an overflowing boost or an infinite angle raises
        z = np.asarray(angle, dtype=float) * np.where(boost, 1j, 1.0)
        return np.cos(z), np.sin(z)


def _check_constraint(nu0, v, boost):
    """nu0^2 + v.v = 1 row-wise, relative to max(1, nu0^2); raises ValueError naming the first bad row's kind."""
    err = np.abs(nu0 * nu0 + np.einsum("...i,...i->...", v, v) - 1.0)
    bad = ~(err <= _CONSTRAINT_TOL * np.maximum(1.0, nu0 * nu0))
    if np.any(bad):
        k = np.argmax(bad)
        kind = KIND_BOOST if np.ravel(np.broadcast_to(boost, np.shape(bad)))[k] else KIND_ROTATION
        raise ValueError(f"{kind} constraint violated by {float(np.ravel(err)[k])!r}")


class LorentzQuat(namedtuple("LorentzQuat", "nu0 nu kind")):
    """Real generator coefficients (nu0, nu) plus the kind that fixes their realization v."""

    __slots__ = ()
    _make = _checked_make

    def __new__(cls, nu0, nu, kind):
        nu = np.asarray(nu, dtype=float)
        if nu.shape != (3,):
            raise ValueError("nu must be a 3-vector")
        if kind not in (KIND_ROTATION, KIND_BOOST):
            raise ValueError(f"unknown kind {kind!r}")
        self = super().__new__(cls, float(nu0), nu, kind)
        _check_constraint(self.nu0, self.v, kind == KIND_BOOST)
        return self

    @property
    def v(self) -> np.ndarray:
        """Realized vector coefficients: nu, or i nu for a boost."""
        return self.nu * (1j if self.kind == KIND_BOOST else 1.0 + 0j)

    @property
    def matrix(self) -> np.ndarray:
        """4x4 realization nu0 eta_0 + sum_k v_k eta_k."""
        v = self.v
        return self.nu0 * ETA_0 + v[0] * ETA_X + v[1] * ETA_Y + v[2] * ETA_Z

    @property
    def matrix_t(self) -> np.ndarray:
        """The transposed realization nu0 eta_0 - sum_k v_k eta_k (each eta_k is antisymmetric)."""
        return self.matrix.T


def generator_batch(m, angle, boost) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise realized (nu0, v) for (..., 3) axes, angles and a boost mask, each row checked as LorentzQuat checks."""
    m = _unit_axes(m)
    c, s = _trig(0.5 * np.asarray(angle, dtype=float), boost)
    nu0, v = c.real, m * s[..., None]
    _check_constraint(nu0, v, boost)
    return nu0, v


def rotation_generator(m, alpha: float) -> LorentzQuat:
    """Rotation about unit axis m by angle alpha: (cos(a/2), m sin(a/2))."""
    nu0, v = generator_batch(m, alpha, False)
    return LorentzQuat(nu0, v.real, KIND_ROTATION)


def boost_generator(m, rapidity: float) -> LorentzQuat:
    """Boost along unit axis m with rapidity phi: (cosh(phi/2), m sinh(phi/2)).

    cosh(phi) is the Lorentz factor gamma and tanh(phi) = v/c; rapidities
    along one axis add under composition.
    """
    nu0, v = generator_batch(m, rapidity, True)
    return LorentzQuat(nu0, v.imag, KIND_BOOST)


def _velocity(v, c: float) -> tuple[float, np.ndarray]:
    """(|v| / c, unit axis; z at rest) of velocity v; ValueError unless 0 < c < inf, SuperluminalSpeed unless |v| < c.

    math.hypot reads |v| in one scaled pass, and the axis is v over its largest component, normalized: neither
    underflows or overflows, and (v 2^k, c 2^k) reads as (v, c) while the components stay normal.
    """
    _check_light_speed(c)
    v = np.asarray(v, dtype=float)
    if not (speed := math.hypot(*v)) < c:  # NaN too
        raise SuperluminalSpeed(f"|v| = {speed!r} must be below c = {c!r}")
    if speed == 0.0:  # rapidity 0 along any axis: nu0 = 1.0 and nu = +0.0
        return 0.0, np.array([0.0, 0.0, 1.0])
    axis = v / np.max(np.abs(v))
    return speed / c, axis / math.hypot(*axis)


def boost_from_velocity(v, c: float = 1.0) -> LorentzQuat:
    """Boost for velocity 3-vector v, |v| < c; rapidity = artanh(|v|/c).  c must be positive and finite."""
    beta, axis = _velocity(v, c)
    return boost_generator(axis, math.atanh(beta))


def transform_batch(nu0, v, f) -> np.ndarray:
    """Row-wise L F L^T for realized (nu0, v) on complex (..., 3) tensor coefficients f, as L (x) (0, f) (x) conj(L)."""
    v = np.moveaxis(v, -1, 0)
    f = np.moveaxis(np.asarray(f, dtype=complex), -1, 0)
    _, *out = _mul4(_mul4((nu0, *v), (0.0, *f)), (nu0, *-v))
    return np.stack(out, axis=-1)


def transform_tensor(L: LorentzQuat, F: EmTensor) -> EmTensor:
    """Conjugated tensor F' = L F L^T, returned in the same f = B - i E storage."""
    return EmTensor(f=transform_batch(L.nu0, L.v, F.f))


# ---------------------------------------------------------------------------
# closed forms on the field triple F = -B + i E


def field_triple(sample: EmFieldSample) -> np.ndarray:
    """Complex triple -B + i E used by the closed-form transformation laws."""
    return -sample.b + 1j * sample.e


def triple_to_fields(F) -> EmFieldSample:
    return EmFieldSample(e=np.imag(F), b=-np.real(F))


def triple_from_tensor(F: EmTensor) -> np.ndarray:
    """Adapter from the tensor storage f = B - i E: a plain negation."""
    return -F.f


def tensor_from_triple(F) -> EmTensor:
    return EmTensor(f=-np.asarray(F, dtype=complex))


def closed_form_batch(F, m, angle, boost) -> np.ndarray:
    """Row-wise rotate_field_closed, or boost_field_closed where boost is set."""
    m = _unit_axes(m)
    F = np.asarray(F, dtype=complex)
    c, s = _trig(angle, boost)
    mf = np.einsum("...i,...i->...", m, F)
    return F * c[..., None] + m * mf[..., None] * (1.0 - c)[..., None] - np.cross(m, F) * s[..., None]


def rotate_field_closed(F, m, alpha) -> np.ndarray:
    """F cos a + m (m.F)(1 - cos a) - (m x F) sin a.

    Rotates the electric and magnetic parts independently; agrees with
    transform_tensor for the rotation generator on the same axis and angle.
    """
    return closed_form_batch(F, m, alpha, False)


def boost_field_closed(F, m, rapidity) -> np.ndarray:
    """F cosh phi + m (m.F)(1 - cosh phi) - i (m x F) sinh phi.

    The imaginary cross term is what mixes E into B and back; agrees with
    transform_tensor for the boost generator on the same axis and rapidity.
    """
    return closed_form_batch(F, m, rapidity, True)


def eb_boost(e, b, v, c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise boost of (E, B) by velocity v = beta c n, |v| < c, n a unit axis:

        E' = g E - (g - 1)(E.n) n + g beta n x B
        B' = g B - (g - 1)(B.n) n - g beta n x E

    with g = 1/sqrt(1 - beta^2).  Both field invariants are preserved;
    the energy density is not.  c must be positive and finite.
    """
    e = np.asarray(e, dtype=float)
    b = np.asarray(b, dtype=float)
    beta, n = _velocity(v, c)
    if beta == 0.0:
        return e.copy(), b.copy()
    g = 1.0 / math.sqrt(1.0 - beta * beta)
    return (g * e - (g - 1.0) * (e @ n) * n + g * beta * np.cross(n, b),
            g * b - (g - 1.0) * (b @ n) * n - g * beta * np.cross(n, e))
