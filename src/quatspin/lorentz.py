"""Lorentz transformations of the complex electromagnetic field.

Rotations and boosts act on the 4x4 tensor realization by the conjugation
F' = L F L^T, with generators

    L = nu0 eta_0 + nu_x eta_x + nu_y eta_y + nu_z eta_z.

Rotations carry real coefficients (nu0, nu) = (cos(a/2), m sin(a/2)) with
nu0^2 + |nu|^2 = 1.  Boosts store the real pair (cosh(phi/2), m sinh(phi/2))
with nu0^2 - |nu|^2 = 1 and pick up a factor i on the vector part at matrix
realization time; that is the unique choice keeping L L^T equal to the
identity while reproducing the familiar E/B boost mix.

Closed forms in this module act on the field triple F = -B + i E; the
tensor type stores f = B - i E, so the adapter between them is a plain
negation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .emfield import EmFieldSample, EmTensor
from .quaternion import ETA_0, ETA_X, ETA_Y, ETA_Z, NonUnitAxis, UNIT_TOL_INPUT

KIND_ROTATION = "rotation"
KIND_BOOST = "boost"

_CONSTRAINT_TOL = 1e-12  # scaled by max(1, nu0^2): the terms compared carry round-off at that scale


class SuperluminalSpeed(ValueError):
    """Boost speed at or above c."""


def _unit_axis(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (3,):
        raise NonUnitAxis(f"axis must be a 3-vector, got shape {m.shape}")
    n = float(np.linalg.norm(m))
    if abs(n - 1.0) > UNIT_TOL_INPUT:
        raise NonUnitAxis(f"|m| = {n!r} is not 1 within {UNIT_TOL_INPUT}")
    return m / n


@dataclass(frozen=True)
class LorentzQuat:
    """Generator coefficients (nu0, nu) plus the kind that fixes realization."""

    nu0: float
    nu: np.ndarray
    kind: str

    def __post_init__(self):
        object.__setattr__(self, "nu", np.asarray(self.nu, dtype=float))
        if self.nu.shape != (3,):
            raise ValueError("nu must be a 3-vector")
        if self.kind not in (KIND_ROTATION, KIND_BOOST):
            raise ValueError(f"unknown kind {self.kind!r}")
        nsq = float(self.nu @ self.nu)
        if self.kind == KIND_ROTATION:
            err = abs(self.nu0 * self.nu0 + nsq - 1.0)
        else:
            err = abs(self.nu0 * self.nu0 - nsq - 1.0)
        if not err <= _CONSTRAINT_TOL * max(1.0, self.nu0 * self.nu0):
            raise ValueError(f"{self.kind} constraint violated by {err!r}")

    def _vector_coeffs(self) -> np.ndarray:
        if self.kind == KIND_BOOST:
            return 1j * self.nu
        return self.nu.astype(complex)

    @property
    def matrix(self) -> np.ndarray:
        """4x4 realization nu0 eta_0 + sum_k nu_k eta_k (boosts: i nu_k)."""
        v = self._vector_coeffs()
        return self.nu0 * ETA_0 + v[0] * ETA_X + v[1] * ETA_Y + v[2] * ETA_Z

    @property
    def matrix_t(self) -> np.ndarray:
        """The transposed realization nu0 eta_0 - sum_k nu_k eta_k."""
        v = self._vector_coeffs()
        return self.nu0 * ETA_0 - v[0] * ETA_X - v[1] * ETA_Y - v[2] * ETA_Z


def rotation_generator(m, alpha: float) -> LorentzQuat:
    """Rotation about unit axis m by angle alpha: (cos(a/2), m sin(a/2))."""
    m = _unit_axis(m)
    return LorentzQuat(nu0=math.cos(0.5 * alpha), nu=m * math.sin(0.5 * alpha), kind=KIND_ROTATION)


def boost_generator(m, rapidity: float) -> LorentzQuat:
    """Boost along unit axis m with rapidity phi: (cosh(phi/2), m sinh(phi/2)).

    cosh(phi) is the Lorentz factor gamma and tanh(phi) = v/c; rapidities
    along one axis add under composition.
    """
    m = _unit_axis(m)
    return LorentzQuat(nu0=math.cosh(0.5 * rapidity), nu=m * math.sinh(0.5 * rapidity), kind=KIND_BOOST)


def boost_from_velocity(v, c: float = 1.0) -> LorentzQuat:
    """Boost for velocity 3-vector v, |v| < c; rapidity = artanh(|v|/c)."""
    v = np.asarray(v, dtype=float)
    speed = float(np.linalg.norm(v))
    if speed >= c:
        raise SuperluminalSpeed(f"|v| = {speed!r} must be below c = {c!r}")
    if speed == 0.0:
        return LorentzQuat(nu0=1.0, nu=np.zeros(3), kind=KIND_BOOST)
    return boost_generator(v / speed, math.atanh(speed / c))


def transform_tensor(L: LorentzQuat, F: EmTensor) -> EmTensor:
    """Conjugated tensor F' = L F L^T, returned in the same f = B - i E storage."""
    m = L.matrix @ F.matrix @ L.matrix_t
    return EmTensor.from_matrix(m)


# ---------------------------------------------------------------------------
# closed forms on the field triple F = -B + i E


def field_triple(sample: EmFieldSample) -> np.ndarray:
    """Complex triple -B + i E used by the closed-form transformation laws."""
    return -sample.b + 1j * sample.e


def triple_to_fields(F) -> EmFieldSample:
    F = np.asarray(F, dtype=complex)
    return EmFieldSample(e=np.imag(F), b=-np.real(F))


def triple_from_tensor(F: EmTensor) -> np.ndarray:
    """Adapter from the tensor storage f = B - i E: a plain negation."""
    return -F.f


def tensor_from_triple(F) -> EmTensor:
    return EmTensor(f=-np.asarray(F, dtype=complex))


def rotate_field_closed(F, m, alpha: float) -> np.ndarray:
    """F cos a + m (m.F)(1 - cos a) - (m x F) sin a.

    Rotates the electric and magnetic parts independently; agrees with
    transform_tensor for the rotation generator on the same axis and angle.
    """
    m = _unit_axis(m)
    F = np.asarray(F, dtype=complex)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return F * ca + m * (m @ F) * (1.0 - ca) - np.cross(m, F) * sa


def boost_field_closed(F, m, rapidity: float) -> np.ndarray:
    """F cosh phi + m (m.F)(1 - cosh phi) - i (m x F) sinh phi.

    The imaginary cross term is what mixes E into B and back; agrees with
    transform_tensor for the boost generator on the same axis and rapidity.
    """
    m = _unit_axis(m)
    F = np.asarray(F, dtype=complex)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    return F * ch + m * (m @ F) * (1.0 - ch) - 1j * np.cross(m, F) * sh


def eb_boost(e, b, v, c: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise boost of (E, B) by velocity v, |v| < c.

        E' = g E - (g - 1)(E.v) v / v^2 + (g/c) v x B
        B' = g B - (g - 1)(B.v) v / v^2 - (g/c) v x E

    with g = 1/sqrt(1 - (v/c)^2).  Both field invariants are preserved;
    the energy density is not.
    """
    e = np.asarray(e, dtype=float)
    b = np.asarray(b, dtype=float)
    v = np.asarray(v, dtype=float)
    speed_sq = float(v @ v)
    if speed_sq >= c * c:
        raise SuperluminalSpeed(f"|v| = {math.sqrt(speed_sq)!r} must be below c = {c!r}")
    if speed_sq == 0.0:
        return e.copy(), b.copy()
    g = 1.0 / math.sqrt(1.0 - speed_sq / (c * c))
    e_out = g * e - (g - 1.0) * (e @ v) * v / speed_sq + (g / c) * np.cross(v, b)
    b_out = g * b - (g - 1.0) * (b @ v) * v / speed_sq - (g / c) * np.cross(v, e)
    return e_out, b_out
