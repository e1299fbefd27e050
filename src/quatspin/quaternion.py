"""Quaternion algebra on the real 4x4 eta basis, with SU(2) and SO(3) views.

The multiplication convention is fixed by the basis relations

    eta_x eta_y = -eta_z   (and cyclic),    eta_k^2 = -eta_0,

which is the *opposite* handedness of the common Hamilton convention
(i j = +k).  Every map in this module (eta realization, SU(2) realization,
rotation matrix) is derived from that single convention; mixing in
Hamilton-convention formulas from elsewhere will silently flip signs.

A quaternion is stored as its coefficient 4-tuple (s0, sx, sy, sz); the
matrix realizations are derived views, never the source of truth.  Hot
paths apply _mul4 to component arrays and rotate_batch to (..., 4) rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Unit-norm tolerance up to which user-supplied axes, states and polarizations are accepted.
UNIT_TOL_INPUT = 1e-9

_BLOCK = 1024  # rows read out, spin steps sampled or stations committed per batch: temporaries stay near 1 MB


class NonUnitAxis(ValueError):
    """Axis vector is not unit length within tolerance."""


class NonUnitQuaternion(ValueError):
    """Quaternion is not unit norm within tolerance."""


def _unit_vector(v, error: type[ValueError], name: str) -> tuple[np.ndarray, float]:
    """(v, |v|) for a 3-vector within UNIT_TOL_INPUT of unit length; raises error otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise error(f"{name} must be a 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if not abs(n - 1.0) <= UNIT_TOL_INPUT:
        raise error(f"|{name}| = {n!r} is not 1 within {UNIT_TOL_INPUT}")
    return v, n


def _unit_norm_sq(q) -> np.ndarray:
    """|q|^2 per row of a (..., 4) array; raises NonUnitQuaternion if any is not 1 within UNIT_TOL_INPUT."""
    q0, qx, qy, qz = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    nsq = q0 * q0 + qx * qx + qy * qy + qz * qz
    bad = ~(np.abs(nsq - 1.0) <= UNIT_TOL_INPUT)
    if np.any(bad):
        raise NonUnitQuaternion(f"not unit norm: |q|^2 = {float(nsq[bad].flat[0])!r} is not 1 within {UNIT_TOL_INPUT}")
    return nsq


def _const(rows, dtype=float) -> np.ndarray:
    m = np.array(rows, dtype=dtype)
    m.flags.writeable = False
    return m


ETA_0 = _const([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
ETA_X = _const([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
ETA_Y = _const([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]])
ETA_Z = _const([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]])

SIGMA_0 = _const([[1, 0], [0, 1]], complex)
SIGMA_X = _const([[0, 1], [1, 0]], complex)
SIGMA_Y = _const([[0, -1j], [1j, 0]], complex)
SIGMA_Z = _const([[1, 0], [0, -1]], complex)


@dataclass(frozen=True)
class Quaternion:
    """Real quaternion (s0, sx, sy, sz); doubles as a spin-1/2 state vector."""

    s0: float
    sx: float
    sy: float
    sz: float

    @classmethod
    def from_array(cls, a) -> "Quaternion":
        a = np.asarray(a, dtype=float)
        if a.shape != (4,):
            raise ValueError(f"expected 4 components, got shape {a.shape}")
        return cls(*a.tolist())

    def as_array(self) -> np.ndarray:
        return np.array([self.s0, self.sx, self.sy, self.sz], dtype=float)

    def norm_sq(self) -> float:
        return self.s0 * self.s0 + self.sx * self.sx + self.sy * self.sy + self.sz * self.sz

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.s0, -self.sx, -self.sy, -self.sz)

    def normalized(self) -> "Quaternion":
        n = self.norm()
        if n == 0.0:
            raise NonUnitQuaternion("cannot normalize the zero quaternion")
        return Quaternion(self.s0 / n, self.sx / n, self.sy / n, self.sz / n)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.s0, -self.sx, -self.sy, -self.sz)


IDENTITY = Quaternion(1.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class Spinor2:
    """Two complex spin amplitudes (up, down)."""

    up: complex
    down: complex

    def norm_sq(self) -> float:
        return abs(self.up) ** 2 + abs(self.down) ** 2


def _mul4(a, b) -> tuple:
    """Product of two coefficient 4-sequences whose items are floats or equal-shape arrays."""
    a0, ax, ay, az = a
    b0, bx, by, bz = b
    return (
        a0 * b0 - ax * bx - ay * by - az * bz,
        ax * b0 + a0 * bx + az * by - ay * bz,
        ay * b0 - az * bx + a0 * by + ax * bz,
        az * b0 + ay * bx - ax * by + a0 * bz,
    )


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Product a (x) b; identical to the matrix-vector action to_eta(a) @ b.

    Norm is multiplicative: |a (x) b| = |a| |b|.
    """
    return Quaternion(*_mul4((a.s0, a.sx, a.sy, a.sz), (b.s0, b.sx, b.sy, b.sz)))


def to_eta(q: Quaternion) -> np.ndarray:
    """4x4 real realization s0*eta_0 + sx*eta_x + sy*eta_y + sz*eta_z.

    Ring homomorphism: to_eta(a (x) b) = to_eta(a) @ to_eta(b).  The first
    column of the result is the coefficient vector itself.
    """
    # the four eta matrices have disjoint supports, so each entry is one signed component
    s0, sx, sy, sz = q.s0, q.sx, q.sy, q.sz
    return np.array([[s0, -sx, -sy, -sz], [sx, s0, sz, -sy], [sy, -sz, s0, sx], [sz, sy, -sx, s0]], dtype=float)


def from_eta(m) -> Quaternion:
    """Read the unique coefficient quaternion back off an eta-span matrix."""
    m = np.asarray(m, dtype=float)
    return Quaternion(float(m[0, 0]), float(m[1, 0]), float(m[2, 0]), float(m[3, 0]))


def to_su2(q: Quaternion) -> np.ndarray:
    """2x2 complex realization s0*sigma_0 + i(sx*sigma_x + sy*sigma_y + sz*sigma_z).

    Group homomorphism onto SU(2) for unit quaternions; the double cover is
    visible as to_su2(rotation by 2 pi) = -identity.
    """
    return np.array(
        [
            [q.s0 + 1j * q.sz, q.sy + 1j * q.sx],
            [-q.sy + 1j * q.sx, q.s0 - 1j * q.sz],
        ],
        dtype=complex,
    )


def to_spinor(q: Quaternion) -> Spinor2:
    """Spinor view (up, down) = (s0 + i sz, i(sx + i sy)).

    |up|^2 = s0^2 + sz^2 and |down|^2 = sx^2 + sy^2, so the spinor norm
    equals the quaternion norm.  This is the first column of to_su2(q).
    """
    return Spinor2(complex(q.s0, q.sz), complex(-q.sy, q.sx))


def from_axis_angle(axis, xi: float) -> Quaternion:
    """Unit quaternion for precession angle xi about a unit axis.

    (cos(xi/2), axis * sin(xi/2)); the half angle makes a 2 pi turn land on
    -identity and a 4 pi turn on +identity.

    Raises NonUnitAxis if |axis| deviates from 1 by more than 1e-9.
    """
    b, n = _unit_vector(axis, NonUnitAxis, "axis")
    b = b / n
    half = 0.5 * xi
    s = math.sin(half)
    return Quaternion(math.cos(half), float(b[0]) * s, float(b[1]) * s, float(b[2]) * s)


def precession_angle(field, gamma: float, dtau: float) -> float:
    """Precession angle xi = -gamma * |field| * dtau accumulated over dtau >= 0."""
    if dtau < 0.0:
        raise ValueError("dtau must be non-negative")
    return -gamma * float(np.linalg.norm(np.asarray(field, dtype=float))) * dtau


def quat_to_rotation(q: Quaternion) -> np.ndarray:
    """SO(3) matrix acting on polarization vectors: R(q) P = vec(q (x) (0,P) (x) q*).

    Homomorphism R(a (x) b) = R(a) R(b); double cover R(q) = R(-q).  Note the
    antisymmetric part carries the sign opposite to the Hamilton-convention
    rotation matrix, matching the eta_x eta_y = -eta_z handedness.

    Raises NonUnitQuaternion if |q|^2 deviates from 1 by more than 1e-9.
    """
    # the images of the basis vectors are exactly the columns
    return rotate_batch(q.as_array(), np.eye(3)).T


def rotate_batch(q, p) -> np.ndarray:
    """Readout R(q) p for every row of a (..., 4) array q; p is (3,) or broadcasts as (..., 3).

    Raises NonUnitQuaternion if any |q|^2 deviates from 1 by more than 1e-9.
    """
    q, p = np.asarray(q, dtype=float), np.asarray(p, dtype=float)
    lead = np.broadcast_shapes(q.shape[:-1], p.shape[:-1])
    out = np.empty(lead + (3,))
    # one block of rows at a time into out, so that the temporaries stay one block long however many rows there are
    qs, ps = (np.broadcast_to(a, lead + a.shape[-1:]).reshape(-1, a.shape[-1]) for a in (q, p))
    outs = out.reshape(-1, 3)
    for lo in range(0, len(qs), _BLOCK):
        qb = qs[lo : lo + _BLOCK]
        nsq = _unit_norm_sq(qb)  # the first bad row of the first bad block is the first bad row
        u0, ux, uy, uz = (qb / np.sqrt(nsq)[:, None]).T
        xx, yy, zz = ux * ux, uy * uy, uz * uz
        xy, yz, zx = ux * uy, uy * uz, uz * ux
        rows = (
            (1.0 - 2.0 * (yy + zz), 2.0 * (xy + u0 * uz), 2.0 * (zx - u0 * uy)),
            (2.0 * (xy - u0 * uz), 1.0 - 2.0 * (zz + xx), 2.0 * (yz + u0 * ux)),
            (2.0 * (zx + u0 * uy), 2.0 * (yz - u0 * ux), 1.0 - 2.0 * (xx + yy)),
        )
        pb = ps[lo : lo + _BLOCK].T
        for k, (r0, r1, r2) in enumerate(rows):
            outs[lo : lo + _BLOCK, k] = r0 * pb[0] + r1 * pb[1] + r2 * pb[2]
    return out
