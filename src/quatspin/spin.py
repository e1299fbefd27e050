"""Spin-1/2 evolution in magnetic fields.

Covers stepwise propagation through a periodic magnetic structure (PMS) of
alternating bars and films, fixed-step integration of the precession ODE

    ds/dt = -(coupling / 2) * (eta . B(t)) s,

the closed-form solution for a helical (rotating transverse + constant
axial) field, polarization readout, and the resonance probability curves.

Everything works in phase units: fields enter only through angular rates
(coupling * B), so all parameters are plain radians and radians/time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quaternion import (
    IDENTITY,
    Quaternion,
    _BLOCK,
    _mul4,
    _unit_norm_sq,
    _unit_vector,
    quat_to_rotation,
    rotate_batch,
)
from .schema import MAX_STEPS  # integrate_spin's step cap, which the schema's helical check states once


class IndexOutOfRange(IndexError):
    """Block index outside 0..n_blocks-1."""


class NonUnitPolarization(ValueError):
    """Polarization vector is not unit length within tolerance."""


class InvalidTimeSpan(ValueError):
    """Integration span is empty or reversed, or the step is non-positive."""


class StepTooLarge(ValueError):
    """Integration step would rotate the spin by more than 0.5 rad, or overflows the float range."""


class DegenerateParams(ValueError):
    """Resonance width and detuning both vanish."""


class ZeroField(ValueError):
    """Helical field has neither transverse nor axial component."""


class EmptyRange(ValueError):
    """Sweep grid has fewer than two points."""


@dataclass(frozen=True)
class PmsConfig:
    """Periodic magnetic structure: n_blocks pairs of (bar, film).

    xi1, xi2 are the precession phases picked up in one bar and one film;
    theta is the in-plane angle of the bar fields.  The geometry is resonant
    when 2 * n_blocks * theta = 2 pi.
    """

    n_blocks: int
    xi1: float
    xi2: float
    theta: float

    def __post_init__(self):
        if self.n_blocks < 0:
            raise ValueError("n_blocks must be >= 0")
        for name in ("xi1", "xi2", "theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def is_resonant(self, tol: float = 1e-9) -> bool:
        return abs(2.0 * self.n_blocks * self.theta - 2.0 * math.pi) < tol


@dataclass(frozen=True)
class HelicalParams:
    """Resonance parameters: width gamma_width, detuning delta_detune, drive omega_drive."""

    gamma_width: float
    delta_detune: float
    omega_drive: float

    def __post_init__(self):
        for name in ("gamma_width", "delta_detune", "omega_drive"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma_width < 0.0:
            raise ValueError("gamma_width must be >= 0")
        if self.gamma_width == 0.0 and self.delta_detune == 0.0:
            raise DegenerateParams("gamma_width and delta_detune cannot both vanish")

    @property
    def rabi_rate(self) -> float:
        return math.hypot(self.gamma_width, self.delta_detune)


@dataclass(frozen=True)
class HelicalFieldSpec:
    """Physical helical field: transverse amplitude b, axial bz, drive omega, gyromagnetic ratio."""

    b_transverse: float
    bz_axial: float
    omega_drive: float
    gyromagnetic: float

    @property
    def omega_star(self) -> float:
        """Larmor rate gyromagnetic * sqrt(bz^2 + b^2)."""
        return self.gyromagnetic * math.hypot(self.bz_axial, self.b_transverse)

    @property
    def apex_angle(self) -> float:
        """Cone apex angle of the total field, arctan(b / bz)."""
        return math.atan2(self.b_transverse, self.bz_axial)


@dataclass(frozen=True)
class SpinTrajectory:
    """Time-stamped sequence of unit spin states, optionally with arrow pairs.

    states has shape (n, 4); polar, when present, has shape (n, 2, 3) holding
    (P_n, P_n_mid) where P_n_mid is the arrow tip after the next bar, and
    mid_states (n, 4) holds the states that P_n_mid is read from.
    """

    times: np.ndarray
    states: np.ndarray
    polar: np.ndarray | None = None
    mid_states: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or states.shape != (times.size, 4):
            raise ValueError("times must be (n,), states (n, 4)")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("times must be strictly increasing")
        _unit_norm_sq(states)
        for name, tail in (("polar", (2, 3)), ("mid_states", (4,))):
            value = getattr(self, name)
            if value is not None:
                value = np.asarray(value, dtype=float)
                object.__setattr__(self, name, value)
                if value.shape != (times.size, *tail):
                    raise ValueError(f"{name} must have shape (n, {', '.join(map(str, tail))})")

    def __len__(self) -> int:
        return int(self.times.size)

    def state(self, i: int) -> Quaternion:
        return Quaternion.from_array(self.states[i])

    def polarization(self, p0) -> np.ndarray:
        """Rotate p0 by every stored state; returns an (n, 3) array."""
        return rotate_batch(self.states, _unit_vector(p0, NonUnitPolarization, "polarization")[0])


# ---------------------------------------------------------------------------
# periodic magnetic structure


def pms_block_generators(cfg: PmsConfig, block_index: int) -> tuple[Quaternion, Quaternion]:
    """Unit quaternions (u1, u2) for the bar and film of one block.

    u1 precesses by xi1 about the in-plane bar direction (cos theta,
    sin theta, 0); u2 by xi2 about the film direction y.  Every block is
    identical: the bar angle theta is a fixed property of the structure, and
    the resonance tunes xi1 against it (xi1 = 2 theta closes the ring).
    """
    n_slots = max(cfg.n_blocks, 1)
    if not 0 <= block_index < n_slots:
        raise IndexOutOfRange(f"block_index {block_index} not in [0, {n_slots})")
    h1, h2 = 0.5 * cfg.xi1, 0.5 * cfg.xi2
    s1 = math.sin(h1)
    u1 = Quaternion(math.cos(h1), s1 * math.cos(cfg.theta), s1 * math.sin(cfg.theta), 0.0)
    u2 = Quaternion(math.cos(h2), 0.0, math.sin(h2), 0.0)
    return u1, u2


def pms_propagate(cfg: PmsConfig, p0) -> SpinTrajectory:
    """Stepwise chain P_n = (R2 R1)^n P0 with mid arrows P_n_mid = R1 P_n.

    Emits n = 0..n_blocks, i.e. n_blocks + 1 entries.  The propagating
    quaternion is composed per block as u2 (x) u1 (x) q, which realizes the
    same chain through the rotation homomorphism; mid_states holds u1 (x) q.
    """
    p, _ = _unit_vector(p0, NonUnitPolarization, "polarization")
    chain = _pms_chain(cfg)
    times = np.arange(cfg.n_blocks + 1, dtype=float)
    return SpinTrajectory(times=times, states=chain[:, 0], polar=rotate_batch(chain, p), mid_states=chain[:, 1])


def _pms_chain(cfg: PmsConfig) -> np.ndarray:
    """The (n_blocks + 1, 2, 4) stations of pms_propagate: q, then mid = u1 (x) q, for n = 0..n_blocks."""
    u1, u2 = (g.as_array().tolist() for g in pms_block_generators(cfg, 0))
    q, chain = IDENTITY.as_array().tolist(), np.empty((cfg.n_blocks + 1, 2, 4))
    for lo in range(0, cfg.n_blocks + 1, _BLOCK):
        flat = []  # q then mid, eight floats per station: one commit per block, and never a whole chain of floats
        for _ in range(min(_BLOCK, cfg.n_blocks + 1 - lo)):
            mid = _mul4(u1, q)
            flat += q
            flat += mid
            q = _mul4(u2, mid)
        chain[lo : lo + len(flat) // 8] = np.fromiter(flat, float, len(flat)).reshape(-1, 2, 4)
    return chain


# ---------------------------------------------------------------------------
# precession ODE


def _step_quaternions(field_fn, starts: np.ndarray, h: np.ndarray, coupling: float) -> np.ndarray:
    """RK4 step quaternions m_n (n, 4) for steps h from the start times; see integrate_spin."""
    sample_times = np.stack([starts, starts + 0.5 * h, starts + h], axis=1).ravel()
    # one call per block when field_fn carries sample(times) -> (n, 3), else one call per sample time
    sample = getattr(field_fn, "sample", None) or (lambda times: [field_fn(t) for t in times.tolist()])
    fields = np.asarray(sample(sample_times), dtype=float)
    if fields.shape != (sample_times.size, 3):
        raise ValueError(f"field_fn must return a 3-vector, got shape {fields.shape[1:]}")
    if not np.isfinite(fields).all():  # the per-sample mask is built only to name the first bad sample
        i = int(np.argmax(~np.isfinite(fields).all(axis=1)))
        raise ValueError(f"field_fn returned a non-finite field at t = {float(sample_times[i])!r}")
    fields = fields.reshape(-1, 3, 3)
    with np.errstate(over="ignore", invalid="ignore"):  # |B|^2, h^3 or h^4 may overflow: refused by name below
        # a stacked matmul runs the dot kernel of np.linalg.norm, so each angle is bit-exact
        step_angle = h * (np.sqrt((fields[:, 0, None, :] @ fields[:, 0, :, None])[:, 0, 0]) * abs(coupling))
        too_large = ~(step_angle <= 0.5)
        if too_large.any():
            i = int(np.argmax(too_large))
            raise StepTooLarge(f"dt * |coupling * B| = {float(step_angle[i])!r} exceeds 0.5 rad "
                               f"at t = {float(starts[i])!r}")
        # component tuples (0, bx, by, bz) of the a_k, one array per component, multiplied by _mul4 itself
        b = (-0.5 * coupling * fields).reshape(-1, 9).T.copy()
        a1, a2, a3 = ((0.0, *b[k : k + 3]) for k in (0, 3, 6))
        a21, a22, a32 = _mul4(a2, a1), _mul4(a2, a2), _mul4(a3, a2)
        a221 = _mul4(a22, a1)
        h1, h2, h3, h4 = h / 6.0, h * h / 6.0, h**3 / 12.0, h**4 / 24.0
        m = np.stack([h1 * (p1 + 4.0 * p2 + p3) + h2 * (p21 + p22 + p32) + h3 * (p221 + p322) + h4 * p3221
                      for p1, p2, p3, p21, p22, p32, p221, p322, p3221
                      in zip(a1, a2, a3, a21, a22, a32, a221, _mul4(a3, a22), _mul4(a3, a221))], axis=1)
    if not np.isfinite(m).all():
        i = int(np.argmax(~np.isfinite(m).all(axis=1)))
        raise StepTooLarge(f"dt = {float(h[i])!r} overflows the RK4 step quaternion at t = {float(starts[i])!r}")
    m[:, 0] += 1.0
    return m


def integrate_spin(field_fn, s0: Quaternion, t_span, dt: float, coupling: float = 1.0) -> SpinTrajectory:
    """Classical 4th-order fixed-step integration of the precession ODE.

    Steps are dt except for a final shorter one landing exactly on
    t_span[1].  eta . B acts as left-multiplication by (0, B), so each RK4
    step is one product s_{n+1} = m_n (x) s_n, with a_k = -(coupling/2)(0, B)
    at t, t + h/2 and t + h:

        m = 1 + h/6 (a1 + 4 a2 + a3) + h^2/6 (a2 a1 + a2^2 + a3 a2)
              + h^3/12 (a2^2 a1 + a3 a2^2) + h^4/24 a3 a2^2 a1.

    field_fn maps time to a field 3-vector.  It is called at those three
    times per step, for a block of steps before they are taken, so it must
    be pure; one with a sample(times) -> (n, 3) attribute, as helical_field's,
    is called once per block instead.  Every state is renormalized.

    Raises InvalidTimeSpan for an empty span, a non-positive dt or more than
    MAX_STEPS steps, ValueError if field_fn returns a NaN or inf component,
    and StepTooLarge if any step would rotate the spin by more than 0.5 rad
    or is so long that its step quaternion overflows (the first such sample
    time or step is named).
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (dt > 0.0) or not (t1 > t0):
        raise InvalidTimeSpan(f"need t1 > t0 and dt > 0, got span ({t0}, {t1}), dt {dt}")
    ratio = (t1 - t0) / dt - 1e-12
    if not ratio <= MAX_STEPS:
        raise InvalidTimeSpan(f"span ({t0}, {t1}) with dt {dt} needs more than MAX_STEPS = {MAX_STEPS} steps")
    _unit_norm_sq(s0.as_array())

    n_steps = max(1, math.ceil(ratio))
    times = np.concatenate([[t0], t0 + np.arange(1, n_steps) * dt, [t1]])
    starts = times[:-1]
    h = np.minimum(dt, t1 - starts)
    states = np.empty((n_steps + 1, 4))
    states[0] = s = s0.normalized().as_array().tolist()
    for lo in range(0, n_steps, _BLOCK):
        m = _step_quaternions(field_fn, starts[lo : lo + _BLOCK], h[lo : lo + _BLOCK], coupling)
        flat = []  # four floats per state, as pms_propagate commits: no container per step is kept alive
        for mk in zip(*m.T.tolist()):
            w, x, y, z = _mul4(mk, s)
            norm = math.sqrt(w * w + x * x + y * y + z * z)
            s = (w / norm, x / norm, y / norm, z / norm)
            flat += s
        states[lo + 1 : lo + 1 + len(m)] = np.fromiter(flat, float, len(flat)).reshape(-1, 4)
    return SpinTrajectory(times=times, states=states)


# ---------------------------------------------------------------------------
# helical field and its closed form


def helical_field(params: HelicalParams, gamma: float = 1.0):
    """Field function whose ODE solution is exactly analytic_helical(params).

    Returns t -> (-(G/gamma) cos(w t), -(G/gamma) sin(w t), (w - D)/gamma)
    with G = gamma_width, D = delta_detune, w = omega_drive, and its sample
    attribute maps n times to the (n, 3) fields at once.  The negative
    transverse amplitude fixes the phase so that the closed form holds with
    a positive width; shifting the transverse phase by pi only changes where
    the rotating component points at t = 0.
    """
    if gamma == 0.0:
        raise ZeroField("gamma must be nonzero")
    bt = -params.gamma_width / gamma
    bz = (params.omega_drive - params.delta_detune) / gamma
    w = params.omega_drive

    @np.errstate(over="ignore", invalid="ignore")  # integrate_spin names a non-finite sample
    def sample(times) -> np.ndarray:
        wt = w * np.asarray(times, dtype=float)
        return np.stack([bt * np.cos(wt), bt * np.sin(wt), np.full_like(wt, bz)], axis=-1)

    def field(t: float) -> np.ndarray:
        return sample([t])[0]

    field.sample = sample
    return field


def analytic_helical(params: HelicalParams, t: float) -> Quaternion:
    """Closed-form unit state of the helical-field precession ODE at time t.

    With G = gamma_width, D = delta_detune, W = sqrt(G^2 + D^2):

        sx = (G/W) sin(W t/2) cos(w t/2)
        sy = (G/W) sin(W t/2) sin(w t/2)
        sz = (D/W) sin(W t/2) cos(w t/2) - cos(W t/2) sin(w t/2)
        s0 = (D/W) sin(W t/2) sin(w t/2) + cos(W t/2) cos(w t/2)

    Unit norm for all t by construction.
    """
    w_rabi = params.rabi_rate
    g = params.gamma_width / w_rabi
    d = params.delta_detune / w_rabi
    sr, cr = math.sin(0.5 * w_rabi * t), math.cos(0.5 * w_rabi * t)
    sw, cw = math.sin(0.5 * params.omega_drive * t), math.cos(0.5 * params.omega_drive * t)
    return Quaternion(
        d * sr * sw + cr * cw,
        g * sr * cw,
        g * sr * sw,
        d * sr * cw - cr * sw,
    )


def helical_params_from_field(spec: HelicalFieldSpec) -> HelicalParams:
    """(Gamma, Delta) of the resonance from a physical field specification.

    Gamma = Omega* sin(theta) = gyromagnetic * b, and
    Delta = omega - Omega* cos(theta) = omega - gyromagnetic * bz.
    """
    if spec.b_transverse == 0.0 and spec.bz_axial == 0.0:
        raise ZeroField("need bz != 0 or b != 0")
    omega_star = spec.omega_star
    theta = spec.apex_angle
    return HelicalParams(
        gamma_width=omega_star * math.sin(theta),
        delta_detune=spec.omega_drive - omega_star * math.cos(theta),
        omega_drive=spec.omega_drive,
    )


def polarization_evolution(params: HelicalParams, sign: int, p0, t: float) -> np.ndarray:
    """Polarization P(t) = R(q) P(0) for the helical closed form.

    sign selects the branch applied to the state before the rotation
    readout: +1 uses the state as is; -1 uses its conjugate (the reversed
    rotation).  At exact resonance the +1 branch traces the helical ring

        P(t) = (-sin(G t) sin(w t), sin(G t) cos(w t), cos(G t))

    from the pole, while the -1 branch collapses onto the plain circle
    (0, -sin(G t), cos(G t)).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    p, _ = _unit_vector(p0, NonUnitPolarization, "polarization")
    q = analytic_helical(params, t)
    if sign < 0:
        q = q.conjugate()
    return quat_to_rotation(q) @ p


# ---------------------------------------------------------------------------
# resonance probabilities


@np.errstate(over="ignore", invalid="ignore")  # extreme widths give NaN probabilities, which write_table refuses
def _probabilities(t_pass: float, gamma_width: float, delta_detune) -> tuple[np.ndarray, np.ndarray]:
    """(p_down, p_up) elementwise over detunings; the scalar functions below are one-element views."""
    if t_pass < 0.0:
        raise ValueError("t_pass must be >= 0")
    d = np.asarray(delta_detune, dtype=float)
    w_sq = gamma_width * gamma_width + d * d
    zero = w_sq == 0.0
    w_sq = np.where(zero, 1.0, w_sq)
    half = 0.5 * t_pass * np.sqrt(w_sq)
    g_sq = gamma_width * gamma_width / w_sq
    return (np.where(zero, 0.0, g_sq * np.sin(half) ** 2),
            np.where(zero, 1.0, g_sq * np.cos(half) ** 2 + d * d / w_sq))


def spin_flip_probability(t_pass: float, gamma_width: float, delta_detune: float) -> float:
    """Probability of the spin-down state after passage time t_pass.

    G^2/(G^2 + D^2) * sin^2((t/2) sqrt(G^2 + D^2)); the degenerate case
    G = D = 0 is the continuous limit 0 (no field, no flip).
    """
    return float(_probabilities(t_pass, gamma_width, delta_detune)[0])


def spin_up_probability(t_pass: float, gamma_width: float, delta_detune: float) -> float:
    """Complementary spin-up probability; flip + up = 1 identically."""
    return float(_probabilities(t_pass, gamma_width, delta_detune)[1])


def resonance_curve(gamma_width: float, delta_min: float, delta_max: float, n_points: int, t_pass: float) -> np.ndarray:
    """Rows (delta, p_down, p_up) on a uniform detuning grid.

    The curve is even in delta; at t_pass = pi / gamma_width the peak value
    at delta = 0 is exactly 1.
    """
    if n_points < 2:
        raise EmptyRange("n_points must be >= 2")
    if not delta_max > delta_min:
        raise EmptyRange("need delta_max > delta_min")
    if not math.isfinite(delta_max - delta_min):  # np.linspace would overflow, with a warning
        raise ValueError(f"delta_max - delta_min must be finite, got {delta_max!r} - {delta_min!r}")
    deltas = np.linspace(delta_min, delta_max, n_points)
    return np.column_stack([deltas, *_probabilities(t_pass, gamma_width, deltas)])
