import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatspin.quaternion import (
    IDENTITY,
    NonUnitQuaternion,
    Quaternion,
    from_axis_angle,
    quat_mul,
    quat_to_rotation,
    rotate_batch,
    to_eta,
)
from quatspin.spin import (
    DegenerateParams,
    EmptyRange,
    HelicalFieldSpec,
    HelicalParams,
    MAX_STEPS,
    IndexOutOfRange,
    InvalidTimeSpan,
    NonUnitPolarization,
    PmsConfig,
    SpinTrajectory,
    StepTooLarge,
    _step_quaternions,
    analytic_helical,
    helical_field,
    helical_params_from_field,
    integrate_spin,
    pms_block_generators,
    pms_propagate,
    polarization_evolution,
    resonance_curve,
    spin_flip_probability,
    spin_up_probability,
)

POLE = np.array([0.0, 0.0, 1.0])

# Stepwise ring closure for the coarse resonant structure (N=21, xi1=0.3,
# xi2=0.01, theta=pi/21), frozen from the brute-force chain-product oracle.
COARSE_RING_CLOSURE = 0.0514861113044685


def rodrigues(axis, xi):
    """Independent rotation oracle: precession by xi about axis.

    Matches the library handedness (a positive xi turns vectors by -xi in
    the right-hand sense about the axis).
    """
    n = np.asarray(axis, dtype=float)
    k = np.array([[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0.0]])
    return np.eye(3) - math.sin(xi) * k + (1.0 - math.cos(xi)) * (k @ k)


def pms_chain_oracle(cfg, p0):
    """Brute-force matrix chain: P_N = (R2 R1)^N P0 with Rodrigues matrices."""
    r1 = rodrigues([math.cos(cfg.theta), math.sin(cfg.theta), 0.0], cfg.xi1)
    r2 = rodrigues([0.0, 1.0, 0.0], cfg.xi2)
    p = np.asarray(p0, dtype=float)
    for _ in range(cfg.n_blocks):
        p = r2 @ (r1 @ p)
    return p


# ---------------------------------------------------------------------------
# PMS


def test_pms_config_validation():
    assert PmsConfig(21, 0.3, 0.01, math.pi / 21).is_resonant(1e-9)
    assert not PmsConfig(21, 0.3, 0.01, math.pi / 20).is_resonant(1e-3)
    with pytest.raises(ValueError):
        PmsConfig(-1, 0.3, 0.01, 0.1)
    with pytest.raises(ValueError):
        PmsConfig(3, math.nan, 0.01, 0.1)


def test_pms_block_generators():
    cfg0 = PmsConfig(4, 0.0, 0.0, 0.7)
    u1, u2 = pms_block_generators(cfg0, 0)
    assert u1 == IDENTITY and u2 == IDENTITY

    cfg = PmsConfig(4, 0.3, 0.01, 0.0)
    u1, u2 = pms_block_generators(cfg, 2)
    assert np.allclose(u1.as_array(), [math.cos(0.15), math.sin(0.15), 0, 0], atol=1e-15)
    assert np.allclose(u2.as_array(), [math.cos(0.005), 0, math.sin(0.005), 0], atol=1e-15)

    rng = np.random.default_rng(11)
    for _ in range(20):
        cfg = PmsConfig(3, rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4))
        u1, u2 = pms_block_generators(cfg, 1)
        assert u1.norm() == pytest.approx(1.0, abs=1e-12)
        assert u2.norm() == pytest.approx(1.0, abs=1e-12)

    with pytest.raises(IndexOutOfRange):
        pms_block_generators(PmsConfig(4, 0.3, 0.01, 0.1), 4)


def test_pms_propagate_zero_blocks():
    cfg = PmsConfig(0, 0.3, 0.01, 0.2)
    traj = pms_propagate(cfg, POLE)
    assert len(traj) == 1
    u1, _ = pms_block_generators(cfg, 0)
    assert np.allclose(traj.polar[0, 0], POLE, atol=0)
    assert np.allclose(traj.polar[0, 1], quat_to_rotation(u1) @ POLE, atol=1e-15)


def test_pms_propagate_rejects_non_unit_polarization():
    with pytest.raises(NonUnitPolarization):
        pms_propagate(PmsConfig(2, 0.3, 0.01, 0.2), [0.0, 0.0, 1.5])
    with pytest.raises(NonUnitPolarization, match="polarization must be a 3-vector, got shape \\(4,\\)"):
        pms_propagate(PmsConfig(2, 0.3, 0.01, 0.2), [0.0, 0.0, 1.0, 0.0])


@pytest.mark.parametrize("p0", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf]])
def test_pms_propagate_rejects_non_finite_polarization(p0):
    with pytest.raises(NonUnitPolarization):
        pms_propagate(PmsConfig(2, 0.3, 0.01, 0.2), p0)


def test_pms_resonant_ring_closure_matches_frozen_oracle():
    cfg = PmsConfig(21, 0.3, 0.01, math.pi / 21)
    traj = pms_propagate(cfg, POLE)
    closure = np.linalg.norm(traj.polar[-1, 0] - POLE)
    assert closure == pytest.approx(COARSE_RING_CLOSURE, abs=1e-9)
    oracle = np.linalg.norm(pms_chain_oracle(cfg, POLE) - POLE)
    assert closure == pytest.approx(oracle, abs=1e-12)


def test_pms_detuned_runs_close_worse_and_fine_run_closes_better():
    resonant = pms_propagate(PmsConfig(21, 0.3, 0.01, math.pi / 21), POLE)
    d_res = np.linalg.norm(resonant.polar[-1, 0] - POLE)
    for scale in (0.95, 0.9):
        detuned = pms_propagate(PmsConfig(21, 0.3 * scale, 0.01 * scale, math.pi / 21), POLE)
        d_det = np.linalg.norm(detuned.polar[-1, 0] - POLE)
        assert d_det > d_res
    fine = pms_propagate(PmsConfig(210, 0.03, 0.001, math.pi / 210), POLE)
    assert np.linalg.norm(fine.polar[-1, 0] - POLE) < d_res


def test_pms_degenerate_theta_stays_near_yz_great_circle():
    # bar axis along x: the circle lives in the (y, z) plane, the films
    # perturb it by an excursion proportional to xi2
    traj1 = pms_propagate(PmsConfig(210, 0.03, 0.001, 0.0), POLE)
    traj2 = pms_propagate(PmsConfig(210, 0.03, 0.002, 0.0), POLE)
    max1 = np.max(np.abs(traj1.polar[:, 0, 0]))
    max2 = np.max(np.abs(traj2.polar[:, 0, 0]))
    assert max1 < 40 * 0.001
    assert max2 == pytest.approx(2 * max1, rel=0.15)


def test_pms_mid_states_are_the_bar_images():
    cfg = PmsConfig(30, 0.7, 0.05, 0.11)
    traj = pms_propagate(cfg, POLE)
    u1, _ = pms_block_generators(cfg, 0)
    for n in range(len(traj)):
        assert np.array_equal(traj.mid_states[n], quat_mul(u1, traj.state(n)).as_array())
        assert np.array_equal(traj.polar[n, 1], quat_to_rotation(Quaternion.from_array(traj.mid_states[n]))[:, 2])
    assert np.allclose(traj.polarization(POLE), traj.polar[:, 0], atol=1e-15)


@pytest.mark.parametrize("n_blocks", [0, 1023, 1024, 2051])
def test_pms_propagate_equals_the_per_station_product_across_block_seams(n_blocks):
    # n_blocks + 1 stations: one, one full block, a full block and one station, two full blocks and four stations
    cfg = PmsConfig(n_blocks, 0.7, 0.05, 0.11)
    u1, u2 = pms_block_generators(cfg, 0)
    q, states, mids = IDENTITY, [], []
    for _ in range(n_blocks + 1):
        mid = quat_mul(u1, q)
        states.append(q.as_array())
        mids.append(mid.as_array())
        q = quat_mul(u2, mid)
    states, mids = np.array(states), np.array(mids)
    traj = pms_propagate(cfg, POLE)
    assert traj.states.tobytes() == states.tobytes()
    assert traj.mid_states.tobytes() == mids.tobytes()
    assert traj.polar.tobytes() == rotate_batch(np.stack([states, mids], axis=1), POLE).tobytes()


def test_pms_states_unit_norm():
    traj = pms_propagate(PmsConfig(50, 0.7, 0.05, 0.11), POLE)
    norms = np.einsum("ij,ij->i", traj.states, traj.states)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_pms_spinor_flip_at_exact_resonance():
    # xi2 = 0 and xi1 = 2 theta make every block an exact 2 theta precession:
    # one passage is a 2 pi revolution, landing the state on -identity
    n = 21
    theta = math.pi / n
    one_pass = pms_propagate(PmsConfig(n, 2 * theta, 0.0, theta), POLE)
    assert np.allclose(one_pass.states[-1], [-1, 0, 0, 0], atol=1e-12)
    two_pass = pms_propagate(PmsConfig(2 * n, 2 * theta, 0.0, theta), POLE)
    assert np.allclose(two_pass.states[-1], [1, 0, 0, 0], atol=1e-12)


# ---------------------------------------------------------------------------
# precession ODE


def rk4_matmul_reference(field_fn, s0, t_span, dt, coupling=1.0):
    """The integrator as it was before steps became quaternion products.

    Four 4x4 matmuls per step, the step-angle check at each step start, and
    the same time grid: t0 + i dt, with a final short step onto t_span[1].
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))

    def rhs(t, s):
        return -0.5 * coupling * (to_eta(Quaternion(0.0, *field_fn(t))) @ s)

    times, states = [t0], [s0.normalized().as_array()]
    s, t = states[0], t0
    for i in range(n_steps):
        h = min(dt, t1 - t)
        rate = float(np.linalg.norm(np.asarray(field_fn(t), dtype=float))) * abs(coupling)
        if h * rate > 0.5:
            raise StepTooLarge(f"dt * |coupling * B| = {h * rate!r} exceeds 0.5 rad at t = {t!r}")
        k1 = rhs(t, s)
        k2 = rhs(t + 0.5 * h, s + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, s + 0.5 * h * k2)
        k4 = rhs(t + h, s + h * k3)
        s = s + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        s = s / np.linalg.norm(s)
        t = t0 + (i + 1) * dt if i + 1 < n_steps else t1
        times.append(t)
        states.append(s)
    return np.array(times), np.array(states)


def smooth_field(seed):
    """A random smooth field: three Fourier modes per component."""
    rng = np.random.default_rng(seed)
    amp, freq, phase = rng.uniform(-1, 1, (3, 3)), rng.uniform(0, 2, (3, 3)), rng.uniform(0, 6, (3, 3))

    def field(t):
        return tuple(float(np.sum(amp[k] * np.cos(freq[k] * t + phase[k]))) for k in range(3))

    return field


rates = st.floats(0.0, 2.0)
field_cases = st.one_of(
    st.builds(lambda g, d, w: ("helical", helical_field(HelicalParams(g, d, w))),
              st.floats(0.01, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    st.builds(lambda b: ("constant", lambda t: b), st.tuples(rates, rates, rates)),
    st.builds(lambda seed: ("smooth", smooth_field(seed)), st.integers(0, 10_000)),
)
spans = st.tuples(st.floats(-5.0, 5.0), st.floats(0.5, 30.0), st.floats(0.01, 0.1))


@settings(max_examples=60, deadline=None)
@given(field_cases, spans, st.floats(-2.0, 2.0).filter(lambda c: abs(c) > 1e-3), st.integers(0, 2**32 - 1))
# 2300 steps that drift apart by 1.037e-13, more than a fixed 1e-13
@example(("helical", helical_field(HelicalParams(0.01, 1.0, 1.0))), (0.0, 23.0, 0.01), 0.01, 64)
def test_integrate_spin_matches_rk4_matmul_reference(case, span, coupling, seed):
    _, field = case
    t0, length, dt = span
    s0 = Quaternion.from_array(np.random.default_rng(seed).normal(size=4) + 0.1).normalized()
    t_span = (t0, t0 + length)
    try:
        ref_times, ref_states = rk4_matmul_reference(field, s0, t_span, dt, coupling)
    except StepTooLarge as err:
        with pytest.raises(StepTooLarge) as got:
            integrate_spin(field, s0, t_span, dt, coupling=coupling)
        # same first offending step, same message
        assert str(got.value) == str(err)
        return
    traj = integrate_spin(field, s0, t_span, dt, coupling=coupling)
    # the time grid is bit-identical, final short step included
    assert traj.times.tobytes() == ref_times.tobytes()
    # the two evaluation orders round apart a little at every step: 1e-16 per step (1e-13 at 1000 steps)
    assert float(np.max(np.abs(traj.states - ref_states))) < (len(traj.times) - 1) * 1e-16


@settings(max_examples=40, deadline=None)
@given(st.floats(0.5, 40.0), st.floats(-3.0, 3.0), st.floats(0.2, 2.0), st.integers(0, 200))
def test_step_too_large_names_the_first_offending_step(strength, t0, width, n_quiet):
    # quiet until a pulse switches on: the first step whose start sees the pulse is named
    dt = 0.05
    t_on = t0 + n_quiet * dt + 0.5 * dt

    def field(t):
        return (0.0, 0.0, strength if t >= t_on else 0.01)

    t_span = (t0, t_on + width)
    if strength * dt <= 0.5:
        integrate_spin(field, IDENTITY, t_span, dt)
        return
    with pytest.raises(StepTooLarge) as expected:
        rk4_matmul_reference(field, IDENTITY, t_span, dt)
    with pytest.raises(StepTooLarge) as got:
        integrate_spin(field, IDENTITY, t_span, dt)
    assert str(got.value) == str(expected.value)


def test_integrate_spin_times_and_field_calls():
    calls = []

    def field(t):
        calls.append(t)
        return (0.0, 0.1, 0.0)

    # 10 / 3 = 3.33 steps: three of dt and a final short step landing on t1
    traj = integrate_spin(field, IDENTITY, (0.0, 10.0), 3.0)
    assert traj.times.tolist() == [0.0, 3.0, 6.0, 9.0, 10.0]
    assert calls == [0.0, 1.5, 3.0, 3.0, 4.5, 6.0, 6.0, 7.5, 9.0, 9.0, 9.5, 10.0]
    ref_times, _ = rk4_matmul_reference(field, IDENTITY, (0.1, 1.0), 0.1)
    assert integrate_spin(field, IDENTITY, (0.1, 1.0), 0.1).times.tobytes() == ref_times.tobytes()


def test_integrate_spin_caps_the_step_count_before_sampling():
    def field(t):
        raise AssertionError("field_fn called for a rejected span")

    for dt in (1e-300, 5e-324, 1.0 / (MAX_STEPS + 2)):
        with pytest.raises(InvalidTimeSpan, match="MAX_STEPS"):
            integrate_spin(field, IDENTITY, (0.0, 1.0), dt)
    with pytest.raises(InvalidTimeSpan):
        integrate_spin(field, IDENTITY, (0.0, math.inf), 0.1)
    with pytest.raises(ValueError, match="3-vector"):
        integrate_spin(lambda t: (1.0, 2.0), IDENTITY, (0.0, 1.0), 0.1)


def test_field_generator_is_antisymmetric():
    # ds/dt = -(c/2) (eta . B) s is the product with the pure quaternion
    # -(c/2)(0, B): zero for a zero field, and orthogonal to s, so the norm
    # is conserved
    s = Quaternion(0.3, -0.4, 0.5, 0.6)
    assert quat_mul(Quaternion(0.0, 0.0, 0.0, 0.0), s).as_array().tolist() == [0, 0, 0, 0]
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = Quaternion.from_array(rng.normal(size=4))
        a = Quaternion(0.0, *(-0.5 * rng.uniform(-2, 2) * rng.normal(size=3)))
        ds = quat_mul(a, s)
        assert np.allclose(ds.as_array(), to_eta(a) @ s.as_array(), rtol=0, atol=1e-14)
        assert abs(float(s.as_array() @ ds.as_array())) < 1e-12


def scalar_step_quaternion(b1, b2, b3, coeffs, coupling) -> np.ndarray:
    """integrate_spin's RK4 step quaternion for one step from scalar quat_mul, in the batched association order."""
    a1, a2, a3 = (Quaternion(0.0, *(-0.5 * coupling * b).tolist()) for b in (b1, b2, b3))
    a21, a22, a32 = quat_mul(a2, a1), quat_mul(a2, a2), quat_mul(a3, a2)
    a221 = quat_mul(a22, a1)
    a322, a3221 = quat_mul(a3, a22), quat_mul(a3, a221)
    h1, h2, h3, h4 = coeffs
    v = Quaternion.as_array
    m = h1 * (v(a1) + 4.0 * v(a2) + v(a3)) + h2 * (v(a21) + v(a22) + v(a32)) + h3 * (v(a221) + v(a322)) + h4 * v(a3221)
    m[0] += 1.0
    return m


@st.composite
def step_blocks(draw):
    """(starts, h, fields, coupling) for a block of steps that passes the 0.5 rad step check."""
    n = draw(st.integers(1, 6))
    coupling = draw(st.floats(-20.0, 20.0))
    fields = draw(arrays(float, (3 * n, 3), elements=st.floats(-50.0, 50.0)))
    starts = draw(arrays(float, n, elements=st.floats(-10.0, 10.0)))
    frac = draw(arrays(float, n, elements=st.floats(1e-6, 1.0)))
    rate = np.abs(coupling) * np.linalg.norm(fields[::3], axis=1)
    return starts, frac / np.maximum(1.0, rate / 0.49), fields, coupling


@settings(max_examples=200, deadline=None)
@given(step_blocks(), st.booleans())
def test_step_quaternions_equal_the_scalar_product_row_by_row(block, batched):
    starts, h, fields, coupling = block
    sample_times = np.stack([starts, starts + 0.5 * h, starts + h], axis=1).ravel()
    called = []

    def field_fn(t):
        called.append(t)
        return fields[len(called) - 1]

    def sample(times):
        called.extend(times.tolist())
        return fields

    if batched:
        field_fn.sample = sample
    got = _step_quaternions(field_fn, starts, h, coupling)
    assert np.array_equal(called, sample_times)
    # the h powers come from numpy's vector power, which may differ from libm's pow in the last bit
    coeffs = np.stack([h / 6.0, h * h / 6.0, h**3 / 12.0, h**4 / 24.0], axis=1)
    assert got.shape == (h.size, 4)
    for i in range(h.size):
        want = scalar_step_quaternion(*fields[3 * i : 3 * i + 3], coeffs[i], coupling)
        assert got[i].tobytes() == want.tobytes()


def test_integrate_spin_zero_field_constant():
    traj = integrate_spin(lambda t: np.zeros(3), IDENTITY, (0.0, 1.0), 0.1)
    assert np.allclose(traj.states, traj.states[0], atol=0)


def test_integrate_spin_constant_field_matches_axis_angle():
    # closed form: s(t) = from_axis_angle(bhat, -coupling |B| t) (x) s0
    b = np.array([0.3, -0.2, 0.9])
    coupling = 1.4
    s0 = Quaternion.from_array(np.random.default_rng(14).normal(size=4)).normalized()
    traj = integrate_spin(lambda t: b, s0, (0.0, 2.0), 1e-3, coupling=coupling)
    bhat = b / np.linalg.norm(b)
    for i in (0, len(traj) // 2, len(traj) - 1):
        t = traj.times[i]
        expected = quat_mul(from_axis_angle(bhat, -coupling * np.linalg.norm(b) * t), s0)
        assert np.allclose(traj.states[i], expected.as_array(), atol=1e-10)
    norms = np.einsum("ij,ij->i", traj.states, traj.states)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_spin_rejects_non_finite_fields_naming_the_sample_time(bad):
    with pytest.raises(ValueError, match=r"non-finite field at t = 0\.0$"):
        integrate_spin(lambda t: (bad, 0.0, 0.0), IDENTITY, (0.0, 1.0), 0.1)
    # a bad midpoint sample is caught too, although no step starts there
    with pytest.raises(ValueError, match=r"non-finite field at t = 0\.75$"):
        integrate_spin(lambda t: (bad if t == 0.75 else 0.1, 0.0, 0.0), IDENTITY, (0.0, 1.0), 0.5)


class SampledAtOnce:
    """A plain field callable, with a sample method that reads a whole block of sample times in one list."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t):
        return self.fn(t)

    def sample(self, times):
        return [self.fn(t) for t in times.tolist()]


def test_integrate_spin_reads_a_plain_callable_in_chunks_with_the_bits_of_one_read():
    def field(t):
        return (-0.04 * math.cos(0.02 * t), -0.04 * math.sin(0.02 * t), 0.02)

    # 1200 steps: a block of 3072 samples, read 256 at a time, then one of 528, which ends in a part of a chunk
    plain = integrate_spin(field, IDENTITY, (0.0, 150.0), 0.125)
    at_once = integrate_spin(SampledAtOnce(field), IDENTITY, (0.0, 150.0), 0.125)
    assert plain.states.tobytes() == at_once.states.tobytes()
    assert plain.times.tobytes() == at_once.times.tobytes()


def test_integrate_spin_refuses_a_bad_sample_in_a_later_chunk():
    # t = 100 starts step 800 of the first block: sample 2400, in its tenth chunk of 256
    with pytest.raises(ValueError, match=r"^field_fn returned a non-finite field at t = 100\.0$"):
        integrate_spin(lambda t: (math.nan if t == 100.0 else 0.01, 0.0, 0.0), IDENTITY, (0.0, 150.0), 0.125)
    calls = []

    def shrinking(t):  # a 2-vector from sample 2304 on, the first of the tenth chunk: the chunks before read well
        calls.append(t)
        return (0.01, 0.0) if len(calls) > 2304 else (0.01, 0.0, 0.0)

    with pytest.raises(ValueError, match=r"^field_fn must return a 3-vector, got shape \(2,\)$"):
        integrate_spin(shrinking, IDENTITY, (0.0, 150.0), 0.125)
    assert len(calls) == 2560  # the tenth chunk was read whole, and none after it


def test_integrate_spin_validation():
    with pytest.raises(InvalidTimeSpan):
        integrate_spin(lambda t: np.zeros(3), IDENTITY, (1.0, 1.0), 0.1)
    with pytest.raises(InvalidTimeSpan):
        integrate_spin(lambda t: np.zeros(3), IDENTITY, (0.0, 1.0), -0.1)
    with pytest.raises(StepTooLarge):
        integrate_spin(lambda t: np.array([0, 0, 10.0]), IDENTITY, (0.0, 1.0), 0.5)
    with pytest.raises(NonUnitQuaternion):
        integrate_spin(lambda t: np.zeros(3), Quaternion(2, 0, 0, 0), (0.0, 1.0), 0.1)


nonzero_gammas = st.sampled_from([1.0, -0.7, 3.0, 1e-200, 1e-310]) | st.floats(-1e3, 1e3).filter(lambda g: g != 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 1e3), st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), nonzero_gammas,
       st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_helical_sample_is_the_math_formula_bit_for_bit(gamma_width, delta, omega, gamma, times):
    assume(gamma_width > 0.0 or delta != 0.0)
    field = helical_field(HelicalParams(gamma_width, delta, omega), gamma=gamma)
    # the formula as it was before fields were sampled per block, one math call per component
    bt, bz = -gamma_width / gamma, (omega - delta) / gamma
    expected = np.array([(bt * math.cos(omega * t), bt * math.sin(omega * t), bz) for t in times])
    assert field.sample(np.array(times)).tobytes() == expected.tobytes()
    assert np.array([field(t) for t in times]).tobytes() == expected.tobytes()


@settings(max_examples=80, deadline=None)
@given(
    rates=st.tuples(st.floats(0.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    scale=st.just(1.0) | st.sampled_from([1e-200, 1e150]),
    gamma=nonzero_gammas,
    coupling=st.sampled_from([1.0, -1.3]),
    angle=st.floats(0.05, 0.6),
    steps=st.floats(0.5, 2500.0),
    t0=st.floats(-10.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_integrate_spin_samples_helical_fields_per_block_as_per_call(rates, scale, gamma, coupling, angle, steps,
                                                                     t0, seed):
    gamma_width, delta, omega = (r * scale for r in rates)
    assume(gamma_width > 0.0 or delta != 0.0)
    field = helical_field(HelicalParams(gamma_width, delta, omega), gamma=gamma)
    # dt near the 0.5 rad limit; at extreme scales the rate overflows (a non-finite field) or h^4 does
    rate = math.hypot(gamma_width, omega - delta) / abs(gamma) * abs(coupling)
    dt = angle / rate if 0.0 < rate < math.inf else angle
    t_span = (t0, t0 + steps * dt)
    assume(t_span[1] > t_span[0])
    s0 = Quaternion.from_array(np.random.default_rng(seed).normal(size=4) + 0.1).normalized()

    def outcome(field_fn):
        try:
            traj = integrate_spin(field_fn, s0, t_span, dt, coupling=coupling)
        except ValueError as err:  # StepTooLarge, or a non-finite field
            return type(err), str(err)
        return traj.times.tobytes(), traj.states.tobytes()

    # a lambda has no sample attribute, so it takes the per-call path
    assert outcome(field) == outcome(lambda t: field(t))


def plain_field(t):
    """A plain callable: no sample attribute, and a new tuple per call."""
    return (0.3 * math.cos(1.1 * t), 0.2 - 0.1 * math.sin(0.4 * t), 0.5)


# sha256 of integrate_spin's states on both sides of the 1024-step block, on either field path and at couplings
# -1.3, 1 and 2.5 (x86-64, numpy 2.4); each span ends on a half step, so the last step is the shorter one
INTEGRATE_FIELDS = {  # (field_fn, dt, coupling)
    "plain": (plain_field, 0.05, -1.3),
    "plain-coupling-1": (plain_field, 0.05, 1.0),
    "plain-coupling-2.5": (plain_field, 0.05, 2.5),
    "helical": (helical_field(HelicalParams(0.9, 0.3, 1.7)), 0.25, 1.0),
    "helical-coupling-2.5": (helical_field(HelicalParams(0.9, 0.3, 1.7)), 0.1, 2.5),
}
INTEGRATE_DIGESTS = {
    ("plain", 1): "8ea61061fad82a87d0fe510b2ac87e917f3825e02b1342e969ecf30d25ee13a0",
    ("plain", 1023): "c27d2b59184f28d8bd754a1881664bb0665ff882867c67caf1bea2aad0e89261",
    ("plain", 1024): "4059bed890683ef2c5034f83f1855cfa04301b73f8af11b21c0a23592e00ba6d",
    ("plain", 1025): "edb98e0233e8e4147986e6ccdf8825b273fd30ff585fc861a14ac71cb3fc6b4b",
    ("plain", 2049): "2ad6dbd27de85ee4efa1a5b1d0c58bd010ba6ad2ba342907bf9564e7e36558b5",
    ("plain-coupling-1", 1): "91e22e4edd21f74bc272714f9f7c2b9c9719f869e823a7a34a2566f7c4b5d640",
    ("plain-coupling-1", 1023): "1ae5cbcc37b2000ccf2fb081d315f6da9e9ad090c30d8551dbfa9a41a216a056",
    ("plain-coupling-1", 1024): "2607f54c8b23d3d12fbb3c98e899a91adb0b675b63831f38f1af3d63f0627c58",
    ("plain-coupling-1", 1025): "d210a5078b222db5b673b83d87522d2ee83a60a334c2a514d2b43636f647fd0c",
    ("plain-coupling-1", 2500): "1e74ccc3b0177252671fd03462baecabc8beabced5550d7e7b572349200f0812",
    ("plain-coupling-2.5", 1): "3b517a94194e8a738dad8bf8bd2f9c79a19f129b65fd5956f1b945f3f1c3b15a",
    ("plain-coupling-2.5", 1023): "805ac2ded68048c8f4c81a56eedad1c8d4651a24d42de2c5de089ccd51ca3bed",
    ("plain-coupling-2.5", 1024): "95f504cd536f4d457a219b40a2846276bef1f235eba320401c4da0414a93fce7",
    ("plain-coupling-2.5", 1025): "2506cdcc98547a89e442d60179a3bb8ab2d0bf268d56537c9885d5210db1ac5c",
    ("plain-coupling-2.5", 2500): "9fc07f38037d2d302e55712e4a7ab30db358178f92c94997a8139cd5364c4b2b",
    ("helical", 1): "c4273957413d51505bdc0afcd1d0eeb4b900060fdd2af368f8fee082cce240e8",
    ("helical", 1023): "ce5fb65db901cd5be74834ea6434252d9f48777569b022fc4d23eab6d50eebf1",
    ("helical", 1024): "f5e7dfd2c15a047c71742fc8426f3afbf462445ebd62c80d6e00690cd076406e",
    ("helical", 1025): "eb21aa106cfab7499206b319c820b12d1ee7dec355068855c7fdc95ead766993",
    ("helical", 2049): "176369a2ebdca2095beba513f28bf8f18bd0589317adf612484539c04e83701c",
    ("helical-coupling-2.5", 1): "d1dd36e23b39cc4fd304dd8553c744a0db46f85ccae0218e7d8c3c9f4f047eae",
    ("helical-coupling-2.5", 1023): "845e6244eec094a58ca61f7539852f58c6588fd74624febb2422408c8250a1dc",
    ("helical-coupling-2.5", 1024): "e7fcafc799903146686d485e335113bd32643e920c99d50cf39c16e01397e6f6",
    ("helical-coupling-2.5", 1025): "dd6f4f97039205693fa9b7d9d343da6c64704ed496175b951fd68d05f41bbad0",
    ("helical-coupling-2.5", 2500): "ab9d14dfc0480690f64825cd9f6115838504bd7ab783756b9e238f668e417f35",
}


@pytest.mark.parametrize(("name", "n_steps"), sorted(INTEGRATE_DIGESTS))
def test_integrate_spin_states_keep_their_golden_digests(name, n_steps):
    field_fn, dt, coupling = INTEGRATE_FIELDS[name]
    traj = integrate_spin(field_fn, Quaternion(0.5, 0.5, -0.5, 0.5), (0.25, 0.25 + (n_steps - 0.5) * dt), dt,
                          coupling=coupling)
    assert len(traj) == n_steps + 1
    assert hashlib.sha256(traj.states.tobytes()).hexdigest() == INTEGRATE_DIGESTS[name, n_steps]


def test_overflowing_rk4_step_is_step_too_large():
    # |B|^2 = 1e-400 underflows, so the angle check reads 0 rad, while h^3 and h^4 overflow
    field = helical_field(HelicalParams(1e-200, 0.0, 0.0))
    with pytest.raises(StepTooLarge, match=r"^dt = 1e\+200 overflows the RK4 step quaternion at t = 0\.0$"):
        integrate_spin(field, IDENTITY, (0.0, 1e200), 1e200)
    # a zero field too: h^4 = inf times a zero product is NaN
    with pytest.raises(StepTooLarge, match=r"^dt = 1e\+150 overflows the RK4 step quaternion at t = 5\.0$"):
        integrate_spin(lambda t: (0.0, 0.0, 0.0), IDENTITY, (5.0, 3e150), 1e150)
    # a huge field at one midpoint only: the angle check reads the step starts, and the fourth step overflows
    with pytest.raises(StepTooLarge, match=r"^dt = 1\.0 overflows the RK4 step quaternion at t = 3\.0$"):
        integrate_spin(lambda t: (1e200 if t == 3.5 else 0.0, 0.0, 0.0), IDENTITY, (0.0, 6.0), 1.0)


def test_integrate_spin_matches_helical_closed_form():
    params = HelicalParams(gamma_width=0.04, delta_detune=0.0, omega_drive=math.pi / 157)
    t_end = 2 * math.pi / params.gamma_width
    traj = integrate_spin(helical_field(params), IDENTITY, (0.0, t_end), 1e-3 / params.gamma_width)
    worst = 0.0
    for i in range(0, len(traj), 97):
        expected = analytic_helical(params, traj.times[i]).as_array()
        worst = max(worst, float(np.max(np.abs(traj.states[i] - expected))))
    expected_end = analytic_helical(params, t_end).as_array()
    worst = max(worst, float(np.max(np.abs(traj.states[-1] - expected_end))))
    assert worst < 1e-6


def observed_orders(params: HelicalParams, plain: bool) -> list:
    """log2 of the error ratio for each halving of dt = T/50 .. T/800 over T = 10, the error being the largest
    component difference from analytic_helical over every state; plain hides the field's sample attribute."""
    field = helical_field(params)
    field_fn = (lambda t: field(t)) if plain else field
    errors = []
    for k in range(5):
        traj = integrate_spin(field_fn, IDENTITY, (0.0, 10.0), 10.0 / (50 * 2**k))
        exact = np.array([analytic_helical(params, t) for t in traj.times.tolist()])
        errors.append(float(np.max(np.abs(traj.states - exact))))
    return [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]


@pytest.mark.parametrize("plain", [False, True])
def test_integrate_spin_is_fourth_order(plain):
    orders = observed_orders(HelicalParams(1.0, 0.3, 0.7), plain)
    assert all(3.9 <= order <= 4.1 for order in orders), orders


# in the asymptotic range: dt |B| <= 0.36 at T/50, and the error at T/800 stays above 1e-12, far from round-off
@settings(max_examples=6, deadline=None)
@given(st.floats(0.5, 1.0), st.floats(-0.5, 0.5), st.floats(0.2, 1.0), st.booleans())
def test_integrate_spin_is_fourth_order_for_drawn_parameters(gamma_width, delta, omega, plain):
    orders = observed_orders(HelicalParams(gamma_width, delta, omega), plain)
    assert all(3.9 <= order <= 4.1 for order in orders), orders


def test_integrate_spin_with_scaled_coupling():
    # the helical field builder divides the rates back out, so any nonzero
    # coupling (including a negative one) reproduces the same closed form
    params = HelicalParams(gamma_width=0.05, delta_detune=0.02, omega_drive=0.03)
    for gamma in (2.5, -1.91):
        traj = integrate_spin(
            helical_field(params, gamma=gamma), IDENTITY, (0.0, 60.0), 0.01, coupling=gamma
        )
        expected = analytic_helical(params, 60.0).as_array()
        assert np.allclose(traj.states[-1], expected, atol=1e-10)


def test_physical_field_spec_reproduces_flip_probability():
    # integrate the raw physical field (b cos, b sin, bz) with its own
    # gyromagnetic coupling; the flip probability must match the closed form
    # for the parameters extracted from the field specification
    spec = HelicalFieldSpec(b_transverse=0.02, bz_axial=0.015, omega_drive=0.018, gyromagnetic=1.7)
    params = helical_params_from_field(spec)

    def field(t):
        return np.array(
            [
                spec.b_transverse * math.cos(spec.omega_drive * t),
                spec.b_transverse * math.sin(spec.omega_drive * t),
                spec.bz_axial,
            ]
        )

    t_pass = math.pi / params.gamma_width
    traj = integrate_spin(field, IDENTITY, (0.0, t_pass), 0.02, coupling=spec.gyromagnetic)
    sx, sy = traj.states[-1, 1], traj.states[-1, 2]
    expected = spin_flip_probability(t_pass, params.gamma_width, params.delta_detune)
    assert sx * sx + sy * sy == pytest.approx(expected, abs=1e-9)


def test_spin_trajectory_validation():
    with pytest.raises(ValueError):
        SpinTrajectory(times=np.array([0.0, 0.0]), states=np.array([[1, 0, 0, 0], [1, 0, 0, 0.0]]))
    with pytest.raises(ValueError):
        SpinTrajectory(times=np.array([0.0, 1.0]), states=np.array([[1, 0, 0, 0], [2, 0, 0, 0.0]]))
    with pytest.raises(ValueError, match="unit norm"):
        SpinTrajectory(times=np.array([0.0, 1.0]), states=np.array([[1, 0, 0, 0], [math.nan, 0, 0, 0.0]]))
    unit = np.array([[1, 0, 0, 0], [1, 0, 0, 0.0]])
    with pytest.raises(ValueError, match="times must be \\(n,\\), states \\(n, 4\\)"):
        SpinTrajectory(times=np.array([0.0, 1.0]), states=unit[:, :3])
    with pytest.raises(ValueError, match="polar must have shape \\(n, 2, 3\\)"):
        SpinTrajectory(times=np.array([0.0, 1.0]), states=unit, polar=np.zeros((2, 3)))
    with pytest.raises(ValueError, match="mid_states must have shape \\(n, 4\\)"):
        SpinTrajectory(times=np.array([0.0, 1.0]), states=unit, mid_states=unit[:1])


# ---------------------------------------------------------------------------
# helical closed form


def test_analytic_helical_at_zero_and_norm():
    params = HelicalParams(0.7, -0.3, 0.5)
    assert np.allclose(analytic_helical(params, 0.0).as_array(), [1, 0, 0, 0], atol=0)
    rng = np.random.default_rng(15)
    for _ in range(100):
        params = HelicalParams(rng.uniform(0, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
        q = analytic_helical(params, rng.uniform(-50, 50))
        assert q.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_analytic_helical_resonant_components():
    # at delta = 0: sz = -cos(G t/2) sin(w t/2), s0 = cos(G t/2) cos(w t/2)
    g, w = 0.04, math.pi / 157
    params = HelicalParams(g, 0.0, w)
    for t in (3.0, 40.0, 200.0):
        q = analytic_helical(params, t)
        assert q.sz == pytest.approx(-math.cos(g * t / 2) * math.sin(w * t / 2), abs=1e-14)
        assert q.s0 == pytest.approx(math.cos(g * t / 2) * math.cos(w * t / 2), abs=1e-14)


def test_helical_params_degenerate():
    with pytest.raises(DegenerateParams):
        HelicalParams(0.0, 0.0, 1.0)


@pytest.mark.parametrize("args, message", [
    ((math.nan, 0.1, 1.0), "gamma_width must be finite"),
    ((0.1, math.inf, 1.0), "delta_detune must be finite"),
    ((0.1, 0.0, -math.inf), "omega_drive must be finite"),
    ((-0.1, 0.1, 1.0), "gamma_width must be >= 0"),
])
def test_helical_params_refuse_non_finite_or_negative_width(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        HelicalParams(*args)


def test_helical_params_from_field():
    from quatspin.spin import ZeroField

    spec = HelicalFieldSpec(b_transverse=0.0, bz_axial=2.0, omega_drive=0.5, gyromagnetic=1.3)
    params = helical_params_from_field(spec)
    assert params.gamma_width == pytest.approx(0.0, abs=1e-15)
    assert params.delta_detune == pytest.approx(0.5 - 1.3 * 2.0, rel=1e-12)

    spec = HelicalFieldSpec(b_transverse=0.7, bz_axial=0.0, omega_drive=0.5, gyromagnetic=1.3)
    params = helical_params_from_field(spec)
    assert spec.apex_angle == pytest.approx(math.pi / 2, rel=1e-12)
    assert params.gamma_width == pytest.approx(1.3 * 0.7, rel=1e-12)
    assert params.delta_detune == pytest.approx(0.5, rel=1e-12)

    # resonance locus: drive at omega* cos(theta) zeroes the detuning
    spec = HelicalFieldSpec(b_transverse=0.3, bz_axial=1.1, omega_drive=0.0, gyromagnetic=0.9)
    omega_res = spec.omega_star * math.cos(spec.apex_angle)
    tuned = HelicalFieldSpec(0.3, 1.1, omega_res, 0.9)
    assert helical_params_from_field(tuned).delta_detune == pytest.approx(0.0, abs=1e-15)

    with pytest.raises(ZeroField):
        helical_params_from_field(HelicalFieldSpec(0.0, 0.0, 1.0, 1.0))
    with pytest.raises(ZeroField, match="gamma must be nonzero"):
        helical_field(HelicalParams(0.1, 0.0, 0.0), gamma=0.0)


def test_polarization_evolution_branches():
    g, w = 0.04, math.pi / 157
    params = HelicalParams(g, 0.0, w)
    assert np.allclose(polarization_evolution(params, 1, POLE, 0.0), POLE, atol=0)
    for t in (10.0, 37.7, 100.0):
        plus = polarization_evolution(params, 1, POLE, t)
        expected_plus = [
            -math.sin(g * t) * math.sin(w * t),
            math.sin(g * t) * math.cos(w * t),
            math.cos(g * t),
        ]
        assert np.allclose(plus, expected_plus, atol=1e-9)
        minus = polarization_evolution(params, -1, POLE, t)
        expected_minus = [0.0, -math.sin(g * t), math.cos(g * t)]
        assert np.allclose(minus, expected_minus, atol=1e-9)
    with pytest.raises(ValueError):
        polarization_evolution(params, 0, POLE, 1.0)
    with pytest.raises(NonUnitPolarization):
        polarization_evolution(params, 1, [0, 0, 2.0], 1.0)


def test_spinor_periodicity_in_rotating_frame():
    # at exact resonance the co-rotating state is a pure transverse
    # precession: -identity after angle 2 pi, +identity after 4 pi
    params = HelicalParams(gamma_width=0.05, delta_detune=0.0, omega_drive=0.031)
    for turns, target in ((1, -1.0), (2, 1.0)):
        t_end = turns * 2 * math.pi / params.gamma_width
        traj = integrate_spin(helical_field(params), IDENTITY, (0.0, t_end), 1e-3 / params.gamma_width)
        frame = from_axis_angle([0, 0, 1], params.omega_drive * t_end)
        w_state = quat_mul(frame, traj.state(-1))
        assert np.allclose(w_state.as_array(), [target, 0, 0, 0], atol=1e-6)


def test_static_field_spinor_flip():
    # a 2 pi precession about a static field negates the state
    b = np.array([0.7, 0.0, 0.0])
    t_end = 2 * math.pi / 0.7
    traj = integrate_spin(lambda t: b, IDENTITY, (0.0, t_end), 1e-3)
    assert np.allclose(traj.states[-1], [-1, 0, 0, 0], atol=1e-9)


# ---------------------------------------------------------------------------
# probabilities


def test_spin_flip_probability_values():
    g = 0.04
    assert spin_flip_probability(math.pi / g, g, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert spin_flip_probability(0.0, g, 0.2) == 0.0
    assert spin_flip_probability(1.0, 0.0, 0.0) == 0.0
    assert spin_up_probability(1.0, 0.0, 0.0) == 1.0
    assert spin_up_probability(math.pi / g, g, 0.0) == pytest.approx(0.0, abs=1e-12)
    # far off resonance everything stays up
    assert spin_up_probability(10.0, 0.01, 50.0) == pytest.approx(1.0, abs=1e-4)
    with pytest.raises(ValueError):
        spin_flip_probability(-1.0, g, 0.0)


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(16)
    for _ in range(200):
        t, g, d = rng.uniform(0, 300), rng.uniform(0, 1), rng.uniform(-1, 1)
        total = spin_flip_probability(t, g, d) + spin_up_probability(t, g, d)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_flip_probability_even_in_detuning():
    rng = np.random.default_rng(17)
    for _ in range(50):
        t, g, d = rng.uniform(0, 100), rng.uniform(0, 1), rng.uniform(-1, 1)
        assert spin_flip_probability(t, g, d) == spin_flip_probability(t, g, -d)


def test_flip_probability_cross_checked_against_ode():
    # |down|^2 = sx^2 + sy^2 of the integrated helical state
    g, d = 0.04, 0.03
    t_pass = math.pi / g
    params = HelicalParams(gamma_width=g, delta_detune=d, omega_drive=0.02)
    traj = integrate_spin(helical_field(params), IDENTITY, (0.0, t_pass), 1e-3 / g)
    sx, sy = traj.states[-1, 1], traj.states[-1, 2]
    assert sx * sx + sy * sy == pytest.approx(spin_flip_probability(t_pass, g, d), abs=1e-9)
    sz, s0 = traj.states[-1, 3], traj.states[-1, 0]
    assert sz * sz + s0 * s0 == pytest.approx(spin_up_probability(t_pass, g, d), abs=1e-9)


def test_resonance_curve():
    g = 0.04
    rows = resonance_curve(g, -0.4, 0.4, 161, math.pi / g)
    assert rows.shape == (161, 3)
    peak = rows[np.argmax(rows[:, 1])]
    assert abs(peak[0]) < 1e-12
    assert peak[1] == pytest.approx(1.0, abs=1e-12)
    # pointwise oracle
    for delta, p_down, p_up in rows[::20]:
        assert p_down == spin_flip_probability(math.pi / g, g, delta)
        assert p_up == spin_up_probability(math.pi / g, g, delta)
    with pytest.raises(EmptyRange):
        resonance_curve(g, -0.4, 0.4, 1, 1.0)
    with pytest.raises(EmptyRange):
        resonance_curve(g, 0.4, -0.4, 10, 1.0)
    # an overflowing span: np.linspace warned, and the grid held inf and NaN
    with pytest.raises(ValueError, match="delta_max - delta_min must be finite"):
        resonance_curve(g, -1e308, 1e308, 10, 1.0)


# ---------------------------------------------------------------------------
# the library side of the rules that schema states once: step count, step angle and Rabi terms


def test_probabilities_keep_their_bits_where_the_rabi_rate_vanishes():
    # gamma = 0 and delta = 0 on the grid's middle point, gamma^2 underflowing there, and a width for contrast
    digest = hashlib.sha256()
    for gamma in (0.0, 1e-200, 0.5):
        for t_pass in (0.0, 1.0, 78.5):
            digest.update(resonance_curve(gamma, -1.0, 1.0, 5, t_pass).tobytes())
    assert digest.hexdigest() == "867911ee99b9ee56094383bf14a9ec78da8493038128fa10cfe3be7509475c9f"
    for t_pass in (0.0, 1.0, math.inf):  # no field, no flip: whatever the phase reads
        assert [repr(f(t_pass, 0.0, 0.0)) for f in (spin_flip_probability, spin_up_probability)] == ["0.0", "1.0"]


def up(t):
    """A plain callable: a unit field along z."""
    return (0.0, 0.0, 1.0)


SPIN_AXIAL = helical_field(HelicalParams(0.0, -1.0, 0.0))  # the sample path: a unit field along z


@pytest.mark.parametrize("field_fn, t_span, dt, coupling, error, message", [
    # the step angle one float past 0.5 rad, on either path and coupling
    (up, (0.0, 1.0), 0.5000000000000001, 1.0, StepTooLarge,
     "dt * |coupling * B| = 0.5000000000000001 exceeds 0.5 rad at t = 0.0"),
    (up, (0.0, 1.0), 0.20000000000000004, 2.5, StepTooLarge,
     "dt * |coupling * B| = 0.5000000000000001 exceeds 0.5 rad at t = 0.0"),
    (SPIN_AXIAL, (3.0, 4.0), 0.5000000000000001, -1.0, StepTooLarge,
     "dt * |coupling * B| = 0.5000000000000001 exceeds 0.5 rad at t = 3.0"),
    # one float more than MAX_STEPS steps, and a span or step just short of positive
    (up, (0.0, 1000000.0000000001), 1.0, 1.0, InvalidTimeSpan,
     "span (0.0, 1000000.0000000001) with dt 1.0 needs more than MAX_STEPS = 1000000 steps"),
    (up, (-2.0, 999998.0000000001), 1.0, 1.0, InvalidTimeSpan,
     "span (-2.0, 999998.0000000001) with dt 1.0 needs more than MAX_STEPS = 1000000 steps"),
    (up, (1.0, 1.0), 0.1, 1.0, InvalidTimeSpan, "need t1 > t0 and dt > 0, got span (1.0, 1.0), dt 0.1"),
    (up, (0.0, 1.0), 0.0, 1.0, InvalidTimeSpan, "need t1 > t0 and dt > 0, got span (0.0, 1.0), dt 0.0"),
    (up, (0.0, 1.0), -5e-324, 1.0, InvalidTimeSpan, "need t1 > t0 and dt > 0, got span (0.0, 1.0), dt -5e-324"),
])
def test_integrate_spin_refuses_just_past_each_bound_with_its_message(field_fn, t_span, dt, coupling, error, message):
    with pytest.raises(error) as refused:
        integrate_spin(field_fn, IDENTITY, t_span, dt, coupling=coupling)
    assert str(refused.value) == message


def test_integrate_spin_takes_a_step_of_exactly_half_a_radian():
    for field_fn, dt, coupling in ((up, 0.5, 1.0), (up, 0.2, 2.5), (SPIN_AXIAL, 0.5, -1.0)):
        assert len(integrate_spin(field_fn, IDENTITY, (0.0, 1.0), dt, coupling=coupling)) == 1 + math.ceil(1.0 / dt)
