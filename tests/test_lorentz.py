import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatspin.emfield import EmFieldSample, EmTensor, em_tensor, energy_quadratic, lorentz_invariants
from quatspin.lorentz import (
    KIND_BOOST,
    KIND_ROTATION,
    LorentzQuat,
    SuperluminalSpeed,
    boost_field_closed,
    boost_from_velocity,
    boost_generator,
    closed_form_batch,
    eb_boost,
    field_triple,
    generator_batch,
    rotate_field_closed,
    rotation_generator,
    tensor_from_triple,
    transform_batch,
    transform_tensor,
    triple_from_tensor,
    triple_to_fields,
)
from quatspin.quaternion import ETA_0, NonUnitAxis

ZHAT = np.array([0.0, 0.0, 1.0])


def random_axis(rng):
    m = rng.normal(size=3)
    return m / np.linalg.norm(m)


def random_sample(rng):
    return EmFieldSample(e=rng.normal(size=3), b=rng.normal(size=3))


def random_generator(rng, rapidity_max=2.0):
    if rng.random() < 0.5:
        return rotation_generator(random_axis(rng), rng.uniform(0, 2 * math.pi))
    return boost_generator(random_axis(rng), rng.uniform(-rapidity_max, rapidity_max))


def apply_closed(gen, triple):
    nrm = float(np.linalg.norm(gen.nu))
    axis = gen.nu / nrm if nrm > 0 else ZHAT
    if gen.kind == KIND_ROTATION:
        return rotate_field_closed(triple, axis, 2 * math.atan2(nrm, gen.nu0))
    return boost_field_closed(triple, axis, 2 * math.asinh(nrm))


# ---------------------------------------------------------------------------
# generators


def test_rotation_generator():
    ident = rotation_generator(ZHAT, 0.0)
    assert ident.nu0 == 1.0 and np.array_equal(ident.nu, np.zeros(3))
    full = rotation_generator(ZHAT, 2 * math.pi)
    assert full.nu0 == pytest.approx(-1.0, abs=1e-15)
    assert np.allclose(full.nu, np.zeros(3), atol=1e-15)
    rng = np.random.default_rng(30)
    for _ in range(50):
        gen = rotation_generator(random_axis(rng), rng.uniform(-10, 10))
        assert gen.nu0**2 + float(gen.nu @ gen.nu) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NonUnitAxis):
        rotation_generator([1.0, 1.0, 0.0], 0.3)


def test_boost_generator_and_velocity():
    ident = boost_generator(ZHAT, 0.0)
    assert ident.nu0 == 1.0 and np.array_equal(ident.nu, np.zeros(3))
    gen = boost_from_velocity([0.6, 0.0, 0.0])
    phi = math.atanh(0.6)
    assert phi == pytest.approx(0.6931471805599453, rel=1e-12)
    assert gen.nu0 == pytest.approx(math.cosh(phi / 2), rel=1e-12)
    assert math.cosh(phi) == pytest.approx(1.25, rel=1e-12)
    rng = np.random.default_rng(31)
    for _ in range(50):
        gen = boost_generator(random_axis(rng), rng.uniform(-3, 3))
        assert gen.nu0**2 - float(gen.nu @ gen.nu) == pytest.approx(1.0, abs=1e-12)
    rest = boost_from_velocity([0.0, 0.0, 0.0])
    assert rest.nu0 == 1.0 and np.array_equal(rest.nu, np.zeros(3)) and rest.kind == KIND_BOOST
    with pytest.raises(SuperluminalSpeed):
        boost_from_velocity([1.0, 0.0, 0.0])
    with pytest.raises(SuperluminalSpeed):
        boost_from_velocity([0.0, 2.5, 0.0], c=2.0)


def test_constraint_checked_at_construction():
    with pytest.raises(ValueError):
        LorentzQuat(nu0=1.0, nu=np.array([0.1, 0, 0]), kind=KIND_ROTATION)
    with pytest.raises(ValueError):
        LorentzQuat(nu0=1.0, nu=np.array([0.1, 0, 0]), kind=KIND_BOOST)
    with pytest.raises(ValueError):
        LorentzQuat(nu0=1.0, nu=np.zeros(3), kind="shear")
    with pytest.raises(ValueError, match="nu must be a 3-vector"):
        LorentzQuat(nu0=1.0, nu=np.zeros(4), kind=KIND_ROTATION)


def test_boost_constraint_is_relative_to_nu0_squared():
    # from rapidity ~9 on, 1e-12 is below the float spacing of cosh^2(phi/2)
    rng = np.random.default_rng(9)
    for phi in np.linspace(-50.0, 50.0, 201):
        gen = boost_generator(random_axis(rng), float(phi))
        assert abs(gen.nu0**2 - float(gen.nu @ gen.nu) - 1.0) <= 1e-12 * gen.nu0**2
    with pytest.raises(ValueError, match="boost constraint"):
        LorentzQuat(nu0=1e3, nu=np.array([1e3, 0, 0]), kind=KIND_BOOST)
    with pytest.raises(ValueError, match="rotation constraint"):
        LorentzQuat(nu0=math.nan, nu=np.zeros(3), kind=KIND_ROTATION)


def test_matrix_realization_satisfies_l_lt_identity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        gen = random_generator(rng)
        prod = gen.matrix @ gen.matrix_t
        assert np.max(np.abs(prod - ETA_0)) < 1e-12


# ---------------------------------------------------------------------------
# tensor conjugation


def test_transform_tensor_identity_and_z_rotation():
    rng = np.random.default_rng(33)
    tensor = em_tensor(random_sample(rng))
    ident = rotation_generator(ZHAT, 0.0)
    assert np.allclose(transform_tensor(ident, tensor).f, tensor.f, atol=0)

    half_turn = rotation_generator(ZHAT, math.pi)
    out = transform_tensor(half_turn, tensor)
    expected = tensor.f * np.array([-1.0, -1.0, 1.0])
    assert np.allclose(out.f, expected, atol=1e-14)


def test_transform_tensor_preserves_invariants():
    rng = np.random.default_rng(34)
    for _ in range(200):
        sample = random_sample(rng)
        i1, i2 = lorentz_invariants(sample)
        tensor = em_tensor(sample)
        for _ in range(int(rng.integers(1, 6))):
            tensor = transform_tensor(random_generator(rng), tensor)
        i1p, i2p = lorentz_invariants(tensor.fields())
        w0p, _ = energy_quadratic(tensor.fields())
        scale = max(1.0, w0p)
        assert abs(i1p - i1) / scale < 1e-10
        assert abs(i2p - i2) / scale < 1e-10


def test_same_axis_boosts_add_rapidities():
    rng = np.random.default_rng(35)
    for _ in range(30):
        axis = random_axis(rng)
        p1, p2 = rng.uniform(-1.5, 1.5, size=2)
        tensor = em_tensor(random_sample(rng))
        two_step = transform_tensor(boost_generator(axis, p2), transform_tensor(boost_generator(axis, p1), tensor))
        one_step = transform_tensor(boost_generator(axis, p1 + p2), tensor)
        assert np.max(np.abs(two_step.f - one_step.f)) < 1e-12


def test_energy_density_is_not_invariant():
    sample = EmFieldSample(e=np.array([1.0, 0.0, 0.0]), b=np.zeros(3))
    w0, _ = energy_quadratic(sample)
    boosted = transform_tensor(boost_generator(ZHAT, 1.0), em_tensor(sample)).fields()
    w0p, _ = energy_quadratic(boosted)
    assert abs(w0p - w0) > 1e-3


# ---------------------------------------------------------------------------
# closed forms


def test_rotate_field_closed_basics():
    rng = np.random.default_rng(36)
    F = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.allclose(rotate_field_closed(F, ZHAT, 0.0), F, atol=0)
    # field parallel to the axis is untouched
    for alpha in (0.3, 1.0, 4.0):
        parallel = (2.0 - 1.0j) * ZHAT
        assert np.allclose(rotate_field_closed(parallel, ZHAT, alpha), parallel, atol=1e-15)
    with pytest.raises(NonUnitAxis):
        rotate_field_closed(F, [1.0, 1.0, 0.0], 0.3)


def test_boost_field_closed_basics():
    rng = np.random.default_rng(37)
    F = rng.normal(size=3) + 1j * rng.normal(size=3)
    assert np.allclose(boost_field_closed(F, ZHAT, 0.0), F, atol=0)
    # pure electric field along the boost axis is unchanged
    e_par = np.array([0.0, 0.0, 3.0])
    triple = field_triple(EmFieldSample(e=e_par, b=np.zeros(3)))
    out = triple_to_fields(boost_field_closed(triple, ZHAT, 1.3))
    assert np.allclose(out.e, e_par, atol=1e-12)
    assert np.allclose(out.b, np.zeros(3), atol=1e-12)


def test_closed_forms_match_tensor_conjugation():
    rng = np.random.default_rng(38)
    for _ in range(300):
        sample = random_sample(rng)
        gen = random_generator(rng)
        conj = triple_from_tensor(transform_tensor(gen, em_tensor(sample)))
        closed = apply_closed(gen, field_triple(sample))
        assert np.max(np.abs(conj - closed)) < 1e-12


def test_eb_boost():
    e = np.array([0.4, -0.2, 0.9])
    b = np.array([1.0, 0.3, -0.5])
    e2, b2 = eb_boost(e, b, np.zeros(3))
    assert np.array_equal(e2, e) and np.array_equal(b2, b)

    # transverse magnetic field picks up an electric component
    gamma = 1.25
    e2, b2 = eb_boost(np.zeros(3), np.array([0.0, 0.0, 2.0]), np.array([0.6, 0.0, 0.0]))
    assert np.allclose(e2, [0.0, -gamma * 0.6 * 2.0, 0.0], rtol=1e-12)
    assert np.allclose(b2, [0.0, 0.0, gamma * 2.0], rtol=1e-12)

    rng = np.random.default_rng(39)
    for _ in range(100):
        sample = random_sample(rng)
        speed = rng.uniform(0, 0.95)
        v = speed * random_axis(rng)
        e2, b2 = eb_boost(sample.e, sample.b, v)
        out = EmFieldSample(e=e2, b=b2)
        i1, i2 = lorentz_invariants(sample)
        i1p, i2p = lorentz_invariants(out)
        w0p, _ = energy_quadratic(out)
        scale = max(1.0, w0p)
        assert abs(i1p - i1) / scale < 1e-10
        assert abs(i2p - i2) / scale < 1e-10
        # consistent with the closed form at rapidity artanh(|v|)
        closed = boost_field_closed(field_triple(sample), v / speed, math.atanh(speed))
        assert np.max(np.abs(field_triple(out) - closed)) < 1e-12

    with pytest.raises(SuperluminalSpeed):
        eb_boost(e, b, np.array([0.0, 0.0, 1.0]))


def test_triple_adapters_round_trip():
    rng = np.random.default_rng(40)
    sample = random_sample(rng)
    tensor = em_tensor(sample)
    triple = triple_from_tensor(tensor)
    assert np.array_equal(triple, field_triple(sample))
    assert np.array_equal(tensor_from_triple(triple).f, tensor.f)
    back = triple_to_fields(triple)
    assert np.array_equal(back.e, sample.e)
    assert np.array_equal(back.b, sample.b)


# ---------------------------------------------------------------------------
# batched kernels

N_ROWS = 6
unit = st.floats(-1.0, 1.0, allow_nan=False)
generators = st.tuples(
    arrays(float, (N_ROWS, 3), elements=unit).filter(lambda m: np.all(np.linalg.norm(m, axis=1) > 1e-3)).map(
        lambda m: m / np.linalg.norm(m, axis=1, keepdims=True)),
    arrays(float, N_ROWS, elements=st.floats(-6.0, 6.0, allow_nan=False)),
    arrays(bool, N_ROWS),
)
triples = st.tuples(arrays(float, (N_ROWS, 3), elements=st.floats(-1e3, 1e3)),
                    arrays(float, (N_ROWS, 3), elements=st.floats(-1e3, 1e3))).map(lambda p: p[0] + 1j * p[1])


def scalar_generator(axis, angle, boost):
    return (boost_generator if boost else rotation_generator)(axis, float(angle))


@settings(max_examples=150, deadline=None)
@given(generators, triples)
def test_transform_batch_equals_matrix_conjugation(gens, f):
    axes, angles, boost = gens
    nu0, nu = generator_batch(axes, angles, boost)
    got = transform_batch(nu0, nu, boost, f)
    assert got.shape == (N_ROWS, 3)
    for i in range(N_ROWS):
        gen = scalar_generator(axes[i], angles[i], boost[i])
        assert gen.kind == (KIND_BOOST if boost[i] else KIND_ROTATION)
        assert gen.nu0 == nu0[i] and np.array_equal(gen.nu, nu[i])
        # the first column of L F L^T holds -f'
        want = -(gen.matrix @ EmTensor(f=f[i]).matrix @ gen.matrix_t)[1:4, 0]
        scale = (gen.nu0**2 + float(gen.nu @ gen.nu)) * max(1.0, float(np.max(np.abs(f[i]))))
        assert np.max(np.abs(got[i] - want)) <= 1e-14 * scale
        assert np.array_equal(transform_tensor(gen, EmTensor(f=f[i])).f, got[i])


@settings(max_examples=150, deadline=None)
@given(generators, triples)
def test_closed_form_batch_equals_the_scalar_closed_forms(gens, F):
    axes, angles, boost = gens
    got = closed_form_batch(F, axes, angles, boost)
    for i in range(N_ROWS):
        closed = boost_field_closed if boost[i] else rotate_field_closed
        assert np.array_equal(closed(F[i], axes[i], angles[i]), got[i])
    # a mask of one kind is what the kind's own function computes
    assert np.array_equal(closed_form_batch(F, axes, angles, False), rotate_field_closed(F, axes, angles))
    assert np.array_equal(closed_form_batch(F, axes, angles, True), boost_field_closed(F, axes, angles))


def test_batched_kernels_check_every_row():
    axes = np.tile(ZHAT, (4, 1))
    axes[2] = [0.0, 0.0, 1.5]
    axes[3] = [0.0, 0.0, 2.0]
    for call in (lambda: generator_batch(axes, np.zeros(4), False),
                 lambda: closed_form_batch(np.zeros((4, 3)), axes, np.zeros(4), True)):
        with pytest.raises(NonUnitAxis, match=r"\|m\| = 1\.5 is not 1"):
            call()
    with pytest.raises(NonUnitAxis, match="3-vector"):
        generator_batch(np.ones((4, 2)), np.zeros(4), False)
    # a NaN axis is not unit length either
    with pytest.raises(NonUnitAxis):
        rotation_generator([math.nan, 0.0, 0.0], 0.3)
    # the constraint check names the first bad row's kind and error
    angles = np.array([0.1, 0.2, math.nan, 0.4])
    with pytest.raises(ValueError, match="^boost constraint violated by nan$"):
        generator_batch(np.tile(ZHAT, (4, 1)), angles, np.array([False, False, True, False]))
    with pytest.raises(ValueError, match="^rotation constraint violated by nan$"):
        generator_batch(np.tile(ZHAT, (4, 1)), angles, False)
    # an overflowing boost or an infinite angle raises instead of returning inf or NaN
    with pytest.raises(ArithmeticError):
        boost_generator(ZHAT, 1500.0)
    with pytest.raises(ArithmeticError):
        boost_field_closed(np.ones(3, dtype=complex), ZHAT, 800.0)
    with pytest.raises((ArithmeticError, ValueError)):
        rotate_field_closed(np.ones(3, dtype=complex), ZHAT, math.inf)
    with pytest.raises(ValueError, match=r"^boost constraint violated by 2\.0$"):
        LorentzQuat(nu0=1.0, nu=np.array([1.0, 1.0, 0.0]), kind=KIND_BOOST)
