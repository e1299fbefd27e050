import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quatspin.emfield import (
    DegenerateStep,
    EmFieldSample,
    EmTensor,
    FourCurrent,
    FourPotential,
    apply_dirac,
    continuity_residual,
    current_matrix,
    em_tensor,
    energy_quadratic,
    eta_decompose,
    fields_from_potential,
    lorentz_invariants,
    lorenz_gauge_residual,
    maxwell_residual,
    potential_matrix,
    wave_residual,
)
from quatspin.quaternion import ETA_0, ETA_X, ETA_Y, ETA_Z

H_LEVELS = (0.02, 0.01, 0.005)


# ---------------------------------------------------------------------------
# analytic field cases


def plane_wave(t, x, y, z):
    """Axis-aligned vacuum wave; equal-step differencing cancels its residuals exactly."""
    a = math.cos(z - t)
    return EmFieldSample(e=np.array([a, 0.0, 0.0]), b=np.array([0.0, a, 0.0]))


def oblique_wave(t, x, y, z):
    """Vacuum wave along k = (0.6, 0, 0.8): E transverse, B = khat x E."""
    a = math.cos(0.6 * x + 0.8 * z - t)
    return EmFieldSample(e=np.array([0.8, 0.0, -0.6]) * a, b=np.array([0.0, 1.0, 0.0]) * a)


def point_charge(t, x, y, z):
    r = np.array([x, y, z])
    return EmFieldSample(e=r / float(r @ r) ** 1.5, b=np.zeros(3))


def constant_field(t, x, y, z):
    return EmFieldSample(e=np.array([1.0, 2.0, 3.0]), b=np.array([4.0, 5.0, 6.0]))


# ---------------------------------------------------------------------------
# potentials


def test_fields_from_zero_potential():
    pot = FourPotential(phi=lambda t, x, y, z: 0.0, a=lambda t, x, y, z: np.zeros(3))
    sample = fields_from_potential(pot, (0.1, 0.2, 0.3, 0.4), 0.01)
    assert np.array_equal(sample.e, np.zeros(3))
    assert np.array_equal(sample.b, np.zeros(3))
    with pytest.raises(DegenerateStep):
        fields_from_potential(pot, (0, 0, 0, 0), 0.0)


def test_uniform_field_potential():
    # A = (-y, x, 0)/2 gives B = z-hat exactly (linear, so differencing is exact)
    pot = FourPotential(
        phi=lambda t, x, y, z: 0.0,
        a=lambda t, x, y, z: np.array([-y / 2, x / 2, 0.0]),
    )
    sample = fields_from_potential(pot, (0.0, 0.7, -0.3, 0.2), 0.05)
    assert np.allclose(sample.b, [0, 0, 1], atol=1e-13)
    assert np.allclose(sample.e, np.zeros(3), atol=1e-13)


def test_gauge_shift_leaves_fields_invariant():
    def psi(t, x, y, z):
        return math.sin(x + 2 * y - 0.5 * z + 0.7 * t)

    def dpsi(t, x, y, z):
        c = math.cos(x + 2 * y - 0.5 * z + 0.7 * t)
        return c * np.array([0.7, 1.0, 2.0, -0.5])

    base = FourPotential(
        phi=lambda t, x, y, z: x * y - 0.3 * t * z,
        a=lambda t, x, y, z: np.array([math.sin(y), z * x, math.cos(t)]),
    )
    shifted = FourPotential(
        phi=lambda t, x, y, z: base.phi(t, x, y, z) - dpsi(t, x, y, z)[0],
        a=lambda t, x, y, z: base.a(t, x, y, z) + dpsi(t, x, y, z)[1:],
    )
    point = (0.3, 0.4, -0.2, 0.6)
    for h in (0.02, 0.01):
        s0 = fields_from_potential(base, point, h)
        s1 = fields_from_potential(shifted, point, h)
        bound = 10 * h * h
        assert np.max(np.abs(s0.e - s1.e)) < bound
        assert np.max(np.abs(s0.b - s1.b)) < bound


def test_lorenz_gauge_residual():
    # static Coulomb potential: time independent and divergence free
    coulomb = FourPotential(
        phi=lambda t, x, y, z: 1.0 / math.sqrt(x * x + y * y + z * z),
        a=lambda t, x, y, z: np.zeros(3),
    )
    assert abs(lorenz_gauge_residual(coulomb, (0.0, 0.6, 0.5, 0.4), 0.01)) < 1e-12

    # phi = t is linear, central differencing is exact: residual 1/c
    linear = FourPotential(phi=lambda t, x, y, z: t, a=lambda t, x, y, z: np.zeros(3))
    assert lorenz_gauge_residual(linear, (0.0, 0.0, 0.0, 0.0), 0.1, c=2.0) == pytest.approx(0.5, abs=1e-14)

    # plane-wave potential built to satisfy the gauge condition
    wave = FourPotential(
        phi=lambda t, x, y, z: math.sin(z - t),
        a=lambda t, x, y, z: np.array([0.0, 0.0, math.sin(z - t)]),
    )
    point = (0.2, 0.1, 0.3, 0.5)
    for h in H_LEVELS:
        assert abs(lorenz_gauge_residual(wave, point, h)) < 2 * h * h


def test_lorenz_gauge_residual_matches_trace_form():
    pot = FourPotential(
        phi=lambda t, x, y, z: math.sin(x + 0.5 * t) * math.cos(y),
        a=lambda t, x, y, z: np.array([y * z, math.sin(t + z), x * x]),
    )
    point = (0.4, 0.2, -0.3, 0.1)
    h = 0.01
    direct = lorenz_gauge_residual(pot, point, h)
    dphi = apply_dirac(lambda *p: potential_matrix(pot, *p), point, h)
    assert -np.trace(dphi).real / 4 == pytest.approx(direct, abs=1e-12)
    assert abs(np.trace(dphi).imag) < 1e-12


# ---------------------------------------------------------------------------
# tensor structure


def test_em_tensor_structure():
    assert np.array_equal(em_tensor(EmFieldSample(e=np.zeros(3), b=np.zeros(3))).matrix, np.zeros((4, 4)))

    m = em_tensor(EmFieldSample(e=np.zeros(3), b=np.array([1.0, 0, 0]))).matrix
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1], expected[1, 0] = 1, -1
    expected[2, 3], expected[3, 2] = -1, 1
    assert np.array_equal(m, expected)

    rng = np.random.default_rng(20)
    for _ in range(50):
        sample = EmFieldSample(e=rng.normal(size=3), b=rng.normal(size=3))
        tensor = em_tensor(sample)
        m = tensor.matrix
        assert np.array_equal(np.diag(m), np.zeros(4))
        # real part antisymmetric, imaginary part antisymmetric as well
        assert np.array_equal(m.real, -m.real.T)
        assert np.array_equal(m.imag, -m.imag.T)
        # rebuilding the coefficients from the matrix is lossless
        again = EmTensor.from_matrix(m)
        assert np.array_equal(again.f, tensor.f)
        back = again.fields()
        assert np.array_equal(back.e, sample.e)
        assert np.array_equal(back.b, sample.b)


# ---------------------------------------------------------------------------
# residuals


def test_constant_fields_give_exact_zero_residuals():
    res = maxwell_residual(constant_field, None, (0.0, 0.0, 0.0, 0.0), 0.02)
    assert res.max_abs() == 0.0
    wave = wave_residual(constant_field, (0.0, 0.0, 0.0, 0.0), 0.02)
    assert np.max(np.abs(wave)) == 0.0


def _order(values):
    return [math.log2(c / f) for c, f in zip(values[:-1], values[1:])]


def test_axis_aligned_plane_wave_residuals_cancel():
    # the t and z stencils share the same sinc factor along the
    # characteristic, so the discrete residuals vanish to round-off
    point = (0.3, 0.1, 0.2, 0.4)
    res = maxwell_residual(plane_wave, None, point, 0.02)
    assert res.max_abs() < 1e-11
    assert np.max(np.abs(wave_residual(plane_wave, point, 0.02))) < 1e-10


def test_oblique_plane_wave_residuals_converge_at_second_order():
    point = (0.3, 0.1, 0.2, 0.4)
    maxima = []
    for h in H_LEVELS:
        res = maxwell_residual(oblique_wave, None, point, h)
        wave = wave_residual(oblique_wave, point, h)
        maxima.append(max(res.max_abs(), float(np.max(np.abs(wave)))))
    assert maxima[0] < 1e-3
    for order in _order(maxima):
        assert order > 1.8


def test_point_charge_residuals_converge():
    point = (0.0, 0.8, 0.6, 0.5)
    maxima = []
    for h in H_LEVELS:
        res = maxwell_residual(point_charge, None, point, h)
        maxima.append(res.max_abs())
    for order in _order(maxima):
        assert order > 1.8


def test_maxwell_residual_with_source_terms():
    # a charge density with its matching current balances the Ampere and
    # Gauss law residuals of the field it would not source; here we only
    # verify the 4 pi bookkeeping on a synthetic pair
    def field(t, x, y, z):
        return EmFieldSample(e=np.array([x, y, z]) * 2.0, b=np.zeros(3))

    def source(t, x, y, z):
        return FourCurrent(rho=6.0 / (4.0 * math.pi), j=np.zeros(3))

    res = maxwell_residual(field, source, (0.0, 0.3, 0.2, 0.1), 0.01)
    assert abs(res.gauss_e) < 1e-11
    assert abs(res.gauss_b) < 1e-12


def test_maxwell_residual_matches_eta_route():
    def field(t, x, y, z):
        e = np.array([math.sin(y + 0.3 * t), x * z, math.cos(z - t)])
        b = np.array([y * y, math.sin(z + t), x + 0.5 * y])
        return EmFieldSample(e=e, b=b)

    def source(t, x, y, z):
        return FourCurrent(rho=0.1 * x * y, j=np.array([z, t * 0.2, x * y]))

    point = (0.2, 0.4, -0.1, 0.3)
    h = 0.01
    res = maxwell_residual(field, source, point, h)

    def tensor_matrix(*p):
        return em_tensor(field(*p)).matrix

    src = source(*point)
    coeffs = eta_decompose(apply_dirac(tensor_matrix, point, h) - 4.0 * math.pi * current_matrix(src))
    assert coeffs[0].real == pytest.approx(res.gauss_b, abs=1e-12)
    assert -coeffs[0].imag == pytest.approx(res.gauss_e, abs=1e-12)
    assert np.allclose(-coeffs[1:].imag, res.faraday, atol=1e-12)
    assert np.allclose(coeffs[1:].real, res.ampere, atol=1e-12)


def test_wave_residual_standing_wave():
    # mixed-axis standing profile so the stencil errors do not cancel
    def standing(t, x, y, z):
        a = math.cos(0.6 * x) * math.cos(0.8 * z) * math.cos(t)
        return EmFieldSample(e=np.array([0.0, a, 0.0]), b=np.array([0.0, 0.0, a]))

    point = (0.25, 0.4, 0.0, 0.3)
    maxima = [float(np.max(np.abs(wave_residual(standing, point, h)))) for h in H_LEVELS]
    for order in _order(maxima):
        assert order > 1.8


def test_continuity_residual():
    # static charge, no current
    def static(t, x, y, z):
        return FourCurrent(rho=math.exp(-(x * x + y * y + z * z)), j=np.zeros(3))

    assert abs(continuity_residual(static, (0.0, 0.2, 0.1, -0.3), 0.01)) < 1e-13

    # advected Gaussian pulse: rho(r, t) = g(r - v t), j = rho v
    v = np.array([0.3, -0.2, 0.5])

    def advected(t, x, y, z):
        r = np.array([x, y, z]) - v * t
        rho = math.exp(-float(r @ r))
        return FourCurrent(rho=rho, j=rho * v)

    point = (0.4, 0.3, 0.1, 0.2)
    maxima = [abs(continuity_residual(advected, point, h)) for h in H_LEVELS]
    for order in _order(maxima):
        assert order > 1.8

    # trace form agrees with the direct finite-difference sum
    h = 0.01
    direct = continuity_residual(advected, point, h)
    dtj = apply_dirac(lambda *p: current_matrix(advected(*p)), point, h, transpose=True)
    assert np.trace(dtj).real / 4 == pytest.approx(direct, abs=1e-12)


def test_dirac_operator_composition_is_wave_operator():
    def f(t, x, y, z):
        return math.sin(t + 2 * x - y + 0.5 * z)

    def f_matrix(t, x, y, z):
        return f(t, x, y, z) * np.eye(4, dtype=complex)

    def lap_minus_tt(t, x, y, z):
        # (laplacian - dtt) applied analytically: (4 + 1 + 0.25) - 1 = 4.25 times -sin
        return -4.25 * f(t, x, y, z)

    point = (0.3, 0.2, 0.1, 0.4)
    h = 0.01

    def df(*p):
        return apply_dirac(f_matrix, p, h)

    composed = apply_dirac(df, point, h, transpose=True)
    coeffs = eta_decompose(composed)
    assert coeffs[0].real == pytest.approx(lap_minus_tt(*point), abs=5 * h * h)
    assert np.max(np.abs(coeffs[1:])) < 1e-10
    off_diag = composed - coeffs[0] * np.eye(4)
    assert np.max(np.abs(off_diag)) < 1e-10


# ---------------------------------------------------------------------------
# quadratic forms


def test_energy_quadratic_values():
    w0, flux = energy_quadratic(EmFieldSample(e=np.zeros(3), b=np.zeros(3)))
    assert w0 == 0.0 and np.array_equal(flux, np.zeros(3))
    w0, flux = energy_quadratic(EmFieldSample(e=np.array([1.0, 0, 0]), b=np.array([0.0, 1, 0])))
    assert w0 == 1.0
    assert np.array_equal(flux, [0, 0, 1])


def test_quadratic_forms_match_matrix_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        sample = EmFieldSample(e=rng.normal(size=3), b=rng.normal(size=3))
        m = em_tensor(sample).matrix

        w0, flux = energy_quadratic(sample)
        coeffs = eta_decompose(0.5 * m @ np.conj(m))
        assert -coeffs[0].real == pytest.approx(w0, abs=1e-12)
        assert abs(coeffs[0].imag) < 1e-12
        assert np.allclose(coeffs[1:].imag, flux, atol=1e-12)
        assert np.max(np.abs(coeffs[1:].real)) < 1e-12

        i1, i2 = lorentz_invariants(sample)
        coeffs = eta_decompose(0.5 * m.T @ m)
        assert coeffs[0].real == pytest.approx(i1, abs=1e-12)
        assert -coeffs[0].imag == pytest.approx(i2, abs=1e-12)
        assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_lorentz_invariants_values():
    # vacuum plane wave is a null field
    sample = plane_wave(0.3, 0.0, 0.0, 0.7)
    i1, i2 = lorentz_invariants(sample)
    assert i1 == pytest.approx(0.0, abs=1e-15)
    assert i2 == pytest.approx(0.0, abs=1e-15)
    i1, i2 = lorentz_invariants(EmFieldSample(e=np.zeros(3), b=np.array([0.0, 0, 1])))
    assert i1 == 0.5 and i2 == 0.0


def test_batched_samples_match_row_by_row():
    rng = np.random.default_rng(22)
    e, b = rng.normal(size=(5, 4, 3)), rng.normal(size=(5, 4, 3))
    batch = EmFieldSample(e=e, b=b)
    i1, i2 = lorentz_invariants(batch)
    w0, flux = energy_quadratic(batch)
    tensor = em_tensor(batch)
    assert i1.shape == i2.shape == w0.shape == (5, 4) and flux.shape == tensor.f.shape == (5, 4, 3)
    m = tensor.matrix
    assert m.shape == (5, 4, 4, 4) and np.array_equal(EmTensor.from_matrix(m).f, tensor.f)
    for idx in np.ndindex(5, 4):
        one = EmFieldSample(e=e[idx], b=b[idx])
        assert isinstance(lorentz_invariants(one)[0], float) and isinstance(energy_quadratic(one)[0], float)
        assert (i1[idx], i2[idx]) == lorentz_invariants(one)
        assert w0[idx] == energy_quadratic(one)[0] and np.array_equal(flux[idx], energy_quadratic(one)[1])
        assert np.array_equal(m[idx], em_tensor(one).matrix)
    with pytest.raises(ValueError):
        EmFieldSample(e=e, b=b[0])
    with pytest.raises(ValueError):
        EmTensor(f=np.zeros((2, 4)))


# ---------------------------------------------------------------------------
# grid sweeps


def test_residual_sweep_is_order_independent():
    h = 0.02
    origin = (0.2, 0.0, 0.1, 0.2)
    # the nodes of a 5 x 6 x 6 x 6 grid that lie two cells inside every face
    pts = [tuple(o + i * h for o, i in zip(origin, idx)) for idx in itertools.product((2,), (2, 3), (2, 3), (2, 3))]

    def residual_at(p):
        return maxwell_residual(oblique_wave, None, p, h).max_abs()

    forward = [residual_at(p) for p in pts]
    backward = [residual_at(p) for p in reversed(pts)]
    assert forward == backward[::-1]


# ---------------------------------------------------------------------------
# the one-stencil differencing against the per-law reference


def _ref_shift(point, axis, delta):
    p = list(point)
    p[axis] += delta
    return tuple(p)


def _ref_partial(fn, point, axis, h):
    return (np.asarray(fn(*_ref_shift(point, axis, h))) - np.asarray(fn(*_ref_shift(point, axis, -h)))) / (2.0 * h)


def _ref_second(fn, point, axis, h):
    plus = np.asarray(fn(*_ref_shift(point, axis, 2.0 * h)))
    minus = np.asarray(fn(*_ref_shift(point, axis, -2.0 * h)))
    return (plus - 2.0 * np.asarray(fn(*point)) + minus) / (4.0 * h * h)


def _ref_div(vec_fn, point, h):
    return float(sum(_ref_partial(vec_fn, point, 1 + k, h)[k] for k in range(3)))


def _ref_curl(vec_fn, point, h):
    dx, dy, dz = (_ref_partial(vec_fn, point, axis, h) for axis in (1, 2, 3))
    return np.array([dy[2] - dz[1], dz[0] - dx[2], dx[1] - dy[0]])


def _ref_grad(scalar_fn, point, h):
    return np.array([float(_ref_partial(scalar_fn, point, 1 + k, h)) for k in range(3)])


def _ref_maxwell(field_fn, source_fn, point, h, c):
    """Each law differenced on its own, E and B sampled through separate adapters: 28 field_fn calls."""
    def e_fn(*p):
        return field_fn(*p).e

    def b_fn(*p):
        return field_fn(*p).b

    src = source_fn(*point) if source_fn is not None else FourCurrent(rho=0.0, j=np.zeros(3))
    return (_ref_div(b_fn, point, h), _ref_curl(e_fn, point, h) + _ref_partial(b_fn, point, 0, h) / c,
            _ref_curl(b_fn, point, h) - _ref_partial(e_fn, point, 0, h) / c - (4.0 * math.pi / c) * src.j,
            _ref_div(e_fn, point, h) - 4.0 * math.pi * src.rho)


def _ref_wave(field_fn, point, h, c):
    def f_fn(*p):
        s = field_fn(*p)
        return s.b - 1j * s.e

    out = -_ref_second(f_fn, point, 0, h) / (c * c)
    for axis in (1, 2, 3):
        out = out + _ref_second(f_fn, point, axis, h)
    return out


def _ref_continuity(source_fn, point, h):
    def rho_fn(*p):
        return source_fn(*p).rho

    def j_fn(*p):
        return source_fn(*p).j

    return float(_ref_partial(rho_fn, point, 0, h)) + _ref_div(j_fn, point, h)


def _ref_apply_dirac(mat_fn, point, h, c, transpose):
    sign = -1.0 if transpose else 1.0
    out = (1j / c) * ETA_0 @ _ref_partial(mat_fn, point, 0, h)
    for axis, eta in ((1, ETA_X), (2, ETA_Y), (3, ETA_Z)):
        out = out + sign * eta @ _ref_partial(mat_fn, point, axis, h)
    return out


def _smooth(rng, n, point):
    """n random smooth functions of (t, x, y, z) as one callable returning an (n,) array.

    About a third of them are constant and some of those are zero, so that differences of 0.0 and
    their negations (-0.0) reach every law.  In about a quarter of the draws every function is
    instead a zero whose sign flips at the point (function i along axis 1 + (i - n) % 3, the axis of
    its own divergence term), so that sums of zeros of either sign reach every law too.
    """
    if rng.random() < 0.25:
        signs, axes = rng.choice([0.0, -0.0], size=n), [1 + (i - n) % 3 for i in range(n)]

        def zeros(*p):
            return np.array([s * (p[axis] - point[axis]) for s, axis in zip(signs, axes)])

        return zeros
    const, lin, amp = rng.normal(size=n), rng.normal(size=(n, 4)), rng.normal(size=n)
    k, phase = rng.normal(size=(n, 4)) * 3.0, rng.uniform(0.0, 2.0 * math.pi, size=n)
    flat = rng.random(n) < 0.35
    lin[flat], amp[flat] = 0.0, 0.0
    const[flat & (rng.random(n) < 0.5)] = 0.0

    def fn(t, x, y, z):
        p = np.array([t, x, y, z])
        return const + lin @ p + amp * np.sin(k @ p + phase)

    return fn


def _same(a, b) -> bool:
    """Same type, dtype, shape and bytes (the sign of zero included)."""
    return type(a) is type(b) and np.asarray(a).dtype == np.asarray(b).dtype and \
        np.shape(a) == np.shape(b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-6, 0.3), st.sampled_from((1.0, 0.7, 2.9979e8)),
       st.tuples(*[st.floats(-1.0, 1.0)] * 4))
def test_differencing_is_bit_identical_to_per_law_reference(seed, h, c, point):
    rng = np.random.default_rng(seed)
    fv, sv, pv = _smooth(rng, 6, point), _smooth(rng, 4, point), _smooth(rng, 4, point)

    def field(*p):
        v = fv(*p)
        return EmFieldSample(e=v[:3], b=v[3:])

    def source(*p):
        v = sv(*p)
        return FourCurrent(rho=float(v[0]), j=v[1:])

    pot = FourPotential(phi=lambda *p: float(pv(*p)[0]), a=lambda *p: pv(*p)[1:])

    for src in (None, source):
        res, ref = maxwell_residual(field, src, point, h, c), _ref_maxwell(field, src, point, h, c)
        assert all(map(_same, (res.gauss_b, res.faraday, res.ampere, res.gauss_e), ref))
    assert _same(wave_residual(field, point, h, c), _ref_wave(field, point, h, c))
    assert _same(continuity_residual(source, point, h), _ref_continuity(source, point, h))
    lorenz = float(_ref_partial(pot.phi, point, 0, h)) / c + _ref_div(pot.a, point, h)
    assert _same(lorenz_gauge_residual(pot, point, h, c), lorenz)
    sample = fields_from_potential(pot, point, h, c)
    assert _same(sample.b, _ref_curl(pot.a, point, h))
    assert _same(sample.e, -_ref_grad(pot.phi, point, h) - _ref_partial(pot.a, point, 0, h) / c)
    for mat_fn in (lambda *p: potential_matrix(pot, *p), lambda *p: current_matrix(source(*p), c),
                   lambda *p: em_tensor(field(*p)).matrix):
        for transpose in (False, True):
            assert _same(apply_dirac(mat_fn, point, h, c, transpose), _ref_apply_dirac(mat_fn, point, h, c, transpose))


def test_each_stencil_point_is_sampled_once():
    calls = []

    def field(*p):
        calls.append(p)
        return oblique_wave(*p)

    point = (0.3, 0.1, 0.2, 0.4)
    maxwell_residual(field, None, point, 0.01)
    assert len(calls) == len(set(calls)) == 8
    calls.clear()
    wave_residual(field, point, 0.01)
    assert len(calls) == len(set(calls)) == 9
