import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from quatspin.quaternion import (
    ETA_0,
    ETA_X,
    ETA_Y,
    ETA_Z,
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    NonUnitAxis,
    NonUnitQuaternion,
    Quaternion,
    from_axis_angle,
    from_eta,
    precession_angle,
    quat_mul,
    quat_to_rotation,
    rotate_batch,
    to_eta,
    to_spinor,
    to_su2,
)


def random_quat(rng, unit=False):
    q = Quaternion.from_array(rng.normal(size=4))
    return q.normalized() if unit else q


def test_basis_products_match_table_exactly():
    # eta_x eta_y = -eta_z (cyclic), squares = -eta_0, eta_0 is the identity
    table = {
        (0, 0): ETA_0, (0, 1): ETA_X, (0, 2): ETA_Y, (0, 3): ETA_Z,
        (1, 0): ETA_X, (2, 0): ETA_Y, (3, 0): ETA_Z,
        (1, 1): -ETA_0, (2, 2): -ETA_0, (3, 3): -ETA_0,
        (1, 2): -ETA_Z, (2, 1): ETA_Z,
        (2, 3): -ETA_X, (3, 2): ETA_X,
        (3, 1): -ETA_Y, (1, 3): ETA_Y,
    }
    basis = (ETA_0, ETA_X, ETA_Y, ETA_Z)
    for (i, j), expected in table.items():
        assert np.array_equal(basis[i] @ basis[j], expected), (i, j)


def test_from_array_and_normalized_refuse_bad_input():
    with pytest.raises(ValueError, match="expected 4 components, got shape \\(2, 2\\)"):
        Quaternion.from_array(np.eye(2))
    with pytest.raises(NonUnitQuaternion, match="cannot normalize the zero quaternion"):
        Quaternion(0.0, 0.0, 0.0, 0.0).normalized()


def test_quat_mul_identity_and_basis():
    rng = np.random.default_rng(1)
    q = random_quat(rng)
    assert quat_mul(IDENTITY, q) == q
    ex = Quaternion(0, 1, 0, 0)
    ey = Quaternion(0, 0, 1, 0)
    assert quat_mul(ex, ey) == Quaternion(0, 0, 0, -1)


def test_quat_mul_matches_eta_matrix_oracle():
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = random_quat(rng), random_quat(rng)
        oracle = (to_eta(a) @ to_eta(b))[:, 0]
        assert np.allclose(quat_mul(a, b).as_array(), oracle, rtol=0, atol=1e-12)


def test_quat_mul_norm_multiplicative():
    rng = np.random.default_rng(3)
    for _ in range(100):
        a, b = random_quat(rng), random_quat(rng)
        prod = quat_mul(a, b).norm()
        assert prod == pytest.approx(a.norm() * b.norm(), rel=1e-12)


def test_to_eta_basics():
    assert np.array_equal(to_eta(IDENTITY), np.eye(4))
    assert np.array_equal(to_eta(Quaternion(0, 1, 0, 0)), ETA_X)
    rng = np.random.default_rng(4)
    q = random_quat(rng)
    assert np.allclose(to_eta(q)[:, 0], q.as_array(), rtol=0, atol=0)
    assert from_eta(to_eta(q)) == q


def test_to_eta_is_the_weighted_sum_of_the_eta_basis():
    for k, q in enumerate([IDENTITY, Quaternion(0, 1, 0, 0), Quaternion(0, 0, 1, 0), Quaternion(0, 0, 0, 1)]):
        assert np.array_equal(to_eta(q), (ETA_0, ETA_X, ETA_Y, ETA_Z)[k])
    rng = np.random.default_rng(6)
    for _ in range(200):
        q = random_quat(rng)
        weighted = q.s0 * ETA_0 + q.sx * ETA_X + q.sy * ETA_Y + q.sz * ETA_Z
        assert to_eta(q).dtype == np.float64 and np.array_equal(to_eta(q), weighted)


def test_to_eta_ring_homomorphism():
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = random_quat(rng), random_quat(rng)
        lhs = to_eta(quat_mul(a, b))
        rhs = to_eta(a) @ to_eta(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_to_su2_basics():
    assert np.array_equal(to_su2(IDENTITY), np.eye(2))
    assert np.allclose(to_su2(Quaternion(0, 0, 0, 1)), np.diag([1j, -1j]), atol=0)


def test_to_su2_homomorphism_and_unitarity():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b = random_quat(rng), random_quat(rng)
        lhs = to_su2(quat_mul(a, b))
        rhs = to_su2(a) @ to_su2(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12
    for _ in range(20):
        q = random_quat(rng, unit=True)
        d = to_su2(q)
        assert np.max(np.abs(d @ d.conj().T - np.eye(2))) < 1e-12
        assert abs(np.linalg.det(d) - 1.0) < 1e-12


def test_to_spinor():
    ident = to_spinor(IDENTITY)
    assert ident.up == 1 + 0j and ident.down == 0j
    s = to_spinor(Quaternion(0, 1, 0, 0))
    assert s.up == 0j and s.down == 1j
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = random_quat(rng, unit=True)
        sp = to_spinor(q)
        assert sp.norm_sq() == pytest.approx(1.0, abs=1e-12)
        # norm partitions between the two amplitudes
        assert abs(sp.up) ** 2 == pytest.approx(q.s0**2 + q.sz**2, abs=1e-12)
        assert abs(sp.down) ** 2 == pytest.approx(q.sx**2 + q.sy**2, abs=1e-12)
        # the spinor is the first column of the SU(2) realization
        col = to_su2(q)[:, 0]
        assert col[0] == pytest.approx(sp.up, abs=1e-15)
        assert col[1] == pytest.approx(sp.down, abs=1e-15)


def test_from_axis_angle():
    assert from_axis_angle([1, 0, 0], 0.0) == IDENTITY
    q = from_axis_angle([0, 0, 1], math.pi)
    assert np.allclose(q.as_array(), [0, 0, 0, 1], atol=1e-15)
    # spinor sign flip: 2 pi lands on -identity, 4 pi back on +identity
    q2 = from_axis_angle([0, 1, 0], 2 * math.pi)
    assert np.allclose(q2.as_array(), [-1, 0, 0, 0], atol=1e-15)
    assert np.max(np.abs(to_su2(q2) + np.eye(2))) < 1e-12
    q4 = from_axis_angle([0, 1, 0], 4 * math.pi)
    assert np.allclose(q4.as_array(), [1, 0, 0, 0], atol=1e-15)
    with pytest.raises(NonUnitAxis):
        from_axis_angle([0, 1, 1], 0.3)
    with pytest.raises(NonUnitAxis, match="axis must be a 3-vector, got shape \\(4,\\)"):
        from_axis_angle([0, 0, 1, 0], 0.3)


@pytest.mark.parametrize("axis", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf]])
def test_from_axis_angle_rejects_non_finite_axis(axis):
    with pytest.raises(NonUnitAxis):
        from_axis_angle(axis, 0.3)


def test_precession_angle():
    assert precession_angle([0.0, 0.0, 0.0], 2.7, 1.0) == 0.0
    assert precession_angle([0, 0, 2.0], 1.0, 0.5) == -1.0
    with pytest.raises(ValueError):
        precession_angle([0, 0, 1.0], 1.0, -0.1)
    # round trip: the angle times the unit direction recomposes gamma * B * dtau
    rng = np.random.default_rng(8)
    for _ in range(20):
        field = rng.normal(size=3)
        gamma, dtau = rng.uniform(0.1, 3.0), rng.uniform(0.0, 2.0)
        xi = precession_angle(field, gamma, dtau)
        b = field / np.linalg.norm(field)
        assert np.allclose(-xi * b, gamma * field * dtau, rtol=1e-12, atol=1e-12)


def conj_oracle(q, p):
    """Vector part of q (x) (0, p) (x) q*, computed through the eta matrices."""
    pq = np.array([0.0, p[0], p[1], p[2]])
    return (to_eta(q) @ to_eta(Quaternion(0.0, *p)) @ q.conjugate().as_array())[1:]


def su2_oracle(q, p):
    """Polarization action through D (sigma . p) D^dagger."""
    d = to_su2(q)
    m = d @ (p[0] * SIGMA_X + p[1] * SIGMA_Y + p[2] * SIGMA_Z) @ d.conj().T
    return np.real([np.trace(s @ m) / 2 for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)])


def test_quat_to_rotation_basics():
    assert np.array_equal(quat_to_rotation(IDENTITY), np.eye(3))
    r = quat_to_rotation(Quaternion(0, 0, 0, 1))
    assert np.allclose(r, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)
    with pytest.raises(NonUnitQuaternion):
        quat_to_rotation(Quaternion(1, 1, 0, 0))


def test_quat_to_rotation_against_conjugation_oracles():
    rng = np.random.default_rng(9)
    for _ in range(100):
        q = random_quat(rng, unit=True)
        r = quat_to_rotation(q)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)
        p = rng.normal(size=3)
        assert np.allclose(r @ p, conj_oracle(q, p), atol=1e-12)
        assert np.allclose(r @ p, su2_oracle(q, p), atol=1e-12)


def test_su2_left_action_matches_quaternion_product():
    # evolving the spinor by left multiplication with D(u) is the same as
    # composing the quaternions: D(u) column(s) = column(u (x) s)
    rng = np.random.default_rng(19)
    for _ in range(50):
        u, s = random_quat(rng), random_quat(rng)
        sp = to_spinor(s)
        evolved = to_su2(u) @ np.array([sp.up, sp.down])
        expected = to_spinor(quat_mul(u, s))
        assert abs(evolved[0] - expected.up) < 1e-12
        assert abs(evolved[1] - expected.down) < 1e-12


def test_quat_to_rotation_double_cover_and_homomorphism():
    rng = np.random.default_rng(10)
    for _ in range(50):
        q = random_quat(rng, unit=True)
        assert np.array_equal(quat_to_rotation(q), quat_to_rotation(-q))
        a, b = random_quat(rng, unit=True), random_quat(rng, unit=True)
        lhs = quat_to_rotation(quat_mul(a, b))
        rhs = quat_to_rotation(a) @ quat_to_rotation(b)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


# ---------------------------------------------------------------------------
# the batched (..., 4) readout kernel against the scalar API


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def unit_rows(n):
    return arrays(float, (n, 4), elements=finite).filter(lambda q: np.all(np.linalg.norm(q, axis=1) > 1e-3)).map(
        lambda q: q / np.linalg.norm(q, axis=1, keepdims=True)
    )


@settings(max_examples=200, deadline=None)
@given(unit_rows(6), arrays(float, 3, elements=finite))
def test_rotate_batch_equals_quat_to_rotation_row_by_row(q, p):
    got = rotate_batch(q, p)
    assert got.shape == (6, 3)
    tol = 1e-14 * (1.0 + np.abs(p).sum())
    for i in range(6):
        qi = Quaternion.from_array(q[i])
        # the defining conjugation R(q) P = vec(q (x) (0, P) (x) q*), from the scalar product
        conj = quat_mul(quat_mul(qi, Quaternion(0.0, *p)), qi.conjugate()).as_array()[1:]
        assert np.allclose(got[i], conj, rtol=0.0, atol=tol)
        assert np.allclose(got[i], quat_to_rotation(qi) @ p, rtol=0.0, atol=tol)


def test_rotate_batch_rejects_non_unit_rows():
    q = np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0], [np.nan, 0.0, 0.0, 0.0]])
    with pytest.raises(NonUnitQuaternion, match="2.0"):
        rotate_batch(q, [0.0, 0.0, 1.0])
    with pytest.raises(NonUnitQuaternion):
        rotate_batch(q[2], [0.0, 0.0, 1.0])
    # the 1e-9 input tolerance is kept
    assert rotate_batch([1.0 + 4e-10, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0]).shape == (3,)
