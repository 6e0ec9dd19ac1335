import numpy as np
import pytest

from uwvio.geometry import (RigidTransform, Sim3Transform, matrix_to_quat,
                            quat_multiply, quat_normalize, quat_slerp,
                            quat_to_matrix, random_rotation, rigid_fit,
                            rotation_about_z, rotation_angle)


def test_quat_matrix_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        R = random_rotation(rng)
        q = matrix_to_quat(R)
        assert np.allclose(quat_to_matrix(q), R, atol=1e-12)
        assert np.linalg.norm(q) == pytest.approx(1.0)


def test_quat_multiply_matches_matrix_product():
    rng = np.random.default_rng(1)
    Ra, Rb = random_rotation(rng), random_rotation(rng)
    qa, qb = matrix_to_quat(Ra), matrix_to_quat(Rb)
    assert np.allclose(quat_to_matrix(quat_multiply(qa, qb)), Ra @ Rb, atol=1e-12)


def test_identity_quat_is_w_last():
    # (x, y, z, w) convention: identity = (0, 0, 0, 1)
    assert np.allclose(matrix_to_quat(np.eye(3)), [0, 0, 0, 1])


def test_slerp_endpoints_and_midpoint():
    qa = matrix_to_quat(np.eye(3))
    qb = matrix_to_quat(rotation_about_z(1.0))
    assert np.allclose(quat_slerp(qa, qb, 0.0), qa)
    assert np.allclose(np.abs(quat_slerp(qa, qb, 1.0)), np.abs(qb))
    mid = quat_to_matrix(quat_slerp(qa, qb, 0.5))
    assert np.allclose(mid, rotation_about_z(0.5), atol=1e-12)


def test_slerp_takes_short_path():
    qa = np.array([0.0, 0, 0, 1.0])
    qb = -matrix_to_quat(rotation_about_z(0.2))  # same rotation, flipped sign
    mid = quat_to_matrix(quat_slerp(qa, qb, 0.5))
    assert np.allclose(mid, rotation_about_z(0.1), atol=1e-12)


def test_rigid_transform_apply_inverse_compose():
    rng = np.random.default_rng(2)
    T = RigidTransform.from_matrix(random_rotation(rng), rng.normal(size=3))
    pts = rng.normal(size=(10, 3))
    assert np.allclose(T.inverse().apply(T.apply(pts)), pts, atol=1e-12)
    G = RigidTransform.from_matrix(random_rotation(rng), rng.normal(size=3))
    assert np.allclose(G.compose(T).apply(pts), G.apply(T.apply(pts)), atol=1e-12)
    # 4x4 matrix round trip
    M = T.matrix()
    assert M.shape == (4, 4)
    back = RigidTransform.from_matrix(M[:3, :3], M[:3, 3])
    assert np.allclose(back.matrix(), M)


def test_sim3_apply_and_inverse():
    rng = np.random.default_rng(3)
    T = Sim3Transform(s=2.5, R=random_rotation(rng), t=rng.normal(size=3))
    pts = rng.normal(size=(8, 3))
    assert np.allclose(T.inverse().apply(T.apply(pts)), pts, atol=1e-12)
    assert np.allclose(T.apply(pts), 2.5 * pts @ T.R.T + T.t)


def test_rigid_fit_recovers_exact_motion():
    rng = np.random.default_rng(4)
    src = rng.normal(size=(20, 3))
    R_true = random_rotation(rng)
    t_true = np.array([1.0, -2.0, 0.5])
    dst = src @ R_true.T + t_true
    R, t = rigid_fit(src, dst)
    assert np.allclose(R, R_true, atol=1e-12)
    assert np.allclose(t, t_true, atol=1e-12)
    assert np.linalg.det(R) == pytest.approx(1.0)


def test_rigid_fit_stack_matches_per_slice():
    rng = np.random.default_rng(5)
    src = rng.normal(size=(40, 6, 3))
    dst = src @ random_rotation(rng).T + rng.normal(size=(40, 6, 3)) * 0.1
    dst[::4] = src[::4] * [1.0, 1.0, -1.0]     # mirrored: the SVD gives d = -1
    R, t = rigid_fit(src, dst)
    assert R.shape == (40, 3, 3) and t.shape == (40, 3)
    for i in range(40):
        Ri, ti = rigid_fit(src[i], dst[i])
        assert np.array_equal(R[i], Ri) and np.array_equal(t[i], ti)
    assert np.allclose(np.linalg.det(R), 1.0, rtol=0, atol=1e-12)


def test_rotation_angle():
    assert rotation_angle(np.eye(3)) == pytest.approx(0.0)
    assert rotation_angle(rotation_about_z(0.3)) == pytest.approx(0.3)


def test_quat_normalize():
    q = quat_normalize([0.0, 0.0, 0.0, 2.0])
    assert np.allclose(q, [0, 0, 0, 1])


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e-310])
def test_quat_normalize_extreme_magnitudes(scale):
    # squares that overflow or underflow must not give (0, 0, 0, 0) or a
    # false "zero quaternion"
    r = np.sqrt(0.5)
    q = quat_normalize([[scale, 0.0, 0.0, scale], [0.0, 0.0, 0.0, 2.0]])
    assert np.allclose(q, [[r, 0, 0, r], [0, 0, 0, 1]], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="zero quaternion"):
        quat_normalize([[0.0, 0.0, 0.0, 0.0], [scale, 0.0, 0.0, scale]])


def _matrix_scalar(q):
    x, y, z, w = q
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def _slerp_scalar(q0, q1, alpha):
    dot = float(np.dot(q0, q1))
    if dot < 0:
        q1, dot = -q1, -dot
    if dot > 0.9995:
        q = q0 + alpha * (q1 - q0)
        return q / np.linalg.norm(q)
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    return (np.sin((1 - alpha) * theta) * q0 + np.sin(alpha * theta) * q1) / np.sin(theta)


def test_row_wise_quaternions_match_scalar_formulas():
    """The (..., 4) forms give each row the bits of the one-quaternion
    formulas they generalise."""
    rng = np.random.default_rng(5)
    q = rng.standard_normal((600, 4)) * rng.uniform(0.1, 10, (600, 1))
    unit = quat_normalize(q)
    assert np.array_equal(unit, np.array([r / np.linalg.norm(r) for r in q]))
    assert np.array_equal(quat_to_matrix(unit), np.array([_matrix_scalar(r) for r in unit]))
    q1 = quat_normalize(rng.standard_normal((600, 4)))
    q1[:200] = quat_normalize(unit[:200] + rng.normal(size=(200, 4)) * 1e-3)  # near
    q1[200:250] = -unit[200:250]                                              # opposite sign
    q1[250:300] = unit[250:300]                                               # equal
    alpha = rng.uniform(0, 1, 600)
    with np.errstate(all="raise"):
        rows = quat_slerp(unit, q1, alpha)
    assert np.array_equal(rows, np.array([_slerp_scalar(a, b, t)
                                          for a, b, t in zip(unit, q1, alpha)]))
    assert quat_to_matrix(unit.reshape(20, 30, 4)).shape == (20, 30, 3, 3)
    with pytest.raises(ValueError):
        quat_normalize([[0.0, 0, 0, 1], [0.0, 0, 0, 0]])
