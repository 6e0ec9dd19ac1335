"""Small 3D geometry toolbox: quaternions, rigid and similarity transforms.

Quaternions are stored as (x, y, z, w), matching the TUM trajectory format
and the event-log wire format.
"""

from dataclasses import dataclass, field

import numpy as np


def _row_dot(a, b):
    # a batched matmul gives each row the bits of a 1-D np.dot; np.sum and
    # einsum round differently
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def quat_normalize(q):
    """Each quaternion of a (..., 4) array scaled to unit norm."""
    q = np.asarray(q, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing row is rescaled below
        sq = _row_dot(q, q)
    ok = (sq > 0) & (sq < np.inf)
    if not ok.all():
        # a square sum that underflows to 0 or overflows: divide the row by
        # its largest component first, unless that is 0 or not finite
        big = np.max(np.abs(q), axis=-1)
        fix = ~ok & (big > 0) & (big < np.inf)
        q = q / np.where(fix, big, 1.0)[..., None]
        sq = _row_dot(q, q)
        if np.any(sq == 0):
            raise ValueError("zero quaternion")
    return q / np.sqrt(sq)[..., None]


def quat_to_matrix(q):
    """Rotation matrices (..., 3, 3) from unit quaternions (..., 4) as (x, y, z, w)."""
    x, y, z, w = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    return np.stack([
        1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w),
        2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w),
        2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y),
    ], axis=-1).reshape(np.shape(q)[:-1] + (3, 3))


def matrix_to_quat(R):
    """Unit quaternion (x, y, z, w) from a proper rotation matrix."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2
        w = 0.25 * s
        x = (R[2, 1] - R[1, 2]) / s
        y = (R[0, 2] - R[2, 0]) / s
        z = (R[1, 0] - R[0, 1]) / s
    elif R[0, 0] > R[1, 1] and R[0, 0] > R[2, 2]:
        s = np.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2
        w = (R[2, 1] - R[1, 2]) / s
        x = 0.25 * s
        y = (R[0, 1] + R[1, 0]) / s
        z = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] > R[2, 2]:
        s = np.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2
        w = (R[0, 2] - R[2, 0]) / s
        x = (R[0, 1] + R[1, 0]) / s
        y = 0.25 * s
        z = (R[1, 2] + R[2, 1]) / s
    else:
        s = np.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2
        w = (R[1, 0] - R[0, 1]) / s
        x = (R[0, 2] + R[2, 0]) / s
        y = (R[1, 2] + R[2, 1]) / s
        z = 0.25 * s
    return quat_normalize([x, y, z, w])


def quat_multiply(q1, q2):
    """Hamilton product; composed rotation applies q2 first, then q1."""
    x1, y1, z1, w1 = q1
    x2, y2, z2, w2 = q2
    return np.array([
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
    ])


def quat_slerp(q0, q1, alpha):
    """Spherical linear interpolation of unit quaternions (..., 4) by (...) fractions."""
    q0 = np.asarray(q0, dtype=float)
    alpha = np.asarray(alpha, dtype=float)[..., None]
    dot = _row_dot(q0, np.asarray(q1, dtype=float))[..., None]
    q1 = np.where(dot < 0, -1.0, 1.0) * q1
    dot = np.abs(dot)
    # nearly parallel: lerp + renormalize
    near = dot > 0.9995
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    s = np.where(near, 1.0, np.sin(theta))  # no 0/0 in the rows that lerp
    far = (np.sin((1 - alpha) * theta) * q0 + np.sin(alpha * theta) * q1) / s
    return np.where(near, quat_normalize(q0 + alpha * (q1 - q0)), far)


def rotation_about_z(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation_angle(R):
    """Rotation angle of a rotation matrix, in radians."""
    c = (np.trace(R) - 1.0) / 2.0
    return float(np.arccos(np.clip(c, -1.0, 1.0)))


def random_rotation(rng):
    """Uniform random rotation matrix (via random quaternion)."""
    q = rng.standard_normal(4)
    return quat_to_matrix(quat_normalize(q))


@dataclass(frozen=True)
class RigidTransform:
    """SE(3) transform stored as unit quaternion + translation.

    The rotation matrix is cached so repeated point transforms stay cheap.
    """
    q: np.ndarray
    t: np.ndarray
    R: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        q = quat_normalize(self.q)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "R", quat_to_matrix(q))

    @classmethod
    def identity(cls):
        return cls(q=np.array([0.0, 0.0, 0.0, 1.0]), t=np.zeros(3))

    @classmethod
    def from_matrix(cls, R, t):
        return cls(q=matrix_to_quat(R), t=t)

    def apply(self, p):
        p = np.asarray(p, dtype=float)
        return p @ self.R.T + self.t

    def inverse(self):
        Rinv = self.R.T
        return RigidTransform(q=self.q * [-1.0, -1.0, -1.0, 1.0], t=-(Rinv @ self.t))

    def compose(self, other):
        """self ∘ other: apply ``other`` first, then ``self``."""
        return RigidTransform(
            q=quat_multiply(self.q, other.q),
            t=self.R @ other.t + self.t,
        )

    def matrix(self):
        M = np.eye(4)
        M[:3, :3] = self.R
        M[:3, 3] = self.t
        return M


@dataclass(frozen=True)
class Sim3Transform:
    """Similarity transform p -> s * R @ p + t."""
    s: float
    R: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("scale must be positive")
        object.__setattr__(self, "R", np.asarray(self.R, dtype=float))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))

    @classmethod
    def identity(cls):
        return cls(s=1.0, R=np.eye(3), t=np.zeros(3))

    def apply(self, p):
        p = np.asarray(p, dtype=float)
        return self.s * (p @ self.R.T) + self.t

    def compose(self, other):
        """self ∘ other: apply ``other`` first, then ``self``."""
        return Sim3Transform(
            s=self.s * other.s,
            R=self.R @ other.R,
            t=self.s * (self.R @ other.t) + self.t,
        )

    def inverse(self):
        Rinv = self.R.T
        return Sim3Transform(s=1.0 / self.s, R=Rinv, t=-(Rinv @ self.t) / self.s)


def rigid_fit(src, dst):
    """Least-squares rotation + translation mapping src points onto dst (Kabsch).

    Takes point sets (..., k, 3), so one call fits a whole stack of them, and
    returns (R, t) of shapes (..., 3, 3) and (..., 3) with dst ≈ src @ R.T + t.
    """
    src = np.asarray(src, dtype=float)
    dst = np.asarray(dst, dtype=float)
    mu_s = src.mean(axis=-2)
    mu_d = dst.mean(axis=-2)
    H = np.swapaxes(src - mu_s[..., None, :], -1, -2) @ (dst - mu_d[..., None, :])
    U, _, Vt = np.linalg.svd(H)
    V = np.swapaxes(Vt, -1, -2)
    Ut = np.swapaxes(U, -1, -2)
    # reflection fix: V @ diag(1, 1, d), by scaling V's last column
    V[..., 2] *= np.sign(np.linalg.det(V @ Ut))[..., None]
    R = V @ Ut
    t = mu_d - (R @ mu_s[..., None])[..., 0]
    return R, t
