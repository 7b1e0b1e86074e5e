"""Batched quaternion / SO(3) utilities for pose kinematics.

Quaternions are ``(..., 4)`` arrays in ``(w, x, y, z)`` order.  The
orientation genes of a genotype are a rotation vector (axis * angle); the
exponential map and its left Jacobian connect gene space to world torques,
which is how ``Grigidrot`` (Algorithm 4) converts the reduced torque into
orientation-gene gradients.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cross3",
    "xyz_sum",
    "quat_from_rotvec",
    "quat_multiply",
    "quat_rotate",
    "rotvec_to_matrix",
    "axis_angle_rotate",
    "so3_left_jacobian",
]

_EPS = 1e-12


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product over the last axis, hand-rolled.

    ``np.cross`` spends most of its time in axis normalisation for the
    small arrays pose calculation feeds it; writing the three components
    directly is several times faster (hot path — see module profile).
    """
    a1, a2, a3 = a[..., 0], a[..., 1], a[..., 2]
    b1, b2, b3 = b[..., 0], b[..., 1], b[..., 2]
    shape = np.broadcast_shapes(a.shape, b.shape)
    out = np.empty(shape, dtype=np.result_type(a, b))
    out[..., 0] = a2 * b3 - a3 * b2
    out[..., 1] = a3 * b1 - a1 * b3
    out[..., 2] = a1 * b2 - a2 * b1
    return out


def xyz_sum(x: np.ndarray, y: np.ndarray, z: np.ndarray, *,
            squares: bool = False) -> np.ndarray:
    """``np.sum`` over an xyz axis, bit for bit, from its three components.

    ``np.sum`` over a length-3 axis adds left to right from ``+0.0``:
    ``((0 + x) + y) + z``.  The explicit ``(x + y) + z`` rounds every
    element the same way and differs only when all three terms are
    ``-0.0`` (it keeps ``-0.0``, ``np.sum`` gives ``+0.0``), so the
    trailing ``+ 0.0`` makes it exact everywhere, NaN and inf included.
    On the component views or planes callers pass it is 5-10x cheaper
    than the reduction over a length-3 axis.

    ``squares=True`` sums ``x * x``, ``y * y`` and ``z * z`` instead (the
    reduction inside ``np.linalg.norm``).  A square is never ``-0.0``,
    so that sum already equals ``np.sum`` and skips the ``+ 0.0``.
    """
    if squares:
        s = x * x
        s += y * y
        s += z * z
        return s
    s = x + y
    s += z
    s += 0.0
    return s


def quat_from_rotvec(rotvec: np.ndarray) -> np.ndarray:
    """Exponential map: rotation vector ``(..., 3)`` -> unit quaternion."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    angle = np.sqrt(xyz_sum(rotvec[..., 0], rotvec[..., 1], rotvec[..., 2],
                            squares=True))[..., None]
    half = 0.5 * angle
    # sin(x)/x, stable at zero
    k = np.where(angle > _EPS, np.sin(half) / np.maximum(angle, _EPS), 0.5)
    q = np.concatenate([np.cos(half), rotvec * k], axis=-1)
    return q


def quat_multiply(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Hamilton product ``q1 * q2`` over ``(..., 4)`` arrays."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    w1, x1, y1, z1 = np.moveaxis(q1, -1, 0)
    w2, x2, y2, z2 = np.moveaxis(q2, -1, 0)
    return np.stack([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ], axis=-1)


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vectors ``v (..., n, 3)`` by quaternions ``q (..., 4)``.

    Uses the expanded rotation formula (no matrix materialisation), with the
    quaternion broadcast over the vector axis.
    """
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    w = q[..., None, 0:1]
    u = q[..., None, 1:4]
    # v' = v + 2w (u x v) + 2 u x (u x v)
    uv = cross3(u, v)
    return v + 2.0 * w * uv + 2.0 * cross3(u, uv)


def rotvec_to_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Rodrigues formula: rotation vector ``(..., 3)`` -> matrix ``(..., 3, 3)``."""
    rotvec = np.asarray(rotvec, dtype=np.float64)
    theta = np.linalg.norm(rotvec, axis=-1)[..., None, None]
    k = _hat(rotvec)
    eye = np.broadcast_to(np.eye(3), k.shape)
    safe = np.maximum(theta, _EPS)
    s = np.where(theta > _EPS, np.sin(safe) / safe, 1.0)
    c = np.where(theta > _EPS, (1.0 - np.cos(safe)) / safe ** 2, 0.5)
    return eye + s * k + c * (k @ k)


def axis_angle_rotate(points: np.ndarray, origin: np.ndarray,
                      axis: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """Rotate ``points (..., n, 3)`` by ``angle (...)`` around the line
    through ``origin (..., 3)`` with unit direction ``axis (..., 3)``.

    The torsion-rotation primitive of pose calculation.
    """
    points = np.asarray(points, dtype=np.float64)
    origin = np.asarray(origin, dtype=np.float64)[..., None, :]
    axis = np.asarray(axis, dtype=np.float64)[..., None, :]
    angle = np.asarray(angle, dtype=np.float64)[..., None, None]
    rel = points - origin
    cos_t = np.cos(angle)
    sin_t = np.sin(angle)
    k_cross = cross3(axis, rel)
    k_dot = np.sum(axis * rel, axis=-1, keepdims=True)
    # rel*cos + k_cross*sin + (axis*k_dot)*(1-cos) + origin, written as
    # in-place ufunc calls over the rel/k_cross buffers (both are dead
    # after this point): same operations and grouping, no temporaries
    np.multiply(rel, cos_t, out=rel)
    np.multiply(k_cross, sin_t, out=k_cross)
    np.add(rel, k_cross, out=rel)
    swing = axis * k_dot
    np.multiply(swing, 1.0 - cos_t, out=swing)
    np.add(rel, swing, out=rel)
    np.add(rel, origin, out=rel)
    return rel


def _hat(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix of ``(..., 3)`` vectors."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3), dtype=np.float64)
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


def so3_left_jacobian(rotvec: np.ndarray) -> np.ndarray:
    """Left Jacobian ``J_l`` of the SO(3) exponential map, ``(..., 3, 3)``.

    Connects a perturbation of the rotation-vector genes to the resulting
    world-frame infinitesimal rotation: ``delta_world = J_l(w) @ delta_w``.
    The orientation-gene gradient is therefore ``J_l^T @ (dE/d delta_world)``,
    i.e. ``J_l^T`` applied to the reduced torque-like sum.
    """
    rotvec = np.asarray(rotvec, dtype=np.float64)
    theta = np.sqrt(xyz_sum(rotvec[..., 0], rotvec[..., 1], rotvec[..., 2],
                            squares=True))[..., None, None]
    k = _hat(rotvec)
    eye = np.broadcast_to(np.eye(3), k.shape)
    safe = np.maximum(theta, _EPS)
    a = np.where(theta > _EPS, (1.0 - np.cos(safe)) / safe ** 2, 0.5)
    b = np.where(theta > _EPS, (safe - np.sin(safe)) / safe ** 3, 1.0 / 6.0)
    return eye + a * k + b * (k @ k)
