"""Closed-form oracles for the benchmark's correctness checks.

Every value here comes from embedding geometry or hand-derived formulas
and never from affinelab, so a benchmark result can only be marked
correct by math the library did not do.  Each oracle's tolerance is a
module constant next to the formula it guards.
"""
from __future__ import annotations

import math

import numpy as np

# -- tolerances ------------------------------------------------------------------
# Geodesic endpoints after RK4 at step 1e-2 over unit time: the integration
# error is ~1e-9 on these inputs, so 1e-6 leaves three decades of margin.
TOL_ENDPOINT = 1e-6
# exp_inverse solves to a 1e-10 residual, but against the integrated exp map;
# its distance to the true preimage is the same RK4 error as above.
TOL_EXP_INVERSE = 1e-6
# Parallel transport against a Hermite-interpolated RK4 curve at step 1e-2.
TOL_TRANSPORT = 1e-6
# Killing extension against the closed-form field (the extension_recovery
# check in scenarios/sphere_so3.json uses the same tolerance).
TOL_KILLING_VALUE = 1e-5
# Second-order Killing residual of an exact Killing field (scenario tolerance).
TOL_KILLING_RESIDUAL = 1e-8
# kappa^{-1}(kappa(p)) = p is exact up to two small linear solves.
TOL_KAPPA_ROUNDTRIP = 1e-10
# Change-of-variable law with analytic transition derivatives (scenario tolerance).
TOL_CHANGE_OF_VARIABLE = 1e-6
# Completeness probes: the time reached is a sum of n equal steps.
TOL_PROBE_TIME = 1e-9

# -- round unit sphere, stereographic charts ----------------------------------------
# Chart "a" projects from the north pole (sigma = +1), chart "b" from the south pole.
SIGMA = {"a": 1.0, "b": -1.0}


def stereo_to_ambient(p, sigma):
    p = np.asarray(p, float)
    r2 = float(p @ p)
    return np.array([2.0 * p[0], 2.0 * p[1], sigma * (r2 - 1.0)]) / (1.0 + r2)


def ambient_to_stereo(X, sigma):
    return np.array([X[0], X[1]]) / (1.0 - sigma * X[2])


def d_stereo_to_ambient(p, sigma):
    """3 x 2 Jacobian of the inverse projection."""
    p = np.asarray(p, float)
    D = 1.0 + float(p @ p)
    J = np.empty((3, 2))
    J[:2] = 2.0 * np.eye(2) / D - 4.0 * np.outer(p, p) / D**2
    J[2] = sigma * 4.0 * p / D**2
    return J


def d_ambient_to_stereo(X, sigma):
    """2 x 3 Jacobian of the projection."""
    w = 1.0 - sigma * X[2]
    J = np.zeros((2, 3))
    J[0, 0] = J[1, 1] = 1.0 / w
    J[:, 2] = sigma * np.array([X[0], X[1]]) / w**2
    return J


def sphere_scale(p):
    """Conformal factor: the round metric is sphere_scale(p)^2 |dp|^2."""
    p = np.asarray(p, float)
    return 2.0 / (1.0 + float(p @ p))


def great_circle(X0, U, t):
    """Ambient point and velocity at time t of the geodesic X0 + t U + ..."""
    s = float(np.linalg.norm(U))
    if s == 0.0:
        return X0.copy(), np.zeros(3)
    c, sn = math.cos(s * t), math.sin(s * t)
    return c * X0 + sn * (U / s), -s * sn * X0 + c * U


def sphere_geodesic(chart, p, v, t=1.0):
    """(ambient point, ambient velocity) of exp at time t from chart data."""
    sigma = SIGMA[chart]
    X0 = stereo_to_ambient(p, sigma)
    U = d_stereo_to_ambient(p, sigma) @ np.asarray(v, float)
    return great_circle(X0, U, t)


def sphere_distance(X, Y):
    return math.acos(min(1.0, max(-1.0, float(X @ Y))))


def sphere_transport(chart, p, v, w, t=1.0):
    """Ambient vector at time t: w transported along the geodesic exp(t v).

    Along a great circle the unit tangent turns with the curve and the
    binormal is constant, so both components of w are preserved.
    """
    sigma = SIGMA[chart]
    X0 = stereo_to_ambient(p, sigma)
    J = d_stereo_to_ambient(p, sigma)
    U = J @ np.asarray(v, float)
    W0 = J @ np.asarray(w, float)
    T0 = U / np.linalg.norm(U)
    N = np.cross(X0, T0)
    _, V1 = great_circle(X0, U, t)
    return (W0 @ T0) * (V1 / np.linalg.norm(V1)) + (W0 @ N) * N


def sphere_rotation_field(axis, chart, p):
    """Chart components of the so(3) generator X -> X x e_axis.

    This is the catalog's rot_x / rot_y / rot_z convention, under which
    [rot_x, rot_y] = rot_z with the chart bracket dg(f) - df(g).
    """
    sigma = SIGMA[chart]
    X = stereo_to_ambient(p, sigma)
    return d_ambient_to_stereo(X, sigma) @ np.cross(X, np.eye(3)[axis])


# -- hyperbolic upper half-plane (metric |dp|^2 / y^2) ---------------------------------

def halfplane_geodesic(p, v, t=1.0):
    """Point and velocity at time t of the geodesic through p with velocity v.

    Geodesics are vertical lines or semicircles centred on the x-axis; on a
    semicircle of radius R about c the unit-speed form is
    (c + R tanh(tau), R sech(tau)).
    """
    x0, y0 = float(p[0]), float(p[1])
    vx, vy = float(v[0]), float(v[1])
    s = math.hypot(vx, vy) / y0  # hyperbolic speed
    if s == 0.0:
        return np.array([x0, y0]), np.zeros(2)
    if abs(vx) <= 1e-14 * abs(vy):
        y = y0 * math.exp(math.copysign(s * t, vy))
        return np.array([x0, y]), np.array([0.0, math.copysign(s * y, vy)])
    c = x0 + y0 * vy / vx
    R = math.hypot(x0 - c, y0)
    tau0 = math.atanh((x0 - c) / R)
    # d/dtau of the unit-speed form is R sech(tau) (sech, -tanh); compare with v
    sign = 1.0 if vx > 0.0 else -1.0
    tau = tau0 + sign * s * t
    sech, tanh = 1.0 / math.cosh(tau), math.tanh(tau)
    point = np.array([c + R * tanh, R * sech])
    vel = sign * s * R * sech * np.array([sech, -tanh])
    return point, vel


def halfplane_distance(p, q):
    d2 = float((p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2)
    return math.acosh(1.0 + d2 / (2.0 * float(p[1]) * float(q[1])))


def rotate2(u, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])


def halfplane_transport(p, v, w, t=1.0):
    """Chart vector at time t: w transported along the geodesic exp(t v).

    The chart is conformal and orientation-preserving, so transport keeps
    the hyperbolic length of w and its angle to the geodesic's velocity.
    """
    v = np.asarray(v, float)
    w = np.asarray(w, float)
    angle = math.atan2(v[0] * w[1] - v[1] * w[0], float(v @ w))
    length = float(np.linalg.norm(w)) / float(p[1])
    q, V1 = halfplane_geodesic(p, v, t)
    return rotate2(V1 / np.linalg.norm(V1), angle) * length * q[1]


def halfplane_killing_field(name, p):
    x, y = float(p[0]), float(p[1])
    if name == "hyp_trans":
        return np.array([1.0, 0.0])
    if name == "hyp_dilate":
        return np.array([x, y])
    if name == "hyp_conf":
        return np.array([x * x - y * y, 2.0 * x * y])
    raise KeyError(name)


# -- flat unit disk ---------------------------------------------------------------------

def disk_exit_time(x, v, radius=1.0):
    """First t > 0 with |x + t v| = radius, for |x| < radius."""
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    a = float(v @ v)
    b = float(x @ v)
    c = float(x @ x) - radius * radius
    return (-b + math.sqrt(b * b - a * c)) / a
