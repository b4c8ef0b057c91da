"""Independent closed-form oracles used to freeze expected test values.

Everything here is computed from raw embedding geometry or hand math and
never calls the library's connection/flow machinery, so oracle values
stay independent of the code paths they verify.  The exception is the
last section: two catalog entries that only tests compute on (flat R^3
and the colatitude chart of the round sphere), built from library parts
and registered on the shared catalog by `tests/conftest.py`.
"""
from __future__ import annotations

import numpy as np

from affinelab.atlas import Atlas, Chart, all_space, box_domain
from affinelab.catalog import flat_connection, quad_chart
from affinelab.connection import from_christoffel
from affinelab.flows import VectorField


# -- stereographic geometry (unit sphere), written out by hand ---------------

def chart_to_sphere(p, sigma):
    p = np.asarray(p, float)
    r2 = p @ p
    return np.array([2 * p[0], 2 * p[1], sigma * (r2 - 1.0)]) / (1.0 + r2)


def sphere_to_chart(X, sigma):
    X = np.asarray(X, float)
    return X[:2] / (1.0 - sigma * X[2])


SIGMA = {"a": 1.0, "b": -1.0}


def great_circle_chart(t, p0, sigma0, v3):
    """Unit-sphere great circle through chart point p0 with ambient velocity v3.

    Returns (chart_sigma_choice_fn needed by caller) -- here we return the
    ambient point; callers project with sphere_to_chart themselves.
    """
    X0 = chart_to_sphere(p0, sigma0)
    v3 = np.asarray(v3, float)
    s = np.linalg.norm(v3)
    if s == 0:
        return X0
    return np.cos(s * t) * X0 + np.sin(s * t) * (v3 / s)


def chart_velocity_to_ambient(p, sigma, v):
    """Push a chart velocity to the ambient sphere via FD of chart_to_sphere."""
    h = 1e-7
    p = np.asarray(p, float)
    v = np.asarray(v, float)
    return (chart_to_sphere(p + h * v, sigma) - chart_to_sphere(p - h * v, sigma)) / (2 * h)


def ambient_velocity_to_chart(X, sigma, V):
    h = 1e-7
    return (sphere_to_chart(X + h * V, sigma) - sphere_to_chart(X - h * V, sigma)) / (2 * h)


def so3_generator(axis):
    A = np.zeros((3, 3))
    i, j = [(1, 2), (2, 0), (0, 1)][axis]
    A[i, j] = -1.0
    A[j, i] = 1.0
    return A


def rotation_field_chart(axis, p, sigma, sign=-1.0):
    """Chart components of the rotation generator sign * A_axis X, by FD
    of the projection (independent of any hand-derived chart formula)."""
    X = chart_to_sphere(p, sigma)
    V = sign * so3_generator(axis) @ X
    return ambient_velocity_to_chart(X, sigma, V)


def ambient_parallel_transport(X_of_t, t0, t1, v0, steps=20000):
    """Levi-Civita transport on the unit sphere in ambient coordinates:
    gamma' = -(X' . gamma) X along the curve, tiny RK4."""
    h = (t1 - t0) / steps

    def xdot(t):
        e = 1e-6
        return (X_of_t(t + e) - X_of_t(t - e)) / (2 * e)

    def rhs(t, g):
        return -(xdot(t) @ g) * X_of_t(t)

    g = np.asarray(v0, float).copy()
    t = t0
    for _ in range(steps):
        k1 = rhs(t, g)
        k2 = rhs(t + h / 2, g + h / 2 * k1)
        k3 = rhs(t + h / 2, g + h / 2 * k2)
        k4 = rhs(t + h, g + h * k3)
        g = g + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return g


def latitude_holonomy_matrix(theta0, steps=20000):
    """In-chart transport matrix around the colatitude-theta0 circle.

    Circle about the north pole, counterclockwise in chart "b"; the
    returned 2x2 matrix maps start-chart vectors to end-chart vectors.
    """
    z = np.cos(theta0)
    s = np.sin(theta0)

    def X_of_t(t):
        return np.array([s * np.cos(t), s * np.sin(t), z])

    rho = np.tan(theta0 / 2.0)
    p_start = np.array([rho, 0.0])
    cols = []
    for e in np.eye(2):
        V0 = chart_velocity_to_ambient(p_start, SIGMA["b"], e)
        V1 = ambient_parallel_transport(X_of_t, 0.0, 2 * np.pi, V0, steps=steps)
        cols.append(ambient_velocity_to_chart(X_of_t(2 * np.pi), SIGMA["b"], V1))
    return np.stack(cols, axis=-1)


def rotmat(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


# -- hyperbolic half-plane -----------------------------------------------------

def halfplane_geodesic_unit_circle(t):
    """Unit-speed geodesic from (0, 1) with initial velocity (1, 0):
    x = tanh(t), y = sech(t)."""
    return np.array([np.tanh(t), 1.0 / np.cosh(t)])


# -- test-only catalog entries --------------------------------------------------

def r3_atlas() -> Atlas:
    return Atlas("r3", 3, [Chart("cart", 3, all_space, [-2.0] * 3, [2.0] * 3)])


def sphere_colat_atlas() -> Atlas:
    """Single colatitude/longitude chart (theta, phi) away from poles and seam."""
    return Atlas("sphere_colat", 2,
                 [Chart("colat", 2, box_domain([0.2, -2.9], [np.pi - 0.2, 2.9]),
                        [0.5, -2.0], [np.pi - 0.5, 2.0])])


def colat_round_connection(atlas: Atlas):
    """Round-sphere connection in the colatitude chart, via Christoffels."""

    def gamma(x):
        th = x[..., 0]
        G = np.zeros(x.shape + (2, 2))
        G[..., 0, 1, 1] = -np.sin(th) * np.cos(th)
        G[..., 1, 0, 1] = G[..., 1, 1, 0] = 1.0 / np.tan(th)
        return G

    return from_christoffel(atlas, {"colat": gamma}, name="round")


# fields of the test-only entries that are not affine: d_theta's flow slides
# along meridians, which does not preserve the round connection
NOT_AFFINE = {"d_theta"}


def register_test_manifolds(catalog) -> None:
    """Add `r3` (flat, no fields) and `sphere_colat` (round; d_theta, d_phi)."""
    r3 = r3_atlas()
    catalog._register(r3, {"flat": flat_connection(r3)}, {})
    colat = sphere_colat_atlas()
    catalog._register(colat, {"round": colat_round_connection(colat)}, {
        "d_theta": VectorField(colat, "d_theta", {"colat": quad_chart([1, 0], None, None)}),
        "d_phi": VectorField(colat, "d_phi", {"colat": quad_chart([0, 1], None, None)}),
    })
