"""Geodesics, the exponential map, and parallel transport.

Geodesics solve the chart ODE alpha'' = B(alpha', alpha') as a
first-order system on the tangent bundle; the integrator hops charts
when a trajectory approaches a patch boundary.  Parallel transport
solves the linear ODE gamma' = B(gamma, alpha') along any curve.
"""
import numpy as np

from affinelab import (CurveSpec, IntegratorConfig, Point, Tangent, completeness_probe,
                       exp_inverse, exp_map, geodesic, parallel_transport)
from affinelab.catalog import default_catalog

cat = default_catalog()
cfg = IntegratorConfig()  # fixed-step RK4, step 1e-3

# --- the equator of the round sphere is periodic with period 2 pi ----------
conn = cat.connection("sphere", "round")
start = Tangent(Point("a", [1.0, 0.0]), [0.0, 1.0])
curve = geodesic(conn, start, (0.0, 2 * np.pi), cfg)
end = curve.point(2 * np.pi)
print(f"equator after one period: {end.coords}, return gap "
      f"{np.linalg.norm(end.coords - [1, 0]):.2e}")

# a meridian geodesic crosses the chart seam: start at the south pole
mer = geodesic(conn, Tangent(Point("a", [0.0, 0.0]), [1.0, 0.0]), (0.0, 2.8), cfg)
for t in (0.5, 1.5, 2.8):
    chart, x, _ = mer.eval(t)
    print(f"  t={t:3.1f}: chart {chart}, x = {x}")

# --- exp and its Newton-shooting inverse -----------------------------------
x = Point("a", [0.3, 0.2])
y = Point("a", [0.7, -0.1])
v = exp_inverse(conn, x, y, cfg)
back = exp_map(conn, v, cfg)
print(f"\nexp_inverse round trip gap: {conn.atlas.gap(back, y):.2e}")
print(f"chart components of log_x(y): {v.vec}")

# --- holonomy: transport around a latitude circle ---------------------------
theta0 = np.pi / 4
rho = np.tan(theta0 / 2)

def circle(t):
    return "b", rho * np.array([np.cos(t), np.sin(t)]), rho * np.array([-np.sin(t), np.cos(t)])

loop = CurveSpec.from_callable(conn.atlas, circle, 0.0, 2 * np.pi)
P = parallel_transport(conn, loop, 0.0, 2 * np.pi, np.eye(2), cfg)
angle = np.arctan2(P[1, 0], P[0, 0])
expected = -2 * np.pi * np.cos(theta0)
expected_mod = (expected + np.pi) % (2 * np.pi) - np.pi
print(f"\nholonomy around colatitude {theta0:.3f}: rotation angle {angle:+.6f} rad; "
      f"clockwise 2 pi cos(theta0) is {expected_mod:+.6f} mod 2 pi")

# --- hyperbolic half-plane: the classic semicircle geodesic -----------------
hyp = cat.connection("halfplane", "hyperbolic")
h = geodesic(hyp, Tangent(Point("hp", [0.0, 1.0]), [1.0, 0.0]), (-3.0, 3.0), cfg)
radii = [x @ x for _, x, _ in map(h.eval, np.linspace(-3, 3, 7))]
print(f"\nhalf-plane geodesic stays on the unit circle: max |x^2+y^2-1| = "
      f"{max(abs(r - 1) for r in radii):.2e}")

# --- completeness probing ----------------------------------------------------
disk = cat.connection("disk", "flat")
rep = completeness_probe(disk, [Tangent(Point("disk", [0.0, 0.0]), [1.0, 0.0])],
                         10.0, IntegratorConfig(step=0.01))
row = rep.rows[0]
print(f"\nopen disk, boundary-aimed geodesic stops at t = {row.t_forward:.3f} "
      f"({row.status_forward})")
