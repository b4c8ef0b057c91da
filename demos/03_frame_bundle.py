"""The frame bundle: soldering and connection forms, horizontal flows.

A frame is a pair (x, g) in a bundle chart.  The pair kappa = (theta,
omega) identifies every bundle tangent with a vector in E x gl(E); its
inverse at (lambda, 0) gives the standard horizontal field whose
integral curves project to geodesics.
"""
import numpy as np

from affinelab import (Frame, FrameTangent, IntegratorConfig, horizontal_flow,
                       horizontal_projection_parts, kappa, kappa_inverse, kappa_matrix, rho,
                       soldering, standard_horizontal)
from affinelab.bundles import unpack
from affinelab.catalog import default_catalog

cat = default_catalog()
cfg = IntegratorConfig()
conn = cat.connection("sphere", "round")

frame = Frame("a", [0.4, -0.1], np.array([[1.0, 0.3], [0.0, 0.8]]))
ft = FrameTangent([0.5, 0.2], np.array([[0.1, 0.0], [-0.2, 0.4]]))

# --- kappa is a fiberwise isomorphism ---------------------------------------
kv = kappa(conn, frame, ft)
print("theta part:", kv.theta)
print("omega part:\n", kv.omega)
back = kappa_inverse(conn, frame, kv)
print(f"kappa round-trip error: "
      f"{np.linalg.norm(back.v - ft.v) + np.linalg.norm(back.w - ft.w):.2e}")
print(f"condition number of kappa_p as a 6x6 matrix: "
      f"{np.linalg.cond(kappa_matrix(conn, frame)):.2f}")

# --- the right action commutes with everything in sight ---------------------
g2 = np.array([[0.9, 0.2], [-0.1, 1.1]])
print("\nright action keeps the base point:", rho(frame, g2).x, "==", frame.x)

# --- standard horizontal flow projects to a geodesic -------------------------
lam = np.array([0.0, 1.0])
H = standard_horizontal(conn, lam)
start = Frame("a", [1.0, 0.0], np.eye(2))
rec = []
horizontal_flow(conn, lam, start, 2.0, cfg, record=rec)
print("\nhorizontal flow of H_lambda from a frame over the equator:")
for t, cid, z in [rec[0], rec[len(rec) // 2], rec[-1]]:
    x, g = unpack(z, 2, 2)
    print(f"  t={t:4.2f}  base={x}  det g={np.linalg.det(g):.6f}")

prime, geo = horizontal_projection_parts(conn, lam, start, 2 * np.pi, cfg)
print(f"projection property: |(q o gamma)' - gamma(t) lambda| <= {prime:.2e}, "
      f"gap to the matching geodesic <= {geo:.2e}")

# soldering reads the base velocity through the frame: theta(H_lambda) = lambda
v, w = unpack(H.value(start.packed()), 2, 2)
print("theta(H_lambda) at the start frame:", soldering(start, FrameTangent(v, w)))
