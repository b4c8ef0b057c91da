"""Automorphisms from time-1 flows of Killing fields.

exp(xi) is the time-(-1) flow of a verified Killing field, represented
as a flow word.  The demos check the affine-map equation, the kappa
pullback on the frame bundle, exp-naturality f o exp = exp o Tf, and the
injectivity surrogate: distinct exponentials move a frame apart.
"""
import numpy as np

from affinelab import (Frame, FrameTangent, IntegratorConfig, Point, Tangent, affine_residual,
                       exp_aut, exp_commutes_defect, frame_gap, frame_lift,
                       kappa_pullback_defect, orbit_point)
from affinelab.catalog import default_catalog, rotation_matrix_3d, sphere_rotation
from affinelab.flows import combine

cat = default_catalog()
cfg = IntegratorConfig()
conn = cat.connection("sphere", "round")
rng = np.random.default_rng(2)
samples = conn.atlas.sample_points("a", 8, rng)

# --- exponentials of rotation generators --------------------------------------
f = exp_aut(conn, cat.field("sphere", "rot_z"), samples, cfg)
p = Point("a", [0.5, 0.0])
print("exp(rot_z) moves", p.coords, "to", f.apply(p).coords)
closed = sphere_rotation(conn.atlas, rotation_matrix_3d(2, 1.0))
print("closed-form rotation by 1 rad:  ", closed.apply(p).coords)

# one (v, w) pair per sample; all samples run through the word as one block
vw = rng.normal(size=(len(samples), 2, 2))
res = affine_residual(f, conn, conn, samples, vw[:, 0], vw[:, 1])
print(f"affine residual of the flow word: {np.linalg.norm(res, axis=1).max():.2e}")

# the inverse word undoes the map
print(f"word o word^-1 gap: {conn.atlas.gap(f.inverse().apply(f.apply(p)), p):.2e}")

# a non-Killing field is refused
try:
    exp_aut(cat.connection('plane', 'flat'), cat.field("plane", "nonaffine_sq"),
            [Point("cart", [0.5, 0.0])], cfg)
except Exception as e:
    print(f"\nexp_aut refuses (x1^2, 0): {type(e).__name__}")

# --- frame-bundle side: kappa is preserved -------------------------------------
fd = frame_lift(f)
fr = Frame("a", [0.2, 0.3], np.eye(2) + 0.1)
ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
print(f"\nkappa pullback defect of Fr(exp(rot_z)): "
      f"{kappa_pullback_defect(conn, fd, [fr], [ft])[0]:.2e}")

# --- exp-naturality and orbit separation ----------------------------------------
v = Tangent(Point("a", [0.3, 0.1]), [0.6, -0.4])
print(f"f(exp(v)) vs exp(Tf v) gap: {exp_commutes_defect(conn, f, [v], cfg)[0]:.2e}")

frame = Frame("a", [0.3, 0.2], np.eye(2))
orbit = {}
for name in ("rot_x", "rot_y", "rot_z"):
    small = combine("0.1*" + name, [cat.field("sphere", name)], [0.1])
    orbit[name] = orbit_point(frame_lift(exp_aut(conn, small, samples, cfg)), frame)
gaps = {(a, b): frame_gap(conn.atlas, orbit[a], orbit[b])
        for a in orbit for b in orbit if a < b}
print("\npairwise orbit gaps of distinct small exponentials:")
for (a, b), g in gaps.items():
    print(f"  {a} vs {b}: {g:.4f}")
