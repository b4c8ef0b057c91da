"""Affine Killing fields: verification, brackets, and extension from a seed.

Two independent verdicts for "the flows of xi are affine": a pointwise
second-order residual, and the commutation of the natural lift with
standard horizontal flows.  A verified field is determined by its value
and covariant derivative at one point; transporting that seed along
horizontal flows reconstructs the field anywhere reachable.
"""
import numpy as np

from affinelab import (Frame, IntegratorConfig, Point, bracket, ev_embedding, extend_killing,
                       gram_rank, killing_residual, lift_commutation_defect, path_to)
from affinelab.catalog import default_catalog

cat = default_catalog()
cfg = IntegratorConfig()
conn = cat.connection("sphere", "round")
rng = np.random.default_rng(1)

# --- the so(3) generators are affine Killing fields of the round sphere -----
for name in ("rot_x", "rot_y", "rot_z"):
    fld = cat.field("sphere", name)
    worst = max(np.linalg.norm(killing_residual(conn, fld, p, rng.normal(size=2),
                                                rng.normal(size=2)))
                for p in conn.atlas.sample_points("a", 50, rng))
    print(f"residual of {name}: {worst:.2e}")

# a deliberately non-affine field on the flat plane fails loudly
flat = cat.connection("plane", "flat")
bad = cat.field("plane", "nonaffine_sq")
r = killing_residual(flat, bad, Point("cart", [1.0, 0.5]), [1, 0], [1, 0])
print(f"residual of (x1^2, 0) at (1, 0.5): {r}  (non-affine)")

# --- the flow-commutation route agrees ---------------------------------------
frame = Frame("a", [0.3, -0.2], np.eye(2))
[good] = lift_commutation_defect(conn, [cat.field("sphere", "rot_x")], [[0.4, 0.1]], [frame],
                                 0.5, 0.5, cfg)
[badc] = lift_commutation_defect(flat, [bad], [[1.0, 0.0]],
                                 [Frame("cart", [0.5, 0.1], np.eye(2))], 0.5, 0.5, cfg)
print(f"\n[lift, horizontal] commutation defect: rot_x {good:.2e}, (x1^2,0) {badc:.2e}")

# --- brackets close like so(3) ------------------------------------------------
br = bracket(cat.field("sphere", "rot_x"), cat.field("sphere", "rot_y"))
p = Point("a", [0.7, 0.1])
print("\n[rot_x, rot_y](p) =", br.value(p), " rot_z(p) =", cat.field("sphere", "rot_z").value(p))

# --- a Killing field is pinned down by one seed -------------------------------
x = Point("a", [0.3, 0.2])
fld = cat.field("sphere", "rot_x")
seed = ev_embedding(conn, fld, x)
print(f"\nseed at {x.coords}: value {seed.value}, nabla =\n{seed.nabla}")

y = Point("a", [0.6, -0.3])
out = extend_killing(conn, seed, path_to(conn, x, y, cfg), cfg)
print(f"extended value at {out.base.coords}: {out.vec}")
print(f"true field value there:            {fld.value(out.base)}")

seeds = [ev_embedding(conn, cat.field("sphere", n), x) for n in ("rot_x", "rot_y", "rot_z")]
print(f"\ngram rank of the three so(3) seeds: {gram_rank(seeds)}")
