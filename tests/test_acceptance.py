"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
All tolerances are fixed here; nothing is calibrated at run time.
"""
import numpy as np
from scipy.linalg import expm

import oracles
from affinelab.atlas import Point, Tangent
from affinelab.automorphism import (affine_residual, exp_aut, exp_commutes_defect, frame_gap,
                                    frame_lift, kappa_pullback_defect, orbit_point)
from affinelab.catalog import default_catalog, rotation_matrix_3d, sphere_rotation
from affinelab.flows import IntegratorConfig, combine, parameter_flow_derivative_defect
from affinelab.frame_bundle import (Frame, FrameTangent, horizontal_projection_parts,
                                    kappa_inverse_family)
from affinelab.geodesics import (CurveSpec, completeness_probe, exp_map, geodesic,
                                 parallel_transport)
from affinelab.killing import (HorizontalPath, KillingSeed, bracket, ev_embedding,
                               extend_killing, gram_rank, killing_residual,
                               lift_commutation_defect, natural_lift, path_to)

CAT = default_catalog()
CFG = IntegratorConfig()
RNG_SEED = 24601


def _verdict(num, desc, parts):
    """parts: list of (label, worst, tol); prints one line, asserts all."""
    ok = all(w <= tol for _, w, tol in parts)
    detail = "  ".join(f"{label}={w:.3e}<= {tol:g}" for label, w, tol in parts)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {desc}: {detail}")
    for label, w, tol in parts:
        assert w <= tol, f"criterion {num} ({label}): {w:.3e} > {tol:g}"


def test_criterion_01_flat_plane_exactness():
    conn = CAT.connection("plane", "flat")
    rng = np.random.default_rng(RNG_SEED)
    x0 = np.array([0.3, -0.2])
    v0 = np.array([0.7, 0.4])
    worst = 0.0

    curve = geodesic(conn, Tangent(Point("cart", x0), v0), (-10.0, 10.0), CFG)
    for t in np.linspace(-10, 10, 21):
        _, x, v = curve.eval(t)
        worst = max(worst, float(np.linalg.norm(x - (x0 + t * v0))),
                    float(np.linalg.norm(v - v0)))

    for t in (-10.0, -1.0, 2.5, 10.0):
        out = exp_map(conn, Tangent(Point("cart", x0), v0), CFG, t=t)
        worst = max(worst, float(np.linalg.norm(out.coords - (x0 + t * v0))))

    def wiggle(t):
        return "cart", np.array([np.sin(t), 0.5 * t]), np.array([np.cos(t), 0.5])

    curve2 = CurveSpec.from_callable(conn.atlas, wiggle, -10.0, 10.0)
    v = rng.normal(size=2)
    worst = max(worst, float(np.linalg.norm(
        parallel_transport(conn, curve2, -10.0, 10.0, v, CFG) - v)))

    samples = [Point("cart", rng.uniform(-2, 2, size=2)) for _ in range(5)]
    f_trans = exp_aut(conn, CAT.field("plane", "trans_x"), samples, CFG)
    p = Point("cart", x0)
    for k in range(1, 11):
        p = f_trans.apply(p)
        worst = max(worst, float(np.linalg.norm(p.coords - (x0 - k * np.array([1.0, 0.0])))))

    for name, A in (("rotation", np.array([[0.0, -1.0], [1.0, 0.0]])),
                    ("shear", np.array([[0.0, 1.0], [0.0, 0.0]]))):
        f = exp_aut(conn, CAT.field("plane", name), samples, CFG)
        p = Point("cart", x0)
        for k in range(1, 11):
            p = f.apply(p)
            worst = max(worst, float(np.linalg.norm(p.coords - expm(-k * A) @ x0)))

    _verdict(1, "flat-plane exactness over |t| <= 10", [("worst", worst, 1e-9)])


def test_criterion_02_sphere_periodicity_and_convergence():
    conn = CAT.connection("sphere", "round")
    start = Tangent(Point("a", [1.0, 0.0]), [0.0, 1.0])
    curve = geodesic(conn, start, (0.0, 2 * np.pi), CFG)  # step 1e-3
    gap = conn.atlas.gap(curve.point(2 * np.pi), start.base)

    errs = []
    for step in (2e-2, 1e-2):  # halving probe in the truncation-dominated regime
        c = geodesic(conn, start, (0.0, 2 * np.pi), IntegratorConfig(step=step))
        errs.append(conn.atlas.gap(c.point(2 * np.pi), start.base))
    ratio_short = max(0.0, 8.0 - errs[0] / max(errs[1], 1e-300))
    _verdict(2, "sphere equator periodicity at t=2pi (step 1e-3) + 4th-order halving",
             [("gap", gap, 1e-6), ("ratio-shortfall", ratio_short, 0.0)])


def test_criterion_03_sphere_holonomy():
    conn = CAT.connection("sphere", "round")
    worst = 0.0
    for theta0 in (np.pi / 6, np.pi / 4, np.pi / 3):
        rho = np.tan(theta0 / 2.0)

        def circ(t, rho=rho):
            return "b", rho * np.array([np.cos(t), np.sin(t)]), rho * np.array([-np.sin(t), np.cos(t)])

        curve = CurveSpec.from_callable(conn.atlas, circ, 0.0, 2 * np.pi)
        P = parallel_transport(conn, curve, 0.0, 2 * np.pi, np.eye(2), CFG)
        worst = max(worst, float(np.linalg.norm(P - oracles.rotmat(-2 * np.pi * np.cos(theta0)))))
    _verdict(3, "holonomy around colatitude circles rotates by 2 pi cos(theta0)",
             [("worst", worst, 1e-5)])


def test_criterion_04_change_of_variable():
    from affinelab.connection import change_of_variable_residual
    rng = np.random.default_rng(RNG_SEED)
    worst = 0.0
    for mname, cname, pair in (("sphere", "round", ("a", "b")),
                               ("plane", "flat", ("cart", "polar"))):
        conn = CAT.connection(mname, cname)
        for p in conn.atlas.overlap_samples(*pair, 100, rng):
            v, w = rng.normal(size=(2, 2))
            worst = max(worst, change_of_variable_residual(conn, p, v, w, pair[1]))
    _verdict(4, "change-of-variable residual on 100 overlap points x 2 atlases",
             [("worst", worst, 1e-6)])


def test_criterion_05_horizontal_projection():
    conn = CAT.connection("sphere", "round")
    prime, geo = horizontal_projection_parts(conn, [0.0, 1.0],
                                             Frame("a", [1.0, 0.0], np.eye(2)),
                                             2 * np.pi, CFG)
    _verdict(5, "standard-horizontal projection over [0, 2pi] on the sphere",
             [("derivative", prime, 1e-4), ("geodesic-gap", geo, 1e-5)])


def test_criterion_06_killing_residual():
    rng = np.random.default_rng(RNG_SEED)
    conn = CAT.connection("sphere", "round")
    worst = 0.0
    for name in ("rot_x", "rot_y", "rot_z"):
        fld = CAT.field("sphere", name)
        for p in conn.atlas.sample_points("a", 100, rng):
            v, w = rng.normal(size=(2, 2))
            worst = max(worst, float(np.linalg.norm(killing_residual(conn, fld, p, v, w))))
    flat = CAT.connection("plane", "flat")
    bad = CAT.field("plane", "nonaffine_sq")
    floor = float(np.linalg.norm(killing_residual(flat, bad, Point("cart", [1.0, 0.5]),
                                                  [1, 0], [1, 0])))
    _verdict(6, "killing residual: so(3) tiny, non-affine field large",
             [("so3-worst", worst, 1e-8), ("floor-shortfall", max(0.0, 1e-2 - floor), 0.0)])


def test_criterion_07_equivalence_suite():
    rng = np.random.default_rng(RNG_SEED)
    pairs, rows = [], {}
    for conn, fld, library_affine in CAT.killing_pairs():
        expected_affine = library_affine and fld.name not in oracles.NOT_AFFINE
        atlas = conn.atlas
        cid = atlas.chart_order()[0]
        res = 0.0
        for p in atlas.sample_points(cid, 20, rng):
            v, w = rng.normal(size=(2, atlas.dim))
            res = max(res, float(np.linalg.norm(killing_residual(conn, fld, p, v, w))))
        pairs.append((conn, fld, expected_affine, res))
        chart = atlas.chart(cid)
        center = 0.5 * (chart.sample_lo + chart.sample_hi)
        for p in atlas.sample_points(cid, 2, rng):
            x = center + 0.5 * (p.coords - center)
            g = np.eye(atlas.dim) + rng.uniform(-0.2, 0.2, size=(atlas.dim,) * 2)
            lam = rng.normal(size=atlas.dim)
            rows.setdefault(conn, []).append((fld, lam, Frame(cid, x, g)))
    # every connection's commutation rows run as one list call
    comm = {}
    for conn, conn_rows in rows.items():
        defects = lift_commutation_defect(conn, *zip(*conn_rows), 0.4, 0.4, CFG)
        for (fld, _, _), d in zip(conn_rows, defects):
            comm[fld] = max(comm.get(fld, 0.0), d)
    disagreements = []
    for conn, fld, expected_affine, res in pairs:
        res_verdict = res <= 1e-8
        comm_verdict = comm[fld] <= 1e-4
        if res_verdict != comm_verdict or res_verdict != expected_affine:
            disagreements.append((conn.atlas.name, fld.name, res, comm[fld]))
    _verdict(7, "residual vs flow-commutation Killing verdicts agree on all catalog fields",
             [("disagreements", float(len(disagreements)), 0.0)])
    assert not disagreements, disagreements


def test_criterion_08_lift_homomorphism():
    rng = np.random.default_rng(RNG_SEED)
    names = ["rot_x", "rot_y", "rot_z"]
    flds = {n: CAT.field("sphere", n) for n in names}
    worst_point = 0.0
    for i in range(3):
        br = bracket(flds[names[i]], flds[names[(i + 1) % 3]])
        target = flds[names[(i + 2) % 3]]
        for _ in range(50):
            p = Point("a", rng.uniform(-1.2, 1.2, size=2))
            worst_point = max(worst_point, float(np.linalg.norm(br.value(p) - target.value(p))))
    lhs = natural_lift(bracket(flds["rot_x"], flds["rot_y"]))
    rhs = bracket(natural_lift(flds["rot_x"]), natural_lift(flds["rot_y"]))
    worst_lift = 0.0
    for _ in range(20):
        z = np.concatenate([rng.uniform(-1, 1, size=2),
                            (np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2))).ravel()])
        p = Point("a", z)
        worst_lift = max(worst_lift, float(np.linalg.norm(lhs.value(p) - rhs.value(p))))
    _verdict(8, "lift homomorphism and so(3) structure constants",
             [("bracket-of-lifts", worst_lift, 1e-6), ("structure", worst_point, 1e-8)])


def test_criterion_09_killing_extension():
    conn = CAT.connection("sphere", "round")
    fld = CAT.field("sphere", "rot_x")
    x = Point("a", [0.3, 0.2])
    # target at geodesic distance exactly 1, built from the ambient oracle
    X = oracles.chart_to_sphere(x.coords, 1.0)
    U = np.array([0.2, 1.0, 0.0])
    U -= (U @ X) * X
    U /= np.linalg.norm(U)
    y = Point("a", oracles.sphere_to_chart(np.cos(1.0) * X + np.sin(1.0) * U, 1.0))
    seed = ev_embedding(conn, fld, x)
    out = extend_killing(conn, seed, path_to(conn, x, y, CFG), CFG)
    recover = float(np.linalg.norm(out.vec - fld.value(out.base)))
    assert conn.atlas.gap(out.base, y) <= 1e-6

    s1 = seed
    s2 = ev_embedding(conn, CAT.field("sphere", "rot_y"), x)
    a = 0.7
    combo = KillingSeed(x, a * s1.value + s2.value, a * s1.nabla + s2.nabla)
    path = HorizontalPath.single([0.4, -0.3], 1.0)
    lin = float(np.linalg.norm(
        extend_killing(conn, combo, path, CFG).vec
        - (a * extend_killing(conn, s1, path, CFG).vec
           + extend_killing(conn, s2, path, CFG).vec)))
    _verdict(9, "killing extension to geodesic distance 1 + seed linearity",
             [("recovery", recover, 1e-5), ("linearity", lin, 1e-8)])


def test_criterion_10_automorphism_suite():
    rng = np.random.default_rng(RNG_SEED)
    conn = CAT.connection("sphere", "round")
    atlas = conn.atlas
    samples = atlas.sample_points("a", 10, rng)

    f = exp_aut(conn, CAT.field("sphere", "rot_x"), samples, CFG)
    worst_aff = 0.0
    for p in samples:
        v, w = rng.normal(size=(2, 2))
        worst_aff = max(worst_aff,
                        float(np.linalg.norm(affine_residual(f, conn, conn, [p], [v], [w]))))

    fd = frame_lift(f)
    worst_kappa = 0.0
    for p in samples[:5]:
        g = np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2))
        ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        worst_kappa = max(worst_kappa,
                          kappa_pullback_defect(conn, fd, [Frame("a", p.coords, g)], [ft])[0])

    worst_expc = 0.0
    for p in samples[:3]:
        worst_expc = max(worst_expc,
                         exp_commutes_defect(conn, f, [Tangent(p, rng.normal(size=2))], CFG)[0])

    Ra = rotation_matrix_3d(0, 0.7)
    Rb = rotation_matrix_3d(2, -1.2)
    Ff = frame_lift(sphere_rotation(atlas, Ra))
    Fg = frame_lift(sphere_rotation(atlas, Rb))
    Ffg = frame_lift(sphere_rotation(atlas, Ra @ Rb))
    worst_hom = 0.0
    for p in samples:
        fr = Frame("a", p.coords, np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        worst_hom = max(worst_hom, frame_gap(atlas, Ffg.apply_frame(fr),
                                             Ff.apply_frame(Fg.apply_frame(fr))))

    base = Point("a", [0.3, 0.2])
    seeds = [ev_embedding(conn, CAT.field("sphere", n), base) for n in ("rot_x", "rot_y", "rot_z")]
    rank_gap = float(abs(gram_rank(seeds) - 3))

    frame = Frame("a", base.coords, np.eye(2))
    frames = []
    for name in ("rot_x", "rot_y", "rot_z"):
        scaled = combine("s", [CAT.field("sphere", name)], [0.1])
        frames.append(orbit_point(frame_lift(exp_aut(conn, scaled, samples, CFG)), frame))
    sep = min(frame_gap(atlas, frames[i], frames[j]) for i in range(3) for j in range(i))

    _verdict(10, "automorphism suite (affine, kappa, exp-commutes, Fr-hom, rank, separation)",
             [("affine", worst_aff, 1e-5), ("kappa", worst_kappa, 1e-5),
              ("exp-commutes", worst_expc, 1e-5), ("frame-hom", worst_hom, 1e-8),
              ("rank-gap", rank_gap, 0.0), ("separation-shortfall", max(0.0, 1e-3 - sep), 0.0)])


def test_criterion_11_parameter_flow_derivative():
    worst = 0.0
    for mname, cname, chart, point in (("plane", "flat", "cart", [0.2, -0.1]),
                                       ("sphere", "round", "a", [0.3, 0.2])):
        conn = CAT.connection(mname, cname)
        p = Frame(chart, np.asarray(point, float), np.eye(conn.atlas.dim)).packed()
        worst = max(worst, parameter_flow_derivative_defect(kappa_inverse_family(conn), p, CFG))
    _verdict(11, "time-1 parameter-flow derivative equals kappa^{-1} on both frame bundles",
             [("worst", worst, 1e-4)])


def test_criterion_12_completeness_probe():
    rng = np.random.default_rng(RNG_SEED)
    horizon = 1000.0

    flat = CAT.connection("plane", "flat")
    seeds = [Tangent(p, rng.normal(size=2))
             for p in flat.atlas.sample_points("cart", 20, rng)]
    rep_flat = completeness_probe(flat, seeds, horizon, IntegratorConfig(step=0.5))
    flat_short = max(horizon - min(r.t_forward, abs(r.t_backward)) for r in rep_flat.rows)

    sphere = CAT.connection("sphere", "round")
    seeds = [Tangent(p, 0.7 * rng.normal(size=2))
             for p in sphere.atlas.sample_points("a", 20, rng)]
    rep_sphere = completeness_probe(sphere, seeds, horizon, IntegratorConfig(step=0.1))
    sphere_short = max(horizon - min(r.t_forward, abs(r.t_backward)) for r in rep_sphere.rows)

    disk = CAT.connection("disk", "flat")
    rep_disk = completeness_probe(disk, [Tangent(Point("disk", [0.0, 0.0]), [1.0, 0.0])],
                                  10.0, IntegratorConfig(step=0.01))
    stop = rep_disk.rows[0].t_forward
    _verdict(12, "completeness: plane and sphere reach 1e3, disk stops before t=2",
             [("plane-shortfall", flat_short, 1e-6), ("sphere-shortfall", sphere_short, 1e-6),
              ("disk-overrun", max(0.0, stop - 2.0 + 1e-9), 0.0)])
    assert not rep_disk.complete_up_to_horizon
    assert rep_flat.complete_up_to_horizon and rep_sphere.complete_up_to_horizon
