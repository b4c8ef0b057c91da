import numpy as np
import pytest

import oracles
from affinelab.atlas import Point, Tangent
from affinelab.automorphism import (FlowWord, affine_residual, exp_aut, exp_commutes_defect,
                                    frame_gap, frame_lift, kappa_pullback_defect,
                                    kappa_pullback_parts, orbit_point)
from affinelab.catalog import plane_affine_map, rotation_matrix_3d, sphere_rotation
from affinelab.errors import ChartMissing, NotKilling
from affinelab.flows import IntegratorConfig, combine
from affinelab.frame_bundle import Frame, FrameTangent
from affinelab.geodesics import geodesic, parallel_transport


def sphere_samples(cat, rng, count=20):
    return cat.atlas("sphere").sample_points("a", count, rng)


def test_identity_flow_word(cat, cfg):
    atlas = cat.atlas("plane")
    ident = FlowWord(atlas, [], cfg)
    p = Point("cart", [0.4, -0.7])
    assert np.allclose(ident.apply(p).coords, p.coords)
    conn = cat.connection("plane", "flat")
    assert np.allclose(affine_residual(ident, conn, conn, [p], [[1, 0]], [[0, 1]]), 0.0)


def test_flat_affine_map_residual_zero(cat, rng):
    conn = cat.connection("plane", "flat")
    f = plane_affine_map(conn.atlas, [[1.1, 0.4], [-0.2, 0.9]], [0.3, -0.5])
    for _ in range(20):
        p = Point("cart", rng.uniform(-2, 2, size=2))
        v, w = rng.normal(size=(2, 2))
        assert np.linalg.norm(affine_residual(f, conn, conn, [p], [v], [w])) <= 1e-12
    # a closed form takes points in its own charts only
    polar = Point("polar", [1.0, 0.3])
    for method in (f.apply, f.jac, f.d2_tensor):
        with pytest.raises(ChartMissing):
            method(polar)


def test_sphere_rotation_residual(cat, rng):
    conn = cat.connection("sphere", "round")
    R = rotation_matrix_3d(0, 0.8) @ rotation_matrix_3d(2, -0.4)
    f = sphere_rotation(conn.atlas, R)
    worst = 0.0
    for p in sphere_samples(cat, rng, 100):
        v, w = rng.normal(size=(2, 2))
        worst = max(worst, float(np.linalg.norm(affine_residual(f, conn, conn, [p], [v], [w]))))
    assert worst <= 1e-8


def test_sphere_rotation_matches_the_ambient_rotation(cat, rng):
    # the chart maps against R acting on the embedded sphere: the image
    # within 1e-12 in the chart where its coordinates are smaller ("a" on
    # the unit circle), the Jacobian within 1e-8 (the oracle pushes
    # velocities by central differences of step 1e-7, good to about 1e-9),
    # and the second derivatives through the affine-map equation; R runs
    # over +-I at points on the unit circle, and over half-turns about each
    # axis and a random one and random rotations, each also times -I
    conn = cat.connection("sphere", "round")
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    proper = [rotation_matrix_3d(k, np.pi) for k in range(3)]
    proper.append(2.0 * np.outer(axis, axis) - np.eye(3))
    for _ in range(4):
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        proper.append(Q * np.linalg.det(Q))
    cases = [(np.eye(3), [[1.0, 0.0], [0.0, -1.0]]), (-np.eye(3), [[1.0, 0.0], [0.0, -1.0]])]
    cases += [(s * R, rng.uniform(-1.8, 1.8, size=(4, 2))) for R in proper for s in (1.0, -1.0)]
    for R, coords in cases:
        f = sphere_rotation(conn.atlas, R)
        points = [Point(cid, p) for cid in ("a", "b") for p in coords]
        for p in points:
            Y = R @ oracles.chart_to_sphere(p.coords, oracles.SIGMA[p.chart])
            ya, yb = oracles.sphere_to_chart(Y, 1.0), oracles.sphere_to_chart(Y, -1.0)
            tid, y = ("a", ya) if ya @ ya <= yb @ yb else ("b", yb)
            J, q = f.jac(p)
            assert q.chart == tid
            assert np.abs(q.coords - y).max() <= 1e-12
            V = [R @ oracles.chart_velocity_to_ambient(p.coords, oracles.SIGMA[p.chart], e)
                 for e in np.eye(2)]
            pushed = [oracles.ambient_velocity_to_chart(Y, oracles.SIGMA[tid], v) for v in V]
            assert np.abs(J - np.stack(pushed, axis=-1)).max() <= 1e-8
        vs, ws = rng.normal(size=(2, len(points), 2))
        assert np.abs(affine_residual(f, conn, conn, points, vs, ws)).max() <= 1e-8


def test_sphere_rotation_roundtrip_inverse(cat, rng):
    atlas = cat.atlas("sphere")
    f = sphere_rotation(atlas, rotation_matrix_3d(1, 1.1))
    for p in sphere_samples(cat, rng, 20):
        q = f.inverse().apply(f.apply(p))
        assert atlas.gap(q, p) <= 1e-12


def test_frame_lift_flat(cat):
    atlas = cat.atlas("plane")
    Q = np.array([[0.0, -1.0], [1.0, 0.0]])
    c = np.array([1.0, 2.0])
    fd = frame_lift(plane_affine_map(atlas, Q, c))
    g = np.array([[1.0, 0.2], [0.0, 0.8]])
    out = fd.apply_frame(Frame("cart", [0.5, 0.5], g))
    assert np.allclose(out.x, Q @ [0.5, 0.5] + c)
    assert np.allclose(out.g, Q @ g)


def test_frame_lift_commutes_with_rho(cat, rng):
    from affinelab.frame_bundle import rho
    fd = frame_lift(sphere_rotation(cat.atlas("sphere"), rotation_matrix_3d(0, 0.6)))
    for _ in range(10):
        fr = Frame("a", rng.uniform(-1, 1, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        g2 = np.eye(2) + rng.uniform(-0.3, 0.3, size=(2, 2))
        a = fd.apply_frame(rho(fr, g2))
        b = rho(fd.apply_frame(fr), g2)
        assert a.chart == b.chart
        assert np.linalg.norm(a.g - b.g) <= 1e-8


def test_frame_homomorphism_property(cat, rng):
    # Fr(f o g) = Fr(f) o Fr(g) for two catalog rotations
    atlas = cat.atlas("sphere")
    Rf = rotation_matrix_3d(0, 0.7)
    Rg = rotation_matrix_3d(2, -1.2)
    f, g, fg = sphere_rotation(atlas, Rf), sphere_rotation(atlas, Rg), sphere_rotation(atlas, Rf @ Rg)
    Ff, Fg, Ffg = frame_lift(f), frame_lift(g), frame_lift(fg)
    for _ in range(15):
        fr = Frame("a", rng.uniform(-1, 1, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        lhs = Ffg.apply_frame(fr)
        rhs = Ff.apply_frame(Fg.apply_frame(fr))
        assert frame_gap(atlas, lhs, rhs) <= 1e-8


def test_frame_lift_preserves_theta(cat, rng):
    from affinelab.frame_bundle import soldering
    fd = frame_lift(sphere_rotation(cat.atlas("sphere"), rotation_matrix_3d(1, 0.9)))
    for _ in range(10):
        fr = Frame("a", rng.uniform(-1, 1, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        (F,), (TFt,) = fd.tangent_frame([fr], [ft])
        assert np.linalg.norm(soldering(F, TFt) - soldering(fr, ft)) <= 1e-8


def test_exp_aut_zero_and_translation(cat, cfg, rng):
    conn = cat.connection("plane", "flat")
    samples = [Point("cart", rng.uniform(-2, 2, size=2)) for _ in range(5)]
    zero = combine("zero", [cat.field("plane", "trans_x")], [0.0])
    f0 = exp_aut(conn, zero, samples, cfg)
    p = Point("cart", [0.3, 0.4])
    assert conn.atlas.gap(f0.apply(p), p) <= 1e-12
    # translation field c integrates to translation by -c
    f = exp_aut(conn, cat.field("plane", "trans_x"), samples, cfg)
    assert np.allclose(f.apply(p).coords, [0.3 - 1.0, 0.4], atol=1e-12)


def test_exp_aut_refuses_non_killing(cat, cfg, rng):
    conn = cat.connection("plane", "flat")
    samples = [Point("cart", rng.uniform(-2, 2, size=2)) for _ in range(5)]
    with pytest.raises(NotKilling):
        exp_aut(conn, cat.field("plane", "nonaffine_sq"), samples, cfg)


def test_exp_aut_needs_samples(cat, cfg):
    conn = cat.connection("plane", "flat")
    with pytest.raises(ValueError, match="sample"):
        exp_aut(conn, cat.field("plane", "nonaffine_sq"), [], cfg)


@pytest.mark.parametrize("tol_kill", [float("nan"), float("inf"), 0.0, -1.0])
def test_exp_aut_rejects_a_tolerance_that_is_not_finite_and_positive(cat, cfg, rng, tol_kill):
    conn = cat.connection("plane", "flat")
    samples = [Point("cart", rng.uniform(-2, 2, size=2)) for _ in range(5)]
    with pytest.raises(ValueError, match="tol_kill"):
        exp_aut(conn, cat.field("plane", "nonaffine_sq"), samples, cfg, tol_kill=tol_kill)


def test_exp_aut_refuses_a_nan_killing_residual(cat, cfg, rng):
    conn = cat.connection("plane", "flat")
    samples = [Point("cart", rng.uniform(-2, 2, size=2)) for _ in range(5)]
    nanf = combine("nanf", [cat.field("plane", "trans_x")], [float("nan")])
    with pytest.raises(NotKilling, match="nan"):
        exp_aut(conn, nanf, samples, cfg)


def test_row_lists_of_different_lengths_are_refused(cat, cfg, rng):
    conn = cat.connection("sphere", "round")
    points = sphere_samples(cat, rng, 3)
    frames = [Frame(p.chart, p.coords, np.eye(2)) for p in points]
    ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
    closed = sphere_rotation(conn.atlas, rotation_matrix_3d(0, 0.7))
    word = FlowWord(conn.atlas, [(cat.field("sphere", "rot_x"), -1.0)], cfg)
    for f in (closed, word):
        with pytest.raises(ValueError):
            affine_residual(f, conn, conn, points, [[1.0, 0.0]], [[0.0, 1.0]])
        with pytest.raises(ValueError):
            kappa_pullback_defect(conn, frame_lift(f), frames, [ft])


@pytest.mark.parametrize("rows", [[], np.zeros((0, 2))], ids=["list", "array"])
def test_affine_residual_of_zero_rows_is_zero_by_n(cat, cfg, rows):
    conn = cat.connection("sphere", "round")
    closed = sphere_rotation(conn.atlas, rotation_matrix_3d(0, 0.7))
    word = FlowWord(conn.atlas, [(cat.field("sphere", "rot_x"), -1.0)], cfg)
    for f in (closed, word):
        res = affine_residual(f, conn, conn, [], rows, rows)
        assert res.shape == (0, 2)
        assert res[:, 1].shape == (0,)


def test_flow_word_second_derivative_matches_the_closed_form_rotation(cat, rng):
    # exp(rot_x) is the rotation by 1 about the x axis; its d2 f from the
    # frame lift is as exact as the flow, where both maps land in one chart
    conn = cat.connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-3)
    samples = sphere_samples(cat, rng, 20)
    f = exp_aut(conn, cat.field("sphere", "rot_x"), samples, cfg)
    g = sphere_rotation(conn.atlas, rotation_matrix_3d(0, 1.0))
    vs, ws = rng.normal(size=(2, len(samples), 2))
    compared = 0
    for p, v, w, (J, out, d2) in zip(samples, vs, ws, f.jets(samples, vs, ws)):
        J_ref, out_ref = g.jac(p)
        if out.chart != out_ref.chart:
            continue
        ref = np.einsum("ijk,j,k->i", g.d2_tensor(p), v, w)
        assert np.linalg.norm(d2 - ref) <= 1e-11 * np.linalg.norm(ref)
        compared += 1
    assert compared >= len(samples) // 2


def test_exp_aut_sphere_rotation_matches_closed_form(cat, cfg, rng):
    # exp of (pi/3) rot_z equals the closed-form rotation by -(-pi/3) about z
    conn = cat.connection("sphere", "round")
    samples = sphere_samples(cat, rng, 5)
    fld = combine("w*rot_z", [cat.field("sphere", "rot_z")], [np.pi / 3])
    f = exp_aut(conn, fld, samples, cfg)
    g = sphere_rotation(conn.atlas, rotation_matrix_3d(2, np.pi / 3))
    for p in sphere_samples(cat, rng, 10):
        assert conn.atlas.gap(f.apply(p), g.apply(p)) <= 1e-6


def test_flow_word_group_law_and_inverse(cat, cfg, rng):
    conn = cat.connection("sphere", "round")
    samples = sphere_samples(cat, rng, 5)
    fld = cat.field("sphere", "rot_x")
    f = exp_aut(conn, fld, samples, cfg)
    fneg = exp_aut(conn, combine("neg", [fld], [-1.0]), samples, cfg)
    for p in sphere_samples(cat, rng, 5):
        assert conn.atlas.gap(fneg.apply(f.apply(p)), p) <= 1e-7
        assert conn.atlas.gap(f.inverse().apply(f.apply(p)), p) <= 1e-7


def test_affine_maps_preserve_geodesics(cat, cfg):
    conn = cat.connection("sphere", "round")
    f = sphere_rotation(conn.atlas, rotation_matrix_3d(0, 0.5))
    v0 = Tangent(Point("a", [0.3, 0.1]), [0.5, -0.2])
    curve = geodesic(conn, v0, (0.0, 1.5), cfg)
    image_curve = geodesic(conn, f.tangent(v0), (0.0, 1.5), cfg)
    worst = 0.0
    for t in np.linspace(0.0, 1.5, 16):
        worst = max(worst, conn.atlas.gap(f.apply(curve.point(t)), image_curve.point(t)))
    assert worst <= 1e-5


def test_affine_maps_compatible_with_transport(cat, cfg, rng):
    # Tf(P_alpha(v)) = P_{f o alpha}(Tf v)
    conn = cat.connection("sphere", "round")
    f = sphere_rotation(conn.atlas, rotation_matrix_3d(2, 0.9) @ rotation_matrix_3d(0, 0.3))
    v0 = Tangent(Point("a", [0.2, 0.4]), [0.6, 0.1])
    curve = geodesic(conn, v0, (0.0, 1.0), cfg)
    v = rng.normal(size=2)
    lhs_vec = parallel_transport(conn, curve, 0.0, 1.0, v, cfg)
    end = curve.point(1.0)
    J_end, f_end = f.jac(end)
    lhs = Tangent(f_end, J_end @ lhs_vec)
    # image curve: transport Tf(v) along f o alpha (as an integrated geodesic)
    image_curve = geodesic(conn, f.tangent(v0), (0.0, 1.0), cfg)
    J0, _ = f.jac(curve.point(0.0))
    rhs_vec = parallel_transport(conn, image_curve, 0.0, 1.0, J0 @ v, cfg)
    rhs = Tangent(image_curve.point(1.0), rhs_vec)
    # compare in the chart of lhs (the two end points coincide up to 1e-6)
    assert conn.atlas.gap(lhs.base, rhs.base) <= 1e-6
    rhs_in_lhs = conn.atlas.rechart_tangent(rhs, lhs.base.chart)
    assert np.linalg.norm(lhs.vec - rhs_in_lhs.vec) <= 1e-6


def test_determined_by_one_tangent_map(cat, cfg, rng):
    # two representations of the same automorphism (closed form vs flow word)
    # agree at one point with equal Jacobians, hence agree everywhere sampled
    conn = cat.connection("sphere", "round")
    phi = 0.8
    samples = sphere_samples(cat, rng, 5)
    f1 = exp_aut(conn, combine("s", [cat.field("sphere", "rot_z")], [phi]), samples, cfg)
    f2 = sphere_rotation(conn.atlas, rotation_matrix_3d(2, phi))
    p0 = Point("a", [0.4, -0.2])
    J1, o1 = f1.jac(p0)
    J2, o2 = f2.jac(p0)
    assert conn.atlas.gap(o1, o2) <= 1e-8
    assert np.linalg.norm(J1 - J2) <= 1e-7
    for p in sphere_samples(cat, rng, 100):
        assert conn.atlas.gap(f1.apply(p), f2.apply(p)) <= 1e-6


def test_orbit_point_and_separation(cat, cfg, rng):
    conn = cat.connection("sphere", "round")
    samples = sphere_samples(cat, rng, 5)
    frame = Frame("a", [0.3, 0.2], np.eye(2))
    # identity orbit
    ident = FlowWord(conn.atlas, [], cfg)
    assert frame_gap(conn.atlas, orbit_point(frame_lift(ident), frame), frame) <= 1e-12
    # distinct small exponentials separate the frame
    frames = []
    for name in ("rot_x", "rot_y", "rot_z"):
        fld = combine("s", [cat.field("sphere", name)], [0.1])
        frames.append(orbit_point(frame_lift(exp_aut(conn, fld, samples, cfg)), frame))
    gaps = [frame_gap(conn.atlas, frames[i], frames[j]) for i in range(3) for j in range(i)]
    assert min(gaps) >= 1e-3


def test_kappa_pullback_flat_affine(cat, rng):
    conn = cat.connection("plane", "flat")
    f = plane_affine_map(conn.atlas, [[1.2, 0.1], [0.0, 0.9]], [0.4, 0.0])
    fd = frame_lift(f)
    for _ in range(10):
        fr = Frame("cart", rng.uniform(-1, 1, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        assert kappa_pullback_defect(conn, fd, [fr], [ft])[0] <= 1e-10


def test_kappa_pullback_sphere_exp_aut(cat, cfg, rng):
    conn = cat.connection("sphere", "round")
    samples = sphere_samples(cat, rng, 5)
    f = exp_aut(conn, cat.field("sphere", "rot_y"), samples, cfg)
    fd = frame_lift(f)
    worst = 0.0
    for _ in range(5):
        fr = Frame("a", rng.uniform(-0.8, 0.8, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        worst = max(worst, kappa_pullback_defect(conn, fd, [fr], [ft])[0])
    assert worst <= 1e-5


def test_kappa_pullback_rotation_closed_form(cat, rng):
    conn = cat.connection("sphere", "round")
    fd = frame_lift(sphere_rotation(conn.atlas, rotation_matrix_3d(0, 0.7)))
    for _ in range(10):
        fr = Frame("a", rng.uniform(-0.8, 0.8, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        (th, om), = kappa_pullback_parts(conn, fd, [fr], [ft])
        assert th <= 1e-9
        assert om <= 1e-9


def test_exp_commutes(cat, cfg, rng):
    flat = cat.connection("plane", "flat")
    ftrans = plane_affine_map(flat.atlas, np.eye(2), [0.7, -0.1])
    v = Tangent(Point("cart", [0.1, 0.2]), [0.5, 0.5])
    assert exp_commutes_defect(flat, ftrans, [v], cfg)[0] <= 1e-12
    conn = cat.connection("sphere", "round")
    f = sphere_rotation(conn.atlas, rotation_matrix_3d(1, 0.6))
    v = Tangent(Point("a", [0.3, 0.1]), [0.7, 0.7])
    assert exp_commutes_defect(conn, f, [v], cfg)[0] <= 1e-5
