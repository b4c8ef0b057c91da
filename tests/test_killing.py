import numpy as np
import pytest

import oracles
from affinelab.atlas import Point, Tangent
from affinelab.bundles import pack, unpack
from affinelab.errors import BasePointMismatch, SingularGroupElement
from affinelab.flows import IntegratorConfig, _push, integrate
from affinelab.frame_bundle import Frame
from affinelab.killing import (HorizontalPath, KillingSeed, bracket, ev_embedding,
                               extend_killing, gram_rank, killing_residual,
                               lift_commutation_defect, natural_lift, path_to)


def test_catalog_so3_fields_match_pushforward_oracle(cat, rng):
    # the hand-derived quadratic chart forms against an FD pushforward of
    # the ambient generators -A_j X
    for cid, sigma in (("a", 1.0), ("b", -1.0)):
        for axis, name in enumerate(("rot_x", "rot_y", "rot_z")):
            fld = cat.field("sphere", name)
            for _ in range(10):
                p = rng.uniform(-1.2, 1.2, size=2)
                expected = oracles.rotation_field_chart(axis, p, sigma, sign=-1.0)
                got = fld.value(Point(cid, p))
                assert np.allclose(got, expected, atol=1e-7), (cid, name, p)


def test_so3_fields_well_defined_across_charts(cat, rng):
    atlas = cat.atlas("sphere")
    for name in ("rot_x", "rot_y", "rot_z"):
        fld = cat.field("sphere", name)
        for p in atlas.overlap_samples("a", "b", 20, rng):
            t = atlas.rechart_tangent(Tangent(p, fld.value(p)), "b")
            assert np.linalg.norm(t.vec - fld.value(t.base)) <= 1e-10


def test_natural_lift_constant_and_linear(cat):
    # constant field: lift (c, 0); linear field Ax: lift (Ax, A g)
    tx = cat.field("plane", "trans_x")
    lift = natural_lift(tx)
    z = pack(np.array([0.3, 0.4]), np.eye(2) + 0.1)
    v, w = unpack(lift.value(Point("cart", z)), 2, 2)
    assert np.allclose(v, [1, 0])
    assert np.allclose(w, 0.0)
    rot = cat.field("plane", "rotation")
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    g = np.eye(2) + np.array([[0.0, 0.2], [-0.1, 0.3]])
    x = np.array([0.5, -0.2])
    v, w = unpack(natural_lift(rot).value(Point("cart", pack(x, g))), 2, 2)
    assert np.allclose(v, A @ x)
    assert np.allclose(w, A @ g)


def test_natural_lift_jacobian_matches_fd(cat, rng):
    fld = cat.field("sphere", "rot_x")
    lift = natural_lift(fld)
    from affinelab import numdiff
    for _ in range(5):
        z = pack(rng.uniform(-1, 1, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        J = lift.jac(Point("a", z))
        J_fd = numdiff.jacobian(lift.chart_field("a").value, z)
        assert np.allclose(J, J_fd, atol=1e-6)


def test_natural_lift_q_related(cat, cfg):
    # q(Fl^lift_t(p)) = Fl^field_t(q(p))
    fld = cat.field("sphere", "rot_x")
    lift = natural_lift(fld)
    z0 = pack(np.array([0.6, 0.1]), np.eye(2))
    for t in (0.4, 1.1):
        end = integrate(lift, Point("a", z0), t, cfg)
        x_l, _ = unpack(end.coords, 2, 2)
        end_base = integrate(fld, Point("a", [0.6, 0.1]), t, cfg)
        assert fld.atlas.gap(Point(end.chart, x_l), end_base) <= 1e-6


def test_killing_residual_flat_affine(cat, rng):
    conn = cat.connection("plane", "flat")
    for name in ("trans_x", "trans_y", "rotation", "shear"):
        fld = cat.field("plane", name)
        for _ in range(10):
            p = Point("cart", rng.uniform(-2, 2, size=2))
            v, w = rng.normal(size=(2, 2))
            assert np.linalg.norm(killing_residual(conn, fld, p, v, w)) <= 1e-12


def test_killing_residual_nonaffine_value(cat):
    # (x1^2, 0): R(e1, e1) = d2 xi (e1, e1) = (2, 0), all B-terms vanish
    conn = cat.connection("plane", "flat")
    fld = cat.field("plane", "nonaffine_sq")
    r = killing_residual(conn, fld, Point("cart", [1.0, 0.5]), [1, 0], [1, 0])
    assert np.allclose(r, [2.0, 0.0], atol=1e-12)


def test_killing_residual_sphere_rotations(cat, rng):
    conn = cat.connection("sphere", "round")
    worst = 0.0
    for name in ("rot_x", "rot_y", "rot_z"):
        fld = cat.field("sphere", name)
        for p in conn.atlas.sample_points("a", 100, rng):
            v, w = rng.normal(size=(2, 2))
            worst = max(worst, float(np.linalg.norm(killing_residual(conn, fld, p, v, w))))
    assert worst <= 1e-8


def test_bracket_basics(cat, rng):
    rot = cat.field("plane", "rotation")
    b = bracket(rot, rot)
    assert np.allclose(b.value(Point("cart", [0.3, 0.8])), 0.0, atol=1e-12)
    tx, ty = cat.field("plane", "trans_x"), cat.field("plane", "trans_y")
    assert np.allclose(bracket(tx, ty).value(Point("cart", [1.0, -1.0])), 0.0, atol=1e-10)


def test_so3_structure_constants(cat, rng):
    # bracket(rot_x, rot_y) = rot_z cyclically, within 1e-8 pointwise
    names = ["rot_x", "rot_y", "rot_z"]
    flds = {n: cat.field("sphere", n) for n in names}
    for i in range(3):
        f1, f2, f3 = names[i], names[(i + 1) % 3], names[(i + 2) % 3]
        br = bracket(flds[f1], flds[f2])
        for _ in range(20):
            p = Point("a", rng.uniform(-1.2, 1.2, size=2))
            assert np.linalg.norm(br.value(p) - flds[f3].value(p)) <= 1e-8, (f1, f2, f3)


def test_hyperbolic_bracket_relation(cat, rng):
    # [trans, dilate] = trans on the half-plane
    tr = cat.field("halfplane", "hyp_trans")
    dil = cat.field("halfplane", "hyp_dilate")
    br = bracket(tr, dil)
    for _ in range(10):
        p = Point("hp", [rng.uniform(-2, 2), rng.uniform(0.5, 2)])
        assert np.linalg.norm(br.value(p) - tr.value(p)) <= 1e-8


def test_lift_homomorphism(cat, rng):
    # natural_lift(bracket(f1, f2)) = bracket(lift f1, lift f2) pointwise
    f1 = cat.field("sphere", "rot_x")
    f2 = cat.field("sphere", "rot_y")
    lhs = natural_lift(bracket(f1, f2))
    rhs = bracket(natural_lift(f1), natural_lift(f2))
    for _ in range(10):
        z = pack(rng.uniform(-1, 1, size=2), np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        p = Point("a", z)
        assert np.linalg.norm(lhs.value(p) - rhs.value(p)) <= 1e-6


def test_rho_invariance_of_lifts(cat, rng):
    # (xi(x), d xi (g g2)) = T rho_{g2} (xi(x), d xi g), exactly in chart algebra
    fld = cat.field("sphere", "rot_y")
    lift = natural_lift(fld)
    for _ in range(10):
        x = rng.uniform(-1, 1, size=2)
        g = np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2))
        g2 = np.eye(2) + rng.uniform(-0.3, 0.3, size=(2, 2))
        v1, w1 = unpack(lift.value(Point("a", pack(x, g @ g2))), 2, 2)
        v0, w0 = unpack(lift.value(Point("a", pack(x, g))), 2, 2)
        assert np.linalg.norm(v1 - v0) <= 1e-12
        assert np.linalg.norm(w1 - w0 @ g2) <= 1e-12


def test_lift_commutation_affine_vs_not(cat):
    cfg = IntegratorConfig()
    flat = cat.connection("plane", "flat")
    frame = Frame("cart", [0.2, 0.1], np.eye(2))
    d_affine, d_bad = lift_commutation_defect(
        flat, [cat.field("plane", "trans_y"), cat.field("plane", "nonaffine_sq")],
        [[1.0, 0.0]] * 2, [frame] * 2, 0.5, 0.5, cfg)
    assert d_affine <= 1e-8
    assert d_bad >= 1e-3


def test_lift_commutation_sphere_rotation(cat):
    cfg = IntegratorConfig()
    conn = cat.connection("sphere", "round")
    frame = Frame("a", [0.4, -0.3], np.eye(2))
    [d] = lift_commutation_defect(conn, [cat.field("sphere", "rot_x")], [[0.3, 0.5]], [frame],
                                  0.5, 0.5, cfg)
    assert d <= 1e-5


@pytest.mark.parametrize("manifold, field, start, lo, hi, s, end", [
    ("sphere", "rot_x", "a", -1.2, 1.2, 2.0, None),
    ("sphere", "rot_y", "a", -1.2, 1.2, -2.0, None),
    ("torus", "t_trans_x", "t00", -0.05, 0.05, 0.5, "t10"),
    ("torus", "t_trans_y", "t11", 0.45, 0.55, 0.5, "t10"),
])
def test_lift_segment_is_the_base_flow_carrying_the_frame(cat, cfg, manifold, field, start,
                                                          lo, hi, s, end):
    # the natural lift's flow sends (x, G) to (Fl(x), dFl(x) G): the base flow
    # with W = G, as `lift_commutation_defect` runs its lift segments
    rng = np.random.default_rng(7)
    fld = cat.field(manifold, field)
    frames = [Frame(start, rng.uniform(lo, hi, 2), np.eye(2) + 0.3 * rng.normal(size=(2, 2)))
              for _ in range(6)]
    lifted, _ = _push([(natural_lift(fld), s)], [fr.packed() for fr in frames], cfg)
    ends, W = _push([(fld, s)], [fr.point() for fr in frames], cfg,
                    w0=np.array([fr.g for fr in frames]))
    assert [p.chart for p in ends] == [p.chart for p in lifted]
    if end is None:  # the sphere rows: some hop from chart a to b
        assert {p.chart for p in ends} == {"a", "b"}
    else:  # every torus row changes boxes
        assert [p.chart for p in ends] == [end] * len(frames)
    for p, e, w in zip(lifted, ends, W):
        gap = np.linalg.norm(pack(e.coords, w) - p.coords)
        assert gap <= 1e-13 * np.linalg.norm(p.coords)


def test_lie_derivative_matches_bracket(cat, cfg, rng):
    # flow-based Lie-derivative quotient vs the in-chart bracket formula
    from affinelab.flows import lie_derivative_defect
    f1 = cat.field("sphere", "rot_x")
    f2 = cat.field("sphere", "rot_y")
    br = bracket(f1, f2)
    for _ in range(5):
        p = Point("a", rng.uniform(-0.8, 0.8, size=2))
        d = lie_derivative_defect(f1, f2, p, cfg)
        assert abs(d - np.linalg.norm(br.value(p))) <= 1e-3


def test_ev_embedding_flat(cat):
    conn = cat.connection("plane", "flat")
    rot = cat.field("plane", "rotation")
    seed = ev_embedding(conn, rot, Point("cart", [0.0, 0.0]))
    assert np.allclose(seed.value, 0.0)
    assert np.allclose(seed.nabla, [[0.0, -1.0], [1.0, 0.0]])


def test_ev_embedding_sphere_rotation_at_origin(cat):
    # rot_z vanishes at the chart-a origin; nabla is antisymmetric nonzero
    conn = cat.connection("sphere", "round")
    seed = ev_embedding(conn, cat.field("sphere", "rot_z"), Point("a", [0.0, 0.0]))
    assert np.allclose(seed.value, 0.0, atol=1e-14)
    anti = 0.5 * (seed.nabla - seed.nabla.T)
    assert np.linalg.norm(anti) > 0.5


def test_gram_rank(cat, rng):
    conn = cat.connection("sphere", "round")
    p = Point("a", [0.3, 0.7])
    seeds = [ev_embedding(conn, cat.field("sphere", n), p) for n in ("rot_x", "rot_y", "rot_z")]
    assert gram_rank(seeds) == 3
    assert gram_rank(seeds + seeds) == 3  # duplicates do not change the rank
    assert gram_rank([seeds[0]]) == 1
    assert gram_rank([]) == 0
    assert gram_rank([KillingSeed(p, np.zeros(2), np.zeros((2, 2)))] * 2) == 0
    with pytest.raises(BasePointMismatch):
        gram_rank([seeds[0], ev_embedding(conn, cat.field("sphere", "rot_x"), Point("a", [0.0, 0.1]))])


def test_extend_killing_flat_closed_form(cat, cfg):
    # flat Killing field x -> Ax + b; path (lam, t) ends at t*lam with value A(t lam) + b
    conn = cat.connection("plane", "flat")
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    b = np.array([0.5, -0.2])
    seed = KillingSeed(Point("cart", [0.0, 0.0]), b, A)
    lam = np.array([0.8, 0.3])
    t = 1.3
    out = extend_killing(conn, seed, HorizontalPath.single(lam, t), cfg)
    assert np.linalg.norm(out.base.coords - t * lam) <= 1e-9
    assert np.linalg.norm(out.vec - (A @ (t * lam) + b)) <= 1e-9


def test_extend_killing_seed_chart_mismatch(cat, cfg):
    from affinelab.errors import SeedChartMismatch
    conn = cat.connection("sphere", "round")
    seed = KillingSeed(Point("nope", [0.0, 0.0]), [1.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(SeedChartMismatch):
        extend_killing(conn, seed, HorizontalPath.single([1.0, 0.0], 0.1), cfg)


def test_extend_killing_unknown_path_move(cat, cfg):
    conn = cat.connection("sphere", "round")
    seed = KillingSeed(Point("a", [0.2, 0.1]), [1.0, 0.0], np.zeros((2, 2)))
    with pytest.raises(ValueError, match="unknown path move 'jump'"):
        extend_killing(conn, seed, HorizontalPath((("jump", [1.0, 0.0]),)), cfg)


def test_extend_killing_zero_seed(cat, cfg):
    conn = cat.connection("sphere", "round")
    seed = KillingSeed(Point("a", [0.2, 0.1]), [0.0, 0.0], np.zeros((2, 2)))
    out = extend_killing(conn, seed, HorizontalPath.single([0.5, 0.1], 1.0), cfg)
    assert np.linalg.norm(out.vec) <= 1e-12


def test_extend_killing_recovers_sphere_rotation(cat, cfg):
    conn = cat.connection("sphere", "round")
    fld = cat.field("sphere", "rot_x")
    x = Point("a", [0.3, 0.2])
    seed = ev_embedding(conn, fld, x)
    y = Point("a", [0.6, -0.3])
    path = path_to(conn, x, y, cfg)
    out = extend_killing(conn, seed, path, cfg)
    assert conn.atlas.gap(out.base, y) <= 1e-8
    assert np.linalg.norm(out.vec - fld.value(out.base)) <= 1e-5


def test_extend_killing_with_rho_move(cat, cfg):
    # group moves reshuffle the frame but not the recovered field value
    conn = cat.connection("sphere", "round")
    fld = cat.field("sphere", "rot_y")
    x = Point("a", [0.1, 0.4])
    seed = ev_embedding(conn, fld, x)
    g2 = np.array([[1.2, 0.3], [-0.1, 0.9]])
    path = HorizontalPath((("flow", np.array([0.4, 0.1]), 0.7),
                           ("rho", g2),
                           ("flow", np.array([-0.2, 0.5]), 0.5)))
    out = extend_killing(conn, seed, path, cfg)
    assert np.linalg.norm(out.vec - fld.value(out.base)) <= 1e-5


@pytest.mark.parametrize("first", [True, False])
def test_extend_killing_rejects_a_singular_rho_move(cat, cfg, first):
    # last, a singular move came back as a value with no error; first, as
    # "LeftAtlas: start ... outside its chart domain" from the next flow
    conn = cat.connection("sphere", "round")
    seed = ev_embedding(conn, cat.field("sphere", "rot_y"), Point("a", [0.1, 0.4]))
    flow, move = ("flow", np.array([0.4, 0.1]), 0.3), ("rho", np.zeros((2, 2)))
    path = HorizontalPath((move, flow) if first else (flow, move))
    with pytest.raises(SingularGroupElement):
        extend_killing(conn, seed, path, cfg)


def test_extension_concatenation_consistency(cat, cfg):
    conn = cat.connection("sphere", "round")
    fld = cat.field("sphere", "rot_z")
    x = Point("a", [0.25, -0.15])
    seed = ev_embedding(conn, fld, x)
    p1 = HorizontalPath.single([0.5, 0.2], 0.6)
    p2 = HorizontalPath.single([-0.1, 0.7], 0.8)
    via = extend_killing(conn, seed, p1.concat(p2), cfg)
    # two-leg transport: re-seed at the midpoint from the true field
    assert np.linalg.norm(via.vec - fld.value(via.base)) <= 1e-5


def test_extension_linearity(cat, cfg):
    conn = cat.connection("sphere", "round")
    x = Point("a", [0.3, 0.2])
    s1 = ev_embedding(conn, cat.field("sphere", "rot_x"), x)
    s2 = ev_embedding(conn, cat.field("sphere", "rot_y"), x)
    a = 0.7
    combo = KillingSeed(x, a * s1.value + s2.value, a * s1.nabla + s2.nabla)
    path = HorizontalPath.single([0.4, -0.3], 1.0)
    out = extend_killing(conn, combo, path, cfg)
    o1 = extend_killing(conn, s1, path, cfg)
    o2 = extend_killing(conn, s2, path, cfg)
    assert np.linalg.norm(out.vec - (a * o1.vec + o2.vec)) <= 1e-8


def test_soldering_preserved_by_lift_flows(cat, cfg):
    # theta is invariant under natural-lift flows even for non-affine fields
    from affinelab.flows import variational_flow
    from affinelab.frame_bundle import Frame, frame_from_packed, frame_tangent_from_packed, soldering
    fld = cat.field("plane", "nonaffine_sq")
    lift = natural_lift(fld)
    z0 = Frame("cart", [0.4, 0.2], np.eye(2) + 0.1 * np.ones((2, 2))).packed()
    ft0 = np.concatenate([np.array([0.3, -0.5]), (0.2 * np.eye(2)).ravel()])
    end, ftT = variational_flow(lift, z0, ft0, 0.5, cfg)
    f0 = frame_from_packed(z0, 2)
    fT = frame_from_packed(end, 2)
    th0 = soldering(f0, frame_tangent_from_packed(ft0, 2))
    thT = soldering(fT, frame_tangent_from_packed(ftT, 2))
    assert np.linalg.norm(thT - th0) <= 1e-6
