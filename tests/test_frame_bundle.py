import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinelab import numdiff
from affinelab.atlas import Point
from affinelab.bundles import pack, unpack
from affinelab.catalog import default_catalog
from affinelab.errors import SingularFrame, SingularGroupElement
from affinelab.flows import parameter_flow_derivative_defect
from affinelab.frame_bundle import (Frame, FrameTangent, KappaValue, connection_form,
                                    horizontal_flow, horizontal_projection_defect, kappa,
                                    kappa_inverse, kappa_inverse_family, kappa_inverse_field,
                                    kappa_matrix, rho, soldering, standard_horizontal)


def random_frame(atlas, cid, rng, spread=0.3):
    x = rng.uniform(-1.0, 1.0, size=atlas.dim)
    g = np.eye(atlas.dim) + rng.uniform(-spread, spread, size=(atlas.dim, atlas.dim))
    if abs(np.linalg.det(g)) < 0.1:
        g += 0.5 * np.eye(atlas.dim)
    return Frame(cid, x, g)


def test_a_frame_keeps_its_own_base_point_and_matrix():
    # a Frame copies the caller's arrays, so later writes to them leave the
    # frame unchanged
    x, g = np.array([0.1, 0.2]), np.eye(2)
    f = Frame("a", x, g)
    x[0], g[0, 1] = 9.0, 9.0
    assert f.x.tolist() == [0.1, 0.2]
    assert f.g.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_rho_identity_associativity(cat, rng):
    f = random_frame(cat.atlas("sphere"), "a", rng)
    assert np.allclose(rho(f, np.eye(2)).g, f.g)
    a = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    b = rng.normal(size=(2, 2)) + 2 * np.eye(2)
    lhs = rho(rho(f, a), b)
    rhs = rho(f, a @ b)
    assert np.allclose(lhs.g, rhs.g)
    assert np.allclose(lhs.x, f.x)  # base point unchanged
    with pytest.raises(SingularGroupElement):
        rho(f, np.zeros((2, 2)))


def test_soldering(cat, rng):
    f = Frame("a", [0.1, 0.2], np.eye(2))
    v = rng.normal(size=2)
    assert np.allclose(soldering(f, FrameTangent(v, np.zeros((2, 2)))), v)
    # vertical tangents have zero soldering
    assert np.allclose(soldering(f, FrameTangent([0, 0], rng.normal(size=(2, 2)))), 0.0)
    f2 = Frame("a", [0.1, 0.2], 2 * np.eye(2))
    assert np.allclose(soldering(f2, FrameTangent([2, 0], np.zeros((2, 2)))), [1, 0])
    with pytest.raises(SingularFrame):
        soldering(Frame("a", [0, 0], np.zeros((2, 2))), FrameTangent([1, 0], np.zeros((2, 2))))


def test_connection_form_flat_identity(cat, rng):
    conn = cat.connection("plane", "flat")
    f = Frame("cart", [0.5, -0.5], np.eye(2))
    w = rng.normal(size=(2, 2))
    assert np.allclose(connection_form(conn, f, FrameTangent(rng.normal(size=2), w)), w)


def test_connection_form_matches_direct_formula(cat, rng):
    # oracle: assemble g^{-1}(w(e) - B(g e, v)) from eval_B column by column
    conn = cat.connection("sphere", "round")
    for _ in range(20):
        f = random_frame(conn.atlas, "a", rng)
        v = rng.normal(size=2)
        w = rng.normal(size=(2, 2))
        om = connection_form(conn, f, FrameTangent(v, w))
        ginv = np.linalg.inv(f.g)
        expected = np.empty((2, 2))
        for m, e in enumerate(np.eye(2)):
            expected[:, m] = ginv @ (w @ e - conn.eval_B(f.point(), f.g @ e, v))
        assert np.allclose(om, expected, atol=1e-12)


def test_kappa_roundtrip(cat, rng):
    conn = cat.connection("sphere", "round")
    for _ in range(25):
        f = random_frame(conn.atlas, "a", rng)
        ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        kv = kappa(conn, f, ft)
        back = kappa_inverse(conn, f, kv)
        assert np.linalg.norm(back.v - ft.v) + np.linalg.norm(back.w - ft.w) <= 1e-12


def test_kappa_inverse_vertical_flat(cat, rng):
    conn = cat.connection("plane", "flat")
    f = Frame("cart", [0.0, 0.0], np.eye(2))
    A = rng.normal(size=(2, 2))
    ft = kappa_inverse(conn, f, KappaValue([0, 0], A))
    assert np.allclose(ft.v, 0.0)
    assert np.allclose(ft.w, A)


def test_kappa_matrix_condition_and_split(cat, rng):
    conn = cat.connection("sphere", "round")
    for _ in range(10):
        f = random_frame(conn.atlas, "a", rng)
        K = kappa_matrix(conn, f)
        assert np.isfinite(np.linalg.cond(K))
        ft = FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        kv = kappa(conn, f, ft)
        horiz = kappa_inverse(conn, f, KappaValue(kv.theta, np.zeros((2, 2))))
        vert = kappa_inverse(conn, f, KappaValue([0, 0], kv.omega))
        assert np.linalg.norm(horiz.v + vert.v - ft.v) <= 1e-10
        assert np.linalg.norm(horiz.w + vert.w - ft.w) <= 1e-10


def test_standard_horizontal_values(cat, rng):
    flat = cat.connection("plane", "flat")
    H = standard_horizontal(flat, [0.7, -0.2])
    z = pack(np.array([0.3, 0.4]), np.eye(2))
    val = H.value(Point("cart", z))
    v, w = unpack(val, 2, 2)
    assert np.allclose(v, [0.7, -0.2])
    assert np.allclose(w, 0.0)
    # kappa(H_lambda) = (lambda, 0) at random sphere frames
    conn = cat.connection("sphere", "round")
    lam = np.array([0.4, 0.9])
    Hs = standard_horizontal(conn, lam)
    for _ in range(100):
        f = random_frame(conn.atlas, "a", rng)
        v, w = unpack(Hs.value(f.packed()), 2, 2)
        kv = kappa(conn, f, FrameTangent(v, w))
        assert np.linalg.norm(kv.theta - lam) <= 1e-12
        assert np.linalg.norm(kv.omega) <= 1e-12


def test_standard_horizontal_rho_equivariance(cat, rng):
    # H_{g2^{-1} lam}(p . g2) = T rho_{g2} H_lam(p): second block right-multiplied
    conn = cat.connection("sphere", "round")
    lam = rng.normal(size=2)
    for _ in range(10):
        f = random_frame(conn.atlas, "a", rng)
        g2 = np.eye(2) + rng.uniform(-0.3, 0.3, size=(2, 2))
        H1 = standard_horizontal(conn, lam)
        v1, w1 = unpack(H1.value(f.packed()), 2, 2)
        H2 = standard_horizontal(conn, np.linalg.solve(g2, lam))
        v2, w2 = unpack(H2.value(rho(f, g2).packed()), 2, 2)
        assert np.linalg.norm(v2 - v1) <= 1e-12
        assert np.linalg.norm(w2 - w1 @ g2) <= 1e-12


CONNECTIONS = [(m, c) for m in default_catalog().manifold_names()
               for c in default_catalog().connection_names(m)]


def _sample_frames(atlas, cid, count, rng):
    n = atlas.dim
    return [Frame(cid, p.coords, np.eye(n) + rng.uniform(-0.2, 0.2, size=(n, n)))
            for p in atlas.sample_points(cid, count, rng)]


@pytest.mark.parametrize("manifold,connection", CONNECTIONS,
                         ids=[f"{m}-{c}" for m, c in CONNECTIONS])
def test_kappa_inverse_field_jacobian_matches_fd(cat, rng, manifold, connection):
    # the closed-form bundle Jacobian against plain finite differences
    conn = cat.connection(manifold, connection)
    n = conn.atlas.dim
    fld = kappa_inverse_field(conn, rng.normal(size=n), rng.normal(size=(n, n)))
    for cid in conn.atlas.charts:
        if not conn.has_chart(cid):
            continue
        for f in _sample_frames(conn.atlas, cid, 3, rng):
            z = f.packed()
            J_fd = numdiff.jacobian(fld.chart_field(cid).value, z.coords)
            assert np.allclose(fld.jac(z), J_fd, atol=1e-6)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(CONNECTIONS), seed=st.integers(0, 2**32 - 1))
def test_kappa_inverse_roundtrip_and_field_agree(case, seed):
    # kappa(kappa^{-1}(lam, A)) = (lam, A), and the kappa^{-1} field's value
    # is the packed kappa_inverse, at random frames of every catalog connection
    cat = default_catalog()
    conn = cat.connection(*case)
    n = conn.atlas.dim
    rng = np.random.default_rng(seed)
    lam, A = rng.normal(size=n), rng.normal(size=(n, n))
    fld = kappa_inverse_field(conn, lam, A)
    for cid in conn.atlas.charts:
        if not conn.has_chart(cid):
            continue
        (f,) = _sample_frames(conn.atlas, cid, 1, rng)
        ft = kappa_inverse(conn, f, KappaValue(lam, A))
        kv = kappa(conn, f, ft)
        scale = 1.0 + np.linalg.norm(ft.packed())
        assert np.linalg.norm(kv.theta - lam) + np.linalg.norm(kv.omega - A) <= 1e-12 * scale
        np.testing.assert_array_equal(fld.value(f.packed()), ft.packed())


def test_kappa_inverse_family_is_built_once_per_connection(cat):
    conn = cat.connection("sphere", "round")
    assert kappa_inverse_family(conn) is kappa_inverse_family(conn)


def test_sphere_kappa_inverse_members_share_one_callable_across_charts(cat):
    # one member per distinct family callable: rows of charts a and b step as one group
    fld = kappa_inverse_field(cat.connection("sphere", "round"), [0.3, -0.2])
    assert fld.chart_field("a").value is fld.chart_field("b").value


def test_horizontal_flow_projects_to_great_circle(cat, cfg):
    conn = cat.connection("sphere", "round")
    frame = Frame("a", [1.0, 0.0], np.eye(2))
    lam = np.array([0.0, 1.0])
    rec = []
    horizontal_flow(conn, lam, frame, 2.0, cfg, record=rec)
    for t, cid, z in [(r[0], r[1], r[2]) for r in rec[:: len(rec) // 10]]:
        x, _ = unpack(z, 2, 2)
        assert cid == "a"
        assert np.linalg.norm(x - np.array([np.cos(t), np.sin(t)])) <= 1e-5


def test_horizontal_projection_defect(cat, cfg):
    flat = cat.connection("plane", "flat")
    d = horizontal_projection_defect(flat, [0.5, 0.2], Frame("cart", [0.0, 0.0], np.eye(2)),
                                     (0.0, 1.0), cfg)
    assert d <= 1e-10
    conn = cat.connection("sphere", "round")
    d0 = horizontal_projection_defect(conn, [0.0, 0.0], Frame("a", [0.3, 0.1], np.eye(2)),
                                      (0.0, 1.0), cfg)
    assert d0 <= 1e-14
    d1 = horizontal_projection_defect(conn, [0.0, 1.0], Frame("a", [1.0, 0.0], np.eye(2)),
                                      (0.0, 2 * np.pi), cfg)
    assert d1 <= 1e-4


def test_horizontal_projection_span_starts_at_0(cat, cfg):
    flat = cat.connection("plane", "flat")
    with pytest.raises(ValueError, match="t_span must start at 0"):
        horizontal_projection_defect(flat, [0.5, 0.2], Frame("cart", [0.0, 0.0], np.eye(2)),
                                     (0.5, 1.0), cfg)


def test_horizontal_projection_across_chart_hand_offs(cat):
    # the meridian through chart a's (1, 0) passes the north pole: the frame
    # flow hands off to chart b and back, so the defect's skip of
    # hop-adjacent rows runs
    from affinelab.flows import IntegratorConfig
    cfg = IntegratorConfig(step=5e-3)
    conn = cat.connection("sphere", "round")
    frame = Frame("a", [1.0, 0.0], np.eye(2))
    rec = []
    horizontal_flow(conn, [1.0, 0.0], frame, 2 * np.pi, cfg, record=rec)
    charts = [r[1] for r in rec]
    assert sum(c != d for c, d in zip(charts, charts[1:])) == 2
    d = horizontal_projection_defect(conn, [1.0, 0.0], frame, (0.0, 2 * np.pi), cfg)
    assert d <= 1e-4


def test_completeness_link(cat):
    # horizontal flows reach the horizon whenever geodesics do (sphere)
    from affinelab.flows import IntegratorConfig
    cfg = IntegratorConfig(step=0.02)
    conn = cat.connection("sphere", "round")
    frame = Frame("a", [0.5, 0.1], np.eye(2) * 1.1)
    end = horizontal_flow(conn, [1.0, 0.3], frame, 20.0, cfg)
    assert abs(np.linalg.det(end.g)) > 1e-12


def test_parameter_flow_defect_bundles(cat):
    from affinelab.flows import IntegratorConfig
    cfg = IntegratorConfig(step=2e-3)
    flat = cat.connection("plane", "flat")
    p = Frame("cart", [0.2, -0.1], np.eye(2)).packed()
    d = parameter_flow_derivative_defect(kappa_inverse_family(flat), p, cfg)
    assert d <= 1e-5

    conn = cat.connection("sphere", "round")
    q = Frame("a", [0.3, 0.2], np.eye(2)).packed()
    d2 = parameter_flow_derivative_defect(kappa_inverse_family(conn), q, cfg)
    assert d2 <= 1e-4
