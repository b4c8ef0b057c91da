import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from affinelab import numdiff
from affinelab.atlas import Point, Tangent
from affinelab.catalog import default_catalog
from affinelab.connection import (ConnChart, ConnectionField, SecondOrderTangent,
                                  change_of_variable_residual, connector_apply,
                                  covariant_derivative, from_christoffel)
from affinelab.errors import ChartMissing, NotInOverlap
from affinelab.harness import _CHECKS


def test_flat_plane_B_is_zero(cat, rng):
    conn = cat.connection("plane", "flat")
    for _ in range(10):
        p = Point("cart", rng.normal(size=2))
        assert np.allclose(conn.eval_B(p, rng.normal(size=2), rng.normal(size=2)), 0.0)


def test_colat_chart_matches_christoffels(cat, rng):
    # oracle: Levi-Civita of ds^2 = dtheta^2 + sin^2(theta) dphi^2, computed
    # by hand before the build: Gamma^th_{ff} = -sin th cos th, Gamma^f_{th f} = cot th
    conn = cat.connection("sphere_colat", "round")
    for p in cat.atlas("sphere_colat").sample_points("colat", 20, rng):
        th = p.coords[0]
        T = conn.tensor(p)  # B[i, j, k] = -Gamma^i_{kj}
        assert np.allclose(T[0, 1, 1], np.sin(th) * np.cos(th), atol=1e-12)
        assert np.allclose(T[1, 0, 1], -1.0 / np.tan(th), atol=1e-12)
        assert np.allclose(T[1, 1, 0], -1.0 / np.tan(th), atol=1e-12)
        assert np.allclose(T[0, 0, 0], 0.0)


def test_bilinearity_probe(cat, rng):
    conn = cat.connection("sphere", "round")
    for p in cat.atlas("sphere").sample_points("a", 25, rng):
        v, w, u = rng.normal(size=(3, 2))
        a = rng.normal()
        lhs = conn.eval_B(p, a * v + w, u)
        rhs = a * conn.eval_B(p, v, u) + conn.eval_B(p, w, u)
        assert np.linalg.norm(lhs - rhs) <= 1e-10
        assert np.allclose(conn.eval_B(p, 2 * v, w), 2 * conn.eval_B(p, v, w), atol=1e-12)


def test_chart_missing(cat):
    conn = cat.connection("plane", "flat")
    with pytest.raises(ChartMissing):
        conn.eval_B(Point("nonexistent", [0.0, 0.0]), [1, 0], [0, 1])
    with pytest.raises(ValueError, match="at least one chart"):
        ConnectionField(conn.atlas, "nowhere", {})


def test_covariant_derivative_flat(cat):
    conn = cat.connection("plane", "flat")
    ident = cat.field("plane", "trans_x")  # placeholder to get atlas
    # eta(x) = x in cart coordinates
    from affinelab.catalog import quad_chart
    from affinelab.flows import VectorField
    eta = VectorField(conn.atlas, "id", {"cart": quad_chart([0, 0], np.eye(2), None)})
    out = covariant_derivative(conn, eta, Tangent(Point("cart", [0.3, -0.7]), [1.0, 0.0]))
    assert np.allclose(out.vec, [1.0, 0.0], atol=1e-14)
    const = cat.field("plane", "trans_y")
    out2 = covariant_derivative(conn, const, Tangent(Point("cart", [0.3, -0.7]), [2.0, 1.0]))
    assert np.allclose(out2.vec, 0.0, atol=1e-14)


def test_covariant_derivative_colat_frame_fields(cat, rng):
    # nabla_{d_theta} d_phi = (0, cot theta) in the colatitude chart
    conn = cat.connection("sphere_colat", "round")
    dphi = cat.field("sphere_colat", "d_phi")
    for p in cat.atlas("sphere_colat").sample_points("colat", 10, rng):
        th = p.coords[0]
        out = covariant_derivative(conn, dphi, Tangent(p, [1.0, 0.0]))
        assert np.allclose(out.vec, [0.0, 1.0 / np.tan(th)], atol=1e-10)


def test_covariant_derivative_depends_on_v_only_linearly(cat, rng):
    conn = cat.connection("sphere", "round")
    fld = cat.field("sphere", "rot_x")
    p = Point("a", [0.4, -0.2])
    v, w = rng.normal(size=(2, 2))
    a = rng.normal()
    out = covariant_derivative(conn, fld, Tangent(p, a * v + w)).vec
    expected = a * covariant_derivative(conn, fld, Tangent(p, v)).vec \
        + covariant_derivative(conn, fld, Tangent(p, w)).vec
    assert np.linalg.norm(out - expected) <= 1e-12


def test_derivation_property(cat, rng):
    # nabla_v(f eta) = (df v) eta + f nabla_v eta for f(x) = x0^2 - 2 x1
    conn = cat.connection("sphere", "round")
    eta = cat.field("sphere", "rot_y")
    from affinelab.flows import ChartField, VectorField

    def f(x):  # a ChartField broadcasts over (..., n) rows
        return x[..., 0] ** 2 - 2.0 * x[..., 1]

    def df(x):
        return np.array([2.0 * x[0], -2.0])

    feta = VectorField(conn.atlas, "f*eta",
                       {"a": ChartField(value=lambda x: f(x)[..., None] * eta.chart_field("a").value(x))})
    for p in conn.atlas.sample_points("a", 20, rng):
        v = rng.normal(size=2)
        lhs = covariant_derivative(conn, feta, Tangent(p, v)).vec
        rhs = (df(p.coords) @ v) * eta.value(p) + f(p.coords) * covariant_derivative(conn, eta, Tangent(p, v)).vec
        assert np.linalg.norm(lhs - rhs) <= 1e-6


def test_connector_horizontal_and_flat(cat, rng):
    conn = cat.connection("sphere", "round")
    for p in cat.atlas("sphere").sample_points("a", 10, rng):
        v, w = rng.normal(size=(2, 2))
        z = conn.eval_B(p, v, w)
        out = connector_apply(conn, SecondOrderTangent("a", p.coords, v, w, z))
        assert np.allclose(out.vec, 0.0, atol=1e-14)
    flat = cat.connection("plane", "flat")
    z = np.array([0.3, 0.9])
    out = connector_apply(flat, SecondOrderTangent("cart", [0.1, 0.2], [1, 0], [0, 1], z))
    assert np.allclose(out.vec, z)


def test_connector_covariant_consistency(cat, rng):
    # nabla_v eta = K(T eta (v)) with T eta assembled by finite differences
    conn = cat.connection("sphere", "round")
    eta = cat.field("sphere", "rot_x")
    for p in cat.atlas("sphere").sample_points("a", 15, rng):
        v = rng.normal(size=2)
        J = numdiff.jacobian(eta.chart_field("a").value, p.coords)
        sot = SecondOrderTangent("a", p.coords, eta.value(p), v, J @ v)
        got = connector_apply(conn, sot).vec
        expected = covariant_derivative(conn, eta, Tangent(p, v)).vec
        assert np.linalg.norm(got - expected) <= 1e-6


def test_change_of_variable_single_chart(cat):
    conn = cat.connection("halfplane", "hyperbolic")
    r = change_of_variable_residual(conn, Point("hp", [0.3, 1.2]), [1, 0], [0, 1], "hp")
    assert r == 0.0


def test_change_of_variable_polar_pair(cat, rng):
    conn = cat.connection("plane", "flat")
    atlas = conn.atlas
    worst = 0.0
    for p in atlas.overlap_samples("cart", "polar", 100, rng):
        v, w = rng.normal(size=(2, 2))
        worst = max(worst, change_of_variable_residual(conn, p, v, w, "polar"))
    assert worst <= 1e-6


def test_change_of_variable_sphere_pair(cat, rng):
    conn = cat.connection("sphere", "round")
    atlas = conn.atlas
    worst = 0.0
    for p in atlas.overlap_samples("a", "b", 100, rng):
        v, w = rng.normal(size=(2, 2))
        worst = max(worst, change_of_variable_residual(conn, p, v, w, "b"))
    assert worst <= 1e-6


def test_from_christoffel_zero_and_swap(cat, rng):
    atlas = cat.atlas("r3")
    zero = from_christoffel(atlas, {"cart": lambda x: np.zeros((3, 3, 3))})
    p = Point("cart", [0.1, 0.2, 0.3])
    assert np.allclose(zero.eval_B(p, [1, 2, 3], [4, 5, 6]), 0.0)

    G = np.zeros((2, 2, 2))
    G[0, 0, 1] = 2.0  # asymmetric Gamma to pin the argument swap
    conn = from_christoffel(cat.atlas("plane"), {"cart": lambda x: G})
    v = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    # B(v, w) = -Gamma(w, v): Gamma(w, v)_0 = G[0,0,1] w_0 v_1 = 0 here
    assert np.allclose(conn.eval_B(Point("cart", [0, 0]), v, w), [0.0, 0.0])
    # B(w, v) = -Gamma(v, w): Gamma(v, w)_0 = 2 * v_0 * w_1 = 2
    assert np.allclose(conn.eval_B(Point("cart", [0, 0]), w, v), [-2.0, 0.0])
    # symmetric Gamma: B(v, w) = -Gamma(v, w)
    sym = from_christoffel(cat.atlas("plane"), {"cart": lambda x: G + np.swapaxes(G, 1, 2)})
    b1 = sym.eval_B(Point("cart", [0, 0]), v, w)
    b2 = sym.eval_B(Point("cart", [0, 0]), w, v)
    assert np.allclose(b1, b2)


def test_change_of_variable_all_catalog_overlaps(cat, rng):
    # every declared overlap of every catalog connection satisfies the
    # change-of-variable formula
    for mname in cat.manifold_names():
        for cname in cat.connection_names(mname):
            conn = cat.connection(mname, cname)
            atlas = conn.atlas
            for cid, tid in atlas.overlap_pairs():
                if not (conn.has_chart(cid) and conn.has_chart(tid)):
                    continue
                worst = 0.0
                for p in atlas.overlap_samples(cid, tid, 15, rng):
                    v, w = rng.normal(size=(2, atlas.dim))
                    worst = max(worst, change_of_variable_residual(conn, p, v, w, tid))
                assert worst <= 1e-6, (mname, cname, cid, tid, worst)


# every chart of every catalog connection
CONNECTION_CHARTS = [(m, c, cid) for m in default_catalog().manifold_names()
                     for c in default_catalog().connection_names(m)
                     for cid in default_catalog().atlas(m).charts
                     if default_catalog().connection(m, c).has_chart(cid)]


@pytest.mark.parametrize("manifold, name, cid", CONNECTION_CHARTS,
                         ids=["/".join(c) for c in CONNECTION_CHARTS])
def test_dB_fd_matches_analytic(cat, rng, manifold, name, cid):
    atlas = cat.atlas(manifold)
    cc = cat.connection(manifold, name)._chart(cid)
    analytic = cc.d_dir
    # the same chart without d_dir, so it is filled by finite differences
    conn = ConnectionField(atlas, f"{name}_fd",
                           {cid: ConnChart(tensor=cc.tensor, bilinear=cc.bilinear)})
    for p in atlas.sample_points(cid, 10, rng):
        u = rng.normal(size=atlas.dim)
        fd = conn.d_tensor_dir(p, u)
        assert np.allclose(fd, analytic(p.coords, u), atol=1e-6)


@pytest.mark.parametrize("manifold, name, cid", CONNECTION_CHARTS,
                         ids=["/".join(c) for c in CONNECTION_CHARTS])
def test_bilinear_is_the_tensor_contracted(cat, rng, manifold, name, cid):
    # B(x, v, w) = T(x)[i, j, k] v_j w_k on a block of rows, with v and w apart
    cc = cat.connection(manifold, name)._chart(cid)
    xs = np.array([p.coords for p in cat.atlas(manifold).sample_points(cid, 20, rng)])
    v, w = rng.normal(size=(2,) + xs.shape)
    B = cc.bilinear(xs, v, w)
    ref = np.einsum("...ijk,...j,...k->...i", cc.tensor(xs), v, w)
    assert np.all(np.linalg.norm(B - ref, axis=-1) <= 1e-14 * np.linalg.norm(ref, axis=-1))


# every connection of every catalog atlas with more than one chart
MULTI_CHART_CONNECTIONS = [(m, c) for m in default_catalog().manifold_names()
                           if len(default_catalog().atlas(m).charts) > 1
                           for c in default_catalog().connection_names(m)]
# the harness's own bound on the change-of-variable residual
CHANGE_OF_VARIABLE_TOL = _CHECKS["change_of_variable"][0]["tol"]


@pytest.mark.parametrize("manifold, connection", MULTI_CHART_CONNECTIONS)
@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 3), u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       vw=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
@example(which=0, u=(0.85, 0.85), vw=[1.0, 0.0, 0.0, 1.0])  # in an overlap on each atlas
def test_change_of_variable_residual_vanishes(cat, manifold, connection, which, u, vw):
    # on every overlap the two chart forms of B agree:
    # B2_{h(x)}(dh v, dh w) = d2h(v, w) + dh B1_x(v, w)
    conn = cat.connection(manifold, connection)
    cid = sorted(conn.atlas.charts)[which % len(conn.atlas.charts)]
    chart = conn.atlas.chart(cid)
    x = chart.sample_lo + np.array(u) * (chart.sample_hi - chart.sample_lo)
    v, w = np.reshape(vw, (2, 2))
    for tid in chart.transitions:
        try:
            residual = change_of_variable_residual(conn, Point(cid, x), v, w, tid)
        except NotInOverlap:
            continue
        assert residual <= CHANGE_OF_VARIABLE_TOL
