"""The geodesic spray's closed-form Jacobian

    [[0, I], [d_x B(v, v), B(., v) + B(v, .)]]

against central differences of the spray on every catalog connection
chart, and the d exp it gives a shot that changes chart against central
differences of `exp_map`.  The spray's `value` is a chart's fused
`ConnChart.spray` where it has one, which must give the bits of the
derived (v, B_x(v, v)), and the derived one elsewhere.  Likewise the
kappa^{-1} family's `value` is a chart's unrolled `ConnChart.frame`,
which must agree with the tensor contraction at round-off and give a row
the same bits alone as in a block."""
import numpy as np
import pytest

import oracles
from affinelab import numdiff
from affinelab.atlas import Point, Tangent
from affinelab.bundles import pack
from affinelab.catalog import default_catalog
from affinelab.flows import IntegratorConfig, variational_flow
from affinelab.frame_bundle import kappa_inverse_family
from affinelab.geodesics import exp_map, geodesic_field

CAT = default_catalog()
CHARTS = [(m, c, cid) for m in CAT.manifold_names() for c in CAT.connection_names(m)
          for cid in CAT.atlas(m).charts if CAT.connection(m, c).has_chart(cid)]


@pytest.mark.parametrize("manifold, name, cid", CHARTS, ids=["/".join(c) for c in CHARTS])
def test_spray_jacobian_matches_central_differences(manifold, name, cid, rng):
    conn = CAT.connection(manifold, name)
    cf = geodesic_field(conn).chart_field(cid)
    xs = np.array([p.coords for p in conn.atlas.sample_points(cid, 6, rng)])
    zs = np.concatenate([xs, rng.normal(size=xs.shape)], axis=-1)
    for z in zs:
        d, fd = cf.d(z), numdiff.jacobian(cf.value, z)
        assert np.linalg.norm(d - fd) <= 1e-8 * np.linalg.norm(fd)
    # a flush calls `d` on (rows, stages, 2n) blocks
    D = np.array([cf.d(z) for z in zs])
    assert np.array_equal(cf.d(zs.reshape(2, 3, -1)), D.reshape(2, 3, *D.shape[1:]))


def test_spray_jacobian_is_shared_by_charts_that_share_the_tensor():
    spray = geodesic_field(CAT.connection("sphere", "round"))
    assert spray.chart_field("a").d is spray.chart_field("b").d
    # and one fused `value`, so rows of both charts step as one group
    assert spray.chart_field("a").value is spray.chart_field("b").value


def _derived(cc, z):
    """(v, B_x(v, v)) from the chart's `bilinear`, as a spray without `spray` gives it."""
    n = z.shape[-1] // 2
    x, v = z[..., :n], z[..., n:]
    return np.concatenate([v, cc.bilinear(x, v, v)], axis=-1)


def _edge_points(manifold, rng, count):
    """Points near the edge of the chart's domain: radius just inside 2 on the
    sphere's disks, y just above 1e-8 or near 1e6 (with |x| near 1e6) on the
    half-plane."""
    if manifold == "sphere":
        u = rng.normal(size=(count, 2))
        return u / np.linalg.norm(u, axis=-1, keepdims=True) * rng.uniform(1.99, 2.0, (count, 1))
    x = rng.uniform(-1.0, 1.0, count) * 10.0 ** rng.uniform(0, 5.9, count)
    y = np.where(rng.random(count) < 0.5, 1e-8 * rng.uniform(1.01, 10.0, count),
                 rng.uniform(1e5, 9.9e5, count))
    return np.stack([x, y], axis=-1)


FUSED = [("sphere", "round", "a"), ("sphere", "round", "b"), ("halfplane", "hyperbolic", "hp")]


@pytest.mark.parametrize("manifold, name, cid", FUSED, ids=["/".join(c) for c in FUSED])
def test_fused_spray_gives_the_bits_of_the_derived_spray(manifold, name, cid, rng):
    conn = CAT.connection(manifold, name)
    cc = conn._chart(cid)
    assert cc.spray is not None and geodesic_field(conn).chart_field(cid).value is cc.spray
    xs = np.concatenate([[p.coords for p in conn.atlas.sample_points(cid, 8, rng)],
                         _edge_points(manifold, rng, 8)])
    assert conn.atlas.chart(cid).contains_fn(xs, 0.0).all()
    # velocities of mixed scale, 1e-6 to 1e6 per component
    vs = rng.normal(size=xs.shape) * 10.0 ** rng.uniform(-6, 6, xs.shape)
    zs = np.concatenate([xs, vs], axis=-1)
    got, want = cc.spray(zs), _derived(cc, zs)  # a block of 16
    assert got.shape == want.shape == (16, 4) and got.tobytes() == want.tobytes()
    for z in zs:  # one point as a 1-D row, on numpy scalars
        got, want = cc.spray(z), _derived(cc, z)
        assert got.shape == want.shape == (4,) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("manifold, name, cid", FUSED, ids=["/".join(c) for c in FUSED])
def test_frame_callable_matches_the_tensor_contraction_on_every_row_shape(manifold, name,
                                                                          cid, rng):
    conn = CAT.connection(manifold, name)
    cc = conn._chart(cid)
    assert cc.frame is not None and kappa_inverse_family(conn).chart_field(cid).value is cc.frame
    xs = np.concatenate([[p.coords for p in conn.atlas.sample_points(cid, 8, rng)],
                         _edge_points(manifold, rng, 8)])
    # g, lam and A of mixed scale, 1e-3 to 1e3 per component
    zs = np.concatenate([xs, rng.normal(size=(16, 4)) * 10.0 ** rng.uniform(-3, 3, (16, 4))],
                        axis=-1)
    ps = rng.normal(size=(16, 6)) * 10.0 ** rng.uniform(-3, 3, (16, 6))
    got, want = cc.frame(zs, ps), oracles.kappa_inverse_value(cc.tensor, zs, ps)
    assert got.shape == want.shape == (16, 6)
    # rows of mixed scale cancel, so the bound is the block's largest component; the
    # unrolled sums read at most 2.3 eps of it over 300 seeds
    assert np.abs(got - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()
    bound = cc.frame(zs, ps[0])  # one parameter row bound for the whole block
    for z, p, row, bound_row in zip(zs, ps, got, bound):  # one point as a 1-D row
        alone = cc.frame(z, p)
        assert alone.shape == (6,) and alone.tobytes() == row.tobytes()
        assert cc.frame(z, ps[0]).tobytes() == bound_row.tobytes()


def _counting_bilinear(conn):
    """Count calls of each chart's `bilinear`, wrapped before the spray is built."""
    calls = []
    for cc in (conn._chart(cid) for cid in conn.atlas.charts if conn.has_chart(cid)):
        def bil(x, v, w, f=cc.bilinear):
            calls.append(np.shape(x))
            return f(x, v, w)

        cc.bilinear = bil
    return calls


def _torsion_sphere():
    from test_exp_inverse_blocks import torsion_sphere
    return torsion_sphere(CAT)


@pytest.mark.parametrize("make, cids", [
    (lambda: oracles.colat_round_connection(oracles.sphere_colat_atlas()), ("colat",)),
    (_torsion_sphere, ("a", "b"))], ids=["colat_christoffel", "sphere_torsion"])
def test_a_connection_given_by_its_tensor_gets_the_derived_spray(make, cids, rng):
    conn = make()
    calls = _counting_bilinear(conn)
    fld = geodesic_field(conn)
    for cid in cids:
        cc = conn._chart(cid)
        assert cc.spray is None
        zs = np.concatenate([[p.coords for p in conn.atlas.sample_points(cid, 4, rng)],
                             rng.normal(size=(4, 2))], axis=-1)
        calls.clear()
        got = fld.chart_field(cid).value(zs)
        assert calls == [(4, 2)]  # the spray called the chart's own bilinear, once
        assert got.tobytes() == _derived(cc, zs).tobytes()


def test_d_exp_of_a_shot_that_hops_matches_central_differences_of_exp_map():
    conn = CAT.connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-2)
    n = conn.atlas.dim
    x, v = Point("a", [1.5, 0.0]), np.array([0.4, 0.35])
    end, W = variational_flow(geodesic_field(conn), Point("a", pack(x.coords, v)),
                              np.vstack([np.zeros((n, n)), np.eye(n)]), 1.0, cfg)
    assert end.chart == "b"

    def shot(u):
        return conn.atlas.transition(exp_map(conn, Tangent(x, u), cfg), "b").coords

    fd = numdiff.jacobian(shot, v)
    assert np.linalg.norm(W[:n] - fd) <= 1e-8 * np.linalg.norm(fd)
