"""The geodesic spray's closed-form Jacobian

    [[0, I], [d_x B(v, v), B(., v) + B(v, .)]]

against central differences of the spray on every catalog connection
chart, and the d exp it gives a shot that changes chart against central
differences of `exp_map`."""
import numpy as np
import pytest

from affinelab import numdiff
from affinelab.atlas import Point, Tangent
from affinelab.bundles import pack
from affinelab.catalog import default_catalog
from affinelab.flows import IntegratorConfig, variational_flow
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
