"""Parallel transport as products of RK4 step propagators.

`parallel_transport` builds each step's propagator I + D from the curve
at the step's start, midpoint and end, and multiplies them in chunks.
The reference below is the same RK4 taken one step at a time: one
`flows._rk4` call per grid interval, whose right-hand side calls the
connection's `bilinear` once per transported column.
"""
import math

import numpy as np
import pytest

import oracles
from affinelab import geodesics
from affinelab.atlas import Point, Tangent
from affinelab.catalog import default_catalog
from affinelab.flows import IntegratorConfig, _rk4
from affinelab.geodesics import CurveSpec, geodesic, parallel_transport


def reference_transport(conn, curve, t0, t1, G, cfg):
    """Transport G along the curve, stepping grid interval by interval."""
    atlas = conn.atlas

    def in_chart(c, x, v, cid):
        if c == cid:
            return x, v
        u = atlas.rechart_tangent(Tangent(Point(c, x), v), cid)
        return u.base.coords, u.vec

    grid = curve.grid(cfg)
    grid = grid[(grid > min(t0, t1)) & (grid < max(t0, t1))]
    ts = np.concatenate([[t0], grid[::-1] if t1 < t0 else grid, [t1]])
    G = np.array(G, float)
    c, x, v = curve.eval(ts[0])
    cid = c
    for a, b in zip(ts[:-1], ts[1:]):
        if c != cid:
            G = atlas.d_transition(Point(cid, xb), c) @ G
            cid = c
        bil = conn.bilinear_fn(cid)
        mid = in_chart(*curve.eval(0.5 * (a + b)), cid)
        stages = [(x, v), mid, mid]
        c, x, v = curve.eval(b)
        xb, vb = in_chart(c, x, v, cid)
        stages = iter(stages + [(xb, vb)])

        def rhs(W):
            xs, vs = next(stages)
            return np.column_stack([bil(xs, w, vs) for w in W.T])

        G = _rk4(rhs, G, b - a)
    if c != cid:
        G = atlas.d_transition(Point(cid, xb), c) @ G
    return G


def latitude_loop(rho):
    def circ(t):
        return "b", rho * np.array([np.cos(t), np.sin(t)]), rho * np.array([-np.sin(t), np.cos(t)])

    return circ


def midpoint_in_chart_a(rho, steps, k):
    """The latitude loop in chart b, reported in chart a near the midpoint
    of step k of the uniform grid of `steps` steps on [0, 2 pi] only."""
    atlas = default_catalog().atlas("sphere")
    h = 2 * np.pi / steps
    circ = latitude_loop(rho)

    def curve(t):
        c, x, v = circ(t)
        if abs(t - (k + 0.5) * h) < h / 4:
            p = Point(c, x)
            return "a", atlas.transition(p, "a").coords, atlas.d_transition(p, "a") @ v
        return c, x, v

    return curve


@pytest.mark.parametrize("case", ["latitude_loop", "sphere_hop", "sphere_hop_backward",
                                  "sphere_hop_subspan", "midpoint_in_another_chart",
                                  "halfplane", "colatitude"])
def test_transport_matches_the_step_by_step_rk4_loop(cat, case):
    # in the conformal charts (stereographic, half-plane) every M(t) is a
    # multiple of a rotation plus one of the identity, so the steps commute;
    # only the colatitude chart's geodesic sees the order of the product
    cfg = IntegratorConfig(step=1e-2)
    if case == "latitude_loop":
        conn = cat.connection("sphere", "round")
        curve = CurveSpec.from_callable(conn.atlas, latitude_loop(np.tan(np.pi / 8)),
                                        0.0, 2 * np.pi)
        t0, t1 = 0.0, 2 * np.pi
    elif case == "midpoint_in_another_chart":
        # colatitude pi/3 lies in both charts; step 300's start and end are
        # in chart b and its midpoint in chart a
        conn = cat.connection("sphere", "round")
        steps = math.ceil(2 * np.pi / cfg.step - 1e-12)
        curve = CurveSpec.from_callable(
            conn.atlas, midpoint_in_chart_a(np.tan(np.pi / 6), steps, 300), 0.0, 2 * np.pi)
        grid = curve.grid(cfg)
        assert curve.eval(0.5 * (grid[300] + grid[301]))[0] == "a"
        assert {curve.eval(t)[0] for t in grid} == {"b"}
        t0, t1 = 0.0, 2 * np.pi
    elif case.startswith("sphere_hop"):
        conn = cat.connection("sphere", "round")
        curve = geodesic(conn, Tangent(Point("a", [1.0, 0.2]), [1.0, 0.5]), (0.0, 3.0), cfg)
        assert curve.eval(0.0)[0] == "a" and curve.eval(3.0)[0] == "b"
        t0, t1 = (3.0, 0.0) if case.endswith("backward") else (0.0, 3.0)
        if case.endswith("subspan"):  # both ends between samples, the hop at 0.52 inside
            t0, t1 = 0.373, 2.961
            assert t0 not in curve.grid(cfg) and t1 not in curve.grid(cfg)
    elif case == "halfplane":
        conn = cat.connection("halfplane", "hyperbolic")
        curve = geodesic(conn, Tangent(Point("hp", [0.0, 1.0]), [1.0, 0.5]), (0.0, 3.0), cfg)
        t0, t1 = 0.0, 3.0
    else:
        conn = cat.connection("sphere_colat", "round")
        curve = geodesic(conn, Tangent(Point("colat", [1.0, 0.0]), [0.3, 0.8]), (0.0, 3.0), cfg)
        t0, t1 = 0.0, 3.0
    assert abs(t1 - t0) / cfg.step > geodesics._CHUNK  # more than one chunk
    G0 = np.array([[1.0, 0.5], [-0.3, 2.0]])
    got = parallel_transport(conn, curve, t0, t1, G0, cfg)
    want = reference_transport(conn, curve, t0, t1, G0, cfg)
    assert np.abs(got - want).max() <= 1e-13


def counting(fn, calls, key):
    def wrapped(*args):
        calls[key] += 1
        return fn(*args)

    return wrapped


def test_transport_calls_tensor_once_per_chunk_and_segment_and_never_bilinear(monkeypatch):
    # the latitude loop at colatitude pi/3 lies in both charts; the curve
    # reports chart a on two quarters of it, so the transport re-charts
    # three times mid-span and ends in chart a
    conn = default_catalog().connection("sphere", "round")
    atlas = conn.atlas
    calls = {"tensor": 0, "bilinear": 0}
    for cid in ("a", "b"):
        cc = conn._chart(cid)
        for attr in calls:
            monkeypatch.setattr(cc, attr, counting(getattr(cc, attr), calls, attr))
    theta0 = np.pi / 3
    rho = np.tan(theta0 / 2.0)
    charts = []

    def circ(t):
        x, v = rho * np.array([np.cos(t), np.sin(t)]), rho * np.array([-np.sin(t), np.cos(t)])
        if np.pi / 2 <= t < np.pi or t >= 3 * np.pi / 2:
            p = Point("b", x)
            x, v = atlas.transition(p, "a").coords, atlas.d_transition(p, "a") @ v
            charts.append("a")
        else:
            charts.append("b")
        return charts[-1], x, v

    cfg = IntegratorConfig()
    curve = CurveSpec.from_callable(atlas, circ, 0.0, 2 * np.pi)
    P = parallel_transport(conn, curve, 0.0, 2 * np.pi, np.eye(2), cfg)
    steps = math.ceil(2 * np.pi / cfg.step - 1e-12)
    segments = 4
    assert {"a", "b"} <= set(charts) and charts[-1] == "a"
    assert calls["bilinear"] == 0
    assert 1 <= calls["tensor"] <= math.ceil(steps / geodesics._CHUNK) + segments
    end = Point("b", [rho, 0.0])
    expected = atlas.d_transition(end, "a") @ oracles.rotmat(-2 * np.pi * np.cos(theta0))
    assert np.linalg.norm(P - expected) <= 1e-5


def test_sampled_transport_evaluates_its_curve_as_two_arrays(monkeypatch):
    # one eval_rows call for the grid points, one for the midpoints, no
    # scalar eval; one tensor call per chunk of each chart segment
    conn = default_catalog().connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-2)
    curve = geodesic(conn, Tangent(Point("a", [1.0, 0.2]), [1.0, 0.5]), (0.0, 6.0), cfg)
    calls = {"eval_rows": 0, "eval": 0, "tensor": 0}
    for attr in ("eval_rows", "eval"):
        monkeypatch.setattr(curve, attr, counting(getattr(curve, attr), calls, attr))
    for cid in ("a", "b"):
        cc = conn._chart(cid)
        monkeypatch.setattr(cc, "tensor", counting(cc.tensor, calls, "tensor"))
    parallel_transport(conn, curve, 0.0, 6.0, np.eye(2), cfg)
    times = [r[0] for r in curve.rows()]
    hops = [t for t, s in zip(times, times[1:]) if t == s]
    bounds = [0.0, *hops, 6.0]
    steps = [round((b - a) / cfg.step) for a, b in zip(bounds, bounds[1:])]
    assert len(hops) >= 2 and max(steps) > geodesics._CHUNK
    chunks = sum(math.ceil(k / geodesics._CHUNK) for k in steps)
    assert calls == {"eval_rows": 2, "eval": 0, "tensor": chunks}
