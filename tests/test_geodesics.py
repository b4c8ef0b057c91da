import math
import re

import numpy as np
import pytest

import oracles
from affinelab import flows, geodesics
from affinelab.atlas import Point, Tangent
from affinelab.catalog import Catalog
from affinelab.errors import LeftAtlas, NoConvergence, NotInOverlap
from affinelab.flows import IntegratorConfig
from affinelab.geodesics import (CurveSpec, completeness_probe, exp_inverse, exp_map,
                                 exp_map_rows, geodesic, parallel_transport)


def test_flat_plane_geodesic_exact(cat, cfg):
    conn = cat.connection("plane", "flat")
    x0 = np.array([0.3, -0.2])
    v0 = np.array([0.7, 0.4])
    curve = geodesic(conn, Tangent(Point("cart", x0), v0), (-10.0, 10.0), cfg)
    for t in (-10.0, -3.7, 0.0, 1.0, 9.99):
        c, x, v = curve.eval(t)
        assert np.linalg.norm(x - (x0 + t * v0)) <= 1e-9
        assert np.linalg.norm(v - v0) <= 1e-9


def test_sphere_equator_periodicity(cat, cfg):
    conn = cat.connection("sphere", "round")
    start = Tangent(Point("a", [1.0, 0.0]), [0.0, 1.0])
    curve = geodesic(conn, start, (0.0, 2 * np.pi), cfg)
    end = curve.point(2 * np.pi)
    assert end.chart == "a"
    assert np.linalg.norm(end.coords - np.array([1.0, 0.0])) <= 1e-6


def test_sphere_equator_matches_circle(cat, cfg):
    conn = cat.connection("sphere", "round")
    curve = geodesic(conn, Tangent(Point("a", [1.0, 0.0]), [0.0, 1.0]), (0.0, 3.0), cfg)
    for t in (0.5, 1.5, 2.9):
        _, x, _ = curve.eval(t)
        assert np.linalg.norm(x - np.array([np.cos(t), np.sin(t)])) <= 1e-6


def test_halfplane_geodesic_on_unit_circle(cat, cfg):
    conn = cat.connection("halfplane", "hyperbolic")
    curve = geodesic(conn, Tangent(Point("hp", [0.0, 1.0]), [1.0, 0.0]), (-3.0, 3.0), cfg)
    for t in np.linspace(-3, 3, 25):
        _, x, _ = curve.eval(t)
        assert abs(x @ x - 1.0) <= 1e-6
    # closed form x = tanh t, y = sech t
    _, x, _ = curve.eval(1.7)
    assert np.linalg.norm(x - oracles.halfplane_geodesic_unit_circle(1.7)) <= 1e-6


def test_exp_flat_and_zero(cat, cfg):
    conn = cat.connection("plane", "flat")
    x = Point("cart", [0.2, 0.5])
    out = exp_map(conn, Tangent(x, [1.5, -2.0]), cfg)
    assert np.allclose(out.coords, [1.7, -1.5], atol=1e-12)
    out0 = exp_map(conn, Tangent(x, [0.0, 0.0]), cfg, t=0.0)
    assert np.allclose(out0.coords, x.coords)
    assert exp_map(conn, Tangent(x, [0.0, 0.0]), cfg).coords == pytest.approx([0.2, 0.5])


def test_a_zero_duration_checks_its_start_as_any_other_does(cat, cfg):
    conn = cat.connection("sphere", "round")
    v = Tangent(Point("a", [3.0, 0.0]), [0.1, 0.2])
    with pytest.raises(LeftAtlas, match="outside its chart domain"):
        exp_map_rows(conn, [v], cfg, t=0.0)


def test_sphere_exp_antipode(cat, cfg):
    # from the north pole (origin of chart b), metric speed pi reaches the
    # south pole (origin of chart a); chart speed is half the metric speed
    conn = cat.connection("sphere", "round")
    v = Tangent(Point("b", [0.0, 0.0]), [np.pi / 2, 0.0])
    out = exp_map(conn, v, cfg)
    assert out.chart == "a"
    assert np.linalg.norm(out.coords) <= 1e-5


def test_geodesic_homogeneity(cat, cfg):
    conn = cat.connection("sphere", "round")
    base = Point("a", [0.3, -0.1])
    v = np.array([0.8, 0.4])
    curve = geodesic(conn, Tangent(base, v), (0.0, 1.0), cfg)
    for t in (0.25, 0.5, 0.75, 1.0):
        a = exp_map(conn, Tangent(base, t * v), cfg)
        b = curve.point(t)
        assert conn.atlas.gap(a, b) <= 1e-8


def test_exp_inverse_flat(cat, cfg):
    conn = cat.connection("plane", "flat")
    x = Point("cart", [0.1, 0.1])
    y = Point("cart", [1.4, -0.3])
    v = exp_inverse(conn, x, y, cfg)
    assert np.allclose(v.vec, y.coords - x.coords, atol=1e-12)


def test_exp_inverse_sphere_roundtrip(cat, cfg):
    conn = cat.connection("sphere", "round")
    x = Point("a", [0.3, 0.2])
    y = Point("a", [0.7, -0.1])
    v = exp_inverse(conn, x, y, cfg)
    out = exp_map(conn, v, cfg)
    assert conn.atlas.gap(out, y) <= 1e-9


def test_exp_inverse_sphere_unit_distance(cat, cfg):
    # y at geodesic distance 1: metric norm of v is 2|v|/(1+|x|^2) = 1
    conn = cat.connection("sphere", "round")
    p = np.array([0.3, 0.2])
    X = oracles.chart_to_sphere(p, 1.0)
    U = np.array([1.0, 0.5, 0.0])
    U -= (U @ X) * X
    U /= np.linalg.norm(U)
    Y = np.cos(1.0) * X + np.sin(1.0) * U
    y = Point("a", oracles.sphere_to_chart(Y, 1.0))
    v = exp_inverse(conn, Point("a", p), y, cfg)
    metric_norm = 2.0 * np.linalg.norm(v.vec) / (1.0 + p @ p)
    assert abs(metric_norm - 1.0) <= 1e-6


def test_transport_flat_identity(cat, cfg):
    conn = cat.connection("plane", "flat")
    rows = [(t, "cart", np.array([np.sin(t), t**2]), np.array([np.cos(t), 2 * t]))
            for t in np.linspace(0, 1, 101)]
    curve = CurveSpec.from_samples(conn.atlas, rows)
    v = np.array([0.3, 0.8])
    out = parallel_transport(conn, curve, 0.0, 1.0, v, cfg)
    assert np.allclose(out, v, atol=1e-12)


def test_transport_over_a_zero_length_span_is_the_identity(cat, cfg):
    conn = cat.connection("sphere", "round")
    curve = geodesic(conn, Tangent(Point("a", [0.2, 0.1]), [0.5, 0.2]), (0.0, 1.0), cfg)
    v, G = np.array([0.3, -0.8]), np.array([[1.0, 2.0], [3.0, 4.0]])
    assert parallel_transport(conn, curve, 0.4, 0.4, v, cfg).tolist() == v.tolist()
    assert parallel_transport(conn, curve, 0.4, 0.4, G, cfg).tolist() == G.tolist()


@pytest.mark.parametrize("times, charts", [((0.0, 0.0), ("cart", "cart")),
                                           ((0.5, 0.5, 0.5), ("cart", "cart", "cart")),
                                           ((0.0, 0.5, 1.0), ("a", "a", "b"))])
def test_sampled_curve_rejects_samples_it_cannot_evaluate(cat, times, charts):
    # equal times made `eval` raise IndexError (no segment to evaluate), and
    # a chart change between distinct times made every `eval` inside that
    # segment raise LeftAtlas: both were accepted at construction
    atlas = cat.atlas("sphere" if "a" in charts else "plane")
    rows = [(t, c, np.array([0.1, 0.2]), np.array([1.0, 0.0])) for t, c in zip(times, charts)]
    with pytest.raises(ValueError):
        CurveSpec.from_samples(atlas, rows)


def test_sampled_curve_hands_off_at_a_duplicated_time(cat):
    # the integrator's records mark a hop with two rows at one time
    atlas = cat.atlas("sphere")
    x = np.array([0.6, 0.0])
    y = atlas.transition(Point("a", x), "b").coords
    rows = [(0.0, "a", x, [1.0, 0.0]), (0.5, "a", x, [1.0, 0.0]), (0.5, "b", y, [1.0, 0.0]),
            (1.0, "b", y, [1.0, 0.0])]
    curve = CurveSpec.from_samples(atlas, rows)
    assert curve.eval(0.25)[0] == "a" and curve.eval(0.75)[0] == "b"


def test_sphere_holonomy_latitude_circles(cat, cfg):
    # counterclockwise loop at colatitude theta0 (chart b holds the enclosed
    # pole): transport is rotation by 2 pi cos(theta0), clockwise in chart;
    # sign frozen from the ambient-transport oracle
    conn = cat.connection("sphere", "round")
    for theta0 in (np.pi / 6, np.pi / 4, np.pi / 3):
        rho = np.tan(theta0 / 2.0)

        def circ(t, rho=rho):
            return "b", rho * np.array([np.cos(t), np.sin(t)]), rho * np.array([-np.sin(t), np.cos(t)])

        curve = CurveSpec.from_callable(conn.atlas, circ, 0.0, 2 * np.pi)
        P = parallel_transport(conn, curve, 0.0, 2 * np.pi, np.eye(2), cfg)
        expected = oracles.rotmat(-2 * np.pi * np.cos(theta0))
        assert np.linalg.norm(P - expected) <= 1e-5, f"theta0={theta0}"
        # cross-check against the ambient oracle matrix
        assert np.linalg.norm(P - oracles.latitude_holonomy_matrix(theta0, steps=4000)) <= 1e-5


@pytest.mark.parametrize("t0, t1, steps", [(0.0, 1.0, 10), (1.0, 0.0, 10), (0.25, 0.75, 6)])
def test_transport_evaluates_each_point_of_its_curve_once(cat, t0, t1, steps):
    # one evaluation per grid point (a step's end is the next step's start)
    # and one per midpoint: 2N + 1 for N steps
    conn = cat.connection("plane", "flat")
    calls = []

    def parabola(t):
        calls.append(t)
        return "cart", np.array([t, t * t]), np.array([1.0, 2 * t])

    curve = CurveSpec.from_callable(conn.atlas, parabola, 0.0, 1.0)
    parallel_transport(conn, curve, t0, t1, np.eye(2), IntegratorConfig(step=0.1))
    assert len(calls) == 2 * steps + 1


@pytest.mark.parametrize("t0, t1", [(0.0, 3.0), (-2.0, 1.0), (1.5, 0.5)])
def test_sampled_curve_rejects_parameters_outside_its_samples(cat, t0, t1):
    # past its last sample a sampled curve has stopped moving, so transport
    # over a longer span would run on along a wrong curve without an error
    conn = cat.connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-2)
    curve = geodesic(conn, Tangent(Point("a", [0.2, 0.1]), [0.5, 0.2]), (0.0, 1.0), cfg)
    with pytest.raises(ValueError, match="outside the sampled span"):
        parallel_transport(conn, curve, t0, t1, np.eye(2), cfg)


def test_sampled_curve_accepts_its_end_missed_by_round_off(cat):
    # the last sample time is steps * (t1 / steps), an ulp short of t1 here
    conn = cat.connection("sphere", "round")
    curve = geodesic(conn, Tangent(Point("a", [0.2, 0.1]), [0.5, 0.2]), (0.0, 1.0),
                     IntegratorConfig(step=1 / 49))
    assert curve.t1 == 49 * (1 / 49) < 1.0
    assert curve.point(1.0).coords.tobytes() == curve.point(curve.t1).coords.tobytes()
    with pytest.raises(ValueError, match="outside the sampled span"):
        curve.eval(1.0 + 1e-9)


def latitude_circle(rho):
    def circ(t):
        c, s = math.cos(t), math.sin(t)
        return "b", rho * np.array([c, s]), rho * np.array([-s, c])

    return circ


@pytest.mark.parametrize("t0, t1, bad", [(0.0, 5.0, "t1=5.0"), (0.0, math.nan, "t1=nan"),
                                         (0.0, math.inf, "t1=inf"), (-0.5, 1.0, "t0=-0.5"),
                                         (1.5, 1.5, "t0=1.5")])
def test_callable_curve_rejects_parameters_outside_its_declared_span(cat, t0, t1, bad):
    # a circle declared on [0, 1]: past its end the transport ran on, its last
    # step of size t1 - 1; a NaN end came back as [nan nan], an infinite one
    # raised the curve function's own math domain error
    conn = cat.connection("sphere", "round")
    curve = CurveSpec.from_callable(conn.atlas, latitude_circle(np.tan(np.pi / 8)), 0.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(bad) + " lies outside the declared span"):
        parallel_transport(conn, curve, t0, t1, np.eye(2), IntegratorConfig(step=1e-2))


@pytest.mark.parametrize("shape", [(3,), (3, 2), (2, 2, 1), ()])
def test_transport_rejects_a_block_with_the_wrong_shape(cat, cfg, shape):
    # a 3-vector on the sphere raised numpy's "cannot reshape array of size 3"
    conn = cat.connection("sphere", "round")
    curve = geodesic(conn, Tangent(Point("a", [0.2, 0.1]), [0.5, 0.2]), (0.0, 1.0), cfg)
    with pytest.raises(ValueError, match=re.escape("(2,) or (2, k)")):
        parallel_transport(conn, curve, 0.0, 1.0, np.ones(shape), cfg)


def assert_eval_is_its_row_of_eval_rows(curve, ts):
    cs, X, V = curve.eval_rows(ts)
    assert len(cs) == X.shape[0] == V.shape[0] == len(ts)
    for j, t in enumerate(ts):
        c, x, v = curve.eval(t)
        assert (c, x.tobytes(), v.tobytes()) == (cs[j], X[j].tobytes(), V[j].tobytes()), t


@pytest.mark.parametrize("case", ["hop_time", "end_missed_by_round_off", "backward"])
def test_eval_is_one_row_of_eval_rows(cat, case):
    conn = cat.connection("sphere", "round")
    if case == "end_missed_by_round_off":
        curve = geodesic(conn, Tangent(Point("a", [0.2, 0.1]), [0.5, 0.2]), (0.0, 1.0),
                         IntegratorConfig(step=1 / 49))
        assert curve.t1 < 1.0
        ts = [1.0, curve.t1, 0.5, 0.123, 0.0]
    else:
        curve = geodesic(conn, Tangent(Point("a", [1.0, 0.2]), [1.0, 0.5]), (0.0, 3.0),
                         IntegratorConfig(step=1e-2))
        rows = curve.rows()
        hop = next(r[0] for r, q in zip(rows, rows[1:]) if r[0] == q[0])
        assert curve.eval(hop)[0] == "b" and curve.eval(hop - 0.004)[0] == "a"
        ts = ([hop - 0.004, hop, 0.0, hop + 0.004, 3.0] if case == "hop_time"
              else np.linspace(2.957, 0.013, 41).tolist() + [hop])
    assert_eval_is_its_row_of_eval_rows(curve, ts)


def test_eval_rows_of_a_callable_converts_lists_and_ints(cat):
    def line(t):
        return "cart", [t, 1], [1, 0]

    curve = CurveSpec.from_callable(cat.atlas("plane"), line, 0.0, 1.0)
    cs, X, V = curve.eval_rows([0.0, 0.5, 1.0])
    assert cs.tolist() == ["cart"] * 3 and X.dtype == V.dtype == np.dtype(float)
    assert X.tolist() == [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]] and V.tolist() == [[1.0, 0.0]] * 3
    assert_eval_is_its_row_of_eval_rows(curve, [0.0, 0.5, 1.0])


def test_transport_along_geodesic_autoparallel(cat, cfg):
    conn = cat.connection("sphere", "round")
    curve = geodesic(conn, Tangent(Point("a", [0.5, 0.1]), [0.4, -0.7]), (0.0, 2.0), cfg)
    _, _, v0 = curve.eval(0.0)
    out = parallel_transport(conn, curve, 0.0, 2.0, v0, cfg)
    cid, _, v1 = curve.eval(2.0)
    # transported vector is expressed in the end chart
    assert np.linalg.norm(out - v1) <= 1e-6


def test_transport_linearity_and_invertibility(cat, cfg, rng):
    conn = cat.connection("sphere", "round")
    curve = geodesic(conn, Tangent(Point("a", [0.2, 0.3]), [0.5, 0.2]), (0.0, 1.5), cfg)
    v, w = rng.normal(size=(2, 2))
    a = rng.normal()
    out = parallel_transport(conn, curve, 0.0, 1.5, a * v + w, cfg)
    expected = a * parallel_transport(conn, curve, 0.0, 1.5, v, cfg) \
        + parallel_transport(conn, curve, 0.0, 1.5, w, cfg)
    assert np.linalg.norm(out - expected) <= 1e-10
    fwd = parallel_transport(conn, curve, 0.0, 1.5, np.eye(2), cfg)
    back = parallel_transport(conn, curve, 1.5, 0.0, np.eye(2), cfg)
    assert np.linalg.norm(back @ fwd - np.eye(2)) <= 1e-8


def test_completeness_probe_flat_and_sphere(cat, rng):
    cfg = IntegratorConfig(step=0.05)
    flat = cat.connection("plane", "flat")
    seeds = [Tangent(p, rng.normal(size=2)) for p in flat.atlas.sample_points("cart", 5, rng)]
    rep = completeness_probe(flat, seeds, 50.0, cfg)
    assert rep.complete_up_to_horizon
    sphere = cat.connection("sphere", "round")
    seeds = [Tangent(p, rng.normal(size=2)) for p in sphere.atlas.sample_points("a", 3, rng)]
    rep = completeness_probe(sphere, seeds, 50.0, cfg)
    assert rep.complete_up_to_horizon


def test_completeness_probe_needs_a_seed(cat, cfg):
    # over zero rows completeness held vacuously: a pass on zero samples
    with pytest.raises(ValueError, match="at least one seed"):
        completeness_probe(cat.connection("plane", "flat"), [], 10.0, cfg)


@pytest.mark.parametrize("horizon", [0.0, -5.0, float("nan"), float("inf")])
def test_completeness_probe_needs_a_finite_positive_horizon(cat, cfg, horizon):
    # horizon 0 and -5 reported completeness (reached -5), nan raised "cannot
    # convert float NaN to integer"
    seed = Tangent(Point("cart", [0.1, 0.2]), [1.0, 0.0])
    with pytest.raises(ValueError, match="finite positive horizon"):
        completeness_probe(cat.connection("plane", "flat"), [seed], horizon, cfg)


def test_completeness_probe_disk_fails(cat):
    cfg = IntegratorConfig(step=0.01)
    conn = cat.connection("disk", "flat")
    seed = Tangent(Point("disk", [0.0, 0.0]), [1.0, 0.0])
    rep = completeness_probe(conn, [seed], 10.0, cfg)
    assert not rep.complete_up_to_horizon
    assert rep.rows[0].t_forward < 2.0
    assert rep.rows[0].status_forward == "left_atlas"


def _probe_fields(row):
    ends = [(e.base.chart, e.base.coords.tobytes(), e.vec.tobytes())
            for e in (row.end_forward, row.end_backward)]
    return row.t_forward, row.t_backward, row.status_forward, row.status_backward, ends


def _assert_rows_isolated(conn, seeds, horizon, cfg):
    """One probe over all seeds, each row equal to probing its seed alone."""
    rep = completeness_probe(conn, seeds, horizon, cfg)
    for seed, row in zip(seeds, rep.rows, strict=True):
        alone = completeness_probe(conn, [seed], horizon, cfg).rows[0]
        assert _probe_fields(row) == _probe_fields(alone)
    return rep


def test_completeness_probe_rows_stop_independently_on_torus(cat, rng, monkeypatch):
    # slow seeds barely move and finish; fast ones exceed the hop limit
    monkeypatch.setattr(flows, "MAX_HOPS", 4)
    conn = cat.connection("torus", "flat")
    cfg = IntegratorConfig(step=0.05)
    speeds = [0.02, 1.0, 0.01, 1.5, 0.8]
    seeds = [Tangent(Point("t00", rng.uniform(-0.1, 0.1, size=2)), s * np.array([0.6, 0.8]))
             for s in speeds]
    rep = _assert_rows_isolated(conn, seeds, 5.0, cfg)
    statuses = [r.status_forward for r in rep.rows] + [r.status_backward for r in rep.rows]
    assert set(statuses) == {"ok", "hop_limit"}
    assert not rep.complete_up_to_horizon


def test_completeness_probe_rows_stop_independently_on_plane(cat, rng, monkeypatch):
    # with a low state guard, fast straight lines diverge while slow ones finish
    monkeypatch.setattr(flows, "STATE_GUARD", 20.0)
    conn = cat.connection("plane", "flat")
    cfg = IntegratorConfig(step=0.5)
    seeds = [Tangent(Point("cart", rng.uniform(-1.0, 1.0, size=2)), s * np.array([0.8, -0.6]))
             for s in (0.05, 2.0, 0.1, 5.0)]
    rep = _assert_rows_isolated(conn, seeds, 50.0, cfg)
    assert [r.status_forward for r in rep.rows] == ["ok", "diverged", "ok", "diverged"]


def test_completeness_probe_rows_stop_independently_on_disk(cat, rng):
    # resting seeds never leave; moving ones stop within one step of the exit
    conn = cat.connection("disk", "flat")
    cfg = IntegratorConfig(step=0.01)
    seeds = [Tangent(Point("disk", rng.uniform(-0.5, 0.5, size=2)), v)
             for v in ([0.0, 0.0], rng.normal(size=2), [0.0, 0.0], rng.normal(size=2), rng.normal(size=2))]
    rep = _assert_rows_isolated(conn, seeds, 10.0, cfg)

    def exit_time(x, v):
        # |x + t v| = 1 for the straight line
        xv, vv = x @ v, v @ v
        return (-xv + np.sqrt(xv * xv + vv * (1.0 - x @ x))) / vv

    for seed, row in zip(seeds, rep.rows):
        if not np.any(seed.vec):
            assert (row.status_forward, row.status_backward) == ("ok", "ok")
            assert (row.t_forward, row.t_backward) == (10.0, -10.0)
            continue
        x, v = seed.base.coords, seed.vec
        for status, reached, exit_at in ((row.status_forward, row.t_forward, exit_time(x, v)),
                                         (row.status_backward, -row.t_backward, exit_time(x, -v))):
            assert status == "left_atlas"
            assert exit_at - cfg.step - 1e-9 <= reached < exit_at


def test_exp_inverse_maps_x_into_the_target_chart_once(monkeypatch):
    # y lies outside x's chart a, so Newton runs in y's chart b: the set-up
    # tries y in a, then takes x's image and the transition's Jacobian from
    # one jet, two inversion calls before the first shot; the three shots'
    # hop searches and landings in b add three more
    conn = Catalog().connection("sphere", "round")  # counting stubs on a private catalog
    atlas = conn.atlas
    calls, shots = [], []
    for cid, tid in (("a", "b"), ("b", "a")):
        tr = atlas.chart(cid).transitions[tid]

        def counted(p, f=tr.map):
            calls.append(np.shape(p))
            return f(p)

        tr.map = counted
    run_block = geodesics._run_block

    def shot(*args, **kwargs):
        shots.append(len(calls))
        return run_block(*args, **kwargs)

    monkeypatch.setattr(geodesics, "_run_block", shot)
    cfg = IntegratorConfig(step=1e-2)
    y = Point("b", [0.3, 0.1])
    v = exp_inverse(conn, Point("a", [1.9, 0.3]), y, cfg)
    assert shots[0] == 2 and len(shots) == 3 and len(calls) == 5
    assert atlas.gap(exp_map(conn, v, cfg), y) <= 1e-10


def test_exp_inverse_no_convergence(cat, monkeypatch):
    # antipodal-ish target on the sphere is outside the normal neighbourhood
    monkeypatch.setattr(geodesics, "NEWTON_MAX_ITER", 8)
    conn = cat.connection("sphere", "round")
    cfg = IntegratorConfig(step=5e-3)
    with pytest.raises(NoConvergence):
        exp_inverse(conn, Point("a", [0.0, 0.0]), Point("b", [0.05, 0.0]), cfg)


def _map_only_sphere():
    """The catalog's two-chart sphere with transitions that declare only
    `map`, so their derivatives are finite-difference fills."""
    from affinelab.atlas import Atlas, Chart, Transition, disk_domain
    from affinelab.catalog import _inversion, round_sphere_connection
    a = Chart("a", 2, disk_domain(2.0), [-1.2, -1.2], [1.2, 1.2], priority=0)
    b = Chart("b", 2, disk_domain(2.0), [-1.2, -1.2], [1.2, 1.2], priority=1)
    a.add_transition("b", Transition(map=_inversion().map))
    b.add_transition("a", Transition(map=_inversion().map))
    return round_sphere_connection(Atlas("sphere_map_only", 2, [a, b]))


def _hopping_seeds(count=8):
    rng = np.random.default_rng(31)
    seeds = []
    for _ in range(count):
        v = rng.normal(size=2)
        seeds.append(Tangent(Point("a", rng.uniform(-1.0, 1.0, size=2)), 2.0 * v / np.linalg.norm(v)))
    return seeds


def test_map_only_transitions_exp_across_hops(cat):
    conn = cat.connection("sphere", "round")
    fd_conn = _map_only_sphere()
    cfg = IntegratorConfig(step=1e-2)
    ends = []
    for s in _hopping_seeds():
        want = exp_map(conn, s, cfg)
        got = exp_map(fd_conn, s, cfg)
        assert got.chart == want.chart
        assert np.linalg.norm(got.coords - want.coords) <= 1e-8
        ends.append(want.chart)
    assert "b" in ends  # some seeds really hop


def test_map_only_transitions_probe_across_hops(cat):
    cfg = IntegratorConfig(step=1e-2)
    seeds = _hopping_seeds()
    rows = [(r.status_forward, r.status_backward, r.t_forward, r.t_backward)
            for r in completeness_probe(cat.connection("sphere", "round"), seeds, 20.0, cfg).rows]
    fd_rows = [(r.status_forward, r.status_backward, r.t_forward, r.t_backward)
               for r in completeness_probe(_map_only_sphere(), seeds, 20.0, cfg).rows]
    assert fd_rows == rows


@pytest.mark.parametrize("t_span", [(0.5, 1.0), (-1.0, -0.5), (0.0, 0.0)])
def test_a_geodesic_span_must_contain_0_with_positive_length(cat, cfg, t_span):
    seed = Tangent(Point("cart", [0.3, -0.2]), [0.7, 0.4])
    with pytest.raises(ValueError, match="t_span must contain 0"):
        geodesic(cat.connection("plane", "flat"), seed, t_span, cfg)


def test_an_analytic_curve_has_no_sample_rows(cat):
    curve = CurveSpec.from_callable(cat.atlas("plane"),
                                    lambda t: ("cart", np.array([t, 0.0]), np.array([1.0, 0.0])),
                                    0.0, 1.0)
    with pytest.raises(ValueError, match="analytic curve has no sample rows"):
        curve.rows()


def test_backward_span_ends_at_the_start(cat, cfg):
    # t_span (-1, 0) integrates backward only; the curve's last sample is
    # the start itself
    conn = cat.connection("plane", "flat")
    x0, v0 = np.array([0.3, -0.2]), np.array([0.7, 0.4])
    curve = geodesic(conn, Tangent(Point("cart", x0), v0), (-1.0, 0.0), cfg)
    assert (curve.t0, curve.t1) == (-1.0, 0.0)
    last = curve.rows()[-1]
    assert last[0] == 0.0 and np.array_equal(last[2], x0) and np.array_equal(last[3], v0)
    for t in (-1.0, -0.37, 0.0):
        c, x, v = curve.eval(t)
        assert c == "cart"
        assert np.linalg.norm(x - (x0 + t * v0)) <= 1e-9
        assert np.linalg.norm(v - v0) <= 1e-9


def test_exp_inverse_shoots_in_y_chart_when_x_chart_misses_y(cat):
    # y is not in chart a, so the residual is measured in y's chart b; the
    # metric length of the answer is the great-circle distance
    conn = cat.connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-2)
    x, y = Point("a", [1.7, 0.0]), Point("b", [0.45, 0.05])
    with pytest.raises(NotInOverlap):
        conn.atlas.transition(y, "a")
    v = exp_inverse(conn, x, y, cfg)
    assert conn.atlas.gap(exp_map(conn, v, cfg), y) <= 1e-10
    X = oracles.chart_to_sphere(x.coords, oracles.SIGMA["a"])
    Y = oracles.chart_to_sphere(y.coords, oracles.SIGMA["b"])
    speed = 2.0 * np.linalg.norm(v.vec) / (1.0 + x.coords @ x.coords)
    assert abs(speed - np.arccos(X @ Y)) <= 1e-6


def test_transport_result_is_recharted_into_the_curves_end_chart(cat, cfg):
    # the latitude loop of the holonomy test, with its end point reported in
    # chart a: transport runs in chart b, and the result comes back in a
    conn = cat.connection("sphere", "round")
    atlas = conn.atlas
    theta0 = np.pi / 3  # the loop lies in both charts
    rho = np.tan(theta0 / 2.0)
    end = Point("b", [rho, 0.0])

    def circ(t):
        x, v = rho * np.array([np.cos(t), np.sin(t)]), rho * np.array([-np.sin(t), np.cos(t)])
        if t < 2 * np.pi:
            return "b", x, v
        p = Point("b", x)
        return "a", atlas.transition(p, "a").coords, atlas.d_transition(p, "a") @ v

    curve = CurveSpec.from_callable(atlas, circ, 0.0, 2 * np.pi)
    assert curve.eval(2 * np.pi)[0] == "a"
    P = parallel_transport(conn, curve, 0.0, 2 * np.pi, np.eye(2), cfg)
    expected = atlas.d_transition(end, "a") @ oracles.rotmat(-2 * np.pi * np.cos(theta0))
    assert np.linalg.norm(P - expected) <= 1e-5
