"""Rows step in groups keyed on their chart `value` and margin test family.

Charts whose field hands out the same `value` and whose margin test is
one family (the torus boxes, with per-row parameters) step their rows
through one RK4 call and one test call, with or without variational
columns (a flush calls each row's own chart `d`); the `value` is the
right-hand side itself, unwrapped.  The rows
leaving at one step hop in one call, while the re-chart of the
variational columns stays per row.
A mixed-chart block must therefore give every row exactly
what that row gives when it runs alone, bit for bit: the grouped step
applies the same elementwise arithmetic to each row.
"""
import numpy as np
import pytest

from affinelab import atlas as atlas_module
from affinelab import flows
from affinelab.atlas import Atlas, Chart, Point, Tangent, Transition, box_domain
from affinelab.bundles import pack
from affinelab.catalog import Catalog, flat_connection, torus_atlas
from affinelab.flows import (DIVERGED, HOP_LIMIT, LEFT_ATLAS, OK, ChartField, IntegratorConfig,
                             VectorField, _run_block, constant_field)
from affinelab.frame_bundle import Frame, kappa_inverse_family, standard_horizontal
from affinelab.geodesics import exp_map, geodesic_field
from test_geodesics import _map_only_sphere

TORUS_CENTERS = {"t00": (0.0, 0.0), "t10": (0.5, 0.0), "t01": (0.0, 0.5), "t11": (0.5, 0.5)}


def _block_equals_rows(field, starts, ts, cfg, w0=None, params=None):
    """Run `starts` as one block and each row alone; every row must end in
    the same chart with the same bytes, reach time and status."""
    ends, W, t_ok, status = _run_block(field, starts, ts, cfg, w0, params=params)
    for r, start in enumerate(starts):
        end1, W1, t1, status1 = _run_block(field, [start], ts[r], cfg,
                                           None if w0 is None else w0[r:r + 1],
                                           params=None if params is None else params[r:r + 1])
        assert end1[0].chart == ends[r].chart
        assert end1[0].coords.tobytes() == ends[r].coords.tobytes()
        assert (t1[0], status1[0]) == (t_ok[r], status[r])
        if W is not None:
            assert W1[0].tobytes() == W[r].tobytes()
    return ends, t_ok, status


def _tm(chart, x, v):
    return Point(chart, pack(np.array(x, float), np.array(v, float).reshape(2, 1)))


@pytest.fixture
def fresh():
    # counting wrappers go on a private catalog, never the shared one
    return Catalog()


@pytest.fixture
def rk4_calls(monkeypatch):
    calls = []
    rk4 = flows._rk4

    def counted(rhs, z, h, h2, h6):
        calls.append(np.shape(z))
        return rk4(rhs, z, h, h2, h6)

    monkeypatch.setattr(flows, "_rk4", counted)
    return calls


def test_sphere_block_calls_the_shared_spray_once_per_stage(fresh):
    fld = geodesic_field(fresh.connection("sphere", "round"))
    calls = []
    wrapped = {}
    for cid in ("a", "b"):
        cf = fld.chart_field(cid)
        if cf.value not in wrapped:
            def value(z, f=cf.value):
                calls.append(z.shape)
                return f(z)

            wrapped[cf.value] = value
        cf.value = wrapped[cf.value]
    starts = [_tm("a", [0.3, 0.1], [0.2, 0.1]), _tm("b", [0.2, -0.4], [0.1, 0.3]),
              _tm("a", [-0.5, 0.2], [0.0, 0.2]), _tm("b", [0.1, 0.1], [-0.2, 0.1])]
    steps = 10
    _, _, status = _block_equals_rows(fld, starts, np.full(4, steps * 0.01),
                                      IntegratorConfig(step=0.01))
    assert status == [OK] * 4
    # the single-row reference runs add one call per stage each
    block = calls[:4 * steps]
    assert block == [(4, 4)] * (4 * steps)
    assert len(calls) == 4 * steps + 4 * 4 * steps


def test_sphere_rows_hopping_at_different_steps_equal_single_rows(cat):
    # geodesics leaving chart a outward from different radii hop to b at
    # different steps, rows starting in b hop to a or stay, and the short
    # row stops early; the backward row (step -0.05) and the off-grid one
    # (2.93 in 59 steps of 0.04966...) each hop once, carrying their own
    # signed steps through every plan rebuilt as rows hop and finish
    fld = geodesic_field(cat.connection("sphere", "round"))
    starts = [_tm("a", [1.2, 0.1], [1.0, 0.2]), _tm("a", [1.4, -0.2], [0.8, 0.0]),
              _tm("b", [0.3, -0.5], [0.7, 0.7]), _tm("a", [0.2, 0.3], [-1.5, 0.4]),
              _tm("b", [1.5, 0.2], [0.9, -0.3]), _tm("a", [0.9, -0.9], [0.5, 0.5]),
              _tm("a", [1.3, 0.4], [-0.9, -0.4]), _tm("b", [1.0, 1.0], [0.5, 0.5])]
    ts = np.array([3.0, 3.0, 3.0, 3.0, 3.0, 0.4, -2.5, 2.93])
    ends, _, status = _block_equals_rows(fld, starts, ts, IntegratorConfig(step=0.05))
    assert status == [OK] * len(starts)
    assert {e.chart for e in ends} == {"a", "b"}
    assert ends[6].chart == "b" and ends[7].chart == "a"


def test_torus_rows_over_all_four_charts_equal_single_rows(cat, rng, rk4_calls):
    # the flat connection is one formula on every box, so the spray steps
    # rows of all four charts as one group
    fld = geodesic_field(cat.connection("torus", "flat"))
    starts = [_tm(cid, np.add(c, rng.uniform(-0.2, 0.2, 2)), rng.normal(size=2))
              for cid, c in [*TORUS_CENTERS.items(), *TORUS_CENTERS.items()]]
    cfg = IntegratorConfig(step=0.05)
    ends, _, _, status = _run_block(fld, starts, np.full(len(starts), 2.0), cfg)
    assert len(rk4_calls) == 40 and rk4_calls[0] == (8, 4)
    _block_equals_rows(fld, starts, np.full(len(starts), 2.0), cfg)
    assert status == [OK] * len(starts)
    assert any(e.chart != s.chart for e, s in zip(ends, starts))


def test_torus_block_tests_its_margin_once_per_step_and_hops_once(monkeypatch, rng, rk4_calls):
    # the four boxes share one margin test (`in_box` with per-row centre and
    # half-width) and one shift family, so a block over all four boxes tests
    # its margin once per step, whatever the boxes its rows hop between, and
    # looks for every hop of a step in one call that tests every candidate
    # box of every leaving row at once
    calls = {"steps": 0, "hops": 0, "trials": 0}
    hopping = []
    in_box, hop_targets = atlas_module.in_box, Atlas.hop_targets

    def counted_box(*args):
        calls["trials" if hopping else "steps"] += 1
        return in_box(*args)

    def counted_hops(self, *args):
        calls["hops"] += 1
        hopping.append(True)
        try:
            return hop_targets(self, *args)
        finally:
            hopping.pop()

    monkeypatch.setattr(atlas_module, "in_box", counted_box)
    monkeypatch.setattr(Atlas, "hop_targets", counted_hops)
    fld = geodesic_field(flat_connection(torus_atlas()))
    starts = [_tm(cid, np.add(c, rng.uniform(-0.2, 0.2, 2)), rng.normal(size=2))
              for cid, c in [*TORUS_CENTERS.items(), *TORUS_CENTERS.items()]]
    ends, _, _, status = _run_block(fld, starts, np.full(len(starts), 2.0),
                                    IntegratorConfig(step=0.05))
    assert status == [OK] * len(starts)
    assert any(e.chart != s.chart for e, s in zip(ends, starts))
    steps = len(rk4_calls)
    assert steps == 40 and rk4_calls[0] == (8, 4)
    # one start check per row, then one test of the whole block per step
    assert calls["steps"] == len(starts) + steps
    # at most one hop search per step, each testing all its candidates in one call
    assert 0 < calls["hops"] <= steps
    assert calls["trials"] == calls["hops"]


def test_variational_block_equals_single_rows(cat, rng):
    # standard horizontal frames over both sphere charts carry variational
    # columns, which each hop re-charts through its own transition Jacobian
    conn = cat.connection("sphere", "round")
    H = standard_horizontal(conn, [0.9, 0.2])
    starts = [Frame(c, x, np.eye(2) + 0.1 * rng.normal(size=(2, 2))).packed()
              for c, x in [("a", [1.3, 0.1]), ("b", [1.1, 0.3]), ("a", [0.4, 0.2]),
                           ("b", [-0.5, 1.4])]]
    w0 = rng.normal(size=(len(starts), 6, 6))
    ends, _, _ = _block_equals_rows(H, starts, np.full(len(starts), 1.0),
                                    IntegratorConfig(step=0.02), w0=w0)
    assert [e.chart for e in ends] != [s.chart for s in starts]


def test_kappa_inverse_family_block_with_parameter_rows_equals_single_rows(cat, rng):
    conn = cat.connection("sphere", "round")
    fam = kappa_inverse_family(conn)
    starts = [Frame(c, x, np.eye(2) + 0.1 * rng.normal(size=(2, 2))).packed()
              for c, x in [("a", [1.3, 0.1]), ("b", [1.1, 0.3]), ("a", [0.4, 0.2]),
                           ("b", [-0.5, 1.4])]]
    params = np.array([pack(0.8 * rng.normal(size=2), 0.3 * rng.normal(size=(2, 2)))
                       for _ in starts])
    _block_equals_rows(fam, starts, np.array([1.0, 1.0, 0.7, 0.2]),
                       IntegratorConfig(step=0.02), params=params)


def test_charts_with_different_callables_step_as_separate_groups(cat, rk4_calls):
    # the plane's rotation has one formula in Cartesian and another in
    # polar coordinates: two groups per step, whatever the rows
    fld = cat.field("plane", "rotation")
    starts = [Point("cart", [0.5, 0.5]), Point("polar", [1.0, 0.5]), Point("cart", [-0.3, 0.2])]
    _run_block(fld, starts, 0.1, IntegratorConfig(step=0.01))
    assert sorted(rk4_calls[:2]) == [(1, 2), (2, 2)] and len(rk4_calls) == 20


def test_rows_sharing_a_value_under_two_test_families_step_per_family(rk4_calls):
    # the map-only sphere's charts share the spray's one `value`, but each
    # chart has its own disk test: rows of a and of b step as two groups,
    # one RK4 call and one margin test each
    fld = geodesic_field(_map_only_sphere())
    starts = [_tm("a", [0.3, 0.1], [0.2, 0.1]), _tm("b", [0.2, -0.4], [0.1, 0.3]),
              _tm("a", [-0.5, 0.2], [0.0, 0.2]), _tm("b", [0.1, 0.1], [-0.2, 0.1])]
    cfg = IntegratorConfig(step=0.01)
    assert fld.chart_field("a").value is fld.chart_field("b").value
    _run_block(fld, starts, 0.1, cfg)
    assert rk4_calls == [(2, 4)] * 20
    _block_equals_rows(fld, starts, np.full(len(starts), 0.1), cfg)


def test_a_plain_group_steps_its_charts_own_value(cat, monkeypatch):
    # no wrapper between the step and the chart callable: each group's
    # right-hand side is its chart's `value` object itself
    rhs_seen = []
    rk4 = flows._rk4

    def seen(rhs, *args):
        rhs_seen.append(rhs)
        return rk4(rhs, *args)

    monkeypatch.setattr(flows, "_rk4", seen)
    fld = cat.field("plane", "rotation")
    starts = [Point("cart", [0.5, 0.5]), Point("polar", [1.0, 0.5]), Point("cart", [-0.3, 0.2])]
    _run_block(fld, starts, 0.1, IntegratorConfig(step=0.01))
    values = {fld.chart_field(cid).value for cid in ("cart", "polar")}
    assert len(rhs_seen) == 20 and set(rhs_seen) == values


def test_finite_difference_fills_never_merge(cat, rk4_calls):
    # one `value` on every torus box, with `d` left to central differences:
    # rows share the one `value` and step together, with variational columns
    # too, while each chart's fill, guarded by its own domain, is evaluated
    # by a flush on its own chart's rows alone
    torus = cat.atlas("torus")
    cf = ChartField(value=lambda x: np.stack([1.0 + 0.0 * x[..., 0], 0.3 * x[..., 0]], -1))
    fld = VectorField(torus, "fd", {cid: cf for cid in torus.charts})
    seen = {}
    for cid in torus.charts:
        def d(x, fill=fld.chart_field(cid).d, cid=cid):
            seen.setdefault(cid, []).append(np.array(x))
            return fill(x)

        fld.chart_field(cid).d = d
    starts = [Point("t00", [0.0, 0.1]), Point("t10", [0.5, -0.1])]
    cfg = IntegratorConfig(step=0.01)
    _run_block(fld, starts, 0.1, cfg)
    assert len(rk4_calls) == 10 and set(rk4_calls) == {(2, 2)}
    del rk4_calls[:]
    w0 = np.array([np.eye(2)] * 2)
    _run_block(fld, starts, 0.1, cfg, w0=w0)
    assert len(rk4_calls) == 10 and set(rk4_calls) == {(2, 2)}  # the base states alone
    assert set(seen) == {"t00", "t10"}
    for cid, calls in seen.items():
        for X in calls:
            # one row's 4 x 10 stage states, all inside that row's own chart
            assert X.shape == (1, 40, 2) and torus.chart(cid).contains_fn(X, 0.0).all()
    _block_equals_rows(fld, starts, np.full(2, 0.1), cfg, w0=w0)


def test_one_row_runs_step_a_1d_state(cat, rk4_calls):
    # a one-row block steps its 1-D view with a scalar step, which numpy
    # runs about 2.8x faster than the same row as a (1, N) block
    cfg = IntegratorConfig(step=0.05)
    rot = cat.field("sphere", "rot_x")
    flows.integrate(rot, Point("a", [1.2, 0.1]), 1.0, cfg)
    assert len(rk4_calls) == 20 and set(rk4_calls) == {(2,)}
    del rk4_calls[:]
    flows.variational_flow(rot, Point("a", [1.2, 0.1]), np.eye(2), 1.0, cfg)
    assert len(rk4_calls) == 20 and set(rk4_calls) == {(2,)}  # W rides beside the state
    del rk4_calls[:]
    conn = cat.connection("sphere", "round")
    # this geodesic hops from chart a to b
    assert exp_map(conn, Tangent(Point("a", [1.2, 0.1]), [1.0, 0.2]), cfg, 3.0).chart == "b"
    assert len(rk4_calls) == 60 and set(rk4_calls) == {(4,)}
    del rk4_calls[:]
    fam = kappa_inverse_family(conn)
    params = pack(np.array([0.3, -0.2]), 0.1 * np.eye(2))[None]
    _run_block(fam, [Frame("a", [0.4, 0.2], np.eye(2)).packed()], 1.0, cfg, params=params)
    assert len(rk4_calls) == 20 and set(rk4_calls) == {(6,)}


def test_rows_that_diverge_hop_leave_and_pass_max_hops_at_one_step_equal_single_rows(monkeypatch):
    # strips of the plane, every one a box of the in_box family, carry one
    # constant field, so all four rows step as one group; at the second step
    # one row passes the state guard, one makes its first hop, one leaves
    # its strip with no chart to take it and one makes its second hop
    def strip(cid, lo, hi):
        return Chart(cid, 2, box_domain([lo, -100.0], [hi, 100.0]), [lo, -1.0], [hi, 1.0])

    charts = {c.id: c for c in (strip("far", 40.0, 60.0), strip("b1", 1.0, 2.0),
                                strip("b2", 1.8, 3.0), strip("c1", 3.0, 4.0),
                                strip("d1", -0.2, 0.2), strip("d2", 0.15, 0.28),
                                strip("d3", 0.25, 0.5))}
    same = Transition(lambda x: x + 0.0)
    for cid, tid in (("b1", "b2"), ("c1", "b1"), ("d1", "d2"), ("d2", "d3")):
        charts[cid].add_transition(tid, same)
    fld = constant_field(Atlas("strips", 2, charts.values()), "east", [1.0, 0.0])
    starts = [Point("far", [49.85, 0.0]), Point("b1", [1.78, 0.0]), Point("c1", [3.82, 0.0]),
              Point("d1", [0.1, 0.0])]
    monkeypatch.setattr(flows, "MAX_HOPS", 1)
    monkeypatch.setattr(flows, "STATE_GUARD", 50.0)
    cfg = IntegratorConfig(step=0.1)
    ends, t_ok, status = _block_equals_rows(fld, starts, np.full(4, 0.3), cfg)
    assert status == [DIVERGED, OK, LEFT_ATLAS, HOP_LIMIT]
    assert [e.chart for e in ends] == ["far", "b2", "c1", "d3"]
    assert t_ok == pytest.approx([0.1, 0.3, 0.1, 0.2])
