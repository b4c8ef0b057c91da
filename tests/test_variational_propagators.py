"""Variational flows as chunked products of RK4 step propagators.

`flows._integrate` steps only the base state; the variational columns W
move by I + D, the product of the RK4 step propagators of w' = d xi(x) w
built from the Jacobians at the recorded stage states, one `d` call per
chunk and span.  The reference below is the combined-state loop it
replaced: W rides as extra state columns through every `_rk4` call, so
each stage calls `d` once.  Both take the same RK4 in exact arithmetic;
the base states must agree bit for bit and W to round-off.
"""
import math
from functools import partial

import numpy as np
import pytest

from affinelab import flows
from affinelab.atlas import Point
from affinelab.bundles import pack
from affinelab.errors import LeftAtlas
from affinelab.flows import (DIVERGED, HOP_LIMIT, LEFT_ATLAS, OK, ChartField, IntegratorConfig,
                             VectorField, _rk4, _run_block)
from affinelab.frame_bundle import Frame, kappa_inverse_family, standard_horizontal
from test_flow_groups import _block_equals_rows


def _reference_rhs(field, cid, n, k, p=None):
    cf = field.chart_field(cid)
    f, dj = cf.value, cf.d
    if p is not None:
        f, dj = (lambda x: cf.value(x, p)), (lambda x: cf.d(x, p))

    def rhs(z):
        x = z[..., :n]
        W = z[..., n:].reshape(z.shape[:-1] + (n, k))
        return np.concatenate([np.asarray(f(x), float),
                               (dj(x) @ W).reshape(z.shape[:-1] + (n * k,))], axis=-1)

    return rhs


def reference_block(field, starts, t, cfg, w0, params=None):
    """`_run_block` with W as extra state columns, stepped with the state:
    the same rows in the same groups, hops and stops, one `d` call per
    stage.  Returns (end points, W, t_reached, statuses)."""
    atlas = field.atlas
    n = atlas.dim
    m = len(starts)
    w0 = np.asarray(w0, float)
    k = w0[0].size // n
    z = np.concatenate([np.array([p.coords for p in starts], float).reshape(m, n),
                        w0.reshape(m, n * k)], axis=1)
    cids = [p.chart for p in starts]
    ts = [float(ti) for ti in np.broadcast_to(np.asarray(t, float), (m,))]
    steps = [max(1, int(math.ceil(abs(ti) / cfg.step - 1e-12))) if ti != 0.0 else 0 for ti in ts]
    hs = [ti / s if s else 0.0 for ti, s in zip(ts, steps)]
    h = np.array(hs)[:, None]
    whole = (0, hs[0]) if m == 1 else (..., h)
    params = None if params is None else np.asarray(params, float).reshape(m, field.params)

    def keyed(cid):
        cf = field.chart_field(cid)
        test = atlas.chart(cid).contains_fn
        fam = (test.func, test.args[0]) if isinstance(test, partial) else (test, None)
        return (cf.value, cf.d), *fam

    tparams = {}

    def place(r, cid):
        _, fam, p = keyed(cid)
        if p is not None:
            tparams.setdefault(fam, np.empty((m,) + np.shape(p)))[r] = p

    for r, cid in enumerate(cids):
        place(r, cid)
    status, reached, hops = [OK] * m, list(steps), [0] * m
    live = {r for r in range(m) if steps[r]}
    plan = None

    def stop(r, why, at):
        nonlocal plan
        status[r], reached[r], plan = why, at, None
        live.discard(r)

    def groups():
        by_key = {}
        for r in sorted(live):
            by_key.setdefault(keyed(cids[r])[0], []).append(r)
        out = []
        for rs in by_key.values():
            sel, h_sel = whole if len(rs) == m else (np.array(rs), h[rs])
            tests = {}
            for j, r in enumerate(rs):
                tests.setdefault(keyed(cids[r])[1], []).append(j)
            tests = [(fn, np.array(js), tparams.get(fn), sel if len(js) == m else np.array(rs)[js])
                     for fn, js in tests.items()]
            p = None if params is None else params[sel]
            out.append((sel, h_sel, _reference_rhs(field, cids[rs[0]], n, k, p), tests))
        return out

    for i in range(max(steps, default=0)):
        if plan is None:
            plan = groups()
        for sel, h_sel, rhs_fn, tests in plan:
            zs = _rk4(rhs_fn, z[sel], h_sel, 0.5 * h_sel, h_sel / 6.0)
            z[sel] = zs
            xs = zs[..., :n]
            sound = (xs * xs).sum(axis=-1) <= flows.STATE_GUARD ** 2
            inside = np.empty(np.shape(sound), bool).reshape(-1)
            for contains, sub, P, at in tests:
                x_sub = xs if xs.ndim == 1 else xs[sub]
                inside[sub] = (contains(x_sub, flows.RECHART_MARGIN) if P is None
                               else contains(P[at], x_sub, flows.RECHART_MARGIN))
            idx = sel if isinstance(sel, np.ndarray) else np.arange(m)
            sound = np.reshape(sound, -1)
            for r in idx[~sound]:
                stop(r, DIVERGED, i)
            out = idx[sound & ~inside]
            X = z[out, :n]
            if m == 1 and out.size:
                hop = atlas.hop_target(cids[0], X[0], flows.RECHART_MARGIN)
                targets, Y = ([None], X) if hop is None else ([hop[0]], [hop[1]])
            else:
                targets, Y = atlas.hop_targets([cids[r] for r in out], X, flows.RECHART_MARGIN)
            for j, r in enumerate(out):
                cid, tid = cids[r], targets[j]
                if tid is None:
                    if not atlas.chart(cid).contains(X[j]):
                        stop(r, LEFT_ATLAS, i)
                    continue
                J = atlas.chart(cid).transitions[tid].d(X[j])
                z[r, n:] = (np.asarray(J, float) @ z[r, n:].reshape(n, k)).ravel()
                z[r, :n] = Y[j]
                if keyed(tid)[:2] != keyed(cid)[:2]:
                    plan = None
                cids[r] = tid
                place(r, tid)
                hops[r] += 1
                if hops[r] > flows.MAX_HOPS:
                    stop(r, HOP_LIMIT, i + 1)
        done = {r for r in live if steps[r] == i + 1}
        if done:
            live -= done
            plan = None
        if not live:
            break
    t_ok = [reached[r] * hs[r] if reached[r] else 0.0 for r in range(m)]
    W = z[:, n:].reshape(w0.shape)
    return [Point(c, x) for c, x in zip(cids, z[:, :n])], W, t_ok, status


def assert_matches_reference(field, starts, t, cfg, w0, params=None):
    """Run the block both ways: equal charts, base bytes, reach times and
    statuses, and W within 1e-13 of the reference, relative to its size."""
    ends, W, t_ok, status = _run_block(field, starts, t, cfg, w0, params=params)
    ref_ends, ref_W, ref_t, ref_status = reference_block(field, starts, t, cfg, w0, params)
    assert [e.chart for e in ends] == [e.chart for e in ref_ends]
    assert all(np.array_equal(e.coords, r.coords) for e, r in zip(ends, ref_ends))
    assert (t_ok, status) == (ref_t, ref_status)
    for got, want in zip(W, ref_W):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    return ends, status


def _frames(rng, placed):
    return [Frame(c, x, np.eye(2) + 0.1 * rng.normal(size=(2, 2))).packed() for c, x in placed]


def test_one_row_longer_than_a_chunk(cat, rng):
    H = standard_horizontal(cat.connection("sphere", "round"), [0.3, -0.2])
    cfg = IntegratorConfig(step=1e-3)
    assert 0.7 / cfg.step > 2 * flows._CHUNK
    ends, _ = assert_matches_reference(H, _frames(rng, [("a", [0.1, 0.2])]), 0.7, cfg,
                                       rng.normal(size=(1, 6, 6)))
    assert ends[0].chart == "a"


def test_sphere_row_hopping_mid_chunk(cat, rng):
    H = standard_horizontal(cat.connection("sphere", "round"), [0.9, 0.2])
    cfg = IntegratorConfig(step=1e-2)
    ends, _ = assert_matches_reference(H, _frames(rng, [("a", [1.3, 0.1])]), 1.0, cfg,
                                       rng.normal(size=(1, 6, 2)))
    assert ends[0].chart == "b"


def test_block_rows_with_different_durations_and_charts(cat, rng):
    H = standard_horizontal(cat.connection("sphere", "round"), [0.9, 0.2])
    starts = _frames(rng, [("a", [1.3, 0.1]), ("b", [1.1, 0.3]), ("a", [0.4, 0.2]),
                           ("b", [-0.5, 1.4])])
    ends, _ = assert_matches_reference(H, starts, np.array([3.0, 1.0, 2.7, 0.4]),
                                       IntegratorConfig(step=1e-2), rng.normal(size=(4, 6, 3)))
    assert [e.chart for e in ends] != [s.chart for s in starts]


def test_kappa_inverse_family_block_with_parameter_rows(cat, rng):
    fam = kappa_inverse_family(cat.connection("sphere", "round"))
    starts = _frames(rng, [("a", [1.3, 0.1]), ("b", [1.1, 0.3]), ("a", [0.4, 0.2])])
    params = np.array([pack(0.8 * rng.normal(size=2), 0.3 * rng.normal(size=(2, 2)))
                       for _ in starts])
    assert_matches_reference(fam, starts, np.array([3.0, 2.0, 0.7]), IntegratorConfig(step=1e-2),
                             rng.normal(size=(3, 6, 6)), params)


def test_backward_flow(cat, rng):
    H = standard_horizontal(cat.connection("sphere", "round"), [0.9, 0.2])
    ends, _ = assert_matches_reference(H, _frames(rng, [("b", [0.2, -0.1])]), -3.0,
                                       IntegratorConfig(step=1e-2), rng.normal(size=(1, 6, 6)))
    assert ends[0].chart == "a"


def test_a_row_leaving_the_atlas_leaves_the_other_rows_right(cat, rng):
    H = standard_horizontal(cat.connection("disk", "flat"), [0.6, 0.1])
    starts = _frames(rng, [("disk", [0.2, 0.1]), ("disk", [-0.3, 0.2]), ("disk", [-0.6, -0.1])])
    _, status = assert_matches_reference(H, starts, np.array([0.5, 3.0, 0.8]),
                                         IntegratorConfig(step=1e-2), rng.normal(size=(3, 6, 6)))
    assert status == [OK, LEFT_ATLAS, OK]
    with pytest.raises(LeftAtlas):
        flows.variational_flow(H, starts[1], np.eye(6), 3.0, IntegratorConfig(step=1e-2))


def test_d_is_called_once_per_chunk_and_flush_and_value_four_times_per_step(cat, rng,
                                                                              monkeypatch):
    H = standard_horizontal(cat.connection("sphere", "round"), [0.9, 0.2])
    calls = {"value": 0, "d": 0, "hops": 0}
    shared = {}

    def counted(fn, key):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)

        return shared.setdefault(fn, wrapped)  # charts that share a callable still share it

    charts = {cid: ChartField(counted(H.chart_field(cid).value, "value"),
                              counted(H.chart_field(cid).d, "d"))
              for cid in H.atlas.charts}
    fld = VectorField(H.atlas, "counted", charts)
    hop_target = type(H.atlas).hop_target

    def hop_counted(self, *args):
        hop = hop_target(self, *args)
        calls["hops"] += hop is not None
        return hop

    monkeypatch.setattr(type(H.atlas), "hop_target", hop_counted)
    cfg = IntegratorConfig(step=1e-2)
    t = 6.0  # goes around the sphere, hopping between the charts
    flows.variational_flow(fld, Frame("a", [1.3, 0.1], np.eye(2)).packed(), np.eye(6), t, cfg)
    steps = math.ceil(t / cfg.step - 1e-12)
    assert calls["hops"] >= 2
    assert calls["value"] == 4 * steps
    assert math.ceil(steps / flows._CHUNK) <= calls["d"] <= (math.ceil(steps / flows._CHUNK)
                                                             + calls["hops"])


@pytest.mark.parametrize("max_hops", [1, 0])
def test_rows_that_stop_before_their_finish_flush_once(cat, monkeypatch, max_hops):
    # rows 1 and 2 diverge at steps 48 and 56, long before their scheduled
    # finishes at 130 and 270, while row 0 runs on across the chunk end to
    # step 300; with no hops allowed, rows stop at the hop limit too
    H = standard_horizontal(cat.connection("sphere", "round"), [0.9, 0.2])
    rng = np.random.default_rng(5)
    placed = [("a", [1.3, 0.1]), ("b", [1.1, 0.3]), ("a", [0.4, 0.2]), ("a", [1.5, -0.2])]
    ts = [3.0, 1.3, 2.7, 0.4]
    if max_hops == 0:
        placed, ts = placed + [("b", [0.1, 0.1])], ts + [2.9]
    starts, ts = _frames(rng, placed), np.array(ts)
    w0 = rng.normal(size=(len(starts), 6, 3))
    monkeypatch.setattr(flows, "MAX_HOPS", max_hops)
    monkeypatch.setattr(flows, "STATE_GUARD", 3.2)
    cfg = IntegratorConfig(step=1e-2)
    assert 3.0 / cfg.step > flows._CHUNK
    _, status = assert_matches_reference(H, starts, ts, cfg, w0)
    _block_equals_rows(H, starts, ts, cfg, w0)
    want = [OK, DIVERGED, DIVERGED, OK] if max_hops else [HOP_LIMIT, DIVERGED, DIVERGED,
                                                          HOP_LIMIT, DIVERGED]
    assert status == want
