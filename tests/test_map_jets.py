"""Each map's image and derivatives come from one evaluation.

A transition's image, Jacobian and second derivative come from one
`Atlas.jet`, which calls `map` once; a closed-form diffeomorphism's from
one chart `jet` call.  Counting stubs pin the calls."""
import numpy as np
import pytest

from affinelab import geodesics
from affinelab.atlas import Point
from affinelab.catalog import rotation_matrix_3d, sphere_rotation
from affinelab.connection import change_of_variable_residual
from affinelab.flows import IntegratorConfig
from affinelab.geodesics import exp_inverse, exp_map


def _counted(calls, key, fn, one_point=False):
    """fn, counting its calls under `key` (one_point: only calls on one point)."""
    def wrapper(x, *args):
        if not one_point or np.ndim(x) == 1:
            calls[key] = calls.get(key, 0) + 1
        return fn(x, *args)

    return wrapper


def _count_transition(monkeypatch, atlas, source, target, one_point=False) -> dict:
    tr = atlas.chart(source).transitions[target]
    calls = {}
    for attr in ("map", "d", "d2"):
        monkeypatch.setattr(tr, attr, _counted(calls, attr, getattr(tr, attr), one_point))
    return calls


def test_change_of_variable_maps_its_point_once(cat, monkeypatch, rng):
    conn = cat.connection("sphere", "round")
    calls = _count_transition(monkeypatch, conn.atlas, "a", "b")
    v, w = rng.normal(size=(2, 2))
    change_of_variable_residual(conn, Point("a", [0.9, 0.3]), v, w, "b")
    assert calls == {"map": 1, "d": 1, "d2": 1}


def test_an_exp_inverse_iteration_that_ends_in_another_chart_maps_its_end_once(
        cat, monkeypatch):
    # every shot from x = (1.7, 0) in chart a to y = (1.95, 0) in chart a hops
    # to chart b near radius 1.8, so each end point is mapped back to chart a
    conn = cat.connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-2)
    x, y = Point("a", [1.7, 0.0]), Point("a", [1.95, 0.0])
    v = exp_inverse(conn, x, y, cfg)
    assert exp_map(conn, v, cfg).chart == "b"
    shots = {}
    monkeypatch.setattr(geodesics, "_run_block",
                        _counted(shots, "shots", geodesics._run_block))
    # the hop searches map blocks of rows; the end points are single points
    calls = _count_transition(monkeypatch, conn.atlas, "b", "a", one_point=True)
    assert np.array_equal(exp_inverse(conn, x, y, cfg).vec, v.vec)
    assert shots["shots"] >= 2
    assert calls == {"map": shots["shots"], "d": shots["shots"]}


def test_each_closed_form_call_evaluates_its_chart_jet_once(cat, monkeypatch, rng):
    f = sphere_rotation(cat.atlas("sphere"), rotation_matrix_3d(0, 0.7))
    calls = {}
    for cid, cm in f._charts.items():
        monkeypatch.setattr(cm, "jet", _counted(calls, cid, cm.jet))
    p, v = Point("a", [0.4, -0.2]), rng.normal(size=2)
    for call in (lambda: f.apply(p), lambda: f.jac(p), lambda: f.second([p], [v])):
        calls.clear()
        call()
        assert calls == {"a": 1}


def test_a_closed_form_second_refuses_rows_of_different_lengths_before_any_jet(
        cat, monkeypatch):
    # two points and one v: the lengths are checked first, so no chart jet runs
    f = sphere_rotation(cat.atlas("sphere"), rotation_matrix_3d(0, 0.7))
    calls = {}
    monkeypatch.setattr(f, "_jet", _counted(calls, "jet", f._jet))
    points = [Point("a", [0.4, -0.2]), Point("a", [0.1, 0.3])]
    with pytest.raises(ValueError, match="2 points and 1 vs"):
        f.second(points, [[1.0, 0.0]])
    assert calls == {}
