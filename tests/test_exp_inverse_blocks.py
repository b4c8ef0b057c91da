"""`exp_inverse` shoots each Newton iteration's 2n + 1 geodesics as one block.

The reference below is the one-shot-at-a-time Newton loop: one `exp_map`
per shot and `numdiff.jacobian` of the shooting map.  The block shooting
must give the same tangent bit for bit, and the same exception type and
message, because block rows step exactly as one-row runs and the
Jacobian columns keep the same difference quotient.
"""
import math

import numpy as np
import pytest

import oracles
from affinelab import geodesics, numdiff
from affinelab.atlas import Point, Tangent
from affinelab.errors import HopLimit, LeftAtlas, NoConvergence, NotInOverlap
from affinelab.flows import HOP_LIMIT, LEFT_ATLAS, IntegratorConfig
from affinelab.geodesics import exp_inverse, exp_map


def reference(conn, x, y, cfg, tol=1e-10, max_iter=50):
    """(tangent, iterations) of Newton shooting with one `exp_map` per shot."""
    atlas = conn.atlas
    try:
        y_in_x = atlas.transition(y, x.chart)
        target_chart, target = x.chart, y_in_x.coords
        v = y_in_x.coords - x.coords
    except NotInOverlap:
        try:
            x_in_y = atlas.transition(x, y.chart)
        except NotInOverlap:
            raise NoConvergence("x and y share no chart; target outside "
                                "the representable neighbourhood") from None
        target_chart, target = y.chart, y.coords
        dv = y.coords - x_in_y.coords
        v = atlas.d_transition(Point(y.chart, x_in_y.coords), x.chart) @ dv

    def shoot(vv):
        p = exp_map(conn, Tangent(x, vv), cfg)
        try:
            return atlas.transition(p, target_chart).coords
        except NotInOverlap:
            raise NoConvergence("shooting left the target chart; y likely "
                                "outside the normal neighbourhood") from None

    for it in range(max_iter):
        r = shoot(v) - target
        if np.linalg.norm(r) <= tol:
            return Tangent(x, v), it + 1
        J = numdiff.jacobian(shoot, v)
        try:
            delta = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular shooting Jacobian") from None
        v = v - delta
    raise NoConvergence(f"exp_inverse: no convergence after {max_iter} iterations "
                        "(target likely outside the normal neighbourhood)")


CFG = IntegratorConfig(step=1e-2)


def sphere_target(distance, seed):
    """Chart-`a` point (0.1, 0) and the point at geodesic `distance` from it
    in a random direction, given in chart a."""
    p = np.array([0.1, 0.0])
    X = oracles.chart_to_sphere(p, 1.0)
    U = np.random.default_rng(seed).normal(size=3)
    U -= (U @ X) * X
    U /= np.linalg.norm(U)
    Y = math.cos(distance) * X + math.sin(distance) * U
    return Point("a", p), Point("a", oracles.sphere_to_chart(Y, 1.0))


CASES = {
    **{f"sphere_{d}": (("sphere", "round"), *sphere_target(d, seed))
       for d, seed in ((0.5, 0), (1.0, 1), (1.5, 2))},
    "sphere_y_chart": (("sphere", "round"), Point("a", [1.7, 0.0]), Point("b", [0.45, 0.05])),
    "halfplane": (("halfplane", "hyperbolic"), Point("hp", [0.2, 1.0]), Point("hp", [-0.5, 0.6])),
    "flat_plane": (("plane", "flat"), Point("cart", [0.1, 0.1]), Point("cart", [1.4, -0.3])),
}


@pytest.mark.parametrize("name", list(CASES))
def test_block_shooting_is_bit_identical_to_one_shot_at_a_time(cat, name):
    manifold, x, y = CASES[name]
    conn = cat.connection(*manifold)
    want, _ = reference(conn, x, y, CFG)
    got = exp_inverse(conn, x, y, CFG)
    assert got.base is x and want.base is x
    assert (got.vec == want.vec).all()
    assert conn.atlas.gap(exp_map(conn, got, CFG), y) <= 1e-10


ERROR_CASES = {
    # past the equator the undamped shots leave chart a
    "left_target_chart": (("sphere", "round"), *sphere_target(2.0, 3), {}),
    "max_iter_exhausted": (("sphere", "round"), Point("a", [0.3, 0.2]), Point("a", [0.7, -0.1]),
                           {"max_iter": 2}),
    # a target under the real axis: the first shot leaves the half-plane
    "left_atlas": (("halfplane", "hyperbolic"), Point("hp", [0.0, 1.0]), Point("hp", [0.4, -0.3]),
                   {}),
}


@pytest.mark.parametrize("name", list(ERROR_CASES))
def test_block_shooting_raises_as_one_shot_at_a_time(cat, name):
    manifold, x, y, kw = ERROR_CASES[name]
    conn = cat.connection(*manifold)
    with pytest.raises(Exception) as want:
        reference(conn, x, y, CFG, **kw)
    with pytest.raises(Exception) as got:
        exp_inverse(conn, x, y, CFG, **kw)
    kind, start = {"left_target_chart": (NoConvergence, "shooting left the target chart"),
                   "max_iter_exhausted": (NoConvergence, "exp_inverse: no convergence after 2"),
                   "left_atlas": (LeftAtlas, "flow of 'geodesic[hyperbolic]' left the atlas")}[name]
    assert want.type is kind and str(want.value).startswith(start)
    assert got.type is want.type
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["sphere_1.0", "sphere_y_chart", "halfplane"])
def test_each_iteration_is_one_block_of_2n_plus_1_rows(cat, name):
    manifold, x, y = CASES[name]
    conn = cat.connection(*manifold)
    _, iterations = reference(conn, x, y, CFG)
    assert iterations > 1

    calls = []
    run_block = geodesics._run_block

    def counting(field, starts, t, cfg, *args, **kw):
        calls.append(len(starts))
        return run_block(field, starts, t, cfg, *args, **kw)

    def no_jacobian(*args, **kw):
        raise AssertionError("exp_inverse called numdiff.jacobian")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesics, "_run_block", counting)
        mp.setattr(numdiff, "jacobian", no_jacobian)
        exp_inverse(conn, x, y, CFG)
    assert calls == [2 * conn.atlas.dim + 1] * iterations


def failing_rows(failures, on_call=None):
    """A `_run_block` whose rows listed in `failures` (row -> status) stop
    at the start, on every call or only on call number `on_call` (0-based)."""
    run_block = geodesics._run_block
    count = [0]

    def run(field, starts, t, cfg, *args, **kw):
        ends, W, t_ok, status = run_block(field, starts, t, cfg, *args, **kw)
        if on_call is None or count[0] == on_call:
            for r, why in failures.items():
                t_ok[r], status[r] = 0.0, why
        count[0] += 1
        return ends, W, t_ok, status

    return run


def test_failed_stencil_rows_are_ignored_once_the_centre_converges(cat, monkeypatch):
    manifold, x, y = CASES["sphere_1.0"]
    conn = cat.connection(*manifold)
    want, iterations = reference(conn, x, y, CFG)
    # every stencil row of the last iteration fails; its centre has converged
    monkeypatch.setattr(geodesics, "_run_block",
                        failing_rows({r: LEFT_ATLAS for r in range(1, 5)}, on_call=iterations - 1))
    got = exp_inverse(conn, x, y, CFG)
    assert (got.vec == want.vec).all()


def test_first_failed_stencil_row_in_stencil_order_raises(cat, monkeypatch):
    manifold, x, y = CASES["sphere_1.0"]
    conn = cat.connection(*manifold)
    # rows: centre, v + h e0, v - h e0, v + h e1, v - h e1
    monkeypatch.setattr(geodesics, "_run_block", failing_rows({4: LEFT_ATLAS, 2: HOP_LIMIT}))
    with pytest.raises(HopLimit, match="exceeded max_hops"):
        exp_inverse(conn, x, y, CFG)


def test_failed_centre_raises_before_its_stencil_rows(cat, monkeypatch):
    manifold, x, y = CASES["sphere_1.0"]
    conn = cat.connection(*manifold)
    monkeypatch.setattr(geodesics, "_run_block", failing_rows({1: HOP_LIMIT, 0: LEFT_ATLAS}))
    with pytest.raises(LeftAtlas, match="left the atlas"):
        exp_inverse(conn, x, y, CFG)


def test_stencil_rows_are_jacobians_points_in_its_order():
    x = np.array([0.3, -1.7, 2.0])
    h, P = numdiff.stencil(x)
    assert h == numdiff.step1(x)
    seen = []
    numdiff.jacobian(lambda p: seen.append(p.copy()) or p, x)
    assert (np.array(seen) == P).all()


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_invalid_tol_is_a_value_error(cat, tol):
    conn = cat.connection("plane", "flat")
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        exp_inverse(conn, Point("cart", [0.0, 0.0]), Point("cart", [1.0, 0.0]), CFG, tol=tol)


@pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
def test_invalid_max_iter_is_a_value_error(cat, max_iter):
    conn = cat.connection("plane", "flat")
    with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
        exp_inverse(conn, Point("cart", [0.0, 0.0]), Point("cart", [1.0, 0.0]), CFG,
                    max_iter=max_iter)
