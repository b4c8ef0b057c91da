"""`exp_inverse` takes each Newton iteration's d exp from one shot's
variational columns.

Each iteration shoots v once, as a one-row block carrying the columns
[0; I] through the spray's closed-form Jacobian.  The reference below is
the same Newton loop written with the public `variational_flow`, one
call per shot: `exp_inverse` must give the same tangent bit for bit, and
the same exception type and message.  The finite-difference Newton loop
that shoots 2n + 1 geodesics per iteration (`fd_reference`) must reach
the same tangent within `tol`, in as many iterations.
"""
import math

import numpy as np
import pytest

import oracles
from affinelab import geodesics, numdiff
from affinelab.atlas import Point, Tangent
from affinelab.bundles import pack
from affinelab.errors import HopLimit, LeftAtlas, NoConvergence, NotInOverlap
from affinelab.flows import DIVERGED, HOP_LIMIT, LEFT_ATLAS, IntegratorConfig, variational_flow
from affinelab.geodesics import exp_inverse, exp_map, geodesic_field


def _newton(conn, x, y, tol, max_iter, shoot):
    """(tangent, iterations) of undamped Newton on `shoot`, v -> (end point
    in the target chart, its Jacobian in v), started as `exp_inverse` starts."""
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

    def into_target(p):
        try:
            return atlas.transition(p, target_chart).coords
        except NotInOverlap:
            raise NoConvergence("shooting left the target chart; y likely "
                                "outside the normal neighbourhood") from None

    for it in range(max_iter):
        end, J = shoot(v, into_target, target_chart)
        r = end - target
        if np.linalg.norm(r) <= tol:
            return Tangent(x, v), it + 1
        try:
            delta = np.linalg.solve(J(), r)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular shooting Jacobian") from None
        v = v - delta
    raise NoConvergence(f"exp_inverse: no convergence after {max_iter} iterations "
                        "(target likely outside the normal neighbourhood)")


def reference(conn, x, y, cfg, tol=1e-10, max_iter=50):
    """(tangent, iterations) of Newton shooting with one `variational_flow`
    of the spray from (x, v) with columns [0; I] per shot."""
    atlas, n = conn.atlas, conn.atlas.dim
    w0 = np.vstack([np.zeros((n, n)), np.eye(n)])

    def shoot(v, into_target, target_chart):
        end, W = variational_flow(geodesic_field(conn), Point(x.chart, pack(x.coords, v)), w0,
                                  1.0, cfg)
        p = Point(end.chart, end.coords[:n])

        def jac():
            if p.chart == target_chart:
                return W[:n]
            return atlas.d_transition(p, target_chart) @ W[:n]

        return into_target(p), jac

    return _newton(conn, x, y, tol, max_iter, shoot)


def fd_reference(conn, x, y, cfg, tol=1e-10, max_iter=50):
    """(tangent, iterations) of Newton shooting with one `exp_map` per shot
    and `numdiff.jacobian` of the shooting map."""
    def shoot(v, into_target, target_chart):
        def f(u):
            return into_target(exp_map(conn, Tangent(x, u), cfg))

        return f(v), lambda: numdiff.jacobian(f, v)

    return _newton(conn, x, y, tol, max_iter, shoot)


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
    # every shot hops to chart b: d exp is mapped back into the target chart a
    "sphere_hop": (("sphere", "round"), Point("a", [1.5, 0.0]), Point("a", [1.8, 0.3])),
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


@pytest.mark.parametrize("name", list(CASES))
def test_tangents_agree_with_finite_difference_newton(cat, name):
    manifold, x, y = CASES[name]
    conn = cat.connection(*manifold)
    want, fd_iterations = fd_reference(conn, x, y, CFG)
    _, iterations = reference(conn, x, y, CFG)
    got = exp_inverse(conn, x, y, CFG)
    assert iterations == fd_iterations
    assert np.linalg.norm(got.vec - want.vec) <= 1e-10


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


@pytest.mark.parametrize("name", ["sphere_1.0", "sphere_hop", "halfplane"])
def test_each_iteration_is_one_one_row_block(cat, name):
    manifold, x, y = CASES[name]
    conn = cat.connection(*manifold)
    n = conn.atlas.dim
    _, iterations = reference(conn, x, y, CFG)
    assert iterations > 1

    calls = []
    run_block = geodesics._run_block

    def counting(field, starts, t, cfg, w0=None, *args, **kw):
        calls.append((len(starts), t, np.array(w0)))
        return run_block(field, starts, t, cfg, w0, *args, **kw)

    def no_numdiff(*args, **kw):
        raise AssertionError("exp_inverse took a finite difference")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geodesics, "_run_block", counting)
        for fn in ("jacobian", "second_derivative", "directional"):
            mp.setattr(numdiff, fn, no_numdiff)
        exp_inverse(conn, x, y, CFG)
    assert len(calls) == iterations
    w0 = np.vstack([np.zeros((n, n)), np.eye(n)])[None]
    for rows, t, w in calls:
        assert (rows, t) == (1, 1.0)
        assert w.shape == w0.shape and (w == w0).all()


def failing_shot(status, on_call):
    """A `_run_block` whose row 0 stops at the start with `status` on call
    number `on_call` (0-based), and a list of the calls made."""
    run_block = geodesics._run_block
    calls = []

    def run(field, starts, t, cfg, *args, **kw):
        ends, W, t_ok, status_ = run_block(field, starts, t, cfg, *args, **kw)
        if len(calls) == on_call:
            t_ok[0], status_[0] = 0.0, status
        calls.append(len(starts))
        return ends, W, t_ok, status_

    return run, calls


@pytest.mark.parametrize("when, status, error", [
    ("first", LEFT_ATLAS, LeftAtlas), ("middle", HOP_LIMIT, HopLimit), ("last", DIVERGED, LeftAtlas)],
    ids=["first", "middle", "last"])
def test_failed_shot_raises_its_flows_error(cat, monkeypatch, when, status, error):
    manifold, x, y = CASES["sphere_1.5"]
    conn = cat.connection(*manifold)
    _, iterations = reference(conn, x, y, CFG)
    assert iterations > 2
    # the last iteration's shot has converged: its failure raises all the same
    on_call = {"first": 0, "middle": iterations // 2, "last": iterations - 1}[when]
    run, calls = failing_shot(status, on_call)
    monkeypatch.setattr(geodesics, "_run_block", run)
    with pytest.raises(error) as got:
        exp_inverse(conn, x, y, CFG)
    what = "exceeded max_hops" if status == HOP_LIMIT else "left the atlas"
    assert str(got.value) == f"flow of 'geodesic[round]' {what} near t=0"
    assert calls == [1] * (on_call + 1)


def test_stencil_rows_are_jacobians_points_in_its_order():
    x = np.array([0.3, -1.7, 2.0])
    h = numdiff.step1(x)
    seen = []
    J = numdiff.jacobian(lambda p: seen.append(p.copy()) or p, x)
    want = [x + s * h * e for e in np.eye(3) for s in (1.0, -1.0)]
    assert (np.array(seen) == np.array(want)).all()
    assert np.abs(J - np.eye(3)).max() <= 1e-10


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
