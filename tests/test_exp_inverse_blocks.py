"""`exp_inverse` takes each Newton iteration's d exp from one shot's
variational columns.

Each iteration shoots v once, as a one-row block carrying the columns
[0; I] through the spray's closed-form Jacobian.  The reference below is
the same Newton loop written with the public `variational_flow`, one
call per shot: `exp_inverse` must give the same tangent bit for bit, and
the same exception type and message.  The finite-difference Newton loop
that shoots 2n + 1 geodesics per iteration (`fd_reference`) must reach
the same tangent within `geodesics.NEWTON_TOL`, in as many iterations.
Both loops read the Newton constants at call time, as `exp_inverse` does.
"""
import math
import warnings

import numpy as np
import pytest

import oracles
from affinelab import geodesics, numdiff
from affinelab.atlas import Point, Tangent
from affinelab.bundles import pack
from affinelab.errors import HopLimit, LeftAtlas, NoConvergence, NotInOverlap
from affinelab.flows import DIVERGED, HOP_LIMIT, LEFT_ATLAS, IntegratorConfig, variational_flow
from affinelab.geodesics import exp_inverse, exp_map, geodesic_field


def _newton(conn, x, y, shoot):
    """(tangent, iterations) of undamped Newton on `shoot`, v -> (end point
    in the target chart, its Jacobian in v), started as `exp_inverse` starts:
    from the third-order inverse of exp in the chart that holds both points,
    written with the public `tensor` and `d_tensor_dir`."""
    atlas = conn.atlas
    for name, p in (("x", x), ("y", y)):
        if not (np.isfinite(p.coords).all() and atlas.chart(p.chart).contains(p.coords)):
            raise LeftAtlas(f"exp_inverse: {name} = {p!r} lies outside its chart {p.chart!r}")
    try:
        target_chart, at, target = x.chart, x.coords, atlas.transition(y, x.chart).coords
    except NotInOverlap:
        try:
            at = atlas.transition(x, y.chart).coords
        except NotInOverlap:
            raise NoConvergence("x and y share no chart; target outside "
                                "the representable neighbourhood") from None
        target_chart, target = y.chart, y.coords
    # v = d - S(d, d)/2 + (S(d, S(d, d)) - dT_d(d, d))/6, S the symmetric part of the tensor
    d, home = target - at, Point(target_chart, at)
    T = conn.tensor(home)
    S = 0.5 * (T + np.swapaxes(T, -1, -2))
    s = S @ d @ d
    v = d - 0.5 * s + (S @ s @ d - conn.d_tensor_dir(home, d) @ d @ d) / 6.0
    if target_chart != x.chart:  # back to x's chart through the inverse of dh at x
        v = np.linalg.solve(atlas.d_transition(x, target_chart), v)

    def into_target(p):
        try:
            return atlas.transition(p, target_chart).coords
        except NotInOverlap:
            raise NoConvergence("shooting left the target chart; y likely "
                                "outside the normal neighbourhood") from None

    for it in range(geodesics.NEWTON_MAX_ITER):
        end, J = shoot(v, into_target, target_chart)
        r = end - target
        if np.linalg.norm(r) <= geodesics.NEWTON_TOL:
            return Tangent(x, v), it + 1
        try:
            delta = np.linalg.solve(J(), r)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular shooting Jacobian") from None
        v = v - delta
    raise NoConvergence(f"exp_inverse: no convergence after {geodesics.NEWTON_MAX_ITER} "
                        "iterations (target likely outside the normal neighbourhood)")


def reference(conn, x, y, cfg):
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

    return _newton(conn, x, y, shoot)


def fd_reference(conn, x, y, cfg):
    """(tangent, iterations) of Newton shooting with one `exp_map` per shot
    and `numdiff.jacobian` of the shooting map."""
    def shoot(v, into_target, target_chart):
        def f(u):
            return into_target(exp_map(conn, Tangent(x, u), cfg))

        return f(v), lambda: numdiff.jacobian(f, v)

    return _newton(conn, x, y, shoot)


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


ERROR_CASES = {  # (manifold, x, y, NEWTON_MAX_ITER or None for the library's)
    # past the equator the undamped shots leave chart a
    "left_target_chart": (("sphere", "round"), *sphere_target(2.0, 3), None),
    "max_iter_exhausted": (("sphere", "round"), Point("a", [0.3, 0.2]), Point("a", [0.7, -0.1]),
                           2),
    # a far target inside the half-plane: a Newton iterate's shot leaves it
    "left_atlas": (("halfplane", "hyperbolic"), Point("hp", [0.0, 1.0]), Point("hp", [4.0, 0.3]),
                   None),
}


@pytest.mark.parametrize("name", list(ERROR_CASES))
def test_block_shooting_raises_as_one_shot_at_a_time(cat, monkeypatch, name):
    manifold, x, y, max_iter = ERROR_CASES[name]
    conn = cat.connection(*manifold)
    if max_iter is not None:
        monkeypatch.setattr(geodesics, "NEWTON_MAX_ITER", max_iter)
    with pytest.raises(Exception) as want:
        reference(conn, x, y, CFG)
    with pytest.raises(Exception) as got:
        exp_inverse(conn, x, y, CFG)
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
    what = "exceeded MAX_HOPS" if status == HOP_LIMIT else "left the atlas"
    assert str(got.value) == f"flow of 'geodesic[round]' {what} near t=0"
    assert calls == [1] * (on_call + 1)


def test_a_singular_shooting_jacobian_is_no_convergence(cat, monkeypatch):
    # every shot's variational columns zeroed: the first Newton solve fails
    manifold, x, y = CASES["sphere_1.5"]
    run_block = geodesics._run_block

    def run(*args, **kw):
        ends, W, t_ok, status = run_block(*args, **kw)
        return ends, np.zeros_like(W), t_ok, status

    monkeypatch.setattr(geodesics, "_run_block", run)
    with pytest.raises(NoConvergence, match="singular shooting Jacobian"):
        exp_inverse(cat.connection(*manifold), x, y, CFG)


def test_stencil_rows_are_jacobians_points_in_its_order():
    x = np.array([0.3, -1.7, 2.0])
    h = numdiff.step1(x)
    seen = []
    J = numdiff.jacobian(lambda p: seen.append(p.copy()) or p, x)
    want = [x + s * h * e for e in np.eye(3) for s in (1.0, -1.0)]
    assert (np.array(seen) == np.array(want)).all()
    assert np.abs(J - np.eye(3)).max() <= 1e-10


def first_shots(monkeypatch):
    """Wrap `geodesics._run_block`: the returned list gets the start velocity
    of each shot's row 0."""
    run_block = geodesics._run_block
    shots = []

    def run(field, starts, *args, **kw):
        n = len(starts[0].coords) // 2
        shots.append(starts[0].coords[n:].copy())
        return run_block(field, starts, *args, **kw)

    monkeypatch.setattr(geodesics, "_run_block", run)
    return shots


# the shots each case took when Newton started from the chart difference y - x
CHART_DIFFERENCE_SHOTS = {"sphere_0.5": 4, "sphere_1.0": 4, "sphere_1.5": 5, "sphere_y_chart": 4,
                          "sphere_hop": 4, "halfplane": 5, "flat_plane": 1}


@pytest.mark.parametrize("name", list(CASES))
def test_the_start_takes_no_more_shots_than_the_chart_difference(cat, monkeypatch, name):
    manifold, x, y = CASES[name]
    shots = first_shots(monkeypatch)
    exp_inverse(cat.connection(*manifold), x, y, CFG)
    assert len(shots) <= CHART_DIFFERENCE_SHOTS[name]


@pytest.mark.parametrize("manifold, x, scale", [
    (("sphere", "round"), Point("a", [0.1, 0.0]), 0.505),  # chart length of a unit tangent
    (("halfplane", "hyperbolic"), Point("hp", [0.2, 1.0]), 1.0)], ids=["sphere", "halfplane"])
def test_the_start_is_third_order(cat, monkeypatch, manifold, x, scale):
    # the first shot's error is O(d^4) in the target distance d: it falls about
    # 16-fold when d halves, where a second-order start's falls about 8-fold
    conn = cat.connection(*manifold)
    shots = first_shots(monkeypatch)
    for angle in (0.3, 1.9, 2.7, 4.5):
        u = scale * np.array([math.cos(angle), math.sin(angle)])
        errors = []
        for distance in (0.5, 0.25, 0.125):
            y = exp_map(conn, Tangent(x, distance * u), CFG)
            shots.clear()
            v = exp_inverse(conn, x, y, CFG)
            errors.append(np.linalg.norm(shots[0] - v.vec))
        assert errors[0] >= 6.0 * errors[1]
        assert errors[1] >= 11.0 * errors[2]


def test_the_flat_start_is_the_chart_difference(cat, monkeypatch):
    _, x, y = CASES["flat_plane"]
    shots = first_shots(monkeypatch)
    exp_inverse(cat.connection("plane", "flat"), x, y, CFG)
    assert len(shots) == 1 and (shots[0] == y.coords - x.coords).all()


def torsion_sphere(cat):
    """The round sphere's tensor plus the antisymmetric part
    (1 + x_0) w_i (delta_j0 delta_k1 - delta_j1 delta_k0), which moves no
    geodesic; `bilinear` is left to `ConnectionField` to derive."""
    from affinelab.connection import ConnChart, ConnectionField
    round_ = cat.connection("sphere", "round")
    A = np.einsum("i,jk->ijk", [0.7, -0.3], [[0.0, 1.0], [-1.0, 0.0]])
    charts = {}
    for cid in ("a", "b"):
        cc = round_._chart(cid)
        charts[cid] = ConnChart(
            tensor=lambda x, cc=cc: cc.tensor(x) + (1.0 + x[..., 0, None, None, None]) * A,
            d_dir=lambda x, u, cc=cc: cc.d_dir(x, u) + u[..., 0, None, None, None] * A)
    return ConnectionField(round_.atlas, "round_torsion", charts)


@pytest.mark.parametrize("name", ["sphere_0.5", "sphere_1.0", "sphere_y_chart", "sphere_hop"])
def test_torsion_does_not_change_the_start(cat, monkeypatch, name):
    manifold, x, y = CASES[name]
    shots = first_shots(monkeypatch)
    want = exp_inverse(cat.connection(*manifold), x, y, CFG)
    want_first = shots[0]
    shots.clear()
    got = exp_inverse(torsion_sphere(cat), x, y, CFG)
    assert np.abs(shots[0] - want_first).max() <= 1e-14
    assert np.linalg.norm(got.vec - want.vec) <= 1e-10


@pytest.mark.parametrize("x, y, name", [
    (Point("a", [0.1, 0.0]), Point("a", [4.45, 0.0]), "y"),
    (Point("a", [0.1, 0.0]), Point("a", [math.nan, 0.0]), "y"),
    (Point("a", [0.1, 0.0]), Point("a", [math.inf, 0.0]), "y"),
    (Point("a", [3.0, 0.0]), Point("a", [0.1, 0.0]), "x")],
    ids=["y_outside", "y_nan", "y_infinite", "x_outside"])
def test_an_endpoint_outside_its_chart_raises_before_any_shot(cat, monkeypatch, x, y, name):
    shots = first_shots(monkeypatch)
    with warnings.catch_warnings(), pytest.raises(LeftAtlas) as got:
        warnings.simplefilter("error")  # no RuntimeWarning from a shot through inf
        exp_inverse(cat.connection("sphere", "round"), x, y, CFG)
    p = x if name == "x" else y
    assert str(got.value) == f"exp_inverse: {name} = {p!r} lies outside its chart 'a'"
    assert shots == []
