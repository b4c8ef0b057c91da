"""Flow words evaluated over a sample set as one block per segment, and
blocks of the kappa^{-1} family with one parameter row per trajectory.

Every block result is compared with the per-sample loop the block
replaced, kept here as the reference: `integrate` and `variational_flow`
composed segment by segment, one point at a time (for the family, of the
member `kappa_inverse_field(lam, A)` of each row).  A second derivative
d2 f(v, w) is referenced the same way, by the variational flow of each
segment's natural lift from the frame (x, I) with the column (v, 0),
whose fiber part is d2 f(v, .).  A block steps all rows through batched
numpy calls while the reference steps one 1-D state, so their sums may
round differently; each RK4 step may then differ by a few units of
rounding, set from the float64 epsilon, and the differences add up over
the steps taken.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinelab.atlas import Point, Tangent
from affinelab.automorphism import (FlowWord, affine_residual, exp_commutes_defect, frame_lift,
                                    kappa_pullback_defect)
from affinelab.bundles import frame_atlas, pack, unpack
from affinelab.errors import LeftAtlas
from affinelab.catalog import default_catalog
from affinelab.flows import (OK, IntegratorConfig, _run_block, commutation_defect,
                             constant_field, integrate, variational_flow)
from affinelab.frame_bundle import (Frame, FrameTangent, kappa_inverse_family,
                                    kappa_inverse_field, standard_horizontal)
from affinelab.geodesics import exp_map, exp_map_rows
from affinelab.killing import bracket, lift_commutation_defect, natural_lift

EPS = np.finfo(float).eps
ROWS = 6
# manifold -> (connection, word); the sphere and torus words hop charts and
# their rows end in different charts
WORDS = {
    "sphere": ("round", [("rot_x", -1.0), ("rot_z", 0.6)]),
    "torus": ("flat", [("t_trans_x", 0.9), ("t_trans_y", -0.45)]),
    "halfplane": ("hyperbolic", [("hyp_conf", 0.4)]),
    "plane": ("flat", [("rotation", 0.8)]),
}


# fields the library's constructors build, each flowed in a one-segment
# word: (manifold, connection, builder, duration)
BUILT = {
    "constant": ("torus", "flat", lambda cat, atlas: constant_field(atlas, "c", [0.7, -0.3]), 1.3),
    "bracket": ("sphere", "round", lambda cat, atlas: bracket(cat.field("sphere", "rot_x"),
                                                              cat.field("sphere", "rot_y")), 0.8),
}


def _setup(cat, manifold, rng):
    cname, word = WORDS[manifold]
    atlas = cat.atlas(manifold)
    cfg = IntegratorConfig(step=1e-2)
    f = FlowWord(atlas, [(cat.field(manifold, name), t) for name, t in word], cfg)
    cid = atlas.chart_order()[0]
    points = atlas.sample_points(cid, ROWS, rng)
    steps = sum(int(np.ceil(abs(t) / cfg.step)) for _, t in word)
    return atlas, cat.connection(manifold, cname), f, points, steps


def _bound(steps):
    return 16 * EPS * steps


def _ref_jac(f, p):
    J = np.eye(f.atlas.dim)
    for fld, t in f.word:
        p, J = variational_flow(fld, p, J, t, f.cfg)
    return J, p


def _ref_d2(f, p, v, w):
    """(d2 f(x)(v, w), chart of f(x)) from the lifted word, one segment
    at a time: the fiber part of the pushed column (v, 0) at (x, I)."""
    n = f.atlas.dim
    z, col = Frame(p.chart, p.coords, np.eye(n)).packed(), pack(v, np.zeros((n, n)))
    for fld, t in f.word:
        z, col = variational_flow(natural_lift(fld), z, col, t, f.cfg)
    return unpack(col, n, n)[1] @ w, z.chart


def _close(a, b, bound):
    np.testing.assert_allclose(a, b, rtol=0, atol=bound * max(1.0, np.abs(b).max()))


@pytest.mark.parametrize("manifold", sorted(WORDS))
def test_block_push_equals_per_sample_flows(cat, rng, manifold):
    atlas, _, f, points, steps = _setup(cat, manifold, rng)
    n = atlas.dim
    ends, _ = f.push(points)
    ends_j, Js = f.push(points, np.broadcast_to(np.eye(n), (ROWS, n, n)))
    vecs = rng.normal(size=(ROWS, n))
    ends_t, Ws = f.push(points, vecs[..., None])
    if manifold in ("sphere", "torus"):
        assert len({e.chart for e in ends}) > 1
    for i, p in enumerate(points):
        q = p
        for fld, t in f.word:
            q = integrate(fld, q, t, f.cfg)
        J, q_jac = _ref_jac(f, p)
        assert ends[i].chart == ends_j[i].chart == ends_t[i].chart == q.chart == q_jac.chart
        _close(ends[i].coords, q.coords, _bound(steps))
        _close(ends_j[i].coords, q.coords, _bound(steps))
        _close(Js[i], J, _bound(steps))
        _close(Ws[i][:, 0], J @ vecs[i], _bound(steps))
        # the one-point methods are one-row pushes
        assert f.apply(p).chart == q.chart
        _close(f.apply(p).coords, q.coords, _bound(steps))
        _close(f.jac(p)[0], J, _bound(steps))
        _close(f.tangent(Tangent(p, vecs[i])).vec, J @ vecs[i], _bound(steps))


@pytest.mark.parametrize("manifold", sorted(WORDS))
def test_block_second_derivatives_and_affine_residual(cat, rng, manifold):
    atlas, conn, f, points, steps = _setup(cat, manifold, rng)
    vs, ws = rng.normal(size=(2, ROWS, atlas.dim))
    jets = f.jets(points, vs, ws)
    res = affine_residual(f, conn, conn, points, vs, ws)
    assert res.shape == (ROWS, atlas.dim)
    for i, p in enumerate(points):
        J, out = _ref_jac(f, p)
        d2, d2_chart = _ref_d2(f, p, vs[i], ws[i])
        assert jets[i][1].chart == out.chart == d2_chart
        _close(jets[i][0], J, _bound(steps))
        _close(jets[i][2], d2, _bound(steps))
        _close(f.d2_dir(p, vs[i], ws[i]), d2, _bound(steps))
        ref = d2 + J @ conn.eval_B(p, vs[i], ws[i]) - conn.eval_B(out, J @ vs[i], J @ ws[i])
        _close(res[i], ref, _bound(steps))
        one = affine_residual(f, conn, conn, [p], vs[i:i + 1], ws[i:i + 1])[0]
        _close(one, ref, _bound(steps))


@pytest.mark.parametrize("manifold", sorted(WORDS))
def test_second_gives_the_bits_of_the_jacobian_push(cat, rng, manifold):
    # second carries its second-order columns beside the Jacobian columns
    # of push(points, I) on the base flow, so its images and df are the
    # push's bit for bit, across the sphere's and torus's chart hops too
    atlas, _, f, points, _ = _setup(cat, manifold, rng)
    n = atlas.dim
    ends, Js = f.push(points, np.broadcast_to(np.eye(n), (ROWS, n, n)))
    jets = f.second(points, rng.normal(size=(ROWS, n)))
    for end, J, (out, df, _) in zip(ends, Js, jets, strict=True):
        assert out.chart == end.chart
        assert out.coords.tobytes() == end.coords.tobytes()
        assert df.tobytes() == J.tobytes()


@pytest.mark.parametrize("kind", sorted(BUILT))
def test_built_fields_run_as_blocks(cat, rng, kind):
    # d2_dir carries second-order columns through the word, calling each
    # chart's d2, so fields that do not come from the catalog must hand
    # out a d2 that takes blocks as well
    manifold, cname, build, t = BUILT[kind]
    atlas, conn = cat.atlas(manifold), cat.connection(manifold, cname)
    cfg = IntegratorConfig(step=1e-2)
    f = FlowWord(atlas, [(build(cat, atlas), t)], cfg)
    points = atlas.sample_points(atlas.chart_order()[0], ROWS, rng)
    steps = int(np.ceil(t / cfg.step))
    vs, ws = rng.normal(size=(2, ROWS, atlas.dim))
    res = affine_residual(f, conn, conn, points, vs, ws)
    if kind == "constant":
        assert len({e.chart for e in f.push(points)[0]}) > 1
    for i, p in enumerate(points):
        J, out = _ref_jac(f, p)
        d2, _ = _ref_d2(f, p, vs[i], ws[i])
        _close(f.d2_dir(p, vs[i], ws[i]), d2, _bound(steps))
        ref = d2 + J @ conn.eval_B(p, vs[i], ws[i]) - conn.eval_B(out, J @ vs[i], J @ ws[i])
        _close(res[i], ref, _bound(steps))


def test_horizontal_field_word_pushes_frames_as_rows(cat, rng):
    conn = cat.connection("sphere", "round")
    n = conn.atlas.dim
    cfg = IntegratorConfig(step=1e-2)
    fr_atlas = frame_atlas(conn.atlas)
    f = FlowWord(fr_atlas, [(standard_horizontal(conn, [0.6, -0.4]), 0.7)], cfg)
    starts = [Frame("a", p.coords, np.eye(n) + rng.uniform(-0.2, 0.2, size=(n, n))).packed()
              for p in conn.atlas.sample_points("a", ROWS, rng)]
    N = n + n * n
    ends, Js = f.push(starts, np.broadcast_to(np.eye(N), (ROWS, N, N)))
    for z, end, J in zip(starts, ends, Js):
        ref, J_ref = variational_flow(f.word[0][0], z, np.eye(N), 0.7, cfg)
        assert end.chart == ref.chart
        _close(end.coords, ref.coords, _bound(70))
        _close(J, J_ref, _bound(70))


@pytest.mark.parametrize("manifold", ["sphere", "halfplane"])
def test_block_tangent_frame_equals_per_sample_lift_flows(cat, rng, manifold):
    atlas, conn, f, points, steps = _setup(cat, manifold, rng)
    n = atlas.dim
    fd = frame_lift(f)
    frames = [Frame(p.chart, p.coords, np.eye(n) + rng.uniform(-0.2, 0.2, size=(n, n)))
              for p in points]
    fts = [FrameTangent(rng.normal(size=n), rng.normal(size=(n, n))) for _ in points]
    images, pushed = fd.tangent_frame(frames, fts)
    defects = kappa_pullback_defect(conn, fd, frames, fts)
    for fr, ft, F, TF, defect in zip(frames, fts, images, pushed, defects):
        z, wt = fr.packed(), pack(ft.v, ft.w)
        for fld, dur in f.word:
            z, wt = variational_flow(natural_lift(fld), z, wt, dur, f.cfg)
        x, g = unpack(z.coords, n, n)
        v, w = unpack(wt, n, n)
        assert F.chart == z.chart
        _close(F.x, x, _bound(steps))
        _close(F.g, g, _bound(steps))
        _close(TF.v, v, _bound(steps))
        _close(TF.w, w, _bound(steps))
        _close(fd.tangent_frame([fr], [ft])[1][0].w, w, _bound(steps))
        assert abs(defect - kappa_pullback_defect(conn, fd, [fr], [ft])[0]) <= _bound(steps)


def test_block_exp_map_and_exp_commutes_equal_single_calls(cat, cfg, rng):
    conn = cat.connection("sphere", "round")
    f = FlowWord(conn.atlas, [(cat.field("sphere", "rot_y"), -1.0)], IntegratorConfig(step=1e-2))
    tangents = [Tangent(p, rng.normal(size=2)) for p in conn.atlas.sample_points("a", ROWS, rng)]
    ends = exp_map_rows(conn, tangents, cfg)
    gaps = exp_commutes_defect(conn, f, tangents, cfg)
    for t, e, gap in zip(tangents, ends, gaps):
        one = exp_map(conn, t, cfg)
        assert e.chart == one.chart
        _close(e.coords, one.coords, _bound(1000))
        assert abs(gap - exp_commutes_defect(conn, f, [t], cfg)[0]) <= _bound(1100)


def test_block_raises_the_first_failing_rows_error(cat, cfg):
    # on the unit disk a translation leaves the atlas.  Row 2 fails in the
    # first segment, row 1 only in the second, yet row 1's error is the
    # one raised, as the per-sample loop raised it
    disk = cat.atlas("disk")
    fld = constant_field(disk, "right", [1.0, 0.0])
    f = FlowWord(disk, [(fld, 0.5), (fld, 0.4)], cfg)
    points = [Point("disk", [-0.7, 0.0]), Point("disk", [0.2, 0.0]), Point("disk", [0.6, 0.0])]
    with pytest.raises(LeftAtlas) as alone:
        f.apply(points[1])
    with pytest.raises(LeftAtlas) as block:
        f.push(points)
    assert str(block.value) == str(alone.value)
    # the rows that do not fail run through every segment
    end = f.push(points[:1])[0][0]
    np.testing.assert_allclose(end.coords, [0.2, 0.0], atol=1e-12)


def test_stencil_rows_ending_in_another_chart_are_recharted(cat, rng):
    # a sample whose flow ends just inside chart a's hand-off margin
    # (|x| < 1.8): rows started 1e-4 along +-w from it end in chart b and
    # chart a, so the frame row's end chart, and the second derivative
    # carried there, must be the per-sample lifted flow's
    conn = cat.connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-2)
    fld = cat.field("sphere", "rot_x")
    f = FlowWord(conn.atlas, [(fld, -0.5)], cfg)
    p = integrate(fld, Point("a", [0.0, 1.8 - 1e-6]), 0.5, cfg)
    v, w = rng.normal(size=2), np.array([0.0, 1.0])
    ends = f.push([Point("a", p.coords + 1e-4 * w), Point("a", p.coords - 1e-4 * w)])[0]
    assert [e.chart for e in ends] == ["b", "a"]
    (J, out, d2), = f.jets([p], [v], [w])
    ref, ref_chart = _ref_d2(f, p, v, w)
    assert out.chart == ref_chart == "a"
    _close(d2, ref, _bound(50))
    res = affine_residual(f, conn, conn, [p], v[None], w[None])
    assert np.linalg.norm(res) <= 1e-5


# -- the kappa^{-1} family: per-row parameters ------------------------------------------

CONNECTIONS = [(m, c) for m in default_catalog().manifold_names()
               for c in default_catalog().connection_names(m)]


def _family_block_matches_single_fields(conn, starts, lams, As, ts, cfg):
    """Push `starts` as one block of the kappa^{-1} family, parameter row
    (lam_i, A_i) and duration t_i per row, with Jacobian columns, and
    compare each row with the one-row flow of kappa_inverse_field(lam_i, A_i)."""
    n = conn.atlas.dim
    N = n + n * n
    params = [pack(lam, A) for lam, A in zip(lams, As)]
    ends, Js, _, status = _run_block(kappa_inverse_family(conn), starts, ts, cfg,
                                     np.broadcast_to(np.eye(N), (len(starts), N, N)), params=params)
    assert status == [OK] * len(starts)
    for z, lam, A, t, end, J in zip(starts, lams, As, ts, ends, Js):
        ref, J_ref = variational_flow(kappa_inverse_field(conn, lam, A), z, np.eye(N), t, cfg)
        steps = int(np.ceil(t / cfg.step))
        assert end.chart == ref.chart
        _close(end.coords, ref.coords, _bound(steps))
        _close(J, J_ref, _bound(steps))
    return ends


@pytest.mark.parametrize("manifold,connection", CONNECTIONS,
                         ids=[f"{m}-{c}" for m, c in CONNECTIONS])
def test_kappa_inverse_family_block_equals_single_fields(cat, rng, manifold, connection):
    conn = cat.connection(manifold, connection)
    n = conn.atlas.dim
    cid = conn.atlas.chart_order()[0]
    chart = conn.atlas.chart(cid)
    center = 0.5 * (chart.sample_lo + chart.sample_hi)
    starts = [Frame(cid, center + 0.5 * (p.coords - center),
                    np.eye(n) + rng.uniform(-0.2, 0.2, size=(n, n))).packed()
              for p in conn.atlas.sample_points(cid, ROWS, rng)]
    lams, As = 0.5 * rng.normal(size=(ROWS, n)), 0.3 * rng.normal(size=(ROWS, n, n))
    _family_block_matches_single_fields(conn, starts, lams, As, [0.3] * ROWS,
                                        IntegratorConfig(step=1e-2))


def test_kappa_inverse_family_rows_keep_their_parameters_through_hops(cat, rng):
    # sphere frames heading outward from different radii of chart a hop to
    # chart b at different steps, one heading inward stays in a, and the
    # short row stops early: every regrouping must keep each row's (lam, A)
    conn = cat.connection("sphere", "round")
    cfg = IntegratorConfig(step=1e-2)
    radii = [1.2, 1.4, 1.6, 1.0, 1.5]
    signs = [1.0, 1.0, 1.0, -1.0, 1.0]
    ts = [0.8, 0.8, 0.8, 0.8, 0.05]
    starts = [Frame("a", [r, 0.1], np.eye(2)).packed() for r in radii]
    lams = np.array([[s * (0.8 + 0.1 * i), 0.1] for i, s in enumerate(signs)])
    As = 0.2 * rng.normal(size=(len(radii), 2, 2))
    ends = _family_block_matches_single_fields(conn, starts, lams, As, ts, cfg)
    assert [e.chart for e in ends] == ["b", "b", "b", "a", "a"]
    hop_times = set()
    for z, lam, A, t in zip(starts[:3], lams, As, ts):
        rec = []
        integrate(kappa_inverse_field(conn, lam, A), z, t, cfg, record=rec)
        hop_times.add(next(r[0] for r in rec if r[1] == "b"))
    assert len(hop_times) == 3


FIELDS = [(m, f) for m in default_catalog().manifold_names()
          for f in default_catalog().field_names(m)]


@pytest.mark.parametrize("manifold,name", FIELDS, ids=[f"{m}-{f}" for m, f in FIELDS])
@settings(max_examples=5, deadline=None)
@given(i=st.integers(1, 15), j=st.integers(1, 15), sign=st.sampled_from([-1.0, 1.0]),
       seed=st.integers(0, 2**32 - 1))
def test_flow_group_law_over_sample_rows(manifold, name, i, j, sign, seed):
    # Fl_t o Fl_s = Fl_{s+t} for s, t on the step grid and of one sign:
    # both sides then take the same RK4 steps, up to rounding in the step
    # length, so the gap is bounded by rounding alone
    cat = default_catalog()
    atlas = cat.atlas(manifold)
    fld = cat.field(manifold, name)
    cfg = IntegratorConfig(step=1e-2)
    rng = np.random.default_rng(seed)
    cid = atlas.chart_order()[0]
    chart = atlas.chart(cid)
    center = 0.5 * (chart.sample_lo + chart.sample_hi)
    points = [Point(cid, center + 0.5 * (p.coords - center))
              for p in atlas.sample_points(cid, 3, rng)]
    s, t = sign * i * cfg.step, sign * j * cfg.step
    composed, _ = FlowWord(atlas, [(fld, s), (fld, t)], cfg).push(points)
    direct, _ = FlowWord(atlas, [(fld, s + t)], cfg).push(points)
    for a, b in zip(composed, direct):
        assert a.chart == b.chart
        _close(a.coords, b.coords, _bound(2 * (i + j)))


def test_list_forms_take_empty_lists(cat, cfg):
    conn = cat.connection("sphere", "round")
    rot_x, rot_y = cat.field("sphere", "rot_x"), cat.field("sphere", "rot_y")
    assert commutation_defect(rot_x, rot_y, [], 0.4, 0.4, cfg) == []
    assert lift_commutation_defect(conn, [], [], [], 0.4, 0.4, cfg) == []
    assert exp_map_rows(conn, [], cfg) == []
