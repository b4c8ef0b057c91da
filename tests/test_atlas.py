import copy
import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from affinelab import atlas as atlas_module
from affinelab import catalog as catalog_module
from affinelab.atlas import Atlas, Chart, Point, Tangent, Transition, all_space, box_domain
from affinelab.bundles import frame_atlas, pack, tangent_atlas
from affinelab.catalog import default_catalog, torus_atlas
from affinelab.connection import SecondOrderTangent
from affinelab.errors import NoCommonChart, NotInOverlap
from affinelab.flows import IntegratorConfig
from affinelab.frame_bundle import FrameTangent, KappaValue
from affinelab.geodesics import completeness_probe
from affinelab.harness import _CHECKS
from affinelab.killing import KillingSeed


def _map_only(atlas):
    """Copy of `atlas` whose transitions declare only `map`, so every
    derivative comes from the finite-difference fill."""
    charts = []
    for c in atlas.charts.values():
        copy = Chart(c.id, c.dim, c.contains_fn, c.sample_lo, c.sample_hi, c.priority)
        for tid, tr in c.transitions.items():
            copy.add_transition(tid, Transition(map=tr.map))
        charts.append(copy)
    return Atlas(atlas.name, atlas.dim, charts)


def test_identity_chart_transition(cat):
    atlas = cat.atlas("r3")
    p = Point("cart", [1.0, 2.0, 0.5])
    q = atlas.transition(p, "cart")
    assert q.chart == "cart"
    assert np.allclose(q.coords, [1.0, 2.0, 0.5])
    assert np.allclose(atlas.d_transition(p, "cart"), np.eye(3))
    assert np.allclose(atlas.d2_transition(p, "cart"), 0.0)


def test_a_point_keeps_its_own_coordinates():
    # a Point copies the caller's array, so a later write to it leaves the
    # point unchanged; a scalar still becomes a 1-D coordinate row
    c = np.array([1.0, 2.0])
    p = Point("a", c)
    c[0] = 5.0
    assert p.coords.tolist() == [1.0, 2.0]
    assert Point("a", 0.5).coords.tolist() == [0.5]


@pytest.mark.parametrize("build", [
    lambda v, g: (Tangent(Point("a", [0.1, 0.2]), v), ("vec",)),
    lambda v, g: (FrameTangent(v, g), ("v", "w")),
    lambda v, g: (KappaValue(v, g), ("theta", "omega")),
    lambda v, g: (KillingSeed(Point("a", [0.1, 0.2]), v, g), ("value", "nabla")),
    lambda v, g: (SecondOrderTangent("a", v, v, v, v), ("x", "v", "w", "z")),
], ids=["Tangent", "FrameTangent", "KappaValue", "KillingSeed", "SecondOrderTangent"])
def test_point_data_keeps_its_own_arrays(build):
    # like Point and Frame, each copies the caller's arrays, so later writes
    # to them leave it unchanged
    v, g = np.array([1.0, 2.0]), np.eye(2)
    obj, attrs = build(v, g)
    before = {a: getattr(obj, a).tolist() for a in attrs}
    v[0], g[0, 1] = 9.0, 9.0
    assert {a: getattr(obj, a).tolist() for a in attrs} == before


def test_cart_to_polar_closed_form(cat):
    # hand oracle: (1, 1) -> (sqrt(2), pi/4)
    atlas = cat.atlas("plane")
    q = atlas.transition(Point("cart", [1.0, 1.0]), "polar")
    assert np.allclose(q.coords, [np.sqrt(2.0), np.pi / 4], atol=1e-14)


def test_cart_to_polar_jacobian_at_1_0(cat):
    # differentiate (r, theta) = (hypot, atan2): identity at (1, 0)
    atlas = cat.atlas("plane")
    J = atlas.d_transition(Point("cart", [1.0, 0.0]), "polar")
    assert np.allclose(J, np.eye(2), atol=1e-12)


def test_polar_roundtrip(cat, rng):
    atlas = cat.atlas("plane")
    for p in atlas.overlap_samples("cart", "polar", 50, rng):
        q = atlas.transition(p, "polar")
        back = atlas.transition(q, "cart")
        assert np.linalg.norm(back.coords - p.coords) <= 1e-10


def test_sphere_roundtrip_within_tol(cat, rng):
    atlas = cat.atlas("sphere")
    for p in atlas.overlap_samples("a", "b", 100, rng):
        back = atlas.transition(atlas.transition(p, "b"), "a")
        assert np.linalg.norm(back.coords - p.coords) <= 1e-12


def test_sphere_transition_matches_embedding_oracle(cat, rng):
    atlas = cat.atlas("sphere")
    for p in atlas.overlap_samples("a", "b", 25, rng):
        X = oracles.chart_to_sphere(p.coords, oracles.SIGMA["a"])
        expected = oracles.sphere_to_chart(X, oracles.SIGMA["b"])
        got = atlas.transition(p, "b").coords
        assert np.allclose(got, expected, atol=1e-12)


def test_fd_matches_analytic_jacobian_sphere(cat, rng):
    # analytic stereographic Jacobian as oracle for the FD fallback
    d_analytic = cat.atlas("sphere").chart("a").transitions["b"].d
    atlas = _map_only(cat.atlas("sphere"))
    for p in atlas.overlap_samples("a", "b", 100, rng):
        J_fd = atlas.d_transition(p, "b")
        assert np.allclose(J_fd, d_analytic(p.coords), atol=1e-6)


def test_torus_roundtrips(cat, rng):
    atlas = cat.atlas("torus")
    for cid, tid in atlas.overlap_pairs():
        for p in atlas.overlap_samples(cid, tid, 10, rng):
            back = atlas.transition(atlas.transition(p, tid), cid)
            assert np.linalg.norm(back.coords - p.coords) <= 1e-12


def test_chain_rule_on_torus(cat, rng):
    atlas = cat.atlas("torus")
    # t00 -> t10 -> t11 where all three contain the point
    for p in atlas.overlap_samples("t00", "t10", 20, rng):
        try:
            q = atlas.transition(p, "t10")
            atlas.transition(q, "t11")
            atlas.transition(p, "t11")
        except NotInOverlap:
            continue
        J1 = atlas.d_transition(p, "t10")
        J2 = atlas.d_transition(q, "t11")
        J = atlas.d_transition(p, "t11")
        assert np.allclose(J2 @ J1, J, atol=1e-6)


def test_chain_rule_sphere_polar(cat, rng):
    # chain rule through cart -> polar with FD derivatives
    d_analytic = cat.atlas("plane").chart("cart").transitions["polar"].d
    atlas = _map_only(cat.atlas("plane"))
    for p in atlas.overlap_samples("cart", "polar", 30, rng):
        assert np.allclose(atlas.d_transition(p, "polar"), d_analytic(p.coords), atol=1e-6)


def test_d2_symmetry(cat, rng):
    for name, pair in (("sphere", ("a", "b")), ("plane", ("cart", "polar"))):
        atlas = cat.atlas(name)
        for p in atlas.overlap_samples(*pair, 20, rng):
            T = atlas.d2_transition(p, pair[1])
            assert np.max(np.abs(T - np.swapaxes(T, 1, 2))) <= 1e-8


def test_d2_analytic_matches_fd(cat, rng):
    for name, pair in (("sphere", ("a", "b")), ("plane", ("cart", "polar")), ("plane", ("polar", "cart"))):
        d2_analytic = cat.atlas(name).chart(pair[0]).transitions[pair[1]].d2
        atlas = _map_only(cat.atlas(name))
        for p in atlas.overlap_samples(*pair, 10, rng):
            T_fd = atlas.d2_transition(p, pair[1])
            assert np.allclose(T_fd, d2_analytic(p.coords), atol=2e-5)


def test_rechart_tangent_identity(cat):
    atlas = cat.atlas("r3")
    t = Tangent(Point("cart", [0.0, 1.0, 0.0]), [1.0, 2.0, 3.0])
    out = atlas.rechart_tangent(t, "cart")
    assert np.allclose(out.vec, t.vec)


def test_rechart_tangent_polar_at_1_0(cat):
    # v = e2 at (1, 0): d theta/dy = 1 there, so polar components (0, 1)
    atlas = cat.atlas("plane")
    t = Tangent(Point("cart", [1.0, 0.0]), [0.0, 1.0])
    out = atlas.rechart_tangent(t, "polar")
    assert np.allclose(out.vec, [0.0, 1.0], atol=1e-12)


def test_rechart_roundtrip_preserves_vector(cat, rng):
    atlas = cat.atlas("sphere")
    for p in atlas.overlap_samples("a", "b", 30, rng):
        v = rng.normal(size=2)
        out = atlas.rechart_tangent(Tangent(p, v), "b")
        back = atlas.rechart_tangent(out, "a")
        assert np.linalg.norm(back.vec - v) <= 1e-10


def test_not_in_overlap(cat):
    atlas = cat.atlas("plane")
    # origin is outside the polar chart (r = 0 cut)
    with pytest.raises(NotInOverlap):
        atlas.transition(Point("cart", [0.0, 0.0]), "polar")
    atlas2 = cat.atlas("torus")
    with pytest.raises(NotInOverlap):
        # center of t00 is not inside t11
        atlas2.transition(Point("t00", [0.0, 0.0]), "t11")


OUTSIDE_A = Point("a", [4.45, 0.0])  # chart a of the sphere is the disk of radius 2


@pytest.mark.parametrize("call", [
    lambda atlas: atlas.transition(OUTSIDE_A, "a"),
    lambda atlas: atlas.d_transition(OUTSIDE_A, "a"),
    lambda atlas: atlas.d2_transition(OUTSIDE_A, "a"),
    lambda atlas: atlas.rechart_tangent(Tangent(OUTSIDE_A, [1.0, 0.0]), "a"),
    lambda atlas: atlas.gap(OUTSIDE_A, Point("a", [0.1, 0.0])),
], ids=["transition", "d_transition", "d2_transition", "rechart_tangent", "gap"])
def test_a_point_outside_its_own_chart_is_not_in_the_overlap(cat, call):
    # the target being the point's own chart does not excuse the domain check
    with pytest.raises(NotInOverlap):
        call(cat.atlas("sphere"))


def test_an_unknown_chart_is_a_key_error_and_has_no_transition(cat, rng):
    atlas = cat.atlas("sphere")
    with pytest.raises(KeyError, match="has no chart 'c'"):
        atlas.chart("c")
    with pytest.raises(NotInOverlap, match="no transition 'a' -> 'c'"):
        atlas.jet(Point("a", [0.1, 0.0]), "c")
    with pytest.raises(NotInOverlap, match="no transition 'a' -> 'c'"):
        atlas.overlap_samples("a", "c", 1, rng)


def test_points_near_opposite_poles_share_no_chart(cat):
    # the inversion takes chart a's origin to chart b's infinity, so each
    # point lies in its own chart only
    atlas = cat.atlas("sphere")
    with pytest.raises(NoCommonChart):
        atlas.gap(Point("a", [0.1, 0.0]), Point("b", [0.0, 0.1]))


def test_samplers_draw_the_reference_loops_points_bit_for_bit(cat):
    # both samplers run one shared rejection loop: on every catalog chart and
    # every overlap pair, both ways, it must keep the draws the reference
    # loops keep and consume the generator as they do.  No catalog chart's
    # sample box leaves its margin-shrunk domain, so two unit disks sampled
    # over [-1, 1]^2 and overlapping at a shift of 0.5 make the margin and
    # the source chart's own domain decide too
    from affinelab.atlas import disk_domain
    d, e = (Chart(cid, 2, disk_domain(1.0), [-1.0, -1.0], [1.0, 1.0]) for cid in "de")
    d.add_transition("e", Transition(map=lambda x: x - [0.5, 0.0]))
    e.add_transition("d", Transition(map=lambda x: x + [0.5, 0.0]))
    wide = Atlas("wide", 2, [d, e])
    runs = 0
    for atlas in [cat.atlas(name) for name in cat.manifold_names()] + [wide]:
        pairs = atlas.overlap_pairs()
        assert all((b, a) in pairs for a, b in pairs)  # every overlap runs both ways
        draws = [(atlas.sample_points, oracles.sample_points, (cid,)) for cid in atlas.charts]
        draws += [(atlas.overlap_samples, oracles.overlap_samples, pair) for pair in pairs]
        for draw, reference, args in draws:
            rng = np.random.default_rng(runs)
            ref_rng = copy.deepcopy(rng)
            got, want = draw(*args, 40, rng), reference(atlas, *args, 40, ref_rng)
            assert [(p.chart, p.coords.tobytes()) for p in got] == \
                [(p.chart, p.coords.tobytes()) for p in want]
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            runs += 1
    assert runs > 20


def test_sampling_gives_up_when_the_margin_leaves_no_room(cat, rng, monkeypatch):
    # a membership test that admits no point of chart a rejects every draw
    atlas = cat.atlas("sphere")
    monkeypatch.setattr(atlas.chart("a"), "contains_fn",
                        lambda x, margin=0.0: np.zeros(x.shape[:-1], bool))
    with pytest.raises(RuntimeError, match="sampling chart 'a' rejected too often"):
        atlas.sample_points("a", 2, rng)
    with pytest.raises(RuntimeError, match="overlap sampling 'a'/'b' rejected too often"):
        atlas.overlap_samples("a", "b", 1, rng)


def test_chart_order_priority(cat):
    assert cat.atlas("sphere").chart_order() == ["a", "b"]
    assert cat.atlas("plane").chart_order() == ["cart", "polar"]


def test_fd_stencil_leaves_domain():
    from affinelab.atlas import Atlas, Chart, Transition, disk_domain
    from affinelab.errors import StencilLeavesDomain
    a = Chart("a", 2, disk_domain(1.0), [-0.5, -0.5], [0.5, 0.5])
    b = Chart("b", 2, lambda x, m=0.0: True, [-2, -2], [2, 2], priority=1)
    a.add_transition("b", Transition(map=lambda x: 2.0 * x))  # FD-only derivatives
    atlas = Atlas("tiny", 2, [a, b])
    edge = Point("a", [1.0 - 1e-9, 0.0])
    with pytest.raises(StencilLeavesDomain):
        atlas.d_transition(edge, "b")
    with pytest.raises(StencilLeavesDomain):
        atlas.d2_transition(edge, "b")


def test_gap_through_a_third_chart(cat):
    # neither point's chart holds the other point; only t01 holds both, and
    # the gap there is the flat torus distance
    atlas = cat.atlas("torus")
    p, q = Point("t11", [0.338727, 0.589213]), Point("t00", [0.032271, -0.167795])
    for a, b in ((p, q), (q, p)):
        with pytest.raises(NotInOverlap):
            atlas.transition(a, b.chart)
    d = p.coords - q.coords
    d -= np.round(d)
    assert abs(atlas.gap(p, q) - np.linalg.norm(d)) <= 1e-12
    assert abs(atlas.gap(p, q) - 0.39110) <= 1e-5


MULTI_CHART = [m for m in default_catalog().manifold_names()
               if len(default_catalog().atlas(m).charts) > 1]
# the harness's own bound on a transition round trip
ROUNDTRIP_TOL = _CHECKS["transition_roundtrip"][0]["tol"]


def _held_in(atlas, p):
    """Chart id -> p's coordinates, for every chart that holds p."""
    out = {p.chart: p.coords}
    for tid in atlas.chart(p.chart).transitions:
        try:
            out[tid] = atlas.transition(p, tid).coords
        except NotInOverlap:
            pass
    return out


@pytest.mark.parametrize("manifold", MULTI_CHART)
@settings(max_examples=60, deadline=None)
@given(which=st.integers(0, 3), u=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
@example(which=0, u=(0.85, 0.85))  # a torus point of t00 that all four charts hold
def test_transitions_round_trip_and_compose(cat, manifold, which, u):
    # on every overlap, h_ba o h_ab = id and h_bc o h_ab = h_ac, and the
    # Jacobians multiply the same way
    atlas = cat.atlas(manifold)
    cid = sorted(atlas.charts)[which % len(atlas.charts)]
    chart = atlas.chart(cid)
    x = chart.sample_lo + np.array(u) * (chart.sample_hi - chart.sample_lo)
    if not chart.contains(x):
        return
    held = _held_in(atlas, Point(cid, x))
    tr = {(a, b): atlas.chart(a).transitions[b] for a in held for b in held if a != b}
    for b in held.keys() - {cid}:
        y = held[b]
        assert np.linalg.norm(tr[b, cid].map(y) - x) <= ROUNDTRIP_TOL
        assert np.linalg.norm(tr[b, cid].d(y) @ tr[cid, b].d(x) - np.eye(2)) <= ROUNDTRIP_TOL
    for b, c in itertools.permutations(held.keys() - {cid}, 2):
        y = held[b]
        assert np.linalg.norm(tr[b, c].map(y) - held[c]) <= ROUNDTRIP_TOL
        assert np.linalg.norm(tr[b, c].d(y) @ tr[cid, b].d(x) - tr[cid, c].d(x)) <= ROUNDTRIP_TOL


def _hop_reference(atlas, cid, x, margin):
    """One row's hop by the rule: the first neighbour in (priority, id) order
    whose map, called on this row alone, does not raise, is finite and lands
    inside the neighbour's margin-shrunk domain; (None, x) when none does."""
    src = atlas.chart(cid)
    for tid in sorted(src.transitions, key=lambda t: (atlas.chart(t).priority, t)):
        try:
            y = np.asarray(src.transitions[tid].map(x[None]), float)[0]
        except (FloatingPointError, ZeroDivisionError, ValueError):
            continue
        if np.isfinite(y).all() and atlas.chart(tid).contains(y, margin):
            return tid, y
    return None, x


# every multi-chart catalog atlas with its tangent and frame atlases
HOP_ATLASES = [a for m in MULTI_CHART for base in [default_catalog().atlas(m)]
               for a in (base, tangent_atlas(base), frame_atlas(base))]


@pytest.mark.parametrize("atlas", HOP_ATLASES, ids=lambda a: a.name)
@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 3),
                               st.lists(st.floats(-0.3, 1.3), min_size=6, max_size=6)),
                     min_size=1, max_size=12),
       margin=st.sampled_from([0.0, 0.1]))
# on the sphere's atlases the first row sits at the origin of chart a, where
# the inversion to b gives inf: that candidate fails, the row keeps its own
# bytes and the rows of the other charts still hop (the lifted maps'
# Jacobians read 0/0 there, and a frame chart's det of the non-finite
# candidate is NaN, and numpy warns of both)
@pytest.mark.filterwarnings("ignore:invalid value encountered in divide:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
@example(rows=[(0, [0.5] * 6), (0, [1.3] + [0.5] * 5), (1, [0.2, 1.2, 0.4, 0.6, 0.5, 0.3])],
         margin=0.1)
def test_batched_hops_equal_per_row_hops(atlas, rows, margin):
    # rows of every chart, inside and around its sample box, hop in one call
    # exactly as each row hops alone
    order = atlas.chart_order()
    cids = [order[which % len(order)] for which, _ in rows]
    X = np.array([atlas.chart(cid).sample_lo + np.array(u[:atlas.dim])
                  * (atlas.chart(cid).sample_hi - atlas.chart(cid).sample_lo)
                  for cid, (_, u) in zip(cids, rows)])
    targets, Y = atlas.hop_targets(cids, X, margin)
    for cid, x, tid, y in zip(cids, X, targets, Y):
        want_tid, want_y = _hop_reference(atlas, cid, x, margin)
        assert tid == want_tid
        assert y.tobytes() == want_y.tobytes()
        # the one-row form agrees, None where the row has no target
        hop = atlas.hop_target(cid, x, margin)
        if tid is None:
            assert hop is None
        else:
            assert hop[0] == tid and hop[1].tobytes() == y.tobytes()


def test_a_row_whose_map_raises_skips_that_neighbour():
    # a -> b raises on any row with a negative first coordinate; called on a
    # block, it raises for the whole block, yet only those rows go on to c
    def picky(x):
        if (x[..., 0] < 0).any():
            raise ValueError("negative first coordinate")
        return x + 1.0

    a, b, c = (Chart(cid, 2, all_space, [-1.0, -1.0], [1.0, 1.0], priority=i)
               for i, cid in enumerate("abc"))
    a.add_transition("b", Transition(picky))
    a.add_transition("c", Transition(lambda x: x - 1.0))
    b.add_transition("c", Transition(lambda x: x - 2.0))
    atlas = Atlas("toy", 2, [a, b, c])
    cids = ["a", "a", "b", "a", "a"]
    X = np.array([[0.5, 0.0], [-0.5, 0.0], [0.3, 0.1], [0.2, 0.3], [-0.1, -0.2]])
    targets, Y = atlas.hop_targets(cids, X, 0.1)
    assert list(targets) == ["b", "c", "c", "b", "c"]
    np.testing.assert_array_equal(Y, X + [[1.0], [-1.0], [-2.0], [1.0], [-1.0]])
    for cid, x, tid, y in zip(cids, X, targets, Y):
        assert _hop_reference(atlas, cid, x, 0.1) == (tid, pytest.approx(y))


def _torus_rows():
    """Tangent-bundle rows of all four torus boxes, each past its margin."""
    cids = ["t00", "t10", "t01", "t11", "t00", "t11"]
    X = np.array([pack(np.array(x), np.array(v).reshape(2, 1)) for x, v in [
        ([0.33, 0.1], [1.0, 0.2]), ([0.83, -0.2], [0.5, -0.4]), ([-0.1, 0.84], [0.3, 0.9]),
        ([0.17, 0.5], [-1.0, 0.1]), ([-0.2, -0.33], [0.2, -1.0]), ([0.84, 0.84], [0.7, 0.7])]])
    return cids, X


def test_torus_tangent_search_maps_and_tests_every_candidate_in_one_call(monkeypatch):
    # the four shifts are one map family and the four boxes one test family,
    # each lifted to one family on the tangent atlas, so rows of all four
    # boxes, three candidate boxes each, take one shift and one box test
    calls = {"shift": 0, "box": 0}
    box_shift, in_box = catalog_module._box_shift, atlas_module.in_box

    def counted_shift(*args):
        calls["shift"] += 1
        return box_shift(*args)

    def counted_box(*args):
        calls["box"] += 1
        return in_box(*args)

    monkeypatch.setattr(catalog_module, "_box_shift", counted_shift)
    monkeypatch.setattr(atlas_module, "in_box", counted_box)
    atlas = tangent_atlas(torus_atlas())
    cids, X = _torus_rows()
    targets, Y = atlas.hop_targets(cids, X, 0.1)
    assert calls == {"shift": 1, "box": 1}
    assert None not in targets and any(t != c for t, c in zip(targets, cids))
    for cid, x, tid, y in zip(cids, X, targets, Y):
        want_tid, want_y = _hop_reference(atlas, cid, x, 0.1)
        assert tid == want_tid and y.tobytes() == want_y.tobytes()


def test_a_row_whose_family_map_raises_skips_only_its_own_candidates():
    # one map family onto b and c, with per-target shifts; called on a block
    # it raises for the whole block, yet only the rows that raise lose their
    # candidates, and every other row is mapped with its own target's shift
    def shifted(p, x):
        if (x[..., 0] < 0).any():
            raise ValueError("negative first coordinate")
        return x + p

    a = Chart("a", 2, all_space, [-1.0, -1.0], [1.0, 1.0], priority=0)
    b = Chart("b", 2, box_domain([0.0, -1.0], [2.0, 1.0]), [0.5, -0.5], [1.5, 0.5], priority=1)
    c = Chart("c", 2, all_space, [-1.0, -1.0], [1.0, 1.0], priority=2)
    a.add_transition("b", Transition(partial(shifted, np.array([1.0, 0.0]))))
    a.add_transition("c", Transition(partial(shifted, np.array([-1.0, 0.0]))))
    b.add_transition("c", Transition(partial(shifted, np.array([-2.0, 0.0]))))
    atlas = Atlas("toy", 2, [a, b, c])
    cids = ["a", "a", "b", "a", "a"]
    X = np.array([[0.5, 0.0], [-0.5, 0.0], [0.3, 0.1], [1.5, 0.3], [-0.1, -0.2]])
    targets, Y = atlas.hop_targets(cids, X, 0.0)
    assert list(targets) == ["b", None, "c", "c", None]
    np.testing.assert_array_equal(Y, [[1.5, 0.0], [-0.5, 0.0], [-1.7, 0.1], [0.5, 0.3],
                                      [-0.1, -0.2]])
    for cid, x, tid, y in zip(cids, X, targets, Y):
        want_tid, want_y = _hop_reference(atlas, cid, x, 0.0)
        assert tid == want_tid and y.tobytes() == want_y.tobytes()


def test_a_map_replaced_after_a_search_is_used_by_the_next(monkeypatch):
    # a wrapper put on every transition's map after a first search, as a
    # tracer puts its spans, is called by the next search, which finds the
    # same targets and coordinates byte for byte
    atlas = tangent_atlas(torus_atlas())
    cids, X = _torus_rows()
    targets, Y = atlas.hop_targets(cids, X, 0.1)
    calls = []
    for chart in atlas.charts.values():
        for tr in chart.transitions.values():
            def traced(x, fmap=tr.map):
                calls.append(len(x))
                return fmap(x)

            monkeypatch.setattr(tr, "map", traced)
    targets2, Y2 = atlas.hop_targets(cids, X, 0.1)
    # each wrapper is a family of its own: one call per source box and
    # target, on that source's rows, every candidate mapped once
    assert len(calls) == 3 * len(set(cids)) and sum(calls) == 3 * len(cids)
    assert list(targets2) == list(targets) and Y2.tobytes() == Y.tobytes()


def test_a_transition_added_after_a_search_is_found_by_the_next():
    a, b, c = (Chart(cid, 2, box_domain([-1.0, -1.0], [1.0, 1.0]), [-0.5, -0.5], [0.5, 0.5],
                     priority=i) for i, cid in enumerate("abc"))
    a.add_transition("b", Transition(lambda x: x + [1.5, 0.0]))
    atlas = Atlas("toy", 2, [a, b, c])
    X = np.array([[0.9375, 0.0], [-0.9375, 0.0]])
    targets, _ = atlas.hop_targets(["a", "a"], X, 0.1)
    assert list(targets) == [None, "b"]
    a.add_transition("c", Transition(lambda x: x - [0.5, 0.0]))
    targets, Y = atlas.hop_targets(["a", "a"], X, 0.1)
    assert list(targets) == ["c", "b"]
    np.testing.assert_array_equal(Y, [[0.4375, 0.0], [0.5625, 0.0]])


def test_a_test_replaced_after_a_search_is_used_by_the_next(monkeypatch):
    # a wrapper put on every chart's membership test after a first search is
    # called by the next search, which finds the same targets byte for byte
    atlas = tangent_atlas(torus_atlas())
    cids, X = _torus_rows()
    targets, Y = atlas.hop_targets(cids, X, 0.1)
    calls = []
    for chart in atlas.charts.values():
        def traced(x, margin=0.0, test=chart.contains_fn):
            calls.append(len(x))
            return test(x, margin)

        monkeypatch.setattr(chart, "contains_fn", traced)
    targets2, Y2 = atlas.hop_targets(cids, X, 0.1)
    # each wrapper is a test family of its own: one call per target box, on
    # every candidate of every row that goes there
    assert len(calls) == len(atlas.charts) and sum(calls) == 3 * len(cids)
    assert list(targets2) == list(targets) and Y2.tobytes() == Y.tobytes()
    monkeypatch.setattr(atlas.chart("t10"), "contains_fn", lambda x, margin=0.0: x[..., 0] > 9.0)
    assert "t10" not in list(atlas.hop_targets(cids, X, 0.1)[0])


def test_a_long_torus_probe_keeps_one_hop_table_entry_per_chart():
    # the seed-1 torus block of `tools/dump_rows.py --probes` (16 rows, 2,000
    # steps, some 1,700 searches over many row patterns) builds the table of
    # its tangent atlas once, one row per chart
    catalog = default_catalog()
    rng = np.random.default_rng(1)
    for half in (1.0, 1.2):  # the plane and sphere blocks draw first
        rng.uniform(-half, half, size=(8, 2))
        rng.normal(size=(8, 2))
    xs, vs = rng.uniform(-0.28, 0.28, size=(8, 2)), rng.normal(size=(8, 2))
    seeds = [Tangent(Point("t00", x), v) for x, v in zip(xs, vs)]
    conn, cfg = catalog.connection("torus", "flat"), IntegratorConfig(step=0.05)
    completeness_probe(conn, seeds, 1.0, cfg)
    atlas = tangent_atlas(catalog.atlas("torus"))
    table = atlas._hops
    report = completeness_probe(conn, seeds, 100.0, cfg)
    assert report.complete_up_to_horizon
    assert atlas._hops is table
    _, index, entries, *_ = table
    assert len(index) == entries.shape[0] == len(atlas.charts)
    assert entries.shape[1] == len(atlas.charts) - 1
