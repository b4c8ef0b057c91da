import numpy as np
import pytest
from scipy.linalg import expm

import oracles
from affinelab import flows
from affinelab.atlas import Point, Tangent
from affinelab.automorphism import FlowWord
from affinelab.bundles import pack, unpack
from affinelab.errors import ChartMissing, LeftAtlas
from affinelab.flows import (ChartField, IntegratorConfig, VectorField, _rk4, combine,
                             commutation_defect, constant_field, flow_word, integrate,
                             lie_derivative_defect, parameter_flow_derivative_defect, _run_block,
                             variational_flow)
from affinelab.geodesics import exp_map, geodesic_field
from affinelab.killing import bracket


def test_constant_field_exact(cat, cfg):
    fld = cat.field("torus", "t_trans_x")
    end = integrate(fld, Point("t00", [0.0, 0.1]), 0.25, cfg)
    assert np.allclose(end.coords - np.array([0.25, 0.1]), 0.0, atol=1e-14)


def test_rk4_calls_its_right_hand_side_once_per_stage_in_order():
    # the transport oracle in test_transport_propagators.py pairs each call
    # with a curve point by this order, and a variational flow records the
    # stage states in this order, which `flows._propagator` reads as the
    # stages 1-4 of each step's matrices
    def f(z):
        return np.array([z[1] ** 2, -z[0]])

    calls = []
    z, h = np.array([0.3, -0.2]), 0.1
    _rk4(lambda w: calls.append(w.copy()) or f(w), z, h, 0.5 * h, h / 6.0)
    k1, k2, k3 = f(z), f(calls[1]), f(calls[2])
    want = [z, z + 0.5 * h * k1, z + 0.5 * h * k2, z + h * k3]
    assert len(calls) == 4 and all(np.array_equal(c, w) for c, w in zip(calls, want))


def test_flow_word_is_sequential_integration(cat):
    # the segments hop between the two stereographic charts
    cfg = IntegratorConfig(step=1e-2)
    rx, rz = cat.field("sphere", "rot_x"), cat.field("sphere", "rot_z")
    word = [(rx, 2.0), (rz, -0.7), (rx, -1.1)]
    p = Point("a", [0.3, -0.2])
    q = p
    for fld, t in word:
        q = integrate(fld, q, t, cfg)
    end = flow_word(word, p, cfg)
    assert end.chart == q.chart
    assert np.array_equal(end.coords, q.coords)


def test_rotation_quarter_turn(cat, cfg):
    fld = cat.field("plane", "rotation")
    end = integrate(fld, Point("cart", [1.0, 0.0]), np.pi / 2, cfg)
    assert np.linalg.norm(end.coords - np.array([0.0, 1.0])) <= 1e-10


def test_torus_wrap_closed_form(cat, cfg):
    # constant translation on the torus: x + t c mod 1, many chart hops
    atlas = cat.atlas("torus")
    from affinelab.flows import combine
    fld = combine("diag", [cat.field("torus", "t_trans_x"), cat.field("torus", "t_trans_y")],
                  [1.0, 0.7])
    t = 10.37
    end = integrate(fld, Point("t00", [0.1, 0.2]), t, cfg)
    raw = np.array([0.1 + t, 0.2 + 0.7 * t])
    centers = {"t00": (0.0, 0.0), "t10": (0.5, 0.0), "t01": (0.0, 0.5), "t11": (0.5, 0.5)}
    c = np.array(centers[end.chart])
    expected = raw - np.round(raw - c)
    assert np.linalg.norm(end.coords - expected) <= 1e-9


def test_sphere_meridian_matches_great_circle_oracle(cat, cfg):
    # geodesic flow on the tangent-bundle atlas crosses the chart seam;
    # oracle: ambient great circle from the south pole
    conn = cat.connection("sphere", "round")
    fld = geodesic_field(conn)
    start = Point("a", pack(np.zeros(2), np.array([[1.0], [0.0]])))
    for t in (0.5, 1.2, 2.0, 2.8):
        end = integrate(fld, start, t, cfg)
        x, V = unpack(end.coords, 2, 1)
        X = oracles.great_circle_chart(t, np.zeros(2), oracles.SIGMA["a"],
                                       oracles.chart_velocity_to_ambient(np.zeros(2), 1.0, [1.0, 0.0]))
        expected = oracles.sphere_to_chart(X, oracles.SIGMA[end.chart])
        assert np.linalg.norm(x - expected) <= 1e-6, f"t={t}"


def test_flow_group_law(cat, cfg):
    fld = cat.field("sphere", "rot_x")
    start = Point("a", [0.4, 0.3])
    s, t = 1.0 / 3.0, 1.0 / 7.0
    a = integrate(fld, integrate(fld, start, s, cfg), t, cfg)
    b = integrate(fld, start, s + t, cfg)
    assert fld.atlas.gap(a, b) <= 1e-8


def test_flow_reversibility(cat, cfg):
    fld = cat.field("sphere", "rot_y")
    start = Point("a", [0.7, -0.2])
    out = integrate(fld, integrate(fld, start, 0.8, cfg), -0.8, cfg)
    assert fld.atlas.gap(out, start) <= 1e-8


def test_left_atlas(cat, cfg):
    fld = constant_field(cat.atlas("disk"), "out", [1.0, 0.0])
    with pytest.raises(LeftAtlas):
        integrate(fld, Point("disk", [0.0, 0.0]), 2.0, cfg)
    with pytest.raises(LeftAtlas, match="outside its chart domain"):
        integrate(fld, Point("disk", [1.5, 0.0]), 0.1, cfg)


def test_hop_limit(cat, monkeypatch):
    from affinelab.errors import HopLimit
    monkeypatch.setattr(flows, "MAX_HOPS", 3)
    cfg = IntegratorConfig(step=0.01)
    fld = cat.field("torus", "t_trans_x")
    with pytest.raises(HopLimit):
        integrate(fld, Point("t00", [0.0, 0.0]), 10.0, cfg)


@pytest.mark.parametrize("bad", [{"step": float("nan")}, {"step": float("inf")}, {"step": 0.0},
                                 {"step": -1e-3}, {"max_hops": -1}, {"rechart_margin": 5.0},
                                 {"rechart_margin": 1.0}, {"rechart_margin": -0.1},
                                 {"state_guard": 0.0}, {"state_guard": float("nan")},
                                 {"max_hops": 2.5}, {"max_hops": True}, {"step": True},
                                 {"rechart_margin": False}, {"state_guard": True}])
def test_integrator_config_rejects_nonsense(bad):
    # step is its one field; the hop cap, hand-off margin and state guard are
    # the flows constants, so a value for one is refused as an unknown keyword
    with pytest.raises(ValueError if "step" in bad else TypeError):
        IntegratorConfig(**bad)


@pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_duration_is_a_value_error_naming_its_row(cat, t):
    cfg = IntegratorConfig(step=1e-2)
    fld = cat.field("sphere", "rot_x")
    p = Point("a", [0.3, -0.2])
    with pytest.raises(ValueError, match=f"row 0: duration must be finite, got {t!r}"):
        integrate(fld, p, t, cfg)
    with pytest.raises(ValueError, match=f"row 0: duration must be finite, got {t!r}"):
        exp_map(cat.connection("sphere", "round"), Tangent(p, [0.1, 0.2]), cfg, t=t)
    with pytest.raises(ValueError, match=f"row 0: duration must be finite, got {t!r}"):
        FlowWord(fld.atlas, [(fld, 0.5), (fld, t)], cfg).apply(p)
    with pytest.raises(ValueError, match=f"row 1: duration must be finite, got {t!r}"):
        _run_block(fld, [p, p], [1.0, t], cfg)


def test_variational_constant(cat, cfg):
    fld = cat.field("torus", "t_trans_y")
    end, w = variational_flow(fld, Point("t00", [0.0, 0.0]), np.array([0.3, -0.5]), 0.2, cfg)
    assert np.allclose(w, [0.3, -0.5], atol=1e-14)


def test_variational_linear_matches_expm(cat, cfg):
    # xi(x) = A x with A the quarter-turn generator: w(t) = expm(tA) w0
    fld = cat.field("plane", "rotation")
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    w0 = np.array([1.0, 2.0])
    t = 0.9
    end, w = variational_flow(fld, Point("cart", [0.5, 0.1]), w0, t, cfg)
    assert np.linalg.norm(w - expm(t * A) @ w0) <= 1e-8


def test_variational_matches_fd(cat, cfg):
    fld = cat.field("sphere", "rot_x")
    start = Point("a", [0.2, 0.4])
    w0 = np.array([0.6, -0.1])
    t = 0.7
    _, w = variational_flow(fld, start, w0, t, cfg)
    eps = 1e-5
    plus = integrate(fld, Point("a", start.coords + eps * w0), t, cfg)
    minus = integrate(fld, Point("a", start.coords - eps * w0), t, cfg)
    fd = (plus.coords - minus.coords) / (2 * eps)
    assert plus.chart == minus.chart
    assert np.linalg.norm(w - fd) <= 1e-5


def test_variational_matrix_transport(cat, cfg):
    fld = cat.field("sphere", "rot_z")
    start = Point("a", [0.5, 0.0])
    W0 = np.eye(2)
    _, W = variational_flow(fld, start, W0, 0.4, cfg)
    # columns agree with per-vector transport
    for j in range(2):
        _, wj = variational_flow(fld, start, W0[:, j], 0.4, cfg)
        assert np.allclose(W[:, j], wj, atol=1e-12)


def test_commutation_defect_self_and_translations(cat, cfg):
    rot = cat.field("plane", "rotation")
    assert commutation_defect(rot, rot, [Point("cart", [0.3, 0.1])], 0.4, 0.7, cfg)[0] <= 1e-12
    tx = cat.field("plane", "trans_x")
    ty = cat.field("plane", "trans_y")
    assert commutation_defect(tx, ty, [Point("cart", [0.0, 0.0])], 0.5, 0.5, cfg)[0] <= 1e-12


def test_commutation_defect_rotation_translation(cat, cfg):
    # closed form: |R_s(x + t e1) - (R_s x + t e1)| = 2 t sin(s/2)
    rot = cat.field("plane", "rotation")
    tx = cat.field("plane", "trans_x")
    s = t = 0.5
    [d] = commutation_defect(rot, tx, [Point("cart", [0.2, -0.1])], s, t, cfg)
    assert d >= 0.05
    assert abs(d - 2 * t * np.sin(s / 2)) <= 1e-8


def test_commutation_defect_raises_the_first_failed_start(cat):
    # on the unit disk, start 0 leaves in the second segment of word
    # Fl^xi_s o Fl^eta_t and start 1 in its first: the error raised is start
    # 0's, as when the starts run one at a time, not the first segment's
    disk = cat.atlas("disk")
    xi, eta = constant_field(disk, "xi", [1.0, 0.0]), constant_field(disk, "eta", [0.0, 1.0])
    starts = [Point("disk", [0.5, -0.6]), Point("disk", [-0.5, 0.6])]
    cfg = IntegratorConfig(step=0.01)
    with pytest.raises(LeftAtlas) as alone:
        commutation_defect(xi, eta, starts[:1], 0.6, 0.5, cfg)
    with pytest.raises(LeftAtlas) as both:
        commutation_defect(xi, eta, starts, 0.6, 0.5, cfg)
    assert "'xi'" in str(alone.value) and str(both.value) == str(alone.value)
    with pytest.raises(LeftAtlas, match="'eta'"):
        commutation_defect(xi, eta, starts[1:], 0.6, 0.5, cfg)


def test_lie_derivative_defect(cat, cfg):
    rot = cat.field("plane", "rotation")
    tx = cat.field("plane", "trans_x")
    ty = cat.field("plane", "trans_y")
    p = Point("cart", [0.4, 0.7])
    assert lie_derivative_defect(rot, rot, p, cfg) <= 1e-6
    assert lie_derivative_defect(tx, ty, p, cfg) <= 1e-6
    # [rot, trans_x] = -d(rot) e1 has norm 1
    assert abs(lie_derivative_defect(rot, tx, p, cfg) - 1.0) <= 1e-3


def test_parameter_flow_defect_constant_family(cat, cfg):
    # family eta_v = v (constant): flow is x + v, derivative exactly v -> v
    atlas = cat.atlas("torus")
    chart = ChartField(value=lambda x, v: np.broadcast_to(v, np.shape(x)),
                       d=lambda x, v: np.zeros(np.shape(x) + (2,)))
    family = VectorField(atlas, "c", dict.fromkeys(atlas.charts, chart), params=2)

    d = parameter_flow_derivative_defect(family, Point("t00", [0.05, -0.05]), cfg)
    assert d <= 1e-10


def test_a_family_field_carries_no_second_order_columns(cat, cfg):
    atlas = cat.atlas("torus")
    chart = ChartField(value=lambda x, v: np.broadcast_to(v, np.shape(x)),
                       d=lambda x, v: np.zeros(np.shape(x) + (2,)))
    family = VectorField(atlas, "c", dict.fromkeys(atlas.charts, chart), params=2)
    with pytest.raises(ValueError, match="no second-order columns"):
        _run_block(family, [Point("t00", [0.0, 0.0])], 1.0, cfg, np.eye(2)[None],
                   params=np.ones((1, 2)), second=(np.ones((1, 2)), np.zeros((1, 2, 2))))


def test_a_field_raises_chart_missing_off_its_charts(cat, cfg):
    # a field given on t00 alone: evaluated on t10, or flowed out of t00
    atlas = cat.atlas("torus")
    east = VectorField(atlas, "east", {"t00": constant_field(atlas, "e", [1.0, 0.0])
                                       .chart_field("t00")})
    with pytest.raises(ChartMissing, match="'east' undefined on chart 't10'"):
        east.value(Point("t10", [0.0, 0.0]))
    with pytest.raises(ChartMissing, match="'east' undefined on hop target"):
        integrate(east, Point("t00", [0.0, 0.0]), 0.5, cfg)


def test_fields_on_two_atlases_neither_combine_nor_bracket(cat):
    tx, rot = cat.field("plane", "trans_x"), cat.field("sphere", "rot_x")
    with pytest.raises(ValueError, match="fields must share an atlas"):
        combine("mixed", [tx, rot], [1.0, 1.0])
    with pytest.raises(ValueError, match="fields must share an atlas"):
        bracket(tx, rot)


def test_step_convergence_fourth_order(cat):
    # halving the step shrinks the rotation-flow error by ~16x
    fld = cat.field("plane", "rotation")
    start = Point("cart", [1.0, 0.0])
    errs = []
    for step in (2e-2, 1e-2):
        cfg = IntegratorConfig(step=step)
        end = integrate(fld, start, np.pi / 2, cfg)
        errs.append(np.linalg.norm(end.coords - np.array([0.0, 1.0])))
    assert errs[1] <= errs[0] / 8.0


def test_step_halving_1e3_to_5e4(cat):
    # at steps 1e-3 -> 5e-4 the truncation error of a stiff sphere flow is
    # still above the roundoff floor; halving changes the result by no more
    # than ~16x the remaining error (4th order)
    from scipy.linalg import expm
    from affinelab.flows import combine
    fld = combine("3rx", [cat.field("sphere", "rot_x")], [3.0])
    p0 = np.array([0.7, 0.4])
    X0 = oracles.chart_to_sphere(p0, 1.0)
    Xt = expm(-9.0 * oracles.so3_generator(0)) @ X0  # closed-form ambient flow, t = 3
    ends, errs = [], []
    for step in (1e-3, 5e-4):
        end = integrate(fld, Point("a", p0), 3.0, IntegratorConfig(step=step))
        ends.append(end)
        errs.append(np.linalg.norm(end.coords - oracles.sphere_to_chart(Xt, oracles.SIGMA[end.chart])))
    assert ends[0].chart == ends[1].chart
    change = np.linalg.norm(ends[0].coords - ends[1].coords)
    assert change <= 16.0 * errs[1] * 1.3
    assert 8.0 <= errs[0] / errs[1] <= 24.0


def test_polar_chart_is_usable_at_the_default_margin(cat, cfg, rng):
    atlas = cat.atlas("plane")
    polar = atlas.chart("polar")
    assert all(polar.contains(p.coords, 0.1) for p in atlas.sample_points("polar", 20, rng))
    # the farthest corner of the Cartesian sample box still lies in the polar chart
    assert atlas.transition(Point("cart", [2.0, -2.0]), "polar").chart == "polar"
    # a polar-started rotation stays in polar: r is constant, theta advances by t
    end = integrate(cat.field("plane", "rotation"), Point("polar", [1.0, 0.5]), 1.0, cfg)
    assert end.chart == "polar"
    np.testing.assert_allclose(end.coords, [1.0, 1.5], atol=1e-12)
