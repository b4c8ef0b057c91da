"""Built-in manifold / connection / vector-field catalog.

Manifolds
  plane       flat R^2 with a Cartesian chart and a polar chart
  torus       flat square torus R^2/Z^2 with four overlapping charts
  sphere      round unit 2-sphere, two stereographic charts
                "a": projection from the north pole (origin = south pole)
                "b": projection from the south pole (origin = north pole)
  halfplane   hyperbolic upper half-plane, single chart
  disk        open unit disk, single chart (incomplete flat example)

Connections are registered per manifold ("flat", "round", "hyperbolic");
vector fields per manifold by name.  The sphere rotation generators
rot_x/rot_y/rot_z are oriented so that bracket(rot_x, rot_y) = rot_z with
the in-chart bracket convention [f, g] = dg(f) - df(g).
"""
from __future__ import annotations

from functools import partial

import numpy as np

from .atlas import Atlas, Chart, Transition, all_space, box_domain, disk_domain
from .connection import ConnChart, ConnectionField
from .flows import ChartField, VectorField

_EYE2 = np.eye(2)


def _sq(p):
    """|p|^2 of (..., 2) coordinates."""
    p0, p1 = p[..., 0], p[..., 1]
    return p0 * p0 + p1 * p1


def _inversion():
    """Transition between the two stereographic charts: p -> p / |p|^2."""

    def h(p):
        s = _sq(p)[..., None]
        return np.divide(p, s, out=np.full(p.shape, np.inf), where=s != 0.0)

    def dh(p):
        s = _sq(p)[..., None, None]
        return (_EYE2 - 2.0 * (p[..., :, None] * p[..., None, :]) / s) / s

    def d2h(p):
        s = _sq(p)[..., None, None, None]
        pi, pj, pk = p[..., :, None, None], p[..., None, :, None], p[..., None, None, :]
        return (-2.0 * (_EYE2[:, :, None] * pk + _EYE2[:, None, :] * pj + _EYE2[None, :, :] * pi)
                / s**2 + 8.0 * pi * pj * pk / s**3)

    return Transition(map=h, d=dh, d2=d2h)


# -- quadratic per-chart fields ---------------------------------------------

def quad_chart(c0, c1, c2) -> ChartField:
    """Chart field xi_i(x) = c0_i + c1_ij x_j + c2_ijk x_j x_k (c2 symmetric).

    `value`, `d` and `d2` take (..., n) rows.  Both terms are matmuls
    (`x @ c1.T` costs less than an einsum on one point), and a field
    without `c2` skips the quadratic term.
    """
    n = len(c0)
    c0 = np.asarray(c0, float)
    c1 = np.zeros((n, n)) if c1 is None else np.asarray(c1, float)
    c1t = c1.T
    if c2 is None:
        return ChartField(value=lambda x: c0 + x @ c1t,
                          d=lambda x: np.zeros(x.shape[:-1] + (n, n)) + c1,
                          d2=lambda x: np.zeros(x.shape[:-1] + (n, n, n)))
    c2 = np.asarray(c2, float)
    by_pair = c2.reshape(n, n * n).T  # (x_j x_k flattened) @ by_pair = c2_ijk x_j x_k
    by_last = c2.reshape(n * n, n).T  # x @ by_last = c2_ijk x_k, flattened over (i, j)

    def value(x):
        xx = (x[..., :, None] * x[..., None, :]).reshape(x.shape[:-1] + (n * n,))
        return c0 + x @ c1t + xx @ by_pair

    return ChartField(value=value,
                      d=lambda x: c1 + 2.0 * (x @ by_last).reshape(x.shape[:-1] + (n, n)),
                      d2=lambda x: np.zeros(x.shape[:-1] + (n, n, n)) + 2.0 * c2)


def _sym2(entries, n=2):
    """(n,n,n) tensor from {(i, j, k): coeff of x_j x_k in component i}."""
    T = np.zeros((n, n, n))
    for (i, j, k), c in entries.items():
        T[i, j, k] += 0.5 * c if j != k else c
        if j != k:
            T[i, k, j] += 0.5 * c
    return T


# -- manifolds ---------------------------------------------------------------

def plane_atlas() -> Atlas:
    cart = Chart("cart", 2, all_space, [-2.0, -2.0], [2.0, 2.0], priority=0)
    # r < 3 holds the whole Cartesian sample box (|x| <= 2 sqrt 2); a box
    # margin shrinks by a fraction of the half-width, so a far outer radius
    # would push the margin-shrunk interior out past every sampled point
    polar = Chart("polar", 2, box_domain([1e-3, -np.pi + 0.05], [3.0, np.pi - 0.05]),
                  [0.3, -2.0], [2.0, 2.0], priority=1)

    def c2p(x):
        a, b = x[..., 0], x[..., 1]
        return np.stack([np.hypot(a, b), np.arctan2(b, a)], axis=-1)

    def d_c2p(x):
        a, b = x[..., 0], x[..., 1]
        r = np.hypot(a, b)
        return np.stack([np.stack([a / r, b / r], -1), np.stack([-b / r**2, a / r**2], -1)], -2)

    def d2_c2p(x):
        a, b = x[..., 0], x[..., 1]
        r = np.hypot(a, b)
        T = np.empty(x.shape + (2, 2))
        T[..., 0, 0, 0], T[..., 0, 1, 1] = b**2 / r**3, a**2 / r**3
        T[..., 0, 0, 1] = T[..., 0, 1, 0] = -a * b / r**3
        T[..., 1, 0, 0], T[..., 1, 1, 1] = 2 * a * b / r**4, -2 * a * b / r**4
        T[..., 1, 0, 1] = T[..., 1, 1, 0] = (b**2 - a**2) / r**4
        return T

    def p2c(y):
        r, th = y[..., 0], y[..., 1]
        return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def d_p2c(y):
        r, th = y[..., 0], y[..., 1]
        c, s = np.cos(th), np.sin(th)
        return np.stack([np.stack([c, -r * s], -1), np.stack([s, r * c], -1)], -2)

    def d2_p2c(y):
        r, th = y[..., 0], y[..., 1]
        T = np.zeros(y.shape + (2, 2))
        T[..., 0, 0, 1] = T[..., 0, 1, 0] = -np.sin(th)
        T[..., 0, 1, 1] = -r * np.cos(th)
        T[..., 1, 0, 1] = T[..., 1, 1, 0] = np.cos(th)
        T[..., 1, 1, 1] = -r * np.sin(th)
        return T

    cart.add_transition("polar", Transition(c2p, d_c2p, d2_c2p))
    polar.add_transition("cart", Transition(p2c, d_p2c, d2_p2c))
    return Atlas("plane", 2, [cart, polar])


def _box_shift(c, x):
    """The torus's shift of x onto the box centred at c."""
    return x - np.round(x - c)


def torus_atlas() -> Atlas:
    """Square torus R^2/Z^2; four box charts centered on the half-integer grid.

    The shift onto each box is a member `partial(_box_shift, c)` of one
    transition family, shared by the box's three sources, with one `d`
    and `d2` for all twelve transitions.
    """
    half_width = 0.35
    centers = {"t00": (0.0, 0.0), "t10": (0.5, 0.0), "t01": (0.0, 0.5), "t11": (0.5, 0.5)}
    charts = {}
    for i, (cid, c) in enumerate(centers.items()):
        c = np.array(c)
        charts[cid] = Chart(cid, 2, box_domain(c - half_width, c + half_width),
                            c - 0.8 * half_width, c + 0.8 * half_width, priority=i)
    eye = np.eye(2)
    d, d2 = (lambda x: np.zeros(x.shape + (2,)) + eye), (lambda x: np.zeros(x.shape + (2, 2)))
    for tid, ct in centers.items():
        shift = partial(_box_shift, np.array(ct))
        for cid in centers:
            if cid != tid:
                charts[cid].add_transition(tid, Transition(shift, d, d2))
    return Atlas("torus", 2, list(charts.values()))


def sphere_atlas() -> Atlas:
    disk = disk_domain(2.0)
    a = Chart("a", 2, disk, [-1.2, -1.2], [1.2, 1.2], priority=0)
    b = Chart("b", 2, disk, [-1.2, -1.2], [1.2, 1.2], priority=1)
    inversion = _inversion()  # one formula both ways: rows of a and b hop in one call
    a.add_transition("b", inversion)
    b.add_transition("a", inversion)
    return Atlas("sphere", 2, [a, b])


def halfplane_atlas() -> Atlas:
    def contains(x, margin=0.0):
        a, b = x.T[0], x.T[1]
        return ((b > 1e-8 * (1.0 + margin)) & (np.abs(a) < 1e6 * (1.0 - margin))
                & (b < 1e6 * (1.0 - margin))).T

    return Atlas("halfplane", 2, [Chart("hp", 2, contains, [-2.0, 0.5], [2.0, 2.0])])


def disk_atlas() -> Atlas:
    return Atlas("disk", 2, [Chart("disk", 2, disk_domain(1.0), [-0.5, -0.5], [0.5, 0.5])])


# -- connections --------------------------------------------------------------

def _flat_chart(n: int) -> ConnChart:
    return ConnChart(bilinear=lambda x, v, w: np.zeros(np.broadcast(x, v, w).shape),
                     tensor=lambda x: np.zeros(x.shape[:-1] + (n, n, n)),
                     d_dir=lambda x, u: np.zeros(np.broadcast(x, u).shape + (n, n)))


def flat_connection(atlas: Atlas) -> ConnectionField:
    flat = _flat_chart(atlas.dim)
    return ConnectionField(atlas, "flat", {cid: flat for cid in atlas.charts})


# the polar-chart tensor is r _POLAR_R - _POLAR_INV / r
_POLAR_R = np.array([[[0, 0], [0, 1]], [[0, 0], [0, 0]]], float)
_POLAR_INV = np.array([[[0, 0], [0, 0]], [[0, 1], [1, 0]]], float)


def plane_flat_connection(atlas: Atlas) -> ConnectionField:
    """Flat connection on the plane: zero in Cartesian, polar Christoffels
    Gamma^r_{theta theta} = -r, Gamma^theta_{r theta} = 1/r on the polar chart."""

    def polar_bil(x, v, w):
        r, v, w = x.T[0], v.T, w.T
        return np.array([r * v[1] * w[1], -(v[0] * w[1] + v[1] * w[0]) / r]).T

    def polar_tensor(x):
        r = x[..., 0, None, None, None]
        return r * _POLAR_R - _POLAR_INV / r

    def polar_d_dir(x, u):
        r = x[..., 0, None, None, None]
        return u[..., 0, None, None, None] * (_POLAR_R + _POLAR_INV / r**2)

    charts = {
        "cart": _flat_chart(2),
        "polar": ConnChart(bilinear=polar_bil, tensor=polar_tensor, d_dir=polar_d_dir),
    }
    return ConnectionField(atlas, "flat", charts)


# x @ _ROUND_FORM, reshaped to (..., 2, 2, 2), is the round-sphere tensor over
# its conformal factor: x_j delta_ik + x_k delta_ij - delta_jk x_i
_ROUND_FORM = (np.einsum("lj,ik->lijk", _EYE2, _EYE2) + np.einsum("lk,ij->lijk", _EYE2, _EYE2)
               - np.einsum("jk,il->lijk", _EYE2, _EYE2)).reshape(2, 8)


def _round_form(x):
    return (x @ _ROUND_FORM).reshape(x.shape[:-1] + (2, 2, 2))


def _dot(a, b):
    """<a, b> of (..., n) rows, shaped (..., 1, 1, 1) to scale (n, n, n) tensors."""
    return (a[..., None, :] @ b[..., :, None])[..., None]


def round_sphere_connection(atlas: Atlas) -> ConnectionField:
    """Levi-Civita connection of the round metric 4/(1+|x|^2)^2 dx^2 in both
    stereographic charts: B_x(v, w) = c (<x,v> w + <x,w> v - <v,w> x),
    c = 2/(1+|x|^2).  Both charts hand out one fused spray (v, B_x(v, v))."""

    def bil(x, v, w):
        x, v, w = x.T, v.T, w.T
        x0, x1, v0, v1, w0, w1 = x[0], x[1], v[0], v[1], w[0], w[1]
        c = 2.0 / (1.0 + (x0 * x0 + x1 * x1))
        xv, xw, vw = x0 * v0 + x1 * v1, x0 * w0 + x1 * w1, v0 * w0 + v1 * w1
        return np.array([c * (xv * w0 + xw * v0 - vw * x0), c * (xv * w1 + xw * v1 - vw * x1)]).T

    def spray(z):  # bil(x, v, v) with xv * v0 + xv * v0 as the exact (xv + xv) * v0
        z = z.T
        x0, x1, v0, v1 = z[0], z[1], z[2], z[3]
        c = 2.0 / (1.0 + (x0 * x0 + x1 * x1))
        xv = x0 * v0 + x1 * v1
        xv, vv = xv + xv, v0 * v0 + v1 * v1
        return np.array([v0, v1, c * (xv * v0 - vv * x0), c * (xv * v1 - vv * x1)]).T

    def tensor(x):
        return 2.0 / (1.0 + _dot(x, x)) * _round_form(x)

    def d_dir(x, u):
        c = 2.0 / (1.0 + _dot(x, x))
        return -c * c * _dot(x, u) * _round_form(x) + c * _round_form(u)

    charts = {cid: ConnChart(bilinear=bil, tensor=tensor, d_dir=d_dir, spray=spray)
              for cid in ("a", "b")}
    return ConnectionField(atlas, "round", charts)


# the half-plane tensor is _HYPERBOLIC / y
_HYPERBOLIC = np.array([[[0, 1], [1, 0]], [[-1, 0], [0, 1]]], float)


def hyperbolic_connection(atlas: Atlas) -> ConnectionField:
    """Levi-Civita connection of (dx^2 + dy^2)/y^2 on the upper half-plane."""

    def bil(x, v, w):
        y, v, w = x.T[1], v.T, w.T
        return np.array([(v[0] * w[1] + v[1] * w[0]) / y, (v[1] * w[1] - v[0] * w[0]) / y]).T

    def spray(z):  # bil(x, v, v) with v0 * v1 + v1 * v0 as t + t
        z = z.T
        y, v0, v1 = z[1], z[2], z[3]
        t = v0 * v1
        return np.array([v0, v1, (t + t) / y, (v1 * v1 - v0 * v0) / y]).T

    def tensor(x):
        return _HYPERBOLIC / x[..., 1, None, None, None]

    def d_dir(x, u):
        y = x[..., 1, None, None, None]
        return -(u[..., 1, None, None, None] / y) * (_HYPERBOLIC / y)

    return ConnectionField(atlas, "hyperbolic", {"hp": ConnChart(bilinear=bil, tensor=tensor,
                                                                 d_dir=d_dir, spray=spray)})


# -- vector fields -------------------------------------------------------------

def _plane_fields(atlas: Atlas) -> dict[str, VectorField]:
    z2 = np.zeros(2)

    def polar_const(vec):
        def value(y):
            r, th = y[..., 0], y[..., 1]
            c, s = np.cos(th), np.sin(th)
            return np.stack([c * vec[0] + s * vec[1], (-s * vec[0] + c * vec[1]) / r], axis=-1)

        return ChartField(value=value)

    def polar_shear(y):
        r, th = y[..., 0], y[..., 1]
        return np.stack([r * np.sin(th) * np.cos(th), -np.sin(th) ** 2], axis=-1)

    def polar_sq(y):
        r, th = y[..., 0], y[..., 1]
        c = np.cos(th)
        return np.stack([r**2 * c**3, -r * np.sin(th) * c**2], axis=-1)

    fields = {
        "trans_x": {"cart": quad_chart([1, 0], None, None), "polar": polar_const([1, 0])},
        "trans_y": {"cart": quad_chart([0, 1], None, None), "polar": polar_const([0, 1])},
        "rotation": {"cart": quad_chart(z2, [[0, -1], [1, 0]], None),
                     "polar": quad_chart([0, 1], None, None)},
        "shear": {"cart": quad_chart(z2, [[0, 1], [0, 0]], None),
                  "polar": ChartField(value=polar_shear)},
        "nonaffine_sq": {"cart": quad_chart(z2, None, _sym2({(0, 0, 0): 1.0})),
                         "polar": ChartField(value=polar_sq)},
    }
    return {name: VectorField(atlas, name, charts) for name, charts in fields.items()}


def _sphere_fields(atlas: Atlas) -> dict[str, VectorField]:
    """so(3) generators pushed through the stereographic projections.

    rot_j is the chart form of X -> -A_j X (A_j the standard rotation
    generators), which makes bracket(rot_x, rot_y) = rot_z with the
    convention [f, g] = dg(f) - df(g).
    """
    rot_z = quad_chart([0, 0], [[0, 1], [-1, 0]], None)
    fields = {
        "rot_x": {
            "a": quad_chart([0, -0.5], None, _sym2({(0, 0, 1): -1.0, (1, 0, 0): 0.5, (1, 1, 1): -0.5})),
            "b": quad_chart([0, 0.5], None, _sym2({(0, 0, 1): 1.0, (1, 0, 0): -0.5, (1, 1, 1): 0.5})),
        },
        "rot_y": {
            "a": quad_chart([0.5, 0], None, _sym2({(0, 0, 0): 0.5, (0, 1, 1): -0.5, (1, 0, 1): 1.0})),
            "b": quad_chart([-0.5, 0], None, _sym2({(0, 0, 0): -0.5, (0, 1, 1): 0.5, (1, 0, 1): -1.0})),
        },
        "rot_z": {"a": rot_z, "b": rot_z},
    }
    return {name: VectorField(atlas, name, charts) for name, charts in fields.items()}


def _halfplane_fields(atlas: Atlas) -> dict[str, VectorField]:
    fields = {
        "hyp_trans": quad_chart([1, 0], None, None),
        "hyp_dilate": quad_chart([0, 0], np.eye(2), None),
        "hyp_conf": quad_chart([0, 0], None, _sym2({(0, 0, 0): 1.0, (0, 1, 1): -1.0, (1, 0, 1): 2.0})),
    }
    return {name: VectorField(atlas, name, {"hp": cf}) for name, cf in fields.items()}


def _torus_fields(atlas: Atlas) -> dict[str, VectorField]:
    out = {}
    for name, vec in (("t_trans_x", [1.0, 0.0]), ("t_trans_y", [0.0, 1.0])):
        cf = quad_chart(vec, None, None)
        out[name] = VectorField(atlas, name, {cid: cf for cid in atlas.charts})
    return out


# -- closed-form diffeomorphisms --------------------------------------------------

def sphere_rotation(atlas: Atlas, R) -> "ClosedFormDiffeo":
    """Orthogonal map X -> R X of the round sphere as a closed-form chart map.

    A rotation with unit quaternion (w, q1, q2, q3) acts on the stereographic
    coordinate z = (X + iY) / (1 - Z) of chart "a" as the Moebius map
    z -> (alpha z + beta) / (-conj(beta) z + conj(alpha)), alpha = w + i q3,
    beta = -q2 + i q1, and on chart "b" (coordinate 1 / conj(z)) by the same
    matrix with beta negated.  An improper R is R' E with R' a rotation and
    E = diag(1, 1, -1), which sends the point at chart-"a" coordinates p to
    the point at chart-"b" coordinates p, so each chart runs the other
    chart's map of R'.  The target chart is the one where the image lies
    closer to the origin ("a" on the unit circle).
    """
    from .automorphism import ClosedFormDiffeo

    R = np.asarray(R, float)
    fwd = ClosedFormDiffeo(atlas, "rotation", _mobius_charts(R))
    bwd = ClosedFormDiffeo(atlas, "rotation^-1", _mobius_charts(R.T), inverse=fwd)
    fwd._inverse = bwd
    return fwd


def _mobius_charts(R) -> dict:
    """{chart: ChartMap} of the orthogonal R on the two stereographic charts."""
    improper = np.linalg.det(R) < 0
    if improper:
        R = R * [1.0, 1.0, -1.0]  # R E
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R
    # Bar-Itzhack's symmetric matrix: its top eigenvector is the unit
    # quaternion of R, well conditioned at half-turns (w = 0) too
    K = np.array([[r00 + r11 + r22, r21 - r12, r02 - r20, r10 - r01],
                  [r21 - r12, r00 - r11 - r22, r01 + r10, r02 + r20],
                  [r02 - r20, r01 + r10, r11 - r00 - r22, r12 + r21],
                  [r10 - r01, r02 + r20, r12 + r21, r22 - r00 - r11]])
    w, q1, q2, q3 = np.linalg.eigh(K)[1][:, -1]
    alpha, beta = complex(w, q3), complex(-q2, q1)
    maps = {"a": _mobius_map((alpha, beta, -beta.conjugate(), alpha.conjugate()), "a", "b"),
            "b": _mobius_map((alpha, -beta, beta.conjugate(), alpha.conjugate()), "b", "a")}
    return {"a": maps["b"], "b": maps["a"]} if improper else maps


def _mobius_map(m, home: str, other: str):
    """ChartMap of z -> (a z + b) / (c z + d), m = (a, b, c, d), into chart
    `home`, or into `other` as conj((c z + d) / (a z + b)) when the image
    leaves the unit circle (on the circle: into "a")."""
    from .automorphism import ChartMap

    def jet(p):
        a, b, c, d = m
        z = complex(p[0], p[1])
        num, den = a * z + b, c * z + d
        tid, conj = home, 1.0
        if abs(num) > abs(den) or (abs(num) == abs(den) and home == "b"):
            a, b, c, d, num, den = c, d, a, b, den, num
            tid, conj = other, -1.0
        f = num / den
        f1 = (a * d - b * c) / den**2
        f2 = -2.0 * c * f1 / den
        # d/dx = d/dz and d/dy = i d/dz; conj negates the imaginary rows
        sign = np.array([1.0, conj])
        J = np.array([[f1.real, -f1.imag], [f1.imag, f1.real]]) * sign[:, None]
        H = np.array([[f2, 1j * f2], [1j * f2, -f2]])
        T = np.stack([H.real, H.imag]) * sign[:, None, None]
        return tid, np.array([f.real, f.imag]) * sign, J, T

    return ChartMap(jet)


def rotation_matrix_3d(axis: int, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if axis == 0:
        return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    if axis == 1:
        return np.array([[c, 0, s], [0, 1.0, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def plane_affine_map(atlas: Atlas, Q, c) -> "ClosedFormDiffeo":
    """x -> Q x + c on the Cartesian chart of the flat plane."""
    from .automorphism import ChartMap, ClosedFormDiffeo

    Q = np.asarray(Q, float)
    c = np.asarray(c, float)
    Qi = np.linalg.inv(Q)
    n = Q.shape[0]

    def chart_map(M, b):
        return ChartMap(lambda x: ("cart", M @ x + b, M.copy(), np.zeros((n, n, n))))

    fwd = ClosedFormDiffeo(atlas, "affine", {"cart": chart_map(Q, c)})
    bwd = ClosedFormDiffeo(atlas, "affine^-1", {"cart": chart_map(Qi, -Qi @ c)}, inverse=fwd)
    fwd._inverse = bwd
    return fwd


# -- registry -------------------------------------------------------------------

class Catalog:
    """Named registry of atlases, connections, and vector fields."""

    VERSION = "2"

    def __init__(self):
        self._atlases = {}
        self._conns = {}
        self._fields = {}

        plane = plane_atlas()
        self._register(plane, {"flat": plane_flat_connection(plane)}, _plane_fields(plane))
        torus = torus_atlas()
        self._register(torus, {"flat": flat_connection(torus)}, _torus_fields(torus))
        sphere = sphere_atlas()
        self._register(sphere, {"round": round_sphere_connection(sphere)}, _sphere_fields(sphere))
        hp = halfplane_atlas()
        self._register(hp, {"hyperbolic": hyperbolic_connection(hp)}, _halfplane_fields(hp))
        disk = disk_atlas()
        self._register(disk, {"flat": flat_connection(disk)}, {})

    def _register(self, atlas, conns, fields):
        self._atlases[atlas.name] = atlas
        self._conns[atlas.name] = conns
        self._fields[atlas.name] = fields

    def manifold_names(self):
        return sorted(self._atlases)

    def connection_names(self, manifold: str):
        return sorted(self._conns.get(manifold, {}))

    def field_names(self, manifold: str):
        return sorted(self._fields.get(manifold, {}))

    def atlas(self, name: str) -> Atlas:
        return self._atlases[name]

    def connection(self, manifold: str, name: str) -> ConnectionField:
        return self._conns[manifold][name]

    def field(self, manifold: str, name: str) -> VectorField:
        return self._fields[manifold][name]

    def killing_pairs(self):
        """(connection, field, is_affine) triples for every catalog field."""
        expected = {"nonaffine_sq": False}
        out = []
        for mname, fields in self._fields.items():
            conns = self._conns[mname]
            if not fields or not conns:
                continue
            cname = sorted(conns)[0]
            for fname, fld in fields.items():
                out.append((conns[cname], fld, expected.get(fname, True)))
        return out


_default: Catalog | None = None


def default_catalog() -> Catalog:
    global _default
    if _default is None:
        _default = Catalog()
    return _default
