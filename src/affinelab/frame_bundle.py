"""The frame bundle in bundle charts: (x, g) with g an invertible matrix.

A frame over x is the linear map E -> T_x M sending e to the tangent
vector with chart components g e.  The soldering form, connection form,
and their packaging kappa = (theta, omega) follow the chart formulas

    theta_(x,g)(v, w)    = g^{-1} v
    omega_(x,g)(v, w)(e) = g^{-1} (w(e) - B_x(g e, v))

with (v, w) in E x gl(E).  kappa is invertible on every fiber; the
standard horizontal field H_lambda is kappa^{-1}(lambda, 0):

    H_lambda(x, g) = (g lambda, e -> B_x(g e, g lambda)).

Since kappa is a {1}-structure, the constant fields kappa^{-1}(lam, A)
form one map P x (E + gl(E)) -> TP, linear in (lam, A):
`kappa_inverse_family` is that map as one field with per-row parameters
p = pack(lam, A), its chart callables built once per connection.  Every
kappa^{-1} entry point evaluates them: `kappa_inverse_field` (and
`standard_horizontal`) binds one row with `functools.partial`, one member
per distinct family callable, and `kappa_inverse` and `kappa_matrix` call
the family `value` at one frame.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .atlas import Point, Tangent, _vec
from .bundles import DET_GUARD, frame_atlas, pack, unpack
from .connection import ConnectionField
from .errors import SingularFrame, SingularGroupElement
from .flows import ChartField, IntegratorConfig, VectorField, integrate
from .geodesics import geodesic
from .numdiff import _norm


@dataclass(frozen=True, eq=False)
class Frame:
    chart: str
    x: np.ndarray
    g: np.ndarray

    def __post_init__(self):  # copies: the caller's arrays may change later
        object.__setattr__(self, "x", np.array(self.x, float, ndmin=1))
        object.__setattr__(self, "g", np.array(self.g, float))

    @property
    def dim(self) -> int:
        return self.x.size

    def point(self) -> Point:
        """Base point q(p)."""
        return Point(self.chart, self.x)

    def packed(self) -> Point:
        """Flattened representation on the frame-bundle atlas."""
        return Point(self.chart, pack(self.x, self.g))


def frame_from_packed(p: Point, n: int) -> Frame:
    x, g = unpack(p.coords, n, n)
    return Frame(p.chart, x, g)


@dataclass(frozen=True, eq=False)
class FrameTangent:
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):  # copies: the caller's arrays may change later
        object.__setattr__(self, "v", np.array(self.v, float, ndmin=1))
        object.__setattr__(self, "w", np.array(self.w, float))

    def packed(self) -> np.ndarray:
        return pack(self.v, self.w)


def frame_tangent_from_packed(z: np.ndarray, n: int) -> FrameTangent:
    v, w = unpack(z, n, n)
    return FrameTangent(v, w)


@dataclass(frozen=True, eq=False)
class KappaValue:
    theta: np.ndarray
    omega: np.ndarray

    def __post_init__(self):  # copies: the caller's arrays may change later
        object.__setattr__(self, "theta", np.array(self.theta, float, ndmin=1))
        object.__setattr__(self, "omega", np.array(self.omega, float))


def _check_invertible(g: np.ndarray, err, label: str) -> None:
    if abs(np.linalg.det(g)) <= DET_GUARD:
        raise err(f"{label} is numerically singular (|det| <= {DET_GUARD})")


def rho(frame: Frame, g2) -> Frame:
    """Right action (x, g) . g2 = (x, g g2)."""
    g2 = np.asarray(g2, float)
    _check_invertible(g2, SingularGroupElement, "group element")
    return Frame(frame.chart, frame.x, frame.g @ g2)


def soldering(frame: Frame, ft: FrameTangent) -> np.ndarray:
    """theta(v, w) = g^{-1} v."""
    _check_invertible(frame.g, SingularFrame, "frame")
    return np.linalg.solve(frame.g, ft.v)


def _b_columns(T: np.ndarray, g: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Columns B_x(g e_m, v), T the tensor at x: (T v) g, v contracted first; broadcasts."""
    return (T @ v[..., None, :, None])[..., 0] @ g


def connection_form(conn: ConnectionField, frame: Frame, ft: FrameTangent) -> np.ndarray:
    """omega(v, w) = g^{-1}(w - B_x(g . , v))."""
    _check_invertible(frame.g, SingularFrame, "frame")
    M = _b_columns(conn.tensor(frame.point()), frame.g, ft.v)
    return np.linalg.solve(frame.g, ft.w - M)


def kappa(conn: ConnectionField, frame: Frame, ft: FrameTangent) -> KappaValue:
    return KappaValue(soldering(frame, ft), connection_form(conn, frame, ft))


def kappa_inverse(conn: ConnectionField, frame: Frame, kv: KappaValue) -> FrameTangent:
    """Closed-form inverse: v = g lambda, w = g A + B_x(g . , g lambda)."""
    _check_invertible(frame.g, SingularFrame, "frame")
    kinv = kappa_inverse_family(conn).chart_field(frame.chart).value
    return frame_tangent_from_packed(kinv(frame.packed().coords, pack(kv.theta, kv.omega)),
                                     frame.dim)


def kappa_matrix(conn: ConnectionField, frame: Frame) -> np.ndarray:
    """kappa_p as an (n + n^2) x (n + n^2) matrix on packed tangents: the
    inverse of kappa_p^{-1}, whose columns are the kappa^{-1} family at p."""
    _check_invertible(frame.g, SingularFrame, "frame")
    N = frame.dim + frame.dim ** 2
    kinv = kappa_inverse_family(conn).chart_field(frame.chart).value
    return np.linalg.inv(kinv(np.tile(frame.packed().coords, (N, 1)), np.eye(N)).T)


# -- fields on the frame-bundle atlas ---------------------------------------

def kappa_inverse_family(conn: ConnectionField) -> VectorField:
    """Every field kappa^{-1}(lam, A) as one family on the frame bundle,
    built once per connection: its chart callables take frame rows z and
    parameter rows p = pack(lam, A), broadcasting together, so flows of
    different (lam, A) share a block.  Charts whose connection shares
    `tensor` and `d_dir` share one pair.  `d` is the closed-form Jacobian
    in z: with v = g lam at z = (x, g),

        d/dx_j  (v, w) = (0, dB(e_j)(g . , v))
        d/dg_ab (v, w) = (E_ab lam, E_ab A + B(E_ab . , v) + B(g . , E_ab lam)),

    the base columns from one `d_dir` call over the n coordinate directions.
    """
    cached = getattr(conn, "_kappa_inverse_family", None)
    if cached is not None:
        return cached
    n = conn.atlas.dim
    eye = np.eye(n)
    N = n + n * n

    @cache  # one pair per (tensor, d_dir): charts that share them step together
    def family(tensor, d_dir):
        def value(z, p):
            x, g = unpack(z, n, n)
            lam, A = p[..., :n], p[..., n:].reshape(p.shape[:-1] + (n, n))
            v = (g @ lam[..., None])[..., 0]
            return pack(v, g @ A + _b_columns(tensor(x), g, v))

        def d(z, p):
            x, g = unpack(z, n, n)
            lam, A = p[..., :n], p[..., n:].reshape(p.shape[:-1] + (n, n))
            lead = np.broadcast_shapes(x.shape[:-1], lam.shape[:-1])
            T = tensor(x)
            v = (g @ lam[..., None])[..., 0]
            dT = d_dir(x[..., None, :], eye)  # dT[..., j, :, :, :] along e_j
            base_cols = _b_columns(dT, g[..., None, :, :], v[..., None, :])  # (..., j, i, m)
            fibre = (eye[:, None, :, None] * np.swapaxes(A, -1, -2)[..., None, :, None, :]
                     + np.einsum("...iak,...k,mb->...imab", T, v, eye)
                     + np.einsum("...ija,...jm,...b->...imab", T, g, lam))
            out = np.zeros(lead + (N, N))
            out[..., :n, n:] = (eye[:, :, None] * lam[..., None, None, :]).reshape(
                lam.shape[:-1] + (n, n * n))
            out[..., n:, :n] = np.moveaxis(base_cols, -3, -1).reshape(lead + (n * n, n))
            out[..., n:, n:] = fibre.reshape(lead + (n * n, n * n))
            return out

        return ChartField(value=value, d=d)

    charts = {cid: family(conn._chart(cid).tensor, conn._chart(cid).d_dir)
              for cid in conn.atlas.charts if conn.has_chart(cid)}
    field = VectorField(frame_atlas(conn.atlas), "kappa_inv", charts, params=N)
    conn._kappa_inverse_family = field
    return field


def kappa_inverse_field(conn: ConnectionField, lam, A=None, name: str | None = None) -> VectorField:
    """The field eta_(lam, A)(p) = kappa_p^{-1}(lam, A) on the frame bundle:
    `kappa_inverse_family` with the row p = pack(lam, A) bound, one member
    per distinct family callable; A = 0 gives the standard horizontal field
    H_lambda.  `value` and `d` take (..., n + n^2) rows."""
    n = conn.atlas.dim
    lam = _vec(lam)
    p = pack(lam, np.zeros((n, n)) if A is None else A)
    family = kappa_inverse_family(conn)
    member = cache(lambda cf: ChartField(value=partial(cf.value, p=p), d=partial(cf.d, p=p)))
    charts = {cid: member(cf) for cid, cf in family._charts.items()}
    label = name or f"kappa_inv[{np.array2string(lam, precision=3)}]"
    return VectorField(family.atlas, label, charts)


def standard_horizontal(conn: ConnectionField, lam) -> VectorField:
    """H_lambda(x, g) = (g lambda, e -> B_x(g e, g lambda))."""
    lam = _vec(lam)
    return kappa_inverse_field(conn, lam, name=f"H[{np.array2string(lam, precision=3)}]")


def horizontal_flow(conn: ConnectionField, lam, frame: Frame, t: float,
                    cfg: IntegratorConfig, record: list | None = None) -> Frame:
    end = integrate(standard_horizontal(conn, lam), frame.packed(), t, cfg, record=record)
    return frame_from_packed(end, conn.atlas.dim)


def horizontal_projection_parts(conn: ConnectionField, lam, frame: Frame, t1: float,
                                cfg: IntegratorConfig) -> tuple[float, float]:
    """(derivative defect, geodesic gap) of the horizontal-flow projection on [0, t1].

    First part: max over sample times of |(q o gamma)'(t) - gamma(t) lambda|
    with the base derivative taken by central differences of the recorded
    trajectory.  Second part: max gap between q o gamma and the geodesic
    with initial velocity p . lambda.
    """
    n = conn.atlas.dim
    lam = _vec(lam)
    rec = []
    horizontal_flow(conn, lam, frame, t1, cfg, record=rec)

    t = np.array([r[0] for r in rec])
    c = np.array([r[1] for r in rec])
    x, g = unpack(np.array([r[2] for r in rec]), n, n)
    # rows whose neighbours share their chart, at three distinct times: none next to a hop
    kept = ((c[:-2] == c[1:-1]) & (c[2:] == c[1:-1]) & (t[:-2] != t[1:-1])
            & (t[2:] != t[1:-1]) & (t[2:] != t[:-2]))
    fd = (x[2:] - x[:-2]) / (t[2:] - t[:-2])[:, None]
    worst_prime = float(np.max(_norm((fd - g[1:-1] @ lam)[kept]), initial=0.0))

    # projected curve vs the geodesic with matching initial data
    v0 = frame.g @ lam
    curve = geodesic(conn, Tangent(frame.point(), v0), (0.0, t1), cfg)
    picked = rec[:: max(1, len(rec) // 200)]
    charts, X, _ = curve.eval_rows([r[0] for r in picked])
    worst_geo = 0.0
    for (_, c, z), cg, xg in zip(picked, charts, X):
        x, _ = unpack(z, n, n)
        worst_geo = max(worst_geo, conn.atlas.gap(Point(c, x), Point(cg, xg)))
    return worst_prime, worst_geo


def horizontal_projection_defect(conn: ConnectionField, lam, frame: Frame, t1: float,
                                 cfg: IntegratorConfig) -> float:
    """Sum of the two horizontal-projection defect parts."""
    prime, geo = horizontal_projection_parts(conn, lam, frame, t1, cfg)
    return prime + geo
