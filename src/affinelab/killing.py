"""Natural lifts, the affine-Killing residual, brackets, and extension.

The natural lift of xi is `bundles.lift` of its chart callables, the
construction that also lifts the frame bundle's transitions.

A vector field is an infinitesimal affine automorphism exactly when the
chart residual

    R(x; v, w) = d2 xi(v, w) + d xi(B_x(v, w))
                 - dB(x)(xi(x))(v, w) - B_x(d xi v, w) - B_x(v, d xi w)

vanishes, equivalently when its natural lift commutes with every
standard horizontal field.  A Killing field is determined by the seed
(xi(x), v -> nabla_v xi) at one point; `extend_killing` transports that
seed along horizontal flows and group moves and reads the field value
off at the far end.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .atlas import Point, Tangent, _vec
from .bundles import frame_atlas, lift, pack, unpack
from .connection import ConnectionField
from .errors import BasePointMismatch, SeedChartMismatch
from .flows import ChartField, IntegratorConfig, VectorField, _push, variational_flow
from .frame_bundle import Frame, frame_from_packed, kappa_inverse_family, rho, standard_horizontal


@dataclass(frozen=True, eq=False)
class KillingSeed:
    """Point data (xi(x), v -> nabla_v xi) of a candidate Killing field."""

    at: Point
    value: np.ndarray
    nabla: np.ndarray

    def __post_init__(self):  # copies: the caller's arrays may change later
        object.__setattr__(self, "value", np.array(self.value, float, ndmin=1))
        object.__setattr__(self, "nabla", np.array(self.nabla, float))

    def packed(self) -> np.ndarray:
        return pack(self.value, self.nabla)


@dataclass(frozen=True)
class HorizontalPath:
    """Alternating horizontal-flow segments and frame group moves.

    moves: sequence of ("flow", lambda, duration) and ("rho", matrix).
    """

    moves: tuple

    @classmethod
    def single(cls, lam, duration: float = 1.0) -> "HorizontalPath":
        return cls((("flow", _vec(lam), float(duration)),))

    def concat(self, other: "HorizontalPath") -> "HorizontalPath":
        return HorizontalPath(self.moves + other.moves)


def natural_lift(field: VectorField) -> VectorField:
    """Lift xi to the frame bundle: (x, g) -> (xi(x), d xi(x) g), the
    `bundles.lift` of its chart callables.

    The lift's `value` and `d` take (..., n + n^2) rows, like the base
    field's callables they are built from.
    """
    base = field.atlas
    n = base.dim
    # one lift per distinct chart field callables: charts sharing them step together
    lifted = cache(lambda *fns: ChartField(*lift(*fns, n, n)))
    charts = {}
    for cid in base.charts:
        if field.has_chart(cid):
            cf = field.chart_field(cid)
            charts[cid] = lifted(cf.value, cf.d, cf.d2)
    return VectorField(frame_atlas(base), f"lift[{field.name}]", charts)


def killing_residual(conn: ConnectionField, field: VectorField, point: Point, v, w) -> np.ndarray:
    """The second-order residual R(x; v, w); zero iff field is
    infinitesimally affine at x in directions (v, w)."""
    v = _vec(v)
    w = _vec(w)
    val = field.value(point)
    J = field.jac(point)
    H = field.hess(point)
    Bvw = conn.eval_B(point, v, w)
    dB = conn.d_tensor_dir(point, val)
    return (np.einsum("ijk,j,k->i", H, v, w)
            + J @ Bvw
            - np.einsum("ijk,j,k->i", dB, v, w)
            - conn.eval_B(point, J @ v, w)
            - conn.eval_B(point, v, J @ w))


def bracket(f1: VectorField, f2: VectorField) -> VectorField:
    """Chart-wise Lie bracket [f1, f2] = d f2 (f1) - d f1 (f2)."""
    atlas = f1.atlas
    if f2.atlas is not atlas:
        raise ValueError("fields must share an atlas")
    charts = {}
    for cid in f1._charts.keys() & f2._charts.keys():
        cf1, cf2 = f1.chart_field(cid), f2.chart_field(cid)

        def value(x, cf1=cf1, cf2=cf2):
            v1, v2 = _vec(cf1.value(x))[..., None], _vec(cf2.value(x))[..., None]
            return (np.asarray(cf2.d(x), float) @ v1 - np.asarray(cf1.d(x), float) @ v2)[..., 0]

        charts[cid] = ChartField(value=value)
    return VectorField(atlas, f"[{f1.name},{f2.name}]", charts)


def lift_commutation_defect(conn: ConnectionField, fields, lams, frames, s: float, t: float,
                            cfg: IntegratorConfig) -> list:
    """Flow-commutation defect between the natural lift of fields[i] and
    H_lams[i] at frames[i], one per row.  Each H segment runs every row as
    one block of `kappa_inverse_family` with its own lambda.  The lift's flow
    sends (x, G) to (Fl(x), dFl(x) G), so each field's lift segments of both
    words run as one block of its base flow, the frames G as its W."""
    n = conn.atlas.dim
    H = kappa_inverse_family(conn)
    params = np.array([pack(lam, np.zeros((n, n))) for lam in lams])
    b = [fr.packed() for fr in frames]
    a, _ = _push([(H, t)], b, cfg, params=params)  # word a flows H first, word b the lift
    for fld in {id(f): f for f in fields}.values():
        rows = [r for r, f in enumerate(fields) if f is fld]
        frs = [frame_from_packed(z, n) for z in [a[r] for r in rows] + [b[r] for r in rows]]
        ends, W = _push([(fld, s)], [f.point() for f in frs], cfg, w0=[f.g for f in frs])
        ends = [Frame(e.chart, e.coords, w).packed() for e, w in zip(ends, W)]
        for r, end_a, end_b in zip(rows, ends, ends[len(rows):]):
            a[r], b[r] = end_a, end_b
    b, _ = _push([(H, t)], b, cfg, params=params)
    return [H.atlas.gap(p, q) for p, q in zip(a, b)]


def ev_embedding(conn: ConnectionField, field: VectorField, at: Point) -> KillingSeed:
    """Seed (xi(x), v -> nabla_v xi); nabla = d xi - B(xi(x), .), from the tensor at x."""
    val = field.value(at)
    return KillingSeed(at, val, field.jac(at) - val @ conn.tensor(at))


def seed_lift(conn: ConnectionField, seed: KillingSeed) -> np.ndarray:
    """Packed bundle tangent of the lift at the frame (x, id):
    (xi(x), d xi) with d xi = nabla + B_x(xi(x), .)."""
    return pack(seed.value, seed.nabla + seed.value @ conn.tensor(seed.at))


def extend_killing(conn: ConnectionField, seed: KillingSeed, path: HorizontalPath,
                   cfg: IntegratorConfig) -> Tangent:
    """Transport a Killing seed along a horizontal path; returns the
    extended field value at the path endpoint.

    The seed lifts to a bundle tangent at the start frame (x, id); each
    flow segment pushes it with the variational flow of H_lambda, each
    group move right-multiplies the frame and the gl-block (`rho`: a
    singular one raises SingularGroupElement); the E-block at the end is
    xi(endpoint) in the end chart.
    """
    n = conn.atlas.dim
    if seed.at.chart not in conn.atlas.charts:
        raise SeedChartMismatch(f"unknown seed chart {seed.at.chart!r}")
    z = Frame(seed.at.chart, seed.at.coords, np.eye(n)).packed()
    w = seed_lift(conn, seed)
    for move in path.moves:
        if move[0] == "flow":
            _, lam, dur = move
            H = standard_horizontal(conn, lam)
            z, w = variational_flow(H, z, w, dur, cfg)
        elif move[0] == "rho":
            g2 = np.asarray(move[1], float)
            z = rho(frame_from_packed(z, n), g2).packed()
            v, W = unpack(w, n, n)
            w = pack(v, W @ g2)
        else:
            raise ValueError(f"unknown path move {move[0]!r}")
    x_end, _ = unpack(z.coords, n, n)
    v_end, _ = unpack(w, n, n)
    return Tangent(Point(z.chart, x_end), v_end)


def path_to(conn: ConnectionField, x: Point, y: Point, cfg: IntegratorConfig) -> HorizontalPath:
    """Single-segment horizontal path from x to y via exp_inverse, whose
    Newton iterations each shoot one geodesic with its variational columns.

    Fails (NoConvergence) outside normal neighbourhoods; with start frame
    (x, id), lambda equals the chart components of exp_x^{-1}(y).
    """
    from .geodesics import exp_inverse

    v = exp_inverse(conn, x, y, cfg)
    return HorizontalPath.single(v.vec, 1.0)


def gram_rank(seeds) -> int:
    """Numerical rank (relative tolerance 1e-8) of seeds flattened in E x gl(E)."""
    if not seeds:
        return 0
    first = seeds[0].at
    for s in seeds[1:]:
        if s.at.chart != first.chart or not np.allclose(s.at.coords, first.coords, atol=1e-12):
            raise BasePointMismatch("seeds must share a base point")
    M = np.stack([s.packed() for s in seeds])
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > 1e-8 * sv[0]))
