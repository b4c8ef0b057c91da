"""Represented diffeomorphisms and the flow-generated automorphism group.

A Diffeo is either a ClosedFormDiffeo (a `ChartMap` per chart, whose
`jet` gives f, df and d2 f; a point in any other chart raises
ChartMissing) or a FlowWord (ordered flow segments of named fields,
composed left-to-right; the inverse reverses the word and negates
durations).  A map f is affine when

    d2 f(v, w) + df(B1_x(v, w)) = B2_{f(x)}(df v, df w);

`affine_residual` returns the left minus right side.  Every derivative
of a map comes from its one second-order call, `Diffeo.second`: a closed
form reads its chart jets, a flow word carries second-order columns
beside its Jacobian on the base flow, with no finite differences.
`exp_aut` realizes the group exponential: it verifies the Killing
residual on a sample set and returns the time-(-1) flow word.

`Diffeo.push` maps a list of points (and tangent columns at them); a
FlowWord runs its word through `flows._push`, one block per segment
with a row per point, and its one-point methods are one-row pushes.
`affine_residual`, `FrameDiffeo.tangent_frame` and the defect functions
take lists of points (frames, tangents) and return one result per row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .atlas import Atlas, Point, Tangent, _vec
from .bundles import frame_atlas
from .connection import ConnectionField
from .errors import ChartMissing, NotKilling
from .flows import IntegratorConfig, VectorField, _push
from .frame_bundle import Frame, FrameTangent, kappa
from .killing import killing_residual


class Diffeo:
    """A represented (local) diffeomorphism of an atlas.  A subclass supplies
    `apply(point)`, f(x); `jac(point)`, (df(x), f(x)), df mapping point-chart to
    output-chart coordinates; `second(points, vs)`, (f(x), df(x), d2 f(x)(v, .)) per
    row in the chart of f(x), the last as the (n, n) matrix w -> d2 f(x)(v, w), refusing
    rows of `points` and `vs` that differ in number (ValueError) before any work; and
    `inverse()`.  The methods below are built on these four."""

    atlas: Atlas

    def push(self, points, w0=None) -> tuple[list, np.ndarray | None]:
        """(f(x) per point, df(x) w0 per point as an (m, n, k) array).

        `w0` holds (m, n, k) tangent columns, one (n, k) block per point;
        without it only the images are computed and W is None.
        """
        if w0 is None:
            return [self.apply(p) for p in points], None
        jets = [self.jac(p) for p in points]
        return [out for _, out in jets], np.array([J @ w for (J, _), w in zip(jets, w0)])

    def tangent(self, t: Tangent) -> Tangent:
        J, out = self.jac(t.base)
        return Tangent(out, J @ t.vec)

    def jets(self, points, vs, ws) -> list:
        """(df(x), f(x), d2 f(x)(v, w)) per row, from one `second` call."""
        if not len(points) == len(vs) == len(ws):
            raise ValueError(f"{len(points)} points, {len(vs)} vs and {len(ws)} ws")
        return [(J, out, S @ _vec(w)) for (out, J, S), w in zip(self.second(points, vs), ws)]

    def d2_dir(self, point: Point, v, w) -> np.ndarray:
        """d2 f(x)(v, w) in the chart of apply(point); a one-row `jets`."""
        return self.jets([point], [_vec(v)], [_vec(w)])[0][2]


@dataclass(eq=False)
class ChartMap:
    """Per-chart closed form: `jet(x)` gives (target_chart, f(x), df(x),
    d2 f(x)) at one point x from one evaluation of the formula."""

    jet: Callable


class ClosedFormDiffeo(Diffeo):
    def __init__(self, atlas: Atlas, name: str, charts: dict[str, ChartMap], inverse=None):
        self.atlas = atlas
        self.name = name
        self._charts = dict(charts)
        self._inverse = inverse

    def _jet(self, point: Point) -> tuple[Point, np.ndarray, np.ndarray]:
        """(f(x), df(x), d2 f(x)) from the point's chart map."""
        try:
            cm = self._charts[point.chart]
        except KeyError:
            raise ChartMissing(f"diffeo {self.name!r} undefined on chart {point.chart!r}") from None
        tid, y, J, T = cm.jet(point.coords)
        return Point(tid, _vec(y)), np.asarray(J, float), np.asarray(T, float)

    def apply(self, point: Point) -> Point:
        return self._jet(point)[0]

    def jac(self, point: Point) -> tuple[np.ndarray, Point]:
        out, J, _ = self._jet(point)
        return J, out

    def second(self, points, vs) -> list:
        if len(points) != len(vs):
            raise ValueError(f"{len(points)} points and {len(vs)} vs")
        return [(out, J, np.einsum("ijk,j->ik", T, _vec(v)))
                for (out, J, T), v in zip(map(self._jet, points), vs)]

    d2_dir = Diffeo.d2_dir  # spanned under this class's name by perfbench/tracing.py

    def inverse(self) -> "Diffeo":
        if self._inverse is None:
            raise ValueError(f"diffeo {self.name!r} has no declared inverse")
        return self._inverse


class FlowWord(Diffeo):
    """Composition of flow maps, applied left-to-right."""

    def __init__(self, atlas: Atlas, word, cfg: IntegratorConfig | None = None, name: str = ""):
        self.atlas = atlas
        self.word = [(f, float(t)) for f, t in word]
        self.cfg = cfg or IntegratorConfig()
        self.name = name or "*".join(f"Fl[{f.name},{t:g}]" for f, t in self.word)

    def push(self, points, w0=None) -> tuple[list, np.ndarray | None]:
        """(end points, pushed columns) as `Diffeo.push`, by `flows._push`:
        one block per segment, `w0` as variational columns.  A failed row
        stops; after the last segment the first failed row raises."""
        return _push(self.word, points, self.cfg, w0)

    def apply(self, point: Point) -> Point:
        return self.push([point])[0][0]

    def jac(self, point: Point) -> tuple[np.ndarray, Point]:
        ends, W = self.push([point], np.eye(self.atlas.dim)[None])
        return W[0], ends[0]

    def tangent(self, t: Tangent) -> Tangent:
        ends, W = self.push([t.base], t.vec[None, :, None])
        return Tangent(ends[0], W[0, :, 0])

    def second(self, points, vs) -> list:
        """The images and df of `push(points, I)`, bit for bit, with d2 f(v, .)
        carried beside df on the base flow as second-order columns U from 0
        (`flows._integrate`; Hairer-Norsett-Wanner, Solving ODEs I, I.14)."""
        if len(points) != len(vs):
            raise ValueError(f"{len(points)} points and {len(vs)} vs")
        n, m = self.atlas.dim, len(points)
        U = np.zeros((m, n, n))
        ends, W = _push(self.word, points, self.cfg, np.broadcast_to(np.eye(n), (m, n, n)),
                        second=(np.asarray(vs, float).reshape(m, n), U))
        return list(zip(ends, W, U))

    def inverse(self) -> "FlowWord":
        return FlowWord(self.atlas, [(f, -t) for f, t in reversed(self.word)], self.cfg,
                        name=f"({self.name})^-1")


# -- frame actions -----------------------------------------------------------

class FrameDiffeo:
    """Action of a diffeomorphism on frames: Fr(f)(x, g) = (f(x), df(x) g)."""

    def __init__(self, base: Diffeo):
        self.base = base
        self.atlas = base.atlas

    def apply_frame(self, frame: Frame) -> Frame:
        J, out = self.base.jac(frame.point())
        return Frame(out.chart, out.coords, J @ frame.g)

    def tangent_frame(self, frames, fts) -> tuple[list, list]:
        """(Fr(f)(p) per frame, T Fr(f)(ft) per tangent) in the output
        bundle charts, from one `second` call at the base points:
        T Fr(f)(v, w) = (df v, d2 f(v, .) g + df w) at (x, g)."""
        jets = self.base.second([fr.point() for fr in frames], [t.v for t in fts])
        return ([Frame(out.chart, out.coords, J @ fr.g) for fr, (out, J, _) in zip(frames, jets)],
                [FrameTangent(J @ t.v, S @ fr.g + J @ t.w)
                 for fr, t, (_, J, S) in zip(frames, fts, jets)])


def frame_lift(f: Diffeo) -> FrameDiffeo:
    return FrameDiffeo(f)


def orbit_point(fd: FrameDiffeo, p: Frame) -> Frame:
    return fd.apply_frame(p)


def frame_gap(atlas: Atlas, f1: Frame, f2: Frame) -> float:
    """Distance between frames in a common bundle chart."""
    return frame_atlas(atlas).gap(f1.packed(), f2.packed())


# -- operations ---------------------------------------------------------------

def affine_residual(f: Diffeo, conn1: ConnectionField, conn2: ConnectionField,
                    points, vs, ws) -> np.ndarray:
    """Left minus right of the affine-map equation, one (n,) row per point.

    `vs` and `ws` stack the directions (v, w) as (m, n) rows.
    """
    vs, ws = np.asarray(vs, float), np.asarray(ws, float)
    return np.array([d2 + J @ conn1.eval_B(p, a, b) - conn2.eval_B(out, J @ a, J @ b)
                     for p, a, b, (J, out, d2)
                     in zip(points, vs, ws, f.jets(points, vs, ws), strict=True)]
                    ).reshape(-1, conn1.atlas.dim)  # zero rows: (0, n)


def exp_aut(conn: ConnectionField, field: VectorField, samples, cfg: IntegratorConfig,
            tol_kill: float = 1e-6) -> FlowWord:
    """exp(xi) as the time-(-1) flow word; refuses non-Killing fields.

    `samples` (non-empty) are the points where the Killing residual is
    probed in all coordinate direction pairs; a largest residual above
    `tol_kill` (finite, > 0) or not finite raises NotKilling.
    """
    if not samples:
        raise ValueError("exp_aut needs at least one sample point")
    if not (math.isfinite(tol_kill) and tol_kill > 0):
        raise ValueError(f"tol_kill must be finite and positive, got {tol_kill!r}")
    basis = np.eye(conn.atlas.dim)
    worst = float(np.max([np.linalg.norm(killing_residual(conn, field, p, v, w))
                          for p in samples for v in basis for w in basis]))
    if not worst <= tol_kill:
        raise NotKilling(f"field {field.name!r}: killing residual {worst:.3e} > {tol_kill:g}")
    return FlowWord(conn.atlas, [(field, -1.0)], cfg, name=f"exp({field.name})")


def kappa_pullback_parts(conn: ConnectionField, fd: FrameDiffeo, frames, fts) -> list:
    """(theta, omega) parts of |kappa_{F(p)}(TF ft) - kappa_p(ft)| per row."""
    images, pushed = fd.tangent_frame(frames, fts)
    parts = []
    for fr, t, F, TFt in zip(frames, fts, images, pushed, strict=True):
        before = kappa(conn, fr, t)
        after = kappa(conn, F, TFt)
        parts.append((float(np.linalg.norm(after.theta - before.theta)),
                      float(np.linalg.norm(after.omega - before.omega))))
    return parts


def kappa_pullback_defect(conn: ConnectionField, fd: FrameDiffeo, frames, fts) -> list:
    """theta + omega of `kappa_pullback_parts`, one value per row."""
    return [th + om for th, om in kappa_pullback_parts(conn, fd, frames, fts)]


def exp_commutes_defect(conn: ConnectionField, f: Diffeo, vs, cfg: IntegratorConfig) -> list:
    """Gap between f(exp(v)) and exp(Tf(v)) in a common chart, one per tangent.

    The four steps (exp, push by f, tangent push by f, exp) each run all
    rows as one block, and a step with failing rows raises the error of
    its first one; so when rows fail in different steps, the error raised
    can be a later row's than the first row that fails.
    """
    from .geodesics import exp_map_rows

    a, _ = f.push(exp_map_rows(conn, vs, cfg))
    bases, W = f.push([u.base for u in vs], np.array([u.vec for u in vs])[..., None])
    b = exp_map_rows(conn, [Tangent(p, w[:, 0]) for p, w in zip(bases, W)], cfg)
    return [conn.atlas.gap(p, q) for p, q in zip(a, b)]
