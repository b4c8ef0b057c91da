"""Represented diffeomorphisms and the flow-generated automorphism group.

A Diffeo is either a ClosedFormDiffeo (per-chart map with analytic
derivatives) or a FlowWord (ordered flow segments of named fields,
composed left-to-right; the inverse reverses the word and negates
durations).  A map f is affine when

    d2 f(v, w) + df(B1_x(v, w)) = B2_{f(x)}(df v, df w);

`affine_residual` returns the left minus right side.  `exp_aut` realizes
the group exponential: it verifies the Killing residual on a sample set
and returns the time-(-1) flow word.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .atlas import Atlas, Point, Tangent, _vec
from .bundles import pack, unpack
from .connection import ConnectionField
from .errors import ChartMissing, NotInOverlap, NotKilling
from .flows import IntegratorConfig, VectorField, integrate, variational_flow
from .frame_bundle import Frame, FrameTangent, kappa
from .killing import killing_residual, natural_lift


class Diffeo:
    """A represented (local) diffeomorphism of an atlas."""

    atlas: Atlas

    def apply(self, point: Point) -> Point:
        raise NotImplementedError

    def jac(self, point: Point) -> tuple[np.ndarray, Point]:
        """(df(x), f(x)); the matrix maps point-chart to output-chart coords."""
        raise NotImplementedError

    def tangent(self, t: Tangent) -> Tangent:
        J, out = self.jac(t.base)
        return Tangent(out, J @ t.vec)

    def d2_dir(self, point: Point, v, w) -> np.ndarray:
        """d2 f(x)(v, w) in the chart of apply(point); nested central FD."""
        v = _vec(v)
        w = _vec(w)
        out = self.apply(point)
        h = numdiff.step2(point.coords) / max(1.0, float(np.linalg.norm(w)))

        def jv(x):
            J, o = self.jac(Point(point.chart, x))
            if o.chart != out.chart:
                J = self.atlas.d_transition(o, out.chart) @ J
            return J @ v

        return (jv(point.coords + h * w) - jv(point.coords - h * w)) / (2.0 * h)

    def inverse(self) -> "Diffeo":
        raise NotImplementedError


@dataclass(eq=False)
class ChartMap:
    """Per-chart closed form: map x -> (target_chart, y), its Jacobian `d`
    and optionally its second derivative tensor `d2` (without it,
    `d2_dir` falls back to central differences of `d`)."""

    map: Callable
    d: Callable
    d2: Callable | None = None


class ClosedFormDiffeo(Diffeo):
    def __init__(self, atlas: Atlas, name: str, charts: dict[str, ChartMap], inverse=None):
        self.atlas = atlas
        self.name = name
        self._charts = dict(charts)
        self._inverse = inverse

    def _rep(self, point: Point) -> Point:
        if point.chart in self._charts:
            return point
        for cid in self.atlas.chart_order():
            if cid in self._charts:
                try:
                    return self.atlas.transition(point, cid)
                except NotInOverlap:
                    continue
        raise ChartMissing(f"diffeo {self.name!r} has no chart holding {point!r}")

    def apply(self, point: Point) -> Point:
        p = self._rep(point)
        tid, y = self._charts[p.chart].map(p.coords)
        return Point(tid, _vec(y))

    def jac(self, point: Point) -> tuple[np.ndarray, Point]:
        p = self._rep(point)
        cm = self._charts[p.chart]
        tid, y = cm.map(p.coords)
        J = np.asarray(cm.d(p.coords), float)
        if p.chart != point.chart:
            J = J @ self.atlas.d_transition(point, p.chart)
        return J, Point(tid, _vec(y))

    def d2_dir(self, point: Point, v, w) -> np.ndarray:
        p = self._rep(point)
        cm = self._charts[p.chart]
        if cm.d2 is None or p.chart != point.chart:
            return super().d2_dir(point, v, w)
        T2 = np.asarray(cm.d2(p.coords), float)
        return np.einsum("ijk,j,k->i", T2, _vec(v), _vec(w))

    def d2_tensor(self, point: Point) -> np.ndarray | None:
        p = self._rep(point)
        cm = self._charts[p.chart]
        if cm.d2 is None or p.chart != point.chart:
            return None
        return np.asarray(cm.d2(p.coords), float)

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

    def apply(self, point: Point) -> Point:
        p = point
        for f, t in self.word:
            p = integrate(f, p, t, self.cfg)
        return p

    def jac(self, point: Point) -> tuple[np.ndarray, Point]:
        p = point
        J = np.eye(self.atlas.dim)
        for f, t in self.word:
            p, J = variational_flow(f, p, J, t, self.cfg)
        return J, p

    def tangent(self, t: Tangent) -> Tangent:
        p, v = t.base, t.vec
        for f, dur in self.word:
            p, v = variational_flow(f, p, v, dur, self.cfg)
        return Tangent(p, v)

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

    def tangent_frame(self, frame: Frame, ft: FrameTangent) -> tuple[Frame, FrameTangent]:
        """(Fr(f)(p), T Fr(f)(ft)) in the output bundle chart."""
        if isinstance(self.base, FlowWord):
            z = frame.packed()
            wt = pack(ft.v, ft.w)
            for f, dur in self.base.word:
                lift = natural_lift(f)
                z, wt = variational_flow(lift, z, wt, dur, self.base.cfg)
            n = self.atlas.dim
            x, g = unpack(z.coords, n, n)
            v, w = unpack(wt, n, n)
            return Frame(z.chart, x, g), FrameTangent(v, w)
        # closed form: TF(dx, dg) = (df dx, d2f(dx, .) g + df dg)
        p = frame.point()
        J, out = self.base.jac(p)
        T2 = self.base.d2_tensor(p) if isinstance(self.base, ClosedFormDiffeo) else None
        n = self.atlas.dim
        if T2 is None:
            M = np.empty((n, n))
            for m in range(n):
                M[:, m] = self.base.d2_dir(p, ft.v, frame.g[:, m])
        else:
            M = np.einsum("ijk,j,km->im", T2, ft.v, frame.g)
        return (Frame(out.chart, out.coords, J @ frame.g),
                FrameTangent(J @ ft.v, M + J @ ft.w))


def frame_lift(f: Diffeo) -> FrameDiffeo:
    return FrameDiffeo(f)


def orbit_point(fd: FrameDiffeo, p: Frame) -> Frame:
    return fd.apply_frame(p)


def frame_gap(atlas: Atlas, f1: Frame, f2: Frame) -> float:
    """Distance between frames in a common bundle chart."""
    from .bundles import frame_atlas

    fr = frame_atlas(atlas)
    return fr.gap(f1.packed(), f2.packed())


# -- operations ---------------------------------------------------------------

def affine_residual(f: Diffeo, conn1: ConnectionField, conn2: ConnectionField,
                    point: Point, v, w) -> np.ndarray:
    """Left minus right of the affine-map equation at `point`, directions (v, w)."""
    v = _vec(v)
    w = _vec(w)
    J, out = f.jac(point)
    lhs = f.d2_dir(point, v, w) + J @ conn1.eval_B(point, v, w)
    rhs = conn2.eval_B(out, J @ v, J @ w)
    return lhs - rhs


def exp_aut(conn: ConnectionField, field: VectorField, samples, cfg: IntegratorConfig,
            tol_kill: float = 1e-6) -> FlowWord:
    """exp(xi) as the time-(-1) flow word; refuses non-Killing fields.

    `samples` is the list of points where the Killing residual is probed
    (all coordinate direction pairs).
    """
    n = conn.atlas.dim
    basis = np.eye(n)
    worst = 0.0
    for p in samples:
        for v in basis:
            for w in basis:
                worst = max(worst, float(np.linalg.norm(killing_residual(conn, field, p, v, w))))
    if worst > tol_kill:
        raise NotKilling(f"field {field.name!r}: killing residual {worst:.3e} > {tol_kill:g}")
    return FlowWord(conn.atlas, [(field, -1.0)], cfg, name=f"exp({field.name})")


def kappa_pullback_parts(conn: ConnectionField, fd: FrameDiffeo, frame: Frame,
                         ft: FrameTangent) -> tuple[float, float]:
    """(theta, omega) parts of |kappa_{F(p)}(TF ft) - kappa_p(ft)|."""
    before = kappa(conn, frame, ft)
    F, TFt = fd.tangent_frame(frame, ft)
    after = kappa(conn, F, TFt)
    return (float(np.linalg.norm(after.theta - before.theta)),
            float(np.linalg.norm(after.omega - before.omega)))


def kappa_pullback_defect(conn: ConnectionField, fd: FrameDiffeo, frame: Frame,
                          ft: FrameTangent, cfg: IntegratorConfig | None = None) -> float:
    th, om = kappa_pullback_parts(conn, fd, frame, ft)
    return th + om


def exp_commutes_defect(conn: ConnectionField, f: Diffeo, v: Tangent,
                        cfg: IntegratorConfig) -> float:
    """Gap between f(exp(v)) and exp(Tf(v)) in a common chart."""
    from .geodesics import exp_map

    a = f.apply(exp_map(conn, v, cfg))
    b = exp_map(conn, f.tangent(v), cfg)
    return conn.atlas.gap(a, b)
