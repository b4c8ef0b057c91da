"""Affine connections as per-chart bilinear fields.

The primitive is the chart family x -> B_x, a bilinear map on R^n stored
as the tensor T[i, j, k] with B(v, w)_i = T[i, j, k] v_j w_k.  The
covariant derivative follows the chart formula

    (nabla_v eta)(x) = d eta(x) v - B_x(eta(x), v)

and the connector extracts the vertical part of a second-order tangent,
(x, v, w, z) -> (x, z - B_x(v, w)).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import numdiff
from .atlas import Atlas, Point, Tangent, _vec
from .errors import ChartMissing


@dataclass(frozen=True, eq=False)
class SecondOrderTangent:
    """Chart representation (x, v, w, z) of a point of TTM."""

    chart: str
    x: np.ndarray
    v: np.ndarray
    w: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("x", "v", "w", "z"):
            object.__setattr__(self, name, _vec(getattr(self, name)))


@dataclass(eq=False)
class ConnChart:
    """Connection data on a single chart.

    `tensor` x -> (n,n,n) is required.  `bilinear` (x, v, w) -> vec is
    optional; when missing, `ConnectionField` derives it from `tensor` by
    a broadcasting einsum.  `d_dir` (x, u) -> (n,n,n) is the directional
    derivative of the tensor along u; `ConnectionField` fills a missing
    one with `numdiff.filled`, central differences of `tensor` (step h1)
    guarded by the chart's domain.  All three take (..., n) arguments,
    broadcast together, and prepend the leading axes to their results: the
    geodesic spray calls `bilinear` on blocks of rows, and the frame-bundle
    fields call `tensor` on blocks and `d_dir` on every coordinate
    direction at once.
    """

    tensor: Callable
    bilinear: Callable | None = None
    d_dir: Callable | None = None


class ConnectionField:
    def __init__(self, atlas: Atlas, name: str, charts: dict[str, ConnChart]):
        if not charts:
            raise ValueError("connection needs at least one chart entry")
        self.atlas = atlas
        self.name = name
        self._charts = {cid: numdiff.filled(cc, "tensor", atlas.chart(cid).contains)
                        for cid, cc in charts.items()}
        for cc in self._charts.values():  # a missing bilinear is derived from the tensor
            if cc.bilinear is None:
                cc.bilinear = _bilinear_from_tensor(cc.tensor)

    def has_chart(self, cid: str) -> bool:
        return cid in self._charts

    def _chart(self, cid: str) -> ConnChart:
        try:
            return self._charts[cid]
        except KeyError:
            raise ChartMissing(f"connection {self.name!r} undefined on chart {cid!r}") from None

    def eval_B(self, point: Point, v, w) -> np.ndarray:
        """B_x(v, w) in the point's chart."""
        return _vec(self._chart(point.chart).bilinear(point.coords, _vec(v), _vec(w)))

    def tensor(self, point: Point) -> np.ndarray:
        return np.asarray(self._chart(point.chart).tensor(point.coords), float)

    def d_tensor_dir(self, point: Point, u) -> np.ndarray:
        """Directional derivative of x -> B_x along u, as an (n,n,n) tensor."""
        return np.asarray(self._chart(point.chart).d_dir(point.coords, _vec(u)), float)

    def bilinear_fn(self, cid: str) -> Callable:
        """Raw (x, v, w) -> vec callable for hot loops (ChartMissing if absent)."""
        return self._chart(cid).bilinear


def _bilinear_from_tensor(tensor):
    def bil(x, v, w):
        return np.einsum("...ijk,...j,...k->...i", np.asarray(tensor(x), float), v, w)

    return bil


def covariant_derivative(conn: ConnectionField, eta, at: Tangent) -> Tangent:
    """nabla_v eta at the tangent's base point, v = at.vec."""
    p = at.base
    val = eta.value(p)
    J = eta.jac(p)
    out = J @ at.vec - conn.eval_B(p, val, at.vec)
    return Tangent(Point(p.chart, p.coords.copy()), out)


def connector_apply(conn: ConnectionField, sot: SecondOrderTangent) -> Tangent:
    """Connector K: (x, v, w, z) -> (x, z - B_x(v, w))."""
    p = Point(sot.chart, sot.x)
    return Tangent(p, sot.z - conn.eval_B(p, sot.v, sot.w))


def change_of_variable_residual(conn: ConnectionField, point: Point, v, w, target: str) -> float:
    """Norm of B2_{h(x)}(dh v, dh w) - d2h(v, w) - dh(B1_x(v, w)).

    Zero (up to FD noise) iff the two chart representations describe the
    same connection on the overlap.
    """
    atlas = conn.atlas
    v = _vec(v)
    w = _vec(w)
    q = atlas.transition(point, target)
    J = atlas.d_transition(point, target)
    T2 = atlas.d2_transition(point, target)
    lhs = conn.eval_B(q, J @ v, J @ w)
    rhs = np.einsum("ijk,j,k->i", T2, v, w) + J @ conn.eval_B(point, v, w)
    return float(np.linalg.norm(lhs - rhs))


def from_christoffel(atlas: Atlas, gammas: dict[str, Callable],
                     name: str = "christoffel") -> ConnectionField:
    """Build a connection from per-chart Christoffel tensors G[i,j,k] = Gamma^i_{jk}.

    The sign/argument bridge is B_x(v, w) = -Gamma_x(w, v), so that the
    covariant derivative reads d eta(v) + Gamma(v, eta) in classical form.
    """
    charts = {}
    for cid, gfn in gammas.items():
        def tensor(x, gfn=gfn):
            G = np.asarray(gfn(x), float)
            return -np.swapaxes(G, -2, -1)

        charts[cid] = ConnChart(tensor=tensor)
    return ConnectionField(atlas, name, charts)
