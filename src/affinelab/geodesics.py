"""Geodesics, the exponential map and its inverse, parallel transport.

Geodesics integrate the first-order system (x, v)' = (v, B_x(v, v)) on
the tangent-bundle atlas, so chart hand-off comes for free; a connection
chart may supply that spray fused (`ConnChart.spray`, the same bits).
Curves are piecewise-cubic Hermite interpolants of dense samples,
evaluated at arrays of parameters; parallel transport solves the linear
chart ODE

    gamma'(t) = B_{alpha(t)}(gamma(t), alpha'(t))

as a product of RK4 step propagators (`flows._propagator`, shared with
variational flows) over the curve's grid, its points and midpoints
evaluated as two arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .atlas import Atlas, Point, Tangent, _vec
from .bundles import pack, tangent_atlas
from .connection import ConnectionField
from .errors import LeftAtlas, NoConvergence, NotInOverlap
from .flows import (_CHUNK, OK, ChartField, IntegratorConfig, VectorField, _propagator, _push,
                    _raise_for, _run_block, integrate)
from .flows import _run  # noqa: F401  not called; perfbench/test_counters.py checks its restore

# the cubic Hermite basis h00, h10, h01, h11 and its s-derivatives d00, d10,
# d01, d11 (columns) as coefficients of s^3, s^2, s and 1 (rows)
_HERMITE = np.array([[2, 1, -2, 1, 0, 0, 0, 0], [-3, -2, 3, -1, 6, 3, -6, 3],
                     [0, 1, 0, 0, -6, -4, 6, -2], [1, 0, 0, 0, 0, 1, 0, 0]], float)


def geodesic_field(conn: ConnectionField) -> VectorField:
    """The geodesic spray as a vector field on the tangent-bundle atlas,
    with its closed-form Jacobian as `d` (`d2` is the finite-difference fill).
    A chart's `value` is its connection chart's fused `spray` when it has
    one, else (v, B_x(v, v)) from its `bilinear`, one per distinct callable."""
    cached = getattr(conn, "_geodesic_field", None)
    if cached is not None:
        return cached
    base = conn.atlas
    n = base.dim
    tm = tangent_atlas(base)
    eye = np.eye(n)

    @cache  # one spray per distinct bilinear: charts that share it step together
    def spray(bil):
        def value(z):
            x = z[..., :n]
            v = z[..., n:]
            return np.concatenate([v, bil(x, v, v)], axis=-1)

        return value

    @cache  # one Jacobian per (tensor, d_dir): charts that share them flush together
    def spray_d(tensor, d_dir):
        def d(z):
            """[[0, I], [d_x B(v, v), B(., v) + B(v, .)]] at z = (x, v)."""
            x, v = z[..., :n], z[..., n:]
            T = tensor(x)
            dT = d_dir(x[..., None, :], eye)  # dT[..., j, :, :, :] along e_j
            out = np.zeros(z.shape[:-1] + (2 * n, 2 * n))
            out[..., :n, n:] = eye
            out[..., n:, :n] = np.einsum("...jiab,...a,...b->...ij", dT, v, v)
            out[..., n:, n:] = np.einsum("...ijk,...k->...ij", T + np.swapaxes(T, -1, -2), v)
            return out

        return d

    ccs = {cid: conn._chart(cid) for cid in base.charts if conn.has_chart(cid)}
    charts = {cid: ChartField(value=cc.spray or spray(cc.bilinear), d=spray_d(cc.tensor, cc.d_dir))
              for cid, cc in ccs.items()}
    field = VectorField(tm, f"geodesic[{conn.name}]", charts)
    conn._geodesic_field = field
    return field


class CurveSpec:
    """A curve with velocities, evaluable at an array of parameter values
    (`eval_rows`) or at one (`eval`).  Built either from dense integrator
    samples (rows (t, chart, x, v), duplicated t marking a chart hand-off)
    or from an analytic callable t -> (chart_id, x, v).  Samples must span
    a positive length and change chart only at a duplicated t (ValueError
    otherwise)."""

    def __init__(self, atlas: Atlas, t0: float, t1: float):
        self.atlas = atlas
        self.t0 = float(t0)
        self.t1 = float(t1)
        self._fn = None
        self._ts = None

    @classmethod
    def from_samples(cls, atlas: Atlas, rows) -> "CurveSpec":
        ts = np.array([r[0] for r in rows], float)
        if ts.size < 2 or np.any(np.diff(ts) < 0) or not ts[-1] > ts[0]:
            raise ValueError("need at least two samples with non-decreasing times "
                             "spanning a positive length")
        curve = cls(atlas, ts[0], ts[-1])
        curve._ts = ts
        curve._charts = np.array([r[1] for r in rows], dtype=object)
        curve._xs = np.stack([_vec(r[2]) for r in rows])
        curve._vs = np.stack([_vec(r[3]) for r in rows])
        # segment i spans [ts[i], ts[i+1]]; zero-length hop segments are skipped
        curve._segs = np.flatnonzero(ts[1:] > ts[:-1])
        if np.any(curve._charts[curve._segs] != curve._charts[curve._segs + 1]):
            raise ValueError("a chart hand-off between samples needs a duplicated t")
        curve._seg_starts = ts[curve._segs]
        return curve

    @classmethod
    def from_callable(cls, atlas: Atlas, fn, t0: float, t1: float) -> "CurveSpec":
        curve = cls(atlas, t0, t1)
        curve._fn = fn
        return curve

    def grid(self, cfg: IntegratorConfig) -> np.ndarray:
        """Integration grid: sample times when available, else uniform."""
        if self._ts is not None:
            return np.unique(self._ts)
        n = max(1, int(math.ceil(abs(self.t1 - self.t0) / cfg.step - 1e-12)))
        return np.linspace(self.t0, self.t1, n + 1)

    def _check_span(self, ts, name: str = "t") -> None:
        """ValueError naming the first of `ts` not within [t0, t1] up to round-off."""
        ts = np.asarray(ts, float)
        slack = 1e-12 * max(1.0, abs(self.t0), abs(self.t1))
        out = ~((self.t0 - slack <= ts) & (ts <= self.t1 + slack))
        if out.any():
            kind = "declared" if self._fn is not None else "sampled"
            raise ValueError(f"{name}={float(ts[out][0])!r} lies outside the {kind} span "
                             f"[{self.t0!r}, {self.t1!r}]")

    def eval_rows(self, ts):
        """(charts, X, V) at the m parameters `ts` (1-D): an object array of
        chart ids and (m, n) arrays of positions and velocities.  A callable is
        called once per parameter; a sampled curve evaluates its cubic
        Hermite pieces on all of `ts` at once and raises ValueError for a
        parameter outside its samples by more than round-off."""
        ts = np.asarray(ts, float)
        if self._fn is not None:
            cs, X, V = zip(*map(self._fn, ts.tolist()))
            X, V = (np.asarray(a, float).reshape(ts.size, -1) for a in (X, V))
            return np.array(cs, dtype=object), X, V
        self._check_span(ts)
        t = np.minimum(np.maximum(ts, self.t0), self.t1)
        i = self._segs[np.searchsorted(self._seg_starts, t, side="right") - 1]
        ta, tb = self._ts[i, None], self._ts[i + 1, None]
        h = tb - ta
        s = (t[:, None] - ta) / h
        # products, not s**3 and s**2: numpy's array powers may differ in the last bit
        c = s * s * s * _HERMITE[0] + s * s * _HERMITE[1] + s * _HERMITE[2] + _HERMITE[3]
        h00, h10, h01, h11, d00, d10, d01, d11 = c.T[..., None]
        xa, xb = self._xs[i], self._xs[i + 1]
        va, vb = self._vs[i], self._vs[i + 1]
        x = h00 * xa + h10 * h * va + h01 * xb + h11 * h * vb
        v = (d00 * xa + d01 * xb) / h + d10 * va + d11 * vb
        return self._charts[i], x, v

    def eval(self, t: float):
        """(chart_id, x, v) at parameter t: the one row of `eval_rows([t])`."""
        cs, X, V = self.eval_rows([t])
        return cs[0], X[0], V[0]

    def point(self, t: float) -> Point:
        c, x, _ = self.eval(t)
        return Point(c, x)

    def rows(self):
        """Raw sample rows (t, chart, x, v) when sample-backed."""
        if self._ts is None:
            raise ValueError("analytic curve has no sample rows")
        return [(float(self._ts[i]), self._charts[i], self._xs[i].copy(), self._vs[i].copy())
                for i in range(self._ts.size)]


def geodesic(conn: ConnectionField, v0: Tangent, t_span, cfg: IntegratorConfig) -> CurveSpec:
    """Geodesic alpha with alpha(0) = base, alpha'(0) = v0 over t_span."""
    t0, t1 = float(t_span[0]), float(t_span[1])
    if t0 > 0 or t1 < 0 or t0 == t1:
        raise ValueError("t_span must contain 0 and have positive length")
    base = conn.atlas
    n = base.dim
    fld = geodesic_field(conn)
    start = Point(v0.base.chart, pack(v0.base.coords, v0.vec.reshape(n, 1)))

    def recorded(t):
        """(t, chart, x, v) rows of the spray's flow from `start` to t (t = 0: the start)."""
        rec = []
        integrate(fld, start, t, cfg, record=rec)
        return [(s, cid, z[:n], z[n:]) for s, cid, z in rec]

    # the backward rows in increasing t, without the start that the forward rows begin with
    rows = (recorded(t0)[:0:-1] if t0 < 0 else []) + recorded(t1)
    return CurveSpec.from_samples(base, rows)


def exp_map(conn: ConnectionField, v: Tangent, cfg: IntegratorConfig, t: float = 1.0) -> Point:
    """exp_x(t v) = alpha_v(t); t defaults to 1.  A one-row `exp_map_rows`."""
    return exp_map_rows(conn, [v], cfg, t)[0]


def exp_map_rows(conn: ConnectionField, vs, cfg: IntegratorConfig, t: float = 1.0) -> list:
    """`exp_map` of every tangent in `vs`, integrated as rows of one block.

    If rows fail, the first failing row raises the error it would raise
    alone.
    """
    n = conn.atlas.dim
    if t == 0.0:
        return [Point(u.base.chart, u.base.coords) for u in vs]
    starts = [Point(u.base.chart, pack(u.base.coords, u.vec.reshape(n, 1))) for u in vs]
    ends, _ = _push([(geodesic_field(conn), t)], starts, cfg)
    return [Point(e.chart, e.coords[:n]) for e in ends]


def exp_inverse(conn: ConnectionField, x: Point, y: Point, cfg: IntegratorConfig,
                tol: float = 1e-10, max_iter: int = 50) -> Tangent:
    """Newton shooting for v with exp_x(v) = y (y in a normal neighbourhood).

    The residual is measured in whichever chart holds both endpoints:
    x's chart when it contains y, else y's.  Newton starts from the
    third-order inverse of exp in that chart (`_normal_start`), taken
    back to x's chart by solving with the transition's Jacobian at x (one
    `Atlas.jet` gives x's image and that Jacobian).  Each iteration shoots
    v once, as a one-row block carrying the variational columns [0; I] of the
    spray's closed-form Jacobian: their top n rows are d exp_x(v) in the
    shot's end chart, mapped into the target chart by the transition
    Jacobian (Hairer-Norsett-Wanner, Solving ODEs I, I.14).  The Jacobian
    is refreshed every iteration, with no damping.  An x or y with
    coordinates that are not finite or lie outside its own chart raises
    LeftAtlas before any shot; failure raises NoConvergence (or the
    flow's LeftAtlas or HopLimit); a `tol` that is not finite and
    positive, or a `max_iter` that is not an int >= 1, is a ValueError.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if not (isinstance(max_iter, int) and not isinstance(max_iter, bool) and max_iter >= 1):
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    atlas = conn.atlas
    for name, p in (("x", x), ("y", y)):
        if not (np.isfinite(p.coords).all() and atlas.chart(p.chart).contains(p.coords)):
            raise LeftAtlas(f"exp_inverse: {name} = {p!r} lies outside its chart {p.chart!r}")
    try:
        home, dh, target = x, None, atlas.transition(y, x.chart).coords
    except NotInOverlap:
        try:
            home, dh, _ = atlas.jet(x, y.chart, 1)
        except NotInOverlap:
            raise NoConvergence("x and y share no chart; target outside "
                                "the representable neighbourhood") from None
        target = y.coords
    target_chart = home.chart
    v = _normal_start(conn, home, target - home.coords)
    if dh is not None:  # back to x's chart: the inverse of the jet's Jacobian
        v = np.linalg.solve(dh, v)

    fld = geodesic_field(conn)
    n = atlas.dim

    def landed(end, t_ok, status):
        """A shot's end point in the target chart and the transition's
        Jacobian there, from one `Atlas.jet`, or its error."""
        _raise_for(status, fld, t_ok)
        try:
            q, dh, _ = atlas.jet(Point(end.chart, end.coords[:n]), target_chart, 1)
        except NotInOverlap:
            raise NoConvergence("shooting left the target chart; y likely "
                                "outside the normal neighbourhood") from None
        return q.coords, dh

    w0 = np.vstack([np.zeros((n, n)), np.eye(n)])[None]  # d exp_x(v) = top rows of W
    for _ in range(max_iter):
        start = Point(x.chart, pack(x.coords, v.reshape(n, 1)))
        (end,), (W,), (t_ok,), (status,) = _run_block(fld, [start], 1.0, cfg, w0)
        y_end, dh = landed(end, t_ok, status)
        r = y_end - target
        if np.linalg.norm(r) <= tol:
            return Tangent(x, v)
        J = W[:n] if end.chart == target_chart else dh @ W[:n]
        try:
            delta = np.linalg.solve(J, r)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular shooting Jacobian") from None
        v = v - delta
    raise NoConvergence(f"exp_inverse: no convergence after {max_iter} iterations "
                        "(target likely outside the normal neighbourhood)")


def _normal_start(conn: ConnectionField, x: Point, d: np.ndarray) -> np.ndarray:
    """v with exp_x(v) = x + d + O(|d|^4) in x's chart: the series
    exp_x(v) = x + v + S(v, v)/2 + (dT_v(v, v) + 2 S(v, S(v, v)))/6 + O(|v|^4)
    of x'' = B(x', x') inverted term by term, S the symmetric part of the
    tensor at x and dT_v its derivative along v (Kobayashi-Nomizu I, III.8).
    The antisymmetric part of B moves no geodesic, and S drops it."""
    T = conn.tensor(x)
    S = 0.5 * (T + np.swapaxes(T, -1, -2))
    s = S @ d @ d
    return d - 0.5 * s + (S @ s @ d - conn.d_tensor_dir(x, d) @ d @ d) / 6.0


def _chunk_propagator(tensor, P, h) -> np.ndarray:
    """`flows._propagator` of the chunk of RK4 steps of G' = M(t) G,
    M = T(x) v, with sizes h (k,); P (k, 3, 2, n) holds the curve's x and
    v at each step's start, midpoint and end, and the midpoint's M serves
    both middle stages."""
    M = np.einsum("...ijk,...k->...ij", tensor(P[:, :, 0]), P[:, :, 1])
    return _propagator(M[:, [0, 1, 1, 2]], h[:, None, None])


def parallel_transport(conn: ConnectionField, curve: CurveSpec, t0: float, t1: float,
                       v, cfg: IntegratorConfig) -> np.ndarray:
    """P^{t1}_{t0}(alpha)(v): transport v (vector (n,) or (n, k) matrix of
    columns) along the curve from parameter t0 to t1, both finite and in
    the curve's span (ValueError otherwise).  The curve is evaluated as
    two arrays, its grid points and its midpoints (`CurveSpec.eval_rows`).
    Each grid interval is one RK4 step of the linear chart ODE in the chart
    of its start, taken as a propagator matrix by `flows._propagator` with
    the midpoint's matrix for both middle stages; a midpoint or end in
    another chart is re-charted into it.  A chart segment's propagators
    multiply in chunks of `flows._CHUNK` steps, one `tensor` call each."""
    atlas = conn.atlas
    n = atlas.dim
    v = np.asarray(v, float)
    if v.ndim not in (1, 2) or v.shape[0] != n:
        raise ValueError(f"v must have shape ({n},) or ({n}, k), got {v.shape}")
    curve._check_span(t0, "t0")
    curve._check_span(t1, "t1")
    vec_in = v.ndim == 1
    G = v.reshape(n, -1).copy()
    if t0 == t1:
        return G[:, 0] if vec_in else G

    grid = curve.grid(cfg)
    grid = grid[(grid > min(t0, t1)) & (grid < max(t0, t1))]
    if t1 < t0:
        grid = grid[::-1]
    ts = np.concatenate([[t0], grid, [t1]])
    hs = np.diff(ts)
    cs, X, V = curve.eval_rows(ts)
    cm, Xm, Vm = curve.eval_rows(0.5 * (ts[:-1] + ts[1:]))
    start = cs[:-1]  # P[i]: step i's start, midpoint and end, in the chart of its start
    P = np.stack([X[:-1], V[:-1], Xm, Vm, X[1:], V[1:]], axis=1).reshape(hs.size, 3, 2, n)
    for k, (c, Y, W) in ((1, (cm, Xm, Vm)), (2, (cs[1:], X[1:], V[1:]))):
        for i in np.flatnonzero(c != start):
            u = atlas.rechart_tangent(Tangent(Point(c[i], Y[i]), W[i]), start[i])
            P[i, k] = u.base.coords, u.vec

    cuts = [0, *(np.flatnonzero(start[1:] != start[:-1]) + 1).tolist(), hs.size]
    for a, b in zip(cuts[:-1], cuts[1:]):  # chart segments: runs of steps starting in one chart
        if a:  # re-chart the transported block at the segment start
            G = atlas.d_transition(Point(start[a - 1], P[a - 1, 2, 0]), start[a]) @ G
        tensor = conn._chart(start[a]).tensor
        for i in range(a, b, _CHUNK):
            j = min(i + _CHUNK, b)
            G = G + _chunk_propagator(tensor, P[i:j], hs[i:j]) @ G

    # express the result in the curve's own end-point chart
    if cs[-1] != start[-1]:
        G = atlas.d_transition(Point(start[-1], P[-1, 2, 0]), cs[-1]) @ G
    return G[:, 0] if vec_in else G


@dataclass
class ProbeRow:
    """One seed's probe in both time directions: the time reached, the
    status and the end state (position and velocity, at the horizon or
    where the geodesic stopped) of each."""

    seed: Tangent
    t_forward: float
    t_backward: float
    status_forward: str
    status_backward: str
    end_forward: Tangent
    end_backward: Tangent

    @property
    def reached(self) -> float:
        return min(self.t_forward, abs(self.t_backward))


@dataclass
class ProbeReport:
    horizon: float
    rows: list
    complete_up_to_horizon: bool


def completeness_probe(conn: ConnectionField, seeds, horizon: float,
                       cfg: IntegratorConfig) -> ProbeReport:
    """Integrate each seed geodesic to +-horizon, recording how far it got.

    Every seed in both directions is one row of a single block.  Failures
    (LeftAtlas / HopLimit / divergence) are data, not errors.  No seeds, or
    a horizon that is not finite and positive, is a ValueError:
    completeness over zero rows or a zero span would hold vacuously.
    """
    n = conn.atlas.dim
    fld = geodesic_field(conn)
    seeds = list(seeds)
    if not seeds:
        raise ValueError("completeness_probe needs at least one seed")
    if not (math.isfinite(horizon) and horizon > 0):
        raise ValueError(f"completeness_probe needs a finite positive horizon, got {horizon!r}")
    starts = [Point(s.base.chart, pack(s.base.coords, s.vec.reshape(n, 1))) for s in seeds]
    m = len(starts)
    ends, _, t_ok, status = _run_block(fld, starts + starts, np.repeat([horizon, -horizon], m), cfg)
    ends = [Tangent(Point(e.chart, e.coords[:n]), e.coords[n:]) for e in ends]
    rows = [ProbeRow(seed, t_ok[i], t_ok[m + i], status[i], status[m + i], ends[i], ends[m + i])
            for i, seed in enumerate(seeds)]
    complete = all(r.status_forward == OK and r.status_backward == OK for r in rows)
    return ProbeReport(horizon=horizon, rows=rows, complete_up_to_horizon=complete)
