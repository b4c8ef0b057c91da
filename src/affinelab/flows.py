"""Chart-hopping ODE machinery for vector fields expressed per chart.

Fixed-step classical RK4 throughout, every flow step one `_rk4` call; no
adaptivity.  One core, `_run_block`, steps an (m, N) block of rows,
Points in and Points out, each row with its own chart, signed step, hop
count, status and reach time.  `_run` integrates one trajectory (for
`integrate` and `variational_flow`, optionally recording (t, chart, x)
rows), and `_push` runs a flow word, (field, duration) segments composed
left to right, on a list of points, one block per segment (for
`FlowWord`, `exp_map_rows` and the defects); a failed row stops, and
after the last segment the first failed row raises, as a loop over the
points would.
Rows step in groups keyed on the chart `value`, their right-hand side,
and on their margin test family, not on their chart, so the callables
take (..., N) inputs.  A row that leaves the margin-shrunk domain of its
chart is handed off to the highest-priority neighbouring chart that
contains it, all of a block's hops in a step found in one
`Atlas.hop_targets` call; a divergence, left-atlas or hop-limit stop
retires that row alone.  Variational columns w' = d xi(x) w move by
products of RK4 step propagators over the recorded stages (`_propagator`,
shared with parallel transport), the second-order columns
U' = d xi U + d2 xi(W v, W .) of `FlowWord.second` with them
(`_second_order`), both re-charted at every hand-off.  A family field
(`params` = q) takes a constant parameter row per trajectory, never
stepped or re-charted, so members share a block.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import numdiff
from .atlas import RECHART_MARGIN, Atlas, Point, _family, _vec
from .errors import ChartMissing, HopLimit, LeftAtlas

OK = "ok"
LEFT_ATLAS = "left_atlas"
HOP_LIMIT = "hop_limit"
DIVERGED = "diverged"


@dataclass
class IntegratorConfig:
    step: float = 1e-3

    def __post_init__(self):
        if isinstance(self.step, (bool, np.bool_)) or not (math.isfinite(self.step) and self.step > 0):
            raise ValueError(f"step must be finite and positive, got {self.step!r}")


@dataclass(eq=False)
class ChartField:
    """Per-chart evaluation procedures of a vector field.

    `value`: x -> xi(x); `d`: x -> (n, n) Jacobian; `d2`: x -> (n, n, n)
    tensor of second partials.  Each takes (..., n) rows, broadcasts over
    the leading axes, since flows integrate blocks of rows, and returns a
    float array: a flow steps with `value` itself as its right-hand side.
    A callable written for one point must be rewritten in array form.
    `VectorField` fills a missing `d` or `d2` with `numdiff.filled`,
    central differences of `value` guarded by the chart's `contains_fn`,
    so every caller finds both; a fill calls `value` once on the
    (..., s, n) stencil points of all its rows.

    Charts that hand out the same callables step together: a flow steps
    the rows of every chart whose `value` is the same object, and whose
    margin test is one family, as one group, so a builder that writes one
    formula for several charts should hand out one callable.  Variational
    columns take each row's own chart `d`, so a finite-difference fill,
    guarded by its own chart's domain, only ever sees its own chart's rows.
    """

    value: Callable
    d: Callable | None = None
    d2: Callable | None = None


class VectorField:
    """A vector field given per chart.  With `params` = q > 0 it is a
    family: its chart callables take (x, p), p the (..., q) parameter rows
    held constant along each flow, and it supplies its own `d`."""

    def __init__(self, atlas: Atlas, name: str, charts: dict[str, ChartField], params: int = 0):
        self.atlas = atlas
        self.name = name
        self.params = params
        self._charts = {cid: cf if params else
                        numdiff.filled(cf, "value", atlas.chart(cid).contains_fn)
                        for cid, cf in charts.items()}

    def has_chart(self, cid: str) -> bool:
        return cid in self._charts

    def chart_field(self, cid: str) -> ChartField:
        try:
            return self._charts[cid]
        except KeyError:
            raise ChartMissing(f"field {self.name!r} undefined on chart {cid!r}") from None

    def value(self, point: Point) -> np.ndarray:
        return _vec(self.chart_field(point.chart).value(point.coords))

    def jac(self, point: Point) -> np.ndarray:
        return np.asarray(self.chart_field(point.chart).d(point.coords), float)

    def hess(self, point: Point) -> np.ndarray:
        return np.asarray(self.chart_field(point.chart).d2(point.coords), float)

    def __repr__(self):
        return f"VectorField({self.name!r} on {self.atlas.name!r})"


def constant_field(atlas: Atlas, name: str, vec) -> VectorField:
    """Same constant chart components in every chart; well-defined only
    where all transition Jacobians are the identity (single-chart or
    torus-style atlases)."""
    vec = _vec(vec)
    n = atlas.dim
    cf = ChartField(value=lambda x: np.broadcast_to(vec, np.shape(x)),
                    d=lambda x: np.zeros(np.shape(x)[:-1] + (n, n)),
                    d2=lambda x: np.zeros(np.shape(x)[:-1] + (n, n, n)))
    return VectorField(atlas, name, {cid: cf for cid in atlas.charts})


def combine(name: str, fields, coeffs) -> VectorField:
    """Pointwise linear combination of fields sharing an atlas."""
    atlas = fields[0].atlas
    coeffs = [float(c) for c in coeffs]
    shared = set(fields[0]._charts)
    for f in fields[1:]:
        if f.atlas is not atlas:
            raise ValueError("fields must share an atlas")
        shared &= set(f._charts)
    charts = {}
    for cid in shared:
        cfs = [f.chart_field(cid) for f in fields]

        def value(x, cfs=cfs):
            return sum(c * _vec(cf.value(x)) for c, cf in zip(coeffs, cfs))

        def d(x, cfs=cfs):
            return sum(c * np.asarray(cf.d(x), float) for c, cf in zip(coeffs, cfs))

        def d2(x, cfs=cfs):
            return sum(c * np.asarray(cf.d2(x), float) for c, cf in zip(coeffs, cfs))

        charts[cid] = ChartField(value=value, d=d, d2=d2)
    return VectorField(atlas, name, charts)


# -- core stepping ---------------------------------------------------------

# steps per propagator product: a 6,284-step sphere transport peaks at
# 0.7 MB of traced allocations in chunks, 7.1 MB in one; a flush of m
# variational rows holds m x 4 x _CHUNK Jacobians
_CHUNK = 256
# hand-offs a row may make before it stops as HOP_LIMIT: over ten times the
# most a row of the shipped horizon-100 probes makes (under 1,000, on the
# torus), so a row stops on it only when it keeps hopping without getting anywhere
MAX_HOPS = 10_000
# a row whose state's norm passes this stops as DIVERGED, long before a
# blow-up overflows to inf or nan
STATE_GUARD = 1e8


def _recording(f: Callable, B: np.ndarray, sel, first: int) -> Callable:
    """`f`, first writing each state it is called at to `B[sel, s]`, s
    counting on from `first` and wrapping at B's chunk length: `_rk4`
    calls it four times a step, so a group built at step i with `first`
    = 4 (i % _CHUNK) puts stage j of each later step s at 4 (s % _CHUNK) + j."""
    slots, size = itertools.count(first), B.shape[1]

    def rhs(x):
        B[sel, next(slots) % size] = x
        return f(x)

    return rhs


def _rk4(rhs: Callable, z: np.ndarray, h, h2, h6) -> np.ndarray:
    """One RK4 step of size h, h2 = h/2 and h6 = h/6 given (scalars or arrays
    shaped like z), calling rhs at z, z + h2 k1, z + h2 k2, z + h k3 in that order."""
    k1 = rhs(z)
    k2 = rhs(z + h2 * k1)
    k3 = rhs(z + h2 * k2)
    k4 = rhs(z + h * k3)
    return z + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _propagator(M: np.ndarray, h) -> np.ndarray:
    """D with I + D the product, later steps on the left, of the RK4 steps
    of a linear ODE w' = A(t) w: `M` (..., steps, 4, n, n) holds A at each
    step's four stages in `_rk4`'s call order, and the step sizes `h`
    broadcast against (..., steps, n, n).  Step by step this is `_rk4` of
    w' = A w, K1 = A1, K2 = A2 (I + h/2 K1), K3 = A3 (I + h/2 K2),
    K4 = A4 (I + h K3), D = h/6 (K1 + 2 K2 + 2 K3 + K4)."""
    A1, A2, A3, A4 = (M[..., j, :, :] for j in range(4))
    K2 = A2 + 0.5 * h * (A2 @ A1)
    K3 = A3 + 0.5 * h * (A3 @ K2)
    K4 = A4 + h * (A4 @ K3)
    D = (h / 6.0) * (A1 + 2.0 * K2 + 2.0 * K3 + K4)
    while D.shape[-3] > 1:  # pairwise: (I + A)(I + B) = I + (A + B + AB)
        s = D.shape[-3]
        A, B = D[..., 1::2, :, :], D[..., 0:-1:2, :, :]
        D = np.concatenate([A + B + A @ B, D[..., s - s % 2:, :, :]], axis=-3)
    return D[..., 0, :, :]


def _second_order(M: np.ndarray, T: np.ndarray, h, W: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c with U <- (I + D) U + c, D = `_propagator(M, h)`, the RK4 of U' = A U + T(W v, W .)
    over the span, given its stages' second derivatives `T` (..., steps, 4, n, n, n), starting
    columns `W` (..., n, k), directions `v` (..., k) and steps `h` (..., 1).  Per step, with W_t
    the running product and s_j = h/2, h/2, h: stage columns W_1 = W_t, W_j = (I + s_j K_j-1) W_t,
    sources G_j = T_j(W_j v, W_j .), L_1 = G_1, L_j = G_j + s_j A_j L_j-1, c = h/6 (L_1 + 2 L_2
    + 2 L_3 + L_4).  Matrix indices go first: `@` takes some 50 ns a 2 x 2 matrix of a stack."""
    mm = partial(np.einsum, "ij...,jk...->ik...")
    A1, A2, A3, A4 = np.ascontiguousarray(np.moveaxis(M, (-3, -2, -1), (0, 1, 2)))
    T = np.ascontiguousarray(np.moveaxis(T, (-4, -3, -2, -1), (0, 1, 2, 3)))
    K2 = A2 + 0.5 * h * mm(A2, A1)
    K3 = A3 + 0.5 * h * mm(A3, K2)
    D = (h / 6.0) * (A1 + 2.0 * K2 + 2.0 * K3 + A4 + h * mm(A4, K3))
    P, d = D, 1  # by doubling: I + P[t] = (I + D[t]) ... (I + D[0])
    while d < P.shape[-1]:
        X, Y = P[..., d:], P[..., :-d]
        P, d = np.concatenate([P[..., :d], X + Y + mm(X, Y)], axis=-1), 2 * d
    Wt = np.moveaxis(W, (-2, -1), (0, 1))[..., None]
    Wt = np.concatenate([Wt, Wt + mm(P[..., :-1], Wt)], axis=-1)  # W_t
    w = mm(Wt, np.moveaxis(v, -1, 0)[:, None, ..., None])  # W_t v
    L = [np.einsum("ilk...,l...->ik...", T[0], w[:, 0])]  # L_j and G_j without the factor W_t
    for j, (s, K, Aj) in enumerate(((0.5 * h, A1, A2), (0.5 * h, K2, A3), (h, K3, A4)), 1):
        G = np.einsum("ilk...,l...->ik...", T[j], (w + s * mm(K, w))[:, 0])
        L.append(G + s * mm(G, K) + s * mm(Aj, L[-1]))
    c = mm((h / 6.0) * (L[0] + 2.0 * L[1] + 2.0 * L[2] + L[3]), Wt)
    while c.shape[-1] > 1:  # (I + X)((I + Y) U + y) + x = (I + X)(I + Y) U + x + y + X y
        s = c.shape[-1]
        X, Y, x, y = D[..., 1::2], D[..., 0:-1:2], c[..., 1::2], c[..., 0:-1:2]
        c = np.concatenate([x + y + mm(X, y), c[..., s - s % 2:]], axis=-1)
        D = np.concatenate([X + Y + mm(X, Y), D[..., s - s % 2:]], axis=-1)
    return np.moveaxis(c[..., 0], (0, 1), (-2, -1))


def _run_block(field: VectorField, starts, t, cfg: IntegratorConfig, w0=None,
               record: list | None = None, params=None, second=None):
    """The RK4 core: trajectories from `starts` (Points) as rows of one block.

    `t` is one signed finite duration or one per row, `w0` None or (m, ...)
    variational columns per row (n rows each), stepped as an (m, n, k)
    block W, `params` the (m, q) parameter rows of a family field, never
    stepped or re-charted.  Each row stops on its own.  Returns (end points,
    W, t_reached, statuses), one per row, W the pushed columns in the shape
    of `w0` (None without it).

    A block of one row is stepped as its 1-D view `z[0]` with a scalar
    step, so the right-hand side and the margin test see a 1-D state
    (about 2.8x faster than a (1, N) block: sphere `exp_map`, 1,000 steps,
    17-18 ms against 49-51 ms), its hops found by the one-row search
    `Atlas.hop_target`; a one-row group of a larger block stays 2-D.  Rows
    step in groups that share a chart `value` object, their right-hand side,
    and a margin test family, so each group makes one RK4 call and one test
    call; each group's h, h/2 and h/6 are repeated across its (rows, n)
    states when the plan is built, the same products bit for bit as
    broadcasting each row's step.  One `np.count_nonzero` tests that a
    group's rows stayed sound and inside, and diverged rows are sought only
    when some row is unsound.  The test parameters, the hop search, the
    flush of W and its re-chart use each row's own chart; each group binds
    its share of `params` to the chart `value`.

    Only the base state is stepped.  With variational columns each group's
    right-hand side writes its four RK4 stage states straight into the
    chunk buffer `B` (m, 4 _CHUNK, n), stage j of the step c of the
    current chunk at `B[r, 4 c + j]`.  A flush of rows calls each chart's
    `d` once per span start on the stages the rows took since their last
    flush, through the current step, and sets W <- W + D W, I + D the
    product of the steps' propagators (`_propagator`): the RK4 of
    w' = d xi(x) w, its products regrouped.  With `second` = (vs, U) a
    flush also calls each chart's `d2` and moves U (m, n, k) in place by
    U <- U + D U + c, the RK4 of U' = d xi U + d2 xi(W v, W .)
    (`_second_order`), so from 0 U = d2 Fl(W0 v, W0 .) along vs (m, k); W
    keeps its bits, and a family field refuses it (ValueError).  A row
    flushes before it hops (then U <- dh U + d2h(W v, W .), W <- dh W, dh
    the transition Jacobian), when it stops, when it finishes and at each
    chunk end, so its spans, W and U never depend on the other rows.
    `record` (one row) is appended with rows (t, chart_id, x_copy), a hop
    adding its pre-hop state at the same time.
    """
    atlas, m = field.atlas, len(starts)
    n = atlas.dim
    z = np.array([p.coords for p in starts], float).reshape(m, n)
    W = None if w0 is None else np.array(w0, float).reshape(m, n, -1)
    params = None if params is None else np.asarray(params, float).reshape(m, field.params)
    k = W is not None
    if second is not None and params is not None:
        raise ValueError("a family field carries no second-order columns")
    vs, U = (None, None) if second is None else second
    cids = [p.chart for p in starts]
    ts = [float(ti) for ti in np.broadcast_to(np.asarray(t, float), (m,))]
    for r, ti in enumerate(ts):
        if not math.isfinite(ti):
            raise ValueError(f"row {r}: duration must be finite, got {ti!r}")
    steps = [max(1, int(math.ceil(abs(ti) / cfg.step - 1e-12))) if ti != 0.0 else 0 for ti in ts]
    hs = [ti / s if s else 0.0 for ti, s in zip(ts, steps)]
    h = np.array(hs)[:, None]
    # the whole block: one row as its 1-D view and scalar steps, else every
    # row; basic indices, so a stage written to B's rows stays a cheap write
    whole = ((0, (hs[0], 0.5 * hs[0], hs[0] / 6.0)) if m == 1 else
             (slice(None), [a.repeat(n, axis=1) for a in (h, 0.5 * h, h / 6.0)]))
    every = np.arange(m)

    keys = {}

    def keyed(cid):
        """(chart `value`, margin test, None) of chart `cid`, the test of a
        family member `partial(f, p)` given as f, p.  The first two key the
        row's group; `d` keys nothing: a flush calls each row's own chart `d`."""
        if cid not in keys:
            keys[cid] = field.chart_field(cid).value, *_family(atlas.chart(cid).contains_fn)
        return keys[cid]

    tparams = {}  # test family -> (m, ...) parameters, row r's at [r]; never stepped

    def place(r, cid):
        _, fam, p = keyed(cid)
        if p is not None:
            if fam not in tparams:
                tparams[fam] = np.empty((m,) + np.shape(p))
            tparams[fam][r] = p

    for r, (cid, row) in enumerate(zip(cids, z)):
        if not atlas.chart(cid).contains(row):
            raise LeftAtlas(f"start {Point(cid, row)!r} outside its chart domain")
        place(r, cid)

    def snapshot(tcur, r):
        return tcur, cids[r], z[r].copy()

    if record is not None:
        record.append(snapshot(0.0, 0))

    status = [OK] * m
    reached = list(steps)
    hops = [0] * m
    live = {r for r in range(m) if steps[r]}
    finish = {}
    for r in live:
        finish.setdefault(steps[r], set()).add(r)
    margin, guard2 = RECHART_MARGIN, STATE_GUARD ** 2
    plan, stale = [], True
    if k:
        B = np.empty((m, 4 * _CHUNK, n))  # each row's stages in this chunk
        since = [0] * m  # per row, the first step not yet flushed

    def flush(rows):
        """Move W of `rows` by their steps from their last flush through
        step i, one `d` call per chart and span start."""
        spans = {}
        for r in rows:
            if since[r] <= i:
                cf = field.chart_field(cids[r])
                spans.setdefault((cf.d, U is not None and cf.d2, since[r]), []).append(r)
                since[r] = i + 1
        for (d, d2, a), rs in spans.items():
            X = B[rs, 4 * (a % _CHUNK):4 * (i % _CHUNK + 1)]
            M = d(X) if params is None else d(X, params[rs][:, None])
            M = np.asarray(M, float).reshape(len(rs), -1, 4, n, n)
            D = _propagator(M, h[rs][..., None, None])
            if d2:
                T = np.asarray(d2(X), float).reshape(len(rs), -1, 4, n, n, n)
                U[rs] += D @ U[rs] + _second_order(M, T, h[rs], W[rs], vs[rs])
            W[rs] += D @ W[rs]

    def stop(r, why, at):
        nonlocal stale
        status[r] = why
        reached[r] = at
        live.discard(r)
        stale = True
        if k:
            flush([r])

    def groups():
        """(row selector, steps, rhs, margin test, its family parameters or
        None) per (chart `value`, test family) that live rows share, the
        steps h, h/2 and h/6 shaped like the group's states; the selector
        and steps are `whole`'s when the group holds every row.  The rhs is
        the chart `value`, a family's bound to the group's parameter rows;
        with W it writes its stages to the group's rows of `B`, from step i on."""
        by_key = {}
        for r in sorted(live):
            by_key.setdefault(keyed(cids[r])[:2], []).append(r)
        out = []
        for (f, test), rs in by_key.items():
            sel, h_sel = whole if len(rs) == m else (np.array(rs), [a[rs] for a in whole[1]])
            rhs_fn = f if params is None else lambda x, f=f, p=params[sel]: f(x, p)
            if k:
                rhs_fn = _recording(rhs_fn, B, sel, 4 * (i % _CHUNK))
            out.append((sel, h_sel, rhs_fn, test, tparams.get(test)))
        return out

    for i in range(max(steps, default=0)):
        if stale:
            plan, stale = groups(), False
        for sel, h_sel, rhs_fn, contains, P in plan:
            zs = _rk4(rhs_fn, z[sel], *h_sel)
            z[sel] = zs
            # a non-finite state fails the guard comparison too
            sound = (zs * zs).sum(axis=-1) <= guard2
            ok = sound & (contains(zs, margin) if P is None else contains(P[sel], zs, margin))
            if np.count_nonzero(ok) == ok.size if ok.ndim else ok:
                continue
            # rare path: stop diverged rows, hop (or stop) rows outside the
            # margin; the plan holds while every row keeps its group and test
            idx = sel if isinstance(sel, np.ndarray) else every
            sound = sound.reshape(-1)
            for r in idx[~sound].tolist():
                stop(r, DIVERGED, i)
            leaving = idx[sound & ~ok]
            out, X = leaving.tolist(), z[leaving]
            if m == 1 and out:  # perfbench/tracing.py counts hops only in Atlas.hop_target
                hop = atlas.hop_target(cids[0], X[0], margin)
                targets, Y = ([None], X) if hop is None else ([hop[0]], hop[1][None])
            else:
                targets, Y = atlas.hop_targets([cids[r] for r in out], X, margin)
            if k:  # W of the hopping rows reaches their pre-hop states
                flush([r for r, tid in zip(out, targets) if tid is not None])
            for j, (r, tid) in enumerate(zip(out, targets)):
                cid = cids[r]
                if tid is None:
                    # a row with no better chart keeps integrating here while
                    # it is still inside the chart itself
                    if not atlas.chart(cid).contains(X[j]):
                        stop(r, LEFT_ATLAS, i)
                    continue
                if not field.has_chart(tid):
                    raise ChartMissing(f"field {field.name!r} undefined on hop target {tid!r}")
                if record is not None:
                    record.append(snapshot((i + 1) * hs[r], r))
                if k:
                    tr = atlas.chart(cid).transitions[tid]
                    J = np.asarray(tr.d(X[j]), float)
                    if U is not None:  # the second-order chain rule, with the pre-hop W
                        U[r] = J @ U[r] + W[r] @ vs[r] @ np.asarray(tr.d2(X[j]), float) @ W[r]
                    W[r] = J @ W[r]
                cids[r] = tid
                was, now = keyed(cid), keyed(tid)
                stale |= now[0] is not was[0] or now[1] is not was[1]
                if now[2] is not None:
                    place(r, tid)
                hops[r] += 1
                if hops[r] > MAX_HOPS:
                    stop(r, HOP_LIMIT, i + 1)
            z[leaving] = Y  # a row without a target gets its own state back
        if record is not None and live:
            record.append(snapshot((i + 1) * hs[0], 0))
        done = finish.get(i + 1, set()) & live  # a row that stopped has flushed
        if k:
            flush(live if (i + 1) % _CHUNK == 0 else done)
        if done:
            live -= done
            stale = True
        if not live:
            break

    t_ok = [reached[r] * hs[r] if reached[r] else 0.0 for r in range(m)]
    return ([Point(c, x) for c, x in zip(cids, z)], None if W is None else W.reshape(np.shape(w0)),
            t_ok, status)


def _run(field: VectorField, start: Point, t: float, cfg: IntegratorConfig,
         w0: np.ndarray | None = None, record: list | None = None):
    """Integrate x' = xi(x) (optionally with linearization w' = d xi(x) w).

    The single-trajectory entry: a one-row `_run_block`.  Returns (point,
    w, t_reached, status).  `record`, when supplied, is appended with
    rows (t, chart_id, x_copy).
    """
    ends, W, t_ok, status = _run_block(field, [start], t, cfg,
                                       None if w0 is None else np.asarray(w0, float)[None], record)
    return ends[0], None if W is None else W[0], t_ok[0], status[0]


def _raise_for(status: str, field: VectorField, t_ok: float):
    if status == LEFT_ATLAS or status == DIVERGED:
        raise LeftAtlas(f"flow of {field.name!r} left the atlas near t={t_ok:.6g}")
    if status == HOP_LIMIT:
        raise HopLimit(f"flow of {field.name!r} exceeded MAX_HOPS near t={t_ok:.6g}")


def integrate(field: VectorField, start: Point, t: float, cfg: IntegratorConfig,
              record: list | None = None) -> Point:
    """Approximate Fl^xi_t(start) with chart hand-off."""
    p, _, t_ok, status = _run(field, start, t, cfg, record=record)
    _raise_for(status, field, t_ok)
    return p


def variational_flow(field: VectorField, start: Point, w0, t: float,
                     cfg: IntegratorConfig) -> tuple[Point, np.ndarray]:
    """(Fl^xi_t(start), T Fl^xi_t (w0)) in end-chart coordinates.

    `w0` may be a vector or an (n, k) matrix of vectors transported
    simultaneously.
    """
    w0 = np.asarray(w0, float)
    vec_in = w0.ndim == 1
    W = w0.reshape(field.atlas.dim, -1) if vec_in else w0
    p, w, t_ok, status = _run(field, start, t, cfg, w0=W)
    _raise_for(status, field, t_ok)
    return p, (w[:, 0] if vec_in else w)


def flow_word(segments, start: Point, cfg: IntegratorConfig) -> Point:
    """Compose flows of (field, duration) pairs left-to-right: a one-row `_push`."""
    return _push(segments, [start], cfg)[0][0]


def _push(word, points, cfg: IntegratorConfig, w0=None, params=None, second=None):
    """Run the flow word `word`, (field, duration) pairs composed left to
    right, on every point: (end points, W).

    Each segment integrates every still-running row as one block, the
    (m, n, k) columns `w0` riding along as variational columns (W None
    without them) and `params`, the (m, q) parameter rows of a word of
    family fields, passed to every segment, and `second`, (vs, U) as in
    `_run_block`, U moved in place until a row fails.  A failed row stops;
    after the last segment the first failed row raises.
    """
    pts = list(points)
    W = None if w0 is None else np.array(w0, float)
    failed = {}
    live = list(range(len(pts)))
    for f, t in word:
        if not live:
            break
        ends, W_live, t_ok, status = _run_block(f, [pts[r] for r in live], t, cfg,
                                                None if W is None else W[live],
                                                params=None if params is None else params[live],
                                                second=second if len(live) == len(pts) else None)
        for j, r in enumerate(live):
            pts[r] = ends[j]
            if status[j] != OK:
                failed[r] = (status[j], f, t_ok[j])
        if W is not None:
            W[live] = W_live
        live = [r for r in live if r not in failed]
    if failed:
        _raise_for(*failed[min(failed)])
    return pts, W


# -- defects ---------------------------------------------------------------

def commutation_defect(xi: VectorField, eta: VectorField, starts, s: float, t: float,
                       cfg: IntegratorConfig) -> list:
    """Gap between Fl^xi_s(Fl^eta_t(x)) and Fl^eta_t(Fl^xi_s(x)), one per
    start.  Each side is one two-segment `_push` of every start, so a
    failed start raises as `FlowWord.push` raises: the first failed row of
    the first side with a failure."""
    a, _ = _push([(eta, t), (xi, s)], starts, cfg)
    b, _ = _push([(xi, s), (eta, t)], starts, cfg)
    return [xi.atlas.gap(p, q) for p, q in zip(a, b)]


def lie_derivative_defect(field: VectorField, other: VectorField, at: Point,
                          cfg: IntegratorConfig) -> float:
    """|((Fl^xi_t)^* other - other)(x)| / t at t = 1e-4, a one-sided bracket probe."""
    n, t = field.atlas.dim, 1e-4
    end, W = variational_flow(field, at, np.eye(n), t, cfg)
    pulled = np.linalg.solve(W, other.value(end))
    return float(np.linalg.norm(pulled - other.value(at)) / t)


def parameter_flow_derivative_defect(family: VectorField, p: Point, cfg: IntegratorConfig,
                                     eps: float = 1e-3) -> float:
    """Operator-norm gap between the FD Jacobian of v -> Fl^{eta_v}_1(p) at 0
    and the linear map v -> eta_v(p), for a family field eta with q =
    `family.params` parameters.

    The family must be linear in v (caller contract).  The 2q flows at
    v = +-eps e_j run as one block.
    """
    q, atlas = family.params, family.atlas
    exact = _vec(family.chart_field(p.chart).value(np.tile(p.coords, (q, 1)), np.eye(q))).T
    ends, _ = _push([(family, 1.0)], [p] * (2 * q), cfg,
                    params=eps * np.vstack([np.eye(q), -np.eye(q)]))
    x = np.array([atlas.transition(e, p.chart).coords for e in ends])
    fd = ((x[:q] - x[q:]) / (2.0 * eps)).T
    return float(np.linalg.norm(fd - exact, 2))
