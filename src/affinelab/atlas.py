"""Manifolds as finite atlases of charts over R^n.

A chart is a named coordinate patch with a membership test (supporting a
fractional interior safety margin used for integration hand-off) and
transition maps to overlapping charts.  Points and tangent vectors are
always expressed relative to a chart; re-charting pushes coordinates
through the transition map and vectors through its Jacobian, all read
from one `Atlas.jet`: the image, dh and d2h from one `map` call.

Chart callables (membership tests, transition maps and their
derivatives) accept coordinates of shape (..., n) and broadcast over the
leading axes, so one representation serves a single point and a block of
rows.  Catalog formulas read components as `x[..., i]`; those the
integrator calls every step read them from the transpose, `x.T[i]`, which
gives numpy scalars for one point (cheaper than 0-d arrays), and undo the
transpose when assembling the result, `np.array([...]).T`.  Charts that
share a formula share its callable, so blocks of rows are tested and
hopped in one call each.  A membership test or transition map
`functools.partial(f, p)` belongs to the family f with parameters p
(`box_domain` charts to the test family `in_box`, the torus shifts to
one map family), and a family is called once on a block of rows, each
with its own parameters: f(P, X) evaluates row i of X with P[i].  Any
other callable is its own family.  `Atlas.hop_targets` takes every
candidate neighbour of every leaving row from a hop table of the atlas
and maps and tests them in one call per family.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import numdiff
from .errors import NoCommonChart, NotInOverlap

Coords = np.ndarray

# a flow's row hands off once it leaves its chart's domain shrunk by this fraction, so
# the finite-difference stencils of `d` and `d2` stay inside the chart; `sample_points`
# draws inside it, so that a flow from a sampled point does not hand off at once
RECHART_MARGIN = 0.1


def _vec(x) -> np.ndarray:
    """`x` as a float array of at least one dimension (np.atleast_1d without
    its call overhead, which the per-step chart callables pay)."""
    x = np.asarray(x, float)
    return x if x.ndim else x.reshape(1)


@dataclass(frozen=True, eq=False)
class Point:
    chart: str
    coords: Coords

    def __post_init__(self):  # a copy: the caller's array may change later
        object.__setattr__(self, "coords", np.array(self.coords, float, ndmin=1))

    def __repr__(self):
        return f"Point({self.chart!r}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class Tangent:
    base: Point
    vec: Coords

    def __post_init__(self):  # a copy: the caller's array may change later
        object.__setattr__(self, "vec", np.array(self.vec, float, ndmin=1))


class _Watched:
    """Counts the attributes set on charts and transitions, so that a hop
    table built before an edit (a wrapper put on a map, say) is rebuilt."""
    edits = 0

    def __setattr__(self, name, value):
        object.__setattr__(self, name, value)
        _Watched.edits += 1


@dataclass(eq=False)
class Transition(_Watched):
    """Map between two chart coordinate systems with optional derivatives.

    `d` returns the (n, n) Jacobian, `d2` the (n, n, n) symmetric tensor
    T[i, j, k] = d^2 h_i / dx_j dx_k.  All three take (..., n) inputs and
    prepend the leading axes to their results.  `Chart.add_transition`
    fills a missing `d` or `d2` with `numdiff.filled`, central differences
    of `map` guarded by the source chart's `contains_fn`, so every caller
    finds both; a fill calls `map` once on the (..., s, n) stencil points
    of all its rows.  A `map` that is `partial(f, p)` is a member of the
    map family f: the hop search maps the rows of all members in one call
    f(P, X), row i with the parameters P[i], so f must broadcast over P
    as well.
    """

    map: Callable[[Coords], Coords]
    d: Callable[[Coords], np.ndarray] | None = None
    d2: Callable[[Coords], np.ndarray] | None = None


@dataclass(eq=False)
class Chart(_Watched):
    """A coordinate patch V of the model space.

    `contains_fn(x, margin)` implements the membership test on (..., n)
    coordinates, one boolean per leading index; `margin` in [0, 1) shrinks
    the domain toward its interior (0.1 keeps integration states one tenth
    away from the boundary so FD stencils stay inside).  A family member
    `partial(f, p)` needs f(P, X, margin) to test row i of X against P[i].
    """

    id: str
    dim: int
    contains_fn: Callable[[Coords, float], bool]
    sample_lo: Coords
    sample_hi: Coords
    priority: int = 0
    transitions: dict[str, Transition] = field(default_factory=dict, init=False)

    def __post_init__(self):
        self.sample_lo = _vec(self.sample_lo)
        self.sample_hi = _vec(self.sample_hi)

    def contains(self, x, margin: float = 0.0) -> bool:
        return bool(self.contains_fn(_vec(x), float(margin)))

    def add_transition(self, target: str, tr: Transition) -> None:
        """Register `tr` to chart `target`, storing a copy with any missing
        derivative filled by central differences inside this chart."""
        self.transitions[target] = numdiff.filled(tr, "map", self.contains_fn)
        _Watched.edits += 1


class Atlas:
    """Finite, explicit collection of charts with declared transitions."""

    def __init__(self, name: str, dim: int, charts):
        self.name = name
        self.dim = int(dim)
        self.charts: dict[str, Chart] = {c.id: c for c in charts}
        self._order = sorted(self.charts, key=lambda cid: (self.charts[cid].priority, cid))
        self._hops = None

    def chart(self, cid: str) -> Chart:
        try:
            return self.charts[cid]
        except KeyError:
            raise KeyError(f"atlas {self.name!r} has no chart {cid!r}") from None

    def chart_order(self):
        """Chart ids, lowest priority index first, ties broken by id."""
        return list(self._order)

    # -- transitions -----------------------------------------------------

    def jet(self, point: Point, target: str, order: int = 2):
        """(h(x) as a Point, dh(x), d2h(x)) of the transition h to `target`,
        the derivatives above `order` None, or (a copy, I, 0) in the point's
        own chart: one domain test of the point in its own chart, one `map`
        call and one test of the image, NotInOverlap when any fails."""
        src = self.chart(point.chart)
        if point.chart != target and target not in src.transitions:
            raise NotInOverlap(f"no transition {point.chart!r} -> {target!r}")
        if not src.contains(point.coords):
            raise NotInOverlap(f"{point!r} outside source chart domain")
        if point.chart == target:
            return (Point(target, point.coords), np.eye(self.dim) if order else None,
                    np.zeros((self.dim,) * 3) if order > 1 else None)
        tr = src.transitions[target]
        y = _vec(tr.map(point.coords))
        if not self.chart(target).contains(y):
            raise NotInOverlap(f"image {y} outside target chart {target!r}")
        return (Point(target, y), np.asarray(tr.d(point.coords), float) if order else None,
                np.asarray(tr.d2(point.coords), float) if order > 1 else None)

    def transition(self, point: Point, target: str) -> Point:
        """Express `point` in `target` coordinates (NotInOverlap if impossible,
        also when `point` lies outside its own chart)."""
        return self.jet(point, target, 0)[0]

    def d_transition(self, point: Point, target: str) -> np.ndarray:
        """Jacobian dh of the transition at `point`."""
        return self.jet(point, target, 1)[1]

    def d2_transition(self, point: Point, target: str) -> np.ndarray:
        """Symmetric second derivative tensor of the transition at `point`."""
        return self.jet(point, target)[2]

    def rechart_tangent(self, t: Tangent, target: str) -> Tangent:
        """Push a tangent vector through the transition Jacobian."""
        p, J, _ = self.jet(t.base, target, 1)
        return Tangent(p, J @ t.vec)

    # -- chart selection and comparison ----------------------------------

    def hop_target(self, cid: str, x: Coords, margin: float) -> tuple[str, Coords] | None:
        """Best chart (priority order) reachable from `cid` that contains x.

        Returns (chart_id, new_coords) or None when no declared neighbour
        holds the state inside its margin-shrunk domain.
        """
        targets, Y = self.hop_targets((cid,), _vec(x)[None], margin)
        return None if targets[0] is None else (targets[0], Y[0])

    def hop_targets(self, cids, X: np.ndarray, margin: float):
        """`hop_target` for every row of X (r, n) at once, row i in chart cids[i].

        Each row's candidates, its chart's row of the hop table, are mapped
        with one call per map family (on the rows themselves where each has
        one candidate), checked finite once and tested with one call per test
        family; each row takes its first candidate that passes, and one whose
        map raises on its row fails.  Returns (targets, Y): targets[i] a chart
        id or None, Y[i] the row in that chart (X[i] where None).
        """
        _, index, table, tids, maps, tests = self._hop_table()
        C = table.take([index[cid] for cid in cids], axis=0)  # (r, K) candidate entries
        X = np.asarray(X, float)
        r, K = C.shape
        if not r * K:  # no rows, or no chart with a neighbour
            return np.full(r, None, dtype=object), X.copy()
        js = C.ravel()
        Yc = _call(maps, js, X if K == 1 else X.repeat(K, axis=0), _map_rows)
        # every candidate is tested; a non-finite one (a padding entry's NaN
        # among them) fails, whatever its test says
        ok = np.isfinite(Yc).all(axis=-1) & _call(
            tests, js, Yc, lambda f, Z, P: f(Z, margin) if P is None else f(P, Z, margin))
        if K > 1:  # each row's first passing candidate
            j = np.arange(0, r * K, K) + ok.reshape(r, K).argmax(axis=1)
            js, ok, Yc = js[j], ok[j], Yc[j]
        if np.count_nonzero(ok) == len(ok):
            return tids[js], Yc
        return np.where(ok, tids[js], None), np.where(ok[:, None], Yc, X)

    def _hop_table(self):
        """(edits, index, table, tids, maps, tests), built on the first search
        and after any edit (`_Watched`): row index[cid] of `table` lists chart
        cid's neighbours in `chart_order` as entries, padded with `_NOWHERE`s;
        entry e goes to chart tids[e] with the map and test `_families` give."""
        if self._hops is None or self._hops[0] != _Watched.edits:
            rows = [[(tid, trs[tid].map) for tid in self._order if tid in trs]
                    for trs in (self.charts[cid].transitions for cid in self._order)]
            K = max(map(len, rows), default=0)
            flat = [e for row in rows for e in row + [(None, _NOWHERE)] * (K - len(row))]
            tids = [tid for tid, _ in flat]
            tests = [all_space if t is None else self.charts[t].contains_fn for t in tids]
            self._hops = (_Watched.edits, {cid: s for s, cid in enumerate(self._order)},
                          np.arange(len(flat)).reshape(len(rows), K), np.array(tids, dtype=object),
                          _families([fn for _, fn in flat]), _families(tests))
        return self._hops

    def gap(self, p: Point, q: Point) -> float:
        """Distance between two points, each in its own chart, measured in a shared chart."""
        p, q = self.transition(p, p.chart), self.transition(q, q.chart)
        if p.chart == q.chart:
            return float(np.linalg.norm(p.coords - q.coords))
        for a, b in ((p, q), (q, p)):
            try:
                return float(np.linalg.norm(self.transition(b, a.chart).coords - a.coords))
            except NotInOverlap:
                continue
        for cid in self._order:
            try:
                pa = self.transition(p, cid)
                qa = self.transition(q, cid)
            except NotInOverlap:
                continue
            return float(np.linalg.norm(pa.coords - qa.coords))
        raise NoCommonChart(f"{p!r} and {q!r} share no chart")

    # -- sampling ---------------------------------------------------------

    def sample_points(self, cid: str, count: int, rng: np.random.Generator):
        """Draw points uniformly from the chart's sample box (margin-checked)."""
        c = self.chart(cid)
        return _draw(c, count, rng, lambda x: c.contains(x, RECHART_MARGIN), 1000,
                     f"sampling chart {cid!r}")

    def overlap_samples(self, cid1: str, cid2: str, count: int, rng: np.random.Generator):
        """Points of chart `cid1` whose transition lands inside chart `cid2`."""
        c1 = self.chart(cid1)
        if cid2 not in c1.transitions:
            raise NotInOverlap(f"no transition {cid1!r} -> {cid2!r}")
        tr, c2 = c1.transitions[cid2], self.chart(cid2)

        def lands(x):
            if not c1.contains(x):
                return False
            y = _vec(tr.map(x))
            return np.all(np.isfinite(y)) and c2.contains(y)

        return _draw(c1, count, rng, lands, 5000, f"overlap sampling {cid1!r}/{cid2!r}")

    def overlap_pairs(self):
        """All declared (source, target) transition pairs."""
        return [(cid, tid) for cid, c in self.charts.items() for tid in c.transitions]


def _draw(c: Chart, count: int, rng: np.random.Generator, keep: Callable, tries: int, what: str):
    """The samplers' rejection loop: `count` points of chart `c`, each drawn from its sample
    box until `keep(x)`; RuntimeError after `tries` draws per point (at least one point)."""
    out, attempts = [], 0
    while len(out) < count:
        x = rng.uniform(c.sample_lo, c.sample_hi)
        attempts += 1
        if keep(x):
            out.append(Point(c.id, x))
        if attempts > tries * max(count, 1):
            raise RuntimeError(f"{what} rejected too often")
    return out


_NOWHERE = partial(np.full_like, fill_value=np.nan)  # the hop table's padding map: no row lands


def _family(fn):
    """(f, p): a family member `functools.partial(f, p)` as its family f with
    parameters p, any other callable as its own family (fn, None)."""
    if isinstance(fn, partial) and len(fn.args) == 1 and not fn.keywords:
        return fn.func, fn.args[0]
    return fn, None


def _families(fns):
    """(family index per callable, [(f, P)]): P None for a plain callable
    f, else an array holding callable e's parameters at P[e]."""
    pairs = [_family(fn) for fn in fns]
    fs = list(dict.fromkeys(f for f, _ in pairs))
    first = {f: p for f, p in reversed(pairs)}  # stands in for the other families' entries
    members = [(f, None if first[f] is None else
                np.array([p if g == f else first[f] for g, p in pairs])) for f in fs]
    return np.array([fs.index(f) for f, _ in pairs]), members


def _call(families, js, X, fn):
    """fn(f, X[at], P[js[at]]) for each family f of the entries js, `at` its
    candidates; the results, one per row of X, as one array."""
    fam, members = families
    if len(members) == 1 or not len(js):
        f, P = members[0]
        return fn(f, X, None if P is None else P[js])
    out, fj = None, fam[js]
    for i in set(fj.tolist()):
        at = fj == i
        f, P = members[i]
        y = fn(f, X[at], None if P is None else P[js[at]])
        if out is None:
            out = np.empty((len(js),) + np.shape(y)[1:], np.asarray(y).dtype)
        out[at] = y
    return out


def _map_rows(f, X: np.ndarray, P=None) -> np.ndarray:
    """The map f over the rows of X, row i with the family parameters P[i]
    (P None for a plain map); where that raises, row by row, NaN where a
    row raises."""
    try:
        return np.asarray(f(X) if P is None else f(P, X), float)
    except (FloatingPointError, ZeroDivisionError, ValueError):
        if len(X) == 1:
            return np.full(X.shape, np.nan)
        return np.concatenate([_map_rows(f, X[i:i + 1], None if P is None else P[i:i + 1])
                               for i in range(len(X))])


# -- common domain shapes -------------------------------------------------

def all_space(x, margin=0.0):
    return np.ones(np.shape(x)[:-1], bool)


def disk_domain(radius: float):
    def contains(x, margin=0.0):
        return np.sqrt((x * x).sum(axis=-1)) < radius * (1.0 - margin)

    return contains


def in_box(box, x, margin=0.0):
    """The box charts' test family: box[..., 0, :] the centre, box[..., 1, :] the half-width."""
    return (np.abs(x - box[..., 0, :]) < box[..., 1, :] * (1.0 - margin)).all(axis=-1)


def box_domain(lo, hi):
    lo, hi = _vec(lo), _vec(hi)
    return partial(in_box, np.array([0.5 * (lo + hi), 0.5 * (hi - lo)]))
