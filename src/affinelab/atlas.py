"""Manifolds as finite atlases of charts over R^n.

A chart is a named coordinate patch with a membership test (supporting a
fractional interior safety margin used for integration hand-off) and
transition maps to overlapping charts.  Points and tangent vectors are
always expressed relative to a chart; re-charting pushes coordinates
through the transition map and vectors through its Jacobian.

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
other callable is its own family.  `Atlas.hop_targets` maps and tests
every candidate neighbour of every leaving row in one call per family.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import numdiff
from .errors import NoCommonChart, NotInOverlap

Coords = np.ndarray


def _vec(x) -> np.ndarray:
    """`x` as a float array of at least one dimension (np.atleast_1d without
    its call overhead, which the per-step chart callables pay)."""
    x = np.asarray(x, float)
    return x if x.ndim else x.reshape(1)


@dataclass(frozen=True, eq=False)
class Point:
    chart: str
    coords: Coords

    def __post_init__(self):
        object.__setattr__(self, "coords", _vec(self.coords))

    def __repr__(self):
        return f"Point({self.chart!r}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True, eq=False)
class Tangent:
    base: Point
    vec: Coords

    def __post_init__(self):
        object.__setattr__(self, "vec", _vec(self.vec))

    def __repr__(self):
        return f"Tangent({self.base!r}, {np.array2string(self.vec, precision=6)})"


@dataclass(eq=False)
class Transition:
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
class Chart:
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


class Atlas:
    """Finite, explicit collection of charts with declared transitions."""

    def __init__(self, name: str, dim: int, charts):
        self.name = name
        self.dim = int(dim)
        self.charts: dict[str, Chart] = {c.id: c for c in charts}
        self._order = sorted(self.charts, key=lambda cid: (self.charts[cid].priority, cid))

    def chart(self, cid: str) -> Chart:
        try:
            return self.charts[cid]
        except KeyError:
            raise KeyError(f"atlas {self.name!r} has no chart {cid!r}") from None

    def chart_order(self):
        """Chart ids, lowest priority index first, ties broken by id."""
        return list(self._order)

    # -- transitions -----------------------------------------------------

    def transition(self, point: Point, target: str) -> Point:
        """Express `point` in `target` coordinates (NotInOverlap if impossible)."""
        src = self.chart(point.chart)
        if point.chart == target:
            return Point(target, point.coords.copy())
        if target not in src.transitions:
            raise NotInOverlap(f"no transition {point.chart!r} -> {target!r}")
        if not src.contains(point.coords):
            raise NotInOverlap(f"{point!r} outside source chart domain")
        y = _vec(src.transitions[target].map(point.coords))
        if not self.chart(target).contains(y):
            raise NotInOverlap(f"image {y} outside target chart {target!r}")
        return Point(target, y)

    def d_transition(self, point: Point, target: str) -> np.ndarray:
        """Jacobian dh of the transition at `point`."""
        src = self.chart(point.chart)
        if point.chart == target:
            return np.eye(self.dim)
        self.transition(point, target)  # overlap check
        return np.asarray(src.transitions[target].d(point.coords), float)

    def d2_transition(self, point: Point, target: str) -> np.ndarray:
        """Symmetric second derivative tensor of the transition at `point`."""
        src = self.chart(point.chart)
        if point.chart == target:
            return np.zeros((self.dim,) * 3)
        self.transition(point, target)
        return np.asarray(src.transitions[target].d2(point.coords), float)

    def rechart_tangent(self, t: Tangent, target: str) -> Tangent:
        """Push a tangent vector through the transition Jacobian."""
        p = self.transition(t.base, target)
        J = self.d_transition(t.base, target)
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

        One pass over every (row, neighbour) candidate, neighbours in
        `chart_order`: the candidates are mapped with one call per map
        family, checked finite once and tested with one call per test
        family of their targets, and each row takes its first candidate
        that passes.  A candidate whose map raises on its row fails.
        Returns (targets, Y): targets[i] is a chart id or None, Y[i] the
        row's coordinates in that chart (row i of X where None).
        """
        rows, tids, maps, tests = [], [], {}, {}
        for i, cid in enumerate(cids):
            trs = self.charts[cid].transitions
            for tid in self._order:
                tr = trs.get(tid)
                if tr is not None:
                    _join(maps, tr.map, len(rows))
                    _join(tests, self.charts[tid].contains_fn, len(rows))
                    rows.append(i)
                    tids.append(tid)
        targets = np.full(len(X), None, dtype=object)
        Y = np.array(X, float)
        if not rows:
            return targets, Y
        Xc = Y[rows]  # each candidate's row
        Yc = np.empty_like(Xc)
        for f, (js, ps) in maps.items():
            at = _at(js, len(rows))
            Yc[at] = _map_rows(f, Xc[at], _stacked(ps))
        ok = np.isfinite(Yc).all(axis=-1)
        finite = ok.all()
        for f, (js, ps) in tests.items():
            P = _stacked(ps)
            if not finite:  # test the finite candidates only
                keep = ok[js]
                js = np.array(js)[keep]
                P = None if P is None else P[keep]
            at = _at(js, len(rows))
            ok[at] = f(Yc[at], margin) if P is None else f(P, Yc[at], margin)
        for j in np.flatnonzero(ok).tolist():  # candidates run row by row, in chart order
            i = rows[j]
            if targets[i] is None:
                targets[i] = tids[j]
                Y[i] = Yc[j]
        return targets, Y

    def gap(self, p: Point, q: Point) -> float:
        """Distance between two points measured in a shared chart."""
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

    def sample_points(self, cid: str, count: int, rng: np.random.Generator, margin: float = 0.1):
        """Draw points uniformly from the chart's sample box (margin-checked)."""
        c = self.chart(cid)
        out, attempts = [], 0
        while len(out) < count:
            x = rng.uniform(c.sample_lo, c.sample_hi)
            attempts += 1
            if c.contains(x, margin):
                out.append(Point(cid, x))
            if attempts > 1000 * max(count, 1):
                raise RuntimeError(f"sampling chart {cid!r} rejected too often")
        return out

    def overlap_samples(self, cid1: str, cid2: str, count: int, rng: np.random.Generator, margin: float = 0.0):
        """Points of chart `cid1` whose transition lands inside chart `cid2`."""
        c1 = self.chart(cid1)
        if cid2 not in c1.transitions:
            raise NotInOverlap(f"no transition {cid1!r} -> {cid2!r}")
        tr = c1.transitions[cid2]
        c2 = self.chart(cid2)
        out, attempts = [], 0
        while len(out) < count:
            x = rng.uniform(c1.sample_lo, c1.sample_hi)
            attempts += 1
            if c1.contains(x, margin):
                y = _vec(tr.map(x))
                if np.all(np.isfinite(y)) and c2.contains(y, margin):
                    out.append(Point(cid1, x))
            if attempts > 5000 * max(count, 1):
                raise RuntimeError(f"overlap sampling {cid1!r}/{cid2!r} rejected too often")
        return out

    def overlap_pairs(self):
        """All declared (source, target) transition pairs."""
        return [(cid, tid) for cid, c in self.charts.items() for tid in c.transitions]


def _family(fn):
    """(f, p): a family member `functools.partial(f, p)` as its family f with
    parameters p, any other callable as its own family (fn, None)."""
    if isinstance(fn, partial) and len(fn.args) == 1 and not fn.keywords:
        return fn.func, fn.args[0]
    return fn, None


def _join(groups: dict, fn, j: int) -> None:
    """Add candidate j, with its parameters, to the group of fn's family."""
    f, p = _family(fn)
    js, ps = groups.setdefault(f, ([], []))
    js.append(j)
    ps.append(p)


def _at(js, count: int):
    """Index of candidates `js` among `count`: a plain slice when js is all of them."""
    return slice(None) if len(js) == count else js


def _stacked(ps):
    """A family's per-candidate parameters as one array, None for a plain callable."""
    return None if ps[0] is None else np.array(ps)


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
