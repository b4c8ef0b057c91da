"""Scenario execution harness: named checks over catalog geometry.

A scenario file (strict JSON) names a catalog manifold/connection, a set
of vector fields, and a list of checks with parameters.  Every check
returns its per-sample residuals and the bound they are held to, and
`run_suite` judges every row by one rule: a row passes only if its check
sampled something, every residual is finite and `worst`, the largest
residual (at least 0.0), is within the bound; `worst_at` is its index.

Checks are registered with `check`; each parameter name has one kind in
`_KIND`, which a scenario's values must pass when it is parsed.

All randomness is drawn from numpy PCG64 generators seeded per check as
SeedSequence([rng_seed, check_index]), which makes reports reproducible
and keeps checks independent of each other.
"""
from __future__ import annotations

import inspect
import json
import math
import platform
import sys
import time
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import NamedTuple

import numpy as np

from .atlas import Point, Tangent
from .automorphism import (FlowWord, affine_residual, exp_aut, exp_commutes_defect, frame_gap,
                           frame_lift, kappa_pullback_defect, orbit_point)
from .catalog import Catalog, default_catalog, rotation_matrix_3d, sphere_rotation
from .connection import change_of_variable_residual
from .errors import IoError, ParseError, UnknownCatalogName
from .flows import IntegratorConfig, combine, parameter_flow_derivative_defect
from .frame_bundle import Frame, FrameTangent, horizontal_projection_defect, kappa_inverse_family
from .geodesics import CurveSpec, completeness_probe, exp_map, parallel_transport
from .killing import (HorizontalPath, KillingSeed, bracket, ev_embedding, extend_killing,
                      gram_rank, killing_residual, lift_commutation_defect, natural_lift, path_to)


@dataclass
class Scenario:
    manifold: str
    connection: str
    fields: list = dc_field(default_factory=list)
    checks: list = dc_field(default_factory=list)
    integrator: IntegratorConfig = dc_field(default_factory=IntegratorConfig)
    rng_seed: int = 0
    source: str | None = None


@dataclass
class CheckResult:
    name: str
    status: str
    worst: float | None
    samples: int
    ms: float
    error: str | None = None  # left out of `to_dict` rows when None
    worst_at: int | None = None


# version of a report's JSON form; 2: a non-finite `worst` is null; 3:
# `integrator` holds only `step`
REPORT_SCHEMA = 3


@dataclass
class Report:
    checks: list
    meta: dict

    @property
    def all_passed(self) -> bool:
        return bool(self.checks) and all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        """The JSON form: a non-finite `worst` becomes None (null); the
        row's error names the value."""
        rows = []
        for c in self.checks:
            row = {k: v for k, v in asdict(c).items() if k != "error" or v is not None}
            if row["worst"] is not None and not math.isfinite(row["worst"]):
                row["worst"] = None
            rows.append(row)
        return {"checks": rows, "meta": self.meta}


# -- check registry ----------------------------------------------------------

class Residuals(NamedTuple):
    """What a check returns; a plain `(values, bound)` tuple reads the same."""
    values: list                # one residual per sample, in the order sampled
    bound: float                # the largest residual that passes
    samples: int | None = None  # the count to report, when it is not len(values)
    unmet: str | None = None    # a condition of the check's own that does not hold


_CHECKS: dict[str, tuple[dict, callable]] = {}
_MANIFOLD: dict[str, str | None] = {}  # check -> the one catalog manifold it runs on, if any


def check(name: str, manifold: str | None = None):
    """Register `fn(ctx, ...)` as check `name`, its signature's defaults (None: required).
    `fn` returns `Residuals` and no verdict: `_row` passes its row only if it sampled
    something, every residual is finite and the largest is within the bound.  A check
    that runs on one catalog `manifold` only is refused on any other when parsed."""
    def wrap(fn):
        params = list(inspect.signature(fn).parameters.values())[1:]
        _CHECKS[name] = ({p.name: p.default for p in params}, fn)
        _MANIFOLD[name] = manifold
        return fn

    return wrap


def check_names():
    return sorted(_CHECKS)


def _row(name: str, out, ms: float) -> CheckResult:
    """The row for a check's `Residuals`: the one rule, and the check's own condition."""
    values, bound, samples, unmet = Residuals(*out)
    r = np.asarray(values, dtype=float).ravel()
    samples = r.size if samples is None else int(samples)
    bad = np.flatnonzero(~np.isfinite(r))
    at = None if not (samples and r.size) else int(bad[0]) if bad.size else int(np.argmax(r))
    worst = 0.0 if at is None else float(r[at]) if bad.size else max(0.0, float(r[at]))
    error = ("sampled nothing (no fields or samples to check)" if at is None else
             f"residual {at} (in sampling order) is {worst}, not finite" if bad.size else unmet)
    passed = error is None and worst <= bound
    return CheckResult(name, "pass" if passed else "fail", worst, samples, round(ms, 3), error, at)


class _Ctx:
    def __init__(self, scenario: Scenario, catalog: Catalog, rng: np.random.Generator):
        self.catalog = catalog
        self.atlas = catalog.atlas(scenario.manifold)
        self.conn = catalog.connection(scenario.manifold, scenario.connection)
        self.cfg = scenario.integrator
        self.rng = rng
        self.scenario = scenario

    def field(self, name):
        return self.catalog.field(self.scenario.manifold, name)

    def field_list(self, names):
        if names is None:
            names = list(self.scenario.fields)
        return [(n, self.field(n)) for n in names]

    def sample_vw(self):
        return self.rng.normal(size=(2, self.atlas.dim))

    def points(self, count, chart=None) -> list:
        """`count` sample points of `chart`, by default the atlas's first."""
        return self.atlas.sample_points(chart or self.atlas.chart_order()[0], count, self.rng)

    def overlaps(self, samples):
        """(point, its chart, other chart) for `samples` points of each ordered overlap."""
        for cid, tid in self.atlas.overlap_pairs():
            for p in self.atlas.overlap_samples(cid, tid, samples, self.rng):
                yield p, cid, tid

    def killing_norms(self, fld, samples) -> list:
        """|killing_residual| at `samples` first-chart points, a random (v, w) each."""
        return [float(np.linalg.norm(killing_residual(self.conn, fld, p, *self.sample_vw())))
                for p in self.points(samples)]

    def frame(self, point) -> Frame:
        """A frame at `point` whose matrix is I plus uniform(-0.2, 0.2) entries."""
        n = self.atlas.dim
        return Frame(point.chart, point.coords, np.eye(n) + self.rng.uniform(-0.2, 0.2, (n, n)))

    def exp_aut(self, field, samples, tol_kill) -> tuple[list, FlowWord]:
        """(`samples` first-chart points, exp of the named field checked Killing at them)."""
        pts = self.points(samples)
        return pts, exp_aut(self.conn, self.field(field), pts, self.cfg, tol_kill=tol_kill)


@check("transition_roundtrip")
def _transition_roundtrip(ctx, samples=100, tol=1e-10):
    tr = ctx.atlas.transition
    return [float(np.linalg.norm(tr(tr(p, tid), cid).coords - p.coords))
            for p, cid, tid in ctx.overlaps(samples)], tol


@check("d2_symmetry")
def _d2_symmetry(ctx, samples=50, tol=1e-8):
    Ts = (ctx.atlas.d2_transition(p, tid) for p, _, tid in ctx.overlaps(samples))
    return [float(np.max(np.abs(T - np.swapaxes(T, 1, 2)))) for T in Ts], tol


@check("bilinearity")
def _bilinearity(ctx, samples=50, tol=1e-10):
    B, res = ctx.conn.eval_B, []
    for cid in filter(ctx.conn.has_chart, ctx.atlas.charts):
        for p in ctx.points(samples, cid):
            v, w = ctx.sample_vw()
            u = ctx.rng.normal(size=ctx.atlas.dim)
            a = ctx.rng.normal()
            res.append(float(np.linalg.norm(B(p, a * v + w, u) - a * B(p, v, u) - B(p, w, u))))
    return res, tol


@check("change_of_variable")
def _change_of_variable(ctx, samples=100, tol=1e-6):
    return [change_of_variable_residual(ctx.conn, p, *ctx.sample_vw(), tid)
            for p, _, tid in ctx.overlaps(samples)], tol


@check("flow_group_law")
def _flow_group_law(ctx, field=None, s=0.37, t=0.19, samples=5, tol=1e-8):
    fld = ctx.field(field)
    pts = ctx.points(samples)
    a, _ = FlowWord(ctx.atlas, [(fld, s), (fld, t)], ctx.cfg).push(pts)
    b, _ = FlowWord(ctx.atlas, [(fld, s + t)], ctx.cfg).push(pts)
    return [ctx.atlas.gap(p, q) for p, q in zip(a, b)], tol


@check("flow_reversibility")
def _flow_reversibility(ctx, field=None, t=0.8, samples=5, tol=1e-8):
    fld = ctx.field(field)
    pts = ctx.points(samples)
    out, _ = FlowWord(ctx.atlas, [(fld, t), (fld, -t)], ctx.cfg).push(pts)
    return [ctx.atlas.gap(p, q) for p, q in zip(out, pts)], tol


@check("geodesic_periodicity")
def _geodesic_periodicity(ctx, chart=None, point=None, velocity=None, period=None, tol=1e-6):
    start = Tangent(Point(chart, point), velocity)
    return [ctx.atlas.gap(exp_map(ctx.conn, start, ctx.cfg, t=period), start.base)], tol


@check("geodesic_convergence")
def _geodesic_convergence(ctx, chart=None, point=None, velocity=None, period=None, min_ratio=8.0):
    start = Tangent(Point(chart, point), velocity)
    errs = []
    for step in (ctx.cfg.step, ctx.cfg.step / 2.0):
        end = exp_map(ctx.conn, start, replace(ctx.cfg, step=step), t=period)
        errs.append(ctx.atlas.gap(end, start.base))
    # the residual is how far halving the step falls short of shrinking the error min_ratio-fold
    ratio = errs[0] / np.maximum(errs[1], 1e-300)
    return Residuals([min_ratio - ratio], 0.0, samples=2)


@check("sphere_holonomy", manifold="sphere")
def _sphere_holonomy(ctx, colatitudes=(0.5235987755982988, 0.7853981633974483,
                                      1.0471975511965976), tol=1e-5):
    res = []
    for theta0 in colatitudes:
        rho = np.tan(theta0 / 2.0)

        def circ(t, rho=rho):  # called 2N + 1 times: scalar math, one array per vector
            c, s = math.cos(t), math.sin(t)
            return "b", np.array((rho * c, rho * s)), np.array((-rho * s, rho * c))

        curve = CurveSpec.from_callable(ctx.atlas, circ, 0.0, 2 * np.pi)
        P = parallel_transport(ctx.conn, curve, 0.0, 2 * np.pi, np.eye(2), ctx.cfg)
        ang = -2 * np.pi * np.cos(theta0)
        expected = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
        res.append(float(np.linalg.norm(P - expected)))
    return res, tol


@check("horizontal_projection")
def _horizontal_projection(ctx, chart=None, point=None, lam=None, t1=6.283185307179586, tol=1e-4):
    frame = Frame(chart, point, np.eye(ctx.atlas.dim))
    return [horizontal_projection_defect(ctx.conn, lam, frame, t1, ctx.cfg)], tol


@check("killing_residual")
def _killing_residual(ctx, fields=None, samples=100, tol=1e-8):
    return [r for _, fld in ctx.field_list(fields) for r in ctx.killing_norms(fld, samples)], tol


@check("killing_floor")
def _killing_floor(ctx, field=None, samples=20, floor=1e-2):
    # the residual is how far the field's largest Killing residual falls short of `floor`
    reached = np.max(ctx.killing_norms(ctx.field(field), samples))
    return Residuals([floor - reached], 0.0, samples=samples)


@check("killing_equivalence")
def _killing_equivalence(ctx, fields=None, samples=10, frames=2, res_tol=1e-8, comm_tol=1e-4,
                         s=0.4, t=0.4):
    cid = ctx.atlas.chart_order()[0]
    chart = ctx.atlas.chart(cid)
    center = 0.5 * (chart.sample_lo + chart.sample_hi)
    flds = [fld for _, fld in ctx.field_list(fields)]
    res, rows = [], []  # rows: (field, lambda, frame), `frames` of them per field
    for fld in flds:
        res.append(np.max(ctx.killing_norms(fld, samples)))
        for p in ctx.points(frames):
            # inner half of the sample box: short composite flows must stay
            # inside bounded charts
            fr = ctx.frame(Point(cid, center + 0.5 * (p.coords - center)))
            rows.append((fld, ctx.rng.normal(size=ctx.atlas.dim), fr))
    comms = lift_commutation_defect(ctx.conn, *zip(*rows), s, t, ctx.cfg) if rows else []
    comm = np.max(np.reshape(comms, (len(flds), frames)), axis=1)
    # one residual: the number of fields the two classifications disagree on
    split = float(np.sum((np.array(res) <= res_tol) != (comm <= comm_tol)))
    finite = np.isfinite(res).all() and np.isfinite(comm).all()
    return Residuals([split if finite else math.nan], 0.0, samples=samples * len(flds) + len(comms))


@check("bracket_structure")
def _bracket_structure(ctx, f1=None, f2=None, f3=None, samples=20, tol=1e-8):
    br = bracket(ctx.field(f1), ctx.field(f2))
    target = ctx.field(f3)
    return [float(np.linalg.norm(br.value(p) - target.value(p))) for p in ctx.points(samples)], tol


@check("lift_homomorphism")
def _lift_homomorphism(ctx, f1=None, f2=None, samples=10, tol=1e-6):
    a, b = ctx.field(f1), ctx.field(f2)
    lhs = natural_lift(bracket(a, b))
    rhs = bracket(natural_lift(a), natural_lift(b))
    zs = (ctx.frame(p).packed() for p in ctx.points(samples))
    return [float(np.linalg.norm(lhs.value(z) - rhs.value(z))) for z in zs], tol


@check("extension_recovery")
def _extension_recovery(ctx, field=None, chart=None, point=None, target=None, tol=1e-5):
    fld = ctx.field(field)
    x = Point(chart, point)
    y = Point(chart, target)
    seed = ev_embedding(ctx.conn, fld, x)
    path = path_to(ctx.conn, x, y, ctx.cfg)
    out = extend_killing(ctx.conn, seed, path, ctx.cfg)
    return [float(np.linalg.norm(out.vec - fld.value(out.base)))], tol


@check("extension_linearity")
def _extension_linearity(ctx, f1=None, f2=None, chart=None, point=None, lam=None, a=0.7, tol=1e-8):
    x = Point(chart, point)
    s1 = ev_embedding(ctx.conn, ctx.field(f1), x)
    s2 = ev_embedding(ctx.conn, ctx.field(f2), x)
    combo = KillingSeed(x, a * s1.value + s2.value, a * s1.nabla + s2.nabla)
    path = HorizontalPath.single(lam, 1.0)
    out, o1, o2 = (extend_killing(ctx.conn, seed, path, ctx.cfg) for seed in (combo, s1, s2))
    return Residuals([float(np.linalg.norm(out.vec - (a * o1.vec + o2.vec)))], tol, samples=3)


@check("exp_aut_affine")
def _exp_aut_affine(ctx, field=None, samples=10, tol=1e-5, tol_kill=1e-6):
    pts, f = ctx.exp_aut(field, samples, tol_kill)
    vw = np.array([ctx.sample_vw() for _ in pts]).reshape(len(pts), 2, ctx.atlas.dim)
    res = affine_residual(f, ctx.conn, ctx.conn, pts, vw[:, 0], vw[:, 1])
    return [float(np.linalg.norm(r)) for r in res], tol


@check("kappa_pullback")
def _kappa_pullback(ctx, field=None, samples=5, tol=1e-5, tol_kill=1e-6):
    pts, f = ctx.exp_aut(field, samples, tol_kill)
    n = ctx.atlas.dim
    frames, fts = [], []
    for p in pts:
        frames.append(ctx.frame(p))
        fts.append(FrameTangent(ctx.rng.normal(size=n), ctx.rng.normal(size=(n, n))))
    return kappa_pullback_defect(ctx.conn, frame_lift(f), frames, fts), tol


@check("exp_commutes")
def _exp_commutes(ctx, field=None, samples=3, scale=1.0, tol=1e-5, tol_kill=1e-6):
    pts, f = ctx.exp_aut(field, samples, tol_kill)
    vs = [Tangent(p, scale * ctx.rng.normal(size=ctx.atlas.dim)) for p in pts]
    return exp_commutes_defect(ctx.conn, f, vs, ctx.cfg), tol


@check("frame_homomorphism", manifold="sphere")
def _frame_homomorphism(ctx, axis_a=0, angle_a=0.7, axis_b=2, angle_b=-1.2, samples=10, tol=1e-8):
    Ra = rotation_matrix_3d(axis_a, angle_a)
    Rb = rotation_matrix_3d(axis_b, angle_b)
    Ff, Fg, Ffg = (frame_lift(sphere_rotation(ctx.atlas, R)) for R in (Ra, Rb, Ra @ Rb))
    frs = (ctx.frame(p) for p in ctx.points(samples, "a"))
    return [frame_gap(ctx.atlas, Ffg.apply_frame(fr), Ff.apply_frame(Fg.apply_frame(fr)))
            for fr in frs], tol


@check("orbit_separation")
def _orbit_separation(ctx, fields=None, scale=0.1, min_gap=1e-3, chart=None, point=None,
                      tol_kill=1e-6):
    frame = Frame(chart, point, np.eye(ctx.atlas.dim))
    pts = ctx.points(5, chart)
    frames = []
    for name, fld in ctx.field_list(fields):
        scaled = combine(f"{scale}*{name}", [fld], [scale])
        frames.append(orbit_point(frame_lift(exp_aut(ctx.conn, scaled, pts, ctx.cfg,
                                                     tol_kill=tol_kill)), frame))
    # one residual per pair of orbit points: how far their gap falls short of min_gap
    return Residuals([min_gap - frame_gap(ctx.atlas, frames[i], frames[j])
                      for i in range(len(frames)) for j in range(i)], 0.0, samples=len(frames))


@check("gram_rank_check")
def _gram_rank_check(ctx, fields=None, chart=None, point=None, expected=None):
    p = Point(chart, point)
    seeds = [ev_embedding(ctx.conn, fld, p) for _, fld in ctx.field_list(fields)]
    return Residuals([float(abs(gram_rank(seeds) - expected))], 0.0, samples=len(seeds))


@check("parameter_flow")
def _parameter_flow(ctx, chart=None, point=None, tol=1e-4, eps=1e-3):
    family = kappa_inverse_family(ctx.conn)
    p = Frame(chart, point, np.eye(ctx.atlas.dim)).packed()
    defect = parameter_flow_derivative_defect(family, p, ctx.cfg, eps=eps)
    return Residuals([defect], tol, samples=family.params)


@check("completeness")
def _completeness(ctx, seeds=20, horizon=1000.0, step=0.1, vel_scale=1.0, expect="complete",
                  chart=None, point=None, velocity=None, fail_before=None, slack=1e-6):
    cfg = replace(ctx.cfg, step=step)
    if expect == "fails":
        rep = completeness_probe(ctx.conn, [Tangent(Point(chart, point), velocity)], horizon, cfg)
        unmet = "the probe reached the horizon" if rep.complete_up_to_horizon else None
        return Residuals([rep.rows[0].t_forward - fail_before], 0.0, unmet=unmet)
    tangents = [Tangent(p, vel_scale * ctx.rng.normal(size=ctx.atlas.dim))
                for p in ctx.points(seeds)]
    rep = completeness_probe(ctx.conn, tangents, horizon, cfg)
    unmet = None if rep.complete_up_to_horizon else "a probe stopped before the horizon"
    return Residuals([horizon - r.reached for r in rep.rows], slack, unmet=unmet)


# -- scenario loading ----------------------------------------------------------

_TOP_KEYS = {"manifold", "connection", "fields", "checks", "integrator", "rng_seed"}


def _finite(v) -> bool:
    """A number, not a boolean, that converts to a finite float."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _known_fields(where: str, names, known: list) -> None:
    if not isinstance(names, list):
        raise ParseError(f"{where}fields must be a list of names, got {names!r}")
    for f in names:
        if not (isinstance(f, str) and f in known):
            raise UnknownCatalogName(f"{where}unknown field {f!r} (fields: {known})")


# a kind: (test(value, atlas), what a value failing it must be); "{dim}" and
# "{charts}" in the text stand for the atlas's
_COUNT = (lambda v, atlas: type(v) is int and v > 0, "must be a positive integer")
_POSITIVE = (lambda v, atlas: _finite(v) and v > 0, "must be a finite positive number")
# positive numbers that `run_suite`'s `tol_scale` multiplies (tolerances) or divides
# (lower bounds, what an observation must reach): kinds of their own, tested alike
_TOLERANCE, _LOWER_BOUND = (*_POSITIVE,), (*_POSITIVE,)
_NUMBER = (lambda v, atlas: _finite(v), "must be a finite number")
# zero would make the check compare a computation with itself, and pass on anything
_NONZERO = (lambda v, atlas: _finite(v) and v != 0, "must be a finite nonzero number")
_POINT = (lambda v, atlas: isinstance(v, list) and len(v) == atlas.dim and all(map(_finite, v)),
          "must be {dim} finite numbers")
_DIRECTION = (lambda v, atlas: _POINT[0](v, atlas) and any(v),
              "must be {dim} finite numbers, not all zero")
_FIELD = (lambda v, atlas: True, "must name a catalog field")  # the catalog tests it, below
_AXIS = (lambda v, atlas: type(v) is int and 0 <= v <= 2, "must be 0, 1 or 2")

_KIND = {
    "samples": _COUNT, "frames": _COUNT, "seeds": _COUNT,
    "tol": _TOLERANCE, "tol_kill": _TOLERANCE, "res_tol": _TOLERANCE, "comm_tol": _TOLERANCE,
    "slack": _TOLERANCE, "floor": _LOWER_BOUND, "min_gap": _LOWER_BOUND, "eps": _POSITIVE,
    "t1": _POSITIVE, "period": _POSITIVE, "horizon": _POSITIVE, "step": _POSITIVE,
    "s": _NONZERO, "t": _NONZERO, "scale": _NONZERO, "vel_scale": _NONZERO, "a": _NONZERO,
    "angle_a": _NUMBER, "angle_b": _NUMBER, "fail_before": _NUMBER,
    "min_ratio": (lambda v, atlas: _finite(v) and v > 1, "must be a finite number above 1"),
    "point": _POINT, "target": _POINT, "velocity": _DIRECTION, "lam": _DIRECTION,
    "chart": (lambda v, atlas: isinstance(v, str) and v in atlas.charts, "must be in {charts}"),
    "field": _FIELD, "f1": _FIELD, "f2": _FIELD, "f3": _FIELD,
    "fields": (lambda v, atlas: v is None or isinstance(v, list), "must be a list of field names"),
    "expected": (lambda v, atlas: type(v) is int and v >= 0, "must be a non-negative integer"),
    "expect": (lambda v, atlas: v in ("complete", "fails"), 'must be "complete" or "fails"'),
    "axis_a": _AXIS, "axis_b": _AXIS,
    "colatitudes": (lambda v, atlas: isinstance(v, list) and v != [] and
                    all(_finite(c) and 0 < c < math.pi for c in v),
                    "must be a non-empty list of numbers in (0, pi)"),
}


def _check_params(where: str, name: str, params: dict, defaults: dict, atlas, known) -> None:
    """ParseError unless each required parameter (None default; not `fields`, nor the
    point inputs of a completeness that does not expect "fails") is given, each value
    passes its kind's test and a target is not its point; UnknownCatalogName for a
    field not in `known`."""
    optional = {"fields"}
    if name == "completeness" and params.get("expect") != "fails":
        optional |= {"chart", "point", "velocity", "fail_before"}
    missing = [k for k, v in defaults.items()
               if v is None and k not in optional and params.get(k) is None]
    if missing:
        raise ParseError(f"{where}missing required parameters {missing}")
    for k, v in params.items():
        test, text = _KIND[k]
        if not test(v, atlas):
            text = text.format(dim=atlas.dim, charts=sorted(atlas.charts))
            raise ParseError(f"{where}{k} {text}, got {v!r}")
    named = [v for k, v in params.items() if _KIND[k] is _FIELD]
    _known_fields(where, named + (params.get("fields") or []), known)
    if "target" in params and params["target"] == params.get("point"):
        raise ParseError(f"{where}target must differ from point, got {params['target']!r}")


def _parse_scenario(data: dict, source: str | None, catalog: Catalog) -> Scenario:
    if not isinstance(data, dict):
        raise ParseError("scenario root must be an object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ParseError(f"unknown scenario keys: {sorted(unknown)}")
    for key in ("manifold", "connection"):
        if key not in data:
            raise ParseError(f"missing required key {key!r}")
    manifold = data["manifold"]
    if manifold not in catalog.manifold_names():
        raise UnknownCatalogName(f"unknown manifold {manifold!r}")
    connection = data["connection"]
    if connection not in catalog.connection_names(manifold):
        raise UnknownCatalogName(f"unknown connection {connection!r} on {manifold!r}")
    fields = data.get("fields", [])
    atlas, known = catalog.atlas(manifold), catalog.field_names(manifold)
    _known_fields("", fields, known)

    checks = data.get("checks", [])
    if not isinstance(checks, list):
        raise ParseError("checks must be a list")
    parsed_checks = []
    for i, entry in enumerate(checks):
        name = entry.get("name") if isinstance(entry, dict) else None
        if not isinstance(name, str):
            raise ParseError(f"check #{i}: must be an object with a string 'name'")
        if name not in _CHECKS:
            raise ParseError(f"check #{i}: unknown check {name!r} "
                             f"(known: {', '.join(check_names())})")
        if _MANIFOLD.get(name) not in (None, manifold):
            raise ParseError(f"check #{i} ({name}): runs on {_MANIFOLD[name]!r} only")
        defaults, _ = _CHECKS[name]
        params = {k: v for k, v in entry.items() if k != "name"}
        unknown = set(params) - set(defaults)
        if unknown:
            raise ParseError(f"check #{i} ({name}): unknown parameters {sorted(unknown)}")
        _check_params(f"check #{i} ({name}): ", name, params, defaults, atlas, known)
        separated = fields if params.get("fields") is None else params["fields"]
        if name == "orbit_separation" and len(separated) < 2:
            raise ParseError(f"check #{i} ({name}): needs at least two fields, got {separated}")
        parsed_checks.append({"name": name, **params})

    integ = data.get("integrator", {})
    if not isinstance(integ, dict):
        raise ParseError("integrator must be an object")
    unknown = set(integ) - {"step"}
    if unknown:
        raise ParseError(f"unknown integrator keys: {sorted(unknown)}")
    try:
        cfg = IntegratorConfig(**integ)
    except (TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"bad integrator config: {e}") from None

    rng_seed = data.get("rng_seed", 0)
    if not isinstance(rng_seed, int) or isinstance(rng_seed, bool) or rng_seed < 0:
        raise ParseError(f"rng_seed must be a non-negative integer, got {rng_seed!r}")
    return Scenario(manifold=manifold, connection=connection, fields=list(fields),
                    checks=parsed_checks, integrator=cfg, rng_seed=rng_seed, source=source)


def load_scenario(path: str, catalog: Catalog | None = None) -> Scenario:
    def reject(literal):
        raise ParseError(f"{path}: {literal} is not strict JSON")

    catalog = catalog or default_catalog()
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"cannot read scenario {path!r}: {e}") from None
    try:
        data = json.loads(text, parse_constant=reject)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    return _parse_scenario(data, path, catalog)


def scenario_from_dict(data: dict, catalog: Catalog | None = None) -> Scenario:
    return _parse_scenario(data, None, catalog or default_catalog())


# -- suite runner ---------------------------------------------------------------

def run_suite(scenario: Scenario, catalog: Catalog | None = None, tol_scale: float = 1.0) -> Report:
    """Run all checks; a failing check never prevents later checks.

    `tol_scale` > 1 loosens every check: tolerances are multiplied by it
    and lower bounds (`floor`, `min_gap`) divided; it must be finite and
    positive (ValueError otherwise).  A check that sampled nothing fails,
    whatever its residual, and so does each check of a scenario whose
    `rng_seed` cannot seed a generator.
    """
    if not (math.isfinite(tol_scale) and tol_scale > 0):
        raise ValueError(f"tol_scale must be finite and positive, got {tol_scale!r}")
    catalog = catalog or default_catalog()
    results = []
    for idx, entry in enumerate(scenario.checks):
        name = entry["name"]
        defaults, fn = _CHECKS[name]
        params = {**defaults, **{k: v for k, v in entry.items() if k != "name"}}
        params.update({k: v * tol_scale for k, v in params.items() if _KIND[k] is _TOLERANCE})
        params.update({k: v / tol_scale for k, v in params.items() if _KIND[k] is _LOWER_BOUND})
        t0 = time.perf_counter()
        try:
            seed = np.random.SeedSequence([scenario.rng_seed, idx])
            ctx = _Ctx(scenario, catalog, np.random.Generator(np.random.PCG64(seed)))
            results.append(_row(name, fn(ctx, **params), 1000.0 * (time.perf_counter() - t0)))
        except Exception as e:  # noqa: BLE001 -- isolation: errors become fail rows
            ms = round(1000.0 * (time.perf_counter() - t0), 3)
            results.append(CheckResult(name, "fail", None, 0, ms, f"{type(e).__name__}: {e}"))
    meta = {
        "schema": REPORT_SCHEMA,
        "manifold": scenario.manifold,
        "connection": scenario.connection,
        "fields": list(scenario.fields),
        "rng_seed": scenario.rng_seed,
        "integrator": {"step": scenario.integrator.step},
        "catalog_version": Catalog.VERSION,
        "source": scenario.source,
        "tol_scale": tol_scale,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()}-{platform.release()}-{platform.machine()}",
    }
    return Report(checks=results, meta=meta)


# -- emission --------------------------------------------------------------------

def emit(obj, path: str, format: str = "json") -> None:
    """Write a Report as JSON or a (header, rows) trajectory as CSV."""
    try:
        if format == "json":
            data = obj.to_dict() if isinstance(obj, Report) else obj
            with open(path, "w") as fh:
                json.dump(data, fh, indent=2, allow_nan=False)
                fh.write("\n")
        elif format == "csv":
            header, rows = obj
            with open(path, "w") as fh:
                for row in [header, *rows]:  # strings (the header, chart names) as they are
                    fh.write(",".join(c if isinstance(c, str) else repr(float(c)) for c in row))
                    fh.write("\n")
        else:
            raise ValueError(f"unknown format {format!r}")
    except OSError as e:
        raise IoError(f"cannot write {path!r}: {e}") from None


def trajectory_rows(record, n: int, payload: str = "coords"):
    """(header, rows) for integrator records; payload coords / tangent / frame."""
    fiber = {"coords": [], "tangent": [f"v{i}" for i in range(n)],
             "frame": [f"g{i}{j}" for i in range(n) for j in range(n)]}
    if payload not in fiber:
        raise ValueError(f"unknown payload {payload!r}")
    header = ["t", "chart"] + [f"x{i}" for i in range(n)] + fiber[payload]
    return header, [(r[0], r[1], *r[2]) for r in record]
