"""The benchmark's workloads: seeded inputs, timed ops and their oracle checks.

A workload is built from a catalog and a seed; building it generates
every input.  `run_round(probe)` executes one fixed, identical round of
ops, lets the speed probe sample between ops, and returns one OpRecord
per op.  Every round of a workload does the same
work, so per-round counts repeat exactly for a given seed.

An op is the timed unit, an item the unit that can fail.  An item fails
when its call raises, returns a non-finite value, or misses its oracle
(see oracles.py) or the harness's own tolerance.
"""
from __future__ import annotations

import contextlib
import dataclasses
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles as O

SCENARIOS = ("sphere_so3", "flat_plane", "halfplane", "torus")


@dataclass
class OpRecord:
    kind: str
    start: float  # perf_counter at the op's start
    seconds: float  # raw wall time of the op
    items: int
    failed: int
    error: str | None = None


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, float))) for a in arrays)


def _describe(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _unit(rng) -> np.ndarray:
    d = rng.normal(size=2)
    return d / np.linalg.norm(d)


class _OpStream:
    """A round of (kind, call, verify) ops; verify(out) -> failed item count."""

    ops: list
    items_per_op: int = 1

    def warm_up(self):
        self.ops[0][1]()

    def run_round(self, probe) -> list[OpRecord]:
        clock = time.perf_counter
        results = []
        for kind, call, _ in self.ops:
            probe.maybe()
            spent = probe.spent
            t0 = clock()
            try:
                out, error = call(), None
            except Exception as e:  # noqa: BLE001 -- a raising op is a failed item
                out, error = None, _describe(e)
            results.append((t0, clock() - t0 - (probe.spent - spent), out, error))
        records = []
        for (kind, _, verify), (start, seconds, out, error) in zip(self.ops, results):
            if error is None:
                try:
                    failed = verify(out)
                except Exception as e:  # noqa: BLE001 -- malformed output fails its items
                    failed, error = self.items_per_op, _describe(e)
            else:
                failed = self.items_per_op
            records.append(OpRecord(kind, start, seconds, self.items_per_op, failed, error))
        return records


# -- long_trajectories ---------------------------------------------------------------

class LongTrajectories(_OpStream):
    """completeness_probe over 8 seeds in both directions, manifold rotating per op.

    Sphere and torus probes run to horizon 100 and hop charts many times;
    the plane is the cheap flat case; disk geodesics must stop before the
    closed-form time they leave the unit disk.  The sphere takes three of
    the six ops in a round, so the median and the tail both fall among
    the sphere probes.
    """

    SEEDS = 8
    items_per_op = 2 * SEEDS
    # (manifold, connection, chart, sample box half-width, step, horizon)
    PLAN = (("plane", "flat", "cart", 1.0, 0.5, 100.0),
            ("sphere", "round", "a", 1.2, 0.1, 100.0),
            ("torus", "flat", "t00", 0.28, 0.05, 100.0),
            ("sphere", "round", "a", 1.2, 0.1, 100.0),
            ("disk", "flat", "disk", 0.5, 0.01, 100.0),
            ("sphere", "round", "a", 1.2, 0.1, 100.0))

    def __init__(self, al, catalog, seed):
        rng = np.random.default_rng([seed, 1])
        self.ops = []
        for manifold, connection, chart, half, step, horizon in self.PLAN:
            xs = rng.uniform(-half, half, size=(self.SEEDS, 2))
            vs = rng.normal(size=(self.SEEDS, 2))
            conn = catalog.connection(manifold, connection)
            cfg = al.IntegratorConfig(step=step)
            tangents = [al.Tangent(al.Point(chart, x), v) for x, v in zip(xs, vs)]
            call = (lambda conn=conn, tangents=tangents, horizon=horizon, cfg=cfg:
                    al.completeness_probe(conn, tangents, horizon, cfg))
            if manifold == "disk":
                limits = [(O.disk_exit_time(x, v), O.disk_exit_time(x, -v)) for x, v in zip(xs, vs)]
                verify = self._disk_verifier(limits, step)
            else:
                verify = self._complete_verifier(horizon)
            self.ops.append((f"probe/{manifold}", call, verify))

    @staticmethod
    def _complete_verifier(horizon):
        slack = O.TOL_PROBE_TIME * horizon

        def verify(report):
            failed = 0
            for row in report.rows:
                failed += not (row.status_forward == "ok" and abs(row.t_forward - horizon) <= slack)
                failed += not (row.status_backward == "ok" and abs(row.t_backward + horizon) <= slack)
            return failed
        return verify

    @staticmethod
    def _disk_verifier(limits, step):
        slack = O.TOL_PROBE_TIME

        def stops_before(status, reached, exit_time):
            # the last state inside the disk is less than one step before the exit
            return status == "left_atlas" and exit_time - step - slack <= reached < exit_time + slack

        def verify(report):
            failed = 0
            for row, (t_fwd, t_bwd) in zip(report.rows, limits, strict=True):
                failed += not stops_before(row.status_forward, row.t_forward, t_fwd)
                failed += not stops_before(row.status_backward, -row.t_backward, t_bwd)
            return failed
        return verify


# -- point_queries ------------------------------------------------------------------------

class PointQueries(_OpStream):
    """A shuffled stream of single public calls at step 1e-2.

    Each set holds the seven query kinds once on sphere/round and once on
    halfplane/hyperbolic, except two kinds whose copies both use the sphere,
    one per stereographic chart: the change-of-variable query needs two
    charts, and exp_map sits at the median, where the half-plane's cheaper
    exp_map would put the median on the boundary between two cost
    clusters.  A round is SETS sets in a seeded order.
    """

    SETS = 24
    STEP = 1e-2
    KINDS = ("exp_map", "exp_inverse", "parallel_transport", "extend_killing",
             "killing_residual", "kappa_roundtrip", "change_of_variable_residual")

    def __init__(self, al, catalog, seed):
        self.al = al
        self.cfg = al.IntegratorConfig(step=self.STEP)
        self.sphere = catalog.connection("sphere", "round")
        self.hyp = catalog.connection("halfplane", "hyperbolic")
        self.fields = {name: catalog.field(m, name) for m, names in
                       (("sphere", ("rot_x", "rot_y", "rot_z")),
                        ("halfplane", ("hyp_trans", "hyp_dilate", "hyp_conf")))
                       for name in names}
        rng = np.random.default_rng([seed, 2])
        ops = []
        for _ in range(self.SETS):
            for kind in self.KINDS:
                if kind == "change_of_variable_residual":
                    ops.append(self._change_of_variable(rng, "a", "b"))
                    ops.append(self._change_of_variable(rng, "b", "a"))
                elif kind == "exp_map":
                    ops.append(self._exp_map(rng, "a"))
                    ops.append(self._exp_map(rng, "b"))
                else:
                    make = getattr(self, f"_{kind}")
                    ops.append(make(rng, "sphere"))
                    ops.append(make(rng, "halfplane"))
        self.warm_up_op = ops[0]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]

    def warm_up(self):
        # a fixed kind (the first generated query, an exp_map), not the
        # shuffled stream's first, so set-up time does not depend on the seed
        self.warm_up_op[1]()

    # inputs: sphere points in chart "a", half-plane points in a box above the axis

    def _point(self, rng, manifold, half=1.2):
        if manifold == "sphere":
            return "a", rng.uniform(-half, half, size=2)
        return "hp", np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0)])

    def _scale(self, manifold, p):
        """Chart length of a vector of unit metric length at p."""
        return 1.0 / O.sphere_scale(p) if manifold == "sphere" else p[1]

    def _geodesic(self, manifold, p, v, t=1.0):
        """Oracle endpoint of exp(t v) from p: ambient from chart "a" on the sphere,
        chart coordinates on the half-plane."""
        if manifold == "sphere":
            return O.sphere_geodesic("a", p, v, t)[0]
        return O.halfplane_geodesic(p, v, t)[0]

    @staticmethod
    def _embed(manifold, point):
        if manifold == "sphere":
            return O.stereo_to_ambient(point.coords, O.SIGMA[point.chart])
        return point.coords

    def _conn(self, manifold):
        return self.sphere if manifold == "sphere" else self.hyp

    def _exp_map(self, rng, chart):
        """exp on the sphere from a point of stereographic chart `chart`."""
        al = self.al
        p = rng.uniform(-1.2, 1.2, size=2)
        v = rng.uniform(0.2, 1.5) / O.sphere_scale(p) * _unit(rng)
        tangent = al.Tangent(al.Point(chart, p), v)
        expected = O.sphere_geodesic(chart, p, v)[0]
        conn, cfg = self.sphere, self.cfg

        def verify(out):
            got = self._embed("sphere", out)
            return int(not (_finite(got) and np.linalg.norm(got - expected) <= O.TOL_ENDPOINT))
        return "exp_map", lambda: al.exp_map(conn, tangent, cfg), verify

    def _exp_inverse(self, rng, manifold):
        """Targets within geodesic distance 0.75 (sphere) or 1.0 (half-plane).

        On the sphere the start also lies in the box |p_i| <= 0.6 of chart
        "a" and the target south of X3 = -0.2: past the equator the undamped
        Newton shooting, started from the chart difference, overshoots out
        of chart "a" and raises NoConvergence.
        """
        al = self.al
        while True:
            chart, p = self._point(rng, manifold, half=0.6)
            length = rng.uniform(0.1, 0.75 if manifold == "sphere" else 1.0)
            v = length * self._scale(manifold, p) * _unit(rng)
            target = self._geodesic(manifold, p, v)
            if manifold != "sphere" or target[2] <= -0.2:
                break
        y = target if manifold != "sphere" else O.ambient_to_stereo(target, O.SIGMA["a"])
        x, y = al.Point(chart, p), al.Point(chart, y)
        conn, cfg = self._conn(manifold), self.cfg
        if manifold == "sphere":
            distance = O.sphere_distance(O.stereo_to_ambient(p, 1.0), target)
        else:
            distance = O.halfplane_distance(p, target)

        def verify(out):
            w = out.vec
            if not _finite(w):
                return 1
            hit = np.linalg.norm(self._geodesic(manifold, p, w) - target)
            metric_length = np.linalg.norm(w) / self._scale(manifold, p)
            return int(not (hit <= O.TOL_EXP_INVERSE * max(1.0, np.linalg.norm(target))
                            and abs(metric_length - distance) <= O.TOL_EXP_INVERSE))
        return "exp_inverse", lambda: al.exp_inverse(conn, x, y, cfg), verify

    def _parallel_transport(self, rng, manifold):
        """Transport along the unit-length geodesic t -> exp(t u), t in [0, 1]."""
        al = self.al
        chart, p = self._point(rng, manifold)
        u = self._scale(manifold, p) * _unit(rng)
        w = rng.normal(size=2)
        start = al.Tangent(al.Point(chart, p), u)
        conn, cfg = self._conn(manifold), self.cfg

        def call():
            curve = al.geodesic(conn, start, (0.0, 1.0), cfg)
            return curve.point(1.0).chart, al.parallel_transport(conn, curve, 0.0, 1.0, w, cfg)

        if manifold == "sphere":
            end = O.sphere_geodesic("a", p, u)[0]
            ambient = O.sphere_transport("a", p, u, w)

            def expected_in(end_chart):
                return O.d_ambient_to_stereo(end, O.SIGMA[end_chart]) @ ambient
        else:
            transported = O.halfplane_transport(p, u, w)

            def expected_in(end_chart):
                return transported

        def verify(out):
            end_chart, got = out
            want = expected_in(end_chart)
            return int(not (_finite(got) and np.linalg.norm(got - want)
                            <= O.TOL_TRANSPORT * max(1.0, np.linalg.norm(want))))
        return "parallel_transport", call, verify

    def _extend_killing(self, rng, manifold):
        """Seed of a catalog Killing field carried along a horizontal segment
        of chart length 0.1-0.5 from the frame (x, id)."""
        al = self.al
        chart, p = self._point(rng, manifold, half=1.0)
        axis = int(rng.integers(3))
        name = (("rot_x", "rot_y", "rot_z") if manifold == "sphere"
                else ("hyp_trans", "hyp_dilate", "hyp_conf"))[axis]
        lam = rng.uniform(0.1, 0.5) * _unit(rng)
        if manifold == "halfplane":
            lam = lam * p[1]
        x = al.Point(chart, p)
        path = al.HorizontalPath.single(lam, 1.0)
        conn, fld, cfg = self._conn(manifold), self.fields[name], self.cfg
        # with the frame (x, id) the horizontal curve projects to exp(t lam)
        end = self._geodesic(manifold, p, lam)

        def field_at(point):
            if manifold == "sphere":
                return O.sphere_rotation_field(axis, point.chart, point.coords)
            return O.halfplane_killing_field(name, point.coords)

        def verify(out):
            got_end = self._embed(manifold, out.base)
            if not _finite(got_end, out.vec):
                return 1
            want = field_at(out.base)
            return int(not (np.linalg.norm(got_end - end) <= O.TOL_ENDPOINT * max(1.0, np.linalg.norm(end))
                            and np.linalg.norm(out.vec - want)
                            <= O.TOL_KILLING_VALUE * max(1.0, np.linalg.norm(want))))
        return ("extend_killing",
                lambda: al.extend_killing(conn, al.ev_embedding(conn, fld, x), path, cfg), verify)

    def _killing_residual(self, rng, manifold):
        al = self.al
        chart, p = self._point(rng, manifold)
        names = (("rot_x", "rot_y", "rot_z") if manifold == "sphere"
                 else ("hyp_trans", "hyp_dilate", "hyp_conf"))
        fld = self.fields[names[int(rng.integers(3))]]
        v, w = rng.normal(size=(2, 2))
        x = al.Point(chart, p)
        conn = self._conn(manifold)

        def verify(out):
            return int(not (_finite(out) and np.linalg.norm(out) <= O.TOL_KILLING_RESIDUAL))
        return "killing_residual", lambda: al.killing_residual(conn, fld, x, v, w), verify

    def _kappa_roundtrip(self, rng, manifold):
        al = self.al
        chart, p = self._point(rng, manifold)
        frame = al.Frame(chart, p, np.eye(2) + rng.uniform(-0.2, 0.2, size=(2, 2)))
        ft = al.FrameTangent(rng.normal(size=2), rng.normal(size=(2, 2)))
        conn = self._conn(manifold)
        scale = 1.0 + np.linalg.norm(ft.v) + np.linalg.norm(ft.w)

        def verify(out):
            err = np.linalg.norm(out.v - ft.v) + np.linalg.norm(out.w - ft.w)
            return int(not (_finite(out.v, out.w) and err <= O.TOL_KAPPA_ROUNDTRIP * scale))
        return ("kappa_roundtrip",
                lambda: al.kappa_inverse(conn, frame, al.kappa(conn, frame, ft)), verify)

    def _change_of_variable(self, rng, source, target):
        """Points in the overlap annulus 0.6 < |p| < 1.6 of the stereographic charts."""
        al = self.al
        radius, angle = rng.uniform(0.6, 1.6), rng.uniform(0.0, 2.0 * math.pi)
        x = al.Point(source, radius * np.array([math.cos(angle), math.sin(angle)]))
        v, w = rng.normal(size=(2, 2))
        conn = self.sphere

        def verify(out):
            return int(not (math.isfinite(out) and out <= O.TOL_CHANGE_OF_VARIABLE))
        return ("change_of_variable_residual",
                lambda: al.change_of_variable_residual(conn, x, v, w, target), verify)


# -- scenario_suite --------------------------------------------------------------------------

class ScenarioSuite:
    """The four shipped scenarios with checks, each through load_scenario and
    run_suite with rng_seed replaced by the benchmark seed, as
    `affinelab run --seed` does.  An op is one check row, timed by wrapping
    the harness's check functions; an item is the same row.
    """

    def __init__(self, al, catalog, seed, scenario_dir: Path):
        self.al = al
        self.catalog = catalog
        self.scenarios = []
        for name in SCENARIOS:
            scenario = al.load_scenario(str(scenario_dir / f"{name}.json"), catalog)
            scenario.rng_seed = seed
            self.scenarios.append((name, scenario))
        self.reports = []

    @contextlib.contextmanager
    def _timed_checks(self, log, probe):
        """Within the block every registered check appends (name, start, seconds) to log."""
        checks = self.al.harness._CHECKS
        saved = dict(checks)
        clock = time.perf_counter

        def timed(name, fn):
            def wrapper(*args, **kwargs):
                probe.maybe()
                spent = probe.spent
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    log.append((name, t0, clock() - t0 - (probe.spent - spent)))
            return wrapper

        for name, (defaults, fn) in saved.items():
            checks[name] = (defaults, timed(name, fn))
        try:
            yield
        finally:
            checks.clear()
            checks.update(saved)

    def warm_up(self):
        name, scenario = self.scenarios[0]
        first = dataclasses.replace(scenario, checks=scenario.checks[:1])
        self.al.run_suite(first, self.catalog)

    def run_round(self, probe) -> list[OpRecord]:
        log = []
        reports = []
        with self._timed_checks(log, probe):
            for _, scenario in self.scenarios:
                reports.append(self.al.run_suite(scenario, self.catalog))
        self.reports = reports
        rows = [(scenario, row) for (scenario, _), report in zip(self.scenarios, reports)
                for row in report.checks]
        if len(rows) != len(log):
            raise RuntimeError(f"{len(log)} timed checks for {len(rows)} report rows")
        records = []
        for (scenario, row), (name, start, seconds) in zip(rows, log):
            ok = row.status == "pass" and row.worst is not None and math.isfinite(row.worst)
            records.append(OpRecord(f"check/{scenario}/{name}", start, seconds, 1, int(not ok),
                                    row.error))
        return records


def build(name, al, catalog, seed, root: Path):
    if name == "long_trajectories":
        return LongTrajectories(al, catalog, seed)
    if name == "point_queries":
        return PointQueries(al, catalog, seed)
    if name == "scenario_suite":
        return ScenarioSuite(al, catalog, seed, root / "scenarios")
    raise KeyError(name)


WORKLOADS = ("long_trajectories", "scenario_suite", "point_queries")
