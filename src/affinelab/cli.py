"""Command-line harness: run scenario suites, list the catalog, dump trajectories."""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .atlas import Point, Tangent
from .catalog import default_catalog
from .errors import GeometryError, ScenarioError
from .flows import IntegratorConfig, integrate
from .frame_bundle import Frame, horizontal_flow
from .geodesics import geodesic
from .harness import check_names, emit, load_scenario, run_suite, trajectory_rows


def _vec_arg(flag: str, text: str, size: int) -> np.ndarray:
    """The `size` comma-separated finite numbers of --flag; anything else is a usage error."""
    try:
        v = np.array([float(x) for x in text.split(",")], float)
        if v.size == size and np.isfinite(v).all():
            return v
    except ValueError:
        pass
    raise ScenarioError(f"--{flag}: expected {size} comma-separated finite numbers, got {text!r}")


def _with_step(cfg: IntegratorConfig, step: float) -> IntegratorConfig:
    """`cfg` with its step replaced; a step it rejects is a usage error."""
    try:
        return replace(cfg, step=step)
    except ValueError as e:
        raise ScenarioError(f"--step: {e}") from None


def _cmd_run(args) -> int:
    catalog = default_catalog()
    scenario = load_scenario(args.scenario, catalog)
    if args.seed is not None:
        if args.seed < 0:
            raise ScenarioError(f"--seed must be non-negative, got {args.seed}")
        scenario.rng_seed = args.seed
    if args.step is not None:
        scenario.integrator = _with_step(scenario.integrator, args.step)
    try:
        report = run_suite(scenario, catalog, tol_scale=args.tol_scale)
    except ValueError as e:  # run_suite isolates check errors; this is its tol_scale check
        raise ScenarioError(f"--tol-scale: {e}") from None
    for c in report.checks:
        worst = "n/a" if c.worst is None else f"{c.worst:.3e}"
        at = "" if c.worst_at is None else f" at={c.worst_at}"
        line = f"[{c.status.upper():4s}] {c.name:24s} worst={worst:>10s} samples={c.samples:4d}{at} ({c.ms:.0f} ms)"
        if c.error:
            line += f"  {c.error}"
        print(line)
    if not report.checks:
        print("no checks ran", file=sys.stderr)
    if args.out:
        emit(report, args.out, format="json")
        print(f"report written to {args.out}")
    return 0 if report.all_passed else 1


def _cmd_list(args) -> int:
    catalog = default_catalog()
    print("manifolds:")
    for m in catalog.manifold_names():
        conns = ", ".join(catalog.connection_names(m))
        fields = ", ".join(catalog.field_names(m)) or "-"
        charts = ", ".join(catalog.atlas(m).chart_order())
        print(f"  {m:14s} charts: {charts}")
        print(f"  {'':14s} connections: {conns}")
        print(f"  {'':14s} fields: {fields}")
    print("checks:")
    for name in check_names():
        print(f"  {name}")
    return 0


def _cmd_dump(args) -> int:
    catalog = default_catalog()
    cfg = _with_step(IntegratorConfig(), args.step)

    def need(flag, value, known=None):
        if value is None:
            raise ScenarioError(f"dump {args.kind} requires --{flag}")
        if known is not None and value not in known:
            raise ScenarioError(f"--{flag}: unknown {flag} {value!r} (known: {', '.join(known)})")
        return value

    atlas = catalog.atlas(need("manifold", args.manifold, catalog.manifold_names()))
    n = atlas.dim
    if not np.isfinite([args.t0, args.t1]).all():
        raise ScenarioError(f"--t0 and --t1 must be finite, got {args.t0}, {args.t1}")
    if args.t0 > 0 or (args.kind != "geodesic" and args.t0 != 0):
        allowed = "at most 0" if args.kind == "geodesic" else "0"
        raise ScenarioError(f"--t0: dump {args.kind} takes its initial data at t=0, so --t0 "
                            f"must be {allowed}, got {args.t0}")
    start = Point(need("chart", args.chart, atlas.charts), _vec_arg("point", args.point, n))
    if args.kind != "flow":
        conn = catalog.connection(args.manifold, need("connection", args.connection,
                                                      catalog.connection_names(args.manifold)))
    record = []
    if args.kind == "geodesic":
        span = (args.t0, args.t1)
        if not (args.t1 >= 0.0 and args.t1 > span[0]):
            raise ScenarioError(f"--t0/--t1: span {span} must contain 0, with positive length")
        v0 = _vec_arg("velocity", need("velocity", args.velocity), n)
        curve = geodesic(conn, Tangent(start, v0), span, cfg)
        rows = [(t, c, np.concatenate([x, v])) for t, c, x, v in curve.rows()]
        payload = "tangent"
    elif args.kind == "flow":
        fname = need("field", args.field, catalog.field_names(args.manifold))
        integrate(catalog.field(args.manifold, fname), start, args.t1, cfg, record=record)
        rows, payload = record, "coords"
    else:  # horizontal: argparse admits no other kind
        lam = _vec_arg("lam", need("lam", args.lam), n)
        g = _vec_arg("frame", args.frame, n * n).reshape(n, n) if args.frame else np.eye(n)
        horizontal_flow(conn, lam, Frame(start.chart, start.coords, g), args.t1, cfg,
                        record=record)
        rows, payload = record, "frame"
    header, out_rows = trajectory_rows(rows, n, payload)
    emit((header, out_rows), args.out, format="csv")
    print(f"{len(out_rows)} rows written to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="affinelab",
                                description="chart-based affine-manifold engine harness",
                                epilog="exit codes: 0 ok, 1 a check failed or none ran, "
                                       "2 usage error, 3 geometry error (e.g. a flow left the atlas)")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario file and report pass/fail per check")
    run.add_argument("scenario", help="path to a scenario JSON file")
    run.add_argument("--out", default=None, help="write the JSON report here")
    run.add_argument("--seed", type=int, default=None, help="override the scenario rng_seed")
    run.add_argument("--step", type=float, default=None, help="override the integrator step")
    run.add_argument("--tol-scale", type=float, default=1.0, dest="tol_scale",
                     help="loosen every check by this factor: tolerances are multiplied "
                          "and lower bounds (floor, min_gap) divided")
    run.set_defaults(fn=_cmd_run)

    lst = sub.add_parser("list", help="list catalog manifolds, connections, fields, checks")
    lst.set_defaults(fn=_cmd_list)

    dump = sub.add_parser("dump", help="integrate a trajectory and write it as CSV")
    dump.add_argument("kind", choices=["geodesic", "flow", "horizontal"])
    dump.add_argument("--manifold", required=True)
    dump.add_argument("--connection", default=None, help="needed for geodesic/horizontal")
    dump.add_argument("--field", default=None, help="vector field name (flow)")
    dump.add_argument("--chart", required=True)
    dump.add_argument("--point", required=True, help="comma-separated coordinates")
    dump.add_argument("--velocity", default=None, help="geodesic initial velocity")
    dump.add_argument("--lam", default=None, help="standard-horizontal direction")
    dump.add_argument("--frame", default=None, help="row-major frame matrix entries")
    dump.add_argument("--t0", type=float, default=0.0, help="geodesic span start, at most 0")
    dump.add_argument("--t1", type=float, required=True)
    dump.add_argument("--step", type=float, default=1e-3)
    dump.add_argument("--out", required=True)
    dump.set_defaults(fn=_cmd_dump)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GeometryError as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
