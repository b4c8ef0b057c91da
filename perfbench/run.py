"""affinelab benchmark: three workloads, end-to-end metrics and traced per-layer costs.

Run from the repository root:

    python3 perfbench/run.py --workload long_trajectories --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --compare perfbench/results/before perfbench/results/after

A run builds its inputs from --seed, sets up three times (setup_s is the
median), then repeats identical rounds of ops until --seconds have
passed.  --trace 1 instead measures half the time untraced, then the same
number of rounds with spans and counters installed on a fresh catalog,
and reports per-layer metrics per round.  Every result is checked against
closed-form oracles; the last line of stdout is one JSON object, and the
full result is saved under --out.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = 1
SETUP_REPEATS = 5
# With 30 ops the tail (10 samples beyond it) is at p67 or above, clear of the median.
MIN_OPS = 30
# Seed kept out of development runs: check a claimed gain on it last.
HELD_OUT_SEED = 7919
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"))

# Checks run by the four scenarios of scenario_suite; each gets harness.check_ms.<check>.
SUITE_CHECKS = ("bilinearity", "bracket_structure", "change_of_variable", "completeness",
                "d2_symmetry", "exp_aut_affine", "exp_commutes", "extension_recovery",
                "flow_group_law", "flow_reversibility", "geodesic_periodicity",
                "horizontal_projection", "kappa_pullback", "killing_equivalence",
                "killing_floor", "killing_residual", "lift_homomorphism", "parameter_flow",
                "sphere_holonomy", "transition_roundtrip")

# point_queries kind -> the per-layer p50 metric named after its public call
QUERY_P50 = {"exp_map": "geodesics.exp_map.p50_ms",
             "exp_inverse": "geodesics.exp_inverse.p50_ms",
             "parallel_transport": "geodesics.parallel_transport.p50_ms",
             "extend_killing": "killing.extend_killing.p50_ms",
             "killing_residual": "killing.killing_residual.p50_ms",
             "kappa_roundtrip": "frame_bundle.kappa_roundtrip.p50_ms",
             "change_of_variable_residual": "connection.change_of_variable_residual.p50_ms"}

# Deterministic per-round counts; each must repeat exactly for a given seed.
COUNTS = ("flows.calls", "flows.rk4_steps", "flows.field_evals", "connection.B_evals",
          "atlas.hop_checks", "atlas.hops", "atlas.transition_calls", "numdiff.fd_calls",
          "geodesics.exp_inverse.shots", "geodesics.parallel_transport.calls",
          "geodesics.probe_status.ok", "geodesics.probe_status.left_atlas",
          "geodesics.probe_status.hop_limit", "geodesics.probe_status.diverged",
          "killing.killing_residual.calls", "automorphism.exp_aut.calls",
          "harness.samples", "harness.checks_failed")


def per_layer_units(layers):
    """Every per-layer metric name with its unit, in report order.

    The catalog's spans (sphere_rotation, plane_affine_map) run in no
    workload, so its self time is always 0 and is left out; its cost is
    catalog.build_ms.
    """
    units = {f"{layer}.self_ms": "ms/round" for layer in layers if layer != "catalog"}
    units["bench.self_ms"] = "ms/round"
    units.update({name: "count/round" for name in COUNTS})
    units["flows.us_per_step"] = "us"
    units.update({f"harness.check_ms.{c}": "ms/round" for c in SUITE_CHECKS})
    units["catalog.build_ms"] = "ms"
    units.update({name: "ms" for name in QUERY_P50.values()})
    units["trace.overhead_frac"] = "fraction"
    units["trace.accounted_frac"] = "fraction"
    return units


# -- environment ------------------------------------------------------------------------------

def cap_blas_threads():
    """Cap BLAS pools at the CPU count before numpy loads."""
    nproc = os.cpu_count() or 1
    for var in BLAS_VARS:
        current = os.environ.get(var)
        if current is None or not current.isdigit() or int(current) > nproc:
            os.environ[var] = str(nproc)


def child_import_seconds() -> float:
    """Time `import affinelab` in a fresh interpreter.

    numpy is imported first and not timed: on a shared host its import is
    bound by file-system latency and swings by half from hour to hour,
    while no change to affinelab moves it.  A new dependency that
    affinelab imports is still timed.
    """
    code = ("import time, numpy; t = time.perf_counter(); import affinelab; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip())


def run_metadata(numpy_version):
    commit = "unknown"
    if (ROOT / ".git").exists():  # a plain source checkout has no history to ask
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "affinelab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        loadavg = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        loadavg = None
    return {
        "schema": SCHEMA,
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "loadavg_at_start": loadavg,
        "argv": sys.argv[1:],
    }


# -- measuring --------------------------------------------------------------------------------

def set_up(al, workloads, name, seed, probe):
    """SETUP_REPEATS fresh set-ups; returns the last workload and each set-up's
    reference-speed seconds."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        probe.measure()
        probe.measure()
        started = time.perf_counter()
        import_s = child_import_seconds()
        t0 = time.perf_counter()
        # Catalog() is the construction default_catalog() caches; a fresh one
        # per set-up keeps its lazy caches empty until the warm-up fills them
        catalog = al.Catalog()
        workload = workloads.build(name, al, catalog, seed, ROOT)
        workload.warm_up()
        t1 = time.perf_counter()
        probe.measure()
        probe.measure()
        times.append((import_s + t1 - t0) * probe.factor(started, t1))
    return workload, times


def measure(al, workload, probe, seconds, min_ops=1):
    """Whole rounds until `seconds` have passed and at least `min_ops` ops ran.

    Returns the records and the round count.
    """
    records, rounds = [], 0
    start = time.perf_counter()
    with probe.sampling(al):
        while len(records) < min_ops or time.perf_counter() - start < seconds:
            records.extend(workload.run_round(probe))
            rounds += 1
    probe.measure()
    return records, rounds


def scaled(records, probe):
    """Each op's seconds at reference speed."""
    return [r.seconds * probe.factor(r.start, r.start + r.seconds) for r in records]


def tail(latencies):
    """(value, percentile, n): the highest percentile with at least 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    rank = n - 10
    return ordered[rank - 1], 100.0 * rank / n, n


def end_to_end(records, probe, setup_times):
    latencies = scaled(records, probe)
    tail_value, tail_pct, n = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(records) / sum(latencies),
        "op_p50_ms": 1000.0 * statistics.median(latencies),
        "op_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw = [r.seconds for r in records]
    extra = {"op_tail_percentile": tail_pct, "op_samples": n,
             "kind_p50_ms": kind_p50_ms(latencies, records),
             "raw_ops_per_s": len(raw) / sum(raw),
             "raw_op_p50_ms": 1000.0 * statistics.median(raw),
             "raw_op_tail_ms": 1000.0 * tail(raw)[0],
             "speed_factor_median": statistics.median(
                 latencies[i] / raw[i] for i in range(len(raw)) if raw[i] > 0)}
    return metrics, extra


def kind_p50_ms(latencies, records):
    """Median latency in ms of each op kind."""
    by_kind = {}
    for seconds, r in zip(latencies, records):
        by_kind.setdefault(r.kind, []).append(1000.0 * seconds)
    return {kind: statistics.median(v) for kind, v in sorted(by_kind.items())}


def traced(al, workloads, tracing, name, seed, rounds, untraced_s, probe, spans_path):
    """Run `rounds` rounds with tracing on a fresh catalog; per-round per-layer metrics.

    `untraced_s` is the untraced phase's reference-speed op time per round.
    Speed samples are spanned as bench.calibration, so no layer is charged
    for them.
    """
    tracer = tracing.Tracer()
    t0 = time.perf_counter()
    catalog = al.Catalog()
    build_s = time.perf_counter() - t0
    build_factor = probe.factor(t0, t0 + build_s)
    tracer.install(al, catalog)
    probe.measure = tracer.span("bench.calibration", probe.measure)
    try:
        workload = workloads.build(name, al, catalog, seed, ROOT)
        workload.warm_up()
        tracer.reset()
        round_counts, records = [], []
        check_ms, wall = Counter(), 0.0
        phase_start = time.perf_counter()
        for _ in range(rounds):
            before = Counter(tracer.counts)
            r0 = time.perf_counter()
            recs = workload.run_round(probe)
            wall += time.perf_counter() - r0
            records.extend(recs)
            counts = tracer.counts - before
            for report in getattr(workload, "reports", ()):
                for row in report.checks:
                    counts["harness.samples"] += row.samples
                    counts["harness.checks_failed"] += row.status != "pass"
            round_counts.append(counts)
            # the same interval as a report row's ms, less the speed samples in it
            for rec in recs:
                if rec.kind.startswith("check/"):
                    check_ms[rec.kind.rsplit("/", 1)[1]] += 1000.0 * rec.seconds
        factor = probe.factor(phase_start, time.perf_counter())
    finally:
        del probe.measure
        tracer.uninstall()
    self_ms = tracer.self_ms()
    tracer.dump(spans_path)

    library_ms = 1000.0 * wall - self_ms.pop("bench")
    per_round = factor / rounds
    metrics = {f"{layer}.self_ms": ms * per_round for layer, ms in self_ms.items()}
    metrics["bench.self_ms"] = (library_ms - sum(self_ms.values())) * per_round
    first = round_counts[0]
    metrics.update({key: float(first[key]) for key in COUNTS})
    steps = first["flows.rk4_steps"]
    metrics["flows.us_per_step"] = 1000.0 * metrics["flows.self_ms"] / steps if steps else 0.0
    metrics.update({f"harness.check_ms.{c}": check_ms[c] * per_round for c in SUITE_CHECKS})
    metrics["catalog.build_ms"] = 1000.0 * build_s * build_factor
    traced_s = sum(r.seconds for r in records) * per_round
    metrics["trace.overhead_frac"] = 1.0 - untraced_s / traced_s
    metrics["trace.accounted_frac"] = sum(self_ms.values()) / library_ms
    repeat = all(c == first for c in round_counts)
    shares = {layer: ms / library_ms for layer, ms in self_ms.items()}
    return metrics, records, repeat, shares


# -- reporting -------------------------------------------------------------------------------

def print_summary(name, seed, trace, records, rounds, metrics, units, extra):
    items = sum(r.items for r in records)
    failed = sum(r.failed for r in records)
    print(f"workload {name}  seed {seed}  trace {trace}  rounds {rounds}  "
          f"ops {len(records)}  items {items}")
    for key, value in metrics.items():
        note = ""
        if key == "op_tail_ms":
            note = f"  (p{extra['op_tail_percentile']:.1f} of n={extra['op_samples']} ops)"
        elif key == "setup_s":
            note = "  (median of " + ", ".join(f"{t:.3f}" for t in extra["setup_times"]) + ")"
        print(f"  {key:48s} {value:14.6g} {units[key]}{note}")
    print(f"  {'failed_frac':48s} {failed / max(items, 1):14.6g} fraction  ({failed} of {items} items)")
    if "layer_share" in extra:
        shares = sorted(extra["layer_share"].items(), key=lambda kv: -kv[1])
        print("  layer shares of traced round time: "
              + ", ".join(f"{layer} {share:.3f}" for layer, share in shares if share > 0))
    for r in records:
        if r.error:
            print(f"  error in {r.kind}: {r.error}")
            break


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("long_trajectories", "scenario_suite",
                                               "point_queries"))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--held-out", action="store_true",
                        help=f"use the held-out seed {HELD_OUT_SEED}")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for the full result and span files")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"),
                        help="compare two directories of saved results and exit")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare, ROOT / "BENCHMARK.json")
    if args.workload is None or (args.seed is None) == (not args.held_out):
        parser.error("give --workload and exactly one of --seed / --held-out")
    seed = HELD_OUT_SEED if args.held_out else args.seed
    if seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "affinelab" / "__init__.py").is_file():
        print(f"error: no affinelab sources under {SRC}", file=sys.stderr)
        return 2

    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy
    import affinelab as al
    import speed
    import tracing
    import workloads

    meta = run_metadata(numpy.__version__)
    probe = speed.SpeedProbe()
    workload, setup_times = set_up(al, workloads, args.workload, seed, probe)
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}__seed{seed}__trace{args.trace}__{int(time.time() * 1000)}"

    if args.trace == 0:
        records, rounds = measure(al, workload, probe, args.seconds, MIN_OPS)
        metrics, extra = end_to_end(records, probe, setup_times)
        units = dict(END_TO_END)
        repeat = None
    else:
        records, rounds = measure(al, workload, probe, args.seconds / 2.0)
        latencies = scaled(records, probe)
        units = per_layer_units(tracing.LAYERS)
        metrics, traced_records, repeat, shares = traced(
            al, workloads, tracing, args.workload, seed, rounds, sum(latencies) / rounds,
            probe, args.out / f"{stem}.spans.jsonl.gz")
        p50s = kind_p50_ms(latencies, records)
        metrics.update({metric: p50s.get(kind, 0.0) for kind, metric in QUERY_P50.items()})
        records = records + traced_records
        extra = {"layer_share": shares}
        metrics = {key: metrics[key] for key in units}
    extra["setup_times"] = setup_times
    extra["calibration_loop_median_s"] = statistics.median(probe.durations)

    items = sum(r.items for r in records)
    failed = sum(r.failed for r in records)
    correct = failed == 0 and repeat is not False
    print(f"meta: schema {meta['schema']}  commit {meta['commit'][:12]}  python {meta['python']}  "
          f"numpy {meta['numpy']}  nproc {meta['nproc']}  loadavg {meta['loadavg_at_start']}")
    print_summary(args.workload, seed, args.trace, records, rounds, metrics, units, extra)
    if repeat is False:
        print("  per-round counts differ between rounds: the counters are not deterministic")
    result = {"correct": correct, "attempted": items, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    saved = dict(result, workload=args.workload, seed=seed, trace=args.trace,
                 seconds=args.seconds, rounds=rounds, ops=len(records),
                 failed_frac=failed / items, counts_repeat=repeat, meta=meta, extra=extra,
                 errors=sorted({r.error for r in records if r.error})[:20])
    (args.out / f"{stem}.json").write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
