"""Deterministic counters of the traced benchmark, pinned on tiny inputs.

Run from the repository root:

    python3 -m pytest perfbench/test_counters.py -q
"""
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import affinelab as al  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_counts(run):
    """Counts recorded while run(catalog) executes on a fresh traced catalog."""
    catalog = al.Catalog()
    tracer = tracing.Tracer()
    tracer.install(al, catalog)
    try:
        tracer.reset()
        run(catalog)
    finally:
        tracer.uninstall()
    return tracer.counts


def flat_translation(catalog):
    fld = catalog.field("plane", "trans_x")
    al.integrate(fld, al.Point("cart", np.array([0.1, -0.2])), 1.0, al.IntegratorConfig(step=1e-3))


def torus_wrap(catalog):
    fld = catalog.field("torus", "t_trans_x")
    al.integrate(fld, al.Point("t00", np.zeros(2)), 2.0, al.IntegratorConfig(step=1e-2))


def disk_exit(catalog):
    conn = catalog.connection("disk", "flat")
    seed = al.Tangent(al.Point("disk", np.array([0.2, 0.1])), np.array([0.7, -0.4]))
    al.completeness_probe(conn, [seed], 100.0, al.IntegratorConfig(step=1e-2))


def test_flat_translation_counts_are_exact():
    counts = traced_counts(flat_translation)
    assert counts["flows.calls"] == 1
    assert counts["flows.rk4_steps"] == 1000
    assert counts["flows.field_evals"] == 4000
    assert counts["atlas.hop_checks"] == 0
    assert counts["atlas.hops"] == 0
    assert counts["numdiff.fd_calls"] == 0


def test_torus_wrap_hops_once_per_half_period():
    counts = traced_counts(torus_wrap)
    assert counts["flows.rk4_steps"] == 200
    assert counts["flows.field_evals"] == 800
    # the four charts are centred half a period apart, so x: 0 -> 2 hops four times
    assert counts["atlas.hops"] == 4
    assert counts["atlas.hop_checks"] == 4


def test_steps_of_a_stopped_trajectory_match_field_evaluations():
    counts = traced_counts(disk_exit)
    # the spray evaluates B once per RK4 stage, including the step that left the disk
    assert counts["connection.B_evals"] == 4 * counts["flows.rk4_steps"]
    assert counts["geodesics.probe_status.left_atlas"] == 2


def test_counts_repeat_across_traced_runs():
    def first_queries(catalog):
        stream = workloads.PointQueries(al, catalog, seed=3)
        stream.ops = stream.ops[:14]
        stream.run_round(speed.SpeedProbe())

    first, second = traced_counts(first_queries), traced_counts(first_queries)
    assert first == second
    assert first["flows.rk4_steps"] > 0


def test_uninstall_restores_the_library():
    original = al.geodesics.exp_map
    traced_counts(flat_translation)
    assert al.geodesics.exp_map is original
    assert al.exp_map is original
    assert al.flows._run is al.geodesics._run
