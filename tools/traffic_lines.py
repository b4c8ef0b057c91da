"""Print the lines of `src/affinelab` that the shipped traffic never executes.

    python tools/traffic_lines.py      (from the repository root)

The shipped traffic is what runs outside the tests: every file in
`scenarios/` at rng_seed 0, 1 and its own (the rows of `tools/dump_rows.py`),
its `--probes` and `--reach` tables, each demo in `demos/`, `affinelab run
--out` on every scenario file, `affinelab list`, `affinelab dump` of a
geodesic, a flow and a horizontal flow, and one round of each benchmark
workload of `perfbench/workloads.py` at seed 1.  It runs in this process,
its output discarded, under the line tracer of `tools/unrun_lines.py`, and
the report is the one that tool prints:

    src/affinelab/FILE:LINE SOURCE   one line per executable line that never ran
    unrun FILE N of M                one line per module
    unrun total N of M

A line the traffic never runs is reached only by tests, by a raise no
shipped input triggers, or by nothing.  The whole traffic takes a few
minutes traced.
"""
import os
import runpy
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import dump_rows  # noqa: E402
import unrun_lines  # noqa: E402

ROOT = unrun_lines.ROOT
SCENARIOS = ROOT / "scenarios"
WORKLOADS = ("long_trajectories", "scenario_suite", "point_queries")


def cli(*args) -> None:
    from affinelab.cli import main

    main([str(a) for a in args])


class _Unsampled:
    """A speed probe that never samples: a workload round asks it only when to."""

    spent = 0.0

    def maybe(self):
        pass


def workload_round(name: str) -> None:
    """One round of benchmark workload `name` at seed 1 on a fresh catalog."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    import affinelab

    workload = workloads.build(name, affinelab, affinelab.Catalog(), 1, ROOT)
    workload.warm_up()
    workload.run_round(_Unsampled())


def traffic(out: Path) -> list:
    """A call per piece of the shipped traffic; the dumps write into `out`."""
    steps = [lambda: list(dump_rows.rows(SCENARIOS)), lambda: list(dump_rows.probe_rows()),
             lambda: list(dump_rows.reach_rows())]
    steps += [partial(runpy.run_path, str(p), run_name="__main__")
              for p in sorted((ROOT / "demos").glob("*.py"))]
    steps += [partial(cli, "run", p, "--out", out / "report.json")
              for p in sorted(SCENARIOS.glob("*.json"))]
    steps += [partial(cli, "list"),
              partial(cli, "dump", "geodesic", "--manifold", "sphere", "--connection", "round",
                      "--chart", "a", "--point", "0.1,0.2", "--velocity", "0,1", "--t0", "-1",
                      "--t1", "1", "--step", "0.01", "--out", out / "geodesic.csv"),
              partial(cli, "dump", "flow", "--manifold", "torus", "--field", "t_trans_x",
                      "--chart", "t00", "--point", "0.1,0.2", "--t1", "1", "--step", "0.01",
                      "--out", out / "flow.csv"),
              partial(cli, "dump", "horizontal", "--manifold", "sphere", "--connection", "round",
                      "--chart", "a", "--point", "0.1,0.2", "--lam", "1,0", "--t1", "1",
                      "--step", "0.01", "--out", out / "horizontal.csv")]
    steps += [partial(workload_round, name) for name in WORKLOADS]
    return steps


def run(steps) -> set:
    """(file name, line) of every `src/affinelab` line the calls `steps` ran,
    their printed output discarded."""
    def all_steps():
        with open(os.devnull, "w") as null, redirect_stdout(null), redirect_stderr(null):
            for call in steps:
                call()

    return unrun_lines.traced(all_steps)


def main() -> int:
    with tempfile.TemporaryDirectory() as out:
        unrun_lines.report(run(traffic(Path(out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
