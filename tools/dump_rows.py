"""Print every report row of every shipped scenario, for comparing two trees.

For each file in a scenarios directory (default: `scenarios/`), run at
rng_seed 0, 1 and the file's own seed, one line per check row:

    file seed name status samples error float.hex(worst)

`worst` is printed with `float.hex`, so two trees agree on a line only if
their residuals are bit-identical.  Timings are left out.  Compare a
change with its parent by running this script in each tree and `cmp`-ing
the outputs:

    PYTHONPATH=src python tools/dump_rows.py > rows.txt

With `--against PARENT`, a dump written by the parent tree, print only
the rows that differ from it, each with both `worst` values and the
relative change; the rows compared are this tree's, or those of a dump
file given in place of the scenarios directory:

    PYTHONPATH=src python tools/dump_rows.py --against parent_rows.txt
    python tools/dump_rows.py rows.txt --against parent_rows.txt

With `--probes`, print instead one line per row of seeded horizon-100
`completeness_probe` blocks on the plane, sphere, torus and disk (each
seed forward and backward), built from the public API:

    manifold seed direction status float.hex(t_reached) end_chart end_state

`end_state` is the end position and velocity, each entry `float.hex`,
comma-joined; compare two trees' outputs with `cmp`:

    PYTHONPATH=src python tools/dump_rows.py --probes > probes.txt
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

# (manifold, connection, start chart, start box half-width, step) per probe block
PROBES = (("plane", "flat", "cart", 1.0, 0.5),
          ("sphere", "round", "a", 1.2, 0.1),
          ("torus", "flat", "t00", 0.28, 0.05),
          ("disk", "flat", "disk", 0.5, 0.01))
PROBE_SEED, PROBE_SEEDS, PROBE_HORIZON = 1, 8, 100.0


def rows(scenario_dir: Path):
    from affinelab.catalog import default_catalog
    from affinelab.harness import load_scenario, run_suite

    catalog = default_catalog()
    for path in sorted(scenario_dir.glob("*.json")):
        scenario = load_scenario(str(path), catalog)
        for seed in sorted({0, 1, scenario.rng_seed}):
            scenario.rng_seed = seed
            for c in run_suite(scenario, catalog).checks:
                worst = "None" if c.worst is None else float.hex(c.worst)
                yield f"{path.name} {seed} {c.name} {c.status} {c.samples} {c.error!r} {worst}"


def probe_rows():
    """One line per row of each `PROBES` block: PROBE_SEEDS geodesics from
    starts drawn with PROBE_SEED in the block's chart, to +- PROBE_HORIZON."""
    import numpy as np

    import affinelab as al

    catalog = al.default_catalog()
    rng = np.random.default_rng(PROBE_SEED)
    for manifold, connection, chart, half, step in PROBES:
        xs = rng.uniform(-half, half, size=(PROBE_SEEDS, 2))
        vs = rng.normal(size=(PROBE_SEEDS, 2))
        report = al.completeness_probe(catalog.connection(manifold, connection),
                                       [al.Tangent(al.Point(chart, x), v) for x, v in zip(xs, vs)],
                                       PROBE_HORIZON, al.IntegratorConfig(step=step))
        for i, row in enumerate(report.rows):
            for sign, status, t, end in (("+", row.status_forward, row.t_forward, row.end_forward),
                                         ("-", row.status_backward, row.t_backward, row.end_backward)):
                state = ",".join(float.hex(float(u)) for u in (*end.base.coords, *end.vec))
                yield f"{manifold} {i} {sign} {status} {float.hex(float(t))} {end.base.chart} {state}"


def _keyed(lines) -> dict:
    """Row line by (file, seed, name, occurrence of that name in its run)."""
    out, seen = {}, {}
    for line in lines:
        head = tuple(line.split(" ", 3)[:3])
        seen[head] = seen.get(head, -1) + 1
        out[(*head, seen[head])] = line
    return out


def _relative(a: str, b: str) -> str:
    """(b - a) / |a| of two `float.hex` worst values, "n/a" if either is None."""
    if "None" in (a, b):
        return "n/a"
    x, y = float.fromhex(a), float.fromhex(b)
    return f"{(y - x) / abs(x):+.3e}" if x else "0" if y == x else "inf"


def differences(parent_lines, lines):
    """One line per row that differs between the two dumps, in the order of
    `lines`, then the rows only the parent has: this dump's line, the
    parent's `worst` (its whole row after the name, if more differs) and
    the relative change of `worst`."""
    old, new = _keyed(parent_lines), _keyed(lines)
    for key, line in new.items():
        if key not in old:
            yield f"only here: {line}"
        elif old[key] != line:
            (a_rest, a), (b_rest, b) = old[key].rsplit(" ", 1), line.rsplit(" ", 1)
            parent = a if a_rest == b_rest else old[key].split(" ", 3)[3]
            yield f"{line} (parent {parent}, relative change {_relative(a, b)})"
    for key, line in old.items():
        if key not in new:
            yield f"only in parent: {line}"


def _read(path: Path) -> list:
    return [line for line in path.read_text().splitlines() if line.strip()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("source", nargs="?", type=Path, default=Path("scenarios"),
                        help="scenarios directory, or with --against a dump file")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="a parent dump: print only the rows that differ from it")
    parser.add_argument("--probes", action="store_true",
                        help="print the rows of the seeded completeness-probe blocks instead")
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    if args.probes:
        if args.against is not None:
            parser.error("--probes prints a dump to compare with cmp; it takes no --against")
        for line in probe_rows():
            print(line, flush=True)
        return 0
    if args.against is None:
        for line in rows(args.source):
            print(line, flush=True)
        return 0
    lines = _read(args.source) if args.source.is_file() else rows(args.source)
    for line in differences(_read(args.against), list(lines)):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
