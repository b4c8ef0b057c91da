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
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path


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
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
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
