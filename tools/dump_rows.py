"""Print every report row of every shipped scenario, for comparing two trees.

For each file in a scenarios directory (default: `scenarios/`), run at
rng_seed 0, 1 and the file's own seed, one line per check row:

    file seed name status samples error float.hex(worst)

`worst` is printed with `float.hex`, so two trees agree on a line only if
their residuals are bit-identical.  Timings are left out.  Compare a
change with its parent by running this script in each tree and `cmp`-ing
the outputs:

    PYTHONPATH=src python tools/dump_rows.py > rows.txt
"""
from __future__ import annotations

import sys
from pathlib import Path

from affinelab.catalog import default_catalog
from affinelab.harness import load_scenario, run_suite


def rows(scenario_dir: Path):
    catalog = default_catalog()
    for path in sorted(scenario_dir.glob("*.json")):
        scenario = load_scenario(str(path), catalog)
        for seed in sorted({0, 1, scenario.rng_seed}):
            scenario.rng_seed = seed
            for c in run_suite(scenario, catalog).checks:
                worst = "None" if c.worst is None else float.hex(c.worst)
                yield f"{path.name} {seed} {c.name} {c.status} {c.samples} {c.error!r} {worst}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    for line in rows(Path(argv[0] if argv else "scenarios")):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
