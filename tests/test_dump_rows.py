"""`tools/dump_rows.py`: `--against` prints only the rows that differ from a
parent dump, `--probes` the rows of seeded completeness-probe blocks."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from affinelab.catalog import default_catalog

TOOL = Path(__file__).resolve().parents[1] / "tools" / "dump_rows.py"


def _tool():
    spec = importlib.util.spec_from_file_location("dump_rows", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = """\
a.json 0 roundtrip pass 100 None 0x1.0p-50
a.json 0 flow pass 10 None 0x1.8p-48
a.json 0 flow pass 10 None 0x1.0p-48
a.json 1 holonomy pass 3 None 0x0.0p+0
a.json 1 gone pass 1 None 0x1.0p-40
b.json 0 probe fail 2 'LeftAtlas: left' None
"""

CHANGED = """\
a.json 0 roundtrip pass 100 None 0x1.0p-50
a.json 0 flow pass 10 None 0x1.8p-48
a.json 0 flow pass 10 None 0x1.2p-48
a.json 1 holonomy pass 3 None 0x0.0p+0
b.json 0 probe pass 2 None 0x1.0p-30
b.json 0 new pass 4 None 0x1.0p-45
"""


def test_against_prints_only_the_rows_that_differ(tmp_path, capsys):
    parent, rows = tmp_path / "parent.txt", tmp_path / "rows.txt"
    parent.write_text(PARENT)
    rows.write_text(CHANGED)
    assert _tool().main([str(rows), "--against", str(parent)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        # the second `flow` row of its run is matched with the parent's second
        "a.json 0 flow pass 10 None 0x1.2p-48 (parent 0x1.0p-48, relative change +1.250e-01)",
        "b.json 0 probe pass 2 None 0x1.0p-30 (parent fail 2 'LeftAtlas: left' None, "
        "relative change n/a)",
        "only here: b.json 0 new pass 4 None 0x1.0p-45",
        "only in parent: a.json 1 gone pass 1 None 0x1.0p-40",
    ]


def test_identical_dumps_print_nothing(tmp_path, capsys):
    parent = tmp_path / "parent.txt"
    parent.write_text(PARENT)
    assert _tool().main([str(parent), "--against", str(parent)]) == 0
    assert capsys.readouterr().out == ""


def test_probes_print_one_line_per_probe_row(capsys):
    # every seed of every block forward and backward: the complete manifolds
    # reach the horizon, the disk's geodesics stop when they leave it, and
    # each end state reads back from its hex to the probe's own bytes
    tool = _tool()
    assert tool.main(["--probes"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(tool.PROBES) * tool.PROBE_SEEDS * 2
    horizon = float.hex(tool.PROBE_HORIZON)
    for manifold, _, _, _, _ in tool.PROBES:
        mine = [line.split(" ") for line in lines if line.startswith(manifold + " ")]
        assert len(mine) == 2 * tool.PROBE_SEEDS
        for _, seed, sign, status, t, chart, state in mine:
            assert int(seed) < tool.PROBE_SEEDS and sign in "+-"
            assert chart in default_catalog().atlas(manifold).charts
            x0, x1, v0, v1 = (float.fromhex(u) for u in state.split(","))
            if manifold == "disk":
                # stopped by the first step that left the unit disk (step 1e-2)
                assert status == "left_atlas"
                assert 1.0 <= np.hypot(x0, x1) <= 1.0 + 1e-2 * np.hypot(v0, v1)
            else:
                assert status == "ok" and t == (horizon if sign == "+" else "-" + horizon)
    # the rows come from `completeness_probe`, in its order
    first = [line for line in tool.probe_rows()][:2]
    assert first == lines[:2]


def test_probes_take_no_against(tmp_path):
    parent = tmp_path / "parent.txt"
    parent.write_text(PARENT)
    with pytest.raises(SystemExit):
        _tool().main(["--probes", "--against", str(parent)])
