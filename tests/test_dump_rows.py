"""`tools/dump_rows.py --against`: only the rows that differ from a parent dump."""
import importlib.util
from pathlib import Path

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
