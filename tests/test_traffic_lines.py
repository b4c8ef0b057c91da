"""`tools/traffic_lines.py`: its driver traces calls of the shipped traffic and
prints the report of `tools/unrun_lines.py`, one line per unrun line, one count
per module and the total."""
import importlib.util
import re
from functools import partial
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "traffic_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("traffic_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_traffic_driver_reports_the_lines_a_slice_never_ran(capsys):
    tool = _tool()
    unrun_lines = tool.unrun_lines
    claims = tool.SCENARIOS / "paper_claims.json"
    ran = tool.run([partial(tool.cli, "list"), partial(tool.cli, "run", claims, "--seed", "0")])
    assert capsys.readouterr().out == ""  # the traffic's own output is discarded
    unrun_lines.report(ran)
    lines = capsys.readouterr().out.splitlines()

    modules = sorted(unrun_lines.PKG.glob("*.py"))
    executable = {p.name: unrun_lines.executable_lines(p) for p in modules}
    k = len(modules)
    listed, counts, total = lines[:-k - 1], lines[-k - 1:-1], lines[-1]
    unrun = {name: [] for name in executable}
    for line in listed:
        name, number = re.match(r"src/affinelab/(\w+\.py):(\d+) ", line).groups()
        assert int(number) in executable[name]
        unrun[name].append(int(number))
    assert counts == [f"unrun {name} {len(unrun[name])} of {len(executable[name])}"
                      for name in sorted(executable)]
    n_unrun, n_all = sum(map(len, unrun.values())), sum(map(len, executable.values()))
    assert total == f"unrun total {n_unrun} of {n_all}"
    # the slice ran the CLI, the harness and a scenario's geodesics; the modules'
    # top-level lines ran at import, before the trace, and count as unrun here
    for name in ("cli.py", "harness.py", "geodesics.py"):
        assert 0 < len(unrun[name]) < len(executable[name])
