"""Every module the test suite imports is declared or ships with Python."""
import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+
ROOT = Path(__file__).resolve().parent.parent


def _declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    deps = project["dependencies"] + [d for extra in project["optional-dependencies"].values()
                                      for d in extra]
    return {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0].lower() for d in deps}


def test_test_imports_are_stdlib_local_or_declared():
    tests = ROOT / "tests"
    local = {p.stem for p in tests.glob("*.py")}
    allowed = set(sys.stdlib_module_names) | local | {"affinelab"} | _declared()
    undeclared = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            undeclared |= {f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed}
    assert not undeclared, sorted(undeclared)
