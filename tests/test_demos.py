"""Smoke tests: every demo script runs to completion on the public API."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_exits_zero(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path), timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_uses_only_public_names(demo):
    # private names: `from affinelab.x import _y`, `affinelab.x._y`, `affinelab._x`
    private = []
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("affinelab"):
            private += [f"{node.module}.{a.name}" for a in node.names
                        if a.name.startswith("_") or "._" in node.module]
        elif isinstance(node, (ast.Import, ast.Attribute)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [ast.unparse(node)])
            private += [n for n in names if n.startswith("affinelab.") and "._" in n]
    assert not private, f"{demo.name} uses private names {private}"
