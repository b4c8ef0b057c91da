"""Print the lines of `src/affinelab` that a pytest run never executes.

    python tools/unrun_lines.py [PYTEST_ARGS...]      (from the repository root)

Runs pytest in this process (default: the tier-1 arguments of ROADMAP.md,
`-q --continue-on-collection-errors`) under a `sys.settrace` line tracer that
traces frames of `src/affinelab` only; the `coverage` package is not needed.
The executable lines are those the `co_lines` of each compiled module and of
every code object nested in it name.  After pytest's own output it prints

    src/affinelab/FILE:LINE SOURCE   one line per executable line that never ran
    unrun FILE N of M                one line per module
    unrun total N of M

and exits 0 whatever pytest returns.  Tier-1 draws fixed Hypothesis examples
(`tests/conftest.py`), so two runs list the same lines; the CI step that runs
this fails when `unrun total` is above the count it names.
Traced, the tier-1 suite takes about twice its untraced time.  The tracer
(`traced`) and the report (`report`) serve `tools/traffic_lines.py` too.
"""
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "affinelab"
TIER1 = ["-q", "--continue-on-collection-errors"]


def executable_lines(path: Path) -> set:
    """Line numbers the compiled module `path` and its nested code objects name."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced(run) -> set:
    """(file name, line) of every `src/affinelab` line `run()` ran.  A trace
    function already set, as under this tool's own tier-1 run, is put back."""
    prefix, ran = str(PKG), set()
    add = ran.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):  # a def line runs in its enclosing code
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PKG.parent))  # this checkout's package, not an installed one
    outer = sys.gettrace()
    sys.settrace(calls)  # the runs traced here start no threads
    try:
        run()
    finally:
        sys.settrace(outer)
    return ran


def run_traced(args) -> set:
    """(file name, line) of every `src/affinelab` line pytest `args` ran."""
    return traced(lambda: pytest.main(args))


def report(ran) -> None:
    """Print each executable `src/affinelab` line not in `ran`, then the counts."""
    total = unrun_total = 0
    counts = []
    for path in sorted(PKG.glob("*.py")):
        source = path.read_text().splitlines()
        lines = executable_lines(path)
        unrun = sorted(line for line in lines if (str(path), line) not in ran)
        for line in unrun:
            print(f"{path.relative_to(ROOT)}:{line} {source[line - 1].strip()}")
        counts.append(f"unrun {path.name} {len(unrun)} of {len(lines)}")
        total += len(lines)
        unrun_total += len(unrun)
    print("\n".join(counts))
    print(f"unrun total {unrun_total} of {total}")


def main(argv) -> int:
    report(run_traced(argv or TIER1))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
