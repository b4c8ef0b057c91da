"""Every library name the benchmark hooks still exists.

`perfbench/tracing.py` wraps the names in its `SPANNED` and `COUNTED`
tables, and `perfbench/speed.py` wraps `flows._run`; a deleted or renamed
name makes `perfbench/run.py --trace 1` raise KeyError when the tracer is
installed.  The tracer module is loaded from its file, since `perfbench`
is not a package.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_hooks_exists():
    tracing = _load_tracing()
    hooked = [(m, dotted) for table in (tracing.SPANNED, tracing.COUNTED)
              for m, names in table.items() for dotted in names]
    assert ("catalog", "sphere_rotation") in hooked
    missing = []
    for module_name, dotted in hooked + [("flows", "_run")]:
        module = importlib.import_module(f"affinelab.{module_name}")
        try:
            owner, attr = tracing._lookup(module, dotted)  # as Tracer.install resolves them
            owner.__dict__[attr]
        except (AttributeError, KeyError):
            missing.append(f"affinelab.{module_name}.{dotted}")
    assert not missing, missing
