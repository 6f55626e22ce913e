"""Every name the benchmark's tracer wraps exists in the program.

`bench/tracing.py` skips a traced name that the program no longer has and
reports its metric as absent, so a traced benchmark run would print no
value for it. Removing or renaming such a name is a change to the
benchmark as well, and fails here first.
"""
import importlib.util
from pathlib import Path

import opqkd.cli  # noqa: F401  (imports the whole package)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists():
    tracer = _load_tracing().Tracer()
    try:
        tracer.install()
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
