"""Every benchmark workload runs one clean pass on the program as it is.

`bench/workloads.py` builds its inputs through the program's public names
and checks each operation's outputs against `bench/oracle.py`. A name or a
behaviour it relies on that the program drops shows in a benchmark run only
as failed operations; here it fails first.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import opqkd
import opqkd.cli  # noqa: F401  (the workloads call opqkd.cli.main)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load_workloads(monkeypatch):
    # bench/ goes on the path for `oracle`, and the module into sys.modules
    # while it runs, where its dataclasses look up their annotations.
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["cli-session", "attack-mc", "set-design"])
def test_workload_pass_has_no_problems(monkeypatch, tmp_path, name):
    workload = _load_workloads(monkeypatch).WORKLOADS[name]()
    workload.setup(opqkd, 1, str(tmp_path))
    result = workload.run_pass(0, lambda fn, *args: fn(*args))
    assert result.problems == []
    assert result.failed == 0
