"""The benchmark's in-process workloads still build and pass their own oracles.

``perfbench/`` is outside ``testpaths`` and is not a package, so the suite
would not see a change to ``commexp`` that removes or breaks a name the
benchmark calls.  Each test builds one workload at seed 1 and judges a
sample of its operations, untimed, the way the benchmark's worker does.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def workloads():
    pytest.importorskip("scipy")  # the oracles of the random pairs
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _wrong(wl, indices) -> dict:
    """{op key: reason} for each chosen op whose output its oracle refuses."""
    wrong = {}
    for i in indices:
        op = wl.ops[i]
        reason = wl.judge(i, wl.summarize(i, op.call()))
        if reason is not None:
            wrong[op.key] = reason
    return wrong


def _first_of_each(wl, prefixes) -> list[int]:
    return [next(i for i, op in enumerate(wl.ops) if op.key.startswith(p)) for p in prefixes]


def test_tscan_every_op(workloads):
    wl = workloads.build("tscan", 1)
    assert _wrong(wl, range(len(wl.ops))) == {}


def test_sweep_one_op_of_each_kind(workloads):
    wl = workloads.build("sweep", 1)
    chosen = _first_of_each(wl, ("real2d(", "dim2case1(", "theorem2(", "random2x2#", "random3x3#"))
    assert _wrong(wl, chosen) == {}


def test_search_controls_and_both_scan_kinds(workloads):
    wl = workloads.build("search", 1)
    keys = [op.key for op in wl.ops]
    chosen = [keys.index("iii4(box=2,n=1)"), keys.index("iii4(box=3,n=2)")]
    # of the scans of each family, the first is degenerate and the second is not
    for family in ("a1", "iii2ii"):
        scans = [i for i, kind in enumerate(wl.details["ops"]) if kind == family]
        chosen += scans[:2]
    assert _wrong(wl, chosen) == {}


def test_cli_commands_build(workloads):
    commands = workloads.cli_commands(random.Random(1))
    assert commands and all(c.argv for c in commands)
