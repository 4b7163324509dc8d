"""The benchmark's workloads still build and pass their own oracles.

``perfbench/`` is outside ``testpaths`` and is not a package, so the suite
would not see a change to ``commexp`` that removes or breaks a name the
benchmark calls.  Each in-process workload is built at seed 1 and a sample
of its operations judged, untimed, the way the benchmark's worker does,
with the scipy cross-check of ``tscan`` and ``sweep``; every command of the
``cli`` workload at seeds 1-3 is run in-process.
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


@pytest.mark.parametrize("name", ["tscan", "sweep"])
def test_scipy_crosscheck_passes(workloads, name):
    # the worker counts each op that the scipy cross-check refuses as failed,
    # and the cross-check calls names of commexp that no other op calls
    assert workloads.build(name, 1).crosscheck() == {}


def test_search_controls_and_both_scan_kinds(workloads):
    wl = workloads.build("search", 1)
    keys = [op.key for op in wl.ops]
    chosen = [keys.index("iii4(box=2,n=1)"), keys.index("iii4(box=3,n=2)")]
    # of the scans of each family, the first is degenerate and the second is not
    for family in ("a1", "iii2ii"):
        scans = [i for i, kind in enumerate(wl.details["ops"]) if kind == family]
        chosen += scans[:2]
    assert _wrong(wl, chosen) == {}


def test_cli_commands_pass_their_oracle(workloads, capsys):
    # the 63 commands of the cli workload at seeds 1-3, run in-process through
    # cli.main and judged as the worker judges them, the known-defect ones
    # included, so a change to the CLI contract cannot lower the workload's
    # ok_ratio unseen
    from commexp import cli

    commands = [c for seed in (1, 2, 3) for c in workloads.cli_commands(random.Random(seed))]
    assert len(commands) == 63
    wrong = {}
    for command in commands:
        code = cli.main(list(command.argv))
        out = capsys.readouterr().out
        reason = workloads.judge_cli(command, code, out)
        if reason is not None:
            wrong[" ".join(command.argv)] = reason
    assert wrong == {}
