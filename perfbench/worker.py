"""One measured benchmark process.

``run.py`` starts this file in a fresh interpreter, so set-up time covers
interpreter start, ``import commexp`` and input generation.  Modes:

* ``setup``: build the inputs, report the set-up time and exit;
* ``run``: build the inputs, run whole cycles of the workload's operations
  for about ``--seconds`` seconds, judge every output, report end-to-end
  figures;
* ``trace``: run the same cycles untraced and then traced, report
  per-layer figures and write the spans under ``perfbench/results``.

The loop is closed: one caller, and each operation starts when the previous
one has returned.  Only the operation itself is timed; summarising and
judging its output happen outside the timed section.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from speed import SpeedTrack  # noqa: E402
from tracer import Tracer  # noqa: E402

# interpreter starts timed per figure (median) in the traced cli run
START_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 120


def latency_figures(latencies: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_index = max(0, n - 11)
    return {
        "samples": n,
        "op_p50_ms": statistics.median(ordered) * 1e3,
        "op_tail_ms": ordered[tail_index] * 1e3,
        "op_tail_percentile": 100.0 * (tail_index + 1) / n,
        "samples_beyond_tail": n - tail_index - 1,
    }


def peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# timed cycles


def run_cycles(ops, call, summarize, seconds: float, records: list, *,
               track: SpeedTrack | None = None, tracer: Tracer | None = None,
               cycles: int | None = None) -> tuple[int, float]:
    """Run whole cycles of ``ops``; return the cycle count and summed op time.

    With ``cycles`` unset, cycles run until one more would overshoot
    ``seconds`` by more than half a cycle.  Each record is (op index,
    seconds, summary of the output or the error text, start, end).
    """
    def one_cycle() -> float:
        busy = 0.0
        for i, op in enumerate(ops):
            if track is not None:
                track.maybe_sample()
            if tracer is not None:
                tracer.op = i
            outcome = out = None
            start = time.perf_counter()
            try:
                out = call(op)
            except Exception as exc:  # a raising operation is a failed one
                outcome = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            busy += end - start
            if outcome is None:
                try:
                    outcome = summarize(i, out)
                except Exception as exc:  # an output of the wrong shape fails the op
                    outcome = f"unreadable output: {type(exc).__name__}: {exc}"
            records.append((i, end - start, outcome, start, end))
            out = None  # release the output before the next op, so peak memory is one op's
        return busy

    def gc_paused_cycle() -> float:
        # as timeit does, keep the cyclic collector out of the timed ops and
        # collect between cycles instead
        gc.disable()
        try:
            return one_cycle()
        finally:
            gc.enable()
            gc.collect()

    busy, done = gc_paused_cycle(), 1
    while (done < cycles) if cycles else (busy + busy / done / 2 < seconds):
        busy += gc_paused_cycle()
        done += 1
    if track is not None:
        track.sample()
    return done, busy


def scaled_latencies(records: list, track: SpeedTrack) -> list[float]:
    return [elapsed * track.scale(start, end) for _, elapsed, _, start, end in records]


def typical_latencies(ops: list, records: list, latencies: list[float]) -> list[float]:
    """Each sample's latency replaced by the median over the run's executions
    of the same operation (the same object in ``ops``, so the same inputs).

    A stall of the shared VM delays one execution, not its repeats, so the
    percentiles taken from these values follow the cost of the operations
    rather than the host's scheduling.
    """
    by_op: dict[int, list[float]] = {}
    for record, latency in zip(records, latencies):
        by_op.setdefault(id(ops[record[0]]), []).append(latency)
    typical = {key: statistics.median(values) for key, values in by_op.items()}
    return [typical[id(ops[record[0]])] for record in records]


def end_to_end(ops: list, records: list, track: SpeedTrack, busy: float) -> tuple[dict, dict]:
    """Latency and throughput metrics, scaled to the reference speed."""
    scaled = scaled_latencies(records, track)
    figures = latency_figures(typical_latencies(ops, records, scaled))
    raw = latency_figures(typical_latencies(ops, records, [r[1] for r in records]))
    metrics = {"ops_per_s": len(scaled) / sum(scaled),
               "op_p50_ms": figures.pop("op_p50_ms"), "op_tail_ms": figures.pop("op_tail_ms")}
    figures["unscaled"] = {"ops_per_s": len(records) / busy, "op_p50_ms": raw["op_p50_ms"],
                           "op_tail_ms": raw["op_tail_ms"]}
    figures["speed_probe_ms"] = {"median": statistics.median(track.durations) * 1e3,
                                 "min": min(track.durations) * 1e3,
                                 "max": max(track.durations) * 1e3,
                                 "samples": len(track.durations)}
    return metrics, figures


def judge_records(wl, records: list) -> dict:
    """Count failures; a failed op raised or disagreed with its oracle."""
    verdicts: dict = {}
    failures: dict[str, str] = {}
    crosschecked = wl.crosscheck()
    failed = 0
    for i, _, summary, _, _ in records:
        op = wl.ops[i]
        if isinstance(summary, str):
            reason = summary
        else:
            cache_key = (i, summary)
            if cache_key not in verdicts:
                verdicts[cache_key] = wl.judge(i, summary)
            reason = verdicts[cache_key] or crosschecked.get(op.key)
        if reason:
            failed += 1
            failures.setdefault(op.key, reason)
    return {"attempted": len(records), "failed": failed, "failures": failures,
            "known_defect_failures": {}}


def run_measured(ops, call, summarize, judge, rss_of, seconds: float, detail: dict,
                 cycles: int | None = None) -> dict:
    """End-to-end figures from whole cycles of ``ops``, speed-scaled."""
    records: list = []
    track = SpeedTrack()
    cycles, busy = run_cycles(ops, call, summarize, seconds, records, track=track, cycles=cycles)
    rss = peak_rss_mb(rss_of)
    result = judge(records)
    result["metrics"], figures = end_to_end(ops, records, track, busy)
    result["metrics"]["peak_rss_mb"] = rss
    result["detail"] = {"cycles": cycles, "ops_per_cycle": len(ops), "timed_unscaled_s": busy,
                        "latency": figures, **detail}
    return result


def run_traced(ops, call, summarize, judge, tracer: Tracer, seconds: float,
               cli_figures: dict, detail: dict, cycles: int | None = None) -> dict:
    """The same cycles untraced, then traced: per-layer figures and overhead."""
    records: list = []
    track = SpeedTrack()
    cycles, _ = run_cycles(ops, call, summarize, seconds, records, track=track, cycles=cycles)
    untraced_ops = len(records)
    tracer.install()
    tracer.phase, tracer.active = "ops", True
    try:
        run_cycles(ops, call, summarize, 0, records, track=track, tracer=tracer, cycles=cycles)
    finally:
        tracer.active = False
        tracer.uninstall()
    scaled = scaled_latencies(records, track)
    overhead = sum(scaled[untraced_ops:]) / sum(scaled[:untraced_ops])
    result = judge(records)
    result["metrics"] = layer_metrics(tracer, cycles, overhead, cli_figures)
    result["detail"] = {"cycles": cycles, "exceptions": dict(tracer.exceptions), **detail}
    result["spans"] = tracer
    return result


def call_op(op):
    return op.call()


def inprocess(args, t0: float) -> dict:
    import commexp  # noqa: F401  (set-up cost: the package and numpy)

    tracer = Tracer()
    if args.mode == "trace":  # count the calls that input generation makes
        tracer.install()
        tracer.active = True
    wl = workloads.build(args.workload, args.seed)
    tracer.active = False
    tracer.uninstall()
    setup_s = time.monotonic() - t0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    judge = functools.partial(judge_records, wl)
    if args.mode == "run":
        result = run_measured(wl.ops, call_op, wl.summarize, judge, resource.RUSAGE_SELF,
                              args.seconds, {"worker_setup_unscaled_s": setup_s, **wl.details})
        probe = wl.defect_probe()  # after peak memory is taken, outside the timed cycles
        if probe:
            result["detail"]["known_defect_probe"] = probe
        return result
    return run_traced(wl.ops, call_op, wl.summarize, judge, tracer, args.seconds / 2, {},
                      wl.details)


# ---------------------------------------------------------------------------
# per-layer figures


SPAN_METRICS = {
    "relations.relation_report": ("calls", "self_ms"),
    "relations.check_relation_star": ("calls", "self_ms"),
    "expmkit.expm": ("calls", "self_ms", "us_per_call"),
    "expmkit.expm_affine": ("calls",),
    "numkernel.eigen_decompose.vectors": ("calls", "self_ms"),
    "numkernel.eigen_decompose.novectors": ("calls", "self_ms"),
    "numkernel.char_poly": ("calls", "self_ms"),
    "simtrig.sim_triangularizable": ("calls", "self_ms"),
    "uset.solve_u": ("calls", "self_ms"),
    "families.build": ("calls", "self_ms"),
    "families.case3_III4_residuals": ("calls",),
    "intsearch.grobner_replacement_search": ("calls", "self_ms"),
    "intsearch.scan": ("calls", "self_ms"),
    "cli.main": ("self_ms",),
}


def layer_metrics(tracer: Tracer, cycles: int, overhead: float, cli_figures: dict) -> dict:
    """Per-layer figures for one cycle of operations plus the set-up once."""
    table = tracer.per_name()

    def span(name, column):
        setup = table.get(("setup", name), [0, 0.0, 0.0])[column]
        return setup + table.get(("ops", name), [0, 0.0, 0.0])[column] / cycles

    def count(key):
        return tracer.counts[("setup", key)] + tracer.counts[("ops", key)] / cycles

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, kinds in SPAN_METRICS.items():
        for kind in kinds:
            if kind == "calls":
                out[f"{name}.calls"] = span(name, 0)
            elif kind == "self_ms":
                out[f"{name}.self_ms"] = span(name, 2) * 1e3
            else:
                out[f"{name}.us_per_call"] = ratio(span(name, 1), span(name, 0)) * 1e6
    expm_calls = out["expmkit.expm.calls"]
    eigen_calls = (out["numkernel.eigen_decompose.vectors.calls"]
                   + out["numkernel.eigen_decompose.novectors.calls"])
    survivors = count("intsearch.survivors")
    out.update({
        "relations.expm_per_verdict": ratio(count("relations.expm_calls"),
                                            count("relations.integer_t_verdicts")),
        "numkernel.eigen_per_expm": ratio(eigen_calls, expm_calls),
        "intsearch.tuples_scanned": count("intsearch.tuples_scanned"),
        "intsearch.scaling_candidates_tested": count("intsearch.scaling_candidates_tested"),
        "intsearch.survivors": survivors,
        "intsearch.survivor_ratio": ratio(survivors, count("intsearch.scaling_candidates_tested")),
        "intsearch.scan_points": count("intsearch.scan_points"),
        "cli.interp_ms": cli_figures.get("interp_ms", 0.0),
        "cli.import_ms": cli_figures.get("import_ms", 0.0),
        "cli.emit_report.ms": span("cli.emit_report", 1) * 1e3,
        "trace.overhead_ratio": overhead,
    })
    return out


# ---------------------------------------------------------------------------
# cli


# each cli command runs this many times in a row, so its reports can be
# compared; three also makes one cycle fill a 25 s run
CLI_REPEATS = 3
# the cli workload runs one cycle per this many seconds asked for, whatever
# the machine's speed, so every run attempts the same commands: the count of
# failed commands (the known defects) and the tail percentile stay fixed
CLI_CYCLE_S = 25


def cli_cycles(seconds: float) -> int:
    return max(1, round(seconds / CLI_CYCLE_S))


def cli_ops(seed: int) -> list:
    return [cmd for cmd in workloads.cli_commands(random.Random(seed)) for _ in range(CLI_REPEATS)]


def keep(i, outcome):
    return outcome


def judge_cli_records(ops: list, records: list) -> dict:
    """Exit code, claim and verdict oracle per command; each repeat of a
    command must print the same report as its first run, wall clock aside."""
    failed = 0
    failures: dict[str, str] = {}
    defects: dict[str, str] = {}
    first = None
    for i, _, outcome, _, _ in records:
        cmd = ops[i]
        if isinstance(outcome, str):
            reason, stdout = outcome, ""
        else:
            code, stdout = outcome
            reason = workloads.judge_cli(cmd, code, stdout)
        if i % CLI_REPEATS == 0:
            first = workloads.strip_wall_clock(stdout)
        elif reason is None and workloads.strip_wall_clock(stdout) != first:
            reason = "report differs from the first run of the same command"
        if reason:
            failed += 1
            label = " ".join(cmd.argv)
            (defects if cmd.known_defect else failures).setdefault(label, reason)
    return {"attempted": len(records), "failed": failed, "failures": failures,
            "known_defect_failures": defects}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def subprocess_call(cmd) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "commexp.cli", *cmd.argv], cwd=ROOT, env=cli_env(),
        capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout


def median_wall_ms(argv: list[str]) -> float:
    times = []
    for _ in range(START_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, *argv], cwd=ROOT, env=cli_env(), check=True,
                       capture_output=True, timeout=SUBPROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cli_workload(args, t0: float) -> dict:
    ops = cli_ops(args.seed)
    setup_s = time.monotonic() - t0
    if args.mode == "setup":
        return {"setup_s": setup_s}
    judge = functools.partial(judge_cli_records, ops)
    if args.mode == "run":
        return run_measured(ops, subprocess_call, keep, judge, resource.RUSAGE_CHILDREN,
                            args.seconds, {"worker_setup_unscaled_s": setup_s},
                            cycles=cli_cycles(args.seconds))

    interp = median_wall_ms(["-c", "pass"])
    figures = {"interp_ms": interp,
               "import_ms": median_wall_ms(["-c", "import commexp.cli"]) - interp}
    from commexp import cli

    def in_process(cmd) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(cmd.argv))
        return code, out.getvalue()

    # one unrecorded cycle first: the first in-process commands load
    # jsonschema and the report schemas, which would inflate the untraced
    # cycle that trace.overhead_ratio divides by
    run_cycles(ops, in_process, keep, 0, [], cycles=1)
    return run_traced(ops, in_process, keep, judge, Tracer(), args.seconds, figures, {},
                      cycles=cli_cycles(args.seconds))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() in the parent just before this process started")
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    runner = cli_workload if args.workload == "cli" else inprocess
    result = runner(args, args.t0)
    tracer = result.pop("spans", None)
    if tracer is not None and args.spans_out:
        with open(args.spans_out, "w") as fp:
            json.dump(tracer.dump(), fp)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
