"""Benchmark entry point for commexp.

    python3 perfbench/run.py --workload {tscan,sweep,search,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src``.  Each measurement runs in fresh interpreters (``worker.py``) with
one BLAS thread.  With ``--trace 0`` the last line of standard output is a
JSON object holding every end-to-end metric named in ``BENCHMARK.json``;
with ``--trace 1`` it holds every per-layer metric.  The line before it
carries provenance and details, which are also written, with the spans of a
traced run, under ``perfbench/results``.  Exit status is 0 on success and
nonzero, with no result line, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402

SOURCE = ROOT / "src" / "commexp"
RESULTS = HERE / "results"

# set-up is measured this many times per run (fresh interpreters); the
# median of the speed-scaled samples is reported
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150
# tiny d <= 3 matrices gain nothing from BLAS threads, which only add noise
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(args, mode: str, spans_out: Path | None = None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    argv += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    import numpy as np

    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": "unknown"}


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SOURCE)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "not installed"


def provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "jsonschema": version("jsonschema"),
        "blas": blas_info(),
        "blas_threads": THREAD_ENV,
        "commit": commit(),
        "source_sha256": source_digest(),
        "loop": "closed, one caller",
    }


def declared_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fp:
        bench = json.load(fp)
    return {m["name"]: m["unit"] for m in bench[kind]}


def measure(args) -> tuple[dict, dict]:
    if args.trace:
        spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        result = spawn(args, "trace", spans)
        result["detail"]["spans_file"] = str(spans.relative_to(ROOT))
        return result, declared_metrics("per_layer")
    setups, raw = [], []
    for _ in range(SETUP_SAMPLES):
        before = speed.probe()
        seconds = spawn(args, "setup")["setup_s"]
        scale = speed.REFERENCE_S / ((before + speed.probe()) / 2)
        raw.append(seconds)
        setups.append(seconds * scale)
    result = spawn(args, "run")
    ok = result["attempted"] - result["failed"]
    result["metrics"].update({"setup_s": statistics.median(setups),
                              "ok_ratio": ok / result["attempted"]})
    result["detail"]["setup_samples_s"] = {"scaled": setups, "unscaled": raw}
    return result, declared_metrics("end_to_end")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        if not (SOURCE / "__init__.py").is_file():
            raise BenchError(f"no commexp sources under {SOURCE.parent}; "
                             "run from a source checkout")
        compileall.compile_dir(str(SOURCE), quiet=1)
        RESULTS.mkdir(exist_ok=True)
        result, units = measure(args)
        missing = set(units) - set(result["metrics"])
        if missing:
            raise BenchError(f"metrics not produced: {sorted(missing)}")
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    correct = not result["failures"]
    detail = {"provenance": provenance(args), "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "failures": result["failures"],
              "known_defect_failures": result["known_defect_failures"], **result["detail"]}
    with open(RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fp:
        json.dump({"detail": detail, "metrics": result["metrics"]}, fp, indent=2)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
