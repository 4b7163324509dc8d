import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_layer_benchmarks_run_untimed():
    # benchmarks/ is outside testpaths, so the suite would not see an API
    # change that breaks it; run each benchmark once, untimed
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "--benchmark-disable", "-q",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
