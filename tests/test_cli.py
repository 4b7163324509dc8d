import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from commexp import cli

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def payload_without_clock(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.lstrip().startswith('"wall_clock_seconds"'))


class TestDefaultArguments:
    @pytest.mark.parametrize("argv", [
        ("verify", "--builtin", "real2d"),
        ("families", "real2d"),
        ("families", "iii2ii"),
    ])
    def test_defaults_reproduce_their_claim(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["claim"]["reproduced"] is True

    def test_real2d_default_is_admissible_with_matching_parity(self, capsys):
        _, out, _ = run(capsys, "families", "real2d")
        inputs = json.loads(out)["inputs"]
        lam, mu, nu = inputs["lam"], inputs["mu"], inputs["nu"]
        assert nu * nu not in ((lam + mu) ** 2, (lam - mu) ** 2)
        assert (nu - lam - mu) % 2 == 0

    def test_each_family_has_its_own_m_default(self, capsys):
        _, out, _ = run(capsys, "families", "iii2")
        assert json.loads(out)["inputs"]["m"] == [1, 2, 3]
        _, out, _ = run(capsys, "families", "iii2ii")
        assert json.loads(out)["inputs"]["m"] == 1

    def test_dim2case1_defaults_unchanged(self, capsys):
        code, out, _ = run(capsys, "families", "dim2case1")
        inputs = json.loads(out)["inputs"]
        assert code == 0 and (inputs["lam"], inputs["mu"]) == (1, 1)


class TestSearchExitCodes:
    @pytest.mark.parametrize("argv", [
        ("search", "iii4", "--box", "3", "--n", "2"),
        ("search", "a1-discriminant", "--m", "1", "2", "--n", "3", "4", "--nmax", "100"),
        ("search", "iii2ii-discriminant", "--m", "2", "--products", "1", "1/2", "3",
         "--nmax", "100"),
    ])
    def test_exit_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["claim"]["reproduced"] is True

    @pytest.mark.parametrize("argv", [
        ("search", "iii4", "--box", "1"),
        ("search", "iii4", "--n", "1", "2"),
        ("search", "iii4", "--box", "3", "--workers", "2"),
    ])
    def test_exit_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_identity_control_is_deterministic(self, capsys):
        argv = ("search", "iii4", "--box", "2", "--n", "1")
        code, first, _ = run(capsys, *argv)
        assert code == 0
        report = json.loads(first)
        assert report["claim"]["reproduced"] is True
        assert report["payload"]["tuples_scanned"] == 1632
        assert len(report["payload"]["survivors"]) == 6080
        code, second, _ = run(capsys, *argv)
        assert code == 0
        assert payload_without_clock(first) == payload_without_clock(second)

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        ok = subprocess.run([sys.executable, "-m", "commexp.cli", "search", "iii4",
                             "--box", "3", "--n", "2"], capture_output=True, text=True,
                            env=env)
        assert ok.returncode == 0
        assert json.loads(ok.stdout)["payload"]["prune_reasons"] == {
            "eq23_eq31_sum_obstruction": 20360}
