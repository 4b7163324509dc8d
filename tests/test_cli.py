import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from commexp import cli, families, intsearch

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


class TestClaimFailedExitsTwo:
    """Exit code 2: the computation ran but its claim was not reproduced.
    Each case breaks one expectation, check or result, and the report is
    still printed and schema-valid."""

    def assert_claim_failed(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and err == ""
        report = json.loads(out)
        cli.validate(report, cli._schema("report.schema.json"))
        assert report["claim"]["reproduced"] is False
        return report

    def test_verify_with_a_wrong_expectation(self, capsys, monkeypatch):
        expected_for = cli._expected_for_builtin

        def wrong(name, params, t_values):
            expected = expected_for(name, params, t_values)
            expected[("exp-swap", None)] = not expected[("exp-swap", None)]
            return expected

        monkeypatch.setattr(cli, "_expected_for_builtin", wrong)
        report = self.assert_claim_failed(capsys, "verify", "--builtin", "intro")
        assert report["claim"]["detail"] == "exp-swap@t=None: expected holds=False, got True"

    def test_families_with_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_eig_matches", lambda m, targets, tol=1e-8: False)
        report = self.assert_claim_failed(capsys, "families", "real2d")
        assert report["payload"]["checks"]["spectrum_g"] is False
        assert "spectrum_g=FAIL" in report["claim"]["detail"]

    def test_search_with_a_survivor(self, capsys, monkeypatch):
        search = intsearch.grobner_replacement_search

        def with_survivor(box, n):
            survivor = intsearch.Survivor((1, 2, 0, 1, 0, 1, 3, 0, 1, 3), (0,) * 6)
            return dataclasses.replace(search(box, n), survivors=(survivor,))

        monkeypatch.setattr(intsearch, "grobner_replacement_search", with_survivor)
        report = self.assert_claim_failed(capsys, "search", "iii4", "--box", "2", "--n", "2")
        assert report["claim"]["detail"] == "1 unexpected survivors"


def write_matrix(path, **changes):
    obj = cli.matrix_to_obj(families.intro_pair()[0])
    obj.update(changes)
    path.write_text(json.dumps(obj))
    return str(path)


class TestMatrixFiles:
    @pytest.mark.parametrize("changes, message", [
        ({"scale": "two"}, "SchemaError: F.json: $.scale: 'two' is not one of"),
        ({"entries": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]},
         "F.json: entries with row lengths [2, 1] inconsistent with dim 2"),
        ({"entries": [[[1.0, 0.0], [0.0, 0.0]]]},
         "F.json: entries with row lengths [2] inconsistent with dim 2"),
    ])
    def test_rejected_file_exits_one_with_one_line(self, capsys, tmp_path, changes, message):
        f = write_matrix(tmp_path / "F.json", **changes)
        g = write_matrix(tmp_path / "G.json")
        code, out, err = run(capsys, "verify", "-f", f, "-g", g)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err.replace(str(tmp_path) + os.sep, "")

    def test_round_trip_reproduces_builtin_verdicts(self, capsys, tmp_path):
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        assert run(capsys, "families", "intro", "-o", f, g)[0] == 0
        code, from_files, _ = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..6")
        assert code == 0
        code, builtin, _ = run(capsys, "verify", "--builtin", "intro", "--t", "1..6")
        assert code == 0
        from_files, builtin = json.loads(from_files), json.loads(builtin)
        assert from_files["payload"]["verdicts"] == builtin["payload"]["verdicts"]
        assert [v["t"] for v in builtin["payload"]["verdicts"]
                if v["relation"] == "sum-product"] == list(range(1, 7))


class TestNegativeValues:
    PRODUCTS = ("search", "iii2ii-discriminant", "--m", "2", "--products", "1", "1/2")

    def test_negative_rational_product(self, capsys):
        code, out, err = run(capsys, *self.PRODUCTS, "-1/2")
        assert code == 0, err
        report = json.loads(out)
        assert report["claim"]["reproduced"] is True
        assert report["claim"]["detail"].startswith("degenerate discriminant")
        code, decimal, _ = run(capsys, *self.PRODUCTS, "-0.5")
        assert code == 0
        assert report["payload"] == json.loads(decimal)["payload"]
        assert report["inputs"] == json.loads(decimal)["inputs"]

    def test_negative_ranges_still_parse(self, capsys):
        code, out, _ = run(capsys, "solve-u", "--k", "-3..3")
        assert code == 0
        assert json.loads(out)["inputs"] == {"k": "-3..3"}
        ns = cli.build_parser().parse_args(["verify", "--builtin", "intro", "--t", "-2..2"])
        assert ns.t == "-2..2"

    @pytest.mark.parametrize("argv, dest, value", [
        (("solve-u", "--k", "-2,1"), "k", "-2,1"),
        (("solve-u", "--k", "-3..-1"), "k", "-3..-1"),
        (("solve-u", "--k", "-3,-1"), "k", "-3,-1"),
        (("verify", "--t", "-5..-2"), "t", "-5..-2"),
        (("verify", "--t", "-2,-1"), "t", "-2,-1"),
        (("verify", "--t-complex", "-0.5,-0.25"), "t_complex", ["-0.5,-0.25"]),
        (("verify", "--t-complex", "-0.5,0.25", "1,-2"), "t_complex", ["-0.5,0.25", "1,-2"]),
        (("search", "iii2ii-discriminant", "--products", "1", "1/2", "-1/2"),
         "products", ["1", "1/2", "-1/2"]),
    ])
    def test_negative_values_parse(self, argv, dest, value):
        assert getattr(cli.build_parser().parse_args(list(argv)), dest) == value

    def test_negative_complex_t(self, capsys):
        code, out, err = run(capsys, "verify", "--builtin", "theorem2", "--t-complex",
                             "-0.5,0.25")
        assert code == 0, err
        report = json.loads(out)
        assert report["claim"]["reproduced"] is True
        [verdict] = report["payload"]["complex_t_verdicts"]
        assert verdict["t"] == [-0.5, 0.25] and verdict["holds"] is True


def test_importing_the_cli_leaves_jsonschema_unloaded():
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c",
                    "import commexp.cli, sys; assert 'jsonschema' not in sys.modules"],
                   check=True, env=env)
