import gc
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from commexp import cli, families, intsearch, uset
from commexp.errors import ConstraintError
from commexp.numkernel import CMat
from commexp.relations import RelationKind

from conftest import NORM_PAST_FLOAT_RANGE, admissible_real_triples

SRC = str(Path(__file__).resolve().parents[1] / "src")
# an eigenvalue whose difference from its negative has an overflowing modulus
_A = 0.75e308 * (1 + 1j)


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
        # the forms with m3 = 0 fix tr F = n1 + n2 - m1 - m2 = 6
        for form in ("a1", "a2"):
            _, out, _ = run(capsys, "families", "iii2", "--form", form)
            inputs = json.loads(out)["inputs"]
            assert (inputs["m"], inputs["l1"]) == ([1, 2, 0], 6)
        # an explicit flag still wins over the form's default
        code, out, _ = run(capsys, "families", "iii2", "--form", "a1", "--l1", "3")
        assert code == 2 and json.loads(out)["inputs"]["l1"] == 3

    def test_dim2case1_defaults_unchanged(self, capsys):
        code, out, _ = run(capsys, "families", "dim2case1")
        inputs = json.loads(out)["inputs"]
        assert code == 0 and (inputs["lam"], inputs["mu"]) == (1, 1)


class TestReal2DCommandsAgree:
    """verify --builtin real2d and families real2d read one record, so they
    reproduce their claims on the same triples: all admissible ones here,
    including the 34 whose nu lacks the parity of lambda + mu, where star
    fails at t = 1 and the square-with-parity rule predicts it."""

    TRIPLES = admissible_real_triples()

    def test_56_admissible_triples(self):
        assert len(self.TRIPLES) == 56

    @pytest.mark.parametrize("lam, mu, nu", TRIPLES)
    def test_both_commands_reproduce(self, capsys, lam, mu, nu):
        flags = ("--lambda", str(lam), "--mu", str(mu), "--nu", str(nu))
        for argv in (("verify", "--builtin", "real2d", "--t", "1..5", "--swap", *flags),
                     ("families", "real2d", *flags)):
            code, out, _ = run(capsys, *argv)
            assert code == 0, json.loads(out)["claim"]["detail"]

    @pytest.mark.parametrize("lam, mu, nu, t", [
        (1, 10, 7, 2), (2, 5, 2, 5), (4, 10, 4, 5), (5, 9, 2, 3), (7, 10, 1, 2)])
    def test_star_fails_where_the_square_polynomial_vanishes(self, capsys, lam, mu, nu, t):
        # Q(t) = 0 is a square, but tA + B is then nilpotent and non-zero
        assert families.rotation_square_polynomial(lam, mu, nu)(t) == 0
        self.test_both_commands_reproduce(capsys, lam, mu, nu)


class TestGoldenClaims:
    """Every builtin and every family reproduces its claim with default
    arguments.  For symmetric-rank1, a1, a2 and iii2ii the claim includes
    ``exp_sum_identity``: exp(2 i pi (F + G)) is a literal I, which only the
    exact snap of a 3x3 matrix gives."""

    @pytest.mark.parametrize("argv", [
        *(("verify", "--builtin", name, "--swap", "--triangularizable")
          for name in ("intro", "real2d", "theorem2", "dim2case1")),
        *(("families", name) for name in ("intro", "real2d", "theorem2", "dim2case1", "iii2ii")),
        *(("families", "iii2", "--form", form.value) for form in families.III2Form),
        # t = 0 and negative t: intro's whole star set, which ends at 299
        ("verify", "--builtin", "intro", "--t", "-294,0,1,2,3,4,5,6,299"),
    ], ids=" ".join)
    def test_exit_zero_and_reproduced(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert code == 0, report["claim"]
        assert report["claim"]["reproduced"] is True

    def test_theorem2_swapped_star_holds_only_at_zero(self, capsys):
        # t = 0 is the one t where the record's swapped-star rule predicts True
        code, out, err = run(capsys, "verify", "--builtin", "theorem2", "--swap", "--t", "0..3",
                             "--t-complex", "0.5,0.25")
        assert code == 0, err
        payload = json.loads(out)["payload"]
        holds = {(v["relation"], v["t"]): v["holds"] for v in payload["verdicts"]}
        assert [t for t in range(4) if holds["sum-product-swapped", t]] == [0]
        assert all(holds["sum-product", t] for t in range(4))
        # complex t reports star alone, with or without --swap
        assert [(v["relation"], v["t"], v["holds"]) for v in payload["complex_t_verdicts"]] == [
            ("sum-product", [0.5, 0.25], True)]


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

    @pytest.mark.parametrize("argv", [
        ("search", "a1-discriminant", "--m", "1", "8", "--n", "5", "9"),
        ("search", "iii2ii-discriminant", "--m", "2", "--products", "1", "1/2", "3"),
    ], ids=["a1", "iii2ii"])
    @pytest.mark.parametrize("nmax", ["0", "-4"])
    def test_scan_needs_a_positive_nmax(self, capsys, argv, nmax):
        code, out, err = run(capsys, *argv, "--nmax", nmax)
        assert (code, out) == (1, "")
        assert err == "error: ConstraintError: n_max must be a positive integer\n"


class TestPinnedSearchReports:
    """sha256 of each search report minus its wall_clock_seconds line.  The
    payloads hold only integers and exact rationals, so the digests do not
    depend on the machine; they pin the report bytes, survivor order and
    indentation included."""

    @pytest.mark.parametrize("argv, digest", [
        (("search", "iii4", "--box", "2", "--n", "1"),
         "7ae21edc308e80ba7c045404e22966909acec2f9fa989c6947e2b896736ad580"),
        (("search", "iii4", "--box", "2", "--n", "2"),
         "cdb9e68dc9bcc502f1770113d4c27bca2985196f46fff5efc09b2e754b6f1ab7"),
        (("search", "a1-discriminant", "--m", "1", "8", "--n", "1", "9", "--nmax", "200"),
         "e1b2380a2be182c35d5dd28b6af39976ee9efd23dcb1033a8ae945fbc47aea5f"),
        (("search", "a1-discriminant", "--m", "1", "8", "--n", "5", "9", "--nmax", "200"),
         "6c58568ed18b047b110b43ed7205ff09cf774f50ba6cbcf35a8572a7b8aff2d6"),
        (("search", "iii2ii-discriminant", "--m", "2", "--products", "0", "3/2", "5",
          "--nmax", "200"),
         "ddcdca1ed9e4d0535f2927671865b241e265ab51aac58be7f7ddaa32ec639dfc"),
    ], ids=["iii4-n1", "iii4-n2", "a1-degenerate", "a1-nondegenerate", "iii2ii-degenerate"])
    def test_report_digest(self, capsys, argv, digest):
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        assert hashlib.sha256(payload_without_clock(out).encode()).hexdigest() == digest


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

    @staticmethod
    def flip(monkeypatch, name, relation):
        # the family's record with the expectation for one relation negated
        record = families.FAMILIES[name]
        rule = record.expected[relation]
        expected = {**record.expected, relation: lambda inputs, t: not rule(inputs, t)}
        monkeypatch.setitem(families.FAMILIES, name, record._replace(expected=expected))

    def test_verify_with_a_wrong_expectation(self, capsys, monkeypatch):
        self.flip(monkeypatch, "intro", RelationKind.EXP_SWAP)
        report = self.assert_claim_failed(capsys, "verify", "--builtin", "intro")
        assert report["claim"]["detail"] == "exp-swap@t=None: expected holds=False, got True"

    @pytest.mark.parametrize("command", [("verify", "--builtin"), ("families",)], ids=" ".join)
    @pytest.mark.parametrize("name", cli.BUILTINS)
    def test_each_record_with_a_wrong_expectation(self, capsys, monkeypatch, command, name):
        self.flip(monkeypatch, name, RelationKind.COMMUTE)
        report = self.assert_claim_failed(capsys, *command, name)
        assert "commute@t=None" in report["claim"]["detail"]

    @pytest.mark.parametrize("argv", [*(("iii2", "--form", form) for form in cli.III2_FORMS),
                                      ("iii2ii",)], ids=" ".join)
    def test_each_structural_record_with_a_failed_check(self, capsys, monkeypatch, argv):
        # the records without expected verdicts, each with its first check negated
        name = argv[0]
        record = families.FAMILIES[name]

        def negated(f, g, inputs):
            checks = record.checks(f, g, inputs)
            first = next(iter(checks))
            return {**checks, first: not checks[first]}

        monkeypatch.setitem(families.FAMILIES, name, record._replace(checks=negated))
        report = self.assert_claim_failed(capsys, "families", *argv)
        first = next(iter(report["payload"]["checks"]))
        assert report["payload"]["checks"][first] is False
        assert f"{first}=FAIL" in report["claim"]["detail"]

    def test_solve_u_with_a_missed_reference_root(self, capsys, monkeypatch):
        enumerate_u = uset.enumerate_u

        def moved(k_min, k_max):
            return [r._replace(value=r.value + 1) if r.branch_hint == 1 else r
                    for r in enumerate_u(k_min, k_max)]

        monkeypatch.setattr(uset, "enumerate_u", moved)
        report = self.assert_claim_failed(capsys, "solve-u", "--k", "1..2")
        assert report["claim"]["detail"] == (
            "2 roots for 2 requested branches; branch 1 missed the reference root")

    def test_families_with_a_failed_check(self, capsys, monkeypatch):
        monkeypatch.setattr(families, "_eig_matches", lambda m, targets: False)
        report = self.assert_claim_failed(capsys, "families", "real2d")
        assert report["payload"]["checks"]["spectrum_g"] is False
        assert "spectrum_g=FAIL" in report["claim"]["detail"]

    def test_search_with_a_survivor(self, capsys, monkeypatch):
        search = intsearch.grobner_replacement_search

        def with_survivor(box, n):
            survivor = intsearch.Survivor((1, 2, 0, 1, 0, 1, 3, 0, 1, 3), (0,) * 6)
            return search(box, n)._replace(survivors=(survivor,))

        monkeypatch.setattr(intsearch, "grobner_replacement_search", with_survivor)
        report = self.assert_claim_failed(capsys, "search", "iii4", "--box", "2", "--n", "2")
        assert report["claim"]["detail"] == "1 unexpected survivors"

    def test_identity_control_with_a_lost_base_tuple(self, capsys, monkeypatch):
        search = intsearch.grobner_replacement_search

        def without_first_base(box, n):
            outcome = search(box, n)
            lost = outcome.survivors[0].params[:7]
            kept = tuple(s for s in outcome.survivors if s.params[:7] != lost)
            return outcome._replace(survivors=kept)

        monkeypatch.setattr(intsearch, "grobner_replacement_search", without_first_base)
        report = self.assert_claim_failed(capsys, "search", "iii4", "--box", "2", "--n", "1")
        assert report["claim"]["detail"] == "1631 of 1632 base tuples survive identity scaling"

    @pytest.mark.parametrize("scan, argv, first_failure, detail", [
        # non-degenerate, so squareness fails somewhere: claim that it never does
        ("discriminant_scan_A1", ("a1-discriminant", "--m", "1", "8", "--n", "5", "9"), None,
         "non-degenerate discriminant, yet square for all n <= 100"),
        # degenerate, so every n is square: claim that n = 1 is not
        ("discriminant_scan_III2ii",
         ("iii2ii-discriminant", "--m", "2", "--products", "0", "3/2", "5"), 1,
         "degenerate discriminant, yet squareness first fails at n = 1"),
    ], ids=["a1", "iii2ii"])
    def test_scan_contradicting_the_degeneracy_test(self, capsys, monkeypatch, scan, argv,
                                                    first_failure, detail):
        real = getattr(intsearch, scan)

        def contradicted(*args):
            outcome = real(*args)
            assert outcome.first_failure != first_failure
            return outcome._replace(first_failure=first_failure)

        monkeypatch.setattr(intsearch, scan, contradicted)
        report = self.assert_claim_failed(capsys, "search", *argv, "--nmax", "100")
        assert report["claim"]["detail"] == (
            "squareness pattern contradicts the degeneracy test: " + detail)


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

    def test_iii2_default_writes_exact_entries(self, capsys, tmp_path):
        # a_ii = -6, 12, -3 on the diagonal; sqrt(12) sqrt(-3) = 6i, exact as
        # |a_22 a_33| = 36 is a square; sqrt(-6) sqrt(-3) = -sqrt(18) and
        # sqrt(-6) sqrt(12) = i sqrt(72) are not
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        code, out, _ = run(capsys, "families", "iii2", "-o", f, g)
        assert code == 0
        report = json.loads(out)
        entries = report["payload"]["f"]["entries"]
        assert [entries[i][i] for i in range(3)] == [[-6.0, 0.0], [12.0, 0.0], [-3.0, 0.0]]
        assert entries[1][2] == entries[2][1] == [0.0, 6.0]
        assert entries[0][2] == entries[2][0] == [pytest.approx(-(18 ** 0.5)), 0.0]
        assert entries[0][1] == entries[1][0] == [0.0, pytest.approx(72 ** 0.5)]
        assert json.loads(Path(f).read_text())["entries"] == entries
        assert all(report["payload"]["checks"].values()) and report["claim"]["reproduced"]

    def test_defective_triangularizable_pair_from_files(self, capsys, tmp_path):
        # F is c I plus a nilpotent of rank 2 behind the basis S, so its
        # computed eigenvalues miss c by ~eps^(1/3)
        import numpy as np

        c = 1.5 + 0.5j
        s = np.array([[2, 0.5, 0.25], [0.125, 2, 0.5], [0.5, 0.25, 2]])
        sinv = np.linalg.inv(s)
        f_upper = np.array([[c, 0.75, 0.5], [0, c, 0.25], [0, 0, c]])
        g_upper = np.array([[1, 0.5, 0.25], [0, 2, 0.75], [0, 0, 3]])
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        cli.save_matrix_file(f, CMat(sinv @ f_upper @ s))
        cli.save_matrix_file(g, CMat(sinv @ g_upper @ s))
        code, out, err = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..2",
                             "--triangularizable")
        assert code == 0, err
        assert json.loads(out)["payload"]["sim_triangularizable"] is True

    @pytest.mark.parametrize("rows", [
        [[1e200, 1e200], [1e200, -1e200]],  # the spectrum overflows to inf
        [[1e160, 1e160], [0, 0]],  # finite eigenvalues, but s^2 overflows
    ], ids=["inf", "square-overflows"])
    def test_overflowing_spectrum_exits_one_with_one_line(self, capsys, tmp_path, rows):
        f = tmp_path / "F.json"
        f.write_text(json.dumps(cli.matrix_to_obj(CMat.from_rows(rows))))
        g = write_matrix(tmp_path / "G.json")
        code, out, err = run(capsys, "verify", "-f", str(f), "-g", g, "--t", "1..2")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_exponential_exits_one_with_one_line(self, capsys, tmp_path):
        # F and G commute and their spectra are finite, but e^1000 is not
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        cli.save_matrix_file(f, CMat.from_rows([[1e3, 0], [0, 0]]))
        cli.save_matrix_file(g, CMat.from_rows([[1, 0], [0, 1]]))
        code, out, err = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..2")
        assert code == 1 and out == ""
        assert err.startswith("error: ResidualOverflowError: the exp-equal residual is not finite")
        assert err.count("\n") == 1

    def test_overflowing_complex_t_exits_one_with_one_line(self, capsys, tmp_path):
        # e^801 is not finite: a complex t is judged in the report's own
        # scan, so its non-finite residual is refused as an integer t's is
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        cli.save_matrix_file(f, CMat.from_rows([[2, 0], [0, 0]]))
        cli.save_matrix_file(g, CMat.from_rows([[1, 0], [0, 1]]))
        code, out, err = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..2",
                             "--t-complex", "400")
        assert code == 1 and out == ""
        assert err.startswith("error: ResidualOverflowError: the sum-product residual at "
                              "t = (400+0j) is not finite")
        assert err.count("\n") == 1

    def test_int_t_past_the_float_range_exits_one_with_one_line(self, capsys):
        # 10^400 has no float: refused by name, as a non-finite t is
        code, out, err = run(capsys, "verify", "--builtin", "intro", "--t", f"1,{10 ** 400}")
        assert code == 1 and out == ""
        assert err == f"error: ValueError: t = {10 ** 400} is not finite\n"

    @pytest.mark.parametrize("family", ["intro", "iii2"])
    def test_overflowing_t_f_exits_one_with_one_line(self, capsys, tmp_path, family):
        # 1e308i t F overflows at d = 2 (intro) and d = 3 (iii2) alike: a
        # non-finite residual, not a refused matrix
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        assert run(capsys, "families", family, "-o", f, g)[0] == 0
        code, out, err = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..2",
                             "--t-complex", "0,1e308")
        assert code == 1 and out == ""
        assert err.startswith("error: ResidualOverflowError: the sum-product residual at "
                              "t = 1e+308j is not finite")
        assert err.count("\n") == 1

    def test_clusters_sharing_a_snapped_integer_from_files(self, capsys, tmp_path):
        # F's eigenvalues i pi +/- 3e-8 are two clusters that snap to one
        # k = 1 (see test_expmkit's test_clusters_sharing_a_snapped_integer):
        # a commuting pair whose every verdict is finite and correct
        import math

        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        cli.save_matrix_file(f, CMat.from_rows(
            [[1j * math.pi + 3e-8, 0, 0], [0, 1j * math.pi - 3e-8, 0], [0, 0, 0]]))
        cli.save_matrix_file(g, CMat.zeros(3))
        code, out, err = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..2")
        assert code == 0, err
        holds = {}
        for v in json.loads(out)["payload"]["verdicts"]:
            holds.setdefault(v["relation"], []).append(v["holds"])
        assert holds == {"commute": [True], "exp-equal": [False], "exp-swap": [True],
                         "sum-product": [True, True]}

    def test_one_by_one_pair_from_files(self, capsys, tmp_path):
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        cli.save_matrix_file(f, CMat.from_rows([[1]]))
        cli.save_matrix_file(g, CMat.from_rows([[2j]]))
        code, out, err = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..2",
                             "--triangularizable")
        assert code == 0, err
        assert json.loads(out)["payload"]["sim_triangularizable"] is True

    def test_small_non_triangularizable_pair_from_files(self, capsys, tmp_path):
        # the intro pair times 1e-5: its traces tr([F, G] w) are below 1e-9
        # in absolute terms, but not relative to ||F|| ||G|| ||w||
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        for path, m in zip((f, g), families.intro_pair()):
            cli.save_matrix_file(path, CMat(1e-5 * m.expanded()))
        code, out, err = run(capsys, "verify", "-f", f, "-g", g, "--t", "1..2",
                             "--triangularizable")
        assert code == 0, err
        assert json.loads(out)["payload"]["sim_triangularizable"] is False


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


class TestIII2iiAlpha:
    ALPHA = ("search", "iii2ii-discriminant", "--m", "1", "--n", "4", "5", "--alpha", "1")

    def test_alpha_scans_the_family_products(self, capsys):
        # m = 1, n = (4, 5), alpha = 1: -(1 - 4)(1 - 5), 4 * 5 - 1 and 1
        code, out, err = run(capsys, *self.ALPHA)
        assert code == 0, err
        code, given, err = run(capsys, "search", "iii2ii-discriminant", "--m", "1",
                               "--products", "-12", "19", "1")
        assert code == 0, err
        report, given = json.loads(out), json.loads(given)
        assert report["inputs"]["products"] == ["-12", "19", "1"]
        assert report["payload"] == given["payload"]
        assert report["claim"] == given["claim"]

    @pytest.mark.parametrize("m, n, message", [
        ("0", ("1", "2"), "m must be nonzero"),
        ("3", ("1", "2"), "l1 must be nonzero"),
        ("2", ("2", "2"), "n1 must differ from n2"),
    ])
    def test_alpha_side_conditions(self, capsys, m, n, message):
        code, _, err = run(capsys, "search", "iii2ii-discriminant", "--m", m, "--n", *n,
                           "--alpha", "1")
        assert code == 1
        assert message in err


def test_importing_the_cli_leaves_jsonschema_unloaded():
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-c",
                    "import commexp.cli, sys; assert 'jsonschema' not in sys.modules"],
                   check=True, env=env)


class TestJsonable:
    """``_json_leaf`` as the ``default`` of ``json.dumps``: the leaves JSON has
    no type for, nested anywhere, and the int key JSON turns into a string."""

    def test_mixed_payload_bytes(self):
        import numpy as np
        from fractions import Fraction

        obj = {
            5: {"nested": [np.array([0.5]), {"x": [Fraction(7, 2), np.int32(4)]}]},
            "array": np.array([[1.5, 2], [3, 4]]), "bool_": np.bool_(True),
            "complex": 1 + 2j, "complex128": np.complex128(3 - 4j),
            "complex_array": np.array([1j, 2]), "float32": np.float32(0.25),
            "float64": np.float64(0.1),
            "fractions": [Fraction(1, 3), Fraction(-2), Fraction(0)],
            "int64": np.int64(-3), "int_array": np.arange(3),
            "leaves": (None, True, False, "s", 7, 2.5, -0.0),
        }
        assert json.dumps(obj, default=cli._json_leaf) == (
            '{"5": {"nested": [[0.5], {"x": ["7/2", 4]}]}, "array": [[1.5, 2.0], [3.0, 4.0]], '
            '"bool_": true, "complex": [1.0, 2.0], "complex128": [3.0, -4.0], '
            '"complex_array": [[0.0, 1.0], [2.0, 0.0]], "float32": 0.25, "float64": 0.1, '
            '"fractions": ["1/3", "-2", "0"], "int64": -3, "int_array": [0, 1, 2], '
            '"leaves": [null, true, false, "s", 7, 2.5, -0.0]}'
        )
        # numpy scalars come back as the plain Python types (np.float64 subclasses
        # float, so json writes it without the hook)
        for value, kind in ((np.int64(-3), int), (np.bool_(True), bool),
                            (np.float32(0.25), float), (np.int32(4), int)):
            assert type(cli._json_leaf(value)) is kind

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            json.dumps({"x": object()}, default=cli._json_leaf)


class TestReportAsWritten:
    """``emit_report`` validates the text it writes, and the leaves that only
    ``_json_leaf`` can carry reach that text as before."""

    def test_a_claim_without_reproduced_is_a_schema_error(self, capsys, monkeypatch):
        def builder(ns):
            return {"k": ns.k}, {}, {}, {"name": "u-roots", "detail": "no verdict"}

        monkeypatch.setattr(cli, "cmd_solve_u", builder)
        code, out, err = run(capsys, "solve-u", "--k", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: SchemaError: $.claim: missing required keys ['reproduced']")
        assert err.count("\n") == 1

    def test_complex_t_and_u_are_written_as_pairs(self, capsys):
        argv = ("verify", "--builtin", "theorem2", "--t-complex", "0.5,0.25")
        u = cli._build_family("theorem2", cli.build_parser().parse_args(argv))[3]["u"]
        assert type(u) is complex
        code, out, err = run(capsys, *argv)
        assert code == 0, err
        report = json.loads(out)
        assert report["inputs"]["u"] == [u.real, u.imag]
        assert [v["t"] for v in report["payload"]["complex_t_verdicts"]] == [[0.5, 0.25]]
        assert '"t": [\n          0.5,\n          0.25\n        ],' in out

    def test_a_numpy_bool_check_is_written_as_true(self, capsys):
        import numpy as np

        ns = cli.build_parser().parse_args(["families", "iii2"])
        record, f, g, inputs = cli._build_family("iii2", ns)
        assert type(record.checks(f, g, inputs)["trace_is_l1"]) is np.bool_
        code, out, err = run(capsys, "families", "iii2")
        assert code == 0, err
        assert '"trace_is_l1": true,' in out
        assert json.loads(out)["payload"]["checks"]["trace_is_l1"] is True


class TestParsers:
    @pytest.mark.parametrize("spec, values", [
        ("1..5", [1, 2, 3, 4, 5]), (" -3..-1 ", [-3, -2, -1]), ("2..2", [2]),
        ("1,2,5", [1, 2, 5]), ("-294,0,299,", [-294, 0, 299]), ("7", [7]),
    ])
    def test_int_ranges(self, spec, values):
        assert cli.parse_int_range(spec) == values

    @pytest.mark.parametrize("spec", ["5..1", "3..-1", ",", " , , "])
    def test_an_empty_int_range_is_a_usage_error(self, spec):
        with pytest.raises(cli.UsageError, match=f"the integer range {spec!r} is empty"):
            cli.parse_int_range(spec)

    @pytest.mark.parametrize("spec, value", [
        ("0.5,0.25", 0.5 + 0.25j), ("-2", -2 + 0j), ("1e300,-1e-300", 1e300 - 1e-300j),
    ])
    def test_complex_values(self, spec, value):
        assert cli.parse_complex(spec) == value

    @pytest.mark.parametrize("spec", ["nan", "inf", "-inf", "1e400", "1,nan", "0,-1e400"])
    def test_a_non_finite_complex_value_is_a_usage_error(self, spec):
        with pytest.raises(cli.UsageError, match=f"the complex value {spec!r} is not finite"):
            cli.parse_complex(spec)

    REFUSED = [
        (("verify", "--builtin", "intro", "--t", "5..1"), "the integer range '5..1' is empty"),
        (("solve-u", "--k", "3..-1"), "the integer range '3..-1' is empty"),
        (("verify", "--builtin", "intro", "--t-complex", "nan"),
         "the complex value 'nan' is not finite"),
        (("verify", "--builtin", "intro", "--t-complex", "inf"),
         "the complex value 'inf' is not finite"),
        (("verify", "--builtin", "intro", "--t-complex", "1e400"),
         "the complex value '1e400' is not finite"),
    ]

    @pytest.mark.parametrize("argv, message", REFUSED, ids=[" ".join(a) for a, _ in REFUSED])
    def test_commands_exit_one_naming_the_spec(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_form_choices_match_the_family_enum():
    assert cli.III2_FORMS == tuple(form.value for form in families.III2Form)


def _default_help(dest: str) -> str:
    # "default V (NAME, ...) or V (NAME)", values grouped in record order
    groups: dict[str, list[str]] = {}
    for name, record in families.FAMILIES.items():
        labelled = [(name, record.defaults)]
        labelled += [(f"{name} --form {form}", d) for form, d in record.form_defaults.items()]
        for label, defaults in labelled:
            if dest in defaults:
                value = defaults[dest]
                text = " ".join(map(str, value)) if isinstance(value, tuple) else str(value)
                groups.setdefault(text, []).append(label)
    parts = [f"{text} ({', '.join(labels)})" for text, labels in groups.items()]
    return "default " + (", ".join(parts[:-1]) + " or " if parts[1:] else "") + parts[-1]


def test_family_choices_and_defaults_match_the_records():
    assert cli.FAMILY_NAMES == tuple(families.FAMILIES)
    assert cli.BUILTINS == tuple(name for name, r in families.FAMILIES.items() if r.expected)
    subparsers = cli.build_parser()._subparsers._group_actions[0].choices
    dests = {dest for r in families.FAMILIES.values()
             for d in (r.defaults, *r.form_defaults.values()) for dest in d}
    for command, want in (("verify", dests - {"l1", "m"}), ("families", dests)):
        actions = {a.dest: a for a in subparsers[command]._actions if a.dest in dests}
        assert actions.keys() == want
        for dest, action in actions.items():
            assert action.default is None, (command, dest)
            assert action.help == _default_help(dest), (command, dest)


def module_run(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "commexp.cli", *argv],
                          capture_output=True, text=True, env=env)


class TestProcessExitCodes:
    """The 0/1/2 contract through a real ``python -m commexp.cli`` process,
    whose entry runs ``main`` with the collector off, flushes both streams
    and leaves through ``os._exit``."""

    def test_zero_for_a_reproduced_claim(self):
        proc = module_run("solve-u", "--k", "-1..3")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["claim"]["reproduced"] is True

    def test_one_for_a_usage_error(self):
        proc = module_run("search", "iii4", "--n", "1", "2")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: iii4 takes a single --n (the scale integer)\n"

    def test_two_for_a_failed_claim(self):
        # a tolerance below the rounding of exp(tF + G) = exp(tF) exp(G)
        # refuses the star identities that theorem 2 asserts
        proc = module_run("verify", "--builtin", "theorem2", "--tol", "1e-300")
        assert (proc.returncode, proc.stderr) == (2, "")
        claim = json.loads(proc.stdout)["claim"]
        assert claim["reproduced"] is False
        assert claim["detail"].startswith("sum-product@t=1: expected holds=True, got False")

    def test_report_file_is_complete(self, tmp_path):
        path = tmp_path / "report.json"
        proc = module_run("search", "iii4", "--box", "2", "--n", "1", "-o", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        text = path.read_text()
        assert text.endswith("}\n")
        report = json.loads(text)
        cli.validate(report, cli._schema("report.schema.json"))
        assert len(report["payload"]["survivors"]) == 6080

    @pytest.mark.parametrize("rows, message", [
        # finite eigenvalues, but s^2 and the Frobenius norm overflow
        ([[1e160, 1e160], [0, 0]], "SpectrumOverflowError: the spectrum of F overflows"),
        # F and G commute; e^1000 is not finite
        ([[1, 0, 0], [0, 0, 0], [0, 0, 1e3]], "ResidualOverflowError: the exp-equal residual"),
        # finite eigenvalues +-a (and 0) whose gaps' moduli overflow
        ([[_A, 0], [0, -_A]], "SpectrumOverflowError: the spectrum of F overflows"),
        ([[_A, 0, 0], [0, -_A, 0], [0, 0, 0]], "SpectrumOverflowError: the spectrum of F overflows"),
        # a finite root whose modulus overflows, and so does e^x
        (NORM_PAST_FLOAT_RANGE["1x1"].tolist(), "ResidualOverflowError: the exp-equal residual"),
        # ||F|| past the float range: F's roots are NaN
        (NORM_PAST_FLOAT_RANGE["plus-minus-b"].tolist(),
         "SpectrumOverflowError: the spectrum of F overflows"),
        (NORM_PAST_FLOAT_RANGE["trace"].tolist(), "SpectrumOverflowError: the spectrum of F overflows"),
    ], ids=["d2-spectrum", "d3-exponential", "d2-root-gap", "d3-root-gap", "d1-root-modulus",
            "d3-nan-roots", "d3-trace"])
    def test_overflow_prints_one_error_line_and_no_warning(self, tmp_path, rows, message):
        f, g = str(tmp_path / "F.json"), str(tmp_path / "G.json")
        cli.save_matrix_file(f, CMat.from_rows(rows))
        cli.save_matrix_file(g, CMat.from_rows([[float(i == j) for j in range(len(rows))]
                                                for i in range(len(rows))]))
        proc = module_run("verify", "-f", f, "-g", g, "--t", "1..2")
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith(f"error: {message}") and proc.stderr.count("\n") == 1

    def test_families_files_are_complete(self, tmp_path):
        f, g, out = (str(tmp_path / name) for name in ("F.json", "G.json", "R.json"))
        proc = module_run("families", "intro", "--out-files", f, g, "--out", out)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        want = families.intro_pair()
        for path, m in zip((f, g), want):
            loaded = cli.load_matrix_file(path)
            assert loaded.pi_scaled == m.pi_scaled
            assert (loaded.entries == m.entries).all()
        report = json.loads(Path(out).read_text())
        cli.validate(report, cli._schema("report.schema.json"))
        assert report["payload"]["f"] == cli.matrix_to_obj(want[0])
        assert report["payload"]["g"] == cli.matrix_to_obj(want[1])

    @pytest.mark.parametrize("argv", [
        ("solve-u", "--k", "1"),  # the report waits in the buffer for the exit flush
        ("search", "iii4", "--box", "2", "--n", "1"),  # ~1.8 MB: print itself fails
    ], ids=["flush", "print"])
    def test_closed_stdout_exits_one_with_one_line(self, argv):
        read, write = os.pipe()
        os.close(read)
        env = dict(os.environ, PYTHONPATH=SRC)
        env.pop("PYTHONUNBUFFERED", None)  # with it set, every print fails inside main
        try:
            proc = subprocess.run([sys.executable, "-m", "commexp.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == "error: BrokenPipeError: [Errno 32] Broken pipe\n"

    def test_piped_stdout_parses_as_json(self):
        proc = module_run("search", "iii4", "--box", "2", "--n", "1")  # ~1.8 MB of JSON
        assert (proc.returncode, proc.stderr) == (0, "")
        report = json.loads(proc.stdout)
        cli.validate(report, cli._schema("report.schema.json"))
        assert len(report["payload"]["survivors"]) == 6080


class _Stream:
    """A stand-in for sys.stdout or sys.stderr that records its calls."""

    def __init__(self, name, events, error=None):
        self.name, self.events, self.error = name, events, error

    def write(self, text):
        self.events.append(f"{self.name} <- {text!r}")
        return len(text)

    def flush(self):
        self.events.append(f"flush {self.name}")
        if self.error is not None:
            raise self.error


class TestEntry:
    """``entry`` as a process runs it, with gc.disable, main, both streams and
    os._exit replaced by recorders, so that pytest's collector stays on and
    its process survives."""

    @staticmethod
    def run_entry(monkeypatch, code, stdout_error=None):
        events = []
        monkeypatch.setattr(gc, "disable", lambda: events.append("gc.disable"))
        monkeypatch.setattr(cli, "main", lambda: events.append("main") or code)
        monkeypatch.setattr(sys, "stdout", _Stream("stdout", events, stdout_error))
        monkeypatch.setattr(sys, "stderr", _Stream("stderr", events))
        monkeypatch.setattr(os, "_exit", lambda status: events.append(f"os._exit({status})"))
        cli.entry()
        return events

    def test_main_runs_with_the_collector_off_then_flushes_and_exits(self, monkeypatch):
        assert self.run_entry(monkeypatch, 2) == [
            "gc.disable", "main", "flush stdout", "flush stderr", "os._exit(2)"]

    def test_a_closed_stdout_is_an_io_error(self, monkeypatch):
        events = self.run_entry(monkeypatch, 0, BrokenPipeError(32, "Broken pipe"))
        assert events == [
            "gc.disable", "main", "flush stdout",
            "stderr <- 'error: BrokenPipeError: [Errno 32] Broken pipe'", "stderr <- '\\n'",
            "flush stderr", "os._exit(1)"]


def test_console_script_targets_the_module_entry():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(SRC).parent / "pyproject.toml", "rb") as fp:
        target = tomllib.load(fp)["project"]["scripts"]["commexp"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry


# runs one command in-process and reports its exit code, which of the modules
# named in its first argument got loaded, and what it printed
MODULE_PROBE = """
import contextlib, io, json, sys
from commexp import cli
watched = sys.argv[1].split(",")
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(sys.argv[2:])
print(json.dumps([code, [name for name in watched if name in sys.modules], out.getvalue()]))
"""
WATCHED = ("numpy", "dataclasses", "hashlib", "_hashlib", "fractions", "commexp.intsearch")
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


class TestNumpyLoadsOnlyWhereUsed:
    """What a command's process loads, of ``WATCHED``.  solve-u and the
    search cases are exact integer work: their processes never import numpy,
    and they digest no input, so they leave hashlib unloaded; solve-u needs
    neither the search module nor fractions.  verify and families, which
    compute with floats, load numpy.  No command loads dataclasses."""

    @staticmethod
    def probe(*argv, report=False):
        """(exit code, the set of ``WATCHED`` modules loaded), and the parsed
        report with ``report``."""
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, ",".join(WATCHED), *argv],
                              capture_output=True, text=True, env=env, check=True)
        code, loaded, out = json.loads(proc.stdout)
        if report:
            return (code, set(loaded)), json.loads(out)
        return code, set(loaded)

    @pytest.mark.parametrize("argv", [
        ("solve-u", "--k", "-1..3"),
        ("search", "a1-discriminant", "--m", "1", "2", "--n", "3", "4", "--nmax", "100"),
        ("search", "iii2ii-discriminant", "--m", "2", "--products", "1", "1/2", "-1/2",
         "--nmax", "100"),
        ("search", "iii4", "--n", "2"),
        ("search", "iii4", "--box", "2", "--n", "1"),
    ], ids=" ".join)
    def test_integer_commands_run_without_numpy(self, argv):
        code, loaded = self.probe(*argv)
        assert code == 0
        assert not loaded & {"numpy", "hashlib", "dataclasses"}, loaded

    def test_solve_u_loads_no_search_machinery(self):
        assert self.probe("solve-u", "--k", "1") == (0, set())

    def test_iii4_search_at_box_25(self):
        # 7.8e9 base tuples: counted in closed form, never enumerated
        (code, loaded), report = self.probe("search", "iii4", "--box", "25", "--n", "2",
                                            report=True)
        assert code == 0
        assert not loaded & {"numpy", "hashlib", "dataclasses"}, loaded
        assert report["claim"]["reproduced"] is True
        assert report["payload"]["tuples_scanned"] == report["payload"]["pruned"] == 7844674936
        assert report["payload"]["survivors"] == []

    def test_alpha_search_runs_without_numpy(self):
        # --alpha builds the products from m, n and alpha in exact arithmetic
        code, loaded = self.probe(*TestIII2iiAlpha.ALPHA)
        assert code == 0
        assert not loaded & {"numpy", "hashlib", "dataclasses"}, loaded

    @pytest.mark.parametrize("argv", [
        ("verify", "--builtin", "intro"),
        ("families", "iii2"),
    ], ids=" ".join)
    def test_float_commands_load_numpy(self, argv):
        code, loaded = self.probe(*argv)
        assert code == 0
        assert "numpy" in loaded and "dataclasses" not in loaded, loaded

    @pytest.mark.skipif(not BUILTIN_SHA256, reason="no built-in sha256 module")
    @pytest.mark.parametrize("argv", [
        ("verify", "--builtin", "intro"),
        ("families", "iii2"),
    ], ids=" ".join)
    def test_input_digests_leave_hashlib_unloaded(self, argv):
        # the built-in sha256 digests the inputs: no OpenSSL backend loads
        code, loaded = self.probe(*argv)
        assert code == 0
        assert not loaded & {"hashlib", "_hashlib"}, loaded


class TestInputDigests:
    """The inputs' digests are hashlib's sha256, whichever module computes
    them; the pins were recorded while ``hashlib`` computed them."""

    def test_digests_equal_hashlib(self, tmp_path):
        for data in (b"", b"abc", bytes(range(256)) * 300):
            assert cli._sha256()(data).hexdigest() == hashlib.sha256(data).hexdigest()
        path = tmp_path / "f.json"
        path.write_text(json.dumps({"entries": [[1, 2], [3, 4]]}))
        assert cli._digest_file(str(path)) == hashlib.sha256(path.read_bytes()).hexdigest()
        params = {"t": [1, 2], "z": 0.5 + 0.25j}
        blob = json.dumps({"kind": "k", "params": {"t": [1, 2], "z": [0.5, 0.25]}},
                          sort_keys=True)
        assert cli._digest_params("k", params) == hashlib.sha256(blob.encode()).hexdigest()

    @pytest.mark.parametrize("argv, digest", [
        (("verify", "--builtin", "intro"),
         "12400cdf24488a9c4355af13f86df753a07212fdd4a2a0fd2d65d5b25f4158da"),
        (("families", "iii2"),
         "aa5e4fdab0b27c5fcd50485f9c11fc1bd899e8e1f643938f6a7577c718968a00"),
    ], ids=["verify-intro", "families-iii2"])
    def test_report_input_digests_are_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["inputs"]["digest"] == digest
