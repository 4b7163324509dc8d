import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commexp

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name the package exported when its __init__ imported each submodule,
# with the module that defined it then, less the names deleted since and plus
# ResidualOverflowError
EXPORTED = {
    "errors": (
        "CommexpError", "ComplexRootsError", "ConstraintError", "DeflationError",
        "DimensionError", "IllConditionedError", "InvalidUError", "NoConvergenceError",
        "RankError", "ResidualOverflowError", "SchemaError", "SnapUnavailableError",
        "ZeroRootError",
    ),
    "expmkit": ("ExpMethod", "expm", "expm_affine"),
    "families": (
        "III2Form", "III2Params", "III2iiParams", "III4Params", "Real2DParams",
        "Theorem2Params", "case3_III2_matrix", "case3_III2ii_matrix", "case3_III4_residuals",
        "char_poly_nAB", "dim2_case1_pair", "intro_pair", "real2d_family", "rescale_2ipi",
        "theorem2_family",
    ),
    "intsearch": (
        "SearchOutcome", "SquarePoly", "Survivor", "discriminant_scan_A1",
        "discriminant_scan_III2ii", "grobner_replacement_search", "is_perfect_square",
        "lemma1_decide", "lemma1_witness", "lemma1_witness_bound", "square_root_exact",
    ),
    "numkernel": (
        "CMat", "Spectrum", "char_poly", "combine_affine", "commutator", "eigen_decompose",
    ),
    "relations": (
        "RelationKind", "RelationReport", "RelationVerdict", "TScanConfig", "check_commute",
        "check_exp_equal", "check_exp_swap", "check_relation_star", "congruence_free",
        "relation_report",
    ),
    "simtrig": ("TrigVerdict", "common_eigenvector", "sim_triangularizable"),
    "uset": ("URoot", "enumerate_u", "solve_u"),
}


def test_every_exported_name_resolves_to_its_home_object():
    for module, names in EXPORTED.items():
        home = importlib.import_module(f"commexp.{module}")
        for name in names:
            namespace = {}
            exec(f"from commexp import {name}", namespace)
            assert namespace[name] is getattr(home, name), name
            assert name in commexp.__all__ and name in dir(commexp), name


def test_the_iii4_algebra_has_one_implementation():
    from commexp import families, intsearch

    for name in ("III4Params", "iii4_entries", "case3_III4_residuals"):
        assert getattr(families, name) is getattr(intsearch, name)


def test_deleted_names_are_not_exported():
    for name in ("CongruenceViolationError", "LogPoly", "log_poly_recover",
                 "intro_square_polynomial", "scan_integer_t"):
        assert name not in commexp.__all__, name
        with pytest.raises(AttributeError):
            getattr(commexp, name)


def test_submodules_resolve_as_attributes():
    assert commexp.uset is importlib.import_module("commexp.uset")
    assert commexp.__version__ == "0.1.0"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'null_space'"):
        commexp.null_space
    with pytest.raises(ImportError):
        exec("from commexp import mat_equal_approx", {})


def test_importing_the_package_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=SRC)
    probe = ("import commexp, sys; "
             "loaded = sorted(m for m in sys.modules if m.startswith(('commexp.', 'numpy'))); "
             "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", probe], check=True, env=env)


NO_CHECKS = object()  # the default of Family.checks: a callable that checks nothing

# the result records, each with its fields in order and the defaults of the
# trailing ones; they are NamedTuples now, frozen dataclasses before
RECORDS = {
    ("numkernel", "Spectrum"): (
        ("eigenvalues", "distinct_count", "multiplicities", "snap"),
        {"multiplicities": (), "snap": None},
    ),
    ("relations", "RelationReport"): (
        ("pair", "verdicts", "congruence_free", "sim_triangularizable"),
        {"sim_triangularizable": None},
    ),
    ("simtrig", "TrigVerdict"): (
        ("triangularizable", "basis", "witness", "witness_word", "witness_trace"),
        {"basis": None, "witness": None, "witness_word": None, "witness_trace": None},
    ),
    ("intsearch", "SearchOutcome"): (
        ("survivors", "tuples_scanned", "bounds", "pruned", "prune_reasons", "first_failure",
         "metadata"),
        {"first_failure": None, "metadata": {}},
    ),
    ("uset", "URoot"): (("value", "residual", "branch_hint"), {}),
    ("families", "Family"): (
        ("build", "defaults", "expected", "checks", "form_defaults"),
        {"expected": {}, "checks": NO_CHECKS, "form_defaults": {}},
    ),
}


@pytest.mark.parametrize("home, name", RECORDS, ids=[name for _, name in RECORDS])
def test_records_keep_their_fields_defaults_and_immutability(home, name):
    cls = getattr(importlib.import_module(f"commexp.{home}"), name)
    fields, defaults = RECORDS[home, name]
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    record = cls(*(None for p in params.values() if p.default is inspect.Parameter.empty))
    for field, want in defaults.items():
        got = getattr(record, field)
        if want is NO_CHECKS:
            assert got(None, None, {}) == {}
        else:
            assert got == want, field
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
