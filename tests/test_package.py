import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import commexp

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name the package exported when its __init__ imported each submodule,
# with the module that defined it then
EXPORTED = {
    "errors": (
        "CommexpError", "ComplexRootsError", "CongruenceViolationError", "ConstraintError",
        "DeflationError", "DimensionError", "IllConditionedError", "InvalidUError",
        "NoConvergenceError", "RankError", "SchemaError", "SnapUnavailableError",
        "ZeroRootError",
    ),
    "expmkit": ("ExpMethod", "LogPoly", "expm", "expm_affine", "log_poly_recover"),
    "families": (
        "III2Form", "III2Params", "III2iiParams", "III4Params", "Real2DParams",
        "Theorem2Params", "case3_III2_matrix", "case3_III2ii_matrix", "case3_III4_residuals",
        "char_poly_nAB", "dim2_case1_pair", "intro_pair", "intro_square_polynomial",
        "real2d_family", "rescale_2ipi", "theorem2_family",
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
        "relation_report", "scan_integer_t",
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
