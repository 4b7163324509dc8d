import copy
import importlib
import inspect
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import commexp
from commexp.errors import ConstraintError, DimensionError, InvalidUError

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every name the package exported when its __init__ imported each submodule,
# with the module that defines it, less the names deleted since and plus
# ResidualOverflowError
EXPORTED = {
    "errors": (
        "CommexpError", "ComplexRootsError", "ConstraintError", "DeflationError",
        "DimensionError", "InvalidUError", "NoConvergenceError", "RankError",
        "ResidualOverflowError", "SchemaError", "ZeroRootError",
    ),
    "expmkit": ("expm", "expm_affine"),
    "families": (
        "III2Form", "III2Params", "III2iiParams", "Real2DParams", "Theorem2Params",
        "case3_III2_matrix", "case3_III2ii_matrix", "char_poly_nAB", "dim2_case1_pair",
        "intro_pair", "real2d_family", "rescale_2ipi", "theorem2_family",
    ),
    "intsearch": (
        "III4Params", "SearchOutcome", "SquarePoly", "Survivor", "case3_III4_residuals",
        "discriminant_scan_A1",
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
    # intsearch defines it; families neither redefines nor re-exports it
    from commexp import families, intsearch

    for name in ("III4Params", "iii4_entries", "case3_III4_residuals"):
        assert getattr(intsearch, name).__module__ == "commexp.intsearch"
        assert not hasattr(families, name), name


def test_deleted_names_are_not_exported():
    for name in ("CongruenceViolationError", "LogPoly", "log_poly_recover",
                 "intro_square_polynomial", "scan_integer_t", "ExpMethod",
                 "IllConditionedError", "SnapUnavailableError"):
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
    ("intsearch", "Survivor"): (("params", "residuals"), {}),
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


U1 = 2.088843015613044 + 7.461489285654254j  # the root of e^u = 1 + u on branch 1

# the validated records, plain slots classes now and frozen dataclasses
# before: fields in order, the defaults of the trailing ones, valid keyword
# arguments with the repr they give, and invalid ones with the typed error
# they raise
VALIDATED = {
    ("numkernel", "CMat"): (
        ("entries", "pi_scaled"), {"pi_scaled": False},
        {"entries": [[2]]}, "CMat(entries=array([[2.+0.j]]), pi_scaled=False)",
        [({"entries": [[1, 2]]}, DimensionError), ({"entries": [[math.nan]]}, DimensionError)],
    ),
    ("relations", "TScanConfig"): (
        ("t_values", "tol"), {"tol": 1e-9},
        {"t_values": [1, -2, 0.5j]}, "TScanConfig(t_values=(1, -2, 0.5j), tol=1e-09)",
        [({"t_values": []}, ValueError), ({"t_values": [1], "tol": 0}, ValueError),
         ({"t_values": [1, math.nan]}, ValueError), ({"t_values": [1, math.inf]}, ValueError)],
    ),
    ("families", "Real2DParams"): (
        ("lam", "mu", "nu", "a"), {"a": 0.0},
        {"lam": 1, "mu": 2, "nu": 5}, "Real2DParams(lam=1, mu=2, nu=5, a=0.0)",
        [({"lam": 0, "mu": 2, "nu": 5}, ConstraintError),
         ({"lam": 1, "mu": 2, "nu": 3}, ConstraintError)],
    ),
    ("families", "Theorem2Params"): (
        ("u", "sigma", "tau", "basis"), {"sigma": 0j, "tau": 0j, "basis": None},
        {"u": U1}, f"Theorem2Params(u={U1!r}, sigma=0j, tau=0j, basis=None)",
        [({"u": 1}, InvalidUError), ({"u": U1, "basis": [[1, 2], [2, 4]]}, ConstraintError)],
    ),
    ("families", "III2Params"): (
        ("l1", "m1", "m2", "m3", "n1", "n2"), {},
        {"l1": 3, "m1": 1, "m2": 2, "m3": 3, "n1": 4, "n2": 5},
        "III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5)",
        [({"l1": 3, "m1": 1, "m2": 1, "m3": 3, "n1": 4, "n2": 5}, ConstraintError),
         ({"l1": 3, "m1": 1, "m2": 2, "m3": 3, "n1": 2, "n2": 4}, ConstraintError)],
    ),
    ("families", "III2iiParams"): (
        ("l1", "m", "n1", "n2", "alpha", "a_vector", "b_vector"), {},
        {"l1": 8, "m": 1, "n1": 4, "n2": 5, "alpha": 1, "a_vector": (-12, 19, 1),
         "b_vector": (1, 1, 1)},
        "III2iiParams(l1=8, m=1, n1=4, n2=5, alpha=1, a_vector=(-12, 19, 1), "
        "b_vector=(1, 1, 1))",
        [({"l1": 8, "m": 1, "n1": 4, "n2": 5, "alpha": 1, "a_vector": (-12, 19, 2),
           "b_vector": (1, 1, 1)}, ConstraintError),
         ({"l1": 9, "m": 0, "n1": 4, "n2": 5, "alpha": 1, "a_vector": (-12, 19, 1),
           "b_vector": (1, 1, 1)}, ConstraintError)],
    ),
    ("intsearch", "SquarePoly"): (
        ("alpha", "beta", "gamma"), {},
        {"alpha": 2, "beta": -3, "gamma": 4}, "SquarePoly(alpha=2, beta=-3, gamma=4)",
        [({"alpha": 0, "beta": 1, "gamma": 1}, ConstraintError),
         ({"alpha": 1, "beta": 1.5, "gamma": 1}, ConstraintError)],
    ),
    ("intsearch", "III4Params"): (
        ("l1", "l2", "m1", "m2", "m3", "n1", "n2", "rho", "sigma"), {"rho": 0, "sigma": 0},
        {"l1": 1, "l2": 2, "m1": 0, "m2": 1, "m3": 0, "n1": 1, "n2": 3},
        "III4Params(l1=1, l2=2, m1=0, m2=1, m3=0, n1=1, n2=3, rho=0, sigma=0)",
        [({"l1": 1, "l2": 1, "m1": 0, "m2": 1, "m3": 0, "n1": 1, "n2": 3}, ConstraintError),
         ({"l1": 1, "l2": 2, "m1": 1, "m2": 1, "m3": 0, "n1": 1, "n2": 3}, ConstraintError)],
    ),
}


@pytest.mark.parametrize("home, name", VALIDATED, ids=[name for _, name in VALIDATED])
def test_validated_records_keep_their_dataclass_contract(home, name):
    cls = getattr(importlib.import_module(f"commexp.{home}"), name)
    fields, defaults, valid, want_repr, invalid = VALIDATED[home, name]
    params = inspect.signature(cls).parameters
    assert tuple(params) == fields
    assert {f: p.default for f, p in params.items() if p.default is not p.empty} == defaults
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    record = cls(**valid)
    assert repr(record) == want_repr
    for field in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        delattr(record, fields[0])
    if name == "CMat":  # an array field: equal only to itself, and unhashable
        assert record == record
        with pytest.raises(TypeError):
            hash(record)
    else:
        for twin in (cls(**valid), cls(*(getattr(record, f) for f in fields)),
                     copy.copy(record), pickle.loads(pickle.dumps(record))):
            assert twin == record and hash(twin) == hash(record)
    assert record != tuple(getattr(record, f) for f in fields)
    for kwargs, error in invalid:
        with pytest.raises(error):
            cls(**kwargs)
