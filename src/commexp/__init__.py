"""Verification lab for commuting-exponential identities of small complex
matrices: relation checkers, explicit solution families, the root set of
e^u = 1 + u, simultaneous triangularization, and exact integer searches.

Access is lazy: ``import commexp`` loads no submodule, and so not numpy.
Each public name below, and each submodule, is imported from its home
module on first access (PEP 562 module ``__getattr__``) and then cached
here, so ``from commexp import solve_u`` loads ``uset`` alone.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it lends the package
_EXPORTS = {
    "errors": (
        "CommexpError", "ComplexRootsError", "ConstraintError", "DeflationError",
        "DimensionError", "InvalidUError", "NoConvergenceError", "RankError",
        "ResidualOverflowError", "SchemaError", "SpectrumOverflowError", "ZeroRootError",
    ),
    "expmkit": ("expm", "expm_affine"),
    "families": (
        "III2Form", "III2Params", "III2iiParams", "Real2DParams", "Theorem2Params",
        "case3_III2_matrix", "case3_III2ii_matrix", "char_poly_nAB", "dim2_case1_pair",
        "intro_pair", "real2d_family", "rescale_2ipi", "theorem2_family",
    ),
    "intsearch": (
        "III4Params", "SearchOutcome", "SquarePoly", "Survivor", "case3_III4_residuals",
        "discriminant_scan_A1", "discriminant_scan_III2ii", "grobner_replacement_search",
        "is_perfect_square", "lemma1_decide", "lemma1_witness", "lemma1_witness_bound",
        "square_root_exact",
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
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, an attribute as when __init__ imported them all
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys() | _EXPORTS.keys())
