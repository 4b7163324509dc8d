"""Verification lab for commuting-exponential identities of small complex
matrices: relation checkers, explicit solution families, the root set of
e^u = 1 + u, simultaneous triangularization, and exact integer searches."""

from .errors import (
    CommexpError,
    ComplexRootsError,
    CongruenceViolationError,
    ConstraintError,
    DeflationError,
    DimensionError,
    IllConditionedError,
    InvalidUError,
    NoConvergenceError,
    RankError,
    SchemaError,
    SnapUnavailableError,
    ZeroRootError,
)
from .expmkit import ExpMethod, LogPoly, expm, expm_affine, log_poly_recover
from .families import (
    III2Form,
    III2Params,
    III2iiParams,
    III4Params,
    Real2DParams,
    Theorem2Params,
    case3_III2_matrix,
    case3_III2ii_matrix,
    case3_III4_residuals,
    char_poly_nAB,
    dim2_case1_pair,
    intro_pair,
    intro_square_polynomial,
    real2d_family,
    rescale_2ipi,
    theorem2_family,
)
from .intsearch import (
    SearchOutcome,
    SquarePoly,
    Survivor,
    discriminant_scan_A1,
    discriminant_scan_III2ii,
    grobner_replacement_search,
    is_perfect_square,
    lemma1_decide,
    lemma1_witness,
    lemma1_witness_bound,
    square_root_exact,
)
from .numkernel import (
    CMat,
    Spectrum,
    char_poly,
    combine_affine,
    commutator,
    eigen_decompose,
    mat_equal_approx,
    null_space,
)
from .relations import (
    RelationKind,
    RelationReport,
    RelationVerdict,
    TScanConfig,
    check_commute,
    check_exp_equal,
    check_exp_swap,
    check_relation_star,
    congruence_free,
    relation_report,
    scan_integer_t,
)
from .simtrig import TrigVerdict, common_eigenvector, sim_triangularizable
from .uset import URoot, enumerate_u, solve_u

__version__ = "0.1.0"
