"""Decision procedures for the exponential identities under study.

Checked identities, with F, G square complex matrices and t a scalar:

* commute:              F G = G F
* sum-product (star):   exp(t F + G) = exp(t F) exp(G)
* sum-product swapped:  exp(t F + G) = exp(G) exp(t F)
* exp-equal:            exp(F) = exp(G)
* exp-swap:             exp(F) exp(G) = exp(G) exp(F)

Every verdict carries the relative Frobenius residual of its defining
equation and the tolerance it was judged at, so holds == (residual <= tol)
by construction.

Default tolerance is 1e-9, which the cross-engine agreement data supports
for pi-scaled inputs with t up to ~5; relax to 1e-6 when scanning t up to
20 (exponential conditioning grows with t * ||F||).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .expmkit import expm, expm_affine
from .numkernel import (
    CMat,
    Spectrum,
    as_matrix,
    combine_affine,
    eigen_decompose,
    frobenius,
    spectrum_congruence_free,
)
from .simtrig import sim_triangularizable

DEFAULT_TOL = 1e-9


class RelationKind(enum.Enum):
    COMMUTE = "commute"
    SUM_PRODUCT = "sum-product"
    SUM_PRODUCT_SWAPPED = "sum-product-swapped"
    EXP_EQUAL = "exp-equal"
    EXP_SWAP = "exp-swap"


@dataclass(frozen=True)
class RelationVerdict:
    relation: RelationKind
    holds: bool
    residual: float
    tol: float
    t: complex | None = None


@dataclass(frozen=True)
class TScanConfig:
    """Strictly increasing integer t values starting at 1."""

    t_values: tuple[int, ...]
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        ts = tuple(int(t) for t in self.t_values)
        if not ts or ts[0] != 1:
            raise ValueError("t scan must start at t = 1")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("t values must be strictly increasing")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        object.__setattr__(self, "t_values", ts)

    @classmethod
    def through(cls, t_max: int, tol: float = DEFAULT_TOL) -> "TScanConfig":
        return cls(tuple(range(1, t_max + 1)), tol)


@dataclass(frozen=True)
class RelationReport:
    pair: str
    verdicts: tuple[RelationVerdict, ...]
    congruence_free: tuple[bool, bool, bool]
    sim_triangularizable: bool | None = None


def _relative_residual(lhs: np.ndarray, rhs: np.ndarray) -> float:
    scale = max(1.0, frobenius(lhs), frobenius(rhs))
    return frobenius(lhs - rhs) / scale


def _verdict(kind, lhs, rhs, tol, t=None) -> RelationVerdict:
    residual = _relative_residual(lhs, rhs)
    return RelationVerdict(kind, residual <= tol, residual, tol, t)


def check_commute(f, g, tol: float = DEFAULT_TOL) -> RelationVerdict:
    a, b = as_matrix(f), as_matrix(g)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    num = frobenius(a @ b - b @ a)
    residual = num / max(1.0, frobenius(a) * frobenius(b))
    return RelationVerdict(RelationKind.COMMUTE, residual <= tol, residual, tol)


def _scaled(f, t):
    if isinstance(f, CMat):
        return CMat(t * f.entries, f.pi_scaled)
    return t * as_matrix(f)


def check_relation_star(
    f, g, t: complex, tol: float = DEFAULT_TOL, swapped: bool = False,
) -> RelationVerdict:
    """exp(t F + G) versus exp(t F) exp(G), or exp(G) exp(t F) when swapped."""
    lhs = expm_affine(f, g, t)
    etf = expm(_scaled(f, t))
    eg = expm(g)
    rhs = eg @ etf if swapped else etf @ eg
    kind = RelationKind.SUM_PRODUCT_SWAPPED if swapped else RelationKind.SUM_PRODUCT
    return _verdict(kind, lhs, rhs, tol, t)


def check_exp_equal(f, g, tol: float = DEFAULT_TOL) -> RelationVerdict:
    return _verdict(RelationKind.EXP_EQUAL, expm(f), expm(g), tol)


def check_exp_swap(f, g, tol: float = DEFAULT_TOL) -> RelationVerdict:
    ef, eg = expm(f), expm(g)
    return _verdict(RelationKind.EXP_SWAP, ef @ eg, eg @ ef, tol)


def scan_integer_t(f, g, cfg: TScanConfig) -> list[RelationVerdict]:
    """Star and swapped-star verdicts at each configured integer t.

    Output order is deterministic: (star, swapped-star) per t, ascending t.
    """
    out = []
    for t in cfg.t_values:
        out.append(check_relation_star(f, g, t, cfg.tol, swapped=False))
        out.append(check_relation_star(f, g, t, cfg.tol, swapped=True))
    return out


def congruence_free(spectrum: Spectrum | list | tuple, tol: float = DEFAULT_TOL) -> bool:
    """No two eigenvalues differ by 2*i*pi*k, k a nonzero integer."""
    if isinstance(spectrum, Spectrum):
        values = spectrum.eigenvalues
    else:
        values = tuple(spectrum)
    if not values:
        raise ValueError("spectrum must be nonempty")
    return spectrum_congruence_free(values, tol)


def relation_report(
    f, g, cfg: TScanConfig, *,
    pair: str = "",
    include_triangularizable: bool = False,
) -> RelationReport:
    """Aggregate every check for one pair."""
    verdicts = [
        check_commute(f, g, cfg.tol),
        check_exp_equal(f, g, cfg.tol),
        check_exp_swap(f, g, cfg.tol),
    ]
    verdicts.extend(scan_integer_t(f, g, cfg))
    spec_f = eigen_decompose(f)
    spec_g = eigen_decompose(g)
    spec_fg = eigen_decompose(combine_affine(f, g, 1.0))
    flags = (
        congruence_free(spec_f, cfg.tol),
        congruence_free(spec_g, cfg.tol),
        congruence_free(spec_fg, cfg.tol),
    )
    trig = None
    if include_triangularizable:
        trig = sim_triangularizable(f, g).triangularizable
    return RelationReport(pair, tuple(verdicts), flags, trig)
