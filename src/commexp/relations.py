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

``relation_report`` chooses its path by the pair's dimension.  At d = 2 it
takes every exponential once, in one stacked closed-form call over
[F, G, t F + G for each t, t F for each t], and every residual from batched
products and one stacked Frobenius norm; each verdict is what the scalar
``check_*`` functions give (residuals to rounding).  The congruence flags of
F, G and F + G read the eigenvalues mu +/- s that the same call computes for
rows 0, 1 and 2 (row 2 is t = 1), so the d = 2 path makes no
``eigen_decompose`` call.  At d = 3 it runs the scalar checks itself:
``check_exp_equal``, ``check_exp_swap``, then ``check_relation_star`` and
its swapped form per t, six exponentials per t (star and swapped star each
take exp(t F + G), exp(t F) and exp(G)); the flags read the polished roots
of F, G and F + G, which ``eigen_decompose`` would cluster: a cluster's mean
can hide two roots that differ by 2 i pi once ||M|| is ~1e8 or more.  At
either dimension an infinite eigenvalue difference raises
``SpectrumOverflowError`` naming the matrix; past the flags, a residual that
is not finite (an exponential, or its norm, overflowed on a finite
spectrum) raises ``ResidualOverflowError`` naming the relation and its t,
instead of reading as a failed verdict.  With ``include_triangularizable``
the report adds the verdict of ``simtrig.sim_triangularizable``, which at
d = 2 is one test, det [F, G] = 0.
"""

from __future__ import annotations

import enum
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ResidualOverflowError, SpectrumOverflowError
from .expmkit import _expm_2x2_with_eigenvalues, expm, expm_affine
from .numkernel import (
    CMat,
    Spectrum,
    _polished_roots,
    as_matrix,
    combine_affine,
    frobenius,
    spectrum_congruence_free,
)
from .simtrig import sim_triangularizable

DEFAULT_TOL = 1e-9
_RESIDUAL = operator.attrgetter("residual")


class RelationKind(enum.Enum):
    COMMUTE = "commute"
    SUM_PRODUCT = "sum-product"
    SUM_PRODUCT_SWAPPED = "sum-product-swapped"
    EXP_EQUAL = "exp-equal"
    EXP_SWAP = "exp-swap"


class RelationVerdict(NamedTuple):
    """One judged relation; immutable.  A NamedTuple, not a frozen
    dataclass, because a d = 2 report builds 2T + 3 of them."""

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
        given = tuple(self.t_values)
        ts = tuple(int(t) for t in given)
        if ts != given:
            raise ValueError(f"t values must be integers, got {given}")
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


def _scan_stack(f, g, t_values) -> np.ndarray:
    """[F, G, t F + G for each t, t F for each t] as one (2 + 2T, d, d) array.

    Each row is rounded as the scalar checks round it: t F + G as
    ``combine_affine`` (pi-scaled entries combined first, then multiplied by
    pi, when F and G both carry the factor) and t F as ``check_relation_star``.
    """
    t = np.array(t_values, dtype=float)[:, None, None]
    if isinstance(f, CMat) and isinstance(g, CMat) and f.pi_scaled == g.pi_scaled:
        tf = t * f.entries
        stack = np.concatenate([f.entries[None], g.entries[None], tf + g.entries, tf])
        return stack * math.pi if f.pi_scaled else stack
    a, b = as_matrix(f), as_matrix(g)
    tf = t * f.entries * math.pi if isinstance(f, CMat) and f.pi_scaled else t * a
    return np.concatenate([a[None], b[None], t * a + b, tf])


def _scan_2x2(f, g, cfg: TScanConfig) -> tuple[list[RelationVerdict], tuple[bool, bool, bool]]:
    """exp-equal, exp-swap, then star and swapped star per t of a 2x2 pair,
    and the congruence flags of F, G and F + G, from one stacked
    exponential: each of exp(F), exp(G), exp(t F + G) and exp(t F) is taken
    once, every residual is ``_relative_residual`` over the stack, and the
    flags read the eigenvalues of rows 0, 1 and 2 (t = 1, rounded as
    ``combine_affine(f, g, 1.0)``)."""
    n = len(cfg.t_values)
    e, lams = _expm_2x2_with_eigenvalues(_scan_stack(f, g, cfg.t_values))
    ef, eg, sums, scaled = e[0], e[1], e[2:2 + n], e[2 + n:]
    lhs = np.concatenate([ef[None], (ef @ eg)[None], sums, sums])
    rhs = np.concatenate([eg[None], (eg @ ef)[None], scaled @ eg, eg @ scaled])
    lhs_norm, rhs_norm, diff_norm = frobenius(np.concatenate([lhs, rhs, lhs - rhs])).reshape(3, -1)
    # fmax, as Python's max, passes over a NaN norm
    residuals = diff_norm / np.fmax(np.fmax(lhs_norm, rhs_norm), 1.0)
    # verdict order: exp-equal, exp-swap, then (star, swapped star) per t
    residuals = np.concatenate([residuals[:2], residuals[2:].reshape(2, n).T.ravel()])
    tol = cfg.tol
    kinds = [RelationKind.EXP_EQUAL, RelationKind.EXP_SWAP]
    kinds += [RelationKind.SUM_PRODUCT, RelationKind.SUM_PRODUCT_SWAPPED] * n
    ts = [None, None] + [t for t in cfg.t_values for _ in range(2)]
    verdicts = list(map(RelationVerdict, kinds, (residuals <= tol).tolist(),
                        residuals.tolist(), itertools.repeat(tol), ts))
    return verdicts, _congruence_flags(lams[:, :3].T.tolist(), tol)


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


def congruence_free(spectrum: Spectrum | list | tuple, tol: float = DEFAULT_TOL) -> bool:
    """No two eigenvalues differ by 2*i*pi*k, k a nonzero integer."""
    if isinstance(spectrum, Spectrum):
        values = spectrum.eigenvalues
    else:
        values = tuple(spectrum)
    if not values:
        raise ValueError("spectrum must be nonempty")
    return spectrum_congruence_free(values, tol)


def _congruence_flags(spectra, tol: float) -> tuple[bool, bool, bool]:
    """``congruence_free`` of the eigenvalues of F, G and F + G, in order."""
    flags = []
    for name, values in zip(("F", "G", "F + G"), spectra):
        try:
            flags.append(congruence_free(values, tol))
        except OverflowError as exc:
            raise SpectrumOverflowError(f"the spectrum of {name} overflows: {exc}") from exc
    return tuple(flags)


def relation_report(
    f, g, cfg: TScanConfig, *,
    pair: str = "",
    include_triangularizable: bool = False,
) -> RelationReport:
    """Aggregate every check for one pair."""
    verdicts = [check_commute(f, g, cfg.tol)]
    if as_matrix(f).shape[0] == 2:
        scanned, flags = _scan_2x2(f, g, cfg)
        verdicts.extend(scanned)
    else:
        verdicts.append(check_exp_equal(f, g, cfg.tol))
        verdicts.append(check_exp_swap(f, g, cfg.tol))
        for t in cfg.t_values:
            verdicts.append(check_relation_star(f, g, t, cfg.tol))
            verdicts.append(check_relation_star(f, g, t, cfg.tol, swapped=True))
        flags = _congruence_flags([_polished_roots(as_matrix(m))
                                   for m in (f, g, combine_affine(f, g, 1.0))], cfg.tol)
    # every finite residual is at most 2, so the sum is finite iff all are
    if not math.isfinite(sum(map(_RESIDUAL, verdicts))):
        bad = next(v for v in verdicts if not math.isfinite(v.residual))
        at = "" if bad.t is None else f" at t = {bad.t}"
        raise ResidualOverflowError(
            f"the {bad.relation.value} residual{at} is not finite: "
            "an exponential or its norm overflows")
    trig = None
    if include_triangularizable:
        trig = sim_triangularizable(f, g).triangularizable
    return RelationReport(pair, tuple(verdicts), flags, trig)
