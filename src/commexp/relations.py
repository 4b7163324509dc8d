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

Default tolerance is 1e-9.  Measured margins on either side of it: star
residuals of the ``theorem2`` branch-1 pair stay at or below 1.4e-15 over
t <= 1e4, those of commuting non-normal pairs (G = 0.1 F^2 + 2 F, d = 2 and
3, ||F|| up to 3) at or below 2.9e-13 over t <= 100, and the intro pair's
failing star verdicts keep residuals of at least 1.06e-2 over t <= 1e4
(the tests pin 1e-14 and 1e-2 over t = 1..1000).

A ``TScanConfig`` is one tuple of t values, each an int of either sign (0
included) or a complex number, in any order; ``relation_report`` gives
exp-equal and exp-swap, then star and swapped star per t in that order.  It
chooses its path by the pair's dimension.  At d = 2 it takes every
exponential once, in one stacked closed-form call over [G, F, t F for each t,
t F + G for each t, F + G].  The products with exp(G), on the right and on
the left, are one matrix product (GEMM) each over the rows [exp(F), exp(t F)
for each t]; every residual comes from one stacked Frobenius norm, and the
verdicts are built in bulk from the residual array.  Each verdict is what
the scalar ``check_*`` functions give (residuals to rounding).  The
congruence flags of F, G and F + G read the eigenvalues mu +/- s that the
same call computes for the first two rows and the last, so the d = 2 path
makes no ``eigen_decompose`` call.  At d = 3 it runs the scalar checks
itself: ``check_exp_equal``, ``check_exp_swap``, then
``check_relation_star`` and its swapped form per t, six exponentials per t
(star and swapped star each take exp(t F + G), exp(t F) and exp(G)); the
flags read the polished roots of F, G and F + G, which ``eigen_decompose``
would cluster: a cluster's mean can hide two roots that differ by 2 i pi
once ||M|| is ~1e8 or more.  At either dimension an infinite eigenvalue
difference raises ``SpectrumOverflowError`` naming the matrix; past the
flags, a residual that is not finite (an exponential, or its norm,
overflowed on a finite spectrum) raises ``ResidualOverflowError`` naming
the relation and its t, instead of reading as a failed verdict.  So the
report runs with floating-point warnings off: an overflow reaches the caller
as that one typed error.  With ``include_triangularizable`` the report adds
the verdict of ``simtrig.sim_triangularizable``, which at d = 2 is one
test, det [F, G] = 0.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ResidualOverflowError, SpectrumOverflowError
from .expmkit import _expm_2x2_with_eigenvalues, expm, expm_affine
from .frozen import Frozen
from .numkernel import (
    CMat,
    Spectrum,
    _polished_roots,
    as_matrix,
    combine_affine,
    frobenius,
)
from .simtrig import sim_triangularizable

DEFAULT_TOL = 1e-9


class RelationKind(enum.Enum):
    COMMUTE = "commute"
    SUM_PRODUCT = "sum-product"
    SUM_PRODUCT_SWAPPED = "sum-product-swapped"
    EXP_EQUAL = "exp-equal"
    EXP_SWAP = "exp-swap"


class RelationVerdict(NamedTuple):
    """One judged relation; immutable.  A NamedTuple, as a d = 2 report
    builds 2T + 3 of them in bulk (``tuple.__new__``); it checks nothing, so
    it needs no ``frozen.Frozen`` class, and every CLI process that loads
    this module builds it in ~0.05 ms, against ~0.42 ms as a frozen
    dataclass."""

    relation: RelationKind
    holds: bool
    residual: float
    tol: float
    t: complex | None = None


class TScanConfig(Frozen):
    """The t values of a scan, ints and complex numbers in any order."""

    __slots__ = ("t_values", "tol")

    def __init__(self, t_values: tuple[int | complex, ...], tol: float = DEFAULT_TOL):
        t_values = tuple(t_values)
        if not t_values:
            raise ValueError("a t scan needs at least one t")
        if tol <= 0:
            raise ValueError("tol must be positive")
        self._store(t_values, tol)

    @classmethod
    def through(cls, t_max: int, tol: float = DEFAULT_TOL) -> "TScanConfig":
        return cls(tuple(range(1, t_max + 1)), tol)


class RelationReport(NamedTuple):
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
    """[G, F, t F for each t, t F + G for each t, F + G] as one (3 + 2T, d, d)
    array.

    Each row is rounded as the scalar checks round it: t F + G as
    ``combine_affine`` (pi-scaled entries combined first, then multiplied by
    pi, when F and G both carry the factor), t F as ``check_relation_star``
    and F + G as ``combine_affine(f, g, 1.0)``.
    """
    t = np.array((*t_values, 1), dtype=complex)[:, None, None]
    if isinstance(f, CMat) and isinstance(g, CMat) and f.pi_scaled == g.pi_scaled:
        tf = t * f.entries
        stack = np.concatenate([g.entries[None], f.entries[None], tf[:-1], tf + g.entries])
        return stack * math.pi if f.pi_scaled else stack
    a, b = as_matrix(f), as_matrix(g)
    tf = t[:-1] * f.entries * math.pi if isinstance(f, CMat) and f.pi_scaled else t[:-1] * a
    return np.concatenate([b[None], a[None], tf, t * a + b])


def _scan_2x2(
    f, g, cfg: TScanConfig,
) -> tuple[list[RelationVerdict], np.ndarray, tuple[bool, bool, bool]]:
    """exp-equal, exp-swap, then star and swapped star per t of a 2x2 pair,
    their residuals as an array in that order, and the congruence flags of
    F, G and F + G, from one stacked exponential.

    Each of exp(F), exp(G), exp(t F + G) and exp(t F) is taken once.  The
    products with exp(G) on either side are one matrix product each over
    the rows [exp(F), exp(t F) for each t]: the (n, 2, 2) stack read as
    (2n, 2) rows times exp(G), and exp(G) times the stack laid out as
    (2, 2n) columns.  Every residual is ``_relative_residual`` over the
    stack, and the flags read the eigenvalues of F, G and F + G: rows 1, 0
    and -1.
    """
    n = len(cfg.t_values)
    e, lams = _expm_2x2_with_eigenvalues(_scan_stack(f, g, cfg.t_values))
    eg, sums = e[0], e[2 + n:-1]
    rows = e[1:2 + n]  # exp(F), then exp(t F) for each t
    right = (rows.reshape(-1, 2) @ eg).reshape(-1, 2, 2)
    left = (eg @ rows.transpose(1, 0, 2).reshape(2, -1)).reshape(2, -1, 2).transpose(1, 0, 2)
    # sides[0] and sides[1] are the two sides of each verdict's equation, in
    # verdict order: exp-equal, exp-swap, then (star, swapped star) per t
    sides = np.empty((3, n + 1, 2, 2, 2), dtype=complex)
    sides[0, 0, 0], sides[0, 0, 1], sides[0, 1:] = e[1], right[0], sums[:, None]
    sides[1, :, 0], sides[1, :, 1], sides[1, 0, 0] = right, left, eg
    np.subtract(sides[0], sides[1], out=sides[2])
    lhs_norm, rhs_norm, diff_norm = frobenius(sides.reshape(-1, 2, 2)).reshape(3, -1)
    # fmax, as Python's max, passes over a NaN norm
    residuals = diff_norm / np.fmax(np.fmax(lhs_norm, rhs_norm), 1.0)
    tol = cfg.tol
    kinds = [RelationKind.EXP_EQUAL, RelationKind.EXP_SWAP]
    kinds += [RelationKind.SUM_PRODUCT, RelationKind.SUM_PRODUCT_SWAPPED] * n
    ts = [None, None, *itertools.chain.from_iterable(zip(cfg.t_values, cfg.t_values))]
    # tuple.__new__ builds each verdict from its fields at C level, skipping
    # the NamedTuple's Python-level __new__
    fields = zip(kinds, (residuals <= tol).tolist(), residuals.tolist(), itertools.repeat(tol), ts)
    verdicts = list(map(tuple.__new__, itertools.repeat(RelationVerdict), fields))
    return verdicts, residuals, _congruence_flags(lams[:, [1, 0, -1]].T.tolist(), tol)


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
    """True when no two eigenvalues differ by 2*i*pi*k with integer k != 0,
    within tol * max(1, |delta|) for the difference delta.

    Per pair only one k is tested: the nonzero integer nearest
    delta.imag / 2 pi, which minimises |delta - 2*i*pi*k| over k != 0 (the
    bound does not depend on k).  A non-finite difference raises
    ValueError when its modulus is NaN and OverflowError when it is infinite.
    """
    values = spectrum.eigenvalues if isinstance(spectrum, Spectrum) else tuple(spectrum)
    if not values:
        raise ValueError("spectrum must be nonempty")
    for i, x in enumerate(values):
        for y in values[i + 1:]:
            delta = x - y
            size = abs(delta)
            if math.isnan(size):
                raise ValueError(f"eigenvalue difference {delta} is NaN")
            if math.isinf(size):
                raise OverflowError(f"eigenvalue difference {delta} is infinite")
            k = round(delta.imag / (2 * math.pi)) or (1 if delta.imag >= 0 else -1)
            if abs(delta - 2j * math.pi * k) <= tol * max(1.0, size):
                return False
    return True


def _congruence_flags(spectra, tol: float) -> tuple[bool, bool, bool]:
    """``congruence_free`` of the eigenvalues of F, G and F + G, in order."""
    flags = []
    for name, values in zip(("F", "G", "F + G"), spectra):
        try:
            flags.append(congruence_free(values, tol))
        except OverflowError as exc:
            raise SpectrumOverflowError(f"the spectrum of {name} overflows: {exc}") from exc
    return tuple(flags)


@np.errstate(all="ignore")
def relation_report(
    f, g, cfg: TScanConfig, *,
    pair: str = "",
    include_triangularizable: bool = False,
) -> RelationReport:
    """Aggregate every check for one pair.

    Floating-point warnings are off: every non-finite spectrum or residual
    raises a typed error instead.
    """
    verdicts = [check_commute(f, g, cfg.tol)]
    if as_matrix(f).shape[0] == 2:
        scanned, residuals, flags = _scan_2x2(f, g, cfg)
        verdicts.extend(scanned)
    else:
        verdicts.append(check_exp_equal(f, g, cfg.tol))
        verdicts.append(check_exp_swap(f, g, cfg.tol))
        for t in cfg.t_values:
            verdicts.append(check_relation_star(f, g, t, cfg.tol))
            verdicts.append(check_relation_star(f, g, t, cfg.tol, swapped=True))
        flags = _congruence_flags([_polished_roots(as_matrix(m))
                                   for m in (f, g, combine_affine(f, g, 1.0))], cfg.tol)
        residuals = [v.residual for v in verdicts[1:]]
    if not (math.isfinite(verdicts[0].residual) and np.isfinite(residuals).all()):
        bad = next(v for v in verdicts if not math.isfinite(v.residual))
        at = "" if bad.t is None else f" at t = {bad.t}"
        raise ResidualOverflowError(
            f"the {bad.relation.value} residual{at} is not finite: "
            "an exponential or its norm overflows")
    trig = None
    if include_triangularizable:
        trig = sim_triangularizable(f, g).triangularizable
    return RelationReport(pair, tuple(verdicts), flags, trig)
