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

A ``TScanConfig`` is one tuple of t values, each a finite int of either
sign (0 included) or a finite complex number, in any order; it refuses a
non-finite t, or an int past the float range, by name.  ``relation_report``
gives exp-equal and exp-swap, then star and swapped star per t in that
order.  It chooses its path by the
pair's dimension.  At d = 2 it takes every exponential once, in one stacked
closed-form call over [G, F, t F for each t, t F + G for each t, F + G].
What that path reads of the t values alone, the complex array of the t
values and 1 that ``affine_rows`` scales F by and the relation and t of
each verdict, the config builds once, when it is made, so the reports of
one scan share it.  The products with exp(G), on the right and on
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
once ||M|| is ~1e8 or more.  At either dimension an infinite or NaN
eigenvalue difference raises ``SpectrumOverflowError`` naming the matrix;
past the flags, a residual that is not finite (an exponential, or its norm,
overflowed on a finite spectrum) raises ``ResidualOverflowError`` naming
the relation and its t, instead of reading as a failed verdict.  At d = 3
each norm is ``math.hypot``'s, which overflows only past the float range,
~1.8e308.  At d = 2 the residuals come from one stacked norm (numpy's
``einsum``), whose squares overflow once an entry of a side passes ~1e154;
when the residuals' sum is not finite, each stacked norm that is not
finite is taken again by ``math.hypot``, and the finite ones keep their
bits.  So at either dimension a residual is refused only when an
exponential or its norm passes the float range: diag(400, 0) against 0,
whose e^400 is ~5.2e173, reports at d = 2 as at d = 3.  The report runs
with floating-point warnings off: an overflow reaches the caller as that
one typed error.  With ``include_triangularizable`` the report adds
the verdict of ``simtrig.sim_triangularizable``, which at d = 2 is one
test, det [F, G] = 0.  The matrices of F and G and their Frobenius norms
are taken once and serve both the commute check and that test.  At d = 2
the norms are Python arithmetic on the entries, and each of the two takes
[F, G] as its three entries c00, c01, c10 in Python complex arithmetic
(``simtrig._commutator_2x2``), the commute check from the matrices and the
test from their entries scaled to unit norm.

A pair becomes arrays in ``numkernel``, not here: ``matrix_pair`` gives
the matrices of F and G and refuses unequal shapes, and ``affine_rows``
gives the rows t F and t F + G under the one rule for a deferred pi
factor.  The d = 2 stack, ``check_relation_star`` and the d = 3 flags
(through ``combine_affine``) all take their rows from it, so every path
rounds t F + G alike and none builds a validated ``CMat``: a t F that
overflows reaches the non-finite residual rule above at either dimension.

At d = 2 and t = 1..3 nearly all of a report's cost is numpy's fixed
cost per call, so it makes as few calls as it can: one stacked
exponential (cheapest on a stack whose every row snaps exactly, where the
closed form does not run), the two products, the sides and their norms,
and the commute check and triangularizability test in Python arithmetic
on the entries.  The flags test the eigenvalue difference of F, G and
F + G in Python arithmetic, and the finiteness of the residuals is read
from their sum, which also decides whether any norm is taken again.  At
t = 1..100 the exponential stack and the building of the verdicts from
the residual array take most of a report.  The
config's t rows and verdict heads, int-to-complex conversion and list
building, are paid once per config instead, so the saving needs many
reports under one config.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import ResidualOverflowError, SpectrumOverflowError
from .expmkit import _expm_2x2_with_eigenvalues, expm
from .frozen import Frozen
from .numkernel import (
    _polished_roots,
    affine_rows,
    combine_affine,
    frobenius,
    frobenius_2x2,
    matrix_pair,
)
from .simtrig import _commutator_2x2, _commutator_norm_2x2, _sim_triangularizable

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
    this module builds it faster than it would a frozen dataclass."""

    relation: RelationKind
    holds: bool
    residual: float
    tol: float
    t: complex | None = None


def _complex_or_inf(t) -> complex:
    """complex(t), or inf for an int past the float range."""
    try:
        return complex(t)
    except OverflowError:
        return complex(math.inf)


class TScanConfig(Frozen):
    """The t values of a scan, finite ints and complex numbers in any order.

    Its fields are (t_values, tol).  Two more slots hold what every d = 2
    report of the scan reads of its t values, built once with the config:
    ``_t_rows``, the read-only complex array of the t values and 1, and
    ``_heads``, the relation and t of each verdict after commute, in report
    order.  They are not fields, so eq, hash, repr, copy and pickle read
    only (t_values, tol), and a copy or an unpickled config builds them
    again."""

    __slots__ = ("t_values", "tol", "_t_rows", "_heads")
    _fields = ("t_values", "tol")

    def __init__(self, t_values: tuple[int | complex, ...], tol: float = DEFAULT_TOL):
        t_values = tuple(t_values)
        if not t_values:
            raise ValueError("a t scan needs at least one t")
        if tol <= 0:
            raise ValueError("tol must be positive")
        try:
            t_rows = np.array((*t_values, 1), dtype=complex)
        except OverflowError:  # an int past the float range, refused below
            t_rows = np.array([_complex_or_inf(t) for t in (*t_values, 1)])
        finite = np.isfinite(t_rows)
        if not finite.all():
            raise ValueError(f"t = {t_values[int(finite.argmin())]} is not finite")
        t_rows.setflags(write=False)
        kinds = (RelationKind.EXP_EQUAL, RelationKind.EXP_SWAP,
                 *(RelationKind.SUM_PRODUCT, RelationKind.SUM_PRODUCT_SWAPPED) * len(t_values))
        ts = (None, None, *itertools.chain.from_iterable(zip(t_values, t_values)))
        self._store(t_values, tol)
        object.__setattr__(self, "_t_rows", t_rows)
        object.__setattr__(self, "_heads", (kinds, ts))

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


def _scan_2x2(
    f, g, a: np.ndarray, b: np.ndarray, cfg: TScanConfig,
) -> tuple[list[RelationVerdict], float, tuple[bool, bool, bool]]:
    """exp-equal, exp-swap, then star and swapped star per t of a 2x2 pair,
    the sum of their residuals, and the congruence flags of F, G and F + G,
    from one stacked exponential.

    The stack is [G, F, t F for each t, t F + G for each t, F + G]: b and a
    (``matrix_pair``), then the rows of one ``affine_rows`` call over the t
    values and 1.  Each of exp(F), exp(G), exp(t F + G) and exp(t F) is
    taken once.  The products with exp(G) on either side are one matrix
    product each over the rows [exp(F), exp(t F) for each t]: the (n, 2, 2)
    stack read as (2n, 2) rows times exp(G), and exp(G) times the stack laid
    out as (2, 2n) columns.  Every residual is ``_relative_residual`` over the
    stack, from one stacked norm; when their sum is not finite, each norm
    that is not finite is taken again one matrix at a time, as at d = 3.
    The flags read the eigenvalue differences (mu + s) - (mu - s) of F, G
    and F + G: rows 1, 0 and -1.
    """
    n = len(cfg.t_values)
    tf, tfg = affine_rows(f, g, cfg._t_rows)
    e, lams = _expm_2x2_with_eigenvalues(np.concatenate([b[None], a[None], tf[:-1], tfg]))
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
    stack = sides.reshape(-1, 2, 2)
    norms = frobenius(stack)
    residual_array, residuals, total = _stack_residuals(norms)
    if not math.isfinite(total):
        # the stacked squares overflow once an entry passes ~1e154: take each
        # norm that is not finite again by math.hypot, and keep the others
        for i in np.flatnonzero(~np.isfinite(norms)).tolist():
            norms[i] = frobenius(stack[i])
        residual_array, residuals, total = _stack_residuals(norms)
    tol = cfg.tol
    kinds, ts = cfg._heads
    # tuple.__new__ builds each verdict from its fields at C level, skipping
    # the NamedTuple's Python-level __new__
    fields = zip(kinds, (residual_array <= tol).tolist(), residuals, itertools.repeat(tol), ts)
    verdicts = list(map(tuple.__new__, itertools.repeat(RelationVerdict), fields))
    # the eigenvalues mu + s and mu - s of F and G (rows 1 and 0) and of F + G
    (f1, g1), (f2, g2) = lams[:, 1::-1].tolist()
    s1, s2 = lams[:, -1].tolist()
    return verdicts, total, _congruence_flags([[f1 - f2], [g1 - g2], [s1 - s2]], tol)


def _stack_residuals(norms: np.ndarray) -> tuple[np.ndarray, list[float], float]:
    """The residual of each verdict of ``_scan_2x2`` from the norms of its
    left sides, right sides and differences, in that order: as an array, as
    a list and the list's sum."""
    lhs_norm, rhs_norm, diff_norm = norms.reshape(3, -1)
    # fmax, as Python's max, passes over a NaN norm
    residual_array = diff_norm / np.fmax(np.fmax(lhs_norm, rhs_norm), 1.0)
    residuals = residual_array.tolist()
    return residual_array, residuals, sum(residuals)


def _commute_verdict(a, b, tol: float) -> tuple[RelationVerdict, float, float]:
    """The verdict ||[F, G]||_F / max(1, ||F||_F ||G||_F) <= tol on the
    matrices A, B of F, G, and the two norms, which ``relation_report``
    passes on to the triangularizability test.

    At d = 2 all three norms come from the eight entries in Python complex
    arithmetic (``numkernel.frobenius_2x2``; the commutator is
    ``simtrig._commutator_2x2``), cheaper than numpy's products and norms,
    whose fixed cost per call dominates at d = 2.  The norms of F and G are
    ``frobenius``'s bit for bit; the commutator's entries may differ from
    those of numpy's products in the last digits, and so may the residual.
    At d = 3 the commutator is numpy's product."""
    if a.shape[0] == 2:
        ea, eb = a.ravel().tolist(), b.ravel().tolist()
        norm_f, norm_g = frobenius_2x2(ea), frobenius_2x2(eb)
        comm_norm = _commutator_norm_2x2(_commutator_2x2(ea, eb))
    else:
        norm_f, norm_g = frobenius(a), frobenius(b)
        comm_norm = frobenius(a @ b - b @ a)
    residual = comm_norm / max(1.0, norm_f * norm_g)
    return RelationVerdict(RelationKind.COMMUTE, residual <= tol, residual, tol), norm_f, norm_g


def check_commute(f, g, tol: float = DEFAULT_TOL) -> RelationVerdict:
    return _commute_verdict(*matrix_pair(f, g), tol)[0]


def check_relation_star(
    f, g, t: complex, tol: float = DEFAULT_TOL, swapped: bool = False,
) -> RelationVerdict:
    """exp(t F + G) versus exp(t F) exp(G), or exp(G) exp(t F) when swapped."""
    tf, tfg = affine_rows(f, g, (t,))
    lhs = expm(tfg[0])
    etf = expm(tf[0])
    eg = expm(g)
    rhs = eg @ etf if swapped else etf @ eg
    kind = RelationKind.SUM_PRODUCT_SWAPPED if swapped else RelationKind.SUM_PRODUCT
    return _verdict(kind, lhs, rhs, tol, t)


def check_exp_equal(f, g, tol: float = DEFAULT_TOL) -> RelationVerdict:
    return _verdict(RelationKind.EXP_EQUAL, expm(f), expm(g), tol)


def check_exp_swap(f, g, tol: float = DEFAULT_TOL) -> RelationVerdict:
    ef, eg = expm(f), expm(g)
    return _verdict(RelationKind.EXP_SWAP, ef @ eg, eg @ ef, tol)


def _congruent(delta: complex, tol: float) -> bool:
    """Whether an eigenvalue difference delta is 2*i*pi*k for an integer
    k != 0, within tol * max(1, |delta|).

    Only one k is tested: the nonzero integer nearest delta.imag / 2 pi,
    which minimises |delta - 2*i*pi*k| over k != 0 (the bound does not
    depend on k).  A non-finite difference raises ValueError when its
    modulus is NaN and OverflowError when it is infinite.
    """
    size = abs(delta)
    if math.isnan(size):
        raise ValueError(f"eigenvalue difference {delta} is NaN")
    if math.isinf(size):
        raise OverflowError(f"eigenvalue difference {delta} is infinite")
    k = round(delta.imag / (2 * math.pi)) or (1 if delta.imag >= 0 else -1)
    return abs(delta - 2j * math.pi * k) <= tol * max(1.0, size)


def _differences(eigenvalues) -> list[complex]:
    """x - y for every pair of eigenvalues x before y."""
    return [x - y for i, x in enumerate(eigenvalues) for y in eigenvalues[i + 1:]]


def congruence_free(eigenvalues, tol: float = DEFAULT_TOL) -> bool:
    """True when no two eigenvalues differ by 2*i*pi*k with integer k != 0
    (``_congruent``), the pairs taken in order until one does."""
    values = tuple(eigenvalues)
    if not values:
        raise ValueError("spectrum must be nonempty")
    return not any(_congruent(delta, tol) for delta in _differences(values))


def _congruence_flags(differences, tol: float) -> tuple[bool, bool, bool]:
    """``congruence_free`` of F, G and F + G, in order, from the differences
    of each one's eigenvalues (``_differences``).  An infinite or NaN
    difference, which finite input gives once the matrix's norm is past the
    float range, raises ``SpectrumOverflowError`` naming the matrix."""
    flags = []
    for name, deltas in zip(("F", "G", "F + G"), differences):
        try:
            flags.append(not any(_congruent(delta, tol) for delta in deltas))
        except (OverflowError, ValueError) as exc:
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
    raises a typed error instead.  The matrices of F and G and their norms
    are taken once, for the commute check and the triangularizability test.
    """
    a, b = matrix_pair(f, g)
    commute, norm_f, norm_g = _commute_verdict(a, b, cfg.tol)
    verdicts = [commute]
    if a.shape[0] == 2:
        scanned, total, flags = _scan_2x2(f, g, a, b, cfg)
        verdicts.extend(scanned)
    else:
        verdicts.append(check_exp_equal(f, g, cfg.tol))
        verdicts.append(check_exp_swap(f, g, cfg.tol))
        for t in cfg.t_values:
            verdicts.append(check_relation_star(f, g, t, cfg.tol))
            verdicts.append(check_relation_star(f, g, t, cfg.tol, swapped=True))
        flags = _congruence_flags([_differences(_polished_roots(m))
                                   for m in (a, b, combine_affine(f, g, 1.0))], cfg.tol)
        total = sum(v.residual for v in verdicts[1:])
    # every residual is at most ~2, as ||x - y|| <= ||x|| + ||y||, so their
    # sum is finite exactly when each one is
    if not math.isfinite(verdicts[0].residual + total):
        bad = next(v for v in verdicts if not math.isfinite(v.residual))
        at = "" if bad.t is None else f" at t = {bad.t}"
        raise ResidualOverflowError(
            f"the {bad.relation.value} residual{at} is not finite: "
            "an exponential or its norm overflows")
    trig = None
    if include_triangularizable:
        trig = _sim_triangularizable(a, b, norm_f, norm_g).triangularizable
    return RelationReport(pair, tuple(verdicts), flags, trig)
