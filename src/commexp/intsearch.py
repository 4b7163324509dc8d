"""Exact integer machinery: perfect squares, the square-polynomial lemma,
discriminant scans, and the bounded exhaustive search that replaces a
computer-algebra elimination.

All arithmetic is exact (Python integers / fractions).  Inputs are validated
against a documented magnitude budget so that a search can never silently
produce garbage on astronomically large boxes; exactness is the whole point
here, so overflow must be impossible or loud.

The square-polynomial lemma: if P(T) = alpha^2 T^2 + beta T + gamma takes
perfect-square values along any strictly increasing integer sequence, then
P is the square of a linear polynomial, i.e. beta^2 = 4 alpha^2 gamma.
``lemma1_decide`` tests the exact identity; ``lemma1_witness`` finds the
smallest t at which squareness breaks when it does not hold.

The type-III4 search (``grobner_replacement_search``) stands in for the
paper's computer-algebra elimination and is decided from exact identities of
the residuals r of ``case3_III4_residuals``, with no candidate scan (that
entry algebra lives here, and ``families`` re-exports it, so no search
imports numpy).  For the scale n >= 2, r[2] + r[3] = -l1 l2 n (n - 1) != 0
rules out every tuple.  For the identity-scaling control n = 1, with both trace
identities imposed and P = n~1 n~2 - n1 n2 - 2 lambda (n1 + n2) - 3 lambda^2,
(m1 - m2) r[4] = -(m1 - m2) r[5] = P and
(m1 - m2) r[2] = -(m1 - m2) r[3] = lambda (lambda + n1)(lambda + n2) + (m3 + lambda) P,
so a scaling survives iff P = 0 and lambda is 0, -n1 or -n2.  Each survivor
is re-checked on cleared numerators, in plain integers: the shift by lambda
keeps the common denominator m1 - m2 of the entries, so at rho = sigma = 0
the residuals are r[0] = r[1] = 0 and (m1 - m2) r[2..5] = n N_base - N_scaled,
with N the numerators of ``_iii4_numerators``, and a survivor needs
n N_base == N_scaled.

Every count the search reports is closed form: the base tuples per trace sum
and the n = 1 prune classes are sums of ``_distinct_pairs`` counts, O(box^2)
in all.  Only the n = 1 survivor list is enumerated (``_iii4_base_tuples``).
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from numbers import Rational
from operator import mul
from typing import NamedTuple

from .errors import ConstraintError
from .frozen import Frozen

INTEGER_BUDGET = 2**126


def _check_budget(*values):
    for v in values:
        if abs(v) > INTEGER_BUDGET:
            raise OverflowError(
                f"magnitude {v} exceeds the 2^126 exact-arithmetic budget"
            )


def square_root_exact(n: int) -> int | None:
    """Integer square root when n is a perfect square, else None."""
    _check_budget(n)
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def is_perfect_square(n: int) -> bool:
    return square_root_exact(n) is not None


class SquarePoly(Frozen):
    """P(T) = alpha^2 T^2 + beta T + gamma with alpha a positive integer."""

    __slots__ = ("alpha", "beta", "gamma")

    def __init__(self, alpha: int, beta: int, gamma: int):
        for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not isinstance(v, int):
                raise ConstraintError(f"{name} must be an integer")
        if alpha < 1:
            raise ConstraintError("alpha must be a positive integer")
        self._store(alpha, beta, gamma)

    def __call__(self, t: int) -> int:
        return self.alpha * self.alpha * t * t + self.beta * t + self.gamma


def lemma1_decide(p: SquarePoly) -> bool:
    """True iff P is the square of a degree-one integer polynomial."""
    return p.beta * p.beta == 4 * p.alpha * p.alpha * p.gamma


def lemma1_witness_bound(p: SquarePoly) -> int:
    """A t >= 1 at which P(t) is provably not a perfect square.

    With X = 2 alpha^2 t + beta and D = 4 alpha^2 gamma - beta^2 != 0,
    4 alpha^2 P(t) = X^2 + D, so P(t) = s^2 (s >= 0) forces
    (2 alpha s - X)(2 alpha s + X) = D.  Both factors are nonzero
    integers, so once X > |D| the second exceeds |D| and no s exists.
    Returns the first t with X > |D|, at least 1.
    """
    if lemma1_decide(p):
        raise ConstraintError("a perfect-square polynomial has no witness bound")
    two_a2 = 2 * p.alpha * p.alpha
    disc = abs(4 * p.alpha * p.alpha * p.gamma - p.beta * p.beta)
    return max(1, (disc - p.beta) // two_a2 + 1)


def lemma1_witness(p: SquarePoly, t_bound: int) -> int | None:
    """Smallest t in [1, t_bound] with P(t) not a perfect square.

    Only meaningful when lemma1_decide(p) is false; calling it on a square
    polynomial is a contract violation.
    """
    if lemma1_decide(p):
        raise ConstraintError("witness requested for a polynomial that is a perfect square")
    _check_budget(p(t_bound))
    for t in range(1, t_bound + 1):
        if not is_perfect_square(p(t)):
            return t
    return None


class Survivor(NamedTuple):
    params: tuple
    residuals: tuple


class SearchOutcome(NamedTuple):
    """Deterministic record of an exhaustive scan."""

    survivors: tuple[Survivor, ...]
    tuples_scanned: int
    bounds: dict
    pruned: int
    prune_reasons: dict
    first_failure: int | None = None
    metadata: dict = {}  # shared by every outcome built without one: never mutated


# ---------------------------------------------------------------------------
# discriminant scans


def a1_discriminant_poly(m1: int, m2: int, n1: int, n2: int) -> SquarePoly:
    """Discriminant (in n) of the nonzero-eigenvalue quadratic of n*A1 + B."""
    lead = m1 + m2 - n1 - n2
    if lead == 0:
        raise ConstraintError("m1 + m2 must differ from n1 + n2")
    beta = 2 * ((m1 + m2) * (n1 + n2) - m1 * m1 - m2 * m2 - 2 * n1 * n2)
    gamma = (m1 - m2) ** 2
    return SquarePoly(abs(lead), beta, gamma)


def _scan_squareness(poly: SquarePoly, n_max: int, bounds: dict, metadata: dict) -> SearchOutcome:
    if n_max < 1:
        raise ConstraintError("n_max must be a positive integer")
    _check_budget(poly(n_max))
    survivors = []
    first_failure = None
    for n in range(1, n_max + 1):
        value = poly(n)
        root = square_root_exact(value)
        if root is None:
            if first_failure is None:
                first_failure = n
        else:
            survivors.append(Survivor(params=(n,), residuals=(0,)))  # value == root**2
    for s in survivors:  # survivors re-verify at report time
        if not is_perfect_square(poly(s.params[0])):
            raise RuntimeError(f"survivor {s} failed re-verification")
    return SearchOutcome(
        survivors=tuple(survivors),
        tuples_scanned=n_max,
        bounds=bounds,
        pruned=0,
        prune_reasons={},
        first_failure=first_failure,
        metadata=metadata,
    )


def discriminant_scan_A1(m1: int, m2: int, n1: int, n2: int, n_max: int) -> SearchOutcome:
    """Exact squareness scan of the A1-form discriminant for n = 1..n_max.

    Cross-checks the square-polynomial test against the exact identity
    beta^2 - 4 alpha^2 gamma = 16 (m1-n1)(m1-n2)(m2-n1)(m2-n2): the
    discriminant degenerates to a perfect linear square exactly when some
    m_i equals some n_j.
    """
    poly = a1_discriminant_poly(m1, m2, n1, n2)
    null_product = (m1 - n1) * (m1 - n2) * (m2 - n1) * (m2 - n2)
    decide = lemma1_decide(poly)
    if (poly.beta**2 - 4 * poly.alpha**2 * poly.gamma) != 16 * null_product:
        raise RuntimeError("null-discriminant identity violated; formula bug")
    if decide != (null_product == 0):
        raise RuntimeError("lemma1_decide disagrees with the null-discriminant condition")
    return _scan_squareness(
        poly,
        n_max,
        bounds={"m1": m1, "m2": m2, "n1": n1, "n2": n2, "n_max": n_max},
        metadata={
            "polynomial": (poly.alpha, poly.beta, poly.gamma),
            "lemma1_decide": decide,
            "null_discriminant_product": null_product,
        },
    )


def iii2ii_products(m: int, n1: int, n2: int, alpha):
    """The pinned products (a1 b1, a2 b2, a3 b3) of the outer-product family
    A = a b^T against B = diag(m, 0, 0) with A + B ~ diag(n1, n2, 0):
    -(m - n1)(m - n2) / m, n1 n2 / m - alpha and alpha, exact when alpha is
    rational (a complex alpha makes the last two complex).  The family's
    side conditions are checked first: the trace l1 = n1 + n2 - m, m, n1 and
    n2 nonzero, and n1 != n2."""
    for name, value in (("l1", n1 + n2 - m), ("m", m), ("n1", n1), ("n2", n2)):
        if value == 0:
            raise ConstraintError(f"{name} must be nonzero")
    if n1 == n2:
        raise ConstraintError("n1 must differ from n2")
    alpha = alpha if isinstance(alpha, Rational) else complex(alpha)
    return Fraction(-(m - n1) * (m - n2), m), -alpha + Fraction(n1 * n2, m), alpha


def iii2ii_discriminant_poly(products, m: int) -> tuple[SquarePoly, int]:
    """Cleared-denominator squareness polynomial for the outer-product family.

    products = (a1*b1, a2*b2, a3*b3) as exact rationals.  Returns the
    integer polynomial together with the clearing factor q: the rational
    discriminant D(n) is a rational square iff q^2 D(n) is a perfect
    integer square.
    """
    p1, p2, p3 = (Fraction(x) for x in products)
    total = p1 + p2 + p3
    if total == 0:
        raise ConstraintError("a1b1 + a2b2 + a3b3 must be nonzero")
    delta = p1 - p2 - p3
    q = math.lcm(total.denominator, delta.denominator)
    s = int(total * q)
    d = int(delta * q)
    return SquarePoly(abs(s), 2 * m * q * d, m * m * q * q), q


def discriminant_scan_III2ii(products, m: int, n_max: int) -> SearchOutcome:
    """Squareness scan for the outer-product family discriminant.

    The degenerate (always-square) case is exactly a1b1 * (a2b2 + a3b3) = 0,
    i.e. the null-discriminant identity of this family; cross-checked
    against the square-polynomial test.
    """
    if m == 0:
        raise ConstraintError("m must be nonzero")
    p1, p2, p3 = (Fraction(x) for x in products)
    poly, q = iii2ii_discriminant_poly((p1, p2, p3), m)
    decide = lemma1_decide(poly)
    null_product = p1 * (p2 + p3)
    if decide != (null_product == 0):
        raise RuntimeError("lemma1_decide disagrees with the null-discriminant identity")
    return _scan_squareness(
        poly,
        n_max,
        bounds={"m": m, "n_max": n_max},
        metadata={
            "products": tuple(str(x) for x in (p1, p2, p3)),
            "clearing_factor": q,
            "polynomial": (poly.alpha, poly.beta, poly.gamma),
            "lemma1_decide": decide,
            "null_identity_product": str(null_product),
        },
    )


# ---------------------------------------------------------------------------
# type-III4 entry algebra, exact over integers and rationals


class III4Params(Frozen):
    """Type-III4 data: A ~ diag(l1,l2,0), B = diag(m1,m2,m3), A+B ~ diag(n1,n2,0)."""

    __slots__ = ("l1", "l2", "m1", "m2", "m3", "n1", "n2", "rho", "sigma")

    def __init__(self, l1: int, l2: int, m1: int, m2: int, m3: int, n1: int, n2: int,
                 rho: complex | Fraction = 0, sigma: complex | Fraction = 0):
        if not (l1 != 0 and l2 != 0 and l1 != l2):
            raise ConstraintError("l1, l2 must be distinct and nonzero")
        if m1 == m2:
            raise ConstraintError("m1 must differ from m2")
        if not (n1 != 0 and n2 != 0 and n1 != n2):
            raise ConstraintError("n1, n2 must be distinct and nonzero")
        self._store(l1, l2, m1, m2, m3, n1, n2, rho, sigma)


def _div_exact(num, den):
    if isinstance(num, int) and isinstance(den, int):
        quotient, remainder = divmod(num, den)
        return quotient if remainder == 0 else Fraction(num, den)
    if isinstance(num, Rational) and isinstance(den, Rational):
        return Fraction(num, den)
    return num / den


def _iii4_numerators(l1, l2, m1, m2, m3, n1, n2):
    """Numerators of the (rho, sigma)-free parts of a23, a31, a11 and a22
    (``iii4_entries``), over their common denominator m1 - m2."""
    lprod = l1 * l2
    cubic = m3 * (m3 - n1) * (m3 - n2)
    e2 = m1 * m2 + m2 * m3 + m3 * m1
    return (
        -((m2 - m3) * lprod + cubic),
        (m1 - m3) * lprod + cubic,
        (l1 + l2) * (m1 + m3) + lprod + e2 - n1 * n2,
        -((l1 + l2) * (m2 + m3) + lprod + e2 - n1 * n2),
    )


def iii4_entries(l1, l2, m1, m2, m3, n1, n2, rho, sigma):
    """The six pinned entries of A, in the order (a33, a12, a23, a31, a11, a22).

    Works over exact rationals or complex floats depending on rho, sigma.
    """
    n23, n31, n11, n22 = _iii4_numerators(l1, l2, m1, m2, m3, n1, n2)
    diff = m1 - m2
    a33 = rho * diff
    a12 = rho * (m1 * m1 - m2 * m2) + sigma * diff
    a23 = rho * (m2 * m2 - m3 * m3) + sigma * (m2 - m3) + _div_exact(n23, diff)
    a31 = rho * (m3 * m3 - m1 * m1) + sigma * (m3 - m1) + _div_exact(n31, diff)
    a11 = rho * (m2 - m3) + _div_exact(n11, diff)
    a22 = rho * (m3 - m1) + _div_exact(n22, diff)
    return (a33, a12, a23, a31, a11, a22)


def case3_III4_residuals(
    p: III4Params,
    lambda_shift: int,
    n: int,
    n_tilde: tuple[int, int],
    rho_sigma_scaled: tuple,
):
    """Componentwise n * a_ij - a~_ij for the scaled parameterization.

    The scaled system reuses the entry formulas with (n*l, m + lambda_shift,
    n_tilde, rho~, sigma~); a consistent scaling has all six residuals zero.
    """
    nt1, nt2 = n_tilde
    if not (nt1 != 0 and nt2 != 0 and nt1 != nt2):
        raise ConstraintError("scaled n values must be distinct and nonzero")
    base = iii4_entries(p.l1, p.l2, p.m1, p.m2, p.m3, p.n1, p.n2, p.rho, p.sigma)
    rho_s, sigma_s = rho_sigma_scaled
    scaled = iii4_entries(
        n * p.l1, n * p.l2,
        p.m1 + lambda_shift, p.m2 + lambda_shift, p.m3 + lambda_shift,
        nt1, nt2, rho_s, sigma_s,
    )
    return tuple(n * b - s for b, s in zip(base, scaled))


# ---------------------------------------------------------------------------
# bounded replacement for the computer-algebra elimination (type III4)


def _trace_pairs(target: int, box: int) -> list[tuple[int, int]]:
    """(n1, n2) nonzero, distinct, inside the box, with n1 + n2 = target."""
    return [
        (n1, target - n1) for n1 in range(-box, box + 1)
        if n1 and target - n1 not in (0, n1) and abs(target - n1) <= box
    ]


def _iii4_base_tuples(box: int):
    """Admissible base tuples (l1, l2, m1, m2, m3, n1, n2) in lexicographic order.

    Side conditions: l1 != l2 nonzero, m1 != m2, n1, n2 nonzero distinct,
    and the trace identity n1 + n2 = l1 + l2 + m1 + m2 + m3 (forced by
    similarity of A, B, A+B to their diagonal models)."""
    rng = range(-box, box + 1)
    nonzero = [x for x in rng if x != 0]
    for l1 in nonzero:
        for l2 in nonzero:
            if l1 == l2:
                continue
            for m1 in rng:
                for m2 in rng:
                    if m1 == m2:
                        continue
                    for m3 in rng:
                        for n1, n2 in _trace_pairs(l1 + l2 + m1 + m2 + m3, box):
                            yield (l1, l2, m1, m2, m3, n1, n2)


def _distinct_pairs(total: int, box: int, nonzero: bool) -> int:
    """Ordered pairs x != y inside the box with x + y = total, both nonzero when
    ``nonzero``: (l1, l2) and (n1, n2) with it (``len(_trace_pairs(total,
    box))``), (m1, m2) without.

    x runs over 2 box + 1 - |total| values; x = y = total / 2 drops one when
    total is even, and x = 0 or y = 0 two more when 0 < |total| <= box (at
    total = 0 the zero pair is x = y)."""
    count = 2 * box + 1 - abs(total)
    if count <= 0:
        return 0
    count -= total % 2 == 0
    if nonzero and 0 < abs(total) <= box:
        count -= 2
    return count


def _base_tuples_by_trace_sum(box: int) -> Counter:
    """Number of tuples ``_iii4_base_tuples(box)`` yields per trace sum
    T = l1 + l2 + m1 + m2 + m3, without enumerating them.

    The admissible (n1, n2) depend on the rest of a tuple only through T, so a
    histogram of T over the side conditions, weighted by the (n1, n2) count per
    sum, counts them all.  The (m1, m2) counts per sum are convolved with the
    box for m3, and each T is one dot product of the (l1, l2) counts with
    those: O(box^2) in all, the products summed by ``sum(map(mul, ...))``
    rather than by Python loops over Counters."""
    # the sums T with an (n1, n2) pair; l_pairs[i] and m_pairs[i] count sum i - 2 box
    pair_sums = range(-2 * box, 2 * box + 1)
    l_pairs = [_distinct_pairs(s, box, True) for s in pair_sums]
    m_pairs = [_distinct_pairs(s, box, False) for s in pair_sums]
    # m_triples[j] counts m1 + m2 + m3 = j - 4 box: the m_pairs of the sums
    # j - 4 box - m3, a window of the zero-padded list
    pad = [0] * (3 * box)
    padded = pad + m_pairs + pad
    m_triples = [sum(padded[j:j + 2 * box + 1]) for j in range(8 * box + 1)]
    by_sum: Counter = Counter()
    for total in pair_sums:
        # l1 + l2 = s pairs with m1 + m2 + m3 = T - s; l_pairs is even in s,
        # so its sum s lines up with the m_triples entry of T + s instead
        lm = sum(map(mul, l_pairs, m_triples[total + 2 * box:total + 6 * box + 1]))
        count = lm * _distinct_pairs(total, box, True)
        if count:
            by_sum[total] = count
    return by_sum


def _identity_scaling_classes(box: int, by_sum: Counter) -> Counter:
    """How the n = 1 scaling triples (lambda, n~1, n~2) of all base tuples split,
    from their counts per trace sum (``_base_tuples_by_trace_sum``).

    lambda and n~1 != 0 range over the box and the trace identity fixes
    n~2 = S - n~1 with S = T + 3 lambda, so the split depends on a base tuple
    only through its trace sum T, and per (T, lambda) each class is a count:
    "candidate" the admissible (n~1, n~2) (``_distinct_pairs(S, box, True)``),
    "ntilde2_zero" n~1 = S, "ntilde_equal" n~1 = S / 2, and
    "ntilde2_outside_box" the rest of the 2 box values of n~1."""
    classes: Counter = Counter()
    for total, tuples in by_sum.items():
        for lam in range(-box, box + 1):
            s = total + 3 * lam
            candidate = _distinct_pairs(s, box, True)
            zero = 0 < abs(s) <= box
            equal = s != 0 and s % 2 == 0 and abs(s) <= 2 * box
            classes["candidate"] += tuples * candidate
            classes["ntilde2_zero"] += tuples * zero
            classes["ntilde_equal"] += tuples * equal
            classes["ntilde2_outside_box"] += tuples * (2 * box - candidate - zero - equal)
    return +classes  # unary + drops the classes that no base tuple reaches


def _identity_scaling_survivors(box: int) -> list[Survivor]:
    """The n = 1 survivors, sorted by params, each re-checked as it is found.

    For each base tuple, lambda = 0 with {n~1, n~2} = {n1, n2}, lambda = -n1
    with {-n1, n2 - n1} and lambda = -n2 with {-n2, n1 - n2}, both orders,
    inside the box.  The re-check compares cleared numerators, N_base with
    N_scaled at n = 1 (see ``grobner_replacement_search``), and raises
    RuntimeError when they differ."""
    zeros = (Fraction(0),) * 6
    survivors = []
    for base in _iii4_base_tuples(box):
        l1, l2, m1, m2, m3, n1, n2 = base
        cleared = _iii4_numerators(*base)
        for lam, nt1, nt2 in sorted([(0, n1, n2), (0, n2, n1),
                                     (-n1, -n1, n2 - n1), (-n1, n2 - n1, -n1),
                                     (-n2, -n2, n1 - n2), (-n2, n1 - n2, -n2)]):
            if abs(nt1) <= box and abs(nt2) <= box:
                params = base + (lam, nt1, nt2)
                if _iii4_numerators(l1, l2, m1 + lam, m2 + lam, m3 + lam, nt1, nt2) != cleared:
                    raise RuntimeError(f"survivor {params} has nonzero residuals; formula bug")
                survivors.append(Survivor(params, zeros))
    return survivors


def grobner_replacement_search(box: int, n: int) -> SearchOutcome:
    """Exhaustive decision over type-III4 parameter tuples within |param| <= box.

    A base tuple survives when some scaling triple (lambda_shift, n~1, n~2)
    compatible with the trace identity, with the forced rho~ = n rho and
    sigma~ = n (sigma - 2 lambda rho), makes all six entry equations hold
    for some (rho, sigma).  The residuals r = case3_III4_residuals(...) do
    not depend on (rho, sigma), r[0] = r[1] = 0, and
    r[2] + r[3] = -l1 l2 n (n-1) (exact identities, tests/test_intsearch.py).

    n >= 2 is the real search, whose empty survivor set is the desk-scale
    replacement for the cited computer-algebra elimination: l1 l2 != 0, so
    the sum identity rules out every base tuple at once, and the base tuples
    are counted in closed form from a histogram of their trace sums
    (``_base_tuples_by_trace_sum``), none enumerated.

    n = 1 is the identity-scaling control (every admissible tuple must
    survive).  With P = n~1 n~2 - n1 n2 - 2 lambda (n1 + n2) - 3 lambda^2,
    (m1 - m2) r[4] = -(m1 - m2) r[5] = P and
    (m1 - m2) r[2] = -(m1 - m2) r[3] = lambda (lambda + n1)(lambda + n2) + (m3 + lambda) P,
    so a triple survives iff P = 0 and lambda is 0, -n1 or -n2, which fixes
    {n~1, n~2} (see ``_identity_scaling_survivors``); the only filter left is
    |n~| <= box.  The prune and candidate counts follow in closed form from
    the trace-sum histogram (``_identity_scaling_classes``); the survivor list
    is the one thing enumerated.

    Every survivor is re-checked before being reported (RuntimeError
    otherwise), on cleared integer numerators.  With N_base the
    ``_iii4_numerators`` of (l1, l2, m1, m2, m3, n1, n2) and N_scaled those of
    (n l1, n l2, m1 + lambda, m2 + lambda, m3 + lambda, n~1, n~2), which share
    the denominator m1 - m2, the residuals at rho = sigma = 0 are
    r[0] = r[1] = 0 and (m1 - m2) r[2..5] = n N_base - N_scaled, so a
    survivor has zero residuals iff n N_base == N_scaled (tested against
    ``case3_III4_residuals``).  The claim is scoped to the scanned box and
    says so in the metadata.
    """
    if box < 2:
        raise ConstraintError("box must be at least 2")
    if n < 1:
        raise ConstraintError("n must be a positive integer")
    _check_budget((abs(n) + 3) ** 2 * (9 * box) ** 5)
    by_sum = _base_tuples_by_trace_sum(box)
    scanned = sum(by_sum.values())
    if n >= 2:
        survivors, reasons, candidates = [], {"eq23_eq31_sum_obstruction": scanned}, 0
    else:
        survivors = _identity_scaling_survivors(box)
        reasons = _identity_scaling_classes(box, by_sum)
        candidates = reasons.pop("candidate")
    return SearchOutcome(
        survivors=tuple(survivors),
        tuples_scanned=scanned,
        bounds={"box": box, "n": n},
        pruned=sum(reasons.values()),
        prune_reasons=dict(sorted(reasons.items())),
        first_failure=None,
        metadata={
            "claim_scope": f"exhaustive over all admissible tuples with |parameter| <= {box}",
            "scaling_candidates_tested": candidates,
        },
    )
