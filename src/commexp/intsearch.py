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
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ConstraintError

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


@dataclass(frozen=True)
class SquarePoly:
    """P(T) = alpha^2 T^2 + beta T + gamma with alpha a positive integer."""

    alpha: int
    beta: int
    gamma: int

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not isinstance(getattr(self, name), int):
                raise ConstraintError(f"{name} must be an integer")
        if self.alpha < 1:
            raise ConstraintError("alpha must be a positive integer")

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


@dataclass(frozen=True, slots=True)
class Survivor:
    params: tuple
    residuals: tuple


@dataclass(frozen=True)
class SearchOutcome:
    """Deterministic record of an exhaustive scan."""

    survivors: tuple[Survivor, ...]
    tuples_scanned: int
    bounds: dict
    pruned: int
    prune_reasons: dict
    first_failure: int | None = None
    metadata: dict = field(default_factory=dict)


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
# bounded replacement for the computer-algebra elimination (type III4)


def _iii4_cleared_entries(l1, l2, m1, m2, m3, n1, n2, rho, sigma):
    """(m1 - m2) times the six pinned entries, all-integer when inputs are.

    Order: (a33, a12, a23, a31, a11, a22)."""
    diff = m1 - m2
    lprod = l1 * l2
    cubic = m3 * (m3 - n1) * (m3 - n2)
    e2 = m1 * m2 + m2 * m3 + m3 * m1
    k1 = (l1 + l2) * (m1 + m3) + lprod + e2 - n1 * n2
    k2 = (l1 + l2) * (m2 + m3) + lprod + e2 - n1 * n2
    return (
        rho * diff * diff,
        (rho * (m1 + m2) + sigma) * diff * diff,
        (rho * (m2 * m2 - m3 * m3) + sigma * (m2 - m3)) * diff - ((m2 - m3) * lprod + cubic),
        (rho * (m3 * m3 - m1 * m1) + sigma * (m3 - m1)) * diff + ((m1 - m3) * lprod + cubic),
        rho * (m2 - m3) * diff + k1,
        rho * (m3 - m1) * diff - k2,
    )


def _iii4_residuals_cleared(base_params, lam, n, nt1, nt2, rho, sigma):
    """(m1 - m2) * (n * a_ij - a~_ij) with rho~ = n rho, sigma~ = n(sigma - 2 lam rho)."""
    l1, l2, m1, m2, m3, n1, n2 = base_params
    base = _iii4_cleared_entries(l1, l2, m1, m2, m3, n1, n2, rho, sigma)
    scaled = _iii4_cleared_entries(
        n * l1, n * l2, m1 + lam, m2 + lam, m3 + lam, nt1, nt2,
        n * rho, n * (sigma - 2 * lam * rho),
    )
    return tuple([n * b - s for b, s in zip(base, scaled)])


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


def _count_iii4_base_tuples(box: int) -> int:
    """Number of tuples ``_iii4_base_tuples(box)`` yields, without enumerating them.

    The admissible (n1, n2) depend on the rest of a tuple only through its
    trace sum l1 + l2 + m1 + m2 + m3, so a histogram of that sum over the
    side conditions, weighted by the (n1, n2) count per sum, counts them all."""
    rng = range(-box, box + 1)
    nonzero = [x for x in rng if x != 0]
    l_sums = Counter(l1 + l2 for l1 in nonzero for l2 in nonzero if l1 != l2)
    m_sums = Counter(m1 + m2 + m3 for m1 in rng for m2 in rng if m1 != m2 for m3 in rng)
    trace_sums: Counter = Counter()
    for ls, lc in l_sums.items():
        for ms, mc in m_sums.items():
            trace_sums[ls + ms] += lc * mc
    return sum(count * len(_trace_pairs(total, box)) for total, count in trace_sums.items())


def _iii4_scaling_residuals(base, lam, n, nt1, nt2):
    """Cleared residuals of one scaling candidate, which no (rho, sigma) can change.

    The residuals are affine in (rho, sigma), so agreeing at (0, 0), (1, 0)
    and (0, 1) makes them constant; rows 0 and 1 vanish identically.  Both
    are exact identities (tests/test_intsearch.py), so a violation is a
    formula bug, not a property of the tuple."""
    r = _iii4_residuals_cleared(base, lam, n, nt1, nt2, 0, 0)
    if (r[0] or r[1]
            or _iii4_residuals_cleared(base, lam, n, nt1, nt2, 1, 0) != r
            or _iii4_residuals_cleared(base, lam, n, nt1, nt2, 0, 1) != r):
        raise RuntimeError(
            f"cleared residuals at {base + (lam, nt1, nt2)} depend on (rho, sigma); formula bug"
        )
    return r


def _scan_iii4_scalings(box: int, n: int):
    """Every scaling triple of every base tuple; survivors have zero residuals.

    Survivors come out sorted by params: base tuples, lambda and n~1 are all
    enumerated in increasing order."""
    rng = range(-box, box + 1)
    nonzero = [x for x in rng if x != 0]
    zeros = (Fraction(0),) * 6
    survivors = []
    scanned = outside = zero = equal = candidates = 0
    for base in _iii4_base_tuples(box):
        scanned += 1
        l1, l2, m1, m2, m3 = base[:5]
        sum_target = n * (l1 + l2) + m1 + m2 + m3
        for lam in rng:
            nt_sum = sum_target + 3 * lam
            for nt1 in nonzero:
                nt2 = nt_sum - nt1
                if abs(nt2) > box:
                    outside += 1
                elif nt2 == 0:
                    zero += 1
                elif nt2 == nt1:
                    equal += 1
                else:
                    candidates += 1
                    if not any(_iii4_scaling_residuals(base, lam, n, nt1, nt2)):
                        survivors.append(Survivor(base + (lam, nt1, nt2), zeros))
    counts = {"ntilde2_outside_box": outside, "ntilde2_zero": zero, "ntilde_equal": equal}
    return survivors, scanned, {k: v for k, v in counts.items() if v}, candidates


def grobner_replacement_search(box: int, n: int) -> SearchOutcome:
    """Exhaustive scan of type-III4 parameter tuples within |param| <= box.

    A base tuple survives when some scaling triple (lambda_shift, n~1, n~2)
    compatible with the trace identity, with the forced rho~ = n rho and
    sigma~ = n (sigma - 2 lambda rho), makes all six entry equations hold
    for some (rho, sigma).  The cleared residuals do not depend on
    (rho, sigma), and residual(a23) + residual(a31) = -l1 l2 n (n-1) (m1-m2)
    (exact identities, tests/test_intsearch.py).

    n >= 2 is the real search, whose empty survivor set is the desk-scale
    replacement for the cited computer-algebra elimination: l1 l2 != 0, so
    the sum identity rules out every base tuple at once, and the base tuples
    are counted from a histogram of their trace sums, not enumerated.
    n = 1 is the identity-scaling control (every admissible tuple must
    survive): every scaling triple is tried, and its residuals are evaluated
    in integers at three (rho, sigma) points, which must agree (RuntimeError
    otherwise); it survives iff they are all zero.  Survivors re-verify
    against the public residual operation before being reported.  The claim
    is scoped to the scanned box and says so in the metadata.
    """
    if box < 2:
        raise ConstraintError("box must be at least 2")
    if n < 1:
        raise ConstraintError("n must be a positive integer")
    _check_budget((abs(n) + 3) ** 2 * (9 * box) ** 5)
    if n >= 2:
        scanned = _count_iii4_base_tuples(box)
        survivors, reasons, candidates = [], {"eq23_eq31_sum_obstruction": scanned}, 0
    else:
        survivors, scanned, reasons, candidates = _scan_iii4_scalings(box, n)
    from .families import III4Params, case3_III4_residuals

    for s in survivors:  # re-verify against the public residual operation
        l1, l2, m1, m2, m3, n1, n2, lam, nt1, nt2 = s.params
        if any(r != 0 for r in s.residuals):
            raise RuntimeError(f"survivor {s.params} carries nonzero residuals")
        base = III4Params(l1, l2, m1, m2, m3, n1, n2, rho=0, sigma=0)
        probe = case3_III4_residuals(base, lam, n, (nt1, nt2), (0, 0))
        if tuple(x * (m1 - m2) for x in probe) != s.residuals:
            raise RuntimeError("cleared residuals disagree with the public operation")
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
