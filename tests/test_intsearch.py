import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commexp import intsearch
from commexp.errors import ConstraintError
from commexp.intsearch import (
    III4Params,
    case3_III4_residuals,
    _base_tuples_by_trace_sum,
    _distinct_pairs,
    _identity_scaling_classes,
    _iii4_base_tuples,
    _trace_pairs,
    SquarePoly,
    grobner_replacement_search,
    is_perfect_square,
    lemma1_decide,
    lemma1_witness,
    lemma1_witness_bound,
)

# admissible base tuples per box, from brute-force enumeration of the side
# conditions
BASE_TUPLES = {2: 1632, 3: 20360, 4: 119232, 5: 466136}

BIG = 2**64


class _Point:
    """A uniform random point of [-2^64, 2^64]: base tuple, lambda, n, n~1,
    n~2 and two Fraction-valued (rho, sigma).  With ``identity_scaling`` the
    scale is n = 1 and both trace identities are imposed, n1 + n2 =
    l1 + l2 + m1 + m2 + m3 and n~1 + n~2 = n1 + n2 + 3 lambda."""

    def __init__(self, seed, identity_scaling=False):
        rng = random.Random(seed)
        draw = lambda: rng.randint(-BIG, BIG)  # noqa: E731
        while True:
            l1, l2, m1, m2, m3, n1, n2, lam, n, nt1, nt2 = (draw() for _ in range(11))
            if identity_scaling:
                n = 1
                n2 = l1 + l2 + m1 + m2 + m3 - n1
                nt2 = n1 + n2 + 3 * lam - nt1
            if (0 not in (l1, l2, n1, n2, nt1, nt2)
                    and l1 != l2 and m1 != m2 and n1 != n2 and nt1 != nt2):
                break
        self.l1, self.l2, self.m1, self.m2, self.m3, self.n1, self.n2 = l1, l2, m1, m2, m3, n1, n2
        self.lam, self.n, self.nt = lam, n, (nt1, nt2)
        self.rho_sigma = [
            tuple(Fraction(draw(), rng.randint(1, BIG)) for _ in range(2)) for _ in range(2)]

    def residuals(self, which=0):
        """The public residuals at the forced rho~ = n rho, sigma~ = n (sigma - 2 lambda rho)."""
        rho, sigma = self.rho_sigma[which]
        base = III4Params(self.l1, self.l2, self.m1, self.m2, self.m3, self.n1, self.n2,
                          rho=rho, sigma=sigma)
        scaled = (self.n * rho, self.n * (sigma - 2 * self.lam * rho))
        return case3_III4_residuals(base, self.lam, self.n, self.nt, scaled)

    def cleared(self):
        """n N_base - N_scaled, the numerators of ``_iii4_numerators`` that the
        n = 1 search compares."""
        lam = self.lam
        base = intsearch._iii4_numerators(
            self.l1, self.l2, self.m1, self.m2, self.m3, self.n1, self.n2)
        scaled = intsearch._iii4_numerators(
            self.n * self.l1, self.n * self.l2,
            self.m1 + lam, self.m2 + lam, self.m3 + lam, *self.nt)
        return tuple(self.n * b - s for b, s in zip(base, scaled))


class TestIII4ClearedIdentities:
    """Polynomial identities of the public III4 residuals (the n = 1 ones
    cleared by m1 - m2) that the search relies on, checked at uniform random
    points of [-2^64, 2^64]^k: a nonzero polynomial of degree d vanishes at
    such a point with probability at most d / 2^65 (Schwartz-Zippel), so
    each example is a proof up to that probability.  Outside the n = 1
    identities every variable is free (the trace identities are not
    imposed), which is stronger than what the search needs."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_0_and_1_vanish(self, seed):
        r = _Point(seed).residuals()
        assert r[0] == 0 and r[1] == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_2_to_5_do_not_depend_on_rho_sigma(self, seed):
        point = _Point(seed)
        assert point.residuals(0)[2:] == point.residuals(1)[2:]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sum_obstruction(self, seed):
        p = _Point(seed)
        r = p.residuals()
        assert r[2] + r[3] == -p.l1 * p.l2 * p.n * (p.n - 1)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_identity_scaling_identities(self, seed):
        p = _Point(seed, identity_scaling=True)
        lam, (nt1, nt2) = p.lam, p.nt
        diff = p.m1 - p.m2
        r = [x * diff for x in p.residuals()]
        big_p = nt1 * nt2 - p.n1 * p.n2 - 2 * lam * (p.n1 + p.n2) - 3 * lam * lam
        assert r[4] == -r[5] == big_p
        assert r[2] == -r[3] == lam * (lam + p.n1) * (lam + p.n2) + (p.m3 + lam) * big_p

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cleared_numerators(self, seed):
        p = _Point(seed)
        r = p.residuals()
        assert tuple((p.m1 - p.m2) * x for x in r[2:]) == p.cleared()

    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_cleared_recheck_agrees_with_residuals(self, seed, move, which):
        # the n = 1 search re-checks survivors by n N_base == N_scaled; with
        # ``move`` the point becomes one of its base tuple's six survivors
        p = _Point(seed, identity_scaling=True)
        if move:
            n1, n2 = p.n1, p.n2
            p.lam, *nt = [(0, n1, n2), (0, n2, n1),
                          (-n1, -n1, n2 - n1), (-n1, n2 - n1, -n1),
                          (-n2, -n2, n1 - n2), (-n2, n1 - n2, -n2)][which]
            p.nt = tuple(nt)
        nonzero = any(p.residuals())
        assert nonzero == any(p.cleared())
        assert nonzero != move


def _scan_every_candidate(box, n):
    """Brute-force reference for ``grobner_replacement_search``: every scaling
    triple of every base tuple, classified by the side conditions, and the
    admissible ones tried with the public residual operation at
    (rho, sigma) = (0, 0), which the identities above make sufficient.
    Returns the survivors' params, the base-tuple count, the prune counts,
    the candidate count and the number of base tuples whose candidates all
    have r[2] + r[3] != 0."""
    rng = range(-box, box + 1)
    survivors, reasons = [], Counter()
    scanned = candidates = obstructed = 0
    for base in _iii4_base_tuples(box):
        scanned += 1
        l1, l2, m1, m2, m3 = base[:5]
        params = III4Params(*base)
        all_obstructed = True
        for lam in rng:
            for nt1 in (x for x in rng if x):
                nt2 = n * (l1 + l2) + m1 + m2 + m3 + 3 * lam - nt1
                if abs(nt2) > box:
                    reasons["ntilde2_outside_box"] += 1
                elif nt2 == 0:
                    reasons["ntilde2_zero"] += 1
                elif nt2 == nt1:
                    reasons["ntilde_equal"] += 1
                else:
                    candidates += 1
                    r = case3_III4_residuals(params, lam, n, (nt1, nt2), (0, 0))
                    all_obstructed &= r[2] + r[3] != 0
                    if not any(r):
                        survivors.append(base + (lam, nt1, nt2))
        obstructed += all_obstructed
    return survivors, scanned, dict(reasons), candidates, obstructed


def _trace_sums_by_cube(box):
    """Reference for ``_base_tuples_by_trace_sum``: the (l1, l2) and
    (m1, m2, m3) sums counted by walking all of them, O(box^3), convolved, and
    weighted by the (n1, n2) pairs of each trace sum."""
    rng = range(-box, box + 1)
    nonzero = [x for x in rng if x != 0]
    l_sums = Counter(l1 + l2 for l1 in nonzero for l2 in nonzero if l1 != l2)
    m_sums = Counter(m1 + m2 + m3 for m1 in rng for m2 in rng if m1 != m2 for m3 in rng)
    by_sum = Counter()
    for ls, lc in l_sums.items():
        for ms, mc in m_sums.items():
            by_sum[ls + ms] += lc * mc
    return +Counter({total: count * len(_trace_pairs(total, box))
                     for total, count in by_sum.items()})


def _classes_by_ntilde1(box, by_sum):
    """Reference for ``_identity_scaling_classes``: every (lambda, n~1) of each
    trace sum classified one at a time."""
    rng = range(-box, box + 1)
    classes = Counter()
    for total, tuples in by_sum.items():
        for lam in rng:
            for nt1 in (x for x in rng if x):
                nt2 = total + 3 * lam - nt1
                if abs(nt2) > box:
                    classes["ntilde2_outside_box"] += tuples
                elif nt2 == 0:
                    classes["ntilde2_zero"] += tuples
                elif nt2 == nt1:
                    classes["ntilde_equal"] += tuples
                else:
                    classes["candidate"] += tuples
    return +classes


class TestClosedFormCounts:
    @pytest.mark.parametrize("box", range(2, 11))
    def test_distinct_pairs(self, box):
        rng = range(-box, box + 1)
        for total in range(-5 * box, 5 * box + 1):
            assert _distinct_pairs(total, box, True) == len(_trace_pairs(total, box))
            assert _distinct_pairs(total, box, False) == sum(
                1 for x in rng for y in rng if x != y and x + y == total)

    @pytest.mark.parametrize("box", [2, 3, 4])
    def test_histogram_matches_enumeration(self, box):
        by_sum = _base_tuples_by_trace_sum(box)
        assert by_sum == Counter(sum(t[:5]) for t in _iii4_base_tuples(box))
        assert all(by_sum.values())

    @pytest.mark.parametrize("box", range(2, 16))
    def test_histogram_matches_cubic_walk(self, box):
        assert dict(_base_tuples_by_trace_sum(box)) == dict(_trace_sums_by_cube(box))

    @pytest.mark.parametrize("box", range(2, 9))
    def test_classes_match_ntilde1_loop(self, box):
        by_sum = _base_tuples_by_trace_sum(box)
        assert dict(_identity_scaling_classes(box, by_sum)) == dict(_classes_by_ntilde1(box, by_sum))

    def test_search_at_n_two_enumerates_nothing(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerated")

        monkeypatch.setattr(intsearch, "_iii4_base_tuples", refuse)
        monkeypatch.setattr(intsearch, "_trace_pairs", refuse)
        out = grobner_replacement_search(5, 2)
        assert out.tuples_scanned == out.pruned == BASE_TUPLES[5] == 466136


# the n = 1 control per box: survivor count, sha256 of repr(sorted(params)),
# candidates tested and prune counts, as the search reported them when its
# survivors were re-checked through ``case3_III4_residuals``
IDENTITY_SCALING = {
    2: (6080, "9dc22bd9db1a4273731f78d7b65ad2fdf1b99a1112931e2f7293f0da874a35da", 9408,
        {"ntilde2_outside_box": 20800, "ntilde2_zero": 1216, "ntilde_equal": 1216}),
    3: (85296, "76ed2114897b62ff10b5be92e3ab8dbfd9cdc1a896a569bb67e16e16a815eab4", 203600,
        {"ntilde2_outside_box": 570080, "ntilde2_zero": 40720, "ntilde_equal": 40720}),
}


class TestIII4Search:
    @pytest.mark.parametrize("box", sorted(BASE_TUPLES))
    def test_count_matches_enumeration(self, box):
        assert sum(_base_tuples_by_trace_sum(box).values()) == BASE_TUPLES[box]
        assert sum(1 for _ in _iii4_base_tuples(box)) == BASE_TUPLES[box]

    @pytest.mark.parametrize("box", [3, 4, 5])
    def test_no_scaling_for_n_at_least_two(self, box):
        for n in range(2, 10):
            out = grobner_replacement_search(box, n)
            assert out.survivors == ()
            assert out.tuples_scanned == out.pruned == BASE_TUPLES[box]
            assert out.prune_reasons == {"eq23_eq31_sum_obstruction": BASE_TUPLES[box]}
            assert out.bounds == {"box": box, "n": n}
            assert out.first_failure is None
            assert out.metadata == {
                "claim_scope": f"exhaustive over all admissible tuples with |parameter| <= {box}",
                "scaling_candidates_tested": 0,
            }

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_counted_decision_agrees_with_scanning_every_candidate(self, n):
        out = grobner_replacement_search(2, n)
        survivors, scanned, reasons, candidates, obstructed = _scan_every_candidate(2, n)
        assert [s.params for s in out.survivors] == survivors
        assert out.tuples_scanned == scanned == BASE_TUPLES[2]
        assert candidates > 0
        if n == 1:
            assert out.prune_reasons == reasons
            assert out.pruned == sum(reasons.values())
            assert out.metadata["scaling_candidates_tested"] == candidates
            assert survivors
        else:
            assert out.prune_reasons == {"eq23_eq31_sum_obstruction": obstructed}
            assert obstructed == scanned

    def test_identity_scaling_control(self):
        for box, (count, digest, candidates, reasons) in IDENTITY_SCALING.items():
            control = grobner_replacement_search(box, 1)
            params = sorted(s.params for s in control.survivors)
            assert [s.params for s in control.survivors] == params
            assert len(params) == count
            assert hashlib.sha256(repr(params).encode()).hexdigest() == digest
            assert {p[:7] for p in params} == set(_iii4_base_tuples(box))
            assert control.tuples_scanned == BASE_TUPLES[box]
            assert control.metadata["scaling_candidates_tested"] == candidates
            assert control.prune_reasons == reasons
            assert control.pruned == sum(reasons.values())
            for s in control.survivors:
                assert len(s.residuals) == 6
                assert all(type(r) is int and r == 0 for r in s.residuals)

    @pytest.mark.parametrize("row", [2, 3, 4, 5])
    def test_broken_entry_formula_raises(self, monkeypatch, row):
        # adding m1 (m1 - m2) to the numerator of entry ``row`` adds m1 to that
        # entry, which makes its n = 1 residual -lambda; the survivor re-check
        # sees it at the first survivor with lambda != 0
        numerators = intsearch._iii4_numerators
        i = row - 2  # entries 2..5 are the ones with a (rho, sigma)-free numerator

        def broken(l1, l2, m1, m2, m3, n1, n2):
            num = numerators(l1, l2, m1, m2, m3, n1, n2)
            return num[:i] + (num[i] + m1 * (m1 - m2),) + num[i + 1:]

        point = (1, 2, 3, 1, 0, 4, 2, 0, 0)  # m1 = 3
        before = intsearch.iii4_entries(*point)
        monkeypatch.setattr(intsearch, "_iii4_numerators", broken)
        after = intsearch.iii4_entries(*point)
        assert [a - b for a, b in zip(after, before)] == [3 * (k == row) for k in range(6)]
        with pytest.raises(RuntimeError, match="nonzero residuals"):
            grobner_replacement_search(2, 1)

    def test_validation(self):
        with pytest.raises(ConstraintError):
            grobner_replacement_search(1, 2)
        with pytest.raises(ConstraintError):
            grobner_replacement_search(2, 0)
        with pytest.raises(TypeError):
            grobner_replacement_search(2, 2, workers=2)


@st.composite
def _non_square_polys(draw):
    """Non-square SquarePoly, half of them (alpha t + r)^2 + k with k small,
    which take square values at many small t."""
    alpha = draw(st.integers(1, 40))
    if draw(st.booleans()):
        r = draw(st.integers(-10**4, 10**4))
        k = draw(st.integers(-500, 500).filter(bool))
        p = SquarePoly(alpha, 2 * alpha * r, r * r + k)
    else:
        p = SquarePoly(alpha, draw(st.integers(-10**6, 10**6)), draw(st.integers(-10**6, 10**6)))
    assume(not lemma1_decide(p))
    return p


class TestLemma1WitnessBound:
    """With X = 2 alpha^2 t + beta and D = 4 alpha^2 gamma - beta^2 != 0,
    P(t) = s^2 forces (2 alpha s - X)(2 alpha s + X) = D, so P(t) is not a
    square once X > |D|."""

    @settings(max_examples=400, deadline=None)
    @given(_non_square_polys())
    def test_bound_is_a_witness(self, p):
        bound = lemma1_witness_bound(p)
        disc = abs(4 * p.alpha**2 * p.gamma - p.beta**2)
        assert bound >= 1
        assert 2 * p.alpha**2 * bound + p.beta > disc
        assert bound == 1 or 2 * p.alpha**2 * (bound - 1) + p.beta <= disc
        assert not is_perfect_square(p(bound))
        t = lemma1_witness(p, bound)
        assert t is not None and 1 <= t <= bound

    def test_squares_below_the_bound(self):
        # t^2 + 2t - 35 = (t + 1)^2 - 36 is square at t = 5 and t = 9 (0 and
        # 64); D = -144, so the bound is the first t with 2t + 2 > 144
        p = SquarePoly(1, 2, -35)
        assert [t for t in range(1, 80) if is_perfect_square(p(t))] == [5, 9]
        assert lemma1_witness_bound(p) == 72

    def test_square_polynomial_has_no_bound(self):
        with pytest.raises(ConstraintError):
            lemma1_witness_bound(SquarePoly(3, 12, 4))


_small = st.integers(-30, 30)


@st.composite
def _a1_params(draw):
    """(m1, m2, n1, n2) with m1 + m2 != n1 + n2; half of them degenerate,
    with some m_i equal to some n_j."""
    m1, m2, n1, n2 = (draw(_small) for _ in range(4))
    if draw(st.booleans()):
        m, n = draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]))
        ms, ns = [m1, m2], [n1, n2]
        ns[n] = ms[m]
        m1, m2, n1, n2 = *ms, *ns
    assume(m1 + m2 != n1 + n2)
    return m1, m2, n1, n2


_rationals = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@st.composite
def _iii2ii_products(draw):
    """(p1, p2, p3) with a nonzero sum; a third of them have p1 = 0 and a
    third p2 + p3 = 0, the degenerate cases."""
    p1, p2, p3 = (draw(_rationals) for _ in range(3))
    kind = draw(st.integers(0, 2))
    if kind == 1:
        p1 = Fraction(0)
    elif kind == 2:
        p3 = -p2
    assume(p1 + p2 + p3 != 0)
    return p1, p2, p3


class TestNullDiscriminants:
    """The null-discriminant identities behind both scans, and the
    square-polynomial lemma on their polynomials."""

    @settings(max_examples=300, deadline=None)
    @given(_a1_params())
    def test_a1_identity(self, params):
        m1, m2, n1, n2 = params
        poly = intsearch.a1_discriminant_poly(*params)
        product = (m1 - n1) * (m1 - n2) * (m2 - n1) * (m2 - n2)
        assert poly.beta**2 - 4 * poly.alpha**2 * poly.gamma == 16 * product
        assert lemma1_decide(poly) == (product == 0)
        self._check_squareness(poly)

    @settings(max_examples=300, deadline=None)
    @given(_iii2ii_products(), st.integers(-9, 9).filter(bool))
    def test_iii2ii_identity(self, products, m):
        p1, p2, p3 = products
        poly, _ = intsearch.iii2ii_discriminant_poly(products, m)
        assert lemma1_decide(poly) == (p1 * (p2 + p3) == 0)
        self._check_squareness(poly)

    @staticmethod
    def _check_squareness(poly):
        if lemma1_decide(poly):
            assert all(is_perfect_square(poly(n)) for n in range(1, 51))
        else:
            assert not is_perfect_square(poly(lemma1_witness_bound(poly)))

    @pytest.mark.parametrize("scan", [
        lambda n_max: intsearch.discriminant_scan_A1(1, 8, 5, 9, n_max),
        lambda n_max: intsearch.discriminant_scan_III2ii((1, Fraction(1, 2), 3), 2, n_max),
    ], ids=["a1", "iii2ii"])
    @pytest.mark.parametrize("n_max", [0, -1, -50])
    def test_scan_needs_a_positive_n_max(self, scan, n_max):
        with pytest.raises(ConstraintError, match="n_max must be a positive integer"):
            scan(n_max)
        assert scan(1).tuples_scanned == 1
