import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commexp import intsearch
from commexp.errors import ConstraintError
from commexp.families import iii4_entries
from commexp.intsearch import (
    _count_iii4_base_tuples,
    _iii4_base_tuples,
    _iii4_cleared_entries,
    _iii4_residuals_cleared,
    _scan_iii4_scalings,
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


def _random_point(seed):
    """Uniform integers in [-2^64, 2^64]: base tuple, lambda, n, n~1, n~2."""
    rng = random.Random(seed)
    draw = lambda: rng.randint(-BIG, BIG)  # noqa: E731
    base = tuple(draw() for _ in range(7))
    return rng, base, draw(), draw(), draw(), draw()


class TestIII4ClearedIdentities:
    """Polynomial identities of the cleared III4 residuals that the search
    relies on, checked at uniform random points of [-2^64, 2^64]^k: a
    nonzero polynomial of degree d vanishes at such a point with probability
    at most d / 2^65 (Schwartz-Zippel), so each example is a proof up to
    that probability.  Every variable is free (the trace identities are not
    imposed), which is stronger than what the search needs."""

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_0_and_1_vanish(self, seed):
        rng, base, lam, n, nt1, nt2 = _random_point(seed)
        rho, sigma = rng.randint(-BIG, BIG), rng.randint(-BIG, BIG)
        r = _iii4_residuals_cleared(base, lam, n, nt1, nt2, rho, sigma)
        assert r[0] == 0 and r[1] == 0

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_rows_2_to_5_do_not_depend_on_rho_sigma(self, seed):
        rng, base, lam, n, nt1, nt2 = _random_point(seed)
        rho, sigma, rho2, sigma2 = (rng.randint(-BIG, BIG) for _ in range(4))
        r = _iii4_residuals_cleared(base, lam, n, nt1, nt2, rho, sigma)
        r2 = _iii4_residuals_cleared(base, lam, n, nt1, nt2, rho2, sigma2)
        assert r[2:] == r2[2:]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_cleared_entries_match_public_entries(self, seed):
        # the survivor re-check compares these two implementations
        rng, base, *_ = _random_point(seed)
        l1, l2, m1, m2, m3, n1, n2 = base
        if m1 == m2:
            m2 += 1
        rho, sigma = (Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG)) for _ in range(2))
        for r, s in ((rho, sigma), (rho.numerator, sigma.numerator)):
            public = iii4_entries(l1, l2, m1, m2, m3, n1, n2, r, s)
            assert tuple(x * (m1 - m2) for x in public) == _iii4_cleared_entries(
                l1, l2, m1, m2, m3, n1, n2, r, s)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_sum_obstruction(self, seed):
        rng, base, lam, n, nt1, nt2 = _random_point(seed)
        rho, sigma = rng.randint(-BIG, BIG), rng.randint(-BIG, BIG)
        l1, l2, m1, m2 = base[:4]
        r = _iii4_residuals_cleared(base, lam, n, nt1, nt2, rho, sigma)
        assert r[2] + r[3] == -l1 * l2 * n * (n - 1) * (m1 - m2)


class TestIII4Search:
    @pytest.fixture(scope="class")
    def control(self):
        return grobner_replacement_search(2, 1)

    @pytest.mark.parametrize("box", sorted(BASE_TUPLES))
    def test_count_matches_enumeration(self, box):
        assert _count_iii4_base_tuples(box) == BASE_TUPLES[box]
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

    @pytest.mark.parametrize("n", [2, 3])
    def test_counted_decision_agrees_with_scanning_every_candidate(self, n):
        survivors, scanned, _, candidates = _scan_iii4_scalings(2, n)
        assert survivors == [] and candidates > 0
        assert scanned == grobner_replacement_search(2, n).tuples_scanned

    def test_identity_scaling_control(self, control):
        params = sorted(s.params for s in control.survivors)
        assert [s.params for s in control.survivors] == params
        assert len(params) == 6080
        assert hashlib.sha256(repr(params).encode()).hexdigest() == (
            "9dc22bd9db1a4273731f78d7b65ad2fdf1b99a1112931e2f7293f0da874a35da")
        assert {p[:7] for p in params} == set(_iii4_base_tuples(2))
        assert control.tuples_scanned == 1632
        assert control.metadata["scaling_candidates_tested"] == 9408
        assert control.prune_reasons == {
            "ntilde2_outside_box": 20800, "ntilde2_zero": 1216, "ntilde_equal": 1216}
        assert control.pruned == 23232
        for s in control.survivors:
            assert len(s.residuals) == 6
            assert all(type(r) is Fraction and r == 0 for r in s.residuals)

    @pytest.mark.parametrize("row, shift", [(2, lambda sigma: sigma), (0, lambda sigma: 1)],
                             ids=["row2_depends_on_sigma", "row0_nonzero"])
    def test_broken_identity_raises(self, monkeypatch, row, shift):
        cleared = intsearch._iii4_residuals_cleared

        def broken(base, lam, n, nt1, nt2, rho, sigma):
            r = cleared(base, lam, n, nt1, nt2, rho, sigma)
            return r[:row] + (r[row] + shift(sigma),) + r[row + 1:]

        monkeypatch.setattr(intsearch, "_iii4_residuals_cleared", broken)
        with pytest.raises(RuntimeError, match="formula bug"):
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
