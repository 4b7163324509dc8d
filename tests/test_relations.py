import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commexp import uset
from commexp.errors import DimensionError
from commexp.families import (
    Real2DParams,
    Theorem2Params,
    dim2_case1_pair,
    intro_pair,
    real2d_family,
    theorem2_family,
)
from commexp.numkernel import CMat, eigen_decompose
from commexp.relations import (
    RelationKind,
    TScanConfig,
    check_commute,
    check_exp_equal,
    check_exp_swap,
    check_relation_star,
    congruence_free,
    relation_report,
    scan_integer_t,
)

from conftest import admissible_real_triples, random_matrix

PI = math.pi
U1 = 2.088843015613044 + 7.461489285654254j


@pytest.fixture
def theorem2_pair():
    return theorem2_family(Theorem2Params(u=U1))


class TestCheckCommute:
    def test_polynomial_in_m_commutes(self, rng):
        m = random_matrix(rng, 3)
        assert check_commute(m, m @ m + 2 * m).holds

    def test_intro_fails(self):
        a, b = intro_pair()
        assert not check_commute(a, b).holds

    def test_theorem2_canonical(self, theorem2_pair):
        v = check_commute(*theorem2_pair)
        # ||BA|| = |u| and ||A|| ||B|| = |u|, so the relative residual is 1
        assert not v.holds
        assert v.residual == pytest.approx(1.0, abs=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionError):
            check_commute(np.eye(2), np.eye(3))


class TestRelationStar:
    def test_t_zero_always_holds(self, rng):
        f, g = random_matrix(rng, 2), random_matrix(rng, 2)
        assert check_relation_star(f, g, 0.0).holds

    def test_intro_one_through_five(self):
        a, b = intro_pair()
        for t in range(1, 6):
            v = check_relation_star(a, b, t, 1e-6)
            assert v.holds and v.residual <= 1e-6

    def test_intro_six_fails_hard(self):
        a, b = intro_pair()
        v = check_relation_star(a, b, 6, 1e-6)
        assert not v.holds
        assert v.residual >= 0.5
        # root cause: det(6A+B)/pi^2 = 79681 is not a perfect square
        assert 282**2 < 79681 < 283**2


class TestExpEqual:
    def test_reflexive(self, rng):
        m = random_matrix(rng, 2)
        assert check_exp_equal(m, m).holds

    def test_two_pi_lattice(self):
        assert check_exp_equal(np.zeros((2, 2)), np.diag([2j * PI, -2j * PI])).holds

    def test_pi_lattice_fails(self):
        assert not check_exp_equal(np.zeros((2, 2)), np.diag([1j * PI, -1j * PI])).holds


class TestExpSwap:
    def test_commuting(self, rng):
        m = random_matrix(rng, 2)
        assert check_exp_swap(m, 0.5 * m @ m).holds

    def test_intro_swap_holds(self):
        a, b = intro_pair()
        v = check_exp_swap(a, b)
        assert v.holds and v.residual == 0.0

    def test_theorem2_swap_fails(self, theorem2_pair):
        assert not check_exp_swap(*theorem2_pair).holds


class TestScan:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TScanConfig((2, 3))
        with pytest.raises(ValueError):
            TScanConfig((1, 1, 2))
        with pytest.raises(ValueError):
            TScanConfig((1, 2), tol=0)

    @pytest.mark.parametrize("t_values", [(1, 2.5, 3.9), (1.5, 2), (1, 2, 3.000001)])
    def test_non_integral_t_is_refused(self, t_values):
        # truncating would label the verdicts of int(t) as those of t
        with pytest.raises(ValueError, match="t values must be integers"):
            TScanConfig(t_values)

    def test_integral_floats_become_ints(self):
        cfg = TScanConfig((1.0, np.float64(2), 3))
        assert cfg.t_values == (1, 2, 3) and all(type(t) is int for t in cfg.t_values)

    def test_commuting_pair_all_hold(self, rng):
        m = random_matrix(rng, 2, norm=1.0)
        verdicts = scan_integer_t(m, m @ m, TScanConfig.through(10, 1e-8))
        assert all(v.holds for v in verdicts)

    def test_intro_pattern(self):
        a, b = intro_pair()
        verdicts = scan_integer_t(a, b, TScanConfig.through(6, 1e-6))
        stars = [v for v in verdicts if v.relation is RelationKind.SUM_PRODUCT]
        assert [v.holds for v in stars] == [True] * 5 + [False]

    def test_theorem2_star_holds_swapped_fails(self, theorem2_pair):
        f, g = theorem2_pair
        verdicts = scan_integer_t(f, g, TScanConfig.through(10))
        for v in verdicts:
            if v.relation is RelationKind.SUM_PRODUCT:
                assert v.holds
            else:
                assert not v.holds

    def test_deterministic_order(self, theorem2_pair):
        f, g = theorem2_pair
        cfg = TScanConfig.through(3)
        a = scan_integer_t(f, g, cfg)
        b = scan_integer_t(f, g, cfg)
        assert a == b
        assert [(v.relation, v.t) for v in a] == [
            (RelationKind.SUM_PRODUCT, 1), (RelationKind.SUM_PRODUCT_SWAPPED, 1),
            (RelationKind.SUM_PRODUCT, 2), (RelationKind.SUM_PRODUCT_SWAPPED, 2),
            (RelationKind.SUM_PRODUCT, 3), (RelationKind.SUM_PRODUCT_SWAPPED, 3),
        ]


class TestCongruenceFree:
    def test_simple(self):
        assert congruence_free([0, 1])

    def test_intro_spectra_never_free(self):
        a, b = intro_pair()
        for m in (a, b):
            assert not congruence_free(eigen_decompose(m))

    def test_paper_root_free(self):
        assert congruence_free([U1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            congruence_free([])

    @given(st.integers(-40, 40).filter(lambda k: k != 0))
    @settings(max_examples=30, deadline=None)
    def test_exact_lattice_pairs_flagged(self, k):
        assert not congruence_free([0.7 + 0.3j, 0.7 + 0.3j + 2j * PI * k])


class TestVerdictProperties:
    def test_monotone_tolerance(self, rng):
        f, g = random_matrix(rng, 2), random_matrix(rng, 2)
        r = check_relation_star(f, g, 2, 1e-12).residual
        for tol in (1e-12, 1e-6, 1.0):
            v = check_relation_star(f, g, 2, tol)
            assert v.holds == (r <= tol)

    def test_unitary_conjugation_invariance(self, rng):
        a, b = intro_pair()
        ae, be = a.expanded(), b.expanded()
        base = [check_relation_star(ae, be, t).residual for t in (1, 6)]
        for _ in range(20):
            q, _ = np.linalg.qr(random_matrix(rng, 2) + 0.5 * np.eye(2))
            fa, fb = q.conj().T @ ae @ q, q.conj().T @ be @ q
            got = [check_relation_star(fa, fb, t).residual for t in (1, 6)]
            assert all(abs(x - y) <= 1e-10 for x, y in zip(base, got))

    def test_holds_iff_residual_below_tol(self, theorem2_pair):
        f, g = theorem2_pair
        for v in scan_integer_t(f, g, TScanConfig.through(4, 1e-9)):
            assert v.holds == (v.residual <= v.tol)


class TestRelationReport:
    def test_intro_report(self):
        a, b = intro_pair()
        rep = relation_report(a, b, TScanConfig.through(6, 1e-6),
                              pair="intro", include_triangularizable=True)
        by_kind = {}
        for v in rep.verdicts:
            by_kind.setdefault(v.relation, []).append(v)
        assert not by_kind[RelationKind.COMMUTE][0].holds
        assert by_kind[RelationKind.EXP_SWAP][0].holds
        assert rep.congruence_free == (False, False, False)
        assert rep.sim_triangularizable is False

    def test_commuting_pair_report(self, rng):
        # commuting inputs: every product identity holds (exp-equal compares
        # exp(F) to exp(G) and legitimately fails for F != G)
        m = random_matrix(rng, 2, norm=1.0)
        rep = relation_report(m, 0.3 * m @ m, TScanConfig.through(5, 1e-8),
                              include_triangularizable=True)
        for v in rep.verdicts:
            if v.relation is not RelationKind.EXP_EQUAL:
                assert v.holds, (v.relation, v.t)
        assert check_exp_equal(m + 0.3 * m @ m, m + 0.3 * m @ m).holds
        assert rep.sim_triangularizable is True

    def test_theorem2_report(self, theorem2_pair):
        f, g = theorem2_pair
        rep = relation_report(f, g, TScanConfig.through(5))
        assert rep.congruence_free == (True, True, True)
        stars = [v for v in rep.verdicts if v.relation is RelationKind.SUM_PRODUCT]
        swapped = [v for v in rep.verdicts if v.relation is RelationKind.SUM_PRODUCT_SWAPPED]
        assert all(v.holds for v in stars)
        assert not any(v.holds for v in swapped)


def _d2_pairs():
    yield "intro", intro_pair()
    for lam, mu, nu in admissible_real_triples():
        yield f"real2d{lam, mu, nu}", real2d_family(Real2DParams(lam=lam, mu=mu, nu=nu))
    for branch in (-3, -2, -1, 1, 2, 3):
        root = uset.solve_u(uset.branch_seed(branch))
        yield f"theorem2({branch})", theorem2_family(Theorem2Params(u=root.value))
    for lam in range(-5, 6):
        for mu in range(-5, 6):
            if lam and mu and lam + mu:
                yield f"dim2case1{lam, mu}", dim2_case1_pair(lam, mu)
    rng = np.random.default_rng(20261019)
    for i in range(20):
        yield f"random#{i}", (random_matrix(rng, 2), random_matrix(rng, 2))


class TestStackedReportAgreesWithScalarChecks:
    """At d = 2 relation_report takes every exponential from one stacked
    call; each verdict must be the one the scalar checks give."""

    @pytest.mark.parametrize("name, pair", list(_d2_pairs()), ids=lambda x: x if isinstance(x, str) else "")
    def test_t_1_to_20(self, name, pair):
        f, g = pair
        cfg = TScanConfig.through(20)
        want = [check_commute(f, g, cfg.tol), check_exp_equal(f, g, cfg.tol),
                check_exp_swap(f, g, cfg.tol)]
        for t in cfg.t_values:
            want += [check_relation_star(f, g, t, cfg.tol),
                     check_relation_star(f, g, t, cfg.tol, swapped=True)]
        got = relation_report(f, g, cfg).verdicts
        assert len(got) == len(want) == 43
        for v, w in zip(got, want):
            assert (v.relation, v.t, v.tol, v.holds) == (w.relation, w.t, w.tol, w.holds)
            assert type(v.residual) is float
            assert abs(v.residual - w.residual) <= 1e-15, (v, w)

    def test_each_input_form_rounds_as_the_scalar_checks(self):
        # pi-scaled CMats combine their integer parts before the factor of
        # pi; arrays, and a pair mixing the two forms, combine expanded entries
        f, g = intro_pair()
        for pair in ((f, g), (f.expanded(), g.expanded()), (f, g.expanded()), (f.expanded(), g)):
            self.test_t_1_to_20("intro", pair)
