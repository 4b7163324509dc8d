import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from commexp import expmkit, numkernel, relations, simtrig, uset
from commexp.errors import (
    CommexpError,
    DimensionError,
    ResidualOverflowError,
    SpectrumOverflowError,
)
from commexp.families import (
    INTRO_ROTATION,
    Real2DParams,
    Theorem2Params,
    dim2_case1_pair,
    intro_pair,
    real2d_family,
    rotation_star,
    theorem2_family,
)
from commexp.numkernel import CMat, as_matrix, combine_affine, eigen_decompose
from commexp.relations import (
    RelationKind,
    RelationVerdict,
    TScanConfig,
    check_commute,
    check_exp_equal,
    check_exp_swap,
    check_relation_star,
    congruence_free,
    relation_report,
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


@pytest.mark.parametrize("call", [
    lambda f, g: check_relation_star(f, g, 2),
    lambda f, g: check_relation_star(f, g, 2, swapped=True),
    lambda f, g: relation_report(f, g, TScanConfig.through(2)),
    lambda f, g: relation_report(f, g, TScanConfig.through(2), include_triangularizable=True),
    lambda f, g: expmkit.expm_affine(f, g, 2),
    lambda f, g: combine_affine(f, g, 2),
    lambda f, g: numkernel.commutator(f, g),
    lambda f, g: simtrig.sim_triangularizable(f, g),
    lambda f, g: simtrig.common_eigenvector(f, g),
], ids=["star", "swapped-star", "report", "report-triangularizable", "expm-affine",
        "combine-affine", "commutator", "sim-triangularizable", "common-eigenvector"])
@pytest.mark.parametrize("f, g", [
    (np.eye(2), np.eye(3)),
    (CMat.identity(3), CMat.identity(2)),
    (CMat.from_rows(np.eye(2), pi_scaled=True), np.eye(3)),
], ids=["arrays", "cmats", "pi-array"])
def test_every_pair_entry_point_refuses_mismatched_shapes(call, f, g):
    with pytest.raises(DimensionError, match="dimension mismatch"):
        call(f, g)


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


def _stars(f, g, cfg):
    """The report's star and swapped-star verdicts, (star, swapped) per t."""
    return [v for v in relation_report(f, g, cfg).verdicts if v.t is not None]


class TestScan:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least one t"):
            TScanConfig(())
        with pytest.raises(ValueError):
            TScanConfig((1, 2), tol=0)
        # any order, any sign, repeats and complex t are a scan's own business
        assert TScanConfig([3, -1, 0, 0.5j, 3]).t_values == (3, -1, 0, 0.5j, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1, math.inf),
                                     complex(math.nan, 0)], ids=repr)
    def test_config_refuses_a_non_finite_t(self, bad):
        # refused when the scan is built, naming the t, not later as an
        # overflowing exponential of some relation
        with pytest.raises(ValueError, match=f"t = {re.escape(str(bad))} is not finite"):
            TScanConfig((1, bad, 2))

    def test_config_builds_its_plan_once(self):
        cfg = TScanConfig((2, -1, 0.5j))
        assert cfg._t_rows.tolist() == [2, -1, 0.5j, 1]
        assert not cfg._t_rows.flags.writeable
        kinds, ts = cfg._heads
        assert ts == (None, None, 2, 2, -1, -1, 0.5j, 0.5j)
        assert kinds[:4] == (RelationKind.EXP_EQUAL, RelationKind.EXP_SWAP,
                             RelationKind.SUM_PRODUCT, RelationKind.SUM_PRODUCT_SWAPPED)
        # the plan is no field: a copy equals the config and builds its own
        twin = pickle.loads(pickle.dumps(cfg))
        assert twin == cfg and twin._heads == cfg._heads
        assert twin._t_rows is not cfg._t_rows

    def test_commuting_pair_all_hold(self, rng):
        m = random_matrix(rng, 2, norm=1.0)
        verdicts = _stars(m, m @ m, TScanConfig.through(10, 1e-8))
        assert all(v.holds for v in verdicts)

    def test_intro_pattern(self):
        # over the integers star holds exactly at -294, 0, 1..5 and 299
        a, b = intro_pair()
        ts = (-295, -294, -293, 0, *range(1, 7), 298, 299, 300)
        verdicts = _stars(a, b, TScanConfig(ts))
        stars = [v for v in verdicts if v.relation is RelationKind.SUM_PRODUCT]
        assert [v.t for v in stars] == list(ts)
        assert [v.holds for v in stars] == [rotation_star(*INTRO_ROTATION, t) for t in ts]
        assert [v.t for v in stars if v.holds] == [-294, 0, 1, 2, 3, 4, 5, 299]
        assert all(v.residual == 0.0 for v in stars if v.holds)

    def test_theorem2_star_holds_swapped_fails(self, theorem2_pair):
        f, g = theorem2_pair
        verdicts = _stars(f, g, TScanConfig.through(10))
        for v in verdicts:
            if v.relation is RelationKind.SUM_PRODUCT:
                assert v.holds
            else:
                assert not v.holds

    def test_deterministic_order(self, theorem2_pair):
        f, g = theorem2_pair
        cfg = TScanConfig.through(3)
        a = _stars(f, g, cfg)
        b = _stars(f, g, cfg)
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
            assert not congruence_free(eigen_decompose(m).eigenvalues)

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
        for v in relation_report(f, g, TScanConfig.through(4, 1e-9)).verdicts:
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

    def test_default_tol_margins(self, theorem2_pair):
        # DEFAULT_TOL = 1e-9 sits decades from both sides over t = 1..1000:
        # theorem2's star holds to rounding, the intro pair's fails by far
        cfg = TScanConfig.through(1000)
        stars = [v for v in _stars(*theorem2_pair, cfg) if v.relation is RelationKind.SUM_PRODUCT]
        assert len(stars) == 1000 and max(v.residual for v in stars) <= 1e-14
        failing = [v for v in _stars(*intro_pair(), cfg)
                   if v.relation is RelationKind.SUM_PRODUCT and not v.holds]
        assert len(failing) == 994 and min(v.residual for v in failing) >= 1e-2


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


def _scalar_verdicts(f, g, cfg):
    """The report's verdicts, in its order, from the scalar checks."""
    want = [check_commute(f, g, cfg.tol), check_exp_equal(f, g, cfg.tol),
            check_exp_swap(f, g, cfg.tol)]
    for t in cfg.t_values:
        want += [check_relation_star(f, g, t, cfg.tol),
                 check_relation_star(f, g, t, cfg.tol, swapped=True)]
    return want


class TestStackedReportAgreesWithScalarChecks:
    """At d = 2 relation_report takes every exponential and every spectrum
    from one stacked call; each verdict must be the one the scalar checks
    give, and each congruence flag the one eigen_decompose gives."""

    @pytest.mark.parametrize("name, pair", list(_d2_pairs()), ids=lambda x: x if isinstance(x, str) else "")
    def test_t_1_to_20(self, name, pair):
        # and t = 0, then a complex t, at the end of the scan
        f, g = pair
        cfg = TScanConfig((*range(1, 21), 0, 0.5 + 0.25j))
        want = _scalar_verdicts(f, g, cfg)
        report = relation_report(f, g, cfg)
        got = report.verdicts
        assert len(got) == len(want) == 47
        for v, w in zip(got, want):
            assert (v.relation, v.t, v.tol, v.holds) == (w.relation, w.t, w.tol, w.holds)
            assert type(v.residual) is float
            assert abs(v.residual - w.residual) <= 1e-15, (v, w)
        assert report.congruence_free == tuple(
            congruence_free(eigen_decompose(m).eigenvalues, cfg.tol) for m in (f, g, combine_affine(f, g, 1.0)))

    def test_each_input_form_rounds_as_the_scalar_checks(self):
        # pi-scaled CMats combine their integer parts before the factor of
        # pi; arrays, and a pair mixing the two forms, combine expanded entries
        f, g = intro_pair()
        for pair in ((f, g), (f.expanded(), g.expanded()), (f, g.expanded()), (f.expanded(), g)):
            self.test_t_1_to_20("intro", pair)

    def test_no_eigen_decompose_at_d2(self, monkeypatch, rng):
        # nor the polished roots that the d = 3 flags read
        calls = []

        def counted(spectrum):
            def wrapper(m):
                calls.append(1)
                return spectrum(m)
            return wrapper

        monkeypatch.setattr(expmkit, "eigen_decompose", counted(eigen_decompose))
        monkeypatch.setattr(relations, "_polished_roots", counted(relations._polished_roots))
        for _, (f, g) in _d2_pairs():
            relation_report(f, g, TScanConfig.through(3))
        assert calls == []
        # the counter does see the d = 3 path
        relation_report(random_matrix(rng, 3), random_matrix(rng, 3), TScanConfig.through(1))
        assert calls

    def test_verdicts_are_immutable(self):
        v = relation_report(*intro_pair(), TScanConfig.through(2)).verdicts[-1]
        with pytest.raises(AttributeError):
            v.holds = not v.holds
        assert v == RelationVerdict(v.relation, v.holds, v.residual, v.tol, v.t)
        assert RelationVerdict(relation=v.relation, holds=True, residual=0.0, tol=1.0).t is None


_UNIT = st.complex_numbers(max_magnitude=1, allow_nan=False, allow_infinity=False)


@st.composite
def _star_scans(draw):
    """(F, G, t): d = 2 or 3, entries of modulus at most 1, G either free or
    a F^2 + b F (commuting, so star holds), t an int in -3..3 or complex of
    modulus at most 2."""
    d = draw(st.sampled_from([2, 3]))
    f = np.array(draw(st.lists(_UNIT, min_size=d * d, max_size=d * d))).reshape(d, d)
    if draw(st.booleans()):
        g = draw(_UNIT) * f @ f + draw(_UNIT) * f
    else:
        g = np.array(draw(st.lists(_UNIT, min_size=d * d, max_size=d * d))).reshape(d, d)
    t = draw(st.one_of(st.integers(-3, 3),
                       st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)))
    return f, g, t


class TestTransposeDuality:
    """exp(t F^T + G^T) = exp(t F + G)^T and (exp(t F) exp(G))^T =
    exp(G^T) exp(t F^T): the star verdict of (F, G) at t is the swapped star
    verdict of (F^T, G^T), and the other way round.  At d = 2 the two sides
    come from the report's two products, exp(G) on the right and on the
    left, so each pins the other."""

    @given(_star_scans())
    @settings(max_examples=150, deadline=None)
    def test_star_is_transposed_swapped_star(self, scan):
        f, g, t = scan
        cfg = TScanConfig((t,))
        star, swapped = relation_report(f, g, cfg).verdicts[3:]
        t_star, t_swapped = relation_report(f.T, g.T, cfg).verdicts[3:]
        assert star.relation is t_star.relation is RelationKind.SUM_PRODUCT
        assert swapped.relation is t_swapped.relation is RelationKind.SUM_PRODUCT_SWAPPED
        for v, w in ((star, t_swapped), (swapped, t_star)):
            # kept away from the tolerance, where rounding could flip holds;
            # measured differences stay below 7e-15 on these inputs
            assume(not cfg.tol / 1e3 <= v.residual <= cfg.tol * 1e3)
            assert v.holds == w.holds and v.t == w.t == t
            assert abs(v.residual - w.residual) <= 1e-13, (v, w)


def _d3_pairs():
    rng = np.random.default_rng(20261019)
    yield "random", (random_matrix(rng, 3), random_matrix(rng, 3))
    f, g = random_matrix(rng, 3), random_matrix(rng, 3)
    yield "skew-hermitian", ((f - f.conj().T) / 2, (g - g.conj().T) / 2)
    m = random_matrix(rng, 3, norm=1.0)
    yield "commuting", (m, m @ m + 2 * m)


class TestD3ReportAgreesWithScalarChecks:
    """At d = 3 relation_report runs the scalar checks itself, in the order
    commute, exp-equal, exp-swap, then star and swapped star per t."""

    @pytest.mark.parametrize("name, pair", list(_d3_pairs()), ids=lambda x: x if isinstance(x, str) else "")
    def test_t_1_to_5(self, name, pair):
        # and t = 0, then a complex t, at the end of the scan
        f, g = pair
        cfg = TScanConfig((*range(1, 6), 0, 0.5 + 0.25j))
        want = _scalar_verdicts(f, g, cfg)
        got = relation_report(f, g, cfg).verdicts
        assert len(got) == len(want) == 17
        for v, w in zip(got, want):
            assert (v.relation, v.t, v.tol, v.holds) == (w.relation, w.t, w.tol, w.holds)
            assert abs(v.residual - w.residual) <= 1e-15, (v, w)
        if name == "commuting":
            assert all(v.holds for v in got if v.relation is not RelationKind.EXP_EQUAL)


class TestSpectrumEdges:
    def test_d3_flags_read_unclustered_roots(self):
        # 0, 2 i pi and 0.5 lie within 1e-8 ||F|| = 10 of each other, so
        # eigen_decompose merges them into one cluster, whose mean is no
        # congruence; F's roots 0 and 2 i pi are one
        f = np.array([[0, 1e9, 0], [0, 2j * PI, 0], [0, 0, 0.5]])
        assert eigen_decompose(f).distinct_count == 1
        report = relation_report(f, np.zeros((3, 3)), TScanConfig.through(3))
        assert report.congruence_free == (False, True, False)

    @pytest.mark.parametrize("x", [1e52, 1e100, 1e200])
    def test_d3_report_past_cubic_overflow(self, x):
        # F's spectrum {x, 0, 1} is finite, though the cubic's p^3 is not,
        # and nothing warns, though at 1e200 the squares in the Frobenius
        # norms overflow.  The flags are the report's, from the differences
        # of the polished roots of F, G and F + G; the report, which warns
        # of nothing, then refuses the non-finite residuals of exp(F), whose
        # e^x is inf
        f, g = np.array([[x, x, 0], [0, 0, 0], [0, 0, 1]]), np.eye(3)
        cfg = TScanConfig.through(3)
        differences = [relations._differences(relations._polished_roots(as_matrix(m)))
                       for m in (f, g, combine_affine(f, g, 1.0))]
        assert relations._congruence_flags(differences, cfg.tol) == (True, True, True)
        with pytest.raises(ResidualOverflowError):
            relation_report(f, g, cfg)

    @pytest.mark.parametrize("f, g, t_values, first", [
        ([[1e3, 1e3, 0], [0, 0, 0], [0, 0, 1]], np.eye(3), (1, 2, 3), "exp-equal residual is"),
        ([[1e52, 1e52, 0], [0, 0, 0], [0, 0, 1]], np.eye(3), (1, 2, 3), "exp-equal residual is"),
        (np.diag([1e3, 0]), np.eye(2), (1, 2, 3), "exp-equal residual is"),
        # e^600 is finite (its norm is not, but star holds exactly there)
        # and e^900 is not
        (np.diag([300, 0, 0]), np.zeros((3, 3)), (1, 2, 3), "sum-product residual at t = 3 is"),
        (np.diag([300, 0]), np.zeros((2, 2)), (1, 2, 3), "sum-product residual at t = 3 is"),
        # t F itself overflows: 1e300i * 1e10i is -inf, at either dimension
        (np.diag([1e10j, 2j, 3j]), 0.5j * np.eye(3), (1, 1e300j),
         r"sum-product residual at t = 1e\+300j is"),
        (np.diag([1e10j, 2j]), 0.5j * np.eye(2), (1, 1e300j),
         r"sum-product residual at t = 1e\+300j is"),
    ], ids=["d3-1e3", "d3-1e52", "d2-1e3", "d3-t3", "d2-t3", "d3-tf-overflows",
            "d2-tf-overflows"])
    def test_non_finite_residual_names_its_relation(self, f, g, t_values, first):
        # F and G commute, so a NaN residual must not read as a failed verdict
        f, g = np.array(f, dtype=complex), np.array(g, dtype=complex)
        assert check_commute(f, g).holds
        with pytest.raises(ResidualOverflowError, match=f"the {first} not finite") as raised:
            relation_report(f, g, TScanConfig(t_values))
        assert isinstance(raised.value, CommexpError) and isinstance(raised.value, OverflowError)

    @pytest.mark.parametrize("d", [2, 3])
    def test_finite_exponential_past_the_stacked_squares(self, d):
        # e^400 ~ 5.2e173 is finite, though its square is not: the d = 2
        # report takes the stacked norms that overflowed again by math.hypot,
        # which every norm is at d = 3, and so reports as d = 3 does
        f = np.zeros((d, d))
        f[0, 0] = 400
        report = relation_report(f, np.zeros((d, d)), TScanConfig((1,)))
        assert [v.residual for v in report.verdicts] == [0, 1, 0, 0, 0]
        assert [v.holds for v in report.verdicts] == [True, False, True, True, True]

    def test_finite_stacked_norms_keep_their_bits(self):
        # at t = 2 the sides hold e^400, whose stacked norm overflows; the
        # verdicts of the rows whose norms did not are those of the report
        # that never overflowed, bit for bit
        f, g = np.diag([200.0, 0.0]), np.array([[0, 1e-3], [0, 0]])
        short = relation_report(f, g, TScanConfig((1,))).verdicts
        long = relation_report(f, g, TScanConfig((1, 2))).verdicts
        assert long[:len(short)] == short
        assert all(math.isfinite(v.residual) for v in long)

    @pytest.mark.parametrize("f, g, name", [
        ([[1e160, 1e160], [0, 0]], np.eye(2), "F"),
        (np.eye(2), [[1e160, 1e160], [0, 0]], "G"),
        ([[0, 1e160], [0, 0]], [[0, 0], [1e160, 0]], "F + G"),  # F and G nilpotent
    ], ids=["F", "G", "F+G"])
    def test_overflowing_spectrum_names_its_matrix(self, f, g, name):
        f, g = np.array(f, dtype=complex), np.array(g, dtype=complex)
        with pytest.raises(SpectrumOverflowError, match=f"spectrum of {re.escape(name)} overflows"
                           ) as raised:
            relation_report(f, g, TScanConfig.through(2))
        assert isinstance(raised.value, CommexpError) and isinstance(raised.value, OverflowError)


def _lift(m, x: complex) -> CMat:
    """M + x, the block-diagonal 3x3 of a 2x2 M and the scalar x, with x among
    the stored entries: times pi when M is pi-scaled."""
    m = m if isinstance(m, CMat) else CMat(m)
    entries = np.zeros((3, 3), dtype=complex)
    entries[:2, :2], entries[2, 2] = m.entries, x
    return CMat(entries, m.pi_scaled)


def _theorem2(branch: int):
    return theorem2_family(Theorem2Params(u=uset.solve_u(uset.branch_seed(branch)).value))


_LIFTED_PAIRS = {
    "intro": (intro_pair(), TScanConfig.through(6)),
    "real2d(1,2,5)": (real2d_family(Real2DParams(lam=1, mu=2, nu=5)), TScanConfig.through(6)),
    "theorem2(1)": (_theorem2(1), TScanConfig.through(6)),
    "theorem2(-2)": (_theorem2(-2), TScanConfig.through(6)),
    "dim2case1(1,1)": (dim2_case1_pair(1, 1), TScanConfig.through(6)),
    "dim2case1(2,-3)": (dim2_case1_pair(2, -3), TScanConfig.through(6)),
    # e^400 is finite, though its stacked square is not; e^800 is not
    "diag(400,0)": ((np.diag([400.0, 0.0]), np.zeros((2, 2))), TScanConfig((1,))),
}


class TestBlockLift:
    """(F + x, G + x), the block-diagonal 3x3 lift of a 2x2 pair by one
    scalar x, keeps every verdict: exp(t F + G) + e^((t+1) x) against
    exp(t F) exp(G) + e^(t x) e^x, and likewise for the swapped products,
    exp-equal, exp-swap and the commutator [F, G] + 0; a common invariant
    line with the scalar block keeps triangularizability.  So the d = 2
    closed form referees the d = 3 path.  x = 0 keeps the lift's spectrum
    on the lattice where the pair's is, so the d = 3 path snaps; the
    off-lattice x moves the residuals' scales, so verdicts are compared
    only where both residuals are three decades from tol."""

    @pytest.mark.parametrize("x", [0, 0.7 - 0.4j])
    @pytest.mark.parametrize("name", list(_LIFTED_PAIRS))
    def test_lift_keeps_every_verdict(self, name, x):
        (f, g), cfg = _LIFTED_PAIRS[name]
        flat = relation_report(f, g, cfg, include_triangularizable=True)
        lifted = relation_report(_lift(f, x), _lift(g, x), cfg, include_triangularizable=True)
        assert lifted.sim_triangularizable == flat.sim_triangularizable
        assert len(lifted.verdicts) == len(flat.verdicts)
        compared = 0
        for v, w in zip(flat.verdicts, lifted.verdicts):
            assert (v.relation, v.t) == (w.relation, w.t)
            if all(not cfg.tol / 1e3 < r < cfg.tol * 1e3 for r in (v.residual, w.residual)):
                assert v.holds == w.holds, (v, w)
                compared += 1
        # the off-lattice x outweighs the failing t = 6 stars of intro and
        # real2d (residuals ~1.5 at d = 2, ~5.6e-7 lifted); nothing else is
        # within three decades of tol
        assert compared >= len(flat.verdicts) - 2
