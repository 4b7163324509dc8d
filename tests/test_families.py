import math
from fractions import Fraction

import numpy as np
import pytest

from commexp.errors import ComplexRootsError, ConstraintError, InvalidUError
from commexp.expmkit import expm
from commexp.families import (
    III2Form,
    III2Params,
    III2iiParams,
    Real2DParams,
    Theorem2Params,
    _root_product,
    case3_III2_matrix,
    case3_III2ii_matrix,
    char_poly_nAB,
    dim2_case1_pair,
    INTRO_ROTATION,
    intro_pair,
    real2d_family,
    rescale_2ipi,
    rotation_square_polynomial,
    theorem2_family,
)
from commexp.intsearch import III4Params, case3_III4_residuals, iii2ii_products, iii4_entries
from commexp.numkernel import char_poly, combine_affine, commutator, eigen_decompose
from commexp.relations import (
    RelationKind,
    TScanConfig,
    check_exp_swap,
    check_relation_star,
    relation_report,
)
from commexp.simtrig import sim_triangularizable

from conftest import rel_residual

PI = math.pi
U1 = 2.088843015613044 + 7.461489285654254j


class TestIntroPair:
    def test_exactly_pi_scaled_integers(self):
        a, b = intro_pair()
        assert a.pi_scaled and b.pi_scaled
        assert np.array_equal(a.entries, np.array([[60j, 0], [0, -60j]]))
        assert np.array_equal(b.entries, np.array([[-150j, -91], [391, 150j]]))

    def test_spectra(self):
        a, b = intro_pair()
        assert sorted(eigen_decompose(b).snap) == [-241, 241]
        assert sorted(eigen_decompose(combine_affine(a, b, 1)).snap) == [-209, 209]

    def test_integer_multiples_identity(self):
        a, b = intro_pair()
        for n in range(1, 21):
            lhs = expm(np.asarray(n * (a.expanded() + b.expanded())))
            rhs = expm(np.asarray(n * a.expanded())) @ expm(np.asarray(n * b.expanded()))
            assert rel_residual(lhs, rhs) <= 1e-6

    def test_square_polynomial_matches_determinant(self):
        a, b = intro_pair()
        square = rotation_square_polynomial(*INTRO_ROTATION)
        for t in range(1, 8):
            m = combine_affine(a, b, t)
            assert np.array_equal(m, (t * a.entries + b.entries) * PI)
            det = np.linalg.det(m)
            assert det / PI**2 == pytest.approx(square(t), rel=1e-12)


class TestReal2D:
    def test_constraint_nu_equals_lam_plus_mu(self):
        with pytest.raises(ConstraintError):
            Real2DParams(lam=1, mu=1, nu=2)

    def test_constraint_nu_equals_lam_minus_mu(self):
        with pytest.raises(ConstraintError):
            Real2DParams(lam=1, mu=4, nu=3)

    def test_complex_roots_refused(self):
        # b - c = (1 + 9 - 16) / 1 = -6, (b-c)^2 - 4(mu^2) = 36 - 36 = 0 ok;
        # shrinking the gap turns the discriminant negative
        with pytest.raises(ComplexRootsError):
            real2d_family(Real2DParams(lam=3, mu=4, nu=5))

    def test_derived_b_c_for_spec_point(self):
        # frozen from the quadratic c^2 - 19c + 16 = 0 (oracle: numpy.roots)
        f, g = real2d_family(Real2DParams(lam=1, mu=4, nu=6, a=0.0))
        b, c = g.entries[0, 1].real, g.entries[1, 0].real
        ref_c = max(np.roots([1.0, -19.0, 16.0]))
        assert c == pytest.approx(ref_c, rel=1e-14)
        assert b == pytest.approx(-0.8831560301929571, rel=1e-12)
        assert c == pytest.approx(18.116843969807043, rel=1e-12)
        assert b - c == pytest.approx(-19.0, abs=1e-12)
        assert b * c == pytest.approx(-16.0, abs=1e-12)

    def test_spectra_snap(self):
        f, g = real2d_family(Real2DParams(lam=1, mu=4, nu=6, a=0.0))
        assert sorted(eigen_decompose(g).snap) == [-4, 4]
        assert sorted(eigen_decompose(combine_affine(f, g, 1)).snap) == [-6, 6]
        assert np.linalg.norm(commutator(f, g)) > 1.0

    def test_parity_consistent_instance_satisfies_product_identities(self):
        # nu = 7 matches the parity of lam + mu = 5, so exp(A+B) = exp(A)exp(B)
        f, g = real2d_family(Real2DParams(lam=1, mu=4, nu=7, a=0.0))
        assert check_relation_star(f, g, 1, 1e-8).holds
        assert check_exp_swap(f, g, 1e-8).holds
        assert np.linalg.norm(commutator(f, g)) > 1.0

    def test_parity_mismatch_breaks_relation_one(self):
        # nu = 6 is even while lam + mu = 5 is odd: exp(A+B) = +I but
        # exp(A)exp(B) = -I, so the product identity cannot hold at t = 1
        f, g = real2d_family(Real2DParams(lam=1, mu=4, nu=6, a=0.0))
        v = check_relation_star(f, g, 1, 1e-8)
        assert not v.holds
        assert v.residual == pytest.approx(2.0, abs=1e-9)

    def test_scan_finds_failing_t(self):
        f, g = real2d_family(Real2DParams(lam=1, mu=4, nu=7, a=0.0))
        verdicts = relation_report(f, g, TScanConfig.through(50, 1e-6)).verdicts
        stars = [v for v in verdicts if v.relation is RelationKind.SUM_PRODUCT]
        assert any(not v.holds for v in stars)
        assert stars[0].holds  # t = 1 by construction

    def test_nonzero_a(self):
        f, g = real2d_family(Real2DParams(lam=2, mu=3, nu=7, a=1.5))
        spec = eigen_decompose(g)
        assert sorted(spec.snap) == [-3, 3]


class TestTheorem2:
    def test_invalid_u_rejected(self):
        with pytest.raises(InvalidUError):
            Theorem2Params(u=1.0 + 1.0j)
        with pytest.raises(InvalidUError):
            Theorem2Params(u=0j)

    def test_canonical_products(self):
        f, g = theorem2_family(Theorem2Params(u=U1))
        fe, ge = np.asarray(f.entries), np.asarray(g.entries)
        assert np.array_equal(fe @ ge, np.zeros((2, 2)))
        assert np.allclose(ge @ fe, [[0, U1], [0, 0]])

    def test_affine_exponential_is_affine(self, rng):
        f, g = theorem2_family(Theorem2Params(u=U1))
        for _ in range(25):
            t = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            m = t * np.asarray(f.entries) + np.asarray(g.entries)
            assert rel_residual(expm(m), np.eye(2) + m) < 1e-10

    def test_swap_gap_is_t_times_u(self, rng):
        f, g = theorem2_family(Theorem2Params(u=U1))
        ef = lambda t: expm(t * np.asarray(f.entries))
        eg = expm(np.asarray(g.entries))
        for _ in range(25):
            t = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            gap = np.linalg.norm(eg @ ef(t) - ef(t) @ eg)
            assert gap == pytest.approx(abs(t) * abs(U1), abs=1e-8)

    def test_shifts_and_basis_do_not_change_verdicts(self, rng):
        s = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) + 2 * np.eye(2)
        plain = theorem2_family(Theorem2Params(u=U1))
        moved = theorem2_family(
            Theorem2Params(u=U1, sigma=0.3 - 1j, tau=-2.2j, basis=s)
        )
        for t in (1, 2, 5):
            assert check_relation_star(*moved, t, 1e-8).holds == \
                check_relation_star(*plain, t, 1e-8).holds
            assert check_relation_star(*moved, t, 1e-8, swapped=True).holds == \
                check_relation_star(*plain, t, 1e-8, swapped=True).holds


class TestDim2Case1:
    def test_constraints(self):
        with pytest.raises(ConstraintError):
            dim2_case1_pair(0, 1)
        with pytest.raises(ConstraintError):
            dim2_case1_pair(1, -1)

    def test_integer_t_holds(self):
        f, g = dim2_case1_pair(1, 1)
        for t in range(1, 11):
            assert check_relation_star(f, g, t, 1e-9).holds

    def test_half_t_fails(self):
        f, g = dim2_case1_pair(1, 1)
        v = check_relation_star(f, g, 0.5, 1e-9)
        assert not v.holds and v.residual >= 0.1

    def test_triangularizable(self):
        f, g = dim2_case1_pair(1, 1)
        assert sim_triangularizable(f, g).triangularizable


class TestIII2:
    def test_params_validation(self):
        with pytest.raises(ConstraintError):
            III2Params(l1=3, m1=1, m2=1, m3=3, n1=4, n2=5)
        with pytest.raises(ConstraintError):
            III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=4)
        with pytest.raises(ConstraintError):
            III2Params(l1=3, m1=1, m2=2, m3=3, n1=2, n2=4)  # sum(m) == n1+n2

    def test_diagonal_values_reference_point(self):
        p = III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5)
        assert p.diagonal_values() == (Fraction(-6), Fraction(12), Fraction(-3))

    def test_trace_consistency_is_enforced(self):
        with pytest.raises(ConstraintError):
            case3_III2_matrix(
                III2Params(l1=7, m1=1, m2=2, m3=3, n1=4, n2=5),
                III2Form.SYMMETRIC_RANK1,
            )

    def test_symmetric_rank1(self):
        p = III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5)
        a, b = case3_III2_matrix(p, III2Form.SYMMETRIC_RANK1)
        ae = np.asarray(a.entries)
        assert np.allclose(ae, ae.T)
        minors = [
            ae[i, j] * ae[k, l] - ae[i, l] * ae[k, j]
            for i in range(3) for k in range(3) for j in range(3) for l in range(3)
            if i < k and j < l
        ]
        assert max(abs(m) for m in minors) <= 1e-10
        assert ae.trace() == pytest.approx(3)
        # exact where it can be: a_ii on the diagonal, and sqrt(a_ii) sqrt(a_jj)
        # of the principal roots where |a_ii a_jj| is a rational square
        assert ae.diagonal().tolist() == [-6, 12, -3]
        assert ae[1, 2] == ae[2, 1] == 6j
        assert ae[0, 2] == pytest.approx(-math.sqrt(18))  # sqrt(-6) sqrt(-3)
        assert ae[0, 1] == pytest.approx(1j * math.sqrt(72))
        assert _root_product(Fraction(-6), Fraction(-3)) is None
        assert _root_product(Fraction(9, 2), Fraction(1, 8)) == 0.75
        assert _root_product(Fraction(-1, 4), Fraction(1)) == 0.5j
        spec = eigen_decompose(combine_affine(a, b, 1))
        got = sorted(spec.eigenvalues, key=lambda z: z.real)
        assert np.allclose(got, [0, 4, 5], atol=1e-8)

    def test_rank1_exponentials_are_identity(self):
        p = III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5)
        a, b = case3_III2_matrix(p, III2Form.SYMMETRIC_RANK1)
        for m in (a, b, combine_affine(a, b, 1)):
            assert np.array_equal(expm(rescale_2ipi(m)), np.eye(3))

    def test_a1_form(self):
        p = III2Params(l1=6, m1=1, m2=2, m3=0, n1=4, n2=5)
        a, b = case3_III2_matrix(p, III2Form.A1)
        ae = np.asarray(a.entries)
        assert ae[2].tolist() == [0, 0, 0]
        assert ae.trace() == pytest.approx(6)  # a11 = 12, a22 = -6
        assert ae[0, 0] == pytest.approx(12) and ae[1, 1] == pytest.approx(-6)
        spec = eigen_decompose(combine_affine(a, b, 1))
        got = sorted(spec.eigenvalues, key=lambda z: z.real)
        assert np.allclose(got, [0, 4, 5], atol=1e-8)

    def test_a2_is_conjugate_transpose_of_a1(self):
        p = III2Params(l1=6, m1=1, m2=2, m3=0, n1=4, n2=5)
        a1, _ = case3_III2_matrix(p, III2Form.A1)
        a2, _ = case3_III2_matrix(p, III2Form.A2)
        assert np.array_equal(np.asarray(a2.entries), np.asarray(a1.entries).conj().T)

    def test_a3_a4_triangularizable_with_diag(self):
        p = III2Params(l1=2, m1=1, m2=0, m3=-1, n1=-1, n2=3)
        for form in (III2Form.A3, III2Form.A4):
            a, b = case3_III2_matrix(p, form)
            assert np.asarray(a.entries).trace() == pytest.approx(2)
            assert sim_triangularizable(a, b).triangularizable

    def test_a1_needs_m3_zero(self):
        with pytest.raises(ConstraintError):
            case3_III2_matrix(
                III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5), III2Form.A1
            )


class TestIII2ii:
    def test_canonical_reference_values(self):
        p = III2iiParams.canonical(4, 1, 2, Fraction(1))
        products = iii2ii_products(p.m, p.n1, p.n2, p.alpha)
        assert products == (Fraction(-3, 2), Fraction(-1, 2), Fraction(1))
        assert sum(products) == p.l1 == -1

    def test_products_have_one_implementation(self):
        # canonical takes its products from iii2ii_products: a holds them, b = (1, 1, 1)
        for m, n1, n2, alpha in [(4, 1, 2, Fraction(1)), (-3, 2, 5, Fraction(7, 3)),
                                 (1, 4, 5, 0.5 + 2j)]:
            p = III2iiParams.canonical(m, n1, n2, alpha)
            assert p.a_vector == tuple(map(complex, iii2ii_products(m, n1, n2, alpha)))
            assert p.b_vector == (1, 1, 1)

    @pytest.mark.parametrize("m, n1, n2, message", [
        (3, 1, 2, "l1 must be nonzero"),
        (0, 1, 2, "m must be nonzero"),
        (1, 0, 2, "n1 must be nonzero"),
        (1, 2, 0, "n2 must be nonzero"),
        (1, 2, 2, "n1 must differ from n2"),
    ])
    def test_canonical_side_conditions(self, m, n1, n2, message):
        with pytest.raises(ConstraintError, match=message):
            III2iiParams.canonical(m, n1, n2, Fraction(1))

    def test_product_constraints_enforced(self):
        with pytest.raises(ConstraintError):
            III2iiParams(
                l1=-1, m=4, n1=1, n2=2, alpha=Fraction(1),
                a_vector=(1, 1, 1), b_vector=(1, 1, 1),
            )

    def test_matrix_and_spectrum(self):
        p = III2iiParams.canonical(4, 1, 2, Fraction(1))
        a, b = case3_III2ii_matrix(p)
        ae = np.asarray(a.entries)
        assert ae.trace() == pytest.approx(-1)
        assert np.linalg.matrix_rank(ae, tol=1e-10) == 1
        spec = eigen_decompose(combine_affine(a, b, 1))
        got = sorted(spec.eigenvalues, key=lambda z: z.real)
        assert np.allclose(got, [0, 1, 2], atol=1e-9)

    def test_a1_zero_gives_rank_one_commutator(self):
        # m = n1 makes the first product vanish, so a1 = 0 is admissible
        p = III2iiParams.canonical(1, 1, 2, Fraction(1))
        a, b = case3_III2ii_matrix(p)
        comm = commutator(a, b)
        assert np.linalg.matrix_rank(comm, tol=1e-10) == 1
        assert sim_triangularizable(a, b).triangularizable

    def test_exponentials_identity(self):
        p = III2iiParams.canonical(4, 1, 2, Fraction(1))
        a, b = case3_III2ii_matrix(p)
        for m in (a, b, combine_affine(a, b, 1)):
            assert np.array_equal(expm(rescale_2ipi(m)), np.eye(3))


class TestIII4Residuals:
    BASE = III4Params(l1=1, l2=2, m1=3, m2=1, m3=0, n1=4, n2=2,
                      rho=Fraction(3, 2), sigma=Fraction(-7, 3))

    def test_identity_scaling_zero(self):
        res = case3_III4_residuals(
            self.BASE, lambda_shift=0, n=1, n_tilde=(4, 2),
            rho_sigma_scaled=(Fraction(3, 2), Fraction(-7, 3)),
        )
        assert all(r == 0 for r in res)

    def test_first_equation_forces_rho_scaling(self):
        # component 1 is (n rho - rho~)(m1 - m2): zero iff rho~ = n rho
        good = case3_III4_residuals(
            self.BASE, 0, 2, (4, 2), (2 * Fraction(3, 2), 2 * Fraction(-7, 3)))
        assert good[0] == 0
        bad = case3_III4_residuals(
            self.BASE, 0, 2, (4, 2), (Fraction(5), 2 * Fraction(-7, 3)))
        assert bad[0] != 0

    def test_second_equation_forces_sigma_scaling(self):
        lam = 3
        rho, sigma = Fraction(3, 2), Fraction(-7, 3)
        res = case3_III4_residuals(
            self.BASE, lam, 2, (4, 2), (2 * rho, 2 * (sigma - 2 * lam * rho)))
        assert res[0] == 0 and res[1] == 0

    def test_scaled_system_obstructed_for_n_two(self, rng):
        # with the forced substitutions, components 3-6 cannot all vanish:
        # res3 + res4 = -l1*l2*n*(n-1) != 0 for n >= 2
        for _ in range(40):
            l1 = int(rng.integers(1, 4))
            l2 = -int(rng.integers(1, 4))
            m = rng.permutation(np.arange(-3, 4))[:3]
            p = III4Params(l1=l1, l2=l2, m1=int(m[0]), m2=int(m[1]), m3=int(m[2]),
                           n1=3, n2=-2, rho=Fraction(1, 2), sigma=Fraction(2))
            lam = int(rng.integers(-3, 4))
            nt1 = int(rng.integers(1, 4))
            nt2 = nt1 + int(rng.integers(1, 4))
            rho_s = 2 * Fraction(1, 2)
            sigma_s = 2 * (Fraction(2) - 2 * lam * Fraction(1, 2))
            res = case3_III4_residuals(p, lam, 2, (nt1, nt2), (rho_s, sigma_s))
            assert res[2] + res[3] == -l1 * l2 * 2 * 1
            assert any(r != 0 for r in res[2:])

    def test_entry_trace_is_l1_plus_l2(self):
        vals = iii4_entries(1, 2, 3, 1, 0, 4, 2, Fraction(1, 7), Fraction(5))
        assert vals[0] + vals[4] + vals[5] == 3  # a33 + a11 + a22

    def test_param_validation(self):
        with pytest.raises(ConstraintError):
            III4Params(l1=1, l2=1, m1=0, m2=1, m3=2, n1=1, n2=2)
        with pytest.raises(ConstraintError):
            III4Params(l1=1, l2=2, m1=1, m2=1, m3=2, n1=1, n2=2)
        with pytest.raises(ConstraintError):
            case3_III4_residuals(self.BASE, 0, 1, (2, 2), (0, 0))


class TestCharPolyNAB:
    def test_n_one_trivial(self):
        p = III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5)
        assert char_poly_nAB(p, 1) == (1, -(4 + 5), 4 * 5, 0)

    def test_constant_term_identity(self):
        p = III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5)
        for n in range(0, 6):
            assert char_poly_nAB(p, n)[3] == (n - 1) * 6

    def test_reference_point_n_two(self):
        # matrix oracle fixes the x-coefficient at +29 (the often-quoted
        # -n(n-1)e2 + n n1 n2 form gives 18 and disagrees with the matrix)
        p = III2Params(l1=3, m1=1, m2=2, m3=3, n1=4, n2=5)
        assert char_poly_nAB(p, 2) == (1, -12, 29, 6)

    def test_matches_matrix_char_poly(self, rng):
        # independent oracle: numeric characteristic polynomial of the
        # explicitly constructed n*A + B
        count = 0
        while count < 25:
            m_vals = rng.permutation(np.arange(-6, 7))[:3]
            n_vals = rng.permutation(np.arange(1, 8) * rng.choice([-1, 1], size=7))[:2]
            m1, m2, m3 = (int(x) for x in m_vals)
            n1, n2 = (int(x) for x in n_vals)
            if 0 in (m1, m2, m3) or n1 == n2 or m1 + m2 + m3 == n1 + n2:
                continue
            if {m1, m2, m3} & {n1, n2}:
                continue
            l1 = n1 + n2 - (m1 + m2 + m3)
            p = III2Params(l1=l1, m1=m1, m2=m2, m3=m3, n1=n1, n2=n2)
            a, b = case3_III2_matrix(p, III2Form.SYMMETRIC_RANK1)
            for n in (1, 2, 3):
                exact = char_poly_nAB(p, n)
                numeric = char_poly(combine_affine(a, b, n))
                scale = max(1.0, max(abs(x) for x in exact))
                assert all(
                    abs(x - y) <= 1e-8 * scale for x, y in zip(exact, numeric)
                ), (p, n)
            count += 1
