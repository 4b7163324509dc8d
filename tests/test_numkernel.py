import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from commexp import numkernel
from commexp.errors import DimensionError
from commexp.families import intro_pair
from commexp.numkernel import (
    CMat,
    _cluster,
    _exact_order,
    affine_rows,
    char_poly,
    combine_affine,
    commutator,
    eigen_decompose,
    frobenius,
    frobenius_2x2,
    frobenius_finite,
)
from commexp.relations import congruence_free

from conftest import random_matrix

PI = math.pi


def poly_eval_matrix(coeffs, m):
    d = m.shape[0]
    acc = np.zeros((d, d), dtype=complex)
    for c in coeffs:
        acc = acc @ m + c * np.eye(d)
    return acc


class TestCMat:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            CMat(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(DimensionError):
            CMat(np.array([[np.nan, 0], [0, 0]]))

    @pytest.mark.parametrize("bad", [complex(0, math.inf), complex(0, -math.inf),
                                     complex(0, math.nan), complex(1, math.nan)])
    def test_rejects_non_finite_imaginary_part(self, bad):
        with pytest.raises(DimensionError, match="finite"):
            CMat(np.array([[1, 0], [bad, 2j]]))

    def test_expanded_shares_entries_without_pi_factor(self):
        m = CMat.from_rows([[1, 2j], [3, 4]])
        assert m.expanded() is m.entries and not m.expanded().flags.writeable
        scaled = CMat(m.entries, pi_scaled=True)
        assert scaled.expanded() is not scaled.entries and scaled.expanded().flags.writeable

    def test_leaves_the_callers_array_writeable_and_unshared(self):
        x = np.eye(2, dtype=complex)
        m = CMat(x)
        assert x.flags.writeable and not np.shares_memory(m.entries, x)
        x[0, 0] = 5
        assert m.entries[0, 0] == 1

    def test_entries_read_only(self):
        m = CMat.identity(2)
        with pytest.raises(ValueError):
            m.entries[0, 0] = 5

    def test_pi_scaling_expands_with_float_pi(self):
        scaled = CMat.from_rows([[60j, 0], [0, -60j]], pi_scaled=True)
        plain = np.array([[60j * PI, 0], [0, -60j * PI]])
        assert np.array_equal(scaled.expanded(), plain)

    def test_combine_affine_keeps_pi_flag(self):
        # two pi-scaled matrices are combined in their stored entries and
        # multiplied by pi once, into a plain array
        a, b = intro_pair()
        s = combine_affine(a, b, 3)
        assert type(s) is np.ndarray
        assert np.array_equal(s, (3 * a.entries + b.entries) * PI)


class TestAffineRows:
    def test_rows_are_plain_arrays_in_t_order(self):
        a, b = intro_pair()
        tf, tfg = affine_rows(a, b, (2, -1, 0.5j))
        assert type(tf) is np.ndarray and type(tfg) is np.ndarray
        assert tf.shape == tfg.shape == (3, 2, 2)
        for row, t in enumerate((2, -1, 0.5j)):
            assert np.array_equal(tf[row], (t * a.entries) * PI)
            assert np.array_equal(tfg[row], (t * a.entries + b.entries) * PI)

    def test_mixed_scales_combine_the_expanded_matrices(self):
        a, b = intro_pair()
        plain = CMat(b.expanded())
        tf, tfg = affine_rows(a, plain, (3,))
        assert np.array_equal(tf[0], (3 * a.entries) * PI)
        assert np.array_equal(tfg[0], 3 * a.expanded() + plain.entries)
        tf, tfg = affine_rows(plain, a, (3,))
        assert np.array_equal(tf[0], 3 * plain.entries)
        assert np.array_equal(tfg[0], 3 * plain.entries + a.expanded())

    def test_an_overflowing_t_f_stays_an_array(self):
        f = CMat.from_rows([[1e10j, 0], [0, 2j]])
        with np.errstate(over="ignore"):
            tf, tfg = affine_rows(f, CMat.identity(2), (1e300j,))
        assert tf[0, 0, 0].real == -math.inf and np.isfinite(tf[0, 1, 1])
        assert tfg[0, 0, 0].real == -math.inf


_NORM_ELEMENTS = {
    np.float64: st.floats(allow_nan=True, allow_infinity=True),
    np.complex128: st.complex_numbers(allow_nan=True, allow_infinity=True),
}


@st.composite
def _norm_inputs(draw):
    """Real and complex 2x2 and 3x3 matrices and vectors, any float entries
    (inf, NaN, subnormals and huge values included), sometimes a transposed
    or strided view."""
    dtype = draw(st.sampled_from(list(_NORM_ELEMENTS)))
    shape = draw(st.sampled_from([(2, 2), (3, 3), (2,), (3,), (9,)]))
    x = draw(arrays(dtype, shape, elements=_NORM_ELEMENTS[dtype]))
    view = draw(st.sampled_from(["as-is", "transposed", "strided"]))
    if view == "transposed":
        x = x.T
    elif view == "strided":
        x = x[::2]
    return x


class TestFrobenius:
    @settings(max_examples=500, deadline=None)
    @given(_norm_inputs())
    def test_bit_identical_to_numpy(self, x):
        with np.errstate(over="ignore", invalid="ignore"):  # huge entries overflow to inf
            assert frobenius(x).hex() == float(np.linalg.norm(x)).hex()

    @pytest.mark.parametrize("shape", [(0, 2, 2), (1, 2, 2), (7, 2, 2), (5, 3, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_stack_gives_each_norm(self, rng, shape, dtype):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, (shape[0], 1, 1))
        if dtype is np.complex128:
            x = x + 1j * rng.standard_normal(shape)
        got = frobenius(x)
        assert got.shape == (shape[0],)
        # the summation order is numpy's, so agreement is to rounding
        for stack in (x, x[:, ::-1].transpose(0, 2, 1)):  # the second one is copied
            want = np.array([frobenius(m) for m in stack])
            assert np.all(np.abs(frobenius(stack) - want) <= 2 * np.finfo(float).eps * want)

    @settings(max_examples=500, deadline=None)
    @given(arrays(np.complex128, (2, 2), elements=_NORM_ELEMENTS[np.complex128]))
    def test_2x2_from_entries_is_bit_identical(self, x):
        # a C-ordered 2x2, whose row order is its memory order
        with np.errstate(over="ignore", invalid="ignore"):
            assert frobenius_2x2(x.ravel().tolist()).hex() == frobenius(x).hex()

    def test_nan_and_inf(self):
        assert math.isnan(frobenius(np.array([[math.nan, 0], [0, 1]])))
        assert frobenius(np.array([[complex(0, math.inf), 0], [0, 1]])) == math.inf

    @pytest.mark.parametrize("dim", [2, 3])
    def test_finite_past_the_squares_overflow(self, rng, dim):
        # frobenius's answer wherever it is finite or an entry is not; past
        # ~1e154 on finite entries, the norm that frobenius overflows
        m = random_matrix(rng, dim)
        with np.errstate(over="ignore"):
            for scale in (1e-300, 1.0, 1e150):
                assert frobenius_finite(scale * m) == frobenius(scale * m)
            for scale in (1e154, 1e200, 1e300):
                assert frobenius(scale * m) == math.inf
                assert abs(frobenius_finite(scale * m) / (scale * frobenius(m)) - 1) <= 4e-16
            m[0, 0] = math.inf
            assert frobenius_finite(m) == math.inf


def congruence_free_by_loop(values, tol):
    """Reference for ``relations.congruence_free``: every nonzero k with
    |k| <= |delta| / 2 pi + 1 tested in turn."""
    vals = list(values)
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            delta = vals[i] - vals[j]
            kmax = math.ceil(abs(delta) / (2 * PI)) + 1
            for k in range(-kmax, kmax + 1):
                if k and abs(delta - 2j * math.pi * k) <= tol * max(1.0, abs(delta)):
                    return False
    return True


_TOLS = st.sampled_from([1e-9, 1e-8, 1e-6])
_BASES = st.complex_numbers(max_magnitude=50, allow_nan=False, allow_infinity=False)


@st.composite
def _near_lattice_pairs(draw):
    """(values, tol) with values [z + delta, z], delta = x + 2 i pi (k + eps)
    and both x and 2 pi eps within a few acceptance bounds of zero."""
    tol = draw(_TOLS)
    k = draw(st.integers(-10**4, 10**4))
    edge = tol * max(1.0, 2 * PI * abs(k))
    x = draw(st.floats(-3, 3)) * edge
    eps = draw(st.floats(-3, 3)) * edge / (2 * PI)
    z = draw(_BASES)
    return [z + complex(x, 2 * PI * (k + eps)), z], tol


@st.composite
def _far_real_pairs(draw):
    """k = 0 or small, real part of delta up to ~6e4: no k is close."""
    tol = draw(_TOLS)
    k = draw(st.integers(-2, 2))
    x = draw(st.floats(-6e4, 6e4))
    eps = draw(st.floats(-0.6, 0.6))
    z = draw(_BASES)
    return [z + complex(x, 2 * PI * (k + eps)), z], tol


class TestSpectrumCongruenceFree:
    @settings(max_examples=300, deadline=None)
    @given(_near_lattice_pairs())
    def test_near_lattice_agrees_with_the_loop(self, case):
        values, tol = case
        assert congruence_free(values, tol) == congruence_free_by_loop(values, tol)

    @settings(max_examples=60, deadline=None)
    @given(_far_real_pairs())
    def test_large_real_part_agrees_with_the_loop(self, case):
        values, tol = case
        assert congruence_free(values, tol) == congruence_free_by_loop(values, tol)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_near_lattice_pairs(), min_size=2, max_size=2))
    def test_three_values_agree_with_the_loop(self, cases):
        (values, tol), (more, _) = cases
        three = [values[0], values[1], more[0] - more[1] + values[1]]
        assert congruence_free(three, tol) == congruence_free_by_loop(three, tol)

    def test_both_signs_flagged_at_the_lattice(self):
        for k in (1, -1, 241, -241, 10**4, -10**4):
            assert not congruence_free([2j * PI * k, 0], 1e-9)
            assert not congruence_free([0, 2j * PI * k], 1e-9)
        assert congruence_free([0, 0, 0.5j * PI], 1e-9)

    @pytest.mark.parametrize("value", [
        complex(math.nan, 0), complex(0, math.nan), complex(1, math.nan), complex(math.nan, 1),
        complex(math.inf, 0), complex(0, math.inf), complex(-math.inf, 1),
        complex(math.inf, math.nan), complex(math.nan, math.inf),
    ], ids=repr)
    def test_non_finite_raises_as_the_loop(self, value):
        with pytest.raises((ValueError, OverflowError)) as want:
            congruence_free_by_loop([value, 0], 1e-9)
        with pytest.raises(want.type):
            congruence_free([value, 0], 1e-9)


class TestCommutator:
    def test_identity_commutes(self, rng):
        b = random_matrix(rng, 2)
        assert np.all(commutator(np.eye(2), b) == 0)

    def test_direct_multiply(self):
        got = commutator(np.diag([1, -1]), [[0, 1], [0, 0]])
        assert np.array_equal(got, np.array([[0, 2], [0, 0]]))

    def test_intro_pair_closed_form(self):
        a, b = intro_pair()
        # oracle: direct multiplication of the expanded matrices
        ae, be = a.expanded(), b.expanded()
        direct = ae @ be - be @ ae
        closed = 60j * PI**2 * np.array([[0, -182], [-782, 0]])
        assert np.allclose(commutator(a, b), direct)
        assert np.allclose(direct, closed, rtol=1e-13)

    @given(st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_antisymmetry_exact(self, dim, seed):
        r = np.random.default_rng(seed)
        m, n = random_matrix(r, dim), random_matrix(r, dim)
        assert np.array_equal(commutator(m, n), -commutator(n, m))


class TestCharPoly:
    def test_identity_2x2(self):
        assert np.allclose(char_poly(np.eye(2)), [1, -2, 1])

    def test_intro_b(self):
        _, b = intro_pair()
        coeffs = char_poly(b)
        # det = (22500 + 35581) pi^2 = 241^2 pi^2
        assert abs(coeffs[1]) < 1e-9
        assert abs(coeffs[2] - 58081 * PI**2) < 1e-6
        assert 241**2 == 58081

    def test_intro_6a_plus_b(self):
        a, b = intro_pair()
        coeffs = char_poly(combine_affine(a, b, 6))
        assert abs(coeffs[2] - 79681 * PI**2) < 1e-5
        assert (60 * 6 - 150) ** 2 + 35581 == 79681

    def test_dimension_limit(self):
        with pytest.raises(DimensionError):
            char_poly(np.eye(4))

    def test_cayley_hamilton(self, rng):
        for _ in range(120):
            d = int(rng.integers(1, 4))
            m = random_matrix(rng, d, norm=10.0)
            residual = np.linalg.norm(poly_eval_matrix(char_poly(m), m))
            assert residual <= 1e-8 * (1 + np.linalg.norm(m)) ** d


class TestEigenDecompose:
    def test_diagonal(self):
        spec = eigen_decompose(np.diag([1.0, 2.0, 3.0]))
        assert spec.distinct_count == 3
        assert sorted(z.real for z in spec.eigenvalues) == pytest.approx([1, 2, 3])

    def test_intro_a_snap(self):
        a, _ = intro_pair()
        spec = eigen_decompose(a)
        assert spec.snap is not None and sorted(spec.snap) == [-60, 60]

    def test_intro_b_and_sum_snaps(self):
        a, b = intro_pair()
        assert sorted(eigen_decompose(b).snap) == [-241, 241]
        assert sorted(eigen_decompose(combine_affine(a, b, 1)).snap) == [-209, 209]

    def test_nilpotent_defective(self):
        spec = eigen_decompose(np.array([[0, 1], [0, 0]]))
        assert spec.distinct_count == 1
        assert spec.multiplicities == (2,)
        assert spec.eigenvalues == (0, 0)

    def test_matches_lapack(self, rng):
        # independent oracle: LAPACK via numpy against the closed forms
        for _ in range(200):
            d = int(rng.integers(1, 4))
            m = random_matrix(rng, d, norm=8.0)
            ours = sorted(eigen_decompose(m).eigenvalues, key=lambda z: (z.real, z.imag))
            ref = sorted(np.linalg.eigvals(m), key=lambda z: (z.real, z.imag))
            scale = max(1.0, np.linalg.norm(m))
            assert all(abs(x - y) <= 1e-8 * scale for x, y in zip(ours, ref))

    def test_eigen_trace_det_consistency(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 4))
            m = random_matrix(rng, d, norm=6.0)
            spec = eigen_decompose(m)
            prod = np.prod(spec.eigenvalues)
            det = np.linalg.det(m)
            assert abs(prod - det) <= 1e-8 * max(1.0, abs(det))
            assert abs(sum(spec.eigenvalues) - m.trace()) <= 1e-10 * max(1.0, abs(m.trace()))

    def test_triple_root(self):
        m = np.array([[2.0, 1, 0], [0, 2, 1], [0, 0, 2]])
        spec = eigen_decompose(m)
        assert spec.distinct_count == 1
        assert spec.multiplicities == (3,)
        assert abs(spec.eigenvalues[0] - 2) < 1e-9

    def test_three_close_real_roots_trig_branch(self):
        # eigenvalues 1, 1 +- 1e-4: the radical form loses everything here;
        # the trig branch keeps the error at the conditioning limit
        # (~eps_machine / gap^2 ~ 1e-8), far from catastrophic
        eps = 1e-4
        m = np.diag([1.0, 1.0 + eps, 1.0 - eps])
        spec = eigen_decompose(m)
        vals = sorted(z.real for z in spec.eigenvalues)
        assert spec.distinct_count == 3
        assert vals == pytest.approx([1 - eps, 1, 1 + eps], abs=1e-7)

    @pytest.mark.parametrize("shift", [1e3, 1e3j])
    def test_large_common_shift_keeps_kernels(self, shift):
        # [[c,1,0],[0,c+g,1],[0,0,c-2g]] has eigenvalues c, c+g, c-2g; without
        # the shift by tr / d the characteristic polynomial's roots miss them
        # by up to ~1e-5 |c|, and by more than 1e-13 |c| at 39 (c = 1e3) and
        # 18 (c = 1e3i) of these 39 gaps
        for e in np.arange(1, 10.75, 0.25):
            gap = 10 ** -e
            m = np.array([[shift, 1, 0], [0, shift + gap, 1], [0, 0, shift - 2 * gap]])
            spec = eigen_decompose(m)
            if spec.distinct_count == 3:
                for want in (shift, shift + gap, shift - 2 * gap):
                    assert min(abs(lam - want) for lam in spec.eigenvalues) <= 1e-13 * abs(shift)


    @pytest.mark.parametrize("x", [1e52, 1e100, 1e200])
    def test_finite_spectrum_past_cubic_overflow(self, x):
        # eigenvalues x, 0 and 1: the cubic's p^3 overflows past ||M|| ~ 1e51,
        # and the roots of M / ||M||_F, scaled back, stay finite
        spec = eigen_decompose(np.array([[x, x, 0], [0, 0, 0], [0, 0, 1]]))
        assert all(map(np.isfinite, spec.eigenvalues))
        top = max(spec.eigenvalues, key=abs)
        assert abs(top - x) <= 1e-12 * x
        assert abs(sum(spec.eigenvalues) - (x + 1)) <= 1e-12 * x

    def test_finite_2x2_spectrum_past_determinant_overflow(self):
        # eigenvalues +-sqrt(2) 1e200; the determinant -2e400 overflows
        spec = eigen_decompose(np.array([[1e200, 1e200], [1e200, -1e200]]))
        assert sorted(z.real for z in spec.eigenvalues) == pytest.approx(
            [-math.sqrt(2) * 1e200, math.sqrt(2) * 1e200], rel=1e-15)
        assert all(z.imag == 0 for z in spec.eigenvalues)

    def test_near_double_pair_keeps_its_mean(self):
        # [[s,1,0],[lam^2,s,0],[0,0,1]] has the pair s +- lam and the root 1.
        # The pair's mean is as well conditioned as the root 1; polished root
        # by root, a gap of 2e-8..1e-3 moved it by up to 2.6e-9
        for lam in np.geomspace(1e-8, 1e-3, 11):
            for shift in (0.0, 1j * PI):
                m = np.array([[shift, 1, 0], [lam * lam, shift, 0], [0, 0, 1]])
                third, *pair = sorted(eigen_decompose(m).eigenvalues, key=lambda z: abs(z - 1))
                assert abs(third - 1) <= 1e-14
                assert abs((pair[0] + pair[1]) / 2 - shift) <= 1e-14 * max(1, abs(shift))

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("x", [1e200, 1e300])
    def test_no_warning_past_the_squares_overflow(self, rng, dim, x):
        # past ~1e154 the squares in ||M||_F overflow; the norm and the roots
        # are taken past that overflow, so nothing warns and the spectrum is
        # LAPACK's to rounding
        m = random_matrix(rng, dim)
        m *= x / np.abs(m).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = eigen_decompose(m)
        assert spec.distinct_count == dim
        for want in np.linalg.eigvals(m):
            assert min(abs(lam - want) for lam in spec.eigenvalues) <= 1e-13 * x

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflowing_root_gap_does_not_raise(self, dim):
        # two finite roots whose gap's modulus is past the float range
        a = 0.75e308 * (1 + 1j)
        spec = eigen_decompose(np.diag([a, -a, 0][:dim]))
        assert spec.multiplicities == (1,) * dim
        assert spec.eigenvalues[0].real < 0 < spec.eigenvalues[-1].real


_CLUSTER_PARTS = st.one_of(
    st.floats(-4, 4),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 0.75e308, -0.75e308, 1e308]))


@st.composite
def _roots_and_tol(draw):
    """1 to 3 roots and a tolerance: each root after the first lies a gap
    just below, at or just above the tolerance from an earlier one, or
    shares its real part to 12 digits, or is free; any part may be a signed
    zero, an infinity, NaN or large enough that a gap's modulus, or the gap
    itself, overflows.  The tolerance and the gaps may be subnormal."""
    tol = draw(st.sampled_from([0.0, 1e-8, 0.5]) | st.floats(0, 2))
    roots = [complex(draw(_CLUSTER_PARTS), draw(_CLUSTER_PARTS))]
    for _ in range(draw(st.integers(0, 2))):
        base = draw(st.sampled_from(roots))
        how = draw(st.sampled_from(["below", "at", "above", "rounded", "free"]))
        if how == "free":
            roots.append(complex(draw(_CLUSTER_PARTS), draw(_CLUSTER_PARTS)))
        elif how == "rounded":
            nudge = draw(st.sampled_from([0.0, 1e-14, -1e-14]))
            roots.append(complex(base.real + nudge, draw(_CLUSTER_PARTS)))
        else:
            gap = {"below": math.nextafter(tol, -math.inf), "at": tol,
                   "above": math.nextafter(tol, math.inf)}[how]
            roots.append(base + gap * draw(st.sampled_from([1, -1, 1j, -1j, 0.6 + 0.8j])))
    return draw(st.permutations(roots)), tol


def _hex_parts(values):
    return [(float(z.real).hex(), float(z.imag).hex()) for z in values]


def _within(v, w, tol):
    """|v - w| <= tol, the modulus taken only where it cannot overflow."""
    gap = v - w
    return abs(gap.real) <= tol and abs(gap.imag) <= tol and abs(gap) <= tol


def _dealt_as(roots, reps, mults, tol):
    """Whether ``roots``, cut in this order into runs of the sizes ``mults``,
    are the clusters (reps, mults): each run's members, in exact order, lie
    within tol of the first, and their mean is the run's representative."""
    i = 0
    for m in mults:
        members = sorted(roots[i:i + m], key=_exact_order)
        if not all(_within(v, members[0], tol) for v in members[1:]):
            return False
        if _hex_parts(reps[i:i + m]) != _hex_parts([sum(members) / m]) * m:
            return False
        i += m
    return True


class TestCluster:
    # a chain, each root within tol of the next: the greedy pass that
    # visited the roots by their rounded parts returned [3], [1, 2] or
    # [2, 1] clusters depending on the order of the input
    @example(([1e-13 + 0j, 0j, -1e-13 + 0j], 1e-13))
    @settings(max_examples=500, deadline=None)
    @given(_roots_and_tol())
    def test_permuting_the_roots_changes_nothing(self, case):
        roots, tol = case
        reps, mults = _cluster(list(roots), tol)
        for order in itertools.permutations(roots):
            got_reps, got_mults = _cluster(list(order), tol)
            assert got_mults == mults
            assert _hex_parts(got_reps) == _hex_parts(reps)

    @settings(max_examples=500, deadline=None)
    @given(_roots_and_tol())
    def test_separated_roots_are_their_own_clusters(self, case):
        # every gap above tol (or NaN): the roots in exact order, each its
        # own mean, signed zeros, infinities and NaN parts included
        roots, tol = case
        if any(_within(v, w, tol) for v, w in itertools.combinations(roots, 2)):
            return
        reps, mults = _cluster(list(roots), tol)
        assert mults == [1] * len(roots)
        assert _hex_parts(reps) == _hex_parts([sum([v]) / 1 for v in sorted(roots, key=_exact_order)])

    @settings(max_examples=500, deadline=None)
    @given(_roots_and_tol())
    def test_each_cluster_lies_within_tol_of_its_first_root(self, case):
        roots, tol = case
        reps, mults = _cluster(list(roots), tol)
        assert sum(mults) == len(reps) == len(roots)
        assert any(_dealt_as(list(order), reps, mults, tol)
                   for order in itertools.permutations(roots))

    @pytest.mark.parametrize("roots, tol", [
        # the gap's parts are finite, its modulus is past the float range
        ([0.75e308 * (1 + 1j), -0.75e308 * (1 + 1j), 0j], 1e-8),
        ([1e308 + 0j, -1e308 + 0j], 1.0),  # the gap itself overflows
        ([complex(math.inf, 0), complex(math.inf, 0), complex(-math.inf, 1)], 1.0),
        ([complex(math.nan, 0), 0j, complex(0, math.nan)], 1.0),
    ], ids=["modulus", "gap", "infinite", "nan"])
    def test_no_gap_raises(self, roots, tol):
        # math.nextafter to a subnormal leaves errno at ERANGE, and CPython's
        # abs() of a complex with a NaN part may then raise OverflowError
        math.nextafter(1e-310, 0.0)
        assert _cluster(roots, tol)[1] == [1] * len(roots)

    def test_spectrum_order_is_by_mean_real_then_imaginary_part(self):
        # a cluster of two roots (mean 1 + 2i) between two single roots
        reps, mults = _cluster([3 + 0j, 1 + 2.5j, 1 + 1.5j, 1 + 0j], 1.0)
        assert mults == [1, 2, 1] and reps == [1 + 0j, 1 + 2j, 1 + 2j, 3 + 0j]
