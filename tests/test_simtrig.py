import itertools
import math
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commexp.families import Theorem2Params, dim2_case1_pair, intro_pair, theorem2_family
from commexp.numkernel import CMat, frobenius
from commexp.simtrig import (
    BASIS_VERIFY_TOL,
    TrigVerdict,
    _commutator_2x2,
    _commutator_norm_2x2,
    _eigenline,
    _lower_norm,
    _residual,
    _words,
    common_eigenvector,
    sim_triangularizable,
)
from commexp.uset import branch_seed, solve_u

from conftest import NORM_PAST_FLOAT_RANGE, random_matrix

U1 = 2.088843015613044 + 7.461489285654254j

# pairs with no common eigenvector: the intro pair and a real 2x2 pair
# with norms 0.674 and 1.736
NO_COMMON_EIGENVECTOR = {
    "intro": tuple(m.expanded() for m in intro_pair()),
    "real2x2": tuple(np.random.default_rng(0).normal(size=(2, 2, 2))),
}

# tr([F, G] w) = 0 for every word w of length <= 3, and tr([F, G] FFGF) = 4
PAZ_F = np.array([[0, 0, 0], [1, -2, 0], [0, 2, -2]])
PAZ_G = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]])


def conjugated_triangular_pair(rng, dim=3):
    s = random_matrix(rng, dim) + 2 * np.eye(dim)
    u1 = np.triu(random_matrix(rng, dim))
    u2 = np.triu(random_matrix(rng, dim))
    sinv = np.linalg.inv(s)
    return sinv @ u1 @ s, sinv @ u2 @ s


class TestSimTriangularizable:
    def test_conjugated_triangular_recovered(self, rng):
        f, g = conjugated_triangular_pair(rng)
        v = sim_triangularizable(f, g)
        assert v.triangularizable
        t = v.basis
        tinv = np.linalg.inv(t)
        for m in (f, g):
            c = tinv @ m @ t
            assert np.linalg.norm(np.tril(c, -1)) <= 1e-8 * max(1, np.linalg.norm(m))

    def test_intro_pair_refused_with_witness(self):
        a, b = intro_pair()
        v = sim_triangularizable(a, b)
        assert not v.triangularizable
        assert v.basis is None and v.witness is not None
        # the witness trace must reproduce tr([A,B] w) when recomputed
        comm = a.expanded() @ b.expanded() - b.expanded() @ a.expanded()
        assert np.trace(comm @ v.witness) == pytest.approx(v.witness_trace)
        assert abs(v.witness_trace) > 1.0

    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e154, 1e300])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_witness_trace_is_never_nan_on_finite_entries(self, dim, scale):
        # s [[0, -1], [1, 0]] and s diag(1, -1), at d = 3 with a third
        # eigenvalue apiece: tr([F, G] F G) = 4 s^4, real.  Past the float
        # range it reads inf + 0j: scaled as one Python complex product, the
        # zero imaginary part would meet an infinite factor and read NaN.
        # The witness F G = s^2 [[0, 1], [1, 0]] (and 2 s^2 at (2, 2)) keeps
        # its zero entries zero there likewise; an entry of finite value reads
        # it (s^2 = 1e308 at s = 1e154), the others inf
        f, g = np.zeros((dim, dim)), np.zeros((dim, dim))
        f[:2, :2], g[:2, :2] = [[0, -1], [1, 0]], [[1, 0], [0, -1]]
        if dim == 3:
            f[2, 2], g[2, 2] = 1, 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = sim_triangularizable(scale * f, scale * g)
        assert not verdict.triangularizable and verdict.witness_word == "FG"
        trace = verdict.witness_trace
        if scale == 1.0:
            assert trace == pytest.approx(4, rel=1e-15, abs=0)
        else:
            assert (trace.real, trace.imag) == (math.inf, 0.0)
        witness = verdict.witness
        assert (witness.imag == 0).all() and np.array_equal(np.sign(witness.real), np.sign(f @ g))
        # s^2 F G in Python arithmetic, which overflows to inf without a warning
        want = [[x * scale * scale for x in row] for row in (f @ g).tolist()]
        assert np.allclose(witness, want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("name", sorted(NORM_PAST_FLOAT_RANGE))
    def test_norm_past_the_float_range_does_not_warn(self, name):
        # a diagonal F and the identity are triangular as they are
        m = NORM_PAST_FLOAT_RANGE[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdicts = [sim_triangularizable(*pair) for pair in ((m, np.eye(len(m))),
                                                                  (np.eye(len(m)), m))]
        assert all(v.triangularizable for v in verdicts)

    @pytest.mark.parametrize("scale", (1e-8, 1e-5, 1e-3, 1.0, 1e3, 1e6))
    @pytest.mark.parametrize("name", sorted(NO_COMMON_EIGENVECTOR))
    def test_refused_at_every_scale(self, name, scale):
        # triangularizability does not depend on the scale of F or of G
        f, g = NO_COMMON_EIGENVECTOR[name]
        assert sim_triangularizable(scale * f, scale * g).triangularizable is False

    def test_theorem2_pair_accepted(self):
        f, g = theorem2_family(Theorem2Params(u=U1))
        assert sim_triangularizable(f, g).triangularizable

    def test_shifted_conjugated_theorem2_pair(self):
        # F has a defective double eigenvalue known only to ~sqrt(eps) after
        # a shift and a basis change; the common eigenvector is the kernel of
        # the commutator ideal, which needs no eigenvalue
        u = solve_u(branch_seed(-3)).value
        basis = np.array([
            [1.1634003423762678 + 0.10429517955465285j, 0.31286264297488614 + 0.07426372228885426j],
            [-0.06208693086249718 + 0.3296438305243225j, 0.7559453374055283 - 0.38537423364160345j],
        ])
        f, g = theorem2_family(Theorem2Params(
            u=u, sigma=-0.33080646517777385 - 0.41908348035783727j,
            tau=-0.8670074231164258 + 0.0632172775984981j, basis=basis))
        verdict = sim_triangularizable(f, g)
        assert verdict.triangularizable
        t = verdict.basis
        for m in (f.expanded(), g.expanded()):
            c = np.linalg.inv(t) @ m @ t
            assert np.linalg.norm(np.tril(c, -1)) <= BASIS_VERIFY_TOL * max(1, np.linalg.norm(m))

    def test_exactly_one_of_basis_witness(self, rng):
        a, b = intro_pair()
        refused = sim_triangularizable(a, b)
        assert (refused.basis is None) and (refused.witness is not None)
        f, g = conjugated_triangular_pair(rng)
        accepted = sim_triangularizable(f, g)
        assert (accepted.basis is not None) and (accepted.witness is None)

    def test_commuting_pairs_accepted(self, rng):
        for _ in range(20):
            m = random_matrix(rng, 3, norm=2.0)
            assert sim_triangularizable(m, m @ m - m).triangularizable

    def test_commuting_3x3_with_derogatory_members(self, rng):
        # the less scalar member has a double root of geometric multiplicity
        # 2 (listed first, as its real part is the smaller) next to a simple
        # one, or is c I + N with N of rank one, whose range is the common
        # eigenvector; or one member is scalar
        n = np.outer([0, 1, 1], [1, 0, 0])
        pairs = [(2 * np.eye(3) + n, 3 * np.eye(3) - n)]
        for _ in range(20):
            s = random_matrix(rng, 3, norm=1.0) + 2 * np.eye(3)
            sinv = np.linalg.inv(s)
            block = 5 * np.eye(3, dtype=complex)
            block[:2, :2] += 0.1 * random_matrix(rng, 2)
            pairs += [
                (np.diag([2j, 2j, 1]), block),
                (sinv @ np.diag([2j, 2j, 1]) @ s, sinv @ block @ s),
                (1.5j * np.eye(3), np.triu(random_matrix(rng, 3))),
            ]
        for f, g in pairs:
            for pair in ((f, g), (g, f)):
                t = sim_triangularizable(*pair).basis
                for m in pair:
                    lower = np.linalg.norm(np.tril(np.linalg.inv(t) @ m @ t, -1))
                    assert lower <= BASIS_VERIFY_TOL * max(1, np.linalg.norm(m))

    @pytest.mark.parametrize("seed", range(12))
    def test_rank_one_f_annihilated_by_g(self, seed):
        # F = v w^T and G = S diag(0, u1, u2) S^-1 with v = S e2 + S e3 / 2
        # and w^T = e1^T S^-1: F^2 = 0 and FG = 0, so the pair is
        # triangularizable.  ker J = span(S e2, S e3) holds F as rounding
        # noise next to G = diag(u1, u2); an eigenvector of the noise misses
        # G's eigenvectors, and the basis check raised DeflationError
        # (seeds 1, 10 and 11)
        parts = np.random.default_rng(seed).normal(size=(2, 3, 3))
        s = np.eye(3) if seed == 0 else parts[0] + 1j * parts[1]
        sinv = np.linalg.inv(s)
        u1, u2 = (solve_u(branch_seed(k)).value for k in (1, -2))
        f = np.outer(s[:, 1] + s[:, 2] / 2, sinv[0])
        g = s @ np.diag([0, u1, u2]) @ sinv
        t = sim_triangularizable(f, g).basis
        for m in (f, g):
            lower = np.linalg.norm(np.tril(np.linalg.inv(t) @ m @ t, -1))
            assert lower <= BASIS_VERIFY_TOL * max(1, np.linalg.norm(m))

    def test_similarity_invariance(self, rng):
        a, b = intro_pair()
        f, g = theorem2_family(Theorem2Params(u=U1))
        pairs = [(a.expanded(), b.expanded(), False), (np.array(f.entries), np.array(g.entries), True)]
        for fe, ge, expected in pairs:
            for _ in range(100):
                s = random_matrix(rng, 2) + 2.5 * np.eye(2)
                sinv = np.linalg.inv(s)
                got = sim_triangularizable(sinv @ fe @ s, sinv @ ge @ s)
                assert got.triangularizable == expected


TRIANGULAR_FAMILIES = ("generic", "single", "double", "nilpotent", "shift", "commuting")


def triangular_family(rng, family, dim):
    """S^-1 U1 S, S^-1 U2 S for upper triangular U1, U2 of the given family,
    with S = 2I + R, ||R||_F = 1, so that cond(S) <= 3."""
    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    u1, u2 = np.triu(cn(dim, dim)), np.triu(cn(dim, dim))
    if family == "single":  # F has one eigenvalue
        np.fill_diagonal(u1, cn())
    elif family == "double":  # a double eigenvalue in both
        for u in (u1, u2):
            lam, other = cn(2)
            np.fill_diagonal(u, [lam, lam, other] if dim == 3 else lam)
    elif family == "nilpotent":
        u1, u2 = np.triu(u1, 1), np.triu(u2, 1)
    elif family == "shift":
        u1 = u1 + 1e3j * np.eye(dim)
    elif family == "commuting":  # cI + N against I + 2N
        n = np.triu(cn(dim, dim), 1)
        u1, u2 = cn() * np.eye(dim) + n, np.eye(dim) + 2 * n
    r = cn(dim, dim)
    s = 2 * np.eye(dim) + r / np.linalg.norm(r)
    sinv = np.linalg.inv(s)
    return sinv @ u1 @ s, sinv @ u2 @ s


class TestConjugatedTriangularFamilies:
    """Every conjugated triangular pair is accepted with a verified basis.
    Defective and shared eigenvalues are known only to ~sqrt(eps) or
    ~eps^(1/3), which no eigenvalue-pair guess at a fixed tolerance meets."""

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("family", TRIANGULAR_FAMILIES)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from((1e-6, 1.0, 1e3, 1e6)))
    @settings(max_examples=60, deadline=None)
    def test_accepted_with_verified_basis(self, family, dim, seed, scale):
        f, g = (scale * m for m in triangular_family(np.random.default_rng(seed), family, dim))
        verdict = sim_triangularizable(f, g)
        assert verdict.triangularizable
        t = verdict.basis
        tinv = np.linalg.inv(t)
        for m in (f, g):
            lower = np.linalg.norm(np.tril(tinv @ m @ t, -1))
            assert lower <= BASIS_VERIFY_TOL * np.linalg.norm(m)


def rational_rank(rows) -> int:
    """Rank over Q of integer vectors, by elimination in exact integers."""
    pivots: dict[int, list[int]] = {}
    for row in rows:
        row = [int(x) for x in row]
        for col, piv in pivots.items():
            if row[col]:
                row = [piv[col] * x - row[col] * y for x, y in zip(row, piv)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            gcd = math.gcd(*row)
            pivots[lead] = [x // gcd for x in row]
            if len(pivots) == len(row):
                break
    return len(pivots)


def word(f, g, label):
    return reduce(np.matmul, ({"F": f, "G": g}[x] for x in label), np.eye(len(f), dtype=int))


class TestEigenline:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("scalar", [0, 0.5, 0.6j, 1])
    @pytest.mark.parametrize("noise", [1e-17, 1e-13, 1e-10])
    def test_noise_plus_scalar_member_is_not_chosen(self, dim, scalar, noise):
        # members of norm <= 1, as every caller passes: c I plus noise next
        # to a unit-norm G with distinct eigenvalues.  The eigenvector comes
        # from G, in either order, so it holds for G to rounding and for the
        # other member to the noise's size (plus the rounding of c I)
        rng = np.random.default_rng(dim * 1000 + int(-math.log10(noise)))
        s = random_matrix(rng, dim, norm=1.0) + 2 * np.eye(dim)
        g = s @ np.diag(np.arange(1, dim + 1) * (1 + 1j)) @ np.linalg.inv(s)
        g /= np.linalg.norm(g)
        f = (1 - noise) * scalar * np.eye(dim) / math.sqrt(dim) + noise * random_matrix(rng, dim, 1.0)
        for pair in ((f, g), (g, f)):
            v = _eigenline(*pair)
            assert _residual(g, v) <= 1e-13
            assert _residual(f, v) <= 2 * noise + 1e-15


class TestPazLength:
    """The words of length <= 2d - 2 span the algebra F and G generate, and
    a witness may need every one of those letters."""

    def test_refused_with_a_length_four_witness(self):
        comm = PAZ_F @ PAZ_G - PAZ_G @ PAZ_F
        for n in range(4):
            for label in itertools.product("FG", repeat=n):
                assert np.trace(comm @ word(PAZ_F, PAZ_G, label)) == 0
        assert np.trace(comm @ word(PAZ_F, PAZ_G, "FFGF")) == 4
        rng = np.random.default_rng(3)
        pairs = [(PAZ_F, PAZ_G)]
        for _ in range(3):
            r = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            s = 2 * np.eye(3) + r / np.linalg.norm(r)
            sinv = np.linalg.inv(s)
            pairs.append((sinv @ PAZ_F @ s, sinv @ PAZ_G @ s))
        for f, g in pairs:
            verdict = sim_triangularizable(f, g)
            assert not verdict.triangularizable
            assert len(verdict.witness_word) == 4
            assert np.allclose(verdict.witness, word(f, g, verdict.witness_word))

    @pytest.mark.parametrize("scale", [1e120, 1e200, 1e300])
    def test_refused_when_the_witness_overflows(self, scale):
        # the witness word FFGF scales by ||F||^3 ||G||, past the float range
        # here: it reads inf or NaN, and the verdict stands (a Python float's
        # ** raised OverflowError; past ~1e154 the norms overflowed too)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = sim_triangularizable(scale * PAZ_F, scale * PAZ_G)
        assert not verdict.triangularizable and verdict.witness_word == "FFGF"
        assert not np.isfinite(verdict.witness_trace)

    def test_words_span_the_algebra(self):
        # 35 of these pairs need words of length 4
        rng = np.random.default_rng(11)
        need_four = 0
        for f, g in rng.integers(-1, 2, size=(600, 2, 3, 3)):
            words, labels = _words(f, g)
            rows = np.rint(words.real).astype(np.int64).reshape(len(words), -1)
            level, longer = rows[-16:].reshape(-1, 3, 3), []
            for _ in range(2):
                level = (level[:, None] @ np.stack([f, g])).reshape(-1, 3, 3)
                longer += list(level.reshape(len(level), -1))
            rank = rational_rank(rows)
            assert rational_rank([*rows, *longer]) == rank
            need_four += rational_rank(rows[[len(x) < 4 for x in labels]]) < rank
        assert need_four > 0
        assert labels == ["1"] + ["".join(x) for n in range(1, 5)
                                  for x in itertools.product("FG", repeat=n)]
        assert all(np.array_equal(w, word(f, g, x.strip("1"))) for w, x in zip(words, labels))


class TestCommonEigenvector:
    def test_diagonal_pair(self):
        v = common_eigenvector(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert v is not None
        assert max(abs(v[0]), abs(v[1])) == pytest.approx(1.0)
        assert min(abs(v[0]), abs(v[1])) == pytest.approx(0.0, abs=1e-10)

    def test_intro_pair_has_none(self):
        a, b = intro_pair()
        assert common_eigenvector(a, b) is None

    @pytest.mark.parametrize("name, scale", (("intro", 1e-12), ("real2x2", 1e-9)))
    def test_small_pair_has_none(self, name, scale):
        f, g = NO_COMMON_EIGENVECTOR[name]
        assert common_eigenvector(scale * f, scale * g) is None

    def test_nilpotent_and_rank_one(self):
        f = np.array([[0, 1], [0, 0]], dtype=complex)
        g = np.array([[U1, 0], [0, 0]], dtype=complex)
        v = common_eigenvector(f, g)
        assert v is not None
        assert abs(abs(v[0]) - 1) < 1e-12 and abs(v[1]) < 1e-12
        assert np.linalg.norm(f @ v) < 1e-10
        assert np.linalg.norm(g @ v - U1 * v) < 1e-9

    def test_zero_pair(self):
        assert common_eigenvector(np.zeros((2, 2)), np.zeros((2, 2))) is not None


def triangularizable_by_words(f, g, tol=1e-9):
    """Referee for the closed-form 2x2 test: McCoy's word test as the general
    path runs it, tr([F, G] w) <= tol for every word w of length <= 2 in the
    unit pair F / ||F||, G / ||G||."""
    fu, gu = (m / np.linalg.norm(m) if np.linalg.norm(m) > 0 else m for m in (f, g))
    comm = fu @ gu - gu @ fu
    labels = ["".join(x) for n in range(3) for x in itertools.product("FG", repeat=n)]
    return all(abs(np.trace(comm @ word(fu, gu, x))) <= tol for x in labels)


PAIR_KINDS_2X2 = (*TRIANGULAR_FAMILIES, "rank-one", "random", "planted")


def pair_2x2(rng, kind):
    """A 2x2 pair of the given kind: a conjugated triangular family, rank-one
    members (sharing an eigenvector half the time), a random pair, or a pair
    whose unit commutator has det C planted at 0.5 or 2 times 1e-9."""
    if kind in TRIANGULAR_FAMILIES:
        return triangular_family(rng, kind, 2)

    def cn(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if kind == "rank-one":
        x = cn(2)
        g = np.outer(x, cn(2)) + cn() * np.eye(2) if rng.random() < 0.5 else np.outer(cn(2), cn(2))
        return np.outer(x, cn(2)), g
    if kind == "random":
        return cn(2, 2), cn(2, 2)
    # F = diag(1, -1), G = [[p, 1], [r, s]]: [F, G] = [[0, 2], [-2r, 0]], so on
    # the unit pair c00^2 + c01 c10 = -4r / (||F||^2 ||G||^2) = -2r / ||G||^2;
    # a unitary conjugation keeps every norm and so the planted value
    planted = rng.choice([0.5, 2.0]) * 1e-9 * np.exp(2j * np.pi * rng.random())
    p, s = cn(2)
    r = -planted * (abs(p) ** 2 + 1 + abs(s) ** 2) / 2
    u = np.linalg.qr(cn(2, 2))[0]
    return u.conj().T @ np.diag([1, -1]) @ u, u.conj().T @ np.array([[p, 1], [r, s]]) @ u


def _conjugated_triangular(dim: int) -> list[np.ndarray]:
    """A non-commuting pair of upper triangular matrices, conjugated by a
    fixed unitary, with entries of modulus <= 3."""
    if dim == 2:
        c, s = math.cos(0.3), math.sin(0.3)
        q = np.array([[c, -s], [s, c]], dtype=complex)
        uppers = ([[1, 2], [0, 3j]], [[2j, 1], [0, -1]])
    else:
        q = np.linalg.qr(np.array([[1, 2, 0.5], [0.3, -1, 2], [1j, 0, 1]]))[0]
        uppers = ([[1, 2, 0.5], [0, 3j, 1], [0, 0, -1]], [[2j, 1, 0], [0, -1, 1j], [0, 0, 2]])
    return [q @ np.array(u, dtype=complex) @ q.conj().T for u in uppers]


class TestClosedForm2x2:
    """At d = 2 the word test is one number, c00^2 + c01 c10 = tr(C F G) on
    the unit pair, and the basis is read off ker C."""

    @pytest.mark.parametrize("kind", PAIR_KINDS_2X2)
    @given(seed=st.integers(0, 2**32 - 1),
           scale_f=st.sampled_from((1e-3, 1.0, 1e3, 1e6)),
           scale_g=st.sampled_from((1e-3, 1.0, 1e3, 1e6)))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_the_word_test(self, kind, seed, scale_f, scale_g):
        f, g = pair_2x2(np.random.default_rng(seed), kind)
        f, g = scale_f * f, scale_g * g
        verdict = sim_triangularizable(f, g)
        assert verdict.triangularizable == triangularizable_by_words(f, g)
        if verdict.triangularizable:
            t = verdict.basis
            assert np.allclose(t.conj().T @ t, np.eye(2), rtol=0, atol=1e-12)
            for m in (f, g):
                lower = abs((t.conj().T @ m @ t)[1, 0])
                assert lower <= BASIS_VERIFY_TOL * max(1, np.linalg.norm(m))
        else:
            assert verdict.witness_word == "FG"
            assert np.allclose(verdict.witness, f @ g, rtol=1e-12, atol=0)
            comm = f @ g - g @ f
            assert np.trace(comm @ verdict.witness) == pytest.approx(verdict.witness_trace, rel=1e-6)

    @pytest.mark.parametrize("scale", [1e100, 1e150, 1e154, 1e200, 1e300])
    def test_entries_far_above_one(self, scale):
        # of the raw entries, [F, G] is ~scale^2 and tr(C F G) ~scale^4, past
        # the float range here; the unit pair keeps both near 1, so the
        # verdicts stay right.  Past ~1e154 the squares in the Frobenius norm
        # overflow too; a norm summed from them read inf and made every unit
        # entry 0, so the rotation pair (det [F, G] != 0) read triangularizable.  At d = 3 it
        # sits in the top-left block, and e3 is the common eigenvector
        for dim in (2, 3):
            tri = [scale * m for m in _conjugated_triangular(dim)]
            rotation = [np.zeros((dim, dim), dtype=complex) for _ in range(2)]
            rotation[0][:2, :2] = [[0, -scale], [scale, 0]]
            rotation[1][:2, :2] = [[scale, 0], [0, -scale]]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                verdict = sim_triangularizable(*tri)
                v = common_eigenvector(*tri)
                refused = sim_triangularizable(*rotation)
                common = common_eigenvector(*rotation)
            assert verdict.triangularizable, dim
            t = verdict.basis
            assert np.allclose(t.conj().T @ t, np.eye(dim), rtol=0, atol=1e-12)
            for m in tri:
                # T is unitary: T* M T is the triangular form, which stays finite
                lower = np.abs(np.tril(t.conj().T @ m @ t, -1)).max()
                assert lower <= BASIS_VERIFY_TOL * scale, dim
                mv = (m / scale) @ v
                assert np.abs(mv - (v.conj() @ mv) * v).max() <= 1e-12, dim
            assert not refused.triangularizable and refused.witness_word == "FG", dim
            if dim == 2:
                assert common is None
            else:
                assert abs(abs(common[2]) - 1) <= 1e-15

    def test_fg_trace_is_minus_det_commutator(self):
        # exact in integers: C = [F, G] is traceless, so tr(C F G) = -det C =
        # -tr(C G F), and the other words of length <= 2 give 0
        for f, g in np.random.default_rng(7).integers(-9, 10, size=(200, 2, 2, 2)):
            c = f @ g - g @ f
            det = c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0]
            assert np.trace(c @ f @ g) == -det == -np.trace(c @ g @ f)
            for label in ("", "F", "G", "FF", "GG"):
                assert np.trace(c @ word(f, g, label)) == 0
            c00, c01, c10 = _commutator_2x2(f.astype(complex).ravel().tolist(),
                                            g.astype(complex).ravel().tolist())
            assert (c00, c01, c10, -c00) == tuple(c.ravel())
            assert c00 * c00 + c01 * c10 == -det
            assert _commutator_norm_2x2((c00, c01, c10)) == np.linalg.norm(c)

    def test_commutator_norm_is_the_frobenius_norm(self, rng):
        # numkernel.frobenius of [[c00, c01], [c10, -c00]], finite at 1e160,
        # where the squares overflow, and with no warning
        for scale in (1e-150, 1.0, 1e150, 1e160):
            c00, c01, c10 = (complex(*rng.standard_normal(2)) * scale for _ in range(3))
            want = frobenius(np.array([[c00, c01], [c10, -c00]]))
            assert _commutator_norm_2x2((c00, c01, c10)) == want < math.inf
        assert math.isnan(_commutator_norm_2x2((complex(math.nan, 0), 0j, 0j)))

    def test_lower_norm_at_d3(self, rng):
        for _ in range(200):
            basis, m = random_matrix(rng, 3), random_matrix(rng, 3, norm=10.0)
            want = np.linalg.norm(np.tril(basis.conj().T @ m @ basis, -1))
            assert _lower_norm(basis, m) == pytest.approx(want, rel=1e-14, abs=0)

    def test_one_by_one_pair_accepted(self):
        v = sim_triangularizable([[1]], [[2j]])
        assert v.triangularizable and v.basis.shape == (1, 1)
        assert _lower_norm(v.basis, np.array([[3.0 + 0j]])) == 0.0

    def test_no_tril_at_d3(self, monkeypatch, rng):
        calls = []

        def counted(*args, _original=np.tril, **kwargs):
            calls.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np, "tril", counted)
        for _ in range(5):
            assert sim_triangularizable(*conjugated_triangular_pair(rng)).triangularizable
        assert calls == []

    def test_no_svd_or_qr_at_d2(self, monkeypatch, rng):
        pairs = [intro_pair(), theorem2_family(Theorem2Params(u=U1)), dim2_case1_pair(2, 3),
                 *NO_COMMON_EIGENVECTOR.values(), (np.zeros((2, 2)), np.zeros((2, 2)))]
        pairs += [pair_2x2(rng, kind) for kind in PAIR_KINDS_2X2 for _ in range(5)]
        control = conjugated_triangular_pair(rng)
        calls = []
        for name in ("svd", "qr"):
            def counted(*args, _original=getattr(np.linalg, name), **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        for f, g in pairs:
            sim_triangularizable(f, g)
            common_eigenvector(f, g)
        assert calls == []
        # the counters do see the d = 3 path
        assert sim_triangularizable(*control).triangularizable
        assert calls
