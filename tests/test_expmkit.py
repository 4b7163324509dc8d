import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commexp import expmkit, numkernel
from commexp.expmkit import (
    _SINHC_SERIES_BELOW,
    _cosh_sinhc,
    _cosh_sinhc_stack,
    _exp_divided_differences,
    _expm_2x2_with_eigenvalues,
    _expm_pade,
    _hermite,
    _pi_snap_projectors,
    _snap_annihilates,
    expm,
    expm_2x2_stack,
    expm_affine,
)
from commexp.families import INTRO_ROTATION, intro_pair, rotation_square_polynomial
from commexp.intsearch import square_root_exact
from commexp.numkernel import CMat, as_matrix, combine_affine, eigen_decompose
from commexp.relations import TScanConfig, relation_report
from commexp.simtrig import sim_triangularizable

from conftest import random_matrix, rel_residual

PI = math.pi


def _snapped_ks(a):
    """The distinct snapped integers of ``a``'s spectrum, in order, or None."""
    snap = eigen_decompose(a).snap
    return None if snap is None else list(dict.fromkeys(snap))


def _snap_path(m):
    """The exact snap's exponential, or None where the spectrum does not
    snap or its nodes do not annihilate the matrix."""
    a = as_matrix(m)
    ks = _snapped_ks(a)
    return _pi_snap_projectors(a, ks) if ks is not None and _snap_annihilates(a, ks) else None


def _hermite_path(m):
    """Hermite's exponential, or None where the computed eigenvalues do not
    annihilate the matrix."""
    a = as_matrix(m)
    result, residual, bound = _hermite(a, eigen_decompose(a))
    return result if residual <= bound else None


class TestExpmBasics:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_nilpotent_truncates(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        for path in (_hermite_path, _expm_pade):
            assert np.allclose(path(n), np.eye(2) + n, atol=1e-14)
        assert np.array_equal(expm(n), np.eye(2) + n)

    def test_intro_exponentials(self):
        # expm snaps the rotation pair to literal +/-I
        a, b = intro_pair()
        assert np.array_equal(expm(a), np.eye(2))
        assert np.array_equal(expm(b), -np.eye(2))
        assert np.array_equal(expm(combine_affine(a, b, 1)), -np.eye(2))

    def test_exact_snap_returns_literal_units(self):
        a, b = intro_pair()
        assert np.array_equal(_snap_path(a), np.eye(2))
        assert np.array_equal(_snap_path(b), -np.eye(2))

    def test_exact_snap_mixed_parity_projectors(self):
        m = np.array([[1j * PI, 1], [0, 0]])
        got = _snap_path(m)
        # closed form: entry (0,1) is (e^{i pi} - 1)/(i pi) = 2i/pi
        want = np.array([[-1, 2j / PI], [0, 1]])
        assert np.allclose(got, want, atol=1e-14)
        assert rel_residual(got, _hermite_path(m)) < 1e-12

    def test_snap_unavailable_off_lattice(self):
        a, b = intro_pair()
        assert _snapped_ks(combine_affine(a, b, 6)) is None

    def test_snap_unavailable_defective(self):
        # the spectrum snaps to k = 0, but the node 0 leaves the residual 1
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        assert _snapped_ks(a) == [0] and not _snap_annihilates(a, [0])
        assert _snap_path(a) is None

    def test_ill_conditioned_falls_back_to_pade(self, monkeypatch):
        # eigenvalues 1000i, 1000i + 1e-6, 1000i - 2e-6 lie within the
        # clustering tolerance, so the computed spectrum is one triple node
        # that leaves ||(A - zI)^3||_F ~ 1e-6: Hermite refuses, expm runs Pade
        base = 1e3j
        m3 = np.array([[base, 1, 0], [0, base + 1e-6, 1], [0, 0, base - 2e-6]])
        assert eigen_decompose(m3).distinct_count == 1
        assert _hermite_path(m3) is None
        pade_calls = []

        def spy(a):
            pade_calls.append(a.shape)
            return _expm_pade(a)

        monkeypatch.setattr(expmkit, "_expm_pade", spy)
        assert np.array_equal(expm(m3), _expm_pade(m3))
        assert pade_calls == [(3, 3)]
        # eigenvalues +-8e-9 of a near-Jordan block (eigenbasis condition
        # ~1.2e8) are accurate, so Hermite accepts them and Pade does not run
        lam = 8e-9
        m = np.array([[0, 1], [lam * lam, 0]], dtype=complex)
        m3 = np.zeros((3, 3), dtype=complex)
        m3[:2, :2] = m
        m3[2, 2] = 1
        for a in (m, m3):
            assert rel_residual(_hermite_path(a), expm(a)) <= 1e-15
        auto3 = expm(m3)
        assert np.allclose(auto3[:2, :2], np.eye(2) + m, rtol=0, atol=1e-15)
        assert auto3[2, 2] == pytest.approx(math.e, rel=1e-15)
        assert pade_calls == [(3, 3)]

    def test_affine(self):
        a, b = intro_pair()
        assert np.allclose(expm_affine(a, CMat.zeros(2), 0.0), np.eye(2), atol=1e-15)
        assert np.allclose(expm_affine(a, b, 1), -np.eye(2), atol=1e-10)

    def test_theorem2_affine_closed_form(self):
        u = 2.088843015613044 + 7.461489285654254j
        a = np.array([[0, 1], [0, 0]], dtype=complex)
        b = np.array([[u, 0], [0, 0]], dtype=complex)
        for t in (0.5, 2, -3 + 1j):
            got = expm_affine(a, b, t)
            want = np.eye(2) + t * a + b
            assert rel_residual(got, want) < 1e-12


class TestEngineCrossChecks:
    def test_agreement_500(self, rng):
        worst = 0.0
        for _ in range(500):
            d = int(rng.integers(1, 4))
            m = random_matrix(rng, d, norm=5.0)
            e1 = _hermite_path(m)
            e2 = _expm_pade(m)
            worst = max(worst, rel_residual(e1, e2))
        assert worst <= 1e-9

    def test_inverse_identity(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 4))
            m = random_matrix(rng, d, norm=5.0)
            prod = expm(m) @ expm(-m)
            assert rel_residual(prod, np.eye(d)) <= 1e-8

    def test_det_exp_is_exp_trace(self, rng):
        for _ in range(100):
            d = int(rng.integers(1, 4))
            m = random_matrix(rng, d, norm=5.0)
            det = np.linalg.det(expm(m))
            want = np.exp(m.trace())
            assert abs(det - want) <= 1e-8 * max(1.0, abs(want))

    def test_commuting_product_rule(self, rng):
        for _ in range(60):
            d = int(rng.integers(2, 4))
            m = random_matrix(rng, d, norm=1.5)
            n = 0.3 * m @ m - 0.7 * m + 0.1 * np.eye(d)
            assert rel_residual(expm(m + n), expm(m) @ expm(n)) <= 1e-8

    def test_large_t_pi_scaled(self):
        # norms up to ~2.6e4; exact and spectral paths must agree with Pade
        a, b = intro_pair()
        for n in (10, 20):
            m = combine_affine(CMat(n * a.entries, pi_scaled=True), b, 1)
            m = CMat(n * (a.entries + b.entries), pi_scaled=True)
            exact = _snap_path(m)
            spectral = _hermite_path(m)
            assert np.array_equal(exact, (-1) ** n * np.eye(2))
            assert rel_residual(spectral, exact) <= 1e-9


def _fuzz_inputs(rng):
    """Random matrices at d = 1..3, near-Jordan blocks at several shifts,
    [[0,1],[lam^2,0]] sweeps and i*pi*k spectra behind eigenbases of
    condition 1..1e9."""
    for _ in range(300):
        d = int(rng.integers(1, 4))
        yield random_matrix(rng, d, norm=float(10 ** rng.uniform(-2, 2.5)))
    for k in range(3, 10):
        gap = 10.0 ** -k
        for base in (0.0, 2.5 - 1j, 1j * PI, 7j * PI, 1e3):
            yield np.array([[base, 1], [0, base + gap]])
            yield np.array([[base, 1, 0], [0, base + gap, 1], [0, 0, base - gap]])
            q, _ = np.linalg.qr(random_matrix(rng, 3))
            yield q @ np.array([[base, 1, 2], [0, base + gap, 3], [0, 0, base + 1]]) @ q.conj().T
    for lam in np.geomspace(1e-10, 1e-3, 57):
        yield np.array([[0, 1], [lam * lam, 0]])
        yield np.array([[1j * PI, 1], [lam * lam, 1j * PI]])
    for _ in range(200):
        d = int(rng.integers(2, 4))
        u, _, vh = np.linalg.svd(random_matrix(rng, d))
        s = u @ np.diag(np.geomspace(1, 10 ** -rng.uniform(0, 9), d)) @ vh
        ks = rng.integers(-40, 41, size=d)
        yield s @ np.diag(1j * PI * ks) @ np.linalg.inv(s)


def _near_defective_3x3(rng):
    """[[b,1,0],[0,b+g,1],[0,0,b-2g]] and unitary conjugates for
    g = 1e-3..1e-10, and [[i pi,1,0],[lam^2,i pi,0],[0,0,1]] for
    lam = 1e-10..1e-3."""
    for k in range(3, 11):
        g = 10.0 ** -k
        for b in (0.0, 2.5 - 1j, 30.0, 1j * PI, 7j * PI, 100j, 1e3j):
            m = np.array([[b, 1, 0], [0, b + g, 1], [0, 0, b - 2 * g]])
            yield m
            q, _ = np.linalg.qr(random_matrix(rng, 3))
            yield q @ m @ q.conj().T
    for lam in np.geomspace(1e-10, 1e-3, 8):
        yield np.array([[1j * PI, 1, 0], [lam * lam, 1j * PI, 0], [0, 0, 1]])


def _mpmath_expm(mpmath, a, dps=40):
    d = a.shape[0]
    with mpmath.workdps(dps):
        exact = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array([[complex(exact[i, j]) for j in range(d)] for i in range(d)])


def _spy(monkeypatch, name):
    calls = []
    original = getattr(expmkit, name)

    def spy(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(expmkit, name, spy)
    return calls


class TestAnnihilationGate:
    """Every path is decided by whether its nodes annihilate A."""

    # Pade overflows on the snapped inputs of condition ~1e9 (norms ~1e10)
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_auto_takes_first_engine_that_accepts(self, rng):
        # at d = 1 and 3: the exact path, else Hermite, else Pade, bit for
        # bit; expm at d = 2 is the closed form (TestClosedForm2x2)
        taken = set()
        for m in (*_fuzz_inputs(rng), *_near_defective_3x3(rng)):
            exact, hermite = _snap_path(m), _hermite_path(m)
            taken.update(f"{path} refused" for path, r in (("exact", exact), ("hermite", hermite))
                         if r is None)
            if m.shape[0] == 2:
                continue
            if exact is not None:
                want, path = exact, "exact"
            elif hermite is not None:
                want, path = hermite, "hermite"
            else:
                want, path = _expm_pade(as_matrix(m)), "pade"
            assert np.array_equal(expm(m), want, equal_nan=True), (m, path)
            taken.add(path)
        assert taken == {"exact", "hermite", "pade", "exact refused", "hermite refused"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_against_mpmath_3x3(self, rng, monkeypatch):
        # off the snap path expm is within max(1e-12, Pade's error) of the
        # exponential, on it within max(1e-12, 2 x Pade's).  Where Pade has
        # no digits either (error above 1e-8: i*pi*k spectra behind
        # eigenbases of condition >= 1e5 at norms >= 5e4), no engine can
        # be judged; there expm must only not raise.
        mpmath = pytest.importorskip("mpmath")
        snapped = _spy(monkeypatch, "_pi_snap_projectors")
        pade = _spy(monkeypatch, "_expm_pade")
        checked = snaps = to_pade = ill_posed = 0
        for m in (*_fuzz_inputs(rng), *_near_defective_3x3(rng)):
            a = np.asarray(m, dtype=complex)
            if a.shape[0] != 3:
                continue
            want = _mpmath_expm(mpmath, a, dps=30)
            if not np.isfinite(want).all():
                continue  # exp(A) overflows
            snapped.clear()
            pade.clear()
            got = expm(a)
            on_snap, to_pade = bool(snapped), to_pade + bool(pade)
            scale = np.linalg.norm(want)
            err = np.linalg.norm(got - want) / scale
            pade_err = np.linalg.norm(_expm_pade(a) - want) / scale
            if not pade_err <= 1e-8:
                ill_posed += 1
                continue
            assert err <= max(1e-12, (2 if on_snap else 1) * pade_err), (a, err, pade_err)
            checked += 1
            snaps += on_snap
        assert checked >= 300 and snaps >= 30 and ill_posed <= 60
        assert 3 <= to_pade <= 20

    # near-double pairs whose means root-by-root Newton moved by up to 1e-9,
    # so that their nodes failed the test and expm ran Pade
    NEAR_DOUBLE = (
        [[0, 1, 0], [1e-7 ** 2, 0, 0], [0, 0, 1]],
        [[0, 1, 0], [4.64e-6 ** 2, 0, 0], [0, 0, 1]],
        [[1j * PI, 1, 0], [1e-14, 1j * PI, 0], [0, 0, 1]],
    )

    @pytest.mark.parametrize("m", NEAR_DOUBLE)
    def test_near_double_pairs_annihilate(self, m):
        a = np.array(m, dtype=complex)
        got, residual, bound = _hermite(a, eigen_decompose(a))
        assert residual <= 1e-3 * bound
        assert np.array_equal(got, expm(a))

    @pytest.mark.parametrize("m", NEAR_DOUBLE)
    def test_near_double_pairs_against_mpmath(self, m):
        mpmath = pytest.importorskip("mpmath")
        a = np.array(m, dtype=complex)
        want = _mpmath_expm(mpmath, a)
        scale = np.linalg.norm(want)
        err = np.linalg.norm(expm(a) - want) / scale
        pade_err = np.linalg.norm(_expm_pade(a) - want) / scale
        assert err <= max(4e-16, 2 * pade_err), (err, pade_err)

    @pytest.mark.parametrize("delta", [2.5e-8, 3e-8, 3.1e-8])
    def test_clusters_sharing_a_snapped_integer(self, delta):
        # i pi - delta and i pi + delta are 2 delta apart, above CLUSTER_TOL
        # ||A||_F ~ 4.4e-8, so two clusters, and both snap to k = 1 (delta
        # below SNAP_TOL pi ~ 3.1e-8).  One node per distinct k, [i pi, 0],
        # leaves a residual ~delta, so Hermite runs.  One node per cluster,
        # [i pi, 0, i pi], would pass the test (a residual ~delta^2) and put
        # i pi - i pi in a Lagrange denominator: an all-NaN exp(A)
        mpmath = pytest.importorskip("mpmath")
        a = np.diag([1j * PI + delta, 1j * PI - delta, 0])
        q, _ = np.linalg.qr(random_matrix(np.random.default_rng(3), 3))
        for m in (a, q @ a @ q.conj().T):
            assert eigen_decompose(m).distinct_count == 3 and _snapped_ks(m) == [1, 0]
            got = expm(m)
            assert np.isfinite(got).all()
            assert _mpmath_rel_err(mpmath, m, got) <= 1e-13

    def test_residual_bounds_the_error(self):
        # exp(A) - p(A) = g(A) prod (A - z_i I): nodes moved off the
        # spectrum by delta leave a residual and an error of order delta
        a = np.array([[0.3, 1, 0], [0, -0.2, 1], [0, 0, 0.5j]])
        exact = expm(a)
        spectrum = eigen_decompose(a)
        for delta in (1e-4, 1e-8, 1e-15):
            moved = numkernel.Spectrum(
                tuple(z + delta for z in spectrum.eigenvalues), 3, (1, 1, 1))
            got, residual, bound = _hermite(a, moved)
            err = np.linalg.norm(got - exact)
            assert (residual <= bound) == (delta == 1e-15)
            if delta > 1e-15:
                assert 0.1 * residual <= err <= 10 * residual


class TestDividedDifferences:
    """[z0], [z0, z1], [z0, z1, z2] of e^x against 60-digit quotients."""

    @staticmethod
    def _exact(mpmath, nodes):
        with mpmath.workdps(60):
            z = [mpmath.mpc(x.real, x.imag) for x in nodes]
            f = [mpmath.exp(x) for x in z]
            first = [(f[i + 1] - f[i]) / (z[i + 1] - z[i]) for i in range(2)]
            return [complex(f[0]), complex(first[0]),
                    complex((first[1] - first[0]) / (z[2] - z[0]))]

    def test_against_mpmath(self, rng):
        # spreads on both sides of the series threshold; the relative error
        # is at most a few eps times |center| (the rounding of e^center)
        mpmath = pytest.importorskip("mpmath")
        for center in (0, 2.5 - 1j, 30, 1e3j, -700, 300 + 100j):
            for spread in (1e-12, 1e-6, 1e-3, 9.9e-3, 1.01e-2, 2e-2, 0.3, 5, 40):
                for _ in range(5):
                    off = rng.normal(size=3) + 1j * rng.normal(size=3)
                    off *= spread / max(abs(off - np.roll(off, 1)))
                    nodes = [complex(center + o) for o in off]
                    got = _exp_divided_differences(nodes)
                    want = self._exact(mpmath, nodes)
                    for k in range(3):
                        err = abs(got[k] - want[k]) / abs(want[k])
                        assert err <= 1e-15 * max(100, abs(center)), (nodes, k, err)

    def test_equal_nodes_are_derivatives(self):
        for z in (0j, 2.5 - 1j, 1e3j):
            e = np.exp(z)
            got = _exp_divided_differences([z, z, z])
            assert got == [e, e, e / 2]

    def test_far_apart_real_parts(self):
        # e^x under- and overflows at nodes where the differences do not
        got = _exp_divided_differences([-1500 + 0j, -100 + 0j, 0j])
        assert got[1] == pytest.approx(math.exp(-100) / 1400, rel=1e-14)
        assert got[2] == pytest.approx((1 / 100 - math.exp(-100) / 1400) / 1500, rel=1e-14)
        got = _exp_divided_differences([600 + 0j, -800 + 0j, -800 + 0j])
        assert got[2] == pytest.approx(math.exp(600) / 1400 ** 2, rel=1e-13)

    def test_gap_past_the_float_range_is_nan(self):
        # the gap 1.5e308 (1 + i) has finite parts and an overflowing modulus
        a = 0.75e308 * (1 + 1j)
        got = _exp_divided_differences([-a, 0j, a])[2]
        assert math.isnan(got.real) and math.isnan(got.imag)


class TestKernelSVDGuard:
    """expm runs no SVD, so computes no eigenvector kernel, on any path."""

    @staticmethod
    def _count_svds(monkeypatch):
        calls = []
        original = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    def test_simple_spectrum_3x3_pairs(self, monkeypatch, rng):
        h = random_matrix(rng, 3) + 0j
        f = (h - h.conj().T) / 2
        h = random_matrix(rng, 3) + 0j
        g = (h - h.conj().T) / 2
        s = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        s_inv = np.linalg.inv(s).round()
        snapped_f = CMat(s @ np.diag([2j, 4j, 6j]) @ s_inv, pi_scaled=True)
        snapped_g = CMat(s @ np.diag([1j, 3j, 5j]) @ s_inv, pi_scaled=True)
        cfg = TScanConfig.through(8)
        for a, b in ((f, g), (snapped_f, snapped_g)):
            for t in (0, *cfg.t_values):
                assert eigen_decompose(combine_affine(a, b, t)).distinct_count == 3
            calls = self._count_svds(monkeypatch)
            report = relation_report(a, b, cfg)
            assert calls == []
            assert len(report.verdicts) == 3 + 2 * len(cfg.t_values)
        # the snapped pair commutes, so both stars hold at every t
        assert all(v.holds for v in report.verdicts[3:])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_no_engine_computes_kernels(self, monkeypatch, rng):
        defective = ([[0, 1], [0, 0]], [[1j * PI, 1, 0], [0, 1j * PI, 0], [0, 0, 0]],
                     [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        inputs = [*defective, *_fuzz_inputs(rng), *_near_defective_3x3(rng)]
        calls = self._count_svds(monkeypatch)
        for m in inputs:
            for path in (expm, _snap_path, _hermite_path):
                path(m)
            _expm_pade(as_matrix(m))
        assert calls == []
        for m in defective:
            assert _snap_path(m) is None
        # the counter sees an SVD taken through the package: a non-commuting
        # triangular 3x3 pair's common eigenvector comes from one SVD of the
        # commutator ideal (a 2x2 pair, or quotient block, takes none)
        assert sim_triangularizable([[1, 1, 0], [0, 2, 0], [0, 0, 3]],
                                    [[0, 1, 0], [0, 3, 1], [0, 0, 0]]).triangularizable
        assert calls == [1]


def _closed_form_inputs(rng):
    """2x2 families for the closed form: random, near-defective at shifts
    up to 1e3i, [[0,1],[lam^2,0]] and conjugated i*pi*k spectra."""
    for _ in range(200):
        m = random_matrix(rng, 2)
        yield m * (10 ** rng.uniform(-1, 2) / np.linalg.norm(m))
    for k in range(3, 10):
        gap = 10.0 ** -k
        for base in (0.0, 2.5 - 1j, 30.0, 1j * PI, 7j * PI, 1e2j, 1e3j):
            m = np.array([[base, 1], [0, base + gap]])
            yield m
            q, _ = np.linalg.qr(random_matrix(rng, 2))
            yield q @ m @ q.conj().T
    for lam in np.geomspace(1e-10, 1e-3, 29):
        yield np.array([[0, 1], [lam * lam, 0]])
        yield np.array([[1j * PI, 1], [lam * lam, 1j * PI]])
    for _ in range(100):
        u, _, vh = np.linalg.svd(random_matrix(rng, 2))
        s = u @ np.diag([1, 10 ** -rng.uniform(0, 6)]) @ vh
        yield s @ np.diag(1j * PI * rng.integers(-6, 7, size=2)) @ np.linalg.inv(s)


class TestClosedForm2x2:
    """expm at d = 2: e^mu (cosh s I + sinh(s)/s B), or the exact snap."""

    def test_against_mpmath(self, rng, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        snapped = _spy(monkeypatch, "_pi_snap_rows")
        checked = snaps = 0
        for m in _closed_form_inputs(rng):
            a = np.asarray(m, dtype=complex)
            snapped.clear()
            got = expm(a)
            want = _mpmath_expm(mpmath, a)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            pade_err = np.linalg.norm(_expm_pade(a) - want) / np.linalg.norm(want)
            if snapped:
                assert np.array_equal(got, _pi_snap_projectors(a, _snapped_ks(a))), a
                assert err <= max(1e-12, 2 * pade_err), (a, err, pade_err)
                snaps += 1
                continue
            assert err <= max(1e-12, pade_err), (a, err, pade_err)
            checked += 1
        assert checked >= 380 and snaps >= 60

    def test_intro_scan(self, monkeypatch):
        # pi-scaled tA + B up to ||.||_F ~ 2.7e4: a snap exactly where
        # det(tA + B) / pi^2 is a square, otherwise the closed form, as
        # accurate as rounding the entries allows (eps * ||tA + B||_F)
        mpmath = pytest.importorskip("mpmath")
        snapped = _spy(monkeypatch, "_pi_snap_rows")
        a, b = intro_pair()
        square = rotation_square_polynomial(*INTRO_ROTATION)
        for t in range(101):
            m = as_matrix(combine_affine(a, b, t))
            snapped.clear()
            got = expm(m)
            root = square_root_exact(square(t))
            assert bool(snapped) == (root is not None), t
            if snapped:
                assert np.array_equal(got, (-1) ** root * np.eye(2)), t
                assert np.array_equal(got, _pi_snap_projectors(m, _snapped_ks(m))), t
                continue
            want = _mpmath_expm(mpmath, m)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= np.finfo(float).eps * np.linalg.norm(m), (t, err)

    def test_sinhc_continuous_at_series_threshold(self):
        for phase in np.linspace(0, 2 * PI, 37):
            unit = complex(math.cos(phase), math.sin(phase))
            below = _cosh_sinhc(0j, _SINHC_SERIES_BELOW * (1 - 1e-12) * unit)[1]
            above = _cosh_sinhc(0j, _SINHC_SERIES_BELOW * (1 + 1e-12) * unit)[1]
            assert abs(below - above) <= 1e-15 * abs(above)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_does_not_raise(self):
        # Re mu = 800 overflows e^mu; the next two overflow s itself (to inf
        # and to nan; their characteristic polynomials made expm raise
        # ValueError before).  At d = 3 the first gave NaN roots that made
        # the snap raise ValueError, the next two made the cubic's ** raise
        # OverflowError (a real and a complex cubic); Pade's 1-norm
        # overflows on the next.  The last has eigenvalues +-a and 0 whose
        # gaps' moduli overflow, where abs() raised OverflowError.
        a = 0.75e308 * (1 + 1j)
        for m in ([[800, 1], [0, 800]], [[801, 2], [0.5, 799]], [[800j + 800, 0], [0, 800]],
                  [[1e300, 1e300], [1e300, -1e300]], [[1e300, 1e300], [-1e300, -1e300]],
                  [[1e300, 1e300, 0], [1e300, -1e300, 0], [0, 0, 1]],
                  [[1e120, 1, 0], [0, 2e120, 0], [0, 0, 1]],
                  [[1e60j, 0, 0], [0, 1e60, 0], [0, 0, 1]],
                  [[1e308, 1e308, 0], [1e308, 1e308, 0], [0, 0, 1]],
                  [[a, 0, 0], [0, -a, 0], [0, 0, 0]]):
            assert expm(m).shape == (len(m), len(m))

    def test_snap_gate_follows_annihilation(self, monkeypatch):
        # eigenvalues exactly 0 and i*pi behind an eigenbasis of condition
        # ~ c / (pi/2): A (A - i pi I) = 0 exactly, so both snap (Pade errs
        # by 3e-10 and 5e-9 there)
        snapped = _spy(monkeypatch, "_pi_snap_rows")
        for c in (2e7, 2e8):
            snapped.clear()
            got = expm(np.array([[0, c], [0, 1j * PI]]))
            assert snapped
            assert np.allclose(got, [[1, 2j * c / PI], [0, -1]], rtol=1e-15, atol=0)

    def test_loose_double_snap_is_refused(self, monkeypatch):
        # a double -4 i pi eigenvalue perturbed by ~3e-11 sits within
        # KERNEL_FLOOR * ||A||_F of -4 i pi I, but its nodes leave a
        # residual ~3e-11: expm must not return a literal I, here or
        # embedded in a 3x3 next to 2 i pi (literal I erred by 3.2e-11 and
        # 2.6e-11)
        mpmath = pytest.importorskip("mpmath")
        snapped = _spy(monkeypatch, "_pi_snap_projectors")
        snapped_rows = _spy(monkeypatch, "_pi_snap_rows")
        a2 = np.array([[-4j * PI + 2e-11, 3e-11], [-2.5e-11j, -4j * PI - 1e-11]])
        a3 = np.diag([0, 0, 2j * PI])
        a3[:2, :2] = a2
        for a in (a2, a3):
            got = expm(a)
            assert not snapped and not snapped_rows
            want = _mpmath_expm(mpmath, a)
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            pade_err = np.linalg.norm(_expm_pade(a) - want) / np.linalg.norm(want)
            assert err <= max(1e-12, pade_err), (a, err, pade_err)
            assert err <= 1e-14

    def test_far_apart_real_parts(self):
        # e^mu underflows and cosh s overflows, but exp(A) is representable
        for m in (np.diag([-1500.0, -100.0]), np.array([[-1500, 1], [0, -100]]),
                  np.array([[-800, 700], [700, -800]]), np.diag([600.0, -800.0])):
            want = _hermite_path(m)
            assert np.abs(expm(m) - want).max() <= 1e-14 * np.abs(want).max(), m

    def test_defective_snapped_double_eigenvalue(self):
        # i*pi I + N has a double snapped eigenvalue but no eigenbasis:
        # exp = -(I + N), not -I
        n = np.array([[0, 1e-3], [0, 0]])
        got = expm(1j * PI * np.eye(2) + n)
        assert rel_residual(got, -(np.eye(2) + n)) <= 1e-15

    def test_runs_no_eigen_decomposition(self, monkeypatch):
        calls = []
        monkeypatch.setattr(expmkit, "eigen_decompose", lambda *a, **k: calls.append(1))
        a, b = intro_pair()
        for t in range(1, 11):
            expm(combine_affine(a, b, t))
        expm(random_matrix(np.random.default_rng(1), 2))
        assert calls == []


EPS = np.finfo(float).eps


def _conjugated(rng, m):
    s = random_matrix(rng, 2) + 2 * np.eye(2)
    return s @ m @ np.linalg.inv(s)


def _stack_row(kind: str, seed: int) -> np.ndarray:
    """One 2x2 input per branch of the stacked closed form and its snap."""
    rng = np.random.default_rng(seed)
    mu = complex(*rng.uniform(-3, 3, 2))
    if kind == "random":
        return random_matrix(rng, 2) * 10 ** rng.uniform(-1, 2)
    if kind == "series":  # |s| < 1e-2: sinh(s)/s from its Taylor series
        return mu * np.eye(2) + _conjugated(rng, np.diag([1, -1])) * 10 ** rng.uniform(-8, -2.5)
    if kind == "far":  # Re s > 1: the e^(mu + s) form
        s = complex(rng.uniform(1.5, 30), rng.uniform(-5, 5))
        return mu * np.eye(2) + _conjugated(rng, np.diag([s, -s]))
    if kind == "nilpotent":  # s = 0
        return mu * np.eye(2) + _conjugated(rng, np.array([[0, 1], [0, 0]]))
    if kind in ("snap-same-parity", "snap-mixed-parity"):
        k1 = int(rng.integers(-8, 9))
        k2 = k1 + 2 * int(rng.integers(-3, 4)) + (kind == "snap-mixed-parity")
        return 1j * PI * _conjugated(rng, np.diag([k1, k2]))
    if kind == "defective-snap":  # snaps, but its nodes do not annihilate it
        return 1j * PI * int(rng.integers(-8, 9)) * np.eye(2) + [[0, rng.uniform(0.1, 2)], [0, 0]]
    if kind == "huge-mu":
        return 700 * np.sign(mu.real) * np.eye(2) + random_matrix(rng, 2)
    m = random_matrix(rng, 2)  # non-finite
    m[divmod(int(rng.integers(4)), 2)] = rng.choice([math.inf, -math.inf, math.nan])
    return m


_ROW_KINDS = ("random", "series", "far", "nilpotent", "snap-same-parity", "snap-mixed-parity",
              "defective-snap", "huge-mu", "non-finite")
# rows whose eigenvalues snap and whose nodes annihilate them: a stack of
# only these skips the closed form
_EXACT_KINDS = ("snap-same-parity", "snap-mixed-parity")


def _bits(m: np.ndarray) -> bytes:
    # the bytes of each real and imaginary part, one NaN for every NaN (the
    # sign and payload of a NaN carry nothing)
    parts = np.ascontiguousarray(m).view(np.float64).copy()
    parts[np.isnan(parts)] = math.nan
    return parts.tobytes()


def _mpmath_rel_err(mpmath, a, got) -> float:
    # relative Frobenius error against a 50-digit exponential, in mpmath
    # throughout: exp(A) may sit below the double range (e^-700 squared)
    with mpmath.workdps(50):
        want = mpmath.expm(mpmath.matrix(a.tolist()))
        diff = want - mpmath.matrix(got.tolist())
        return float(mpmath.mnorm(diff, "f") / mpmath.mnorm(want, "f"))


class TestStackedClosedForm:
    """``expm_2x2_stack``: expm at d = 2 over an (n, 2, 2) stack."""

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(*(st.lists(st.tuples(st.sampled_from(kinds), st.integers(0, 2 ** 32 - 1)),
                                min_size=1, max_size=12)
                       for kinds in (_ROW_KINDS, _EXACT_KINDS))))
    def test_each_row_is_its_stack_of_one(self, drawn):
        # the second kind of draw is a stack whose every row is exact, of
        # either parity or mixed: one that skips the closed form
        rows = np.array([_stack_row(kind, seed) for kind, seed in drawn], dtype=complex)
        got = expm_2x2_stack(rows)
        for row, out in zip(rows, got):
            assert _bits(out) == _bits(expm_2x2_stack(row[None])[0])
            assert _bits(out) == _bits(expm(row))

    @pytest.mark.parametrize("kind", ["series", "far", "nilpotent", "huge-mu"])
    def test_against_mpmath(self, kind):
        # relative Frobenius error at most 8 eps max(1, ||A||_F): what
        # rounding mu, B and s from the entries of A allows (e^mu alone
        # moves by eps |mu| relative)
        mpmath = pytest.importorskip("mpmath")
        rows = np.array([_stack_row(kind, seed) for seed in range(40)], dtype=complex)
        if kind == "huge-mu":
            # e^mu cosh s overflows, e^(mu + s) does not: exp(A) ~ e^7
            rows[:20] = [[[-705, 2], [0, -705]]] + 712 * np.diag([1, -1])
            rows[:20, 0, 1] *= np.arange(1, 21)
        if kind == "nilpotent":  # B^2 = 0 exactly, so s = 0
            rows[:4] = [[[1, 1], [0, 1]], [[2 + 1j, 3], [0, 2 + 1j]],
                        [[2, 4], [-1, -2]], [[-1 + 5j, -2j], [0.5j, -1 + 5j]]]
        for a, got in zip(rows, expm_2x2_stack(rows)):
            assert np.isfinite(got).all(), a
            assert _mpmath_rel_err(mpmath, a, got) <= 8 * EPS * max(1.0, np.linalg.norm(a)), a

    def test_pi_scaled_integer_rows_are_exact(self):
        # i pi S diag(k1, k2) S^-1 with S a unit shear: (-1)^k1 I when the
        # parities agree, else the projectors, every entry exact
        rows, want = [], []
        for k1 in range(-4, 5):
            for k2 in range(-4, 5):
                for shear in ((0, 0), (1, 0), (0, -1)):
                    m = np.diag([k1, k2]).astype(complex)
                    m[0, 1], m[1, 0] = shear[0] * (k2 - k1), shear[1] * (k2 - k1)
                    if shear[1]:
                        m[0, 0], m[1, 1] = k2, k1
                    rows.append(1j * PI * m)
                    s1, s2 = (-1) ** (k1 % 2), (-1) ** (k2 % 2)
                    e = np.diag([s1, s2]).astype(complex)
                    e[0, 1], e[1, 0] = shear[0] * (s2 - s1), shear[1] * (s2 - s1)
                    if shear[1]:
                        e[0, 0], e[1, 1] = s2, s1
                    want.append(e)
        got = expm_2x2_stack(np.array(rows))
        for a, g, w in zip(rows, got, want):
            assert np.array_equal(g, w), (a / (1j * PI), g)

    def test_closed_form_runs_only_when_some_row_is_not_exact(self, monkeypatch):
        # i pi k I of both parities and a mixed-parity i pi diag(1, 2) under a
        # shear are all exact: _pi_snap_rows writes every row, and the closed
        # form does not run; one random row more brings it back
        forms = _spy(monkeypatch, "_cosh_sinhc_stack")
        snapped = _spy(monkeypatch, "_pi_snap_rows")
        shear = np.array([[1, 1], [0, 1]])
        exact = np.array([1j * PI * np.eye(2), 2j * PI * np.eye(2),
                          1j * PI * shear @ np.diag([1, 2]) @ np.linalg.inv(shear)])
        got = expm_2x2_stack(exact)
        assert len(forms) == 0 and len(snapped) == 1
        assert np.array_equal(got[:2], [-np.eye(2), np.eye(2)])
        assert np.array_equal(got[2], shear @ np.diag([-1, 1]) @ np.linalg.inv(shear))
        mixed = np.concatenate([exact, random_matrix(np.random.default_rng(3), 2)[None]])
        assert _bits(expm_2x2_stack(mixed)[:3]) == _bits(got)
        assert len(forms) == 1 and len(snapped) == 2

    def test_defective_snapped_row_takes_the_closed_form(self, monkeypatch):
        taken = []
        original = expmkit._pi_snap_rows

        def spy(a, exact, k, out):
            taken.append(np.count_nonzero(exact))
            return original(a, exact, k, out)

        monkeypatch.setattr(expmkit, "_pi_snap_rows", spy)
        rows = np.array([1j * PI * np.eye(2), [[1j * PI, 1], [0, 1j * PI]], 2j * PI * np.eye(2)])
        got = expm_2x2_stack(rows)
        assert taken == [2]
        assert np.array_equal(got[0], -np.eye(2)) and np.array_equal(got[2], np.eye(2))
        assert rel_residual(got[1], -np.array([[1, 1], [0, 1]])) <= 1e-15

    def test_non_finite_eigenvalues_never_snap(self, monkeypatch):
        # [[0, x], [x, 0]] with x = 1.7e308: s^2 = x^2 overflows to inf + 0j,
        # so the eigenvalues are inf and -inf, both at k = 0.  hypot(inf, 0)
        # <= SNAP_TOL * inf reads True, and ||B||_F overflows too, which makes
        # the annihilation bound inf: only isfinite keeps the row off the
        # exact path, which would return I.  A NaN eigenvalue fails every
        # comparison.  The finite row next to them still snaps.
        taken = []
        original = expmkit._pi_snap_rows

        def spy(a, exact, k, out):
            taken.append(a[exact])
            return original(a, exact, k, out)

        monkeypatch.setattr(expmkit, "_pi_snap_rows", spy)
        x = 1.7e308
        rows = np.array([[[0, x], [x, 0]], [[0, -x], [-x, 0]], [[math.nan, 0], [0, 1j * PI]],
                         1j * PI * np.diag([1, 3])])
        with np.errstate(all="ignore"):
            got, lams = _expm_2x2_with_eigenvalues(rows)
        assert np.isinf(lams[:, :2].real).all() and (lams[:, :2].imag == 0).all()
        assert np.isnan(lams[:, 2]).any()
        assert len(taken) == 1 and np.array_equal(taken[0], rows[3:])
        assert not np.isfinite(got[:3]).all(axis=(1, 2)).any()
        assert np.array_equal(got[3], -np.eye(2))

    def test_non_finite_rows_leave_the_others_alone(self):
        finite = np.array([_stack_row(kind, seed) for seed in range(5)
                           for kind in _ROW_KINDS if kind != "non-finite"])
        bad = np.array([_stack_row("non-finite", seed) for seed in range(6)]
                       + [np.full((2, 2), math.inf), np.full((2, 2), math.nan)])
        mixed = np.concatenate([finite, bad])[np.random.default_rng(7).permutation(len(finite) + len(bad))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expm_2x2_stack(mixed)
        is_finite = np.isfinite(mixed).all(axis=(1, 2))
        assert _bits(got[is_finite]) == _bits(expm_2x2_stack(mixed[is_finite]))
        assert not np.isfinite(got[~is_finite]).all(axis=(1, 2)).any()

    def test_array_twin_of_cosh_sinhc(self):
        # one branch per entry, as the scalar form takes it: Re s > 1, |s|
        # below and above the series threshold, s = 0; s folded to Re s >= 0
        # first, as the stack is only passed principal roots.  numpy's array
        # arithmetic may fuse multiply-adds, so agreement is to 4 eps
        rng = np.random.default_rng(11)
        n = 3000
        mu = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 3
        s = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10 ** rng.uniform(-6, 1.5, n)
        s[:3] = 0
        s[3:6] = _SINHC_SERIES_BELOW * np.array([1 - 1e-12, 1, 1 + 1e-12])
        s = np.where(s.real < 0, -s, s)
        with np.errstate(all="ignore"):
            c, q = _cosh_sinhc_stack(mu, s)
        for i in range(n):
            want_c, want_q = _cosh_sinhc(complex(mu[i]), complex(s[i]))
            assert abs(c[i] - want_c) <= 4 * EPS * abs(want_c), (mu[i], s[i])
            assert abs(q[i] - want_q) <= 4 * EPS * abs(want_q), (mu[i], s[i])

    def test_stack_is_passed_principal_roots_only(self, monkeypatch):
        # _cosh_sinhc_stack has no fold of Re s < 0: every s that reaches it,
        # from rows of every kind, the non-finite ones included, is np.sqrt's
        # principal root, from stacks of many rows and of one
        passed = []
        original = expmkit._cosh_sinhc_stack

        def spy(mu, s):
            passed.append(s.copy())
            return original(mu, s)

        monkeypatch.setattr(expmkit, "_cosh_sinhc_stack", spy)
        rows = np.array([_stack_row(kind, seed) for seed in range(20) for kind in _ROW_KINDS])
        rows = np.concatenate([rows, [np.full((2, 2), math.inf), np.full((2, 2), math.nan),
                                      [[0, 1.7e308], [1.7e308, 0]]]])
        expm_2x2_stack(rows)
        for row in rows:
            expm_2x2_stack(row[None])
        assert len(passed) > 1
        s = np.concatenate(passed)
        assert not np.count_nonzero(s.real < 0)
        assert np.count_nonzero(s.real > 1) and np.count_nonzero(np.abs(s) < _SINHC_SERIES_BELOW)
        assert np.count_nonzero(np.isnan(s)) and np.count_nonzero(np.isinf(s))


class TestOverflowIsQuiet:
    """Past e^709 an exponential overflows to inf and NaN entries.  ``expm``
    runs under one ``np.errstate`` at every d, so it says so in its entries
    alone, as the d = 2 stack always did, and its bits are those it returns
    with warnings switched off by its caller."""

    @pytest.mark.parametrize("s", [1e100, 1e160, 1e200])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_expm_warns_at_no_d(self, d, s):
        m = s * random_matrix(np.random.default_rng(20261021 + d), d)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = expm(m)
        with np.errstate(all="ignore"):
            want = expm(m)
            if d == 2:
                assert _bits(want) == _bits(expm_2x2_stack(m[None])[0])
        assert _bits(got) == _bits(want)
