import math

import numpy as np
import pytest

from commexp import numkernel
from commexp.errors import (
    CongruenceViolationError,
    IllConditionedError,
    SnapUnavailableError,
)
from commexp.expmkit import (
    COND_LIMIT,
    SNAP_SHARPNESS,
    ExpMethod,
    _CERTIFY_LIMIT,
    _certified_condition,
    _expm_pade,
    _hermite,
    _pi_snap_projectors,
    _snap_sharpness,
    expm,
    expm_affine,
    log_poly_recover,
)
from commexp.families import intro_pair
from commexp.numkernel import CMat, as_matrix, combine_affine, eigen_decompose
from commexp.relations import TScanConfig, relation_report

from conftest import random_matrix, rel_residual

PI = math.pi
ENGINES = (ExpMethod.SPECTRAL_HERMITE, ExpMethod.PADE_SQUARING)


class TestExpmBasics:
    def test_zero(self):
        assert np.allclose(expm(np.zeros((3, 3))), np.eye(3), atol=1e-15)

    def test_nilpotent_truncates(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        for method in ENGINES:
            assert np.allclose(expm(n, method), np.eye(2) + n, atol=1e-14)

    def test_intro_exponentials(self):
        a, b = intro_pair()
        assert np.allclose(expm(a), np.eye(2), atol=1e-10)
        assert np.allclose(expm(b), -np.eye(2), atol=1e-10)
        assert np.allclose(expm(combine_affine(a, b, 1)), -np.eye(2), atol=1e-10)

    def test_exact_snap_returns_literal_units(self):
        a, b = intro_pair()
        assert np.array_equal(expm(a, ExpMethod.EXACT_PI_SNAP), np.eye(2))
        assert np.array_equal(expm(b, ExpMethod.EXACT_PI_SNAP), -np.eye(2))

    def test_exact_snap_mixed_parity_projectors(self):
        m = np.array([[1j * PI, 1], [0, 0]])
        got = expm(m, ExpMethod.EXACT_PI_SNAP)
        # closed form: entry (0,1) is (e^{i pi} - 1)/(i pi) = 2i/pi
        want = np.array([[-1, 2j / PI], [0, 1]])
        assert np.allclose(got, want, atol=1e-14)
        assert rel_residual(got, expm(m, ExpMethod.SPECTRAL_HERMITE)) < 1e-12

    def test_snap_unavailable_off_lattice(self):
        a, b = intro_pair()
        with pytest.raises(SnapUnavailableError):
            expm(combine_affine(a, b, 6), ExpMethod.EXACT_PI_SNAP)

    def test_snap_unavailable_defective(self):
        with pytest.raises(SnapUnavailableError):
            expm(np.array([[0, 1], [0, 0]]), ExpMethod.EXACT_PI_SNAP)

    def test_ill_conditioned_raises_then_auto_falls_back(self):
        lam = 8e-9  # eigenvalues +-8e-9: distinct clusters, eigenbasis cond ~1.2e8
        m = np.array([[0, 1], [lam * lam, 0]], dtype=complex)
        with pytest.raises(IllConditionedError):
            expm(m, ExpMethod.SPECTRAL_HERMITE)
        auto = expm(m)
        assert np.allclose(auto, np.eye(2) + m, atol=1e-12)

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
            e1 = expm(m, ExpMethod.SPECTRAL_HERMITE)
            e2 = expm(m, ExpMethod.PADE_SQUARING)
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
            exact = expm(m, ExpMethod.EXACT_PI_SNAP)
            spectral = expm(m, ExpMethod.SPECTRAL_HERMITE)
            assert np.array_equal(exact, (-1) ** n * np.eye(2))
            assert rel_residual(spectral, exact) <= 1e-9


class TestLogPolyRecover:
    def test_nilpotent(self):
        n = np.array([[0, 1], [0, 0]], dtype=complex)
        p = log_poly_recover(n)
        assert np.allclose(p.coefficients, [-1, 1])
        assert np.allclose(p.apply(np.eye(2) + n), n, atol=1e-14)

    def test_distinct_real_diagonal(self):
        p = log_poly_recover(np.diag([1.0, 2.0]))
        e1, e2 = math.e, math.e**2
        # line through (e, 1) and (e^2, 2)
        slope = 1 / (e2 - e1)
        assert p(e1) == pytest.approx(1, abs=1e-12)
        assert p(e2) == pytest.approx(2, abs=1e-12)
        assert p.coefficients[1] == pytest.approx(slope, abs=1e-12)

    def test_congruence_violation(self):
        with pytest.raises(CongruenceViolationError):
            log_poly_recover(np.diag([1j * PI, -1j * PI]))

    def test_round_trip_random(self, rng):
        # ||F|| <= 2 keeps every spectrum 2*i*pi-congruence free
        for _ in range(200):
            d = int(rng.integers(2, 4))
            f = random_matrix(rng, d, norm=2.0)
            p = log_poly_recover(f)
            assert rel_residual(p.apply(expm(f)), f) <= 1e-8

    def test_degree_below_dim(self, rng):
        f = random_matrix(rng, 3, norm=2.0)
        assert len(log_poly_recover(f).coefficients) <= 3


def _svd_condition(spectrum):
    vecs = spectrum.eigenvectors
    if vecs.shape[1] != spectrum.dim:
        return math.inf
    sv = np.linalg.svd(vecs, compute_uv=False)
    return math.inf if sv[-1] == 0 else float(sv[0] / sv[-1])


def _svd_path(m, method):
    """Each engine decided from the SVD condition of the eigenvectors that
    ``eigen_decompose`` returns, with no certificate."""
    a = as_matrix(m)
    spec = eigen_decompose(a)
    cond = _svd_condition(spec)
    simple = spec.distinct_count == spec.dim
    if method is ExpMethod.EXACT_PI_SNAP:
        if spec.snap is None or not spec.diagonalizable or cond > COND_LIMIT:
            raise SnapUnavailableError
        return _pi_snap_projectors(a, spec)
    if method is ExpMethod.SPECTRAL_HERMITE:
        if simple and cond > COND_LIMIT:
            raise IllConditionedError
        return _hermite(a, spec)
    if spec.snap is not None and _snap_sharpness(spec) <= SNAP_SHARPNESS and cond <= COND_LIMIT:
        return _pi_snap_projectors(a, spec)
    if simple and cond > COND_LIMIT:
        return _expm_pade(a)
    return _hermite(a, spec)


def _outcome(engine, m, method):
    try:
        return engine(m, method)
    except (IllConditionedError, SnapUnavailableError) as exc:
        return type(exc)


def _certificate_inputs(rng):
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
    # the eigenbasis condition ~1/lam crosses the certificate margin and COND_LIMIT
    for lam in np.geomspace(1e-10, 1e-3, 57):
        yield np.array([[0, 1], [lam * lam, 0]])
        yield np.array([[1j * PI, 1], [lam * lam, 1j * PI]])
    # snapped spectra i*pi*k behind eigenbases of condition 1..1e9
    for _ in range(200):
        d = int(rng.integers(2, 4))
        u, _, vh = np.linalg.svd(random_matrix(rng, d))
        s = u @ np.diag(np.geomspace(1, 10 ** -rng.uniform(0, 9), d)) @ vh
        ks = rng.integers(-40, 41, size=d)
        yield s @ np.diag(1j * PI * ks) @ np.linalg.inv(s)


class TestEigenbasisCertificate:
    """A simple spectrum's eigenbasis is certified from its Frobenius
    covariants; every engine must decide exactly as the SVD of the
    eigenvectors decides."""

    def test_certificate_bounds_svd_condition(self, rng):
        certified = 0
        for m in _certificate_inputs(rng):
            spec = eigen_decompose(m)
            if spec.distinct_count != spec.dim:
                continue
            bound = _certified_condition(as_matrix(m), spec.eigenvalues)
            if bound < _CERTIFY_LIMIT:
                certified += 1
                assert spec.diagonalizable
                assert _svd_condition(spec) <= bound
        assert certified >= 400

    # Pade overflows on the snapped inputs of condition ~1e9 (norms ~1e10),
    # the same way on both paths
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_engines_match_svd_path(self, rng):
        outcomes = set()
        for m in _certificate_inputs(rng):
            for method in (ExpMethod.AUTO, ExpMethod.SPECTRAL_HERMITE, ExpMethod.EXACT_PI_SNAP):
                got = _outcome(expm, m, method)
                want = _outcome(_svd_path, m, method)
                if isinstance(want, type):
                    assert got is want, (m, method)
                else:
                    assert np.array_equal(got, want, equal_nan=True), (m, method)
                outcomes.add((method, want if isinstance(want, type) else "ok"))
        assert len(outcomes) == 5  # both error types and every engine's success

    def test_sweep_crosses_margin_and_limit(self):
        def bound(lam):
            a = np.array([[0, 1], [lam * lam, 0]], dtype=complex)
            return _certified_condition(a, eigen_decompose(a).eigenvalues)

        assert bound(1e-3) == pytest.approx(1e3, rel=1e-3)
        assert bound(1e-7) > _CERTIFY_LIMIT
        # cond ~1e7: above the margin, so the SVD referees and accepts it
        expm(np.array([[0, 1], [1e-14, 0]]), ExpMethod.SPECTRAL_HERMITE)

    def test_error_messages_unchanged(self):
        lam = 8e-9
        with pytest.raises(IllConditionedError, match=r"condition 1\.2\de\+08 exceeds 1e\+08"):
            expm(np.array([[0, 1], [lam * lam, 0]]), ExpMethod.SPECTRAL_HERMITE)
        with pytest.raises(SnapUnavailableError, match="defective"):
            expm(np.array([[0, 1], [0, 0]]), ExpMethod.EXACT_PI_SNAP)
        # eigenvalues 0 and i*pi with eigenvectors ~1e-8 apart
        with pytest.raises(SnapUnavailableError, match="ill conditioned"):
            expm(np.array([[0, 2e8], [0, 1j * PI]]), ExpMethod.EXACT_PI_SNAP)


class TestKernelSVDGuard:
    """expm on simple spectra must not compute eigenvector kernels."""

    @staticmethod
    def _count_kernels(monkeypatch):
        calls = []
        original = numkernel._kernel_columns

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(numkernel, "_kernel_columns", counting)
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
            calls = self._count_kernels(monkeypatch)
            report = relation_report(a, b, cfg)
            assert calls == []
            assert len(report.verdicts) == 3 + 2 * len(cfg.t_values)
        # the snapped pair commutes, so both stars hold at every t
        assert all(v.holds for v in report.verdicts[3:])

    def test_defective_snap_still_computes_kernels(self, monkeypatch):
        calls = self._count_kernels(monkeypatch)
        with pytest.raises(SnapUnavailableError):
            expm(np.array([[0, 1], [0, 0]]), ExpMethod.EXACT_PI_SNAP)
        assert calls
