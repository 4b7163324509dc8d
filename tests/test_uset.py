import cmath
import logging
import math

import numpy as np
import pytest

from commexp.errors import NoConvergenceError, ZeroRootError
from commexp.families import Theorem2Params, theorem2_family
from commexp.relations import TScanConfig, RelationKind, relation_report
from commexp import uset
from commexp.uset import branch_seed, enumerate_u, solve_u

PAPER_ROOT = 2.0888 + 7.4615j


def winding_number_rectangle(re_max=10.0, im_max=7 * math.pi, samples=20000):
    """Argument-principle zero count of e^z - 1 - z inside the rectangle.

    Counterclockwise boundary; counts zeros with multiplicity (the origin is
    a double zero).  Independent of the Newton solver by construction.
    """
    corners = [
        complex(-re_max, -im_max),
        complex(re_max, -im_max),
        complex(re_max, im_max),
        complex(-re_max, im_max),
    ]
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        seg = np.linspace(a, b, samples, endpoint=False)
        pts.append(seg)
    z = np.concatenate(pts + [np.array([corners[0]])])
    h = np.exp(z) - 1 - z
    assert np.min(np.abs(h)) > 1e-6, "zero too close to the contour"
    steps = np.diff(np.angle(h))
    steps = (steps + np.pi) % (2 * np.pi) - np.pi
    assert np.max(np.abs(steps)) < math.pi / 2, "contour sampling too coarse"
    total = steps.sum() / (2 * np.pi)
    winding = round(total)
    assert abs(total - winding) < 1e-6
    return winding


class TestSolveU:
    def test_paper_root(self):
        root = solve_u(2 + 7j)
        assert abs(root.value - PAPER_ROOT) <= 2e-3
        assert root.residual <= 1e-12
        assert root.branch_hint == 1

    def test_conjugate_root(self):
        root = solve_u(2 - 7j)
        conj = solve_u(2 + 7j)
        assert abs(root.value - conj.value.conjugate()) <= 1e-12
        assert root.branch_hint == -1

    def test_small_seed_hits_trivial_root(self):
        with pytest.raises(ZeroRootError):
            solve_u(0.1)

    def test_zero_seed_rejected(self):
        with pytest.raises(ValueError):
            solve_u(0)

    def test_residual_definition(self):
        r = solve_u(branch_seed(2))
        assert abs(cmath.exp(r.value) - 1 - r.value) == r.residual


class TestEnumerateU:
    def test_single_branch(self):
        roots = enumerate_u(1, 1)
        assert len(roots) == 1
        assert abs(roots[0].value - PAPER_ROOT) <= 2e-3

    def test_count_certified_by_contour_oracle(self):
        roots = enumerate_u(-3, 3)
        # the rectangle |Re| <= 10, |Im| <= 7 pi holds the double zero at the
        # origin plus the six branch roots and nothing else
        zeros_inside = winding_number_rectangle()
        assert zeros_inside == 8
        assert len(roots) == zeros_inside - 2 == 6
        for r in roots:
            assert abs(r.value) <= math.hypot(10, 7 * math.pi)

    def test_roots_match_lambert_w(self):
        # e^u = 1 + u with v = -1 - u reads v e^v = -1/e, so u = -1 - W_j(-1/e);
        # branch k of the solver is W's branch j = -k - 1 (k >= 1) or -k (k <= -1)
        lambertw = pytest.importorskip("scipy.special").lambertw
        roots = enumerate_u(-6, 6)
        assert [r.branch_hint for r in roots] == [k for k in range(-6, 7) if k]
        for r in roots:
            k = r.branch_hint
            oracle = -1 - complex(lambertw(-1 / math.e, -k - 1 if k >= 1 else -k))
            assert abs(r.value - oracle) <= 1e-13 * abs(oracle)

    def test_conjugation_closure(self):
        roots = enumerate_u(-3, 3)
        values = [r.value for r in roots]
        for v in values:
            assert any(abs(v.conjugate() - w) <= 1e-9 for w in values)

    def test_positive_real_parts(self):
        # empirical property of the enumerated range
        for r in enumerate_u(-5, 5):
            assert r.value.real > 0

    def test_residual_contract(self):
        for r in enumerate_u(-3, 3):
            assert r.residual <= 1e-12
            assert abs(r.value) > 1e-6

    def test_branch_hints_sorted_and_complete(self):
        roots = enumerate_u(-3, 3)
        assert [r.branch_hint for r in roots] == [-3, -2, -1, 1, 2, 3]

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            enumerate_u(3, -3)

    def test_failed_branch_is_logged_and_skipped(self, monkeypatch, caplog):
        solve = uset.solve_u

        def stalls_on_branch_2(seed):
            if seed == branch_seed(2):
                raise NoConvergenceError("stalled")
            return solve(seed)

        monkeypatch.setattr(uset, "solve_u", stalls_on_branch_2)
        with caplog.at_level(logging.WARNING, logger="commexp.uset"):
            roots = enumerate_u(1, 3)
        assert [r.branch_hint for r in roots] == [1, 3]
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("commexp.uset", logging.WARNING, "branch k=2 failed: stalled")]

    def test_unconverged_branches_are_logged(self, monkeypatch, caplog):
        # one Newton step leaves every branch seed above the residual target
        monkeypatch.setattr(uset, "MAX_ITERATIONS", 1)
        with caplog.at_level(logging.WARNING, logger="commexp.uset"):
            assert enumerate_u(-1, 1) == []
        assert [r.getMessage().split(":")[0] for r in caplog.records] == [
            "branch k=-1 failed", "branch k=1 failed"]
        assert all(r.name == "commexp.uset" and "no residual" in r.getMessage()
                   for r in caplog.records)


class TestRootsFeedTheFullIdentityFamily:
    def test_every_enumerated_root_passes_the_t_suite(self):
        for root in enumerate_u(-2, 2):
            f, g = theorem2_family(Theorem2Params(u=root.value))
            report = relation_report(f, g, TScanConfig.through(6, 1e-8))
            verdicts = [v for v in report.verdicts if v.t is not None]  # star, swapped star
            for v in verdicts:
                want = v.relation is RelationKind.SUM_PRODUCT
                assert v.holds == want, (root, v)
