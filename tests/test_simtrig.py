import numpy as np
import pytest

from commexp.families import Theorem2Params, intro_pair, theorem2_family
from commexp.numkernel import CMat
from commexp.simtrig import (
    BASIS_VERIFY_TOL,
    TrigVerdict,
    common_eigenvector,
    sim_triangularizable,
)
from commexp.uset import branch_seed, solve_u

from conftest import random_matrix

U1 = 2.088843015613044 + 7.461489285654254j


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

    def test_theorem2_pair_accepted(self):
        f, g = theorem2_family(Theorem2Params(u=U1))
        assert sim_triangularizable(f, g).triangularizable

    def test_shifted_conjugated_theorem2_pair(self):
        # F has a defective double eigenvalue known only to ~sqrt(eps) after
        # a shift and a basis change; common_eigenvector meets its 1e-8
        # tolerance here only because eigen_decompose shifts by tr / d
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


class TestCommonEigenvector:
    def test_diagonal_pair(self):
        v = common_eigenvector(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        assert v is not None
        assert max(abs(v[0]), abs(v[1])) == pytest.approx(1.0)
        assert min(abs(v[0]), abs(v[1])) == pytest.approx(0.0, abs=1e-10)

    def test_intro_pair_has_none(self):
        a, b = intro_pair()
        assert common_eigenvector(a, b) is None

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
