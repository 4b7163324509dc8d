import numpy as np
import pytest

from commexp import families
from commexp.errors import ComplexRootsError, ConstraintError


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def random_matrix(rng, dim, norm=3.0):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    current = np.linalg.norm(m)
    if current > norm:
        m *= norm / current
    return m


def rel_residual(lhs, rhs):
    scale = max(1.0, np.linalg.norm(lhs), np.linalg.norm(rhs))
    return np.linalg.norm(lhs - rhs) / scale


def admissible_real_triples():
    """The 56 real2d triples (lambda, mu, nu) with lambda, mu <= 4 and nu <= 8
    that ``Real2DParams`` and ``real2d_family`` accept."""
    triples = []
    for lam in range(1, 5):
        for mu in range(1, 5):
            for nu in range(1, 9):
                try:
                    families.real2d_family(families.Real2DParams(lam=lam, mu=mu, nu=nu))
                except (ConstraintError, ComplexRootsError):
                    continue
                triples.append((lam, mu, nu))
    return triples
