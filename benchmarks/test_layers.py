"""Per-layer timings of the numeric kernel, one benchmark per layer.

Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

This directory is outside ``testpaths``, so the test suite does not collect
it.  Inputs are fixed (seeded), so two trees can be compared table to table
on the same machine; the end-to-end figures come from ``perfbench/run.py``.
"""

import numpy as np
import pytest

from commexp.expmkit import expm, expm_2x2_stack
from commexp.families import intro_pair
from commexp.numkernel import CMat, as_matrix, combine_affine, frobenius
from commexp.relations import TScanConfig, check_relation_star, relation_report

_rng = np.random.default_rng(20261018)


def _random(dim):
    return _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))


M2, M3, N3 = _random(2), _random(3), _random(3)
INTRO_F, INTRO_G = intro_pair()  # pi-scaled 2x2; F = diag(60, -60) i pi snaps
# 100 random rows and the intro scan's t A + B for t = 1..100 (a few snap)
STACK2 = np.array([_random(2) for _ in range(100)]
                  + [as_matrix(combine_affine(INTRO_F, INTRO_G, t)) for t in range(1, 101)])


@pytest.mark.parametrize("entries", [M2, M3], ids=["2x2", "3x3"])
def test_cmat_build(benchmark, entries):
    benchmark(CMat, entries)


@pytest.mark.parametrize("norm", [frobenius, np.linalg.norm], ids=["frobenius", "np.linalg.norm"])
def test_frobenius_norm(benchmark, norm):
    benchmark(norm, M3)


@pytest.mark.parametrize("m", [INTRO_F, M3], ids=["2x2-pi-snapped", "3x3-random"])
def test_expm_auto(benchmark, m):
    benchmark(expm, m)  # at d = 2 a stack of one through expm_2x2_stack


def test_expm_2x2_stack_200(benchmark):
    benchmark(expm_2x2_stack, STACK2)


@pytest.mark.parametrize("f, g", [(INTRO_F, INTRO_G), (M3, N3)], ids=["intro", "3x3-random"])
def test_check_relation_star(benchmark, f, g):
    benchmark(check_relation_star, f, g, 1)


def test_relation_report_intro_t20(benchmark):
    benchmark(relation_report, INTRO_F, INTRO_G, TScanConfig.through(20, 1e-6))


def test_relation_report_intro_t1000(benchmark):
    benchmark(relation_report, INTRO_F, INTRO_G, TScanConfig.through(1000, 1e-6))
