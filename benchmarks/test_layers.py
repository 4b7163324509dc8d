"""Per-layer timings of the numeric kernel and the exact searches, one
benchmark per layer.

Run with

    PYTHONPATH=src python -m pytest benchmarks --benchmark-only

This directory is outside ``testpaths``, so the test suite does not collect
it.  Inputs are fixed (seeded), so two trees can be compared table to table
on the same machine; the end-to-end figures come from ``perfbench/run.py``.
The ``test_process_start`` rows time whole ``python -m commexp.cli``
processes against two floors: a process that exits at once (for
``solve-u`` and ``search``, which run in pure Python) and one that imports
numpy and exits (for ``verify`` and ``families``).
"""

import compileall
import contextlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from commexp import cli
from commexp.expmkit import _hermite, _snap_annihilates, expm, expm_2x2_stack
from commexp.families import (
    Real2DParams,
    Theorem2Params,
    dim2_case1_pair,
    intro_pair,
    real2d_family,
    theorem2_family,
)
from commexp.intsearch import discriminant_scan_A1, grobner_replacement_search
from commexp.numkernel import CMat, as_matrix, combine_affine, eigen_decompose, frobenius
from commexp.relations import TScanConfig, check_relation_star, congruence_free, relation_report
from commexp.simtrig import sim_triangularizable

_rng = np.random.default_rng(20261018)


def _random(dim):
    return _rng.standard_normal((dim, dim)) + 1j * _rng.standard_normal((dim, dim))


M2, M3, N3 = _random(2), _random(3), _random(3)
INTRO_F, INTRO_G = intro_pair()  # pi-scaled 2x2; F = diag(60, -60) i pi snaps
# 100 random rows and the intro scan's t A + B for t = 1..100 (a few snap)
STACK2 = np.array([_random(2) for _ in range(100)]
                  + [as_matrix(combine_affine(INTRO_F, INTRO_G, t)) for t in range(1, 101)])
# a triangularizable 3x3 pair: S^-1 U1 S, S^-1 U2 S for upper triangular U1,
# U2 and S = 2I + R, ||R|| = 1
_R = _random(3)
_S = 2 * np.eye(3) + _R / frobenius(_R)
TRIANGULAR3 = tuple(np.linalg.solve(_S, np.triu(_random(3)) @ _S) for _ in range(2))
# a skew-Hermitian 3x3 pair, ||F|| = ||G|| = 1, as in the benchmark's t-scans
SKEW3 = tuple(m / frobenius(m) for m in (k - k.conj().T for k in (_random(3), _random(3))))
# a random 2x2 pair, ||F|| = ||G|| = 1.5, as in the benchmark's sweep
RANDOM2 = tuple(m * (1.5 / frobenius(m)) for m in (_random(2), _random(2)))


@pytest.mark.parametrize("entries", [M2, M3], ids=["2x2", "3x3"])
def test_cmat_build(benchmark, entries):
    benchmark(CMat, entries)


@pytest.mark.parametrize("norm", [frobenius, np.linalg.norm], ids=["frobenius", "np.linalg.norm"])
def test_frobenius_norm(benchmark, norm):
    benchmark(norm, M3)


def _expm_path(m):
    """The path expm takes on a 3x3 matrix: the first whose nodes annihilate it."""
    spectrum = eigen_decompose(m)
    if spectrum.snap is not None and _snap_annihilates(m, list(dict.fromkeys(spectrum.snap))):
        return "exact"
    _, residual, bound = _hermite(m, spectrum)
    return "hermite" if residual <= bound else "pade"


# one 3x3 input per path of expm: i pi diag(1, 2, 3) under an integer shear
# snaps; a random matrix takes Hermite; a near-defective block whose close
# eigenvalues are clustered into one node falls back to Pade
_SHEAR = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
EXPM3 = {
    "exact": 1j * np.pi * _SHEAR @ np.diag([1, 2, 3]) @ np.linalg.inv(_SHEAR).round(),
    "hermite": M3,
    "pade": np.array([[1e3j, 1, 0], [0, 1e3j + 1e-6, 1], [0, 0, 1e3j - 2e-6]]),
}
assert [_expm_path(m) for m in EXPM3.values()] == list(EXPM3)


@pytest.mark.parametrize("m", [INTRO_F, *EXPM3.values()],
                         ids=["2x2-pi-snapped", *(f"3x3-{path}" for path in EXPM3)])
def test_expm_auto(benchmark, m):
    benchmark(expm, m)  # at d = 2 a stack of one through expm_2x2_stack


@pytest.mark.parametrize("m", [M3, EXPM3["pade"]], ids=["3x3-separated", "3x3-clustered"])
def test_eigen_decompose(benchmark, m):
    # separated roots leave every cluster with one root, so the clusters
    # are not sorted again; the Pade input's close roots share a cluster
    benchmark(eigen_decompose, m)


def test_expm_2x2_stack_200(benchmark):
    benchmark(expm_2x2_stack, STACK2)


@pytest.mark.parametrize("f, g", [(INTRO_F, INTRO_G), (M3, N3)], ids=["intro", "3x3-random"])
def test_check_relation_star(benchmark, f, g):
    benchmark(check_relation_star, f, g, 1)


def test_relation_report_intro_t20(benchmark):
    benchmark(relation_report, INTRO_F, INTRO_G, TScanConfig.through(20, 1e-6))


def test_relation_report_intro_t100(benchmark):
    benchmark(relation_report, INTRO_F, INTRO_G, TScanConfig.through(100))


REAL2D_F, REAL2D_G = real2d_family(Real2DParams(lam=1, mu=2, nu=5))


def test_relation_report_real2d_t100(benchmark):
    # the t-scan benchmark's other rotation pair: no row takes the far form
    benchmark(relation_report, REAL2D_F, REAL2D_G, TScanConfig.through(100))


def test_tscan_config_through_100(benchmark):
    # what a scan builds once for all its reports: the checked t values, the
    # read-only t rows and the verdict heads
    benchmark(TScanConfig.through, 100)


# theorem2 branch 1: half the rows of its t = 1..100 stack take the far
# (Re s > 1) form of cosh s and sinh(s)/s
THEOREM2_F, THEOREM2_G = theorem2_family(Theorem2Params(u=2.088843015613044 + 7.461489285654254j))


def test_relation_report_theorem2_t100(benchmark):
    benchmark(relation_report, THEOREM2_F, THEOREM2_G, TScanConfig.through(100))


def test_relation_report_theorem2_mixed_t(benchmark):
    # what verify --t-complex scans: integer and complex t in one stacked call
    benchmark(relation_report, THEOREM2_F, THEOREM2_G, TScanConfig((*range(1, 6), 0.5 + 0.25j)))


# the four kinds of d = 2 op around the sweep's median: a real2d rotation
# pair (the kind at the median itself), a dim2case1 pair (most stacks snap
# exactly in every row, so the closed form does not run), a theorem2 pair
# (nilpotent t F: the sinh series, and snapped rows that fail the
# annihilation test) and a random pair (no row snaps; the
# triangularizability test refuses it)
def test_relation_report_real2d_t3_triangularizable(benchmark):
    benchmark(relation_report, REAL2D_F, REAL2D_G, TScanConfig.through(3),
              include_triangularizable=True)


def test_relation_report_dim2case1_t3_triangularizable(benchmark):
    f, g = dim2_case1_pair(2, 3)
    benchmark(relation_report, f, g, TScanConfig.through(3), include_triangularizable=True)


def test_relation_report_theorem2_t3_triangularizable(benchmark):
    benchmark(relation_report, THEOREM2_F, THEOREM2_G, TScanConfig.through(3),
              include_triangularizable=True)


def test_relation_report_random2x2_t3_triangularizable(benchmark):
    benchmark(relation_report, *RANDOM2, TScanConfig.through(3), include_triangularizable=True)


@pytest.mark.parametrize("f, g", [dim2_case1_pair(2, 3), (INTRO_F, INTRO_G), TRIANGULAR3],
                         ids=["2x2-accepted", "2x2-refused-intro", "3x3-accepted"])
def test_sim_triangularizable(benchmark, f, g):
    benchmark(sim_triangularizable, f, g)


def test_spectrum_congruence_free_far(benchmark):
    # the intro G's spectrum +/-241 i pi: delta = 2 pi 241 i, a congruent pair
    benchmark(congruence_free, [241j * np.pi, -241j * np.pi], 1e-9)


@pytest.mark.parametrize("t_max, triangularizable", [(3, True), (100, False)],
                         ids=["t3-triangularizable", "t100"])
def test_relation_report_3x3_skew(benchmark, t_max, triangularizable):
    # the scalar checks per t: the costliest ops of the benchmark's sweep and t-scan
    benchmark(relation_report, *SKEW3, TScanConfig.through(t_max),
              include_triangularizable=triangularizable)


def test_relation_report_intro_t1000(benchmark):
    benchmark(relation_report, INTRO_F, INTRO_G, TScanConfig.through(1000, 1e-6))


@pytest.mark.parametrize("box, n", [(5, 2), (2, 1)], ids=["box5-n2", "box2-n1-control"])
def test_grobner_replacement_search(benchmark, box, n):
    benchmark(grobner_replacement_search, box, n)


def _main_to_devnull(argv):
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        assert cli.main(argv) == 0


def test_emit_report_iii4_box2_n1(benchmark):
    # the whole command in-process: a 1.8 MB report of 6080 survivors, which
    # costs ~10x the search itself (ROADMAP item 10)
    benchmark(_main_to_devnull, ["search", "iii4", "--box", "2", "--n", "1"])


@pytest.mark.parametrize("params", [(1, 2, 1, 4), (1, 2, 3, 4)],
                         ids=["degenerate", "non-degenerate"])
def test_discriminant_scan_a1_30000(benchmark, params):
    # degenerate: m1 = n1 makes the discriminant a square, and all 30 000 n survive
    benchmark(discriminant_scan_A1, *params, 30000)


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def process_env():
    # bytecode as an installed package has it: without it every process
    # would compile the sources first
    compileall.compile_dir(SRC, quiet=1)
    return dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")


@pytest.mark.parametrize("argv", [
    ("-c", "import os; os._exit(0)"),
    ("-c", "import numpy, os; os._exit(0)"),
    ("-m", "commexp.cli", "solve-u", "--k", "1"),
    ("-m", "commexp.cli", "search", "iii4", "--box", "3", "--n", "2"),
    # 6080 survivors: the report's cost on a fresh heap, which the
    # in-process test_emit_report_iii4_box2_n1 cannot show
    ("-m", "commexp.cli", "search", "iii4", "--box", "2", "--n", "1"),
    ("-m", "commexp.cli", "verify", "--builtin", "intro", "--t", "1..6"),
    ("-m", "commexp.cli", "families", "iii2"),
], ids=["python-floor", "numpy-floor", "solve-u", "search-iii4", "search-iii4-n1",
        "verify-intro", "families-iii2"])
def test_process_start(benchmark, process_env, argv):
    benchmark.pedantic(subprocess.run, args=([sys.executable, *argv],),
                       kwargs={"env": process_env, "check": True, "capture_output": True},
                       rounds=15, warmup_rounds=1)
