"""Digests of the d = 2 outputs, pinned bit for bit.

A change that only makes the d = 2 path faster must leave every output
bit where it was: every verdict's holds and residual, the congruence
flags, the triangularizability verdict, and the entries and eigenvalues
that ``_expm_2x2_with_eigenvalues`` returns.  Each test hashes those bits
over a fixed set of inputs and compares the sha256 with the value recorded
before the d = 2 path was last restructured.  A digest that moves means an
output moved; which one, the per-row comparison against a checkout of the
older tree tells.
"""

import hashlib
import math

import numpy as np

from commexp import uset
from commexp.errors import ComplexRootsError, ConstraintError
from commexp.expmkit import _expm_2x2_with_eigenvalues
from commexp.families import (
    Real2DParams,
    Theorem2Params,
    dim2_case1_pair,
    real2d_family,
    theorem2_family,
)
from commexp.relations import TScanConfig, relation_report


def _sweep_pairs_2x2(seed: int) -> list:
    """The d = 2 pairs of the benchmark's ``sweep`` workload at ``seed``, in
    its order: every admissible real2d rotation with lambda, mu, nu <= 6,
    dim2case1 over -5..5, theorem2 on branches -6..6 and 40 random pairs."""
    pairs = []
    for lam in range(1, 7):
        for mu in range(1, 7):
            for nu in range(1, 7):
                try:
                    pairs.append(real2d_family(Real2DParams(lam=lam, mu=mu, nu=nu)))
                except (ConstraintError, ComplexRootsError):
                    continue
    pairs += [dim2_case1_pair(lam, mu) for lam in range(-5, 6) for mu in range(-5, 6)
              if lam and mu and lam + mu]
    pairs += [theorem2_family(Theorem2Params(u=uset.solve_u(uset.branch_seed(k)).value))
              for k in range(-6, 7) if k]
    rng = np.random.default_rng(seed)

    def random2():
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        return m * (1.5 / np.linalg.norm(m))

    pairs += [(random2(), random2()) for _ in range(40)]
    return pairs


def _report_digest(seed: int) -> tuple[int, str]:
    cfg = TScanConfig.through(3)
    h = hashlib.sha256()
    pairs = _sweep_pairs_2x2(seed)
    for f, g in pairs:
        report = relation_report(f, g, cfg, include_triangularizable=True)
        fields = [(v.relation.value, v.holds, float(v.residual).hex(), v.t)
                  for v in report.verdicts]
        h.update(repr((fields, report.congruence_free, report.sim_triangularizable)).encode())
    return len(pairs), h.hexdigest()


def _kernel_rows() -> np.ndarray:
    """Seeded random rows at scales 1e-3..1e3, then rows on the i pi lattice:
    i pi S diag(k1, k2) S^-1 for unimodular integer S (either parity mix),
    i pi [[k1, b], [0, k2]] (a Jordan block where k1 = k2 and b != 0), and
    i pi times small integer matrices, some of whose spectra snap."""
    rng = np.random.default_rng(20261019)
    rows = [scale * (rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2)))
            for scale in 10.0 ** np.arange(-3, 4)]
    lattice = []
    for s in ([[1, 0], [0, 1]], [[1, 1], [0, 1]], [[2, 1], [1, 1]], [[3, -2], [-4, 3]]):
        s = np.array(s, dtype=float)
        s_inv = np.round(np.linalg.inv(s))
        for k1 in range(-3, 4):
            for k2 in range(-3, 4):
                lattice.append(1j * math.pi * (s @ np.diag([k1, k2]) @ s_inv))
    for k1 in range(-4, 5):
        for k2 in range(-4, 5):
            for b in (1, -15):
                lattice.append(1j * math.pi * np.array([[k1, b], [0, k2]]))
    lattice += list(1j * math.pi * rng.integers(-4, 5, size=(128, 2, 2)))
    return np.concatenate([*rows, np.array(lattice, dtype=complex)])


def _kernel_digest() -> str:
    with np.errstate(all="ignore"):  # the 1e3 rows overflow e^mu
        out, lams = _expm_2x2_with_eigenvalues(_kernel_rows())
    # every other bit counts, signed zeros included; a NaN's sign and
    # payload carry nothing, so each NaN part is hashed as one NaN
    parts = np.concatenate([out.ravel(), lams.ravel()]).view(np.float64).copy()
    parts[np.isnan(parts)] = math.nan
    return hashlib.sha256(parts.tobytes()).hexdigest()


def test_sweep_2x2_reports_keep_their_bits():
    assert _report_digest(1) == PINNED_REPORTS[1]
    assert _report_digest(2) == PINNED_REPORTS[2]


def test_expm_2x2_kernel_keeps_its_bits():
    assert _kernel_digest() == PINNED_KERNEL


PINNED_REPORTS = {
    1: (202, "d395c88f8118b68f4b2c9ba05306cf97d0872113a8025cbfa6e4b725c13bce6c"),
    2: (202, "7e26ba153789b523d5a7f5eb223404a2c599df8cac444be6957aa6bcfec34670"),
}
PINNED_KERNEL = "e9a5ac506b7dfe1e87914fdc5408dd2b7cc024dc2de4d0206cfa2a17792bee94"
