"""Digests of the relation outputs, pinned bit for bit.

A change that only restructures or speeds up a path must leave every
output bit where it was: every verdict's holds and residual, the
congruence flags, the triangularizability verdict, the entries and
eigenvalues that ``_expm_2x2_with_eigenvalues`` returns, and the matrices
t F + G and exp(t F + G) of every scale combination of a pair.  Each test
hashes those bits over a fixed set of inputs and compares the sha256 with
the value recorded before the path was last restructured.  A digest that
moves means an output moved; which one, the per-row comparison against a
checkout of the older tree tells.  The d = 2 report digests hash the
commute verdicts apart from every other bit, so a change to how the
commutator is rounded re-records only its own digest.
"""

import hashlib
import itertools
import math

import numpy as np

from commexp import uset
from commexp.errors import ComplexRootsError, ConstraintError
from commexp.expmkit import _expm_2x2_with_eigenvalues, expm_affine
from commexp.families import (
    Real2DParams,
    Theorem2Params,
    dim2_case1_pair,
    intro_pair,
    real2d_family,
    theorem2_family,
)
from commexp.numkernel import CMat, as_matrix, combine_affine
from commexp.relations import TScanConfig, check_relation_star, relation_report


def _random_pairs(seed: int) -> tuple[list, list]:
    """The random pairs of the benchmark's ``sweep`` workload at ``seed``, in
    the order it draws them: 40 2x2 pairs, then 120 3x3 pairs, each matrix
    complex Gaussian scaled to Frobenius norm 1.5."""
    rng = np.random.default_rng(seed)

    def draw(dim):
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return m * (1.5 / np.linalg.norm(m))

    pairs2 = [(draw(2), draw(2)) for _ in range(40)]
    return pairs2, [(draw(3), draw(3)) for _ in range(120)]


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
    return pairs + _random_pairs(seed)[0]


def _tscan_pairs_2x2() -> list:
    """The d = 2 pairs of the benchmark's ``tscan`` workload, in its order:
    intro, real2d(1, 2, 5) and theorem2 on branches 1 and -2."""
    return [intro_pair(), real2d_family(Real2DParams(lam=1, mu=2, nu=5)),
            *(theorem2_family(Theorem2Params(u=uset.solve_u(uset.branch_seed(k)).value))
              for k in (1, -2))]


def _tscan_pairs_3x3(seed: int) -> list:
    """The two d = 3 pairs of the benchmark's ``tscan`` workload at ``seed``,
    in its order: each matrix the skew-Hermitian part of a complex Gaussian,
    scaled to Frobenius norm 1."""
    rng = np.random.default_rng(seed)

    def draw():
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        m = (m - m.conj().T) / 2
        return m * (1.0 / np.linalg.norm(m))

    return [(draw(), draw()) for _ in range(2)]


# intro's star set at integers is {-294, 0, 1, 2, 3, 4, 5, 299}; -3 is off it
INTRO_MIXED_T = (-294, -3, 0, 1, 5, 299, 0.5 + 0.25j, 1j)


def _report_fields(pairs: list, cfg: TScanConfig, triangularizable: bool):
    """Each report's verdict fields (relation, holds, residual bits, t),
    congruence flags and triangularizability verdict, pair by pair."""
    for f, g in pairs:
        report = relation_report(f, g, cfg, include_triangularizable=triangularizable)
        fields = [(v.relation.value, v.holds, float(v.residual).hex(), v.t)
                  for v in report.verdicts]
        yield fields, report.congruence_free, report.sim_triangularizable


def _report_digest(pairs: list, cfg: TScanConfig = TScanConfig.through(3),
                   triangularizable: bool = True) -> tuple[int, str]:
    """sha256 over the reports of ``pairs`` under ``cfg`` (t = 1..3 by
    default), with triangularizability unless told otherwise."""
    h = hashlib.sha256()
    for report in _report_fields(pairs, cfg, triangularizable):
        h.update(repr(report).encode())
    return len(pairs), h.hexdigest()


def _split_report_digest(pairs: list, cfg: TScanConfig = TScanConfig.through(3),
                         triangularizable: bool = True) -> tuple[int, str, str]:
    """``_report_digest`` in two parts: a sha256 over every bit but the
    commute verdicts', then one over the commute verdicts alone.  At d = 2
    the commute residual is taken in Python complex arithmetic, whose last
    digits may differ from a numpy product's, so the first digest pins
    everything a rewrite of that product must keep."""
    rest, commute = hashlib.sha256(), hashlib.sha256()
    for fields, flags, trig in _report_fields(pairs, cfg, triangularizable):
        commute.update(repr(fields[0]).encode())
        rest.update(repr((fields[1:], flags, trig)).encode())
    return len(pairs), rest.hexdigest(), commute.hexdigest()


def _kernel_rows() -> np.ndarray:
    """Seeded random rows at scales 1e-3..1e3, then rows on the i pi lattice:
    i pi S diag(k1, k2) S^-1 for unimodular integer S (either parity mix),
    i pi [[k1, b], [0, k2]] (a Jordan block where k1 = k2 and b != 0), and
    i pi times small integer matrices, some of whose spectra snap; then
    exactly triangular rows, upper and lower and diagonal, of real and
    complex diagonals whose real parts lie 0 to 700 apart, either way."""
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
    triangular = []
    for gap in (0.0, 1.0, 40.0, 300.0, 700.0):
        for diagonal in ([gap, 0], [-gap / 2 + 1j, gap / 2 - 3j]):
            for corner, entry in (((0, 1), 0), ((0, 1), 1.5 - 2j), ((1, 0), -0.75j)):
                m = np.diag(diagonal).astype(complex)
                m[corner] = entry
                triangular.append(m)
    return np.concatenate([*rows, np.array(lattice, dtype=complex), np.array(triangular)])


def _array_bits(*arrays) -> bytes:
    # every other bit counts, signed zeros included; a NaN's sign and
    # payload carry nothing, so each NaN part is hashed as one NaN
    parts = np.concatenate([a.ravel() for a in arrays]).view(np.float64).copy()
    parts[np.isnan(parts)] = math.nan
    return parts.tobytes()


def _kernel_digest() -> str:
    with np.errstate(all="ignore"):  # the 1e3 rows overflow e^mu
        out, lams = _expm_2x2_with_eigenvalues(_kernel_rows())
    return hashlib.sha256(_array_bits(out, lams)).hexdigest()


GRID_T = (1, 2, 3, -2, 0, 7, 0.5 + 0.25j, 1j)


def _grid_entries(dim: int) -> list:
    """Nine (F, G) entry pairs of one dimension: i times integer matrices
    (whose pi-scaled forms lie on the i pi lattice and may snap), an
    integer diagonal pair, a Jordan block, Gaussian integers, and seeded
    complex Gaussian pairs of Frobenius norm 1."""
    rng = np.random.default_rng(20261020 + dim)

    def ints():
        return 1j * rng.integers(-3, 4, size=(dim, dim)).astype(complex)

    def gaussian_ints():
        return (rng.integers(-2, 3, size=(dim, dim))
                + 1j * rng.integers(-2, 3, size=(dim, dim))).astype(complex)

    def normal():
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return m / np.linalg.norm(m)

    jordan = 1j * np.eye(dim) + np.eye(dim, k=1)
    pairs = [(ints(), ints()) for _ in range(3)]
    pairs.append((1j * np.diag(np.arange(1, dim + 1)).astype(complex),
                   -1j * np.diag(np.arange(dim, 0, -1)).astype(complex)))
    pairs.append((jordan, ints()))
    pairs += [(gaussian_ints(), gaussian_ints()) for _ in range(2)]
    pairs += [(normal(), normal()) for _ in range(2)]
    return pairs


def _as_scale(entries: np.ndarray, scale: str):
    if scale == "array":
        return entries.copy()
    return CMat(entries, pi_scaled=scale == "pi")


def _scale_grid_digest() -> tuple[int, str]:
    """sha256 over every scale combination (pi-scaled CMat, plain CMat,
    array) of F and of G for the grid pairs at d = 2 and 3, and every t of
    GRID_T: star and swapped star (holds and residual), exp(t F + G) and
    t F + G."""
    h = hashlib.sha256()
    count = 0
    for dim in (2, 3):
        for ef, eg in _grid_entries(dim):
            for sf, sg in itertools.product(("pi", "plain", "array"), repeat=2):
                f, g = _as_scale(ef, sf), _as_scale(eg, sg)
                count += 1
                for t in GRID_T:
                    verdicts = [check_relation_star(f, g, t, swapped=swapped)
                                for swapped in (False, True)]
                    h.update(repr([(v.holds, float(v.residual).hex()) for v in verdicts]).encode())
                    h.update(_array_bits(expm_affine(f, g, t),
                                         as_matrix(combine_affine(f, g, t))))
    return count, h.hexdigest()


def test_sweep_2x2_reports_keep_their_bits():
    assert _split_report_digest(_sweep_pairs_2x2(1)) == PINNED_REPORTS[1]
    assert _split_report_digest(_sweep_pairs_2x2(2)) == PINNED_REPORTS[2]


def test_tscan_2x2_reports_keep_their_bits():
    # the benchmark's tscan ops at d = 2 (t = 1..100, no triangularizability)
    assert _split_report_digest(_tscan_pairs_2x2(), TScanConfig.through(100),
                                triangularizable=False) == PINNED_TSCAN
    assert _split_report_digest([intro_pair()], TScanConfig(INTRO_MIXED_T),
                                triangularizable=False) == PINNED_INTRO_MIXED_T


def test_sweep_3x3_reports_keep_their_bits():
    assert _report_digest(_random_pairs(1)[1]) == PINNED_REPORTS_3X3[1]
    assert _report_digest(_random_pairs(2)[1]) == PINNED_REPORTS_3X3[2]


def test_tscan_3x3_reports_keep_their_bits():
    # the benchmark's tscan ops at d = 3 (t = 1..100, no triangularizability),
    # which take most of its time
    for seed in (1, 2):
        assert _report_digest(_tscan_pairs_3x3(seed), TScanConfig.through(100),
                              triangularizable=False) == PINNED_TSCAN_3X3[seed]


def test_scale_grid_keeps_its_bits():
    assert _scale_grid_digest() == PINNED_SCALE_GRID


def test_expm_2x2_kernel_keeps_its_bits():
    assert _kernel_digest() == PINNED_KERNEL


# (count, every bit but the commute verdicts', the commute verdicts); the
# commute digests and the d = 3 digests were last re-recorded when a single
# matrix's Frobenius norm became math.hypot of its parts, which moved the
# d = 2 commute residuals of 53 of the 404 sweep pairs, 1 of the 4 tscan
# pairs and the intro pair at INTRO_MIXED_T and 980 of the 2972 d = 3 report
# residuals, each by at most 6.5e-16 relative; no holds, flag or
# exponential moved.  The other d = 2 report digests but INTRO_MIXED_T's
# (which did not move), the scale grid's and the kernel's were last
# re-recorded when the d = 2 closed form became the Newton form
# e^z0 I + [z0, z1] (A - z0 I), with s = +/-b00 exactly on triangular rows,
# and the kernel gained its triangular rows: 305 and 328 of the 1818 sweep
# residuals of seeds 1 and 2 and 360 of the 812 tscan residuals moved, each
# by at most 1.1e-15 absolute, and 731 of the 1296 d = 2 scale-grid
# residuals, by at most 1.8e-15; no holds, flag or triangularizability
# verdict moved, and no bit of the grid's d = 3 rows
PINNED_REPORTS = {
    1: (202, "995e5501f4eef5574a860cb395a49ea8ea73e3eea01e0c060286b3fd862194d4",
        "4f61ba3a2b708821f56e1757c97ce23754df86e4a37945425ac603255359ac21"),
    2: (202, "9b88d17fa75f6d10bd8237987ed2620e0633a5bda64c7c9522a33bc671e57c9b",
        "623948f0ddf0b95dba0c58ab060df10d7f7dc6e8cce31a73349449fdabe0b6cd"),
}
PINNED_KERNEL = "5c9902547718ea3159282968240352ac234a559f6a570a8776c214b759d44447"
PINNED_REPORTS_3X3 = {
    1: (120, "b35f24ec4d0978cbd328eef3f22a18b884349b3e91b87fa8044a4094d13c4fc4"),
    2: (120, "6c8483b7c22632257752f52060e3a271ce649e3f441977b5a4d820cce7998418"),
}
PINNED_TSCAN_3X3 = {
    1: (2, "bf6bc5055833c7572d2a95c35e9a57ba396fa2cdf29cfd6d6d82a008b7838c22"),
    2: (2, "a5e5b8361e35502da2c7924e1346d00dc167277f9ff721de17ed908950b8d3a5"),
}
PINNED_SCALE_GRID = (162, "bfe32145dbd05ce15fd421d0a9421a402b8e7d5eb50ba542b4aead52b0170027")
PINNED_TSCAN = (4, "ca46c28e10ec2ee9f75fff30056696eafb4dea98def76ab05e1ee73efb3a5f13",
                "7aa48da396f7538dc60ad47105b43b671f1531450276ba11147857a99d7d798f")
PINNED_INTRO_MIXED_T = (1, "857ef6d111364960e645adf6a1c83606efddf1390ccedb0a3cacfc9d4e5cfe52",
                        "df16f120f45ecdda959d3bff3712e5def09ab003083280509db20983447f41e3")
