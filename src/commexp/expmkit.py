"""Matrix exponentials for d <= 3, three ways.

Two independent floating engines act as each other's oracle:

* ``SPECTRAL_HERMITE``: the Newton form of the polynomial p of degree < d
  that interpolates e^x at the computed eigenvalues z_1..z_d (repeated
  ones included), applied to the matrix.  The divided differences are
  computed stably (McCurdy, Ng & Parlett 1984): [x, y] = e^m sinh(h) / h
  with m = (x + y) / 2 and h = (y - x) / 2, for any two nodes, equal ones
  included; [x, y, z] is the quotient over the farthest pair, or the
  Taylor series about the mean when all three nodes are close.
* ``PADE_SQUARING``: diagonal degree-13 rational approximation with
  power-of-two scaling so the scaled 1-norm stays below ``PADE_THETA``.

``EXACT_PI_SNAP`` covers diagonalizable matrices whose spectrum snaps to
i*pi*Z: there e^(i*pi*k) = (-1)^k exactly, so spectral projectors (or, when
every parity agrees, a bare +/-I) give exponentials with no floating error
in the entries.

One test decides every path, and no engine reads an eigenvector: a path's
nodes z_i must annihilate A,

    ||prod_i (A - z_i I)||_F <= ANNIHILATION_TOL * max(1, ||A - (tr A / d) I||_F)^m

with m the number of factors.  For the polynomial p that interpolates e^x
at the z_i, exp(A) - p(A) = g(A) prod_i (A - z_i I), g being the divided
difference of e^x over the z_i and one more argument (Higham 2008,
Functions of Matrices), so the residual measures the error itself.
The Hermite engine's nodes are the computed eigenvalues; the exact path's
are i*pi*k, one per distinct snapped cluster, and they annihilate A only
when A is diagonalizable with that spectrum.  The factors are taken from
A - (tr A / d) I so that a large common shift adds no rounding to them.

Accuracy budget: the Pade engine is trusted to ~1e-9 relative only up to
Frobenius norm ~1e3; above that (large integer multiples of pi-scaled
inputs, norms up to ~3e4) route through EXACT_PI_SNAP or SPECTRAL_HERMITE.
``AUTO`` at d = 1 and 3 takes the first engine whose nodes pass the test:
the exact path, then the Hermite engine, then Pade, which runs only when
the eigenvalues fail (near-defective spectra whose close eigenvalues were
clustered together or computed too inaccurately).  At d = 2 AUTO needs no eigen-decomposition at all:
with mu = tr A / 2, B = A - mu I and s^2 = -det B,
exp(A) = e^mu (cosh s I + sinh(s)/s B) (Higham 2008, ch. 10), or the exact
path when mu +/- s snap and pass the same test in scalars; it never runs
Pade.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CongruenceViolationError,
    IllConditionedError,
    SnapUnavailableError,
)
from .numkernel import (
    SNAP_TOL,
    Spectrum,
    _snap_ints,
    as_matrix,
    combine_affine,
    eigen_decompose,
    spectrum_congruence_free,
)

PADE_THETA = 5.4
CONGRUENCE_TOL = 1e-8
# A path's nodes z_i are accepted when ||prod (A - z_i I)||_F is at most
# this times max(1, ||A - (tr A / d) I||_F)^(number of factors).
ANNIHILATION_TOL = 1e-13
# Below this |s|, sinh(s)/s is summed from its Taylor series; the first
# omitted term, s^8/9!, is then below 3e-22.  Three nodes this close to
# each other take their second divided difference from its series too.
_SINHC_SERIES_BELOW = 1e-2


class ExpMethod(enum.Enum):
    SPECTRAL_HERMITE = "spectral-hermite"
    PADE_SQUARING = "pade-squaring"
    EXACT_PI_SNAP = "exact-pi-snap"
    AUTO = "auto"


_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)


def _expm_pade(a: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(a, 1)) if a.size else 0.0
    if not math.isfinite(norm):
        return np.full(a.shape, complex(math.nan, math.nan))
    squarings = max(0, math.ceil(math.log2(norm / PADE_THETA))) if norm > PADE_THETA else 0
    x = a / (2.0 ** squarings)
    d = a.shape[0]
    ident = np.eye(d, dtype=complex)
    b = _PADE13
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
             + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident)
    v = (x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
         + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(squarings):
        r = r @ r
    return r


def _confluent_divided_differences(nodes, cluster_ids, derivs):
    """Newton coefficients for Hermite interpolation data.

    ``derivs[c][r]`` must hold f^(r)(x_c) / r! for cluster c.  Equal nodes
    are adjacent in ``nodes``.
    """
    n = len(nodes)
    table = [[0j] * n for _ in range(n)]
    for i in range(n):
        table[i][i] = derivs[cluster_ids[i]][0]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            if cluster_ids[i] == cluster_ids[j]:
                table[i][j] = derivs[cluster_ids[i]][span]
            else:
                table[i][j] = (table[i + 1][j] - table[i][j - 1]) / (nodes[j] - nodes[i])
    return [table[0][k] for k in range(n)]


def _sinhc(s: complex) -> complex:
    """sinh(s) / s, continuous through s = 0."""
    if abs(s) < _SINHC_SERIES_BELOW:
        z = s * s
        return 1 + z / 6 * (1 + z / 20 * (1 + z / 42))
    return np.sinh(s) / s


def _cosh_sinhc(mu: complex, s: complex) -> tuple[complex, complex]:
    """(e^mu cosh s, e^mu sinh(s)/s), even in s.

    For |Re s| > 1 they are evaluated as e^(mu+s) (1 +/- e^-2s) / 2 (divided
    by s for the second), with Re s > 0: e^mu and cosh s can under- and
    overflow where the products do not.
    """
    if s.real < 0:
        s = -s
    if s.real > 1:
        w = np.exp(-2 * s)
        e = np.exp(mu + s) / 2
        return e * (1 + w), e * (1 - w) / s
    e = np.exp(mu)
    return e * np.cosh(s), e * _sinhc(s)


def _exp_divided_differences(nodes) -> list[complex]:
    """[z_0], [z_0, z_1], [z_0, z_1, z_2] of e^x, for up to three nodes."""
    coeffs = [np.exp(nodes[0])]
    if len(nodes) > 1:
        x, y = nodes[:2]
        coeffs.append(_cosh_sinhc((x + y) / 2, (y - x) / 2)[1])
    if len(nodes) > 2:
        coeffs.append(_exp_second_difference(*nodes))
    return coeffs


def _exp_second_difference(x: complex, y: complex, z: complex) -> complex:
    """[x, y, z] of e^x.

    Labelled so that x and z are the farthest pair, with Re x >= Re z, it is
    ([y, z] - [x, y]) / (z - x), which cancels little.  Both first
    differences are taken relative to e^x, as e^h1 sinh(h1)/h1 and
    e^(2 h1 + h2) sinh(h2)/h2 with h1 = (y - x)/2 and h2 = (z - y)/2, so
    the rounding of a large common part of the nodes is not amplified by
    the cancellation.  When every pair is closer than
    ``_SINHC_SERIES_BELOW`` it is the Taylor series about the mean c: with
    u_i the nodes minus c, e2 = u1 u2 + u1 u3 + u2 u3 and e3 = u1 u2 u3,
    the complete symmetric polynomials are h2 = -e2, h3 = e3, h4 = e2^2,
    h5 = -2 e2 e3, h6 = e3^2 - e2^3, and [x, y, z] = e^c sum_k h_k / (k + 2)!;
    the omitted h7 / 9! is below 1e-19 relative.
    """
    dxy, dyz, dxz = abs(y - x), abs(z - y), abs(z - x)
    if max(dxy, dyz, dxz) < _SINHC_SERIES_BELOW:
        c = (x + y + z) / 3
        u, v, w = x - c, y - c, z - c
        e2 = u * v + u * w + v * w
        e3 = u * v * w
        series = (1 / 2 - e2 / 24 + e3 / 120 + e2 * e2 / 720 - e2 * e3 / 2520
                  + (e3 * e3 - e2 * e2 * e2) / 40320)
        return np.exp(c) * series
    if dxy >= max(dyz, dxz):
        y, z = z, y
    elif dyz > dxz:
        x, y = y, x
    if z.real > x.real:
        x, z = z, x
    h1, h2 = (y - x) / 2, (z - y) / 2
    first = _cosh_sinhc(h1, h1)[1]
    second = _cosh_sinhc(2 * h1 + h2, h2)[1]
    return np.exp(x) * (second - first) / (z - x)


def _annihilation_bound(shifted_norm: float, factors: int) -> float:
    # an np.float64 power overflows to inf instead of raising
    return ANNIHILATION_TOL * np.float64(max(1.0, shifted_norm)) ** factors


def _node_factors(a: np.ndarray, nodes) -> tuple[list[np.ndarray], float]:
    """A - z I for each node z, and the bound their product must meet.

    The factors are taken from A - (tr A / d) I, so a large common shift
    adds no rounding to them.
    """
    ident = np.eye(a.shape[0], dtype=complex)
    mu = complex(a.trace()) / a.shape[0]
    shifted = a - mu * ident
    bound = _annihilation_bound(np.linalg.norm(shifted), len(nodes))
    return [shifted - (z - mu) * ident for z in nodes], bound


def _hermite(a: np.ndarray, spectrum: Spectrum) -> tuple[np.ndarray, float, float]:
    """(p(A), residual, bound): p interpolates e^x at the eigenvalues z_i of
    ``spectrum`` and residual is ||prod_i (A - z_i I)||_F, the Newton basis
    times its last factor."""
    nodes = spectrum.eigenvalues
    factors, bound = _node_factors(a, nodes)
    coeffs = _exp_divided_differences(nodes)
    result = coeffs[0] * np.eye(a.shape[0], dtype=complex)
    basis = factors[0]
    for coeff, factor in zip(coeffs[1:], factors[1:]):
        result = result + coeff * basis
        basis = basis @ factor
    return result, float(np.linalg.norm(basis)), bound


def _cluster_snaps(spectrum: Spectrum) -> list[int]:
    ks = []
    i = 0
    for mult in spectrum.multiplicities:
        ks.append(spectrum.snap[i])
        i += mult
    return ks


def _snap_annihilates(a: np.ndarray, spectrum: Spectrum) -> bool:
    """Whether i*pi*k, one per distinct snapped cluster, annihilate ``a``."""
    factors, bound = _node_factors(a, [1j * math.pi * k for k in _cluster_snaps(spectrum)])
    return bool(np.linalg.norm(functools.reduce(np.matmul, factors)) <= bound)


def _pi_snap_projectors(a: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    d = spectrum.dim
    ks = _cluster_snaps(spectrum)
    signs = [(-1) ** (k & 1) for k in ks]
    if all(s == signs[0] for s in signs):
        # sum of spectral projectors is the identity, so a uniform parity
        # collapses the exponential to +/-I with exact 0/1 entries
        return signs[0] * np.eye(d, dtype=complex)
    lams = [1j * math.pi * k for k in ks]
    ident = np.eye(d, dtype=complex)
    result = np.zeros((d, d), dtype=complex)
    for i, (ki, li) in enumerate(zip(ks, lams)):
        proj = ident
        for j, lj in enumerate(lams):
            if j != i:
                proj = proj @ (a - lj * ident) / (li - lj)
        result = result + signs[i] * proj
    return result


def _expm_2x2(a: np.ndarray) -> np.ndarray:
    """AUTO's exponential of a 2x2 matrix, with no eigen-decomposition.

    With mu = tr A / 2, B = A - mu I and s = sqrt(-det B), B^2 = s^2 I, so
    the eigenvalues are mu +/- s and exp(A) = e^mu (cosh s I + sinh(s)/s B);
    for a nilpotent B that is e^mu (I + B).

    When both eigenvalues snap to i*pi*Z the exact path runs instead, if
    its nodes annihilate A.  Their product is omega = alpha I + beta B and,
    as tr B = 0, ||omega||_F^2 = 2 |alpha|^2 + |beta|^2 ||B||_F^2: one node
    z (a double snapped eigenvalue) gives alpha = mu - z, beta = 1; two give
    alpha = s^2 + (mu - z1)(mu - z2), beta = 2 mu - z1 - z2.
    """
    (a00, a01), (a10, a11) = a.tolist()
    mu = (a00 + a11) / 2
    b00 = (a00 - a11) / 2
    s2 = b00 * b00 + a01 * a10
    s = complex(np.sqrt(s2))
    lams = (mu + s, mu - s)
    ks = _snap_ints(lams, SNAP_TOL)
    if ks is not None:
        z1, z2 = (1j * math.pi * k for k in ks)
        if ks[0] == ks[1]:
            alpha, beta = mu - z1, 1.0
            spectrum = Spectrum((mu, mu), 1, (2,), snap=ks)
        else:
            alpha, beta = s2 + (mu - z1) * (mu - z2), 2 * mu - z1 - z2
            spectrum = Spectrum(lams, 2, (1, 1), snap=ks)
        b_norm = math.hypot(abs(b00), abs(b00), abs(a01), abs(a10))
        omega_norm = math.hypot(abs(alpha), abs(alpha), abs(beta) * b_norm)
        if omega_norm <= _annihilation_bound(b_norm, spectrum.distinct_count):
            return _pi_snap_projectors(a, spectrum)
    c, q = _cosh_sinhc(mu, s)
    return np.array([[c + q * b00, q * a01], [q * a10, c - q * b00]])


def expm(m, method: ExpMethod = ExpMethod.AUTO) -> np.ndarray:
    """Matrix exponential of a d <= 3 complex matrix.

    Each path is taken only when its nodes annihilate the matrix (see the
    module docstring).  ``EXACT_PI_SNAP`` raises SnapUnavailableError when
    the spectrum does not snap to i*pi*Z or the snapped values fail that
    test (a defective matrix, or eigenvalues off the lattice);
    ``SPECTRAL_HERMITE`` raises IllConditionedError when the computed
    eigenvalues fail it (close eigenvalues of a near-defective matrix,
    clustered together or computed too inaccurately).  AUTO never raises: at d = 2 it is the closed
    form of ``_expm_2x2`` (or its exact snap) and never runs Pade; at d = 1
    and 3 it tries the exact path, then Hermite, then Pade.
    """
    a = as_matrix(m)
    if method == ExpMethod.PADE_SQUARING:
        return _expm_pade(a)
    if method == ExpMethod.AUTO and a.shape[0] == 2:
        return _expm_2x2(a)
    spectrum = eigen_decompose(a)
    if method != ExpMethod.SPECTRAL_HERMITE:
        if spectrum.snap is not None and _snap_annihilates(a, spectrum):
            return _pi_snap_projectors(a, spectrum)
        if method == ExpMethod.EXACT_PI_SNAP:
            raise SnapUnavailableError(
                "no i*pi*k annihilate the matrix: its spectrum is off the lattice, "
                "or it is defective"
            )
    result, residual, bound = _hermite(a, spectrum)
    if residual <= bound:
        return result
    if method == ExpMethod.SPECTRAL_HERMITE:
        raise IllConditionedError(
            f"the eigenvalues do not annihilate the matrix: residual {residual:.2e} "
            f"exceeds {bound:.2e}"
        )
    return _expm_pade(a)


def expm_affine(f, g, t: complex, method: ExpMethod = ExpMethod.AUTO) -> np.ndarray:
    """exp(t*F + G)."""
    return expm(combine_affine(f, g, t), method)


@dataclass(frozen=True)
class LogPoly:
    """Polynomial p of degree < d with p(exp(M)) = M; ascending coefficients."""

    coefficients: tuple[complex, ...]

    def __call__(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def apply(self, m) -> np.ndarray:
        a = as_matrix(m)
        d = a.shape[0]
        ident = np.eye(d, dtype=complex)
        acc = np.zeros((d, d), dtype=complex)
        for c in reversed(self.coefficients):
            acc = acc @ a + c * ident
        return acc


def _poly_mul_linear(p, z):
    # ascending-coefficient p(x) * (x - z)
    out = [0j] * (len(p) + 1)
    for i, c in enumerate(p):
        out[i + 1] += c
        out[i] -= z * c
    return out


def _newton_to_power(coeffs, nodes):
    # Horner over the Newton basis: sum_k c_k prod_{i<k} (x - z_i)
    power = [coeffs[-1]]
    for k in range(len(coeffs) - 2, -1, -1):
        power = _poly_mul_linear(power, nodes[k])
        power[0] += coeffs[k]
    return tuple(power)


def log_poly_recover(m) -> LogPoly:
    """Recover M as a polynomial in exp(M).

    Requires a 2*i*pi-congruence-free spectrum, which makes the exponentials
    of distinct eigenvalues distinct and the Hermite interpolation problem
    p(e^l) = l, p'(e^l) = e^-l (per extra multiplicity) well posed.
    """
    a = as_matrix(m)
    spectrum = eigen_decompose(a)
    distinct_vals = [lam for lam, _ in spectrum.distinct()]
    if not spectrum_congruence_free(distinct_vals, CONGRUENCE_TOL):
        raise CongruenceViolationError(
            "two eigenvalues differ by a nonzero multiple of 2*i*pi"
        )
    nodes, cluster_ids, derivs = [], [], []
    for cid, (lam, mult) in enumerate(spectrum.distinct()):
        x = np.exp(lam)
        # p(x)=lam, p'(x)=1/x, p''(x)=-1/x^2; entries are f^(r)/r!
        dk = [lam, 1.0 / x, -1.0 / (2 * x * x)][:mult]
        derivs.append(dk)
        nodes.extend([x] * mult)
        cluster_ids.extend([cid] * mult)
    coeffs = _confluent_divided_differences(nodes, cluster_ids, derivs)
    return LogPoly(_newton_to_power(coeffs, nodes))
