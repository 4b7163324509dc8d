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
i*pi*Z: there e^(i*pi*k) = (-1)^k exactly, and the exponential is
sum_i (-1)^k_i P_i over the spectral projectors P_i.  When every parity
agrees that sum is a bare +/-I, exact in every entry.  When parities mix,
the Lagrange projectors are computed in floating point (pi-scaled entries
over pi-scaled node differences), so an entry that should be an integer can
round off it: ``expm(1j*pi*[[-4, -15], [0, 1]], EXACT_PI_SNAP)`` gives
5.999999999999999 for the exact 6.  ROADMAP item 4 plans rational
projectors for pi-scaled input with integral entries.

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

The d = 2 form is elementwise arithmetic in the entries, so
``expm_2x2_stack`` evaluates it over an (n, 2, 2) stack in one pass: the
branches of cosh s and sinh(s)/s, the snap and its annihilation test are
chosen row by row through masks.  ``expm`` at d = 2 is that function on a
stack of one, so the formula has one implementation and a row of any stack
equals ``expm`` of that row bit for bit.  A stack of one pays numpy's fixed
cost per call (tens of microseconds against a few for scalar arithmetic),
so batch callers such as ``relations.relation_report`` pass whole stacks;
``_expm_2x2_with_eigenvalues`` also hands them the eigenvalues mu +/- s
that the snap test computes, so they need no eigen-decomposition either.
The scalar ``_cosh_sinhc`` stays as it is: the d = 3 divided differences
call it up to three times per exponential, where a stack of one would cost
more than the whole scalar evaluation; ``_cosh_sinhc_stack`` is its array
twin, entry by entry.
"""

from __future__ import annotations

import enum
import functools
import math

import numpy as np

from .errors import IllConditionedError, SnapUnavailableError
from .numkernel import (
    SNAP_TOL,
    Spectrum,
    as_matrix,
    combine_affine,
    eigen_decompose,
    frobenius,
)

PADE_THETA = 5.4
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
    bound = _annihilation_bound(frobenius(shifted), len(nodes))
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
    return result, frobenius(basis), bound


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
    return bool(frobenius(functools.reduce(np.matmul, factors)) <= bound)


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


def _sinhc_stack(s: np.ndarray) -> np.ndarray:
    """Array twin of ``_sinhc``, entry by entry (its quotient is 0/0 at
    s = 0, where the series replaces it)."""
    out = np.sinh(s) / s
    series = np.abs(s) < _SINHC_SERIES_BELOW
    if series.any():
        z = s * s
        out = np.where(series, 1 + z / 6 * (1 + z / 20 * (1 + z / 42)), out)
    return out


def _cosh_sinhc_stack(mu: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of ``_cosh_sinhc``, entry by entry.  Where some entries
    take the e^(mu+s) form, both forms run on every entry, so the unused one
    may overflow."""
    s = np.where(s.real < 0, -s, s)
    e = np.exp(mu)
    c, q = e * np.cosh(s), e * _sinhc_stack(s)
    far = s.real > 1
    if far.any():
        w = np.exp(-2 * s)
        e = np.exp(mu + s) / 2
        c = np.where(far, e * (1 + w), c)
        q = np.where(far, e * (1 - w) / s, q)
    return c, q


def _pi_snap_rows(a: np.ndarray, k1: np.ndarray, k2: np.ndarray) -> np.ndarray:
    """exp of each row of an (n, 2, 2) stack whose eigenvalues are i*pi*k1 and
    i*pi*k2 and whose nodes annihilate it: (-1)^k1 I, exact, when the
    parities agree, else the spectral projectors of ``_pi_snap_projectors``."""
    odd1, odd2 = k1 % 2, k2 % 2
    out = (1 - 2 * odd1)[:, None, None] * np.eye(2, dtype=complex)
    for i in np.flatnonzero(odd1 != odd2):
        ks = (int(k1[i]), int(k2[i]))
        spectrum = Spectrum(tuple(1j * math.pi * k for k in ks), 2, (1, 1), snap=ks)
        out[i] = _pi_snap_projectors(a[i], spectrum)
    return out


def expm_2x2_stack(a: np.ndarray) -> np.ndarray:
    """AUTO's exponential of each matrix of an (n, 2, 2) complex stack, with
    no eigen-decomposition.  Row i is ``expm(a[i])`` bit for bit: AUTO at
    d = 2 is this function on a stack of one.  The formula is in
    ``_expm_2x2_with_eigenvalues``."""
    return _expm_2x2_with_eigenvalues(a)[0]


@np.errstate(all="ignore")
def _expm_2x2_with_eigenvalues(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``expm_2x2_stack(a)`` and the eigenvalues it computes on the way: a
    (2, n) array holding mu + s and mu - s of each row.

    With mu = tr A / 2, B = A - mu I and s = sqrt(-det B), B^2 = s^2 I, so
    the eigenvalues are mu +/- s and exp(A) = e^mu (cosh s I + sinh(s)/s B);
    for a nilpotent B that is e^mu (I + B).

    Rows whose eigenvalues both snap to i*pi*Z take the exact path instead,
    if its nodes annihilate the row.  Their product is omega = alpha I +
    beta B and, as tr B = 0, ||omega||_F^2 = 2 |alpha|^2 + |beta|^2 ||B||_F^2:
    one node z (a double snapped eigenvalue) gives alpha = mu - z, beta = 1;
    two give alpha = s^2 + (mu - z1)(mu - z2), beta = 2 mu - z1 - z2.

    Every branch runs on every row and each row keeps the one it needs, so
    floating-point warnings are off: a row that overflows comes out inf or
    NaN and leaves the others alone.
    """
    a = np.asarray(a, dtype=complex)
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    mu = (a00 + a11) / 2
    b00 = (a00 - a11) / 2
    s2 = b00 * b00 + a01 * a10
    s = np.sqrt(s2)
    c, q = _cosh_sinhc_stack(mu, s)
    qb = q * b00
    out = np.empty_like(a)
    out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = c + qb, q * a01, q * a10, c - qb

    # numkernel's snap of both eigenvalues: l ~ i*pi*k within
    # SNAP_TOL * max(1, |l|), l finite
    lams = np.empty((2, len(a)), dtype=complex)
    np.add(mu, s, out=lams[0])
    np.subtract(mu, s, out=lams[1])
    k = np.round(lams.imag / math.pi)
    on_lattice = (np.hypot(lams.real, lams.imag - math.pi * k)
                  <= SNAP_TOL * np.maximum(1.0, np.abs(lams)))
    snapped = (on_lattice & np.isfinite(lams)).all(axis=0)
    if not snapped.any():
        return out, lams
    rows = snapped.nonzero()[0]
    (k1, k2), mu, b00 = k[:, rows], mu[rows], b00[rows]
    z1, z2 = 1j * math.pi * k1, 1j * math.pi * k2
    double = k1 == k2
    alpha = np.where(double, mu - z1, s2[rows] + (mu - z1) * (mu - z2))
    beta = np.where(double, 1.0, 2 * mu - z1 - z2)
    b_norm = np.hypot(np.hypot(np.abs(b00), np.abs(b00)),
                      np.hypot(np.abs(a01[rows]), np.abs(a10[rows])))
    omega_norm = np.hypot(np.hypot(np.abs(alpha), np.abs(alpha)), np.abs(beta) * b_norm)
    exact = omega_norm <= ANNIHILATION_TOL * np.maximum(1.0, b_norm) ** np.where(double, 1, 2)
    if exact.any():
        rows = rows[exact]
        out[rows] = _pi_snap_rows(a[rows], k1[exact], k2[exact])
    return out, lams


def expm(m, method: ExpMethod = ExpMethod.AUTO) -> np.ndarray:
    """Matrix exponential of a d <= 3 complex matrix.

    Each path is taken only when its nodes annihilate the matrix (see the
    module docstring).  ``EXACT_PI_SNAP`` raises SnapUnavailableError when
    the spectrum does not snap to i*pi*Z or the snapped values fail that
    test (a defective matrix, or eigenvalues off the lattice);
    ``SPECTRAL_HERMITE`` raises IllConditionedError when the computed
    eigenvalues fail it (close eigenvalues of a near-defective matrix,
    clustered together or computed too inaccurately).  AUTO never raises:
    at d = 2 it is ``expm_2x2_stack`` on a stack of one (the closed form or
    its exact snap) and never runs Pade; at d = 1 and 3 it tries the exact
    path, then Hermite, then Pade.
    """
    a = as_matrix(m)
    if method == ExpMethod.PADE_SQUARING:
        return _expm_pade(a)
    if method == ExpMethod.AUTO and a.shape[0] == 2:
        return expm_2x2_stack(a[None])[0]
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
