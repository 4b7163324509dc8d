"""Matrix exponentials for d <= 3, three ways.

Two independent floating engines act as each other's oracle:

* ``SPECTRAL_HERMITE``: evaluate the unique polynomial of degree < d that
  matches e^lambda on the spectrum (with derivative conditions at repeated
  eigenvalues, i.e. the primary-matrix-function definition) and apply it to
  the matrix.
* ``PADE_SQUARING``: diagonal degree-13 rational approximation with
  power-of-two scaling so the scaled 1-norm stays below ``PADE_THETA``.

``EXACT_PI_SNAP`` covers diagonalizable matrices whose spectrum snaps to
i*pi*Z: there e^(i*pi*k) = (-1)^k exactly, so spectral projectors (or, when
every parity agrees, a bare +/-I) give exponentials with no floating error
in the entries.

Accuracy budget: the Pade engine is trusted to ~1e-9 relative only up to
Frobenius norm ~1e3; above that (large integer multiples of pi-scaled
inputs, norms up to ~3e4) route through EXACT_PI_SNAP or SPECTRAL_HERMITE.
``AUTO`` does exactly that, falling back to Pade only when the eigenvector
basis is ill conditioned.

Whether the eigenbasis is usable (diagonalizable, condition <= COND_LIMIT)
is decided in one place, ``_eigenbasis``, for AUTO and both spectral
engines; the exponential formulas never read eigenvectors.  A simple
spectrum is certified without an SVD: its Frobenius covariants
P_i = prod_{j != i} (A - l_j I) / (l_i - l_j) bound the condition of the
unit-column eigenbasis by sqrt(d * sum ||P_i||_F^2), and the same products
show whether the computed eigenvalues are accurate enough for the SVD
kernels to find those eigenvectors.  If they are, and the bound (widened
for that error) is below COND_LIMIT / 100, that settles it.  Otherwise (a
larger bound, inaccurate eigenvalues, or a repeated eigenvalue where the
exact path needs a full eigenbasis) the kernel basis of the spectrum is
computed and its SVD condition referees, so decisions near the threshold,
and the error messages, are those of the SVD test.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CongruenceViolationError,
    IllConditionedError,
    SnapUnavailableError,
)
from .numkernel import (
    KERNEL_FLOOR,
    KERNEL_TOL,
    Spectrum,
    as_matrix,
    combine_affine,
    eigen_decompose,
    eigenvector_basis,
    spectrum_congruence_free,
)

PADE_THETA = 5.4
COND_LIMIT = 1e8
CONGRUENCE_TOL = 1e-8
# AUTO takes the exact path only when eigenvalues sit on i*pi*Z to near
# machine precision; a merely tolerance-level snap (1e-8) can hide a
# near-Jordan structure whose exponential is nowhere near +/-I.
SNAP_SHARPNESS = 1e-11
# The covariant bound certifies an eigenbasis only this far below
# COND_LIMIT, so that rounding in the bound or in the SVD cannot flip a
# decision; bounds above it go to the SVD.
_CERTIFY_LIMIT = COND_LIMIT / 100
_EPS = float(np.finfo(float).eps)


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


def _newton_apply(coeffs, nodes, a: np.ndarray) -> np.ndarray:
    d = a.shape[0]
    ident = np.eye(d, dtype=complex)
    result = coeffs[0] * ident
    basis = ident
    for k in range(1, len(coeffs)):
        basis = basis @ (a - nodes[k - 1] * ident)
        result = result + coeffs[k] * basis
    return result


def _hermite_data_exp(spectrum: Spectrum):
    nodes, cluster_ids, derivs = [], [], []
    for cid, (lam, mult) in enumerate(spectrum.distinct()):
        e = np.exp(lam)
        derivs.append([e / math.factorial(r) for r in range(mult)])
        nodes.extend([lam] * mult)
        cluster_ids.extend([cid] * mult)
    return nodes, cluster_ids, derivs


def _certified_condition(a: np.ndarray, eigenvalues) -> float:
    """Upper bound on the SVD condition ``_eigenbasis`` would find for the
    kernel basis of ``a``, whose computed ``eigenvalues`` are distinct; inf
    when the bound cannot be made.

    The Frobenius covariant P_i = N_i / D_i, with N_i = prod_{j!=i} B_j,
    B_j = A - l_j I and D_i = prod_{j!=i} (l_i - l_j), equals v_i w_i^* for
    a unit eigenvector v_i and row w_i^* of V^-1, so ||w_i|| = ||P_i||_F
    and, as ||V|| <= sqrt(d), cond(V) <= sqrt(d * sum_i ||P_i||_F^2).

    The l_i are only approximate, so each must also give the kernel
    extraction in ``numkernel`` one good column.  R = B_i N_i is the same
    for every i; the smallest singular value of B_i is at most
    rho_i = sqrt(d) ||R||_F / ||N_i||_F (plus rounding), which must sit
    below the kernel cutoff's absolute floor, and by Weyl's product
    inequality the next one is at least lo_i = |D_i| / ||B_i||_F^(d-2),
    which must clear the largest cutoff.  The column found is then within
    sin(theta) <= cond * rho_i / (lo_i - rho_i) of v_i, which changes the
    condition by a factor of at most (1 + delta) / (1 - delta),
    delta = 2 sqrt(d) cond max_i sin(theta_i).
    """
    d = a.shape[0]
    if d == 1:
        return 1.0
    shifted = a - np.array(eigenvalues)[:, None, None] * np.eye(d)
    nums = shifted[::-1] if d == 2 else shifted[[1, 0, 0]] @ shifted[[2, 2, 1]]
    # every Frobenius norm in one pass: N_i, B_i, R, A
    stack = np.concatenate((nums, shifted, [shifted[0] @ nums[0], a])).reshape(2 * d + 2, -1)
    norms = np.sqrt((abs(stack) ** 2).sum(axis=1)).tolist()
    num_norms, b_norms = norms[:d], norms[d:2 * d]
    floor = KERNEL_FLOOR * max(1.0, norms[-1])
    # rounding in the computed R, then in the SVD of B_i
    resid_norm = norms[2 * d] + 2 * d * _EPS * math.prod(b_norms)
    total = 0.0
    drift = 0.0
    for i, (num_norm, b_norm) in enumerate(zip(num_norms, b_norms)):
        den = math.prod(abs(eigenvalues[i] - lam) for j, lam in enumerate(eigenvalues) if j != i)
        if num_norm == 0.0 or b_norm == 0.0 or den == 0.0:
            return math.inf
        total += (num_norm / den) ** 2
        rho = math.sqrt(d) * resid_norm / num_norm + d * _EPS * b_norm
        lo = den / b_norm ** (d - 2)
        if not (rho <= floor / 4 and lo >= 4 * max(KERNEL_TOL * b_norm, floor)):
            return math.inf
        drift = max(drift, rho / (lo - rho))
    cond = math.sqrt(d * total)
    delta = 2 * math.sqrt(d) * cond * cond * drift
    return cond * (1 + delta) / (1 - delta) if delta <= 0.1 else math.inf


def _eigenbasis(a: np.ndarray, spectrum: Spectrum) -> tuple[bool, float]:
    """(diagonalizable, condition bound) of the eigenbasis of ``a``.

    The condition is inf for a defective matrix.  A certified simple
    spectrum returns its covariant bound; otherwise the kernel basis that
    ``eigen_decompose`` would return is computed and its SVD condition is
    returned.
    """
    if spectrum.distinct_count == spectrum.dim:
        bound = _certified_condition(a, spectrum.eigenvalues)
        if bound < _CERTIFY_LIMIT:
            return True, bound
    vecs = spectrum.eigenvectors
    if vecs is None:
        vecs = eigenvector_basis(a, spectrum)
    if vecs.shape[1] != spectrum.dim:
        return False, math.inf
    sv = np.linalg.svd(vecs, compute_uv=False)
    return True, math.inf if sv[-1] == 0 else float(sv[0] / sv[-1])


def _snap_sharpness(spectrum: Spectrum) -> float:
    if spectrum.snap is None:
        return math.inf
    worst = 0.0
    for lam, k in zip(spectrum.eigenvalues, spectrum.snap):
        worst = max(worst, abs(lam - 1j * math.pi * k) / max(1.0, abs(lam)))
    return worst


def _hermite(a: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    nodes, cluster_ids, derivs = _hermite_data_exp(spectrum)
    coeffs = _confluent_divided_differences(nodes, cluster_ids, derivs)
    return _newton_apply(coeffs, nodes, a)


def _expm_spectral(a: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    if spectrum.distinct_count == spectrum.dim:
        _, cond = _eigenbasis(a, spectrum)
        if cond > COND_LIMIT:
            raise IllConditionedError(
                f"eigenvector basis condition {cond:.2e} exceeds {COND_LIMIT:.0e}"
            )
    return _hermite(a, spectrum)


def _pi_snap_projectors(a: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    d = spectrum.dim
    ks = []
    i = 0
    for mult in spectrum.multiplicities:
        ks.append(spectrum.snap[i])
        i += mult
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


def _expm_pi_snap(a: np.ndarray, spectrum: Spectrum) -> np.ndarray:
    if spectrum.snap is None:
        raise SnapUnavailableError("spectrum is not an integer multiple of i*pi")
    diagonalizable, cond = _eigenbasis(a, spectrum)
    if not diagonalizable:
        raise SnapUnavailableError("matrix is defective; exact path needs a full eigenbasis")
    if cond > COND_LIMIT:
        raise SnapUnavailableError("eigenbasis too ill conditioned for the exact path")
    return _pi_snap_projectors(a, spectrum)


def expm(m, method: ExpMethod = ExpMethod.AUTO) -> np.ndarray:
    """Matrix exponential of a d <= 3 complex matrix.

    Raises IllConditionedError (spectral path) or SnapUnavailableError
    (exact path) when the requested engine cannot honor its contract; AUTO
    never raises, it degrades from exact to spectral to Pade.
    """
    a = as_matrix(m)
    if method == ExpMethod.PADE_SQUARING:
        return _expm_pade(a)
    spectrum = eigen_decompose(a, want_vectors=False)
    if method == ExpMethod.EXACT_PI_SNAP:
        return _expm_pi_snap(a, spectrum)
    if method == ExpMethod.SPECTRAL_HERMITE:
        return _expm_spectral(a, spectrum)
    cond = None
    if spectrum.snap is not None and _snap_sharpness(spectrum) <= SNAP_SHARPNESS:
        _, cond = _eigenbasis(a, spectrum)
        if cond <= COND_LIMIT:
            return _pi_snap_projectors(a, spectrum)
    if spectrum.distinct_count == spectrum.dim:
        if cond is None:
            _, cond = _eigenbasis(a, spectrum)
        if cond > COND_LIMIT:
            return _expm_pade(a)
    return _hermite(a, spectrum)


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
    spectrum = eigen_decompose(a, want_vectors=False)
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
