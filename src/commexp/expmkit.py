"""The matrix exponential ``expm`` of a d <= 3 complex matrix: one cascade
of paths, each taken only when its nodes annihilate the matrix.

* The exact snap covers diagonalizable matrices whose spectrum snaps to
  i*pi*Z: there e^(i*pi*k) = (-1)^k exactly, and the exponential is
  sum_i (-1)^k_i P_i over the spectral projectors P_i, one per distinct
  snapped integer k_i.  When every parity agrees that sum is a bare +/-I,
  exact in every entry.  When parities mix, the Lagrange projectors are
  computed in floating point (pi-scaled entries over pi-scaled node
  differences), so an entry that should be an integer can round off it:
  ``expm(1j*pi*[[-4, -15], [0, 1]])`` gives 5.999999999999999 for the
  exact 6.  ROADMAP item 9 plans rational projectors for pi-scaled input
  with integral entries.
* Hermite: the Newton form of the polynomial p of degree < d that
  interpolates e^x at the computed eigenvalues z_1..z_d (repeated ones
  included), applied to the matrix.  The divided differences are computed
  stably (McCurdy, Ng & Parlett 1984): [x, y] = e^m sinh(h) / h with
  m = (x + y) / 2 and h = (y - x) / 2, for any two nodes, equal ones
  included; [x, y, z] is the quotient over the farthest pair, or the
  Taylor series about the mean when all three nodes are close.
* Pade: diagonal degree-13 rational approximation with power-of-two
  scaling so the scaled 1-norm stays below ``PADE_THETA``.

At d = 1 and 3 ``expm`` takes the exact snap, then Hermite, then Pade,
which runs only when the eigenvalues fail the test (near-defective spectra
whose close eigenvalues were clustered together or computed too
inaccurately).  The paths stay private referees of each other: the tests
call ``_pi_snap_projectors``, ``_hermite`` and ``_expm_pade`` directly.

One test decides every path, and no path reads an eigenvector: its nodes
z_i must annihilate A,

    ||prod_i (A - z_i I)||_F <= ANNIHILATION_TOL * max(1, ||A - (tr A / d) I||_F)^m

with m the number of factors (``_annihilation_bound``).  For the polynomial
p that interpolates e^x at the z_i, exp(A) - p(A) = g(A) prod_i (A - z_i I),
g being the divided difference of e^x over the z_i and one more argument
(Higham 2008, Functions of Matrices), so the residual measures the error
itself.  Hermite's nodes are the computed eigenvalues; the exact snap's are
i*pi*k, one per distinct snapped integer k, and they annihilate A only when
A is diagonalizable with that spectrum.  The factors are taken from
A - (tr A / d) I so that a large common shift adds no rounding to them.

Accuracy budget: Pade is trusted to ~1e-9 relative only up to Frobenius
norm ~1e3; above that (large integer multiples of pi-scaled inputs, norms
up to ~3e4) the exact snap or Hermite must carry the input.  At d = 2
``expm`` needs no eigen-decomposition at all: with mu = tr A / 2,
B = A - mu I and s^2 = -det B, exp(A) = e^mu (cosh s I + sinh(s)/s B)
(Higham 2008, ch. 10), or the exact snap when mu +/- s snap and pass the
same test in scalars; it never runs Pade.

The d = 2 form is elementwise arithmetic in the entries, so
``expm_2x2_stack`` evaluates it over an (n, 2, 2) stack in one pass: the
snap and its annihilation test are chosen row by row through masks, and
run first; on a stack whose every row passes both the closed form does
not run at all.  ``expm`` at d = 2 is that function on a stack of one, so
the formula has one implementation and a row of any stack equals ``expm``
of that row bit for bit.  A stack of one pays numpy's fixed cost per
call, which outweighs scalar arithmetic, so batch callers such as
``relations.relation_report`` pass whole stacks;
``_expm_2x2_with_eigenvalues`` also hands them the eigenvalues mu +/- s
that the snap test computes, so they need no eigen-decomposition either.

cosh s and sinh(s)/s have one scalar form, ``_cosh_sinhc``, which the
d = 3 divided differences call up to three times per exponential, where a
stack of one would cost more than the whole scalar evaluation, and its
array twin ``_cosh_sinhc_stack`` for the d = 2 stack.  The twin takes the
principal roots s, Re s >= 0, so it needs no fold of s: it evaluates the
e^mu form over every entry and writes the e^(mu+s) form over the entries
with Re s > 1, gathered.

At the stack sizes of a short t-scan (9 rows at t = 1..3) nearly all of
the d = 2 cost is numpy's fixed cost per call.  So each test runs once
over every row and is read through a mask, with as few calls as it can:
the snap distance is |l - i pi k| of the complex eigenvalues, and
hypot(x, x) in the annihilation norms is sqrt(2) |x|.  Branches are
entered only when ``np.count_nonzero`` finds a row that needs them.
Every rewrite of this path keeps the output bytes;
``tests/test_bit_pins`` holds their digests.
"""

from __future__ import annotations

import functools
import math

import numpy as np

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


def _cosh_sinhc(mu: complex, s: complex) -> tuple[complex, complex]:
    """(e^mu cosh s, e^mu sinh(s)/s), even in s and continuous through s = 0.

    For |Re s| > 1 they are evaluated as e^(mu+s) (1 +/- e^-2s) / 2 (divided
    by s for the second), with Re s > 0: e^mu and cosh s can under- and
    overflow where the products do not.  Otherwise sinh(s)/s is summed from
    its Taylor series below ``_SINHC_SERIES_BELOW``, where the quotient
    loses digits and is 0/0 at s = 0.
    """
    if s.real < 0:
        s = -s
    if s.real > 1:
        w = np.exp(-2 * s)
        e = np.exp(mu + s) / 2
        return e * (1 + w), e * (1 - w) / s
    e = np.exp(mu)
    if abs(s) < _SINHC_SERIES_BELOW:
        z = s * s
        return e * np.cosh(s), e * (1 + z / 6 * (1 + z / 20 * (1 + z / 42)))
    return e * np.cosh(s), e * (np.sinh(s) / s)


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
    the omitted h7 / 9! is below 1e-19 relative.  It is NaN when the
    modulus of a gap between the nodes is past the float range.
    """
    try:
        dxy, dyz, dxz = abs(y - x), abs(z - y), abs(z - x)
    except OverflowError:
        # abs() raises where a gap's parts are finite and its modulus is
        # not; the caller then sees a non-finite exponential
        return complex(math.nan, math.nan)
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


def _annihilation_bound(shifted_norm, factors):
    """ANNIHILATION_TOL * max(1, ||A - (tr A / d) I||_F)^factors, for a scalar
    or entry by entry over arrays; an np.float64 power overflows to inf
    instead of raising."""
    return ANNIHILATION_TOL * np.maximum(1.0, shifted_norm) ** factors


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


def _snap_annihilates(a: np.ndarray, ks) -> bool:
    """Whether the nodes i*pi*k, one per distinct snapped integer k in
    ``ks``, annihilate ``a``."""
    factors, bound = _node_factors(a, [1j * math.pi * k for k in ks])
    return bool(frobenius(functools.reduce(np.matmul, factors)) <= bound)


def _pi_snap_projectors(a: np.ndarray, ks) -> np.ndarray:
    """sum_i (-1)^k_i P_i over the Lagrange projectors P_i at the nodes
    i*pi*k_i, for distinct integers ``ks`` that annihilate ``a``."""
    d = a.shape[0]
    signs = [(-1) ** (k & 1) for k in ks]
    if all(s == signs[0] for s in signs):
        # sum of spectral projectors is the identity, so a uniform parity
        # collapses the exponential to +/-I with exact 0/1 entries
        return signs[0] * np.eye(d, dtype=complex)
    lams = [1j * math.pi * k for k in ks]
    ident = np.eye(d, dtype=complex)
    result = np.zeros((d, d), dtype=complex)
    for i, li in enumerate(lams):
        proj = ident
        for j, lj in enumerate(lams):
            if j != i:
                proj = proj @ (a - lj * ident) / (li - lj)
        result = result + signs[i] * proj
    return result


def _cosh_sinhc_stack(mu: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Array twin of ``_cosh_sinhc``, entry by entry, for s with Re s >= 0
    (the principal roots that ``_expm_2x2_with_eigenvalues`` passes): the
    e^mu form over every entry, its series only on the entries below
    ``_SINHC_SERIES_BELOW``, then the e^(mu+s) form on the entries with
    Re s > 1, gathered, written over them.  The e^mu form of such an entry
    may overflow before it is overwritten."""
    e = np.exp(mu)
    q = np.sinh(s) / s
    series = np.abs(s) < _SINHC_SERIES_BELOW
    if np.count_nonzero(series):
        near = s[series]
        z = near * near
        q[series] = 1 + z / 6 * (1 + z / 20 * (1 + z / 42))
    c, q = e * np.cosh(s), e * q
    far = s.real > 1
    if np.count_nonzero(far):
        s, mu = s[far], mu[far]
        w = np.exp(-2 * s)
        e = np.exp(mu + s) / 2
        c[far] = e * (1 + w)
        q[far] = e * (1 - w) / s
    return c, q


_SQRT2 = math.sqrt(2.0)

# (-1)^k I for even and odd k: I, and the float -1.0 times I, whose product
# rounds the off-diagonal zeros to -0.0 + 0j
_SIGNED_EYES = np.stack([np.eye(2, dtype=complex), -1.0 * np.eye(2, dtype=complex)])


def _pi_snap_rows(a: np.ndarray, exact: np.ndarray, k: np.ndarray,
                  out: np.ndarray) -> np.ndarray:
    """``out`` with each row of the (n, 2, 2) stack ``a`` where ``exact``
    holds replaced by its exact exponential.  Those rows have the eigenvalues
    i*pi*k[0] and i*pi*k[1], and their nodes annihilate them: the exponential
    is (-1)^k I, exact, when the parities agree, else the spectral projectors
    of ``_pi_snap_projectors``.  One ``np.where`` over every row selects the
    signed identities: at a hundred rows, a fancy index to gather and
    scatter the exact rows costs more than the whole selection."""
    half = k * 0.5
    odd = np.rint(half) != half  # k's parity; every float past 2^53 is even
    out = np.where(exact[:, None, None], _SIGNED_EYES.take(odd[0].astype(np.intp), axis=0), out)
    for i in (exact & (odd[0] != odd[1])).nonzero()[0]:
        out[i] = _pi_snap_projectors(a[i], (int(k[0, i]), int(k[1, i])))
    return out


@np.errstate(all="ignore")
def expm_2x2_stack(a: np.ndarray) -> np.ndarray:
    """The exponential of each matrix of an (n, 2, 2) complex stack, with no
    eigen-decomposition.  Row i is ``expm(a[i])`` bit for bit: ``expm`` at
    d = 2 is this function on a stack of one.  The formula is in
    ``_expm_2x2_with_eigenvalues``."""
    return _expm_2x2_with_eigenvalues(a)[0]


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

    The snap test and the annihilation test each run first, once over every
    row, and ``_pi_snap_rows`` puts the exact exponential on the rows that
    pass both.  When every row passes (most dim2case1 stacks) it writes the
    whole output and the closed form does not run.  Otherwise the closed
    form runs on every row, the exact ones too, and is overwritten on them.
    s is the principal root, Re s >= 0, so ``_cosh_sinhc_stack`` takes it
    unfolded: the e^mu form of cosh s and sinh(s)/s runs on every row, and
    the e^(mu+s) form is written over the rows with Re s > 1.  A row whose
    kept value overflows reads inf or NaN and leaves the other rows alone;
    callers keep the numeric range of the ``numkernel`` module docstring,
    each under one ``np.errstate`` that turns warnings off.
    """
    a = np.asarray(a, dtype=complex)
    a00, a01, a10, a11 = a[:, 0, 0], a[:, 0, 1], a[:, 1, 0], a[:, 1, 1]
    mu = (a00 + a11) / 2
    b00 = (a00 - a11) / 2
    s2 = b00 * b00 + a01 * a10
    s = np.sqrt(s2)
    lams = np.empty((2, len(a)), dtype=complex)
    np.add(mu, s, out=lams[0])
    np.subtract(mu, s, out=lams[1])

    # numkernel's snap of both eigenvalues: l ~ i*pi*k within
    # SNAP_TOL * max(1, |l|), l finite; an infinite l passes the distance
    # test (|inf - z| <= inf), so isfinite is its only guard
    k = np.rint(lams.imag / math.pi)
    z = 1j * math.pi * k
    on_lattice = np.abs(lams - z) <= SNAP_TOL * np.maximum(1.0, np.abs(lams))
    on_lattice &= np.isfinite(lams)
    snapped = on_lattice[0] & on_lattice[1]
    n_exact = 0
    if np.count_nonzero(snapped):
        double = k[0] == k[1]
        mz = mu - z
        alpha = np.where(double, mz[0], s2 + mz[0] * mz[1])
        beta = np.where(double, 1.0, 2 * mu - z[0] - z[1])
        # sqrt(2) |x| for hypot(x, x): one ufunc call fewer each
        b_norm = np.hypot(_SQRT2 * np.abs(b00), np.hypot(np.abs(a01), np.abs(a10)))
        omega_norm = np.hypot(_SQRT2 * np.abs(alpha), np.abs(beta) * b_norm)
        exact = snapped & (omega_norm <= _annihilation_bound(b_norm, np.where(double, 1, 2)))
        n_exact = np.count_nonzero(exact)
    out = np.empty_like(a)
    if n_exact < len(a):  # else _pi_snap_rows writes every row
        c, q = _cosh_sinhc_stack(mu, s)
        qb = q * b00
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = c + qb, q * a01, q * a10, c - qb
    if n_exact:
        out = _pi_snap_rows(a, exact, k, out)
    return out, lams


@np.errstate(all="ignore")
def expm(m) -> np.ndarray:
    """Matrix exponential of a d <= 3 complex matrix.

    At d = 2 it is ``expm_2x2_stack`` on a stack of one: the closed form, or
    its exact snap.  At d = 1 and 3 it takes the first path whose nodes
    annihilate the matrix (see the module docstring): the exact snap, then
    Hermite, then Pade.  Past the float range it keeps the numeric range of
    the ``numkernel`` module docstring at every d: an exponential that
    overflows reads inf or NaN in its entries, with no warning.
    """
    a = as_matrix(m)
    if a.shape[0] == 2:
        return _expm_2x2_with_eigenvalues(a[None])[0][0]
    spectrum = eigen_decompose(a)
    if spectrum.snap is not None:
        ks = list(dict.fromkeys(spectrum.snap))
        if _snap_annihilates(a, ks):
            return _pi_snap_projectors(a, ks)
    result, residual, bound = _hermite(a, spectrum)
    if residual <= bound:
        return result
    return _expm_pade(a)


def expm_affine(f, g, t: complex) -> np.ndarray:
    """exp(t*F + G), of t F + G as ``numkernel.affine_rows`` rounds it.

    No module of the package calls it: its one caller is the benchmark's
    scipy cross-check (``perfbench/workloads.py``), so it stays exported
    until a benchmark-only change stops that call (ROADMAP item 2)."""
    return expm(combine_affine(f, g, t))
