"""Dense complex linear algebra for d <= 3.

Everything here is closed form: characteristic polynomials from trace /
principal minors / determinant, eigenvalues from the quadratic formula or
Cardano's cubic (applied to M - (tr M / d) I).  No eigenvector is computed
from an eigenvalue here: a defective eigenvalue is only known to ~sqrt(eps),
so ``simtrig`` finds common eigenvectors from the commutator instead.
Matrices whose spectrum sits in i*pi*Z are recognized ("snapped") so that
exponentials can later be taken exactly.

``frobenius`` is the package's one Frobenius-norm implementation: every
norm without ``ord`` or ``axis`` goes through it, or through
``frobenius_2x2``, the same norm of a 2x2 matrix held as four Python
complex numbers.  ``CMat.expanded`` (and so ``as_matrix``) returns the
stored read-only entries, not a copy, when there is no pi factor; a caller
that writes must copy first.

A pair (F, G) becomes arrays here and only here.  ``matrix_pair`` gives the
two matrices and is the one check that their shapes agree.  ``affine_rows``
gives t F and t F + G for a tuple of t as two (n, d, d) arrays, and it holds
the package's one rule for rounding them around a deferred pi factor: F and
G that carry the same scale are combined in their stored entries and
multiplied by pi once, and a pi-scaled F alone gives t F as (t entries) pi.
Neither result is a validated ``CMat``, so a t F that overflows stays an
array of infinities, and the caller sees it as a non-finite residual.
``combine_affine`` is the single-t view.

The numeric range, which every floating-point module of the package
keeps: finite input of any size is read, and a result is refused only
once it passes the float range, ~1.8e308.

* A Frobenius norm, of one matrix or of each matrix of a stack, is finite
  wherever the norm itself is, however far the squares of its entries
  pass the float range.
* Eigenvalues are solved at the scale of the matrix; on finite input whose
  norm is past the float range they may come out infinite or NaN, without
  raising, and ``_cluster`` groups them without raising however far apart
  two roots lie.
* ``expmkit.expm`` and ``simtrig`` run with floating-point warnings off:
  an exponential or a product that overflows reads inf or NaN in its
  entries alone.
* ``relations.relation_report`` turns these into typed errors, at d = 2 and
  3 alike.  An infinite or NaN eigenvalue difference of F, G or F + G
  raises ``SpectrumOverflowError`` naming the matrix.  Past that, a
  residual that is not finite (an exponential, or its norm, passed the
  float range on a finite spectrum) raises ``ResidualOverflowError`` naming
  its relation and t.  So diag(400, 0) against 0, whose e^400 is ~5.2e173,
  is reported, and diag(1e3, 0) raises naming exp-equal.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple

import numpy as np

from .errors import DimensionError
from .frozen import Frozen

# Two eigenvalues belong to one cluster when |li - lj| <= CLUSTER_TOL * max(1, ||M||_F).
CLUSTER_TOL = 1e-8
# An eigenvalue snaps to i*pi*k when |l - i*pi*k| <= SNAP_TOL * max(1, |l|).
SNAP_TOL = 1e-8
# Two roots of a cubic form a near-double pair, polished together, when their
# gap is at most this times their distance to the third root.  Root-by-root
# Newton moves such a pair's mean by ~eps / (gap * distance), which fails the
# annihilation test from gaps of ~1e-5 at unit scale; well above the ratio
# the two polishes agree to the accuracy of the roots.
NEAR_DOUBLE_GAP = 1e-3

MAX_DIM = 3


class CMat(Frozen):
    """Square complex matrix with an optional deferred pi factor.

    ``pi_scaled=True`` means every stored entry is implicitly multiplied by
    pi; storing the integer part keeps file round-trips exact.
    """

    __slots__ = ("entries", "pi_scaled")

    def __init__(self, entries: np.ndarray, pi_scaled: bool = False):
        arr = np.ascontiguousarray(entries, dtype=complex)
        if arr is entries:  # the caller's own array: freeze a copy, not it
            arr = arr.copy()
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
        # a complex entry is finite exactly when both of its parts are
        if not np.isfinite(arr).all():
            raise DimensionError("matrix entries must be finite")
        arr.setflags(write=False)
        self._store(arr, pi_scaled)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def expanded(self) -> np.ndarray:
        """Entries with the deferred pi factor applied: a new array when
        pi-scaled, else the stored read-only entries themselves (no copy)."""
        if self.pi_scaled:
            return self.entries * math.pi
        return self.entries

    @classmethod
    def from_rows(cls, rows, pi_scaled: bool = False) -> "CMat":
        return cls(np.array(rows, dtype=complex), pi_scaled)

    @classmethod
    def identity(cls, dim: int) -> "CMat":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def zeros(cls, dim: int) -> "CMat":
        return cls(np.zeros((dim, dim), dtype=complex))


def as_matrix(m) -> np.ndarray:
    """Coerce a CMat / array / nested list to a plain complex ndarray.

    A CMat without a pi factor gives its read-only entries (see
    ``CMat.expanded``); anything else gives a new array."""
    if isinstance(m, CMat):
        return m.expanded()
    arr = np.array(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def frobenius(x: np.ndarray) -> float | np.ndarray:
    """Frobenius norm of a float or complex matrix, 2-norm of a vector.

    A single matrix or vector gives ``math.hypot`` over its real and
    imaginary parts in memory order: correctly rounded but for a rare last
    bit (its error is under 1 ulp), and free of floating-point warnings.
    An (n, d, d) stack gives its n norms as an array: ``np.hypot`` folded
    over the moduli of each matrix's entries in row order, within a few ulp
    of the single matrix's norm.  Either is finite wherever the norm is.
    """
    if x.ndim == 3:
        moduli = np.abs(x.reshape(x.shape[0], x.shape[1] * x.shape[2]))
        return functools.reduce(np.hypot, moduli.T)
    # contiguous, so a complex x views as its parts (a real x as itself)
    x = x.ravel(order="K")
    return math.hypot(*x.view(x.real.dtype).tolist())


def frobenius_2x2(entries) -> float:
    """``frobenius`` of a 2x2 matrix from its four entries x0..x3 in row
    order, Python complex numbers: the same ``math.hypot`` over the same
    eight parts in the same order as for a C-ordered matrix, so the same
    bits, without building an array."""
    x0, x1, x2, x3 = entries
    return math.hypot(x0.real, x0.imag, x1.real, x1.imag, x2.real, x2.imag, x3.real, x3.imag)


def matrix_pair(f, g) -> tuple[np.ndarray, np.ndarray]:
    """``as_matrix`` of F and of G, which must have one shape."""
    a, b = as_matrix(f), as_matrix(g)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def affine_rows(f, g, t_values) -> tuple[np.ndarray, np.ndarray]:
    """t F and t F + G for each t of ``t_values``, as two (n, d, d) arrays.
    ``t_values`` is a sequence of numbers or a complex array, which is read
    as it is, not copied (``relations.TScanConfig`` builds one per scan).

    When F and G are CMats of one scale, t e_F + e_G is formed from their
    stored entries and, with a pi factor, multiplied by pi once, as is t e_F.
    Otherwise a pi-scaled F gives t F as (t e_F) pi, and t F + G is t A + B
    of the expanded matrices A and B.
    """
    t = np.asarray(t_values, dtype=complex)[:, None, None]
    if isinstance(f, CMat) and isinstance(g, CMat) and f.pi_scaled == g.pi_scaled:
        if f.dim != g.dim:
            raise DimensionError(f"dimension mismatch: {f.dim} vs {g.dim}")
        tf = t * f.entries
        tfg = tf + g.entries
        if f.pi_scaled:
            tf *= math.pi
            tfg *= math.pi
        return tf, tfg
    a, b = matrix_pair(f, g)
    ta = t * a
    tf = t * f.entries * math.pi if isinstance(f, CMat) and f.pi_scaled else ta
    return tf, ta + b


def combine_affine(f, g, t: complex) -> np.ndarray:
    """t F + G as an array, rounded as ``affine_rows`` rounds it."""
    return affine_rows(f, g, (t,))[1][0]


def commutator(m, n) -> np.ndarray:
    a, b = matrix_pair(m, n)
    return a @ b - b @ a


def char_poly(m) -> tuple[complex, ...]:
    """Monic coefficients of det(x*I - M), highest degree first, for d <= 3."""
    a = as_matrix(m)
    d = a.shape[0]
    if d > MAX_DIM:
        raise DimensionError(f"char_poly supports d <= {MAX_DIM}, got {d}")
    # Python complex arithmetic: numpy scalars cost several times more
    entries = a.tolist()
    if d == 1:
        return (1.0 + 0j, -entries[0][0])
    if d == 2:
        (a00, a01), (a10, a11) = entries
        return (1.0 + 0j, -(a00 + a11), a00 * a11 - a01 * a10)
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = entries
    s2 = a00 * a11 - a01 * a10 + a00 * a22 - a02 * a20 + a11 * a22 - a12 * a21
    det = (
        a00 * (a11 * a22 - a12 * a21)
        - a01 * (a10 * a22 - a12 * a20)
        + a02 * (a10 * a21 - a11 * a20)
    )
    return (1.0 + 0j, -(a00 + a11 + a22), s2, -det)


def _poly_eval(coeffs, x):
    acc = 0j
    for c in coeffs:
        acc = acc * x + c
    return acc


def _poly_roots_quadratic(b, c):
    # x^2 + b x + c, with the larger root computed free of cancellation
    disc = cmath.sqrt(b * b - 4 * c)
    if (b.conjugate() * disc).real > 0:
        disc = -disc
    r1 = (-b + disc) / 2
    r2 = c / r1 if r1 != 0 else -b - r1
    return [r1, r2]


def _poly_roots_cubic(b, c, d):
    # x^3 + b x^2 + c x + d; depressed via x = y - b/3.  Where Python's **
    # raises OverflowError, complex powers are written as the same products
    # and real ones taken in np.float64, so they overflow to inf; a
    # non-finite radical gives NaN roots
    p = c - b * b / 3
    q = 2 * (b * b * b) / 27 - b * c / 3 + d
    shift = -b / 3
    if abs(p) < 1e-30 and abs(q) < 1e-30:
        return [shift, shift, shift]
    real_coeffs = abs(b.imag) + abs(c.imag) + abs(d.imag) == 0.0
    if real_coeffs:
        disc = -4 * np.float64(p.real) ** 3 - 27 * np.float64(q.real) ** 2
        if p.real < 0 and disc > 0:
            # three real roots: trigonometric form avoids the cancellation
            # the radical form suffers when the roots are close
            mcoef = 2 * math.sqrt(-p.real / 3)
            arg = 3 * q.real / (p.real * mcoef)
            arg = max(-1.0, min(1.0, arg))
            theta = math.acos(arg)
            return [
                complex(mcoef * math.cos((theta - 2 * math.pi * k) / 3)) + shift
                for k in range(3)
            ]
    half_q, third_p = q / 2, p / 3
    delta = cmath.sqrt(half_q * half_q + third_p * (third_p * third_p))
    cand1, cand2 = -q / 2 + delta, -q / 2 - delta
    w = cand1 if abs(cand1) >= abs(cand2) else cand2
    if not cmath.isfinite(w):
        return [complex(math.nan, math.nan)] * 3
    # w != 0 here: |w| >= |q| / 2, and when q = 0, |w| = |p / 3|^(3/2) >= 1.9e-46
    u = w ** (1 / 3)
    v = -p / (3 * u)
    omega = cmath.exp(2j * math.pi / 3)
    return [u * omega**k + v * omega ** (-k) + shift for k in range(3)]


def _polish_roots(coeffs, roots, scale):
    # one Newton correction tightens Cardano roundoff; skipped near multiple
    # roots where the derivative underflows the working scale
    deg = len(coeffs) - 1
    deriv = [coeffs[i] * (deg - i) for i in range(deg)]
    out = []
    for r in roots:
        fp = _poly_eval(deriv, r)
        if abs(fp) > 1e-8 * max(1.0, scale) ** (deg - 1):
            r = r - _poly_eval(coeffs, r) / fp
        out.append(r)
    if deg == 3:
        # at the roots of a pair with gap g each Newton step errs by ~eps / g,
        # and the two errors move the pair's mean, which the product of the
        # node factors (expmkit's annihilation test) cannot absorb.  Where
        # Newton moved a near-double pair, its mean -s/2 and half-difference
        # sqrt(s^2/4 - q) come instead from p(x) / (x - z) = x^2 + s x + q,
        # z the polished third root: both are well conditioned
        gaps = [abs(roots[1] - roots[2]), abs(roots[2] - roots[0]), abs(roots[0] - roots[1])]
        k = gaps.index(min(gaps))  # the root off the closest pair
        i, j = (k + 1) % 3, (k + 2) % 3
        near_double = gaps[k] <= NEAR_DOUBLE_GAP * min(gaps[i], gaps[j])
        if near_double and (out[i], out[j]) != (roots[i], roots[j]):
            half = (roots[i] - roots[j]) / 2
            s = coeffs[1] + out[k]
            mean = -s / 2
            h = cmath.sqrt(mean * mean - coeffs[2] - out[k] * s)
            if abs(h - half) > abs(h + half):  # each root stays on its side
                h = -h
            out[i], out[j] = mean + h, mean - h
    return out


class Spectrum(NamedTuple):
    """Eigenvalues with multiplicity, plus clustering and snap metadata.

    ``eigenvalues`` lists each cluster representative, the mean of its
    cluster, repeated per algebraic multiplicity.  The clusters are ordered
    by mean real part, then by mean imaginary part, a NaN part after every
    number.  ``snap`` gives
    integers k with lambda_i ~ i*pi*k (aligned with ``eigenvalues``) and is
    None when any eigenvalue fails to snap.
    """

    eigenvalues: tuple[complex, ...]
    distinct_count: int
    multiplicities: tuple[int, ...] = ()
    snap: tuple[int, ...] | None = None

    def distinct(self) -> list[tuple[complex, int]]:
        """(representative, multiplicity) pairs in deterministic order."""
        out = []
        i = 0
        for m in self.multiplicities:
            out.append((self.eigenvalues[i], m))
            i += m
        return out


def _exact_order(z: complex) -> tuple:
    """Sort key of z by its exact (real, imag), made a total order: a NaN
    part sorts after every number, where Python's float order would leave
    it unordered and a sort dependent on the order of its input."""
    re, im = z.real, z.imag
    return (re != re, 0.0 if re != re else re, im != im, 0.0 if im != im else im)


def _cluster(values: list[complex], tol_abs: float):
    """Clusters of the roots ``values``: (representatives, each repeated per
    its cluster's size, and the sizes), ordered as ``Spectrum`` promises.

    The roots are visited in exact (real, imag) order (``_exact_order``),
    and each joins the first cluster whose first root lies within
    ``tol_abs`` of it, or else starts a cluster.  So the clusters depend on
    the set of roots alone, not on their order; and a chain of roots, each
    within ``tol_abs`` of the next, need not form one cluster.  A gap's
    real and imaginary parts are compared with ``tol_abs`` before its
    modulus is taken: ``abs()`` raises ``OverflowError`` on a gap past the
    float range and, where CPython reads a stale errno, on a NaN gap, and
    either gap keeps its two roots apart instead.  The clusters are then
    sorted by mean real part, then mean imaginary part, a sort skipped when
    every cluster holds one root, since it would reorder nothing; each
    representative is the mean ``sum(cl) / len(cl)``.
    """
    clusters: list[list[complex]] = []
    for v in sorted(values, key=_exact_order):
        for cl in clusters:
            gap = v - cl[0]
            if abs(gap.real) <= tol_abs and abs(gap.imag) <= tol_abs and abs(gap) <= tol_abs:
                cl.append(v)
                break
        else:
            clusters.append([v])
    if len(clusters) < len(values):
        clusters.sort(key=lambda cl: _exact_order(complex(sum(z.real for z in cl) / len(cl),
                                                          sum(z.imag for z in cl) / len(cl))))
    reps, mults = [], []
    for cl in clusters:
        reps += [sum(cl) / len(cl)] * len(cl)
        mults.append(len(cl))
    return reps, mults


def _snap_ints(values, tol: float):
    ks = []
    for v in values:
        if not cmath.isfinite(v):
            return None
        k = round(v.imag / math.pi)
        try:
            size = abs(v)
        except OverflowError:
            # |v| past the float range needs |Re v| >= ~1.05e-8 |v|, farther
            # from every i pi k than SNAP_TOL |v|
            return None
        if abs(v - 1j * math.pi * k) > tol * max(1.0, size):
            return None
        ks.append(k)
    return tuple(ks)


# past these ||A - mu I||_F the characteristic polynomial's coefficients may
# overflow before its roots do (the quadratic's determinant near 1e154, the
# cubic's p^3 and q^2 near 1e51)
SCALED_SOLVE_NORM = {1: math.inf, 2: 1e150, 3: 1e50}


def _shifted_roots(shifted: np.ndarray, scale: float) -> list[complex]:
    """The polished roots of the characteristic polynomial of a d <= 3 matrix
    of Frobenius norm ``scale``."""
    coeffs = char_poly(shifted)
    d = len(coeffs) - 1
    if d == 1:
        roots = [-coeffs[1]]
    elif d == 2:
        roots = _poly_roots_quadratic(coeffs[1], coeffs[2])
    else:
        roots = _poly_roots_cubic(coeffs[1], coeffs[2], coeffs[3])
    return _polish_roots(coeffs, roots, scale)


def _polished_roots(a: np.ndarray) -> list[complex]:
    """The d <= 3 eigenvalues of A, each root of the characteristic polynomial
    polished and none clustered.  A is a validated complex ndarray."""
    d = a.shape[0]
    # roots of A - mu I, mu = tr A / d, then shifted back: a large common
    # shift would otherwise swamp the characteristic polynomial's coefficients.
    # The trace is summed in numpy's order, from 0j on, but in Python
    # arithmetic, which overflows to inf without a warning
    trace = 0j
    for x in a.diagonal().tolist():
        trace += x
    mu = trace / d
    shifted = a.copy()
    shifted.flat[:: d + 1] -= mu
    scale = frobenius(shifted)
    if scale > SCALED_SOLVE_NORM[d] and np.isfinite(shifted).all():
        # solve for shifted / scale and scale the roots back
        unit = shifted / scale
        return [r * scale + mu for r in _shifted_roots(unit, frobenius(unit))]
    return [r + mu for r in _shifted_roots(shifted, scale)]


def eigen_decompose(m) -> Spectrum:
    """Closed-form spectrum for d <= 3 with clustering and snap.

    The roots are clustered by ``_cluster`` with tol = CLUSTER_TOL *
    max(1, ||M||_F): visited in exact (real, imag) order, each root joins
    the first cluster whose first root lies within tol of it, its gap's
    real and imaginary parts compared with tol before its modulus.  Roots
    farther apart than tol are each their own cluster, in (real, imag)
    order; no gap, however large or NaN, makes the clustering raise.  On
    finite input whose norm is past the float range, ~1.8e308, the roots
    may come out NaN; nothing raises or warns."""
    a = as_matrix(m)
    d = a.shape[0]
    if d > MAX_DIM:
        raise DimensionError(f"eigen_decompose supports d <= {MAX_DIM}, got {d}")
    reps, mults = _cluster(_polished_roots(a), CLUSTER_TOL * max(1.0, frobenius(a)))
    return Spectrum(
        eigenvalues=tuple(reps),
        distinct_count=len(mults),
        multiplicities=tuple(mults),
        snap=_snap_ints(reps, SNAP_TOL),
    )

