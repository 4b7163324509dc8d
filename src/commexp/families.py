"""Constructors for every exhibited solution family, dimensions 2 and 3.

Dimension 2:

* ``intro_pair``: the non-triangularizable pair whose sum/product identity
  holds at every integer multiple but whose one-parameter version breaks at
  t = 6.
* ``real2d_family``: real pairs A = pi*[[0,-l],[l,0]], B = pi*[[a,b],[c,-a]]
  with spectra {+-i*pi*mu} and {+-i*pi*nu}; the caller picks (lambda, mu,
  nu, a) and b, c are derived, so every constraint the spectra impose is
  met by construction.
* ``theorem2_family``: the unique complex family satisfying the
  one-parameter identity for all t while the factors never commute;
  parametrized by a root of e^u = 1 + u.
* ``dim2_case1_pair``: diagonal/triangular integer pair for which the
  identity holds at integer t only.

Dimension 3 (emitted as 1/(2*i*pi)-scaled representatives; use
``rescale_2ipi`` before exponentiating):

* ``case3_III2_matrix``: rank-one A against diagonal B, several forms.
* ``case3_III2ii_matrix``: outer-product A against diag(m, 0, 0).
* ``case3_III4_residuals``: the six-equation consistency system tying a
  scaled copy of a type-III4 pair to its base parameters (exact integer
  algebra, defined in ``intsearch`` and re-exported here).
* ``char_poly_nAB``: exact integer characteristic polynomial of n*A + B for
  the rank-one family.  Note: the x-coefficient is (1-n)*e2(m) + n*n1*n2;
  the widely quoted form with an extra factor n disagrees with the matrix
  for every n >= 2 (see tests, which pin this against the numeric oracle).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ComplexRootsError, ConstraintError, InvalidUError, RankError
from .intsearch import III4Params, case3_III4_residuals, iii4_entries  # noqa: F401  (re-exported)
from .intsearch import iii2ii_products
from .numkernel import CMat, as_matrix

U_RESIDUAL_TOL = 1e-10


def _require(cond: bool, message: str):
    if not cond:
        raise ConstraintError(message)


# ---------------------------------------------------------------------------
# dimension 2


# (lambda, mu, nu) of the intro pair read as a rotation family: A, B and A + B
# have eigenvalues +-i*pi*lambda, +-i*pi*mu and +-i*pi*nu
INTRO_ROTATION = (60, 241, 209)


def intro_pair() -> tuple[CMat, CMat]:
    """A = 60*i*pi*diag(1,-1) and B = pi*[[-150i,-91],[391,150i]], exactly."""
    a = CMat.from_rows([[60j, 0], [0, -60j]], pi_scaled=True)
    b = CMat.from_rows([[-150j, -91], [391, 150j]], pi_scaled=True)
    return a, b


def intro_square_polynomial() -> tuple[int, int, int]:
    """(alpha, beta, gamma) with det(tA+B)/pi^2 = alpha^2 t^2 + beta t + gamma.

    The sum/product identity at integer t holds exactly when this quadratic
    is a perfect square (the square root is automatically odd).
    """
    lam, mu, nu = INTRO_ROTATION
    return lam, nu * nu - lam * lam - mu * mu, mu * mu


@dataclass(frozen=True)
class Real2DParams:
    """lambda, mu, nu positive integers with nu^2 != (lambda +- mu)^2."""

    lam: int
    mu: int
    nu: int
    a: float = 0.0

    def __post_init__(self):
        for name in ("lam", "mu", "nu"):
            v = getattr(self, name)
            _require(isinstance(v, int) and v > 0, f"{name} must be a positive integer")
        _require(
            self.nu**2 != (self.lam + self.mu) ** 2
            and self.nu**2 != (self.lam - self.mu) ** 2,
            "nu^2 must differ from (lambda +- mu)^2",
        )


def real2d_family(p: Real2DParams) -> tuple[CMat, CMat]:
    """Derive b, c from (lambda, mu, nu, a) and emit the pi-scaled pair.

    b - c is fixed by nu^2 = lambda^2 + mu^2 - lambda*(b - c) and
    b*c = -(mu^2 + a^2); raises ComplexRootsError when those force complex
    b, c.
    """
    s = (p.lam**2 + p.mu**2 - p.nu**2) / p.lam  # b - c
    prod = -(p.mu**2 + p.a**2)  # b * c
    disc = s * s + 4 * prod
    if disc < 0:
        raise ComplexRootsError(
            f"(b-c)^2 - 4(mu^2+a^2) = {disc} < 0: no real b, c for {p}"
        )
    c = (-s + math.sqrt(disc)) / 2
    b = c + s
    a_mat = CMat.from_rows([[0, -p.lam], [p.lam, 0]], pi_scaled=True)
    b_mat = CMat.from_rows([[p.a, b], [c, -p.a]], pi_scaled=True)
    return a_mat, b_mat


@dataclass(frozen=True)
class Theorem2Params:
    """Root u of e^u = 1 + u plus optional homothety shifts and basis change."""

    u: complex
    sigma: complex = 0j
    tau: complex = 0j
    basis: np.ndarray | None = None

    def __post_init__(self):
        residual = abs(cmath.exp(self.u) - 1 - self.u)
        if residual > U_RESIDUAL_TOL or self.u == 0:
            raise InvalidUError(
                f"u = {self.u} fails |e^u - 1 - u| <= {U_RESIDUAL_TOL} (got {residual:.2e})"
            )
        if self.basis is not None:
            basis = np.array(self.basis, dtype=complex)
            if basis.shape != (2, 2) or abs(np.linalg.det(basis)) < 1e-12:
                raise ConstraintError("basis must be an invertible 2x2 matrix")
            object.__setattr__(self, "basis", basis)


def theorem2_family(p: Theorem2Params) -> tuple[CMat, CMat]:
    """Canonical A = [[0,1],[0,0]], B = [[u,0],[0,0]], conjugated and shifted.

    The output satisfies exp(tF+G) = exp(tF) exp(G) for every complex t and
    fails the swapped product for every t != 0.
    """
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[p.u, 0], [0, 0]], dtype=complex)
    if p.basis is not None:
        inv = np.linalg.inv(p.basis)
        a = inv @ a @ p.basis
        b = inv @ b @ p.basis
    a = a + p.sigma * np.eye(2)
    b = b + p.tau * np.eye(2)
    return CMat(a), CMat(b)


def dim2_case1_pair(lam: int, mu: int) -> tuple[CMat, CMat]:
    """A = diag(i*pi*l, -i*pi*l), B = [[i*pi*m, 1],[0, -i*pi*m]].

    Needs nonzero integers with lam + mu != 0.  The one-parameter identity
    holds for integer t (with t*lam + mu != 0) and fails whenever
    lam * t is not an integer.
    """
    _require(isinstance(lam, int) and lam != 0, "lambda must be a nonzero integer")
    _require(isinstance(mu, int) and mu != 0, "mu must be a nonzero integer")
    _require(lam + mu != 0, "lambda + mu must be nonzero")
    a = CMat.from_rows([[1j * math.pi * lam, 0], [0, -1j * math.pi * lam]])
    b = CMat.from_rows([[1j * math.pi * mu, 1], [0, -1j * math.pi * mu]])
    return a, b


# ---------------------------------------------------------------------------
# dimension 3


def rescale_2ipi(m) -> CMat:
    """2*i*pi * M, stored pi-scaled so integer entries stay exact."""
    if isinstance(m, CMat) and m.pi_scaled:
        raise ConstraintError("matrix already carries a pi factor")
    return CMat(2j * as_matrix(m) if not isinstance(m, CMat) else 2j * m.entries,
                pi_scaled=True)


def _frac(num: int, den: int) -> Fraction:
    return Fraction(num, den)


@dataclass(frozen=True)
class III2Params:
    """Diagonal B = diag(m1,m2,m3) data with A + B similar to diag(n1,n2,0)."""

    l1: int
    m1: int
    m2: int
    m3: int
    n1: int
    n2: int

    def __post_init__(self):
        _require(self.l1 != 0, "l1 must be nonzero")
        _require(
            len({self.m1, self.m2, self.m3}) == 3,
            "m1, m2, m3 must be pairwise distinct",
        )
        _require(self.n1 != 0 and self.n2 != 0 and self.n1 != self.n2,
                 "n1, n2 must be distinct and nonzero")
        _require(self.m1 + self.m2 + self.m3 != self.n1 + self.n2,
                 "m1+m2+m3 must differ from n1+n2")

    def diagonal_values(self) -> tuple[Fraction, Fraction, Fraction]:
        m1, m2, m3, n1, n2 = self.m1, self.m2, self.m3, self.n1, self.n2
        a11 = _frac(m1 * (m1 - n1) * (m1 - n2), (m1 - m2) * (m3 - m1))
        a22 = _frac(m2 * (m2 - n1) * (m2 - n2), (m2 - m3) * (m1 - m2))
        a33 = _frac(m3 * (m3 - n1) * (m3 - n2), (m3 - m1) * (m2 - m3))
        return a11, a22, a33


class III2Form(Enum):
    SYMMETRIC_RANK1 = "symmetric-rank1"
    A1 = "a1"
    A2 = "a2"
    A3 = "a3"
    A4 = "a4"


def _rank1_max_minor(a: np.ndarray) -> float:
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    if i < k and j < l:
                        worst = max(worst, abs(a[i, j] * a[k, l] - a[i, l] * a[k, j]))
    return worst


def case3_III2_matrix(p: III2Params, form: III2Form) -> tuple[CMat, CMat]:
    """(A, B) with B = diag(m1,m2,m3); 1/(2*i*pi)-scaled representatives."""
    b = CMat(np.diag([p.m1, p.m2, p.m3]).astype(complex))
    if form == III2Form.SYMMETRIC_RANK1:
        a11, a22, a33 = p.diagonal_values()
        _require(a11 != 0 and a22 != 0 and a33 != 0,
                 "SymmetricRank1 needs all diagonal values nonzero")
        _require(a11 + a22 + a33 == p.l1,
                 f"trace {a11 + a22 + a33} of A must equal l1 = {p.l1}")
        # principal square roots; A = v v^T is rank 1 for any consistent signs
        v = np.array([cmath.sqrt(complex(x)) for x in (a11, a22, a33)])
        a = np.outer(v, v)
        if _rank1_max_minor(a) > 1e-10 * max(1.0, float(np.linalg.norm(a)) ** 2):
            raise RankError("no square-root sign assignment achieved rank 1")
        return CMat(a), b
    if form in (III2Form.A1, III2Form.A2):
        _require(p.m3 == 0, "forms A1/A2 use the m3 = 0 convention")
        _require(p.m1 + p.m2 != p.n1 + p.n2, "need m1 + m2 != n1 + n2")
        a11 = _frac((p.m1 - p.n1) * (p.m1 - p.n2), p.m2 - p.m1)
        a22 = _frac((p.m2 - p.n1) * (p.m2 - p.n2), p.m1 - p.m2)
        _require(a11 != 0 and a22 != 0,
                 "A1 needs (m_i - n_j) != 0 for i in {1,2}")
        s = cmath.sqrt(complex(a11 * a22))
        a = np.array(
            [[complex(a11), s, s], [s, complex(a22), complex(a22)], [0, 0, 0]]
        )
        if form == III2Form.A2:
            a = a.conj().T
        return CMat(a), b
    if form == III2Form.A3:
        a = np.array([[p.l1, 1, 0], [0, 0, 0], [p.l1, 1, 0]], dtype=complex)
        return CMat(a), b
    a = np.array([[p.l1, 0, 1], [p.l1, 0, 1], [0, 0, 0]], dtype=complex)
    return CMat(a), b


@dataclass(frozen=True)
class III2iiParams:
    """Outer-product family A = a b^T against B = diag(m, 0, 0).

    The entrywise products are pinned: a1*b1 = -(m-n1)(m-n2)/m,
    a2*b2 = -alpha + n1*n2/m, a3*b3 = alpha.
    """

    l1: int
    m: int
    n1: int
    n2: int
    alpha: complex | Fraction
    a_vector: tuple[complex, complex, complex]
    b_vector: tuple[complex, complex, complex]

    def __post_init__(self):
        _require(self.l1 != 0, "l1 must be nonzero")
        _require(self.l1 == self.n1 + self.n2 - self.m,
                 f"trace l1 must equal n1 + n2 - m = {self.n1 + self.n2 - self.m}")
        want = self.required_products()  # checks m, n1 and n2
        got = [av * bv for av, bv in zip(self.a_vector, self.b_vector)]
        for i, (w, g) in enumerate(zip(want, got), start=1):
            _require(abs(complex(g) - complex(w)) <= 1e-12 * max(1.0, abs(complex(w))),
                     f"a{i}*b{i} must equal {w}, got {g}")

    def required_products(self):
        return iii2ii_products(self.m, self.n1, self.n2, self.alpha)

    @classmethod
    def canonical(cls, m: int, n1: int, n2: int, alpha) -> "III2iiParams":
        """b = (1,1,1) and a holding the required products."""
        p1, p2, alpha = iii2ii_products(m, n1, n2, alpha)
        return cls(
            l1=n1 + n2 - m, m=m, n1=n1, n2=n2, alpha=alpha,
            a_vector=(complex(p1), complex(p2), complex(alpha)),
            b_vector=(1 + 0j, 1 + 0j, 1 + 0j),
        )


def case3_III2ii_matrix(p: III2iiParams) -> tuple[CMat, CMat]:
    a = np.outer(np.array(p.a_vector, dtype=complex), np.array(p.b_vector, dtype=complex))
    b = CMat(np.diag([p.m, 0, 0]).astype(complex))
    return CMat(a), b


def char_poly_nAB(p: III2Params, n: int) -> tuple[int, int, int, int]:
    """Exact monic characteristic polynomial of n*A + B for the rank-one family.

    char(x) = (1-n) * prod(x - m_i) + n * x (x - n1)(x - n2), so the
    coefficients are [1, (n-1)e1(m) - n(n1+n2), (1-n)e2(m) + n*n1*n2,
    (n-1)e3(m)].
    """
    e1 = p.m1 + p.m2 + p.m3
    e2 = p.m1 * p.m2 + p.m2 * p.m3 + p.m3 * p.m1
    e3 = p.m1 * p.m2 * p.m3
    return (
        1,
        (n - 1) * e1 - n * (p.n1 + p.n2),
        (1 - n) * e2 + n * p.n1 * p.n2,
        (n - 1) * e3,
    )
