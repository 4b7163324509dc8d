"""Constructors for every exhibited solution family, dimensions 2 and 3.

Dimension 2:

* ``intro_pair``: the non-triangularizable pair whose one-parameter
  identity holds at integer t exactly for t = -294, 0, 1..5 and 299 (the
  rotation family (60, 241, 209), see ``rotation_star``), so it first
  fails at t = 6.
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
* ``char_poly_nAB``: exact integer characteristic polynomial of n*A + B for
  the rank-one family.  Note: the x-coefficient is (1-n)*e2(m) + n*n1*n2;
  the widely quoted form with an extra factor n disagrees with the matrix
  for every n >= 2 (see tests, which pin this against the numeric oracle).

``FAMILIES`` declares each family the CLI exhibits once, as a ``Family``
record that ``verify --builtin`` and ``families`` both read: ``build`` (flag
values to F, G and report inputs), the flag ``defaults`` (and those one
``--form`` changes), ``expected`` (per relation, the exact ``holds`` of a
verdict at t, or None where nothing is predicted: square-with-parity of
``rotation_square_polynomial`` for intro and real2d, star always and swapped
star only at t = 0 for theorem2, lambda*t + mu != 0 at integer t for
dim2case1), and structural ``checks`` of the pair, each at a named tolerance.
"""

from __future__ import annotations

import cmath
import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import uset
from .errors import ComplexRootsError, ConstraintError, InvalidUError, RankError
from .expmkit import expm
from .frozen import Frozen
from .intsearch import SquarePoly, iii2ii_products, square_root_exact
from .numkernel import CMat, as_matrix, combine_affine, eigen_decompose, frobenius
from .relations import RelationKind
from .simtrig import sim_triangularizable

U_RESIDUAL_TOL = 1e-10
# structural checks of a record: an eigenvalue matches its target within
# SPECTRUM_TOL * max(1, max |target|), tr F matches l1 within
# TRACE_TOL * max(1, |l1|), and FG = 0 entrywise within FG_ZERO_ATOL
SPECTRUM_TOL = 1e-8
TRACE_TOL = 1e-9
FG_ZERO_ATOL = 1e-12


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


def rotation_square_polynomial(lam: int, mu: int, nu: int) -> SquarePoly:
    """Q(t) = det(tA+B)/pi^2 = lambda^2 t^2 + (nu^2 - lambda^2 - mu^2) t + mu^2
    of the rotation family with spectra +-i*pi*lambda, +-i*pi*mu, +-i*pi*nu."""
    return SquarePoly(lam, nu * nu - lam * lam - mu * mu, mu * mu)


def rotation_star(lam: int, mu: int, nu: int, t) -> bool | None:
    """Exact star (and swapped star) verdict of a rotation family at integer t.

    exp(tA+B) = (-1)^r I exactly when Q(t) = r^2 > 0; the right-hand side
    is (-1)^(t*lambda + mu) I, so the identity needs a positive square with
    matching parity.  At Q(t) = 0, tA+B is nilpotent and, since
    nu^2 != (lambda - mu)^2 rules out B = -tA, not zero: exp(tA+B) is not
    +-I.  None (not predicted) off the integers.
    """
    if not isinstance(t, int):
        return None
    root = square_root_exact(rotation_square_polynomial(lam, mu, nu)(t))
    return bool(root) and (root - (lam * t + mu)) % 2 == 0


class Real2DParams(Frozen):
    """lambda, mu, nu positive integers with nu^2 != (lambda +- mu)^2."""

    __slots__ = ("lam", "mu", "nu", "a")

    def __init__(self, lam: int, mu: int, nu: int, a: float = 0.0):
        for name, v in (("lam", lam), ("mu", mu), ("nu", nu)):
            _require(isinstance(v, int) and v > 0, f"{name} must be a positive integer")
        _require(
            nu**2 != (lam + mu) ** 2 and nu**2 != (lam - mu) ** 2,
            "nu^2 must differ from (lambda +- mu)^2",
        )
        self._store(lam, mu, nu, a)


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


class Theorem2Params(Frozen):
    """Root u of e^u = 1 + u plus optional homothety shifts and basis change."""

    __slots__ = ("u", "sigma", "tau", "basis")

    def __init__(self, u: complex, sigma: complex = 0j, tau: complex = 0j,
                 basis: np.ndarray | None = None):
        residual = abs(cmath.exp(u) - 1 - u)
        if residual > U_RESIDUAL_TOL or u == 0:
            raise InvalidUError(
                f"u = {u} fails |e^u - 1 - u| <= {U_RESIDUAL_TOL} (got {residual:.2e})"
            )
        if basis is not None:
            basis = np.array(basis, dtype=complex)
            if basis.shape != (2, 2) or abs(np.linalg.det(basis)) < 1e-12:
                raise ConstraintError("basis must be an invertible 2x2 matrix")
        self._store(u, sigma, tau, basis)


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


class III2Params(Frozen):
    """Diagonal B = diag(m1,m2,m3) data with A + B similar to diag(n1,n2,0)."""

    __slots__ = ("l1", "m1", "m2", "m3", "n1", "n2")

    def __init__(self, l1: int, m1: int, m2: int, m3: int, n1: int, n2: int):
        _require(l1 != 0, "l1 must be nonzero")
        _require(len({m1, m2, m3}) == 3, "m1, m2, m3 must be pairwise distinct")
        _require(n1 != 0 and n2 != 0 and n1 != n2, "n1, n2 must be distinct and nonzero")
        _require(m1 + m2 + m3 != n1 + n2, "m1+m2+m3 must differ from n1+n2")
        self._store(l1, m1, m2, m3, n1, n2)

    def diagonal_values(self) -> tuple[Fraction, Fraction, Fraction]:
        m1, m2, m3, n1, n2 = self.m1, self.m2, self.m3, self.n1, self.n2
        a11 = Fraction(m1 * (m1 - n1) * (m1 - n2), (m1 - m2) * (m3 - m1))
        a22 = Fraction(m2 * (m2 - n1) * (m2 - n2), (m2 - m3) * (m1 - m2))
        a33 = Fraction(m3 * (m3 - n1) * (m3 - n2), (m3 - m1) * (m2 - m3))
        return a11, a22, a33


class III2Form(Enum):
    SYMMETRIC_RANK1 = "symmetric-rank1"
    A1 = "a1"
    A2 = "a2"
    A3 = "a3"
    A4 = "a4"


def _root_product(x: Fraction, y: Fraction) -> complex | None:
    """sqrt(x) sqrt(y) of the principal roots, rounded once, when |x y| is a
    rational square; else None.  The principal root of a negative number is
    i times that of its modulus, so sqrt(-6) sqrt(-3) = -sqrt(18)."""
    xy = abs(x * y)
    num, den = math.isqrt(xy.numerator), math.isqrt(xy.denominator)
    if num * num != xy.numerator or den * den != xy.denominator:
        return None
    root = num / den
    return (complex(root), complex(0.0, root), complex(-root))[(x < 0) + (y < 0)]


def _rank1_max_minor(a: np.ndarray) -> float:
    pairs = list(itertools.combinations(range(3), 2))
    return max(abs(a[i, j] * a[k, l] - a[i, l] * a[k, j]) for i, k in pairs for j, l in pairs)


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
        # exact where the float product rounds: a_ii itself on the diagonal,
        # and v_i v_j wherever |a_ii a_jj| is a rational square
        values = (a11, a22, a33)
        for i, j in itertools.product(range(3), repeat=2):
            exact = _root_product(values[i], values[j])
            if exact is not None:
                a[i, j] = exact
        norm = frobenius(a)  # squared as a product, which overflows to inf, not raising
        if _rank1_max_minor(a) > 1e-10 * max(1.0, norm * norm):
            raise RankError("no square-root sign assignment achieved rank 1")
        return CMat(a), b
    if form in (III2Form.A1, III2Form.A2):
        _require(p.m3 == 0, "forms A1/A2 use the m3 = 0 convention")
        _require(p.m1 + p.m2 != p.n1 + p.n2, "need m1 + m2 != n1 + n2")
        a11 = Fraction((p.m1 - p.n1) * (p.m1 - p.n2), p.m2 - p.m1)
        a22 = Fraction((p.m2 - p.n1) * (p.m2 - p.n2), p.m1 - p.m2)
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


class III2iiParams(Frozen):
    """Outer-product family A = a b^T against B = diag(m, 0, 0).

    The entrywise products are pinned: a1*b1 = -(m-n1)(m-n2)/m,
    a2*b2 = -alpha + n1*n2/m, a3*b3 = alpha.
    """

    __slots__ = ("l1", "m", "n1", "n2", "alpha", "a_vector", "b_vector")

    def __init__(self, l1: int, m: int, n1: int, n2: int, alpha: complex | Fraction,
                 a_vector: tuple[complex, complex, complex],
                 b_vector: tuple[complex, complex, complex]):
        _require(l1 != 0, "l1 must be nonzero")
        _require(l1 == n1 + n2 - m, f"trace l1 must equal n1 + n2 - m = {n1 + n2 - m}")
        want = iii2ii_products(m, n1, n2, alpha)  # checks m, n1 and n2
        got = [av * bv for av, bv in zip(a_vector, b_vector)]
        for i, (w, g) in enumerate(zip(want, got), start=1):
            _require(abs(complex(g) - complex(w)) <= 1e-12 * max(1.0, abs(complex(w))),
                     f"a{i}*b{i} must equal {w}, got {g}")
        self._store(l1, m, n1, n2, alpha, a_vector, b_vector)

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


# ---------------------------------------------------------------------------
# records: one per family the CLI exhibits

Rule = Callable[[dict, "int | complex | None"], "bool | None"]


class Family(NamedTuple):
    """How to build one exhibited pair, its flag defaults, and what it
    predicts.  The ``{}`` defaults are one object shared by every record
    built without them, so no record's dict is ever mutated."""

    build: Callable[[dict], tuple[CMat, CMat, dict]]
    defaults: dict
    expected: dict[RelationKind, Rule] = {}
    checks: Callable[[CMat, CMat, dict], dict[str, bool]] = lambda f, g, inputs: {}
    form_defaults: dict[str, dict] = {}

    def resolve(self, flags: dict) -> dict:
        """The flag values, with this family's default for each flag not given."""
        given = {key: value for key, value in flags.items() if value is not None}
        return {**self.defaults, **self.form_defaults.get(flags.get("form"), {}), **given}

    def judge(self, inputs: dict, verdicts) -> dict[str, tuple[bool, bool]]:
        """{"relation@t=t": (expected holds, holds)} for each predicted verdict."""
        judged = {}
        for v in verdicts:
            rule = self.expected.get(v.relation)
            want = None if rule is None else rule(inputs, v.t)
            if want is not None:
                judged[f"{v.relation.value}@t={v.t}"] = (want, v.holds)
        return judged


def _eig_matches(m, targets) -> bool:
    got = sorted(eigen_decompose(m).eigenvalues, key=lambda z: (z.real, z.imag))
    want = sorted((complex(t) for t in targets), key=lambda z: (z.real, z.imag))
    scale = max(1.0, max(abs(z) for z in want))
    return all(abs(a - b) <= SPECTRUM_TOL * scale for a, b in zip(got, want))


def _trace_is(f, l1) -> bool:
    return abs(as_matrix(f).trace() - l1) <= TRACE_TOL * max(1, abs(l1))


def _sum_checks(f, g, n) -> tuple[bool, bool]:
    # F + G similar to diag(n1, n2, 0), and so exp(2 i pi (F + G)) = I
    s = combine_affine(f, g, 1.0)
    return (_eig_matches(s, [*n, 0]),
            bool(np.array_equal(expm(rescale_2ipi(s)), np.eye(3))))


def _const(value: bool) -> Rule:
    return lambda inputs, t: value


def _star_rules(others: dict, star: Rule) -> dict[RelationKind, Rule]:
    # one rule for star and swapped star: exp(G) is +-I in these families
    return {**others, RelationKind.SUM_PRODUCT: star,
            RelationKind.SUM_PRODUCT_SWAPPED: star}


def _taking(keys, make):
    # a builder that passes the flags ``keys`` to ``make`` and reports them
    def build(p):
        inputs = {key: p[key] for key in keys}
        return (*make(**inputs), inputs)
    return build


def _real2d_checks(f, g, p):
    return {
        "spectrum_g": _eig_matches(g, [1j * math.pi * p["mu"], -1j * math.pi * p["mu"]]),
        "spectrum_sum": _eig_matches(combine_affine(f, g, 1.0),
                                     [1j * math.pi * p["nu"], -1j * math.pi * p["nu"]]),
    }


def _build_theorem2(p):
    root = uset.solve_u(uset.branch_seed(p["u_branch"]))
    f, g = theorem2_family(Theorem2Params(u=root.value))
    return f, g, {"u_branch": p["u_branch"], "u": root.value}


def _theorem2_checks(f, g, p):
    return {"fg_is_zero": bool(np.allclose(as_matrix(f) @ as_matrix(g), 0, atol=FG_ZERO_ATOL))}


def _dim2case1_star(p, t):
    return p["lam"] * t + p["mu"] != 0 if isinstance(t, int) else None


def _build_iii2(p):
    _require(len(p["m"]) == 3, "iii2 needs three m values")
    (m1, m2, m3), (n1, n2) = p["m"], p["n_pair"]
    params = III2Params(l1=p["l1"], m1=m1, m2=m2, m3=m3, n1=n1, n2=n2)
    f, g = case3_III2_matrix(params, III2Form(p["form"]))
    return f, g, {"l1": p["l1"], "m": p["m"], "n": p["n_pair"], "form": p["form"]}


def _iii2_checks(f, g, p):
    checks = {"trace_is_l1": _trace_is(f, p["l1"])}
    if p["form"] in ("symmetric-rank1", "a1", "a2"):
        checks["sum_spectrum"], checks["exp_sum_identity"] = _sum_checks(f, g, p["n"])
    else:
        checks["sim_triangularizable"] = sim_triangularizable(f, g).triangularizable
    return checks


def _build_iii2ii(p):
    _require(len(p["m"]) == 1, "iii2ii takes a single m value")
    (m,), (n1, n2) = p["m"], p["n_pair"]
    f, g = case3_III2ii_matrix(III2iiParams.canonical(m, n1, n2, Fraction(p["alpha"])))
    return f, g, {"m": m, "n": p["n_pair"], "alpha": p["alpha"]}


def _iii2ii_checks(f, g, p):
    spectrum, identity = _sum_checks(f, g, p["n"])
    return {"sum_spectrum": spectrum, "trace_is_l1": _trace_is(f, sum(p["n"]) - p["m"]),
            "exp_sum_identity": identity}


_COMMUTE_NEVER = {RelationKind.COMMUTE: _const(False)}

# real2d needs nu^2 != (lambda +- mu)^2; the iii2 forms a1 and a2 take m3 = 0
# and fix tr F = n1 + n2 - m1 - m2, which is 6 at the default --n
FAMILIES: dict[str, Family] = {
    "intro": Family(_taking((), intro_pair), {}, _star_rules(
        {**_COMMUTE_NEVER, RelationKind.EXP_EQUAL: _const(False),
         RelationKind.EXP_SWAP: _const(True)},
        lambda p, t: rotation_star(*INTRO_ROTATION, t))),
    "real2d": Family(
        _taking(("lam", "mu", "nu", "a"), lambda **p: real2d_family(Real2DParams(**p))),
        {"lam": 1, "mu": 2, "nu": 5, "a": 0.0},
        _star_rules({**_COMMUTE_NEVER, RelationKind.EXP_SWAP: _const(True)},
                    lambda p, t: rotation_star(p["lam"], p["mu"], p["nu"], t)),
        _real2d_checks),
    "theorem2": Family(
        _build_theorem2, {"u_branch": 1},
        {**_COMMUTE_NEVER, RelationKind.EXP_SWAP: _const(False),
         RelationKind.SUM_PRODUCT: _const(True),
         RelationKind.SUM_PRODUCT_SWAPPED: lambda p, t: t == 0},
        _theorem2_checks),
    "dim2case1": Family(_taking(("lam", "mu"), dim2_case1_pair), {"lam": 1, "mu": 1},
                        _star_rules(_COMMUTE_NEVER, _dim2case1_star)),
    "iii2": Family(_build_iii2, {"m": (1, 2, 3), "l1": 3}, checks=_iii2_checks,
                   form_defaults={form: {"m": (1, 2, 0), "l1": 6} for form in ("a1", "a2")}),
    "iii2ii": Family(_build_iii2ii, {"m": (1,)}, checks=_iii2ii_checks),
}
