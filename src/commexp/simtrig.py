"""Simultaneous triangularization of a matrix pair over C.

Predicate: F, G are simultaneously triangularizable iff tr([F,G] w) = 0 for
every word w in the unital algebra generated by F and G (McCoy 1936: the
ideal J that C = [F,G] generates is then nilpotent).  Paz (1984) bounds
the length of the algebra that d x d matrices generate by
ceil((d^2 + 2) / 3), which is 2d - 2 for d <= 3, so the words of length
<= 2d - 2 span it.  Both halves run on F / ||F||, G / ||G||, which are
triangularized by the same bases, so every tolerance is absolute.

At d = 2 the test is one number.  C is traceless, so C^2 = -det(C) I, and
of the words of length <= 2 the traces of C, C F, C G, C F^2 and C G^2
vanish identically, while tr(C F G) = -det C = -tr(C G F).  So the pair is
triangularizable iff C is nilpotent, iff det [F, G] = 0: at d = 2 that is
Shemesh's (1984) criterion for a common eigenvector, ker [F, G] != 0.  The
test reads C's three entries c00, c01, c10, taken in Python complex
arithmetic from the entries of F / ||F|| and G / ||G||, each scaled before
any product is formed, as -det C is of degree four in the entries: so
the test keeps the numeric range of the ``numkernel`` module docstring.
No numpy array of the unit pair is built unless the pair commutes within
EIGENVECTOR_TOL and its common eigenvector comes from ``_eigenline``.

The constructive half guesses no eigenvalue.  x lies in ker J iff C w x = 0
for every word w, so ker J is one SVD of the stacked C w.  It holds every
common eigenvector, is nonzero when J is nilpotent, and F and G leave it
invariant and commute on it.  Split off a common eigenvector of that
restriction with a unitary and recurse on the quotient block.  Every 2 x 2
problem, the d = 2 pair and the quotient block at d = 3 alike, takes one
closed-form step in Python complex arithmetic instead: a nonzero nilpotent
2 x 2 C has rank one, and its kernel, read off C's larger row, is the common
eigenvector.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import DeflationError, DimensionError
from .numkernel import (
    MAX_DIM,
    char_poly,
    eigen_decompose,
    frobenius,
    frobenius_2x2,
    matrix_pair,
)

# on the unit pair: a trace tr([F, G] w) up to WORD_TRACE_TOL counts as zero;
# in the constructive half, a singular value of the stacked C w, the norm of a
# 2x2 commutator and a common eigenvector's residual up to EIGENVECTOR_TOL do
WORD_TRACE_TOL = 1e-9
EIGENVECTOR_TOL = 1e-8
BASIS_VERIFY_TOL = 1e-8


class TrigVerdict(NamedTuple):
    """Outcome of the triangularizability test.

    Exactly one of ``basis`` (invertible T with T^-1 F T, T^-1 G T upper
    triangular) and ``witness`` (word w with tr([F,G] w) != 0) is set.  The
    witness is the first failing word, shortest first, and it and its trace
    are in the caller's scale.  At d = 2 the witness word is always "FG".
    """

    triangularizable: bool
    basis: np.ndarray | None = None
    witness: np.ndarray | None = None
    witness_word: str | None = None
    witness_trace: complex | None = None


def _unit(m: np.ndarray, norm: float) -> np.ndarray:
    """M / ||M||_F, given norm = ||M||_F; a zero M as it is."""
    return m / norm if norm > 0 else m


def _words(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Every word in F, G of length <= 2d - 2 as one (k, d, d) array, with its
    labels: shortest first, I first, F before G.  They span the algebra."""
    d = a.shape[0]
    gens = np.stack([a, b])
    level = np.eye(d, dtype=complex)[None]
    levels, labels, tails = [level], ["1"], [""]
    for _ in range(2 * d - 2):
        level = (level[:, None] @ gens).reshape(-1, d, d)
        tails = [w + x for w in tails for x in "FG"]
        levels.append(level)
        labels += tails
    return np.concatenate(levels), labels


def _ideal_kernel(a: np.ndarray, b: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning ker J, at least the least singular one.

    The rows are the C w of the unit pair; singular values up to
    EIGENVECTOR_TOL count as zero, so a commutator of rounding noise reads
    as J = 0.
    """
    d = a.shape[0]
    _, sv, vh = np.linalg.svd(((a @ b - b @ a) @ words).reshape(-1, d), full_matrices=False)
    k = max(1, int(np.count_nonzero(sv <= EIGENVECTOR_TOL)))
    return vh[-k:].conj().T


def _residual(m: np.ndarray, v: np.ndarray) -> float:
    """||M v - (v* M v) v|| for a unit vector v; every M here has ||M|| <= 1."""
    mv = m @ v
    return frobenius(mv - (v.conj() @ mv) * v)


def _eigenline(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit common eigenvector of a commuting pair of dimension k <= 3.

    B is the traceless part of the less scalar member, the one whose
    traceless part has the larger norm; the caller passes members of norm
    at most 1, so a member that is a scalar plus rounding noise scores at
    the noise's size and is never picked over one that is not.  (Scored
    relative to its own norm, pure noise scored ~1, and its eigenvector
    missed the other member.)  chi is B's characteristic polynomial and
    lambda a computed root.  (B - lambda I) adj(lambda I - B)
    = -chi(lambda) I, so a column of the adjugate (B + lambda I at k = 2) is
    an eigenvector of B up to the residual of chi at lambda, however poorly
    a defective lambda is known.  When lambda's eigenspace is a line, the
    other member keeps it.  When it is a plane the adjugate vanishes, and
    another root's adjugate is a line, or else B has rank one and its range
    is one.  Of these candidates, and e1 for a scalar pair, the one with
    the least residual wins.
    """
    k = a.shape[0]
    ident = np.eye(k, dtype=complex)
    m = max((a, b), key=lambda x: frobenius(x - np.trace(x) / k * ident))
    dev = m - np.trace(m) / k * ident
    coeffs = char_poly(dev)
    cands = [ident, dev]
    for lam, _ in eigen_decompose(dev).distinct():
        # adj(lambda I - B) = (chi(x) / (x - lambda)) at x = B, by synthetic division
        q, adj = 1.0, ident
        for c in coeffs[1:-1]:
            q = q * lam + c
            adj = adj @ dev + q * ident
        cands.append(adj)
    cols = [c[:, int(np.argmax(np.linalg.norm(c, axis=0)))] for c in cands]
    return min((v / frobenius(v) for v in cols if frobenius(v) > 0),
               key=lambda v: _residual(a, v) + _residual(b, v))


def _unit_entries(m: np.ndarray, norm: float) -> list[complex]:
    """The entries of ``_unit(m, norm)`` in row order, in Python complex
    arithmetic: numpy too divides a complex by a float as a product with
    1 / norm, so they equal its entries bar the sign of a zero."""
    entries = m.ravel().tolist()
    if norm > 0:
        r = 1 / norm
        return [x * r for x in entries]
    return entries


def _scaled(z: complex, *factors: float) -> complex:
    """z times each of the positive ``factors`` in turn, its real and
    imaginary parts apart, so an exact zero part stays zero.  Python's
    complex product would take a float f as f + 0j, and once the factors
    overflow to inf, its 0 * inf would turn a part into NaN."""
    re, im = z.real, z.imag
    for f in factors:
        re, im = re * f if re else re, im * f if im else im
    return complex(re, im)


def _scaled_entries(m: np.ndarray, *factors: float) -> np.ndarray:
    """``_scaled`` of every entry of M, as a new array: numpy's product
    with a float takes it as a complex number too."""
    out = m.copy()
    parts = out.view(np.float64)  # real and imaginary parts interleaved
    for f in factors:
        np.multiply(parts, f, out=parts, where=parts != 0)
    return out


def _commutator_2x2(a, b) -> tuple[complex, complex, complex]:
    """c00, c01, c10 of C = [A, B] = [[c00, c01], [c10, -c00]] for 2x2 A, B given
    by their four entries in row order, in Python complex arithmetic: numpy
    scalars cost several times more."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    da, db = a00 - a11, b00 - b11
    return a01 * b10 - b01 * a10, da * b01 - db * a01, db * a10 - da * b10


def _commutator_norm_2x2(comm: tuple[complex, complex, complex]) -> float:
    """||C||_F from ``comm = _commutator_2x2(a, b)``, the Frobenius norm of
    the entries [c00, c01, c10, -c00]: ||C||^2 = 2 |c00|^2 + |c01|^2 +
    |c10|^2."""
    c00, c01, c10 = comm
    return frobenius_2x2((c00, c01, c10, -c00))


def _basis_2x2(comm: tuple[complex, complex, complex], unit_pair) -> np.ndarray:
    """Unitary [[v0, -conj v1], [v1, conj v0]] whose first column v is a common
    eigenvector of a triangularizable 2x2 pair A, B with ||A||, ||B|| <= 1,
    given ``comm = _commutator_2x2`` of their entries and ``unit_pair()``
    returning A and B as arrays.

    When ||C|| > EIGENVECTOR_TOL, C = [A, B] is nilpotent and nonzero, so of
    rank one, and v spans ker C: (c01, -c00) annihilates row 0 and (c00, c10)
    row 1, and the larger row is the better conditioned.  Otherwise the pair
    commutes within EIGENVECTOR_TOL and ``_eigenline`` finds v: the only
    step that reads A and B as arrays.
    """
    c00, c01, c10 = comm
    if _commutator_norm_2x2(comm) > EIGENVECTOR_TOL:
        v0, v1 = (c01, -c00) if abs(c01) >= abs(c10) else (c00, c10)
        norm = math.hypot(abs(v0), abs(v1))
        v0, v1 = v0 / norm, v1 / norm
    else:
        v0, v1 = _eigenline(*unit_pair()).tolist()
    return np.array([[v0, -v1.conjugate()], [v1, v0.conjugate()]])


def _common_eigenvector(a: np.ndarray, b: np.ndarray, words) -> np.ndarray:
    kernel = _ideal_kernel(a, b, words)
    if kernel.shape[1] == 1:
        return kernel[:, 0]
    kh = kernel.conj().T
    return kernel @ _eigenline(kh @ a @ kernel, kh @ b @ kernel)


@np.errstate(all="ignore")
def common_eigenvector(f, g) -> np.ndarray | None:
    """Unit vector v with F v = lambda v and G v = mu v within
    EIGENVECTOR_TOL ||F|| and EIGENVECTOR_TOL ||G||, if any.

    v is taken in ker J; which common eigenvector is returned is not
    specified.  None when the best candidate misses that bound for F or G.
    """
    a, b = matrix_pair(f, g)
    if a.shape[0] > MAX_DIM:
        raise DimensionError(f"common_eigenvector supports d <= {MAX_DIM}")
    a, b = _unit(a, frobenius(a)), _unit(b, frobenius(b))
    if a.shape[0] == 2:
        v = _basis_2x2(_commutator_2x2(a.ravel().tolist(), b.ravel().tolist()),
                       lambda: (a, b))[:, 0]
    else:
        v = _common_eigenvector(a, b, _words(a, b)[0])
    if max(_residual(a, v), _residual(b, v)) > EIGENVECTOR_TOL:
        return None
    return v


def _deflate(a: np.ndarray, b: np.ndarray, words) -> np.ndarray:
    """Unitary T with T* F T, T* G T upper triangular, for a triangularizable
    pair of dimension 1 or 3 and words spanning its algebra.  The 2x2
    quotient block needs no words: a nonzero nilpotent 2x2 commutator has
    rank one, so ker J = ker C, and ``_basis_2x2`` deflates it."""
    d = a.shape[0]
    # a unitary whose first column is the common eigenvector, up to a phase
    q = np.linalg.qr(np.column_stack([_common_eigenvector(a, b, words), np.eye(d)]))[0]
    if d > 2:
        qh = q.conj().T
        a2, b2 = (qh @ a @ q)[1:, 1:], (qh @ b @ q)[1:, 1:]
        comm = _commutator_2x2(a2.ravel().tolist(), b2.ravel().tolist())
        q[:, 1:] = q[:, 1:] @ _basis_2x2(comm, lambda: (a2, b2))
    return q


def _lower_norm(basis: np.ndarray, m: np.ndarray) -> float:
    """Frobenius norm of the strictly lower part of T* M T, read from its
    entries: at d = 2 the modulus of its (1, 0) entry, in Python complex
    arithmetic; 0 at d = 1."""
    if m.shape[0] == 2:
        (q00, q01), (q10, q11) = basis.tolist()
        m00, m01, m10, m11 = m.ravel().tolist()
        # conj(column 1 of T) . (M times column 0 of T)
        return abs(q01.conjugate() * (m00 * q00 + m01 * q10)
                   + q11.conjugate() * (m10 * q00 + m11 * q10))
    t = (basis.conj().T @ m @ basis).tolist()
    return math.hypot(*(abs(row[j]) for i, row in enumerate(t) for j in range(i)))


@np.errstate(all="ignore")
def sim_triangularizable(f, g) -> TrigVerdict:
    """Decide simultaneous triangularizability; construct a basis when true.

    The witness and its trace are in the caller's scale, under the numeric
    range of the ``numkernel`` module docstring: an entry of finite value
    reads finite, one past the float range inf, and none NaN where the
    entries are finite, as the unit word is scaled back one letter at a
    time and an exact zero part stays zero."""
    a, b = matrix_pair(f, g)
    return _sim_triangularizable(a, b, frobenius(a), frobenius(b))


def _sim_triangularizable(a: np.ndarray, b: np.ndarray, norm_f: float, norm_g: float) -> TrigVerdict:
    """``sim_triangularizable`` of the matrices A, B of F, G
    (``numkernel.matrix_pair``), given their Frobenius norms:
    ``relations.relation_report`` has them from its commute check and passes
    them on."""
    if a.shape[0] > MAX_DIM:
        raise DimensionError(f"sim_triangularizable supports d <= {MAX_DIM}")
    if a.shape[0] == 2:
        # the unit pair's commutator, from entries scaled before they are
        # multiplied: unscaled, entries of 1e100 would overflow -det C
        comm = c00, c01, c10 = _commutator_2x2(_unit_entries(a, norm_f), _unit_entries(b, norm_g))
        trace = c00 * c00 + c01 * c10  # tr(C Fu Gu) = -det C
        if abs(trace) > WORD_TRACE_TOL:
            witness = a @ b
            if not np.isfinite(witness).all():
                # a product past the float range, where inf - inf reads NaN
                witness = _scaled_entries(_unit(a, norm_f) @ _unit(b, norm_g), norm_f, norm_g)
            scale = norm_f * norm_g
            return TrigVerdict(triangularizable=False, witness=witness, witness_word="FG",
                               witness_trace=_scaled(trace, scale, scale))
        basis = _basis_2x2(comm, lambda: (_unit(a, norm_f), _unit(b, norm_g)))
    else:
        fu, gu = _unit(a, norm_f), _unit(b, norm_g)
        words, labels = _words(fu, gu)
        traces = np.einsum("ij,kji->k", fu @ gu - gu @ fu, words)
        failing = np.flatnonzero(np.abs(traces) > WORD_TRACE_TOL)
        if failing.size:
            k = int(failing[0])
            # the norm of each letter of the word; the empty word "1" has none
            letters = [norm_f if x == "F" else norm_g for x in labels[k] if x != "1"]
            return TrigVerdict(
                triangularizable=False,
                witness=_scaled_entries(words[k], *letters),
                witness_word=labels[k],
                witness_trace=_scaled(complex(traces[k]), *letters, norm_f, norm_g),
            )
        basis = _deflate(fu, gu, words)
    for m, norm in ((a, norm_f), (b, norm_g)):
        if _lower_norm(basis, m) > BASIS_VERIFY_TOL * max(1.0, norm):
            raise DeflationError("constructed basis fails the upper-triangularity check")
    return TrigVerdict(triangularizable=True, basis=basis)
