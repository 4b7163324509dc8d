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
Shemesh's (1984) criterion for a common eigenvector, ker [F, G] != 0.

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
from .numkernel import MAX_DIM, as_matrix, char_poly, eigen_decompose, frobenius

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


def _unit(m: np.ndarray) -> np.ndarray:
    norm = frobenius(m)
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


def _ideal_kernel(a: np.ndarray, b: np.ndarray, words: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal columns spanning ker J, at least the least singular one.

    The rows are the C w of the unit pair; singular values up to tol count
    as zero, so a commutator of rounding noise reads as J = 0.
    """
    d = a.shape[0]
    _, sv, vh = np.linalg.svd(((a @ b - b @ a) @ words).reshape(-1, d), full_matrices=False)
    k = max(1, int(np.count_nonzero(sv <= tol)))
    return vh[-k:].conj().T


def _residual(m: np.ndarray, v: np.ndarray) -> float:
    """||M v - (v* M v) v|| for a unit vector v; every M here has ||M|| <= 1."""
    mv = m @ v
    return frobenius(mv - (v.conj() @ mv) * v)


def _eigenline(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unit common eigenvector of a commuting pair of dimension k <= 3.

    B is the traceless part of the less scalar member, chi its characteristic
    polynomial and lambda a computed root.  (B - lambda I) adj(lambda I - B)
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
    m = max((a, b), key=lambda x: frobenius(x - np.trace(x) / k * ident)
            / max(frobenius(x), np.finfo(float).tiny))
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


def _commutator_2x2(a: np.ndarray, b: np.ndarray) -> tuple[complex, complex, complex]:
    """c00, c01, c10 of C = [A, B] = [[c00, c01], [c10, -c00]] for 2x2 A, B, in
    Python complex arithmetic: numpy scalars cost several times more."""
    a00, a01, a10, a11 = a.ravel().tolist()
    b00, b01, b10, b11 = b.ravel().tolist()
    da, db = a00 - a11, b00 - b11
    return a01 * b10 - b01 * a10, da * b01 - db * a01, db * a10 - da * b10


def _basis_2x2(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Unitary [[v0, -conj v1], [v1, conj v0]] whose first column v is a common
    eigenvector of a triangularizable 2x2 pair with ||A||, ||B|| <= 1.

    When ||C|| > tol, C = [A, B] is nilpotent and nonzero, so of rank one, and
    v spans ker C: (c01, -c00) annihilates row 0 and (c00, c10) row 1, and
    the larger row is the better conditioned.  Otherwise the pair commutes
    within tol and ``_eigenline`` finds v.
    """
    c00, c01, c10 = _commutator_2x2(a, b)
    if math.hypot(abs(c00), abs(c00), abs(c01), abs(c10)) > tol:
        v0, v1 = (c01, -c00) if abs(c01) >= abs(c10) else (c00, c10)
        norm = math.hypot(abs(v0), abs(v1))
        v0, v1 = v0 / norm, v1 / norm
    else:
        v0, v1 = _eigenline(a, b).tolist()
    return np.array([[v0, -v1.conjugate()], [v1, v0.conjugate()]])


def _common_eigenvector(a: np.ndarray, b: np.ndarray, words, tol: float) -> np.ndarray:
    kernel = _ideal_kernel(a, b, words, tol)
    if kernel.shape[1] == 1:
        return kernel[:, 0]
    kh = kernel.conj().T
    return kernel @ _eigenline(kh @ a @ kernel, kh @ b @ kernel)


def common_eigenvector(f, g, tol: float = 1e-8) -> np.ndarray | None:
    """Unit vector v with F v = lambda v and G v = mu v within tol ||F|| and
    tol ||G||, if any.

    v is taken in ker J; which common eigenvector is returned is not
    specified.  None when the best candidate misses tol for F or for G.
    """
    a, b = as_matrix(f), as_matrix(g)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionError(f"common_eigenvector supports d <= {MAX_DIM}")
    a, b = _unit(a), _unit(b)
    if a.shape[0] == 2:
        v = _basis_2x2(a, b, tol)[:, 0]
    else:
        v = _common_eigenvector(a, b, _words(a, b)[0], tol)
    if max(_residual(a, v), _residual(b, v)) > tol:
        return None
    return v


def _deflate(a: np.ndarray, b: np.ndarray, words, tol: float) -> np.ndarray:
    """Unitary T with T* F T, T* G T upper triangular, for a triangularizable
    pair of dimension 1 or 3 and words spanning its algebra.  The 2x2
    quotient block needs no words: a nonzero nilpotent 2x2 commutator has
    rank one, so ker J = ker C, and ``_basis_2x2`` deflates it."""
    d = a.shape[0]
    # a unitary whose first column is the common eigenvector, up to a phase
    q = np.linalg.qr(np.column_stack([_common_eigenvector(a, b, words, tol), np.eye(d)]))[0]
    if d > 2:
        qh = q.conj().T
        a2, b2 = (qh @ a @ q)[1:, 1:], (qh @ b @ q)[1:, 1:]
        q[:, 1:] = q[:, 1:] @ _basis_2x2(a2, b2, tol)
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


def sim_triangularizable(f, g, tol: float = 1e-9) -> TrigVerdict:
    """Decide simultaneous triangularizability; construct a basis when true."""
    a, b = as_matrix(f), as_matrix(g)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionError(f"sim_triangularizable supports d <= {MAX_DIM}")
    fu, gu = _unit(a), _unit(b)
    if a.shape[0] == 2:
        c00, c01, c10 = _commutator_2x2(fu, gu)
        trace = c00 * c00 + c01 * c10  # tr(C Fu Gu) = -det C
        if abs(trace) > tol:
            scale = frobenius(a) * frobenius(b)
            return TrigVerdict(triangularizable=False, witness=a @ b, witness_word="FG",
                               witness_trace=trace * scale * scale)
        basis = _basis_2x2(fu, gu, max(tol, 1e-8))
    else:
        words, labels = _words(fu, gu)
        traces = np.einsum("ij,kji->k", fu @ gu - gu @ fu, words)
        failing = np.flatnonzero(np.abs(traces) > tol)
        if failing.size:
            k = int(failing[0])
            norm_f, norm_g = frobenius(a), frobenius(b)
            scale = norm_f ** labels[k].count("F") * norm_g ** labels[k].count("G")
            return TrigVerdict(
                triangularizable=False,
                witness=words[k] * scale,
                witness_word=labels[k],
                witness_trace=complex(traces[k]) * scale * norm_f * norm_g,
            )
        basis = _deflate(fu, gu, words, max(tol, 1e-8))
    for m in (a, b):
        if _lower_norm(basis, m) > BASIS_VERIFY_TOL * max(1.0, frobenius(m)):
            raise DeflationError("constructed basis fails the upper-triangularity check")
    return TrigVerdict(triangularizable=True, basis=basis)
