"""Simultaneous triangularization of a matrix pair over C.

Predicate: F, G are simultaneously triangularizable iff tr([F,G] w) = 0 for
every word w in the unital algebra generated by F and G (McCoy 1936: the
ideal J that C = [F,G] generates is then nilpotent).  The algebra has
dimension at most d^2, so closing the word set under multiplication with
linear-independence filtering terminates quickly for d <= 3.

The constructive half guesses no eigenvalue.  x lies in ker J iff C w x = 0
for every word w, so ker J is one SVD of the stacked C w.  It holds every
common eigenvector, is nonzero when J is nilpotent, and F and G leave it
invariant and commute on it.  Split off a common eigenvector of that
restriction with a unitary and recurse on the quotient block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DeflationError, DimensionError
from .numkernel import MAX_DIM, as_matrix, char_poly, eigen_decompose

WORD_INDEPENDENCE_TOL = 1e-10
BASIS_VERIFY_TOL = 1e-8


@dataclass(frozen=True)
class TrigVerdict:
    """Outcome of the triangularizability test.

    Exactly one of ``basis`` (invertible T with T^-1 F T, T^-1 G T upper
    triangular) and ``witness`` (word w with tr([F,G] w) != 0) is set.
    """

    triangularizable: bool
    basis: np.ndarray | None = None
    witness: np.ndarray | None = None
    witness_word: str | None = None
    witness_trace: complex | None = None


def _word_closure(f: np.ndarray, g: np.ndarray):
    """Independent spanning words of the algebra generated by {I, F, G}, I first."""
    d = f.shape[0]
    words: list[tuple[np.ndarray, str]] = []
    basis_rows: list[np.ndarray] = []

    def try_add(mat, label):
        vec = mat.reshape(-1).astype(complex)
        norm = np.linalg.norm(vec)
        if norm == 0:
            return False
        resid = vec.copy()
        for row in basis_rows:
            resid = resid - (row.conj() @ resid) * row
        if np.linalg.norm(resid) <= WORD_INDEPENDENCE_TOL * norm:
            return False
        basis_rows.append(resid / np.linalg.norm(resid))
        words.append((mat, label))
        return True

    try_add(np.eye(d, dtype=complex), "1")
    queue = [(mat, label) for mat, label in ((f, "F"), (g, "G")) if try_add(mat, label)]
    # breadth-first closure; the algebra dimension caps at d^2
    while queue and len(words) < d * d:
        nxt = []
        for mat, label in queue:
            for gen, glabel in ((f, "F"), (g, "G")):
                prod = mat @ gen
                if try_add(prod, label + glabel):
                    nxt.append((prod, label + glabel))
        queue = nxt
    return words


def _ideal_kernel(a: np.ndarray, b: np.ndarray, words, tol: float) -> np.ndarray:
    """Orthonormal columns spanning ker J, at least the least singular one.

    The rows are C w / max(1, ||w||): dividing by a tiny ||w|| alone would
    raise rounding noise to the scale of C.  Singular values up to
    tol ||F|| ||G|| count as zero, so a commutator of noise reads as J = 0.
    """
    comm = a @ b - b @ a
    stacked = np.vstack([comm @ w / max(1.0, float(np.linalg.norm(w))) for w in words])
    _, sv, vh = np.linalg.svd(stacked, full_matrices=False)
    cutoff = tol * float(np.linalg.norm(a)) * float(np.linalg.norm(b))
    k = max(1, int(np.count_nonzero(sv <= cutoff)))
    return vh[-k:].conj().T


def _residual(m: np.ndarray, v: np.ndarray) -> float:
    """||M v - (v* M v) v|| / max(1, ||M||) for a unit vector v."""
    mv = m @ v
    return float(np.linalg.norm(mv - (v.conj() @ mv) * v)) / max(1.0, float(np.linalg.norm(m)))


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
    m = max((a, b), key=lambda x: np.linalg.norm(x - np.trace(x) / k * ident)
            / max(float(np.linalg.norm(x)), np.finfo(float).tiny))
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
    return min((v / np.linalg.norm(v) for v in cols if np.linalg.norm(v) > 0),
               key=lambda v: _residual(a, v) + _residual(b, v))


def _common_eigenvector(a: np.ndarray, b: np.ndarray, words, tol: float) -> np.ndarray:
    kernel = _ideal_kernel(a, b, words, tol)
    if kernel.shape[1] == 1:
        return kernel[:, 0]
    kh = kernel.conj().T
    return kernel @ _eigenline(kh @ a @ kernel, kh @ b @ kernel)


def common_eigenvector(f, g, tol: float = 1e-8) -> np.ndarray | None:
    """Unit vector v with F v = lambda v and G v = mu v within tol, if any.

    v is taken in ker J; which common eigenvector is returned is not
    specified.  None when the best candidate misses tol for F or for G.
    """
    a, b = as_matrix(f), as_matrix(g)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionError(f"common_eigenvector supports d <= {MAX_DIM}")
    v = _common_eigenvector(a, b, [w for w, _ in _word_closure(a, b)], tol)
    if max(_residual(a, v), _residual(b, v)) > tol:
        return None
    return v


def _deflate(a: np.ndarray, b: np.ndarray, words, tol: float) -> np.ndarray:
    """Unitary T with T* F T, T* G T upper triangular, for a triangularizable
    pair and words spanning its algebra.  The 2x2 quotient needs no words
    but I: a nonzero nilpotent 2x2 commutator has rank one, so ker J = ker C."""
    d = a.shape[0]
    # a unitary whose first column is the common eigenvector, up to a phase
    q = np.linalg.qr(np.column_stack([_common_eigenvector(a, b, words, tol), np.eye(d)]))[0]
    if d > 2:
        qh = q.conj().T
        a2, b2 = (qh @ a @ q)[1:, 1:], (qh @ b @ q)[1:, 1:]
        q[:, 1:] = q[:, 1:] @ _deflate(a2, b2, [np.eye(d - 1)], tol)
    return q


def sim_triangularizable(f, g, tol: float = 1e-9) -> TrigVerdict:
    """Decide simultaneous triangularizability; construct a basis when true."""
    a, b = as_matrix(f), as_matrix(g)
    if a.shape != b.shape:
        raise DimensionError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape[0] > MAX_DIM:
        raise DimensionError(f"sim_triangularizable supports d <= {MAX_DIM}")
    comm = a @ b - b @ a
    comm_norm = float(np.linalg.norm(comm))
    words = _word_closure(a, b)
    for word, label in words:
        trace = complex(np.trace(comm @ word))
        scale = max(1.0, comm_norm * float(np.linalg.norm(word)))
        if abs(trace) > tol * scale:
            return TrigVerdict(
                triangularizable=False,
                witness=word,
                witness_word=label,
                witness_trace=trace,
            )
    basis = _deflate(a, b, [w for w, _ in words], max(tol, 1e-8))
    for m in (a, b):
        lower = np.tril(basis.conj().T @ m @ basis, -1)
        if np.linalg.norm(lower) > BASIS_VERIFY_TOL * max(1.0, float(np.linalg.norm(m))):
            raise DeflationError("constructed basis fails the upper-triangularity check")
    return TrigVerdict(triangularizable=True, basis=basis)
