"""Roots of e^u = 1 + u, excluding the trivial u = 0.

Nonzero roots come in conjugate pairs, one near each horizontal strip
Im(u) ~ 2*pi*k.  For |Im u| large, |e^u| = |1 + u| forces Re(u) ~ log|u|,
which motivates the seed log(2*pi*|k|) + 2*pi*i*k; the heuristic is only a
seed, enumeration completeness over a box is certified separately by an
argument-principle contour count (see the test suite).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import NoConvergenceError, ZeroRootError

RESIDUAL_TARGET = 1e-12
MAX_ITERATIONS = 100
DEDUP_TOL = 1e-6
# any converged value this close to the origin is the excluded trivial root
# (the smallest genuine roots have |u| ~ 7.7)
ZERO_BALL = 1e-3


@dataclass(frozen=True)
class URoot:
    value: complex
    residual: float
    branch_hint: int


def _h(u: complex) -> complex:
    return cmath.exp(u) - 1 - u


def solve_u(seed: complex) -> URoot:
    """Newton iteration on h(u) = e^u - 1 - u from the given seed."""
    if seed == 0:
        raise ValueError("seed must be nonzero")
    u = complex(seed)
    for _ in range(MAX_ITERATIONS):
        h = _h(u)
        if abs(h) <= RESIDUAL_TARGET:
            if abs(u) < ZERO_BALL:
                raise ZeroRootError(f"iteration from {seed} converged to the trivial root")
            return URoot(u, abs(h), round(u.imag / (2 * math.pi)))
        hp = cmath.exp(u) - 1
        if hp == 0:
            raise NoConvergenceError(f"derivative vanished at {u}")
        u = u - h / hp
        if not (math.isfinite(u.real) and math.isfinite(u.imag)):
            raise NoConvergenceError(f"iteration from {seed} diverged")
    raise NoConvergenceError(
        f"no residual <= {RESIDUAL_TARGET} within {MAX_ITERATIONS} iterations from {seed}"
    )


def branch_seed(k: int) -> complex:
    if k == 0:
        raise ValueError("the k = 0 branch holds only the excluded root u = 0")
    return math.log(2 * math.pi * abs(k)) + 2j * math.pi * k


def enumerate_u(k_min: int, k_max: int) -> list[URoot]:
    """Converged roots for every nonzero branch k in [k_min, k_max].

    Per-branch convergence failures are logged, not fatal.  Results are
    deduplicated (absolute tolerance 1e-6) and sorted by branch hint.
    """
    if k_min > k_max:
        raise ValueError("k_min must not exceed k_max")
    roots: list[URoot] = []
    for k in range(k_min, k_max + 1):
        if k == 0:
            continue
        try:
            root = solve_u(branch_seed(k))
        except (NoConvergenceError, ZeroRootError) as exc:
            import logging  # here, not at the top: ~5 ms of every CLI start-up

            logging.getLogger(__name__).warning("branch k=%d failed: %s", k, exc)
            continue
        if all(abs(root.value - r.value) > DEDUP_TOL for r in roots):
            roots.append(root)
    roots.sort(key=lambda r: (r.branch_hint, r.value.imag))
    return roots
