"""Inputs, operations and oracles of the four benchmark workloads.

Every workload is built from its seed alone.  ``build(name, seed)`` returns a
``Workload``: a fixed list of operations (one cycle) plus the oracle that
judges each operation's output after the timed section.  The oracles come
from outside the code under test: exact integer arithmetic for the pi-scaled
rotation families, closed-form facts for the dim2case1 and theorem-2
families, ``scipy.linalg.expm`` for floating pairs, and an independent
enumeration for the integer searches.  scipy is imported only after the
timed section, so it never counts towards set-up time or peak memory.

Functions of the package are always looked up through their module at call
time (``relations.relation_report(...)``), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

WORKLOADS = ("tscan", "sweep", "search", "cli")

# relation_report tolerance; the default that the library documents
TOL = 1e-9
# relative Frobenius agreement demanded between commexp.expm and scipy
CROSSCHECK_TOL = 1e-8
# the n = 1 identity-scaling control at box 2: survivor count and the
# sha256 of repr(sorted(survivor params)), pinned at the seed commit
PINNED_IDENTITY_SCALING = {
    2: (6080, "9dc22bd9db1a4273731f78d7b65ad2fdf1b99a1112931e2f7293f0da874a35da"),
}


@dataclass
class Op:
    key: str
    call: Callable[[], object]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # (op index, output) -> hashable summary; cheap, taken right after the op
    summarize: Callable[[int, object], object]
    # (op index, summary) -> None when correct, else the reason it is wrong
    judge: Callable[[int, object], str | None]
    # independent-engine checks of the inputs: {op key: reason} for failures
    crosscheck: Callable[[], dict] = lambda: {}
    # untimed reproducers of known defects, run once per measured run and
    # reported apart: {reproducer key: what it shows}
    defect_probe: Callable[[], dict] = lambda: {}
    details: dict = field(default_factory=dict)


def build(name: str, seed: int) -> Workload:
    """The in-process workloads; ``cli`` runs subprocesses (see ``cli_commands``)."""
    builders = {"tscan": _build_tscan, "sweep": _build_sweep, "search": _build_search}
    return builders[name](random.Random(seed), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# pairs and their exact verdict predictions


@dataclass
class Pair:
    key: str
    kind: str  # rotation | dim2case1 | theorem2 | random
    f: object
    g: object
    params: dict


# Two defects of the package show on shifted, conjugated theorem-2 pairs,
# where F has a defective double eigenvalue (about one random shift in 200
# each).  sim_triangularizable: the trace test accepts the pair but
# common_eigenvector misses the eigenvector by more than its 1e-8 tolerance
# and DeflationError is raised.  expm (AUTO, spectral path): exp(tF) is off
# by ~1e-8 relative (scipy agrees with the exact result to 1e-15), so the
# star identity is judged to fail at tol 1e-9.  Timed operations must not
# fail, so these pairs are not in the sweep's cycle; every sweep run checks
# one fixed reproducer of each outside the timed section and reports what it
# shows under ``known_defect_probe``.
DEFECT_REPRODUCERS = [
    {"label": "deflation-reproducer", "branch": -3,
     "basis": [
         [1.1634003423762678 + 0.10429517955465285j, 0.31286264297488614 + 0.07426372228885426j],
         [-0.06208693086249718 + 0.3296438305243225j, 0.7559453374055283 - 0.38537423364160345j],
     ],
     "sigma": -0.33080646517777385 - 0.41908348035783727j,
     "tau": -0.8670074231164258 + 0.0632172775984981j},
    {"label": "expm-accuracy-reproducer", "branch": 4,
     "basis": [
         [0.916134541824051 - 0.24441318657308778j, -0.3591983016137759 - 0.25429881975567364j],
         [0.08250689038259364 - 0.04091722685389807j, 1.1239924127019258 - 0.13900324784672421j],
     ],
     "sigma": 0.7536764207240547 + 1.1094681336904373j,
     "tau": -0.19454572330275144 - 0.38322738198924516j},
]


def _dense(m) -> np.ndarray:
    entries = getattr(m, "entries", m)
    scale = math.pi if getattr(m, "pi_scaled", False) else 1.0
    return np.asarray(entries, dtype=complex) * scale


def _rotation_star(lam: int, mu: int, nu: int, t: int) -> bool:
    # det(tA + B) / pi^2 = Q(t); exp(tA + B) = (-1)^r I exactly when Q(t) = r^2,
    # and exp(tA) exp(B) = (-1)^(lam t + mu) I
    from commexp import intsearch

    q = intsearch.SquarePoly(lam, nu * nu - lam * lam - mu * mu, mu * mu)
    root = intsearch.square_root_exact(q(t))
    return root is not None and (root - (lam * t + mu)) % 2 == 0


def _exact_expectations(pair: Pair, t_values) -> dict:
    """{(relation, t): holds} that follow from the family's algebra alone."""
    p = pair.params
    out = {("commute", None): False}
    if pair.kind == "rotation":
        lam, mu, nu = p["lam"], p["mu"], p["nu"]
        # exp(A) = (-1)^lam I and exp(B) = (-1)^mu I
        out[("exp-equal", None)] = (lam - mu) % 2 == 0
        out[("exp-swap", None)] = True
        for t in t_values:
            holds = _rotation_star(lam, mu, nu, t)
            out[("sum-product", t)] = out[("sum-product-swapped", t)] = holds
    elif pair.kind == "dim2case1":
        lam, mu = p["lam"], p["mu"]
        out[("exp-equal", None)] = (lam - mu) % 2 == 0
        out[("exp-swap", None)] = True
        for t in t_values:
            holds = lam * t + mu != 0
            out[("sum-product", t)] = out[("sum-product-swapped", t)] = holds
    elif pair.kind == "theorem2":
        out[("exp-equal", None)] = False
        out[("exp-swap", None)] = False
        for t in t_values:
            out[("sum-product", t)] = True
            out[("sum-product-swapped", t)] = False
    return out


def _rel_residual(lhs, rhs) -> float:
    scale = max(1.0, float(np.linalg.norm(lhs)), float(np.linalg.norm(rhs)))
    return float(np.linalg.norm(lhs - rhs)) / scale


def _scipy_expectations(pair: Pair, t_values) -> dict:
    """{(relation, t): holds} from scipy exponentials; near-threshold keys omitted."""
    from scipy.linalg import expm

    f, g = _dense(pair.f), _dense(pair.g)
    out = {}

    def decide(key, residual):
        if not TOL * 1e-3 < residual < TOL * 1e3:
            out[key] = residual <= TOL

    comm = float(np.linalg.norm(f @ g - g @ f))
    decide(("commute", None), comm / max(1.0, float(np.linalg.norm(f)) * float(np.linalg.norm(g))))
    ef, eg = expm(f), expm(g)
    decide(("exp-equal", None), _rel_residual(ef, eg))
    decide(("exp-swap", None), _rel_residual(ef @ eg, eg @ ef))
    for t in t_values:
        lhs, etf = expm(t * f + g), expm(t * f)
        decide(("sum-product", t), _rel_residual(lhs, etf @ eg))
        decide(("sum-product-swapped", t), _rel_residual(lhs, eg @ etf))
    return out


def _expected_triangularizable(pair: Pair) -> bool | None:
    if pair.kind in ("dim2case1", "theorem2"):
        return True  # both factors upper triangular in the family's basis
    if pair.kind == "rotation":
        return False  # B shares no eigenvector with the rotation A
    # triangular pairs have a nilpotent commutator; a clearly nonzero
    # eigenvalue of [F, G] therefore rules triangularization out
    f, g = _dense(pair.f), _dense(pair.g)
    comm = f @ g - g @ f
    if np.max(np.abs(np.linalg.eigvals(comm))) > 1e-6 * max(1.0, float(np.linalg.norm(comm))):
        return False
    return None


def _verdict_key(relation: str, t) -> tuple:
    if t is None:
        return (relation, None)
    z = complex(*t) if isinstance(t, (list, tuple)) else complex(t)
    if z.imag == 0 and z.real == int(z.real):
        return (relation, int(z.real))
    return (relation, z)


def _compare(expected: dict, actual: dict) -> str | None:
    wrong = [
        f"{rel}@t={t}: expected {want}, got {actual.get((rel, t))}"
        for (rel, t), want in expected.items()
        if actual.get((rel, t)) != want
    ]
    return "; ".join(wrong[:4]) if wrong else None


def _relation_workload(name: str, pairs: list[Pair], t_max: int, triangularizable: bool,
                       defect_pairs: Callable[[], list[Pair]] = list) -> Workload:
    from commexp import relations

    cfg = relations.TScanConfig.through(t_max, TOL)
    t_values = list(cfg.t_values)

    def op_for(pair):
        return Op(pair.key, lambda: relations.relation_report(
            pair.f, pair.g, cfg, pair=pair.key, include_triangularizable=triangularizable))

    def summarize(i, report):
        return (
            tuple((v.relation.value, _verdict_key(v.relation.value, v.t)[1], v.holds)
                  for v in report.verdicts),
            report.sim_triangularizable,
        )

    expectations: dict[int, dict] = {}

    def expected(pair):
        if pair.kind == "random":
            return _scipy_expectations(pair, t_values)
        return _exact_expectations(pair, t_values)

    def judge(i, summary):
        if i not in expectations:
            expectations[i] = expected(pairs[i])
        return check(pairs[i], expectations[i], summary)

    def check(pair, expectation, summary):
        verdicts, trig = summary
        if len(verdicts) != 3 + 2 * len(t_values):
            return f"{len(verdicts)} verdicts, expected {3 + 2 * len(t_values)}"
        reason = _compare(expectation, {(rel, t): holds for rel, t, holds in verdicts})
        if reason:
            return reason
        if triangularizable:
            want = _expected_triangularizable(pair)
            if want is not None and trig != want:
                return f"sim_triangularizable expected {want}, got {trig}"
        return None

    def crosscheck():
        """commexp.expm against scipy on the floating pairs, at t = 1 and t_max."""
        from commexp import expmkit
        from scipy.linalg import expm

        failures = {}
        for pair in pairs:
            if pair.kind == "rotation":
                continue  # exact pi-snap inputs; their oracle is exact arithmetic
            f, g = _dense(pair.f), _dense(pair.g)
            for t in sorted({1, t_max}):
                for label, ours, ref in (
                    ("exp(tF+G)", expmkit.expm_affine(pair.f, pair.g, t), expm(t * f + g)),
                    ("exp(tF)", expmkit.expm(t * f), expm(t * f)),
                    ("exp(G)", expmkit.expm(pair.g), expm(g)),
                ):
                    err = _rel_residual(np.asarray(ours), ref)
                    if err > CROSSCHECK_TOL:
                        failures[pair.key] = f"{label} at t={t} differs from scipy by {err:.1e}"
        return failures

    def defect_probe():
        shown = {}
        for pair in defect_pairs():
            try:
                reason = check(pair, expected(pair), summarize(None, op_for(pair).call()))
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            shown[pair.key] = reason or "does not reproduce"
        return shown

    counts: dict = {}
    for p in pairs:
        counts[p.kind] = counts.get(p.kind, 0) + 1
    return Workload(
        name, [op_for(p) for p in pairs], summarize, judge, crosscheck, defect_probe,
        details={"pairs": counts, "t_values": f"1..{t_max}",
                 "include_triangularizable": triangularizable, "tol": TOL},
    )


def _random_matrix(rng: np.random.Generator, dim: int, norm: float, skew_hermitian: bool):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if skew_hermitian:  # exp(tF) stays unitary, so long t ranges stay bounded
        m = (m - m.conj().T) / 2
    return m * (norm / np.linalg.norm(m))


def _real2d_admissible(lam: int, mu: int, nu: int) -> bool:
    if nu * nu in ((lam + mu) ** 2, (lam - mu) ** 2):
        return False
    s = (lam * lam + mu * mu - nu * nu) / lam
    return s * s - 4 * mu * mu >= 0


def _rotation_pair(lam, mu, nu) -> Pair:
    from commexp import families

    f, g = families.real2d_family(families.Real2DParams(lam=lam, mu=mu, nu=nu))
    return Pair(f"real2d({lam},{mu},{nu})", "rotation", f, g, {"lam": lam, "mu": mu, "nu": nu})


def _theorem2_pair(branch: int, shift: dict | None = None) -> Pair:
    """The canonical pair on a u-branch, or one shifted by sigma, tau and a basis change."""
    from commexp import families, uset

    root = uset.solve_u(uset.branch_seed(branch))
    if shift is None:
        f, g = families.theorem2_family(families.Theorem2Params(u=root.value))
        return Pair(f"theorem2(k={branch})", "theorem2", f, g, {"branch": branch})
    f, g = families.theorem2_family(families.Theorem2Params(
        u=root.value, sigma=shift["sigma"], tau=shift["tau"], basis=np.array(shift["basis"])))
    return Pair(f"theorem2(k={branch},{shift['label']})", "theorem2", f, g, {"branch": branch})


def _build_tscan(_prng: random.Random, nrng: np.random.Generator) -> Workload:
    from commexp import families

    a, b = families.intro_pair()
    pairs = [
        Pair("intro", "rotation", a, b, {"lam": 60, "mu": 241, "nu": 209}),
        _rotation_pair(1, 2, 5),
        _theorem2_pair(1),
        _theorem2_pair(-2),
    ]
    # only the random pairs depend on the seed: their cost does not, which
    # keeps the op mix, and so the figures, comparable between seeds
    for i in range(2):
        f = _random_matrix(nrng, 3, 1.0, skew_hermitian=True)
        g = _random_matrix(nrng, 3, 1.0, skew_hermitian=True)
        pairs.append(Pair(f"random3x3#{i}", "random", f, g, {}))
    # intro's ||t A|| reaches 2.7e4 at t = 100, inside the documented
    # exact/spectral budget of ~3e4
    return _relation_workload("tscan", pairs, t_max=100, triangularizable=False)


def _build_sweep(prng: random.Random, nrng: np.random.Generator) -> Workload:
    from commexp import families

    pairs = [
        _rotation_pair(lam, mu, nu)
        for lam in range(1, 7) for mu in range(1, 7) for nu in range(1, 7)
        if _real2d_admissible(lam, mu, nu)
    ]
    for lam in range(-5, 6):
        for mu in range(-5, 6):
            if lam and mu and lam + mu:
                f, g = families.dim2_case1_pair(lam, mu)
                pairs.append(Pair(f"dim2case1({lam},{mu})", "dim2case1", f, g,
                                  {"lam": lam, "mu": mu}))
    pairs += [_theorem2_pair(branch) for branch in range(-6, 7) if branch]
    for i in range(40):
        pairs.append(Pair(f"random2x2#{i}", "random", _random_matrix(nrng, 2, 1.5, False),
                          _random_matrix(nrng, 2, 1.5, False), {}))
    for i in range(120):
        pairs.append(Pair(f"random3x3#{i}", "random", _random_matrix(nrng, 3, 1.5, False),
                          _random_matrix(nrng, 3, 1.5, False), {}))
    return _relation_workload(
        "sweep", pairs, t_max=3, triangularizable=True,
        defect_pairs=lambda: [_theorem2_pair(r["branch"], r) for r in DEFECT_REPRODUCERS])


# ---------------------------------------------------------------------------
# search


def admissible_iii4_bases(box: int) -> set[tuple]:
    """Base tuples (l1, l2, m1, m2, m3, n1, n2), enumerated from the side conditions."""
    rng = range(-box, box + 1)
    nonzero = [x for x in rng if x]
    out = set()
    for l1 in nonzero:
        for l2 in nonzero:
            if l1 == l2:
                continue
            for m1 in rng:
                for m2 in rng:
                    if m1 == m2:
                        continue
                    for m3 in rng:
                        total = l1 + l2 + m1 + m2 + m3
                        for n1 in nonzero:
                            n2 = total - n1
                            if n2 and n2 != n1 and abs(n2) <= box:
                                out.add((l1, l2, m1, m2, m3, n1, n2))
    return out


def _first_non_square(alpha, beta, gamma, n_max):
    first, squares = None, 0
    for n in range(1, n_max + 1):
        v = alpha * alpha * n * n + beta * n + gamma
        if v >= 0 and math.isqrt(v) ** 2 == v:
            squares += 1
        elif first is None:
            first = n
    return first, squares


def _build_search(prng: random.Random, _nrng: np.random.Generator) -> Workload:
    from commexp import intsearch

    n_max = 30000
    specs = [("iii4", (2, 1)), ("iii4", (3, 2))]
    # searches of equal cost, whose inputs do not depend on the seed, keep
    # each percentile inside one kind of operation: ten at box 4 hold the
    # median (the seeded scans below cost from 10 to 140 ms), eight at box 5
    # the latency tail, whatever the number of cycles
    specs += [("iii4", (4, n)) for n in range(2, 12)]
    specs += [("iii4", (5, n)) for n in range(2, 10)]
    # a third of the scans are degenerate (square for every n, so every n
    # survives); the rest are not, so every seed has the same mix of costs
    nonzero = [k for k in range(-9, 10) if k]
    for i in range(6):
        while True:
            m1, m2, n1, n2 = (prng.choice(nonzero) for _ in range(4))
            degenerate = 0 in (m1 - n1, m1 - n2, m2 - n1, m2 - n2)
            if (m1 != m2 and m1 + m2 != n1 + n2 and n1 != n2
                    and degenerate == (i % 3 == 0)):
                break
        specs.append(("a1", (m1, m2, n1, n2, n_max)))
    for i in range(6):
        while True:
            p1, p2, p3 = (Fraction(prng.choice(nonzero), prng.randint(1, 4)) for _ in range(3))
            if i % 3 == 0:
                p3 = -p2
            if p1 + p2 + p3 != 0 and (p1 * (p2 + p3) == 0) == (i % 3 == 0):
                break
        specs.append(("iii2ii", ((p1, p2, p3), prng.choice(nonzero[4:-4]), n_max)))

    def op_for(kind, args):
        if kind == "iii4":
            box, n = args
            return Op(f"iii4(box={box},n={n})",
                      lambda: intsearch.grobner_replacement_search(box, n))
        if kind == "a1":
            return Op(f"a1{args[:4]}", lambda: intsearch.discriminant_scan_A1(*args))
        products, m, nm = args
        return Op(f"iii2ii({','.join(map(str, products))};m={m})",
                  lambda: intsearch.discriminant_scan_III2ii(products, m, nm))

    def summarize(i, outcome):
        kind, args = specs[i]
        if kind == "iii4":
            params = sorted(s.params for s in outcome.survivors)
            return (outcome.tuples_scanned, len(params),
                    frozenset(p[:7] for p in params) if params else frozenset(),
                    hashlib.sha256(repr(params).encode()).hexdigest())
        return (outcome.tuples_scanned, outcome.first_failure,
                outcome.metadata["lemma1_decide"], tuple(outcome.metadata["polynomial"]),
                len(outcome.survivors))

    bases: dict[int, set] = {}

    def judge(i, summary):
        kind, args = specs[i]
        if kind == "iii4":
            box, n = args
            if box not in bases:
                bases[box] = admissible_iii4_bases(box)
            scanned, count, survivor_bases, digest = summary
            if scanned != len(bases[box]):
                return f"tuples_scanned {scanned}, expected {len(bases[box])}"
            if n >= 2:
                return None if count == 0 else f"{count} survivors at n={n}, expected none"
            if survivor_bases != bases[box]:
                return "identity scaling lost some base tuples"
            pinned = PINNED_IDENTITY_SCALING.get(box)
            if pinned and (count, digest) != pinned:
                return f"survivor set changed: {count} survivors, digest {digest[:12]}"
            return None
        scanned, first, decide, (alpha, beta, gamma), survivors = summary
        n_max = args[-1]
        if scanned != n_max:
            return f"tuples_scanned {scanned}, expected {n_max}"
        if (first is None) != decide:
            return f"first_failure {first} contradicts lemma1_decide {decide}"
        if kind == "a1":
            m1, m2, n1, n2 = args[:4]
            degenerate = 0 in (m1 - n1, m1 - n2, m2 - n1, m2 - n2)
        else:
            p1, p2, p3 = args[0]
            degenerate = p1 * (p2 + p3) == 0
        if decide != degenerate:
            return f"lemma1_decide {decide}, but the null-discriminant identity says {degenerate}"
        if (first, survivors) != _first_non_square(alpha, beta, gamma, n_max):
            return "squareness pattern differs from an independent isqrt scan"
        return None

    return Workload("search", [op_for(k, a) for k, a in specs], summarize, judge,
                    details={"ops": [k for k, _ in specs], "scan_n_max": n_max})


# ---------------------------------------------------------------------------
# cli


@dataclass
class Command:
    argv: list[str]
    known_defect: bool = False  # fails at the seed commit; ROADMAP open item 5
    verdicts: Pair | None = None  # verify commands: the pair whose verdicts to predict
    t_values: tuple = ()


def cli_commands(prng: random.Random) -> list[Command]:
    """Every subcommand with small inputs, plus the default-argument defects."""
    rotations = [(lam, mu, nu) for lam in range(1, 5) for mu in range(1, 5) for nu in range(1, 9)
                 if _real2d_admissible(lam, mu, nu)]
    # families real2d asserts the star identity at t = 1, where Q(1) = nu^2;
    # it holds only when nu has the parity of lambda + mu
    lam, mu, nu = prng.choice([r for r in rotations if (r[2] - r[0] - r[1]) % 2 == 0])
    vlam, vmu, vnu = prng.choice(rotations)
    branch = prng.choice([k for k in range(-3, 4) if k])
    small = [k for k in range(-4, 5) if k]
    while True:
        dl, dm = prng.choice(small), prng.choice(small)
        if dl + dm:
            break
    while True:
        m1, m2, n1, n2 = (prng.randint(1, 9) for _ in range(4))
        if m1 != m2 and m1 + m2 != n1 + n2 and n1 != n2:
            break
    products = [f"{prng.randint(1, 9)}/{prng.randint(1, 4)}" for _ in range(3)]

    def rot(key, a, b, c):
        return Pair(key, "rotation", None, None, {"lam": a, "mu": b, "nu": c})

    t6, t5 = tuple(range(1, 7)), tuple(range(1, 6))
    return [
        Command(["verify", "--builtin", "intro", "--t", "1..6"],
                verdicts=rot("intro", 60, 241, 209), t_values=t6),
        Command(["verify", "--builtin", "real2d", "--lambda", str(vlam), "--mu", str(vmu),
                 "--nu", str(vnu), "--swap"], verdicts=rot("real2d", vlam, vmu, vnu), t_values=t5),
        Command(["verify", "--builtin", "real2d"], known_defect=True),
        Command(["verify", "--builtin", "theorem2", "--u-branch", str(branch), "--swap",
                 "--t-complex", "0.5,0.25"],
                verdicts=Pair("theorem2", "theorem2", None, None, {}), t_values=t5),
        Command(["verify", "--builtin", "dim2case1", "--lambda", str(dl), "--mu", str(dm),
                 "--swap", "--triangularizable"],
                verdicts=Pair("dim2case1", "dim2case1", None, None, {"lam": dl, "mu": dm}),
                t_values=t5),
        Command(["families", "intro"]),
        Command(["families", "real2d", "--lambda", str(lam), "--mu", str(mu), "--nu", str(nu)]),
        Command(["families", "real2d"], known_defect=True),
        Command(["families", "theorem2", "--u-branch", str(branch)]),
        Command(["families", "dim2case1", "--lambda", str(dl), "--mu", str(dm)]),
        Command(["families", "iii2"]),
        Command(["families", "iii2", "--form", "a1", "--m", "1", "2", "0", "--l1", "6"]),
        Command(["families", "iii2", "--form", "a2", "--m", "1", "2", "0", "--l1", "6"]),
        Command(["families", "iii2", "--form", "a3"]),
        Command(["families", "iii2", "--form", "a4"]),
        Command(["families", "iii2ii", "--m", "1"]),
        Command(["families", "iii2ii"], known_defect=True),
        Command(["solve-u", "--k", f"-{prng.randint(1, 3)}..{prng.randint(1, 3)}"]),
        Command(["search", "a1-discriminant", "--m", str(m1), str(m2), "--n", str(n1), str(n2),
                 "--nmax", "200"]),
        Command(["search", "iii2ii-discriminant", "--m", str(prng.randint(1, 5)),
                 "--products", *products, "--nmax", "200"]),
        Command(["search", "iii4", "--box", "3", "--n", str(prng.randint(2, 3))]),
    ]


def strip_wall_clock(stdout: str) -> str:
    """The report minus its one nondeterministic line, for byte comparison."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.lstrip().startswith('"wall_clock_seconds"'))


def judge_cli(command: Command, returncode: int, stdout: str) -> str | None:
    import json

    if returncode != 0:
        return f"exit {returncode}, expected 0"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not a JSON report ({exc.msg})"
    claim = report.get("claim") or {}
    if claim.get("reproduced") is not True:
        return f"claim not reproduced: {claim.get('detail')}"
    if command.verdicts is not None:
        expected = _exact_expectations(command.verdicts, command.t_values)
        actual = {_verdict_key(v["relation"], v["t"]): v["holds"]
                  for v in report["payload"]["verdicts"]}
        if "--swap" not in command.argv:
            expected = {k: v for k, v in expected.items() if k[0] != "sum-product-swapped"}
        reason = _compare(expected, actual)
        if reason:
            return reason
        for v in report["payload"]["complex_t_verdicts"]:
            if command.verdicts.kind == "theorem2" and not v["holds"]:
                return f"star fails at complex t={v['t']}"
    return None
