"""Command-line surface: verify, solve-u, search, families.

Exit code contract: 0 when the command ran and its builtin claim was
reproduced, 2 when the computation ran but the claim failed, 1 for usage,
validation, or I/O problems.

Reports are JSON envelopes (schemas/report.schema.json).  Payloads are
deterministic across runs; floats serialize as shortest round-trip decimals
(<= 17 significant digits).  Matrices travel in their own JSON format
(schemas/matrix.schema.json) whose "pi" scale stores the integer part of
pi-scaled entries exactly.

Every report, and every matrix file read with -f/-g, is checked against
those schema files by a built-in validator with draft 2020-12 semantics.
It implements the keywords the two schemas use: type, const, enum,
required, properties, additionalProperties (false only), items,
prefixItems, minItems, maxItems, minimum and maximum, and ignores $schema,
$id, title and description.  A schema with any other keyword is refused
(SchemaError), so a schema edit cannot go unchecked.  A document that does
not match raises SchemaError with its JSON path: exit code 1.

Start-up cost (medians of fresh processes with compiled bytecode and one
BLAS thread, 2-vCPU VM): each command imports what it uses inside the
command.  Only ``verify`` and ``families`` load numpy, the numeric modules
(numkernel, expmkit, relations, simtrig, families) and hashlib, which
digests their inputs.  ``solve-u`` loads ``uset`` alone and the three
``search`` cases ``intsearch`` and fractions, all in pure Python,
``--alpha`` included: ~27-28 ms a process, against ~22 ms for one that
exits at once, while ``verify --builtin intro`` and ``families iii2`` take
~66 ms, against ~57 ms for one that imports numpy and exits.
The process entry (``entry``, for ``python -m commexp.cli`` and the
``commexp`` script) makes a process pay only for its command.  It runs
``main`` with the cyclic collector off, which skips the ~30 collections
that the numpy and numeric-module imports would trigger (~2.5 ms of a
numeric command); the process ends before uncollected cycles matter.  It
then flushes stdout and stderr itself, so that a stdout closed by its
reader is reported as an I/O error, and leaves through ``os._exit``, which
skips interpreter teardown: module cleanup and the final collection
(~1.5-2 ms).  ``main`` itself does none of this, as tests call it
in-process.  No module of the package imports ``dataclasses``, which with
the ``inspect`` it loads costs ~4 ms where numpy is not loaded.  The records that validate nothing
(``Spectrum``, ``RelationVerdict``, ``RelationReport``, ``TrigVerdict``,
``SearchOutcome``, ``Survivor``, ``URoot``, ``Family``) are NamedTuples,
and the validated ones (``CMat``, ``TScanConfig``, the parameter records
and ``SquarePoly``) are slots classes on ``frozen.Frozen``: ~0.05 ms and
~0.005 ms to build at import, against ~0.42 ms as a frozen dataclass.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import re
import sys
import time
from importlib import resources
from typing import TYPE_CHECKING, NoReturn

from .errors import CommexpError, SchemaError

if TYPE_CHECKING:
    from .intsearch import SearchOutcome
    from .numkernel import CMat

SCHEMA_VERSION = 1
# the values of families.III2Form, the keys of families.FAMILIES and those of
# its records that predict verdicts, spelled out (as are the family defaults
# in the help texts) so that building the parser imports no numeric module
III2_FORMS = ("symmetric-rank1", "a1", "a2", "a3", "a4")
FAMILY_NAMES = ("intro", "real2d", "theorem2", "dim2case1", "iii2", "iii2ii")
BUILTINS = FAMILY_NAMES[:4]
# the t values at which ``families`` judges a record's star verdicts: through
# t = 6, where the intro pair's identity first fails (over all integers it
# holds exactly at t = -294, 0, 1..5 and 299)
FAMILY_T = tuple(range(1, 7))


class UsageError(Exception):
    pass


_NEGATIVE_VALUE = re.compile(r"-\.?\d\S*")  # no option of this CLI starts with a digit


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); 2 is reserved for claim-failed
        raise UsageError(message)

    def _parse_optional(self, arg_string):
        # argparse reads -1 and -0.5 as values, not options; read -1/2, -3..-1
        # and -0.5,-0.25 the same way
        if _NEGATIVE_VALUE.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


# ---------------------------------------------------------------------------
# JSON helpers


# what the two schemas use; validate ignores the four annotations
_KEYWORDS = frozenset({
    "$schema", "$id", "title", "description",
    "type", "const", "enum", "required", "properties", "additionalProperties",
    "items", "prefixItems", "minItems", "maxItems", "minimum", "maximum",
})


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer()),
}


def _json_equal(a, b) -> bool:
    # JSON equality, as const and enum compare: 1 == 1.0, but true != 1
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_json_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_json_equal(a[k], b[k]) for k in a)
    return a == b


def check_schema(schema: dict, path: str = "#") -> None:
    """Raise SchemaError if the schema uses anything ``validate`` does not implement."""
    types = schema.get("type", [])
    unknown = schema.keys() - _KEYWORDS
    unknown |= ({types} if isinstance(types, str) else set(types)) - _TYPES.keys()
    if schema.get("additionalProperties", False) is not False:
        unknown.add("additionalProperties")
    if unknown:
        raise SchemaError(f"schema {path}: unsupported keywords or types {sorted(unknown)}")
    for key, sub in schema.get("properties", {}).items():
        check_schema(sub, f"{path}/properties/{key}")
    for i, sub in enumerate(schema.get("prefixItems", [])):
        check_schema(sub, f"{path}/prefixItems/{i}")
    if "items" in schema:
        check_schema(schema["items"], f"{path}/items")


def validate(instance, schema: dict, path: str = "$") -> None:
    """Raise SchemaError, naming the JSON path, unless ``instance`` matches ``schema``."""
    def fail(what):
        raise SchemaError(f"{path}: {what}")

    if "type" in schema:
        names = [schema["type"]] if isinstance(schema["type"], str) else schema["type"]
        if not any(_TYPES[name](instance) for name in names):
            fail(f"{instance!r:.60} is not of type {' or '.join(names)}")
    if "const" in schema and not _json_equal(instance, schema["const"]):
        fail(f"{instance!r:.60} is not {schema['const']!r}")
    if "enum" in schema and not any(_json_equal(instance, v) for v in schema["enum"]):
        fail(f"{instance!r:.60} is not one of {schema['enum']!r}")
    if isinstance(instance, dict):
        properties = schema.get("properties", {})
        missing = [key for key in schema.get("required", []) if key not in instance]
        if missing:
            fail(f"missing required keys {missing}")
        if "additionalProperties" in schema and instance.keys() - properties.keys():
            fail(f"unexpected keys {sorted(instance.keys() - properties.keys())}")
        for key, sub in properties.items():
            if key in instance:
                validate(instance[key], sub, f"{path}.{key}")
    elif isinstance(instance, list):
        if not schema.get("minItems", 0) <= len(instance) <= schema.get("maxItems", math.inf):
            fail(f"has {len(instance)} items, expected {schema.get('minItems', 0)}"
                 f"..{schema.get('maxItems', 'any')}")
        prefix = schema.get("prefixItems", [])
        for i, item in enumerate(instance):
            sub = prefix[i] if i < len(prefix) else schema.get("items")
            if sub is not None:
                validate(item, sub, f"{path}[{i}]")
    elif _is_number(instance):
        low, high = schema.get("minimum", -math.inf), schema.get("maximum", math.inf)
        if not low <= instance <= high:
            fail(f"{instance!r} is outside [{low}, {high}]")


@functools.cache
def _schema(name: str) -> dict:
    schema = json.loads(resources.files("commexp.schemas").joinpath(name).read_text())
    check_schema(schema, name)
    return schema


# exact types only: np.float64 subclasses float and must go through .item()
_JSON_LEAVES = frozenset({str, int, float, bool, type(None)})


def _jsonable(obj):
    if type(obj) in _JSON_LEAVES:
        return obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    # a Fraction or a numpy value can exist only once its module is loaded
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return str(obj)
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return obj.item()
        if isinstance(obj, np.complexfloating):
            return [float(obj.real), float(obj.imag)]
        if isinstance(obj, np.ndarray):
            return _jsonable(obj.tolist())
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, float, str)):
        return obj
    raise TypeError(f"cannot serialize {type(obj)!r}")


def matrix_to_obj(m: CMat) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "dim": m.dim,
        "scale": "pi" if m.pi_scaled else "one",
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m.entries],
    }


def matrix_from_obj(obj: dict) -> CMat:
    import numpy as np

    from .numkernel import CMat

    validate(obj, _schema("matrix.schema.json"))
    rows = obj["entries"]
    if len(rows) != obj["dim"] or any(len(row) != obj["dim"] for row in rows):
        raise UsageError(
            f"entries with row lengths {[len(row) for row in rows]} inconsistent "
            f"with dim {obj['dim']}"
        )
    entries = np.array([[complex(x, y) for x, y in row] for row in rows], dtype=complex)
    return CMat(entries, pi_scaled=obj["scale"] == "pi")


def save_matrix_file(path: str, m: CMat):
    with open(path, "w") as fp:
        json.dump(matrix_to_obj(m), fp, indent=2)
        fp.write("\n")


def load_matrix_file(path: str) -> CMat:
    try:
        with open(path) as fp:
            obj = json.load(fp)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})")
    try:
        return matrix_from_obj(obj)
    except (SchemaError, UsageError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def _digest_file(path: str) -> str:
    import hashlib

    with open(path, "rb") as fp:
        return hashlib.sha256(fp.read()).hexdigest()


def _digest_params(kind: str, params: dict) -> str:
    import hashlib

    blob = json.dumps({"kind": kind, "params": _jsonable(params)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def emit_report(args, inputs, tolerances, payload, claim, started, out_path=None) -> int:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": list(args),
        "inputs": _jsonable(inputs),
        "tolerances": _jsonable(tolerances),
        "payload": _jsonable(payload),
        "claim": _jsonable(claim),
        "wall_clock_seconds": time.monotonic() - started,
    }
    validate(report, _schema("report.schema.json"))
    text = json.dumps(report, indent=2)
    if out_path:
        with open(out_path, "w") as fp:
            fp.write(text + "\n")
    else:
        print(text)
    if claim is not None and not claim["reproduced"]:
        return 2
    return 0


# ---------------------------------------------------------------------------
# small parsers


def parse_int_range(spec: str) -> list[int]:
    text = spec.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        values = list(range(int(lo), int(hi) + 1))
    elif "," in text:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    else:
        values = [int(text)]
    if not values:
        raise UsageError(f"the integer range {spec!r} is empty")
    return values


def parse_complex(spec: str) -> complex:
    if "," in spec:
        re, im = spec.split(",", 1)
        z = complex(float(re), float(im))
    else:
        z = complex(float(spec), 0.0)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise UsageError(f"the complex value {spec!r} is not finite")
    return z


# ---------------------------------------------------------------------------
# builtin pair construction


def _build_family(name: str, ns):
    """(record, F, G, report inputs) of family ``name``, built from the flags in ``ns``."""
    from . import families

    record = families.FAMILIES[name]
    return (record, *record.build(record.resolve(vars(ns))))


def _verdict_obj(v) -> dict:
    return {
        "relation": v.relation.value,
        "t": v.t,
        "holds": v.holds,
        "residual": v.residual,
        "tol": v.tol,
    }


# ---------------------------------------------------------------------------
# commands


def cmd_verify(ns, argv) -> int:
    from .relations import RelationKind, TScanConfig, relation_report

    started = time.monotonic()
    t_complex = [parse_complex(spec) for spec in ns.t_complex or []]
    cfg = TScanConfig((*parse_int_range(ns.t), *t_complex), ns.tol)
    if ns.builtin:
        record, f, g, params = _build_family(ns.builtin, ns)
        inputs = {"builtin": ns.builtin, "digest": _digest_params(ns.builtin, params), **params}
    else:
        if not (ns.f and ns.g):
            raise UsageError("need either --builtin NAME or both -f and -g matrix files")
        f = load_matrix_file(ns.f)
        g = load_matrix_file(ns.g)
        inputs = {"f": {"path": ns.f, "sha256": _digest_file(ns.f)},
                  "g": {"path": ns.g, "sha256": _digest_file(ns.g)}}
    report = relation_report(
        f, g, cfg, pair=ns.builtin or "files",
        include_triangularizable=ns.triangularizable,
    )
    # integer t: every verdict, swapped star only with --swap; complex t: star only
    verdicts, extra = [], []
    for v in report.verdicts:
        if isinstance(v.t, complex):
            if v.relation is RelationKind.SUM_PRODUCT:
                extra.append(v)
        elif ns.swap or v.relation is not RelationKind.SUM_PRODUCT_SWAPPED:
            verdicts.append(v)
    payload = {
        "pair": report.pair,
        "verdicts": [_verdict_obj(v) for v in verdicts],
        "complex_t_verdicts": [_verdict_obj(v) for v in extra],
        "congruence_free": {
            "f": report.congruence_free[0],
            "g": report.congruence_free[1],
            "f_plus_g": report.congruence_free[2],
        },
        "sim_triangularizable": report.sim_triangularizable,
    }
    claim = None
    if ns.builtin:
        mismatches = [f"{key}: expected holds={want}, got {got}"
                      for key, (want, got) in record.judge(params, verdicts + extra).items()
                      if want != got]
        claim = {
            "name": ns.builtin,
            "reproduced": not mismatches,
            "detail": "; ".join(mismatches) or "all expected verdicts reproduced",
        }
    return emit_report(argv, inputs, {"tol": ns.tol}, payload, claim, started, ns.out)


def cmd_solve_u(ns, argv) -> int:
    from . import uset

    started = time.monotonic()
    ks = parse_int_range(ns.k)
    wanted = [k for k in ks if k != 0]
    if not wanted:
        raise UsageError("the k = 0 branch holds only the excluded root u = 0")
    roots = uset.enumerate_u(min(wanted), max(wanted))
    roots = [r for r in roots if r.branch_hint in set(wanted)]
    payload = {
        "roots": [
            {"value": r.value, "residual": r.residual, "branch_hint": r.branch_hint}
            for r in roots
        ],
    }
    reproduced = len(roots) == len(wanted) and all(
        r.residual <= uset.RESIDUAL_TARGET for r in roots
    )
    detail = f"{len(roots)} roots for {len(wanted)} requested branches"
    reference = 2.0888 + 7.4615j
    if 1 in wanted:
        hit = next((r for r in roots if r.branch_hint == 1), None)
        if hit is None or abs(hit.value - reference) > 2e-3:
            reproduced = False
            detail += "; branch 1 missed the reference root"
        else:
            detail += f"; branch 1 within {abs(hit.value - reference):.1e} of {reference}"
    claim = {"name": "u-roots", "reproduced": reproduced, "detail": detail}
    tolerances = {"residual_target": uset.RESIDUAL_TARGET, "dedup": uset.DEDUP_TOL}
    return emit_report(argv, {"k": ns.k}, tolerances, payload, claim, started, ns.out)


def _outcome_payload(outcome: SearchOutcome) -> dict:
    return {
        "survivors": [
            {"params": s.params, "residuals": s.residuals} for s in outcome.survivors
        ],
        "tuples_scanned": outcome.tuples_scanned,
        "bounds": outcome.bounds,
        "pruned": outcome.pruned,
        "prune_reasons": outcome.prune_reasons,
        "first_failure": outcome.first_failure,
        "metadata": outcome.metadata,
    }


def _discriminant_claim(name: str, outcome: SearchOutcome, nmax: int) -> dict:
    """Reproduced when the scan finds every n square exactly when the
    degeneracy test (``lemma1_decide``) says the discriminant is a square."""
    decide = outcome.metadata["lemma1_decide"]
    failure = outcome.first_failure
    if decide == (failure is None):
        detail = (f"degenerate discriminant, square for all n <= {nmax}" if decide
                  else f"squareness first fails at n = {failure}")
        return {"name": name, "reproduced": True, "detail": detail}
    detail = (f"degenerate discriminant, yet squareness first fails at n = {failure}" if decide
              else f"non-degenerate discriminant, yet square for all n <= {nmax}")
    return {"name": name, "reproduced": False,
            "detail": "squareness pattern contradicts the degeneracy test: " + detail}


def cmd_search(ns, argv) -> int:
    from fractions import Fraction

    from . import intsearch

    started = time.monotonic()
    if ns.case == "iii4":
        if len(ns.n_values) != 1:
            raise UsageError("iii4 takes a single --n (the scale integer)")
        n = ns.n_values[0]
        outcome = intsearch.grobner_replacement_search(ns.box, n)
        if n >= 2:
            reproduced = not outcome.survivors
            detail = (
                f"no consistent scaling with n={n} inside the box"
                if reproduced else f"{len(outcome.survivors)} unexpected survivors"
            )
        else:
            bases = {s.params[:7] for s in outcome.survivors}
            reproduced = len(bases) == outcome.tuples_scanned
            detail = f"{len(bases)} of {outcome.tuples_scanned} base tuples survive identity scaling"
        claim = {"name": "iii4-search", "reproduced": reproduced, "detail": detail}
        inputs = {"box": ns.box, "n": n}
    elif ns.case == "a1-discriminant":
        if len(ns.m) != 2 or len(ns.n_values) != 2:
            raise UsageError("a1-discriminant needs --m M1 M2 and --n N1 N2")
        m1, m2 = ns.m
        n1, n2 = ns.n_values
        outcome = intsearch.discriminant_scan_A1(m1, m2, n1, n2, ns.nmax)
        claim = _discriminant_claim("a1-discriminant", outcome, ns.nmax)
        inputs = {"m": ns.m, "n": ns.n_values, "nmax": ns.nmax}
    else:
        if len(ns.m) != 1:
            raise UsageError("iii2ii-discriminant takes a single --m")
        m_val = ns.m[0]
        if ns.products:
            products = tuple(Fraction(p) for p in ns.products)
        elif len(ns.n_values) == 2 and ns.alpha is not None:
            n1, n2 = ns.n_values
            products = intsearch.iii2ii_products(m_val, n1, n2, Fraction(ns.alpha))
        else:
            raise UsageError("need --products P1 P2 P3 or --n N1 N2 with --alpha")
        outcome = intsearch.discriminant_scan_III2ii(products, m_val, ns.nmax)
        claim = _discriminant_claim("iii2ii-discriminant", outcome, ns.nmax)
        inputs = {"m": m_val, "products": [str(p) for p in products], "nmax": ns.nmax}
    return emit_report(
        argv, inputs, {}, _outcome_payload(outcome), claim, started, ns.out
    )


def _spectrum_obj(m) -> dict:
    from .numkernel import eigen_decompose

    spec = eigen_decompose(m)
    return {
        "eigenvalues": list(spec.eigenvalues),
        "distinct_count": spec.distinct_count,
        "snap": list(spec.snap) if spec.snap is not None else None,
    }


def cmd_families(ns, argv) -> int:
    from .numkernel import combine_affine
    from .relations import DEFAULT_TOL, TScanConfig, relation_report

    started = time.monotonic()
    record, f, g, params = _build_family(ns.name, ns)
    inputs = {"family": ns.name, **params}
    inputs["digest"] = _digest_params(ns.name, inputs)
    checks = {}
    if record.expected:
        report = relation_report(f, g, TScanConfig(FAMILY_T, DEFAULT_TOL))
        judged = record.judge(params, report.verdicts)
        checks = {key: want == got for key, (want, got) in judged.items()}
    checks.update(record.checks(f, g, params))
    if ns.out_files:
        save_matrix_file(ns.out_files[0], f)
        save_matrix_file(ns.out_files[1], g)
    payload = {
        "f": matrix_to_obj(f),
        "g": matrix_to_obj(g),
        "spectra": {
            "f": _spectrum_obj(f),
            "g": _spectrum_obj(g),
            "f_plus_g": _spectrum_obj(combine_affine(f, g, 1.0)),
        },
        "checks": checks,
    }
    claim = {
        "name": f"families-{ns.name}",
        "reproduced": all(checks.values()),
        "detail": "; ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items()),
    }
    return emit_report(argv, inputs, {}, payload, claim, started, ns.out)


# ---------------------------------------------------------------------------
# parser


def _add_family_flags(p):
    # the flags of the d = 2 families, shared by verify --builtin and families
    p.add_argument("--lambda", dest="lam", type=int, help="default 1 (real2d, dim2case1)")
    p.add_argument("--mu", type=int, help="default 2 (real2d) or 1 (dim2case1)")
    p.add_argument("--nu", type=int, help="default 5 (real2d)")
    p.add_argument("--a", type=float, help="default 0.0 (real2d)")
    p.add_argument("--u-branch", dest="u_branch", type=int, help="default 1 (theorem2)")


def build_parser() -> _Parser:
    parser = _Parser(prog="commexp", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="relation report for a matrix pair")
    pv.add_argument("--builtin", choices=BUILTINS)
    pv.add_argument("-f", help="JSON matrix file for F")
    pv.add_argument("-g", help="JSON matrix file for G")
    pv.add_argument("--t", default="1..5", help="integer t values, e.g. 1..6 or 1,2,5")
    pv.add_argument("--t-complex", nargs="*", help="extra complex t values as re,im")
    pv.add_argument("--tol", type=float, default=1e-9)
    pv.add_argument("--swap", action="store_true",
                    help="include the swapped product exp(G)exp(tF) verdicts")
    pv.add_argument("--triangularizable", action="store_true",
                    help="include the simultaneous-triangularizability verdict")
    _add_family_flags(pv)
    pv.add_argument("-o", "--out", help="write the report here instead of stdout")
    pv.set_defaults(func=cmd_verify)

    pu = sub.add_parser("solve-u", help="roots of e^u = 1 + u by branch index")
    pu.add_argument("--k", required=True, help="branch index or range, e.g. 1 or -3..3")
    pu.add_argument("-o", "--out")
    pu.set_defaults(func=cmd_solve_u)

    ps = sub.add_parser("search", help="exact integer scans")
    ps.add_argument("case", choices=["iii4", "a1-discriminant", "iii2ii-discriminant"])
    ps.add_argument("--box", type=int, default=4)
    ps.add_argument("--n", dest="n_values", nargs="+", type=int, default=[2],
                    help="scale integer for iii4, or the pair N1 N2 for the scans")
    ps.add_argument("--m", nargs="+", type=int, default=[1],
                    help="m values (two for a1, one for iii2ii)")
    ps.add_argument("--alpha", help="rational alpha, e.g. 1 or 3/2")
    ps.add_argument("--products", nargs=3, help="a1b1 a2b2 a3b3 as rationals")
    ps.add_argument("--nmax", type=int, default=50)
    ps.add_argument("-o", "--out")
    ps.set_defaults(func=cmd_search)

    pf = sub.add_parser("families", help="construct an exhibited pair, emit matrices")
    pf.add_argument("name", choices=FAMILY_NAMES)
    _add_family_flags(pf)
    pf.add_argument("--l1", type=int,
                    help="default 3 (iii2) or 6 (iii2 --form a1, iii2 --form a2)")
    pf.add_argument("--m", nargs="+", type=int,
                    help="default 1 2 3 (iii2), 1 2 0 (iii2 --form a1, iii2 --form a2) "
                         "or 1 (iii2ii)")
    pf.add_argument("--n", dest="n_pair", nargs=2, type=int, default=[4, 5])
    pf.add_argument("--alpha", default="1")
    pf.add_argument("--form", default="symmetric-rank1", choices=III2_FORMS)
    pf.add_argument("-o", "--out-files", nargs=2, help="write F and G matrix files")
    pf.add_argument("--out", help="write the report here instead of stdout")
    pf.set_defaults(func=cmd_families)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.func(ns, argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CommexpError, OSError, ValueError, OverflowError) as exc:
        # OverflowError: an exact search past intsearch's integer budget
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> NoReturn:
    """Process entry of ``python -m commexp.cli`` and the ``commexp`` script:
    ``main`` with the cyclic collector off, an explicit flush of both
    streams, then ``os._exit`` with ``main``'s code, skipping interpreter
    teardown.  A stdout closed by its reader fails that flush, which is
    reported as any other I/O error: one ``error:`` line and code 1."""
    gc.disable()
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = 1
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
