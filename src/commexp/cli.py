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

Each command, and each case of ``search``, declares only the flags it
reads, with their arity, and a flag it does not read is a usage error
(exit code 1), never an input that changes nothing.  ``search`` has one
subcommand per case: ``iii4`` takes ``--box`` and the scale ``--n N``;
``a1-discriminant`` takes ``--m M1 M2``, ``--n N1 N2`` and ``--nmax``;
``iii2ii-discriminant`` takes ``--m M``, ``--nmax`` and either
``--products P1 P2 P3`` or ``--alpha A`` with ``--n N1 N2``.  The family
flags (``FAMILY_FLAGS``) have no default in the parser: each family's
defaults are held by its ``families.FAMILIES`` record, whose keys are the
flags the family takes, and ``families NAME`` and ``verify --builtin NAME``
alike refuse any other family flag, naming it.  ``verify`` takes either
``--builtin`` or both ``-f`` and ``-g``, and family flags only with
``--builtin``.

One path writes every report.  Each command is a builder,
``cmd_*(ns) -> (inputs, tolerances, payload, claim)``, that returns its
report and writes nothing else (``families -o`` aside, which writes the
matrix files).  ``main`` is the one place that reads the clock, calls
``emit_report`` and maps the claim to the exit code.  ``emit_report`` writes
the envelope with one ``json.dumps(indent=2)`` whose ``default``,
``_json_leaf``, turns a complex number into [re, im], a Fraction into its
string and a numpy scalar or array into ``.tolist()``; it validates
``json.loads`` of that very text before writing it.  The clock starts just
before the builder runs, so ``wall_clock_seconds`` includes the command's
own imports (numpy and the numeric modules for ``verify`` and ``families``).

Start-up cost: each command imports what it uses inside the command.
Only ``verify`` and ``families`` load numpy, the numeric modules
(numkernel, expmkit, relations, simtrig, families) and the interpreter's
built-in sha256 module, which digests their inputs (``hashlib`` only where
no built-in one exists).  ``solve-u`` loads ``uset`` alone and the three
``search`` cases ``intsearch`` and fractions, all in pure Python,
``--alpha`` included, so they cost little more than a process that exits
at once, and a numeric command little more than one that imports numpy
and exits.  The process entry (``entry``, for ``python -m commexp.cli``
and the ``commexp`` script) makes a process pay only for its command.  It
runs ``main`` with the cyclic collector off, which skips the collections
that the numpy and numeric-module imports would trigger; the process ends
before uncollected cycles matter.  It then flushes stdout and stderr
itself, so that a stdout closed by its reader is reported as an I/O
error, and leaves through ``os._exit``, which skips interpreter teardown:
module cleanup and the final collection.  ``main`` itself does none of
this, as tests call it in-process.  No module of the package imports
``dataclasses``, which loads ``inspect``, a sizeable import where numpy is
not loaded.  The records that validate nothing (``Spectrum``,
``RelationVerdict``, ``RelationReport``, ``TrigVerdict``,
``SearchOutcome``, ``Survivor``, ``URoot``, ``Family``) are NamedTuples,
and the validated ones (``CMat``, ``TScanConfig``, the parameter records
and ``SquarePoly``) are slots classes on ``frozen.Frozen``, each cheaper
to build at import than a frozen dataclass.
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
# the dest and the option of each family flag; a family takes the flags whose
# dests key its record's defaults
FAMILY_FLAGS = {"lam": "--lambda", "mu": "--mu", "nu": "--nu", "a": "--a",
                "u_branch": "--u-branch", "l1": "--l1", "m": "--m", "n_pair": "--n",
                "alpha": "--alpha", "form": "--form"}
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


def _json_leaf(obj):
    """The ``default`` of every ``json.dumps`` here: complex as [re, im], a
    Fraction as its string, a numpy scalar or array as ``.tolist()``."""
    if isinstance(obj, complex):
        return [float(obj.real), float(obj.imag)]
    # a Fraction or a numpy value can exist only once its module is loaded
    fractions, np = sys.modules.get("fractions"), sys.modules.get("numpy")
    if fractions is not None and isinstance(obj, fractions.Fraction):
        return str(obj)
    if np is not None and isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
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


@functools.cache
def _sha256():
    """The sha256 constructor of the interpreter's built-in module: ``_sha2``
    (Python 3.12 on) or ``_sha256``, else ``hashlib``'s.  The digests are the
    same, and the built-in module loads an order of magnitude faster than
    ``hashlib`` with its OpenSSL backend, which is a measurable share of a
    whole ``verify --builtin intro`` or ``families iii2`` process."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256


def _digest_file(path: str) -> str:
    with open(path, "rb") as fp:
        return _sha256()(fp.read()).hexdigest()


def _digest_params(kind: str, params: dict) -> str:
    blob = json.dumps({"kind": kind, "params": params}, sort_keys=True, default=_json_leaf)
    return _sha256()(blob.encode()).hexdigest()


def emit_report(argv: list[str], report: tuple, started: float, out_path=None) -> None:
    """Write a command's report, (inputs, tolerances, payload, claim), in its
    envelope to ``out_path`` or stdout, after validating the text written."""
    inputs, tolerances, payload, claim = report
    envelope = {
        "schema_version": SCHEMA_VERSION,
        "command": argv,
        "inputs": inputs,
        "tolerances": tolerances,
        "payload": payload,
        "claim": claim,
        "wall_clock_seconds": time.monotonic() - started,
    }
    text = json.dumps(envelope, indent=2, default=_json_leaf)
    validate(json.loads(text), _schema("report.schema.json"))
    if out_path:
        with open(out_path, "w") as fp:
            fp.write(text + "\n")
    else:
        print(text)


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


def _family_flags(ns, takes, why: str) -> dict:
    """{dest: value} of the family flags given in ``ns``; a usage error,
    naming the flag as typed and ``why``, for one not in ``takes``."""
    given = {dest: getattr(ns, dest) for dest in FAMILY_FLAGS
             if getattr(ns, dest, None) is not None}
    for dest in given:
        if dest not in takes:
            raise UsageError(f"{FAMILY_FLAGS[dest]} {why}")
    return given


def _build_family(name: str, ns):
    """(record, F, G, report inputs) of family ``name``, built from the
    family flags given in ``ns``, each one that the family's record takes."""
    from . import families

    record = families.FAMILIES[name]
    given = _family_flags(ns, record.defaults.keys(), f"does not apply to {name}")
    return (record, *record.build(record.resolve(given)))


def _verdict_obj(v) -> dict:
    return {"relation": v.relation.value, "t": v.t, "holds": v.holds,
            "residual": v.residual, "tol": v.tol}


# ---------------------------------------------------------------------------
# commands


def cmd_verify(ns) -> tuple:
    from .relations import RelationKind, TScanConfig, relation_report

    t_complex = [parse_complex(spec) for spec in ns.t_complex or []]
    cfg = TScanConfig((*parse_int_range(ns.t), *t_complex), ns.tol)
    if ns.builtin:
        if ns.f or ns.g:
            raise UsageError("--builtin excludes -f and -g")
        record, f, g, params = _build_family(ns.builtin, ns)
        inputs = {"builtin": ns.builtin, "digest": _digest_params(ns.builtin, params), **params}
    else:
        if not (ns.f and ns.g):
            raise UsageError("need either --builtin NAME or both -f and -g matrix files")
        _family_flags(ns, (), "needs --builtin")
        f, g = load_matrix_file(ns.f), load_matrix_file(ns.g)
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
    return inputs, {"tol": ns.tol}, payload, claim


def cmd_solve_u(ns) -> tuple:
    from . import uset

    ks = parse_int_range(ns.k)
    wanted = set(ks) - {0}
    if not wanted:
        raise UsageError("the k = 0 branch holds only the excluded root u = 0")
    roots = uset.enumerate_u(min(wanted), max(wanted))
    roots = [r for r in roots if r.branch_hint in wanted]
    payload = {"roots": [r._asdict() for r in roots]}
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
    return {"k": ns.k}, tolerances, payload, claim


def _outcome_payload(outcome: SearchOutcome) -> dict:
    return {**outcome._asdict(), "survivors": [s._asdict() for s in outcome.survivors]}


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


def cmd_search_iii4(ns) -> tuple:
    from . import intsearch

    outcome = intsearch.grobner_replacement_search(ns.box, ns.n)
    if ns.n >= 2:
        reproduced = not outcome.survivors
        detail = (f"no consistent scaling with n={ns.n} inside the box" if reproduced
                  else f"{len(outcome.survivors)} unexpected survivors")
    else:
        bases = {s.params[:7] for s in outcome.survivors}
        reproduced = len(bases) == outcome.tuples_scanned
        detail = f"{len(bases)} of {outcome.tuples_scanned} base tuples survive identity scaling"
    claim = {"name": "iii4-search", "reproduced": reproduced, "detail": detail}
    return {"box": ns.box, "n": ns.n}, {}, _outcome_payload(outcome), claim


def cmd_search_a1(ns) -> tuple:
    from . import intsearch

    outcome = intsearch.discriminant_scan_A1(*ns.m, *ns.n, ns.nmax)
    claim = _discriminant_claim("a1-discriminant", outcome, ns.nmax)
    return {"m": ns.m, "n": ns.n, "nmax": ns.nmax}, {}, _outcome_payload(outcome), claim


def cmd_search_iii2ii(ns) -> tuple:
    from fractions import Fraction

    from . import intsearch

    if (ns.alpha is None) != (ns.n is None):  # argparse keeps --products apart from --alpha
        raise UsageError("--alpha and --n N1 N2 come together, in place of --products")
    if ns.products:
        products = tuple(Fraction(p) for p in ns.products)
    else:
        products = intsearch.iii2ii_products(ns.m, *ns.n, Fraction(ns.alpha))
    outcome = intsearch.discriminant_scan_III2ii(products, ns.m, ns.nmax)
    claim = _discriminant_claim("iii2ii-discriminant", outcome, ns.nmax)
    inputs = {"m": ns.m, "products": [str(p) for p in products], "nmax": ns.nmax}
    return inputs, {}, _outcome_payload(outcome), claim


def _spectrum_obj(m) -> dict:
    from .numkernel import eigen_decompose

    spec = eigen_decompose(m)
    return {
        "eigenvalues": list(spec.eigenvalues),
        "distinct_count": spec.distinct_count,
        "snap": list(spec.snap) if spec.snap is not None else None,
    }


def cmd_families(ns) -> tuple:
    from .numkernel import combine_affine
    from .relations import DEFAULT_TOL, TScanConfig, relation_report

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
    return inputs, {}, payload, claim


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

    ps = sub.add_parser("search", help="exact integer scans, one subcommand per case")
    cases = ps.add_subparsers(dest="case", required=True)
    p4, pa, pii = (cases.add_parser(name, help=text, description=text) for name, text in (
        ("iii4", "type-III4 search over the tuples with every |param| <= BOX: at scale "
                 "N >= 2 none survives, and at the identity control N = 1 all do"),
        ("a1-discriminant", "squareness, n = 1..NMAX, of the A1-form discriminant with "
                            "B = diag(M1, M2, 0) and A + B ~ diag(N1, N2, 0)"),
        ("iii2ii-discriminant", "squareness, n = 1..NMAX, of the discriminant of the outer-"
                                "product family against diag(M, 0, 0), from its products "
                                "P1 P2 P3 or from --alpha A with --n N1 N2")))
    p4.add_argument("--box", type=int, default=4, help="default 4")
    p4.add_argument("--n", type=int, default=2, help="the scale integer, default 2")
    pa.add_argument("--m", nargs=2, type=int, required=True, metavar=("M1", "M2"))
    pa.add_argument("--n", nargs=2, type=int, required=True, metavar=("N1", "N2"))
    pii.add_argument("--m", type=int, default=1, help="default 1")
    given = pii.add_mutually_exclusive_group(required=True)
    given.add_argument("--products", nargs=3, metavar=("P1", "P2", "P3"),
                       help="a1b1 a2b2 a3b3 as rationals")
    given.add_argument("--alpha", metavar="A", help="rational alpha, e.g. 1 or 3/2, with --n")
    pii.add_argument("--n", nargs=2, type=int, metavar=("N1", "N2"), help="with --alpha")
    for p in (pa, pii):
        p.add_argument("--nmax", type=int, default=50, help="default 50")
    for p, func in zip((p4, pa, pii), (cmd_search_iii4, cmd_search_a1, cmd_search_iii2ii)):
        p.add_argument("-o", "--out")
        p.set_defaults(func=func)

    pf = sub.add_parser("families", help="construct an exhibited pair, emit matrices")
    pf.add_argument("name", choices=FAMILY_NAMES)
    _add_family_flags(pf)
    pf.add_argument("--l1", type=int,
                    help="default 3 (iii2) or 6 (iii2 --form a1, iii2 --form a2)")
    pf.add_argument("--m", nargs="+", type=int,
                    help="default 1 2 3 (iii2), 1 2 0 (iii2 --form a1, iii2 --form a2) "
                         "or 1 (iii2ii)")
    pf.add_argument("--n", dest="n_pair", nargs=2, type=int, help="default 4 5 (iii2, iii2ii)")
    pf.add_argument("--alpha", help="default 1 (iii2ii)")
    pf.add_argument("--form", choices=III2_FORMS, help="default symmetric-rank1 (iii2)")
    pf.add_argument("-o", "--out-files", nargs=2, help="write F and G matrix files")
    pf.add_argument("--out", help="write the report here instead of stdout")
    pf.set_defaults(func=cmd_families)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        started = time.monotonic()
        report = ns.func(ns)
        emit_report(argv, report, started, ns.out)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CommexpError, OSError, ValueError, ArithmeticError) as exc:
        # ArithmeticError: an exact search past intsearch's integer budget
        # (OverflowError) or a rational input with a zero denominator
        # (ZeroDivisionError)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    claim = report[-1]
    return 2 if claim is not None and not claim["reproduced"] else 0


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
