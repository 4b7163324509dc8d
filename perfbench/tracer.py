"""Span tracer installed around the public functions of each commexp layer.

The wrappers live here, in the benchmark, not in the package.  Each wrapped
name is replaced in every ``commexp`` module namespace that holds it (for
example ``relations.expm`` as well as ``expmkit.expm``), so calls resolved
through any module global are seen.  A name missing from the package is
skipped, which keeps the tracer working when a later change deletes it.

Spans stay in memory as tuples ``(name, start, end, parent, phase, op)`` and are
summarised or written out only when the run ends.  Counters are kept per
phase, so work done while generating inputs ("setup") stays apart from work
done by the measured operations ("ops").
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# layer -> {public function: span name}; families constructors share one span
WRAPPED = {
    "relations": {
        name: f"relations.{name}"
        for name in (
            "relation_report", "scan_integer_t", "check_relation_star",
            "check_commute", "check_exp_equal", "check_exp_swap", "congruence_free",
        )
    },
    "expmkit": {name: f"expmkit.{name}" for name in ("expm", "expm_affine", "log_poly_recover")},
    "numkernel": {
        "eigen_decompose": "numkernel.eigen_decompose",
        "char_poly": "numkernel.char_poly",
        "null_space": "numkernel.null_space",
        "commutator": "numkernel.commutator",
        "spectrum_congruence_free": "numkernel.spectrum_congruence_free",
    },
    "simtrig": {name: f"simtrig.{name}" for name in ("sim_triangularizable", "common_eigenvector")},
    "uset": {name: f"uset.{name}" for name in ("solve_u", "enumerate_u")},
    "families": {
        **{
            name: "families.build"
            for name in (
                "intro_pair", "real2d_family", "theorem2_family", "dim2_case1_pair",
                "case3_III2_matrix", "case3_III2ii_matrix",
            )
        },
        "case3_III4_residuals": "families.case3_III4_residuals",
        "char_poly_nAB": "families.char_poly_nAB",
    },
    "intsearch": {
        "grobner_replacement_search": "intsearch.grobner_replacement_search",
        "discriminant_scan_A1": "intsearch.scan",
        "discriminant_scan_III2ii": "intsearch.scan",
        "lemma1_decide": "intsearch.lemma1_decide",
        "lemma1_witness": "intsearch.lemma1_witness",
    },
    "cli": {"main": "cli.main", "emit_report": "cli.emit_report"},
}


def _integer_t_verdicts(result) -> int:
    verdicts = getattr(result, "verdicts", result)
    if not isinstance(verdicts, (list, tuple)):
        verdicts = (verdicts,)
    count = 0
    for v in verdicts:
        t = getattr(v, "t", None)
        if t is not None and complex(t).imag == 0 and complex(t).real.is_integer():
            count += 1
    return count


class Tracer:
    """Records spans and counters while ``active``; inert otherwise."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.exceptions: Counter = Counter()
        self.active = False
        self.phase = "setup"
        self.op = -1  # index of the running operation; spans of one op share it
        self._stack: list[int] = []
        self._names: list[str] = []
        self._patches: list = []

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every listed function of every loaded commexp module."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "commexp" or name.startswith("commexp."))
        }
        for layer, names in WRAPPED.items():
            home = modules.get(f"commexp.{layer}")
            if home is None:
                continue
            for func_name, span_name in names.items():
                orig = getattr(home, func_name, None)
                if orig is None or not callable(orig):
                    continue
                wrapper = self._wrap(orig, span_name)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- recording ------------------------------------------------------

    def _wrap(self, orig, span_name):
        tracer = self
        vectors_split = span_name == "numkernel.eigen_decompose"

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            name = span_name
            if vectors_split:
                name += ".vectors" if kwargs.get("want_vectors", True) else ".novectors"
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            under_relations = any(n.startswith("relations.") for n in tracer._names)
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            tracer._names.append(name)
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            except BaseException:
                tracer.exceptions[name] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._names.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.phase, tracer.op)
            tracer._count(name, result, under_relations)
            return result

        return wrapper

    def _count(self, name, result, under_relations):
        def bump(key, amount=1):
            self.counts[(self.phase, key)] += amount

        if name == "expmkit.expm" and under_relations:
            bump("relations.expm_calls")
        elif name.startswith("relations.") and not under_relations:
            bump("relations.integer_t_verdicts", _integer_t_verdicts(result))
        elif name == "intsearch.grobner_replacement_search":
            bump("intsearch.tuples_scanned", result.tuples_scanned)
            bump("intsearch.survivors", len(result.survivors))
            bump("intsearch.scaling_candidates_tested",
                 int(result.metadata.get("scaling_candidates_tested", 0)))
        elif name == "intsearch.scan":
            bump("intsearch.scan_points", result.tuples_scanned)

    # -- summaries ------------------------------------------------------

    def per_name(self):
        """{span name: [calls, inclusive seconds, self seconds]} by phase."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, phase, op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict = {}
        for i, (name, start, end, parent, phase, op) in enumerate(self.spans):
            row = table.setdefault((phase, name), [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[i]
        return table

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "columns": ["name", "start_s", "end_s", "parent", "phase", "op"],
            "spans": [
                [index[n], round(s, 9), round(e, 9), p, ph, op]
                for n, s, e, p, ph, op in self.spans
            ],
            "exceptions": dict(self.exceptions),
            "counts": {f"{phase}:{key}": v for (phase, key), v in sorted(self.counts.items())},
        }
