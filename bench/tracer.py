"""Outside-in tracer: wraps incalg's public callables from the benchmark's
own files, records calls, inclusive and self time per callable plus a few
derived work counts, and puts every original object back afterwards.

A module-level function is replaced at every ``incalg.*`` binding site,
because modules import each other's names with ``from .x import y``;
methods are replaced on their class.  Nothing under src/ is edited.
"""

import functools
import importlib
import sys
from time import perf_counter_ns

import shared

# (span name, module, attribute path)
SPANS = [
    ("fields.sqrt", "incalg.fields", "RationalField.sqrt"),
    ("fields.sqrt", "incalg.fields", "PrimeField.sqrt"),
    ("fields.square_class", "incalg.fields", "RationalField.square_class"),
    ("fields.square_class", "incalg.fields", "PrimeField.square_class"),
    ("posets.maps_to", "incalg.posets", "Poset.maps_to"),
    ("posets.lambda_decomposition", "incalg.posets", "lambda_decomposition"),
    ("fia.IncFn.__mul__", "incalg.fia", "IncFn.__mul__"),
    ("fia.IncFn.inverse", "incalg.fia", "IncFn.inverse"),
    ("linalg.rref", "incalg.linalg", "rref"),
    ("snf.smith_normal_form", "incalg.snf", "smith_normal_form"),
    ("morphisms.mult_subset_inn", "incalg.morphisms", "mult_subset_inn"),
    ("morphisms.decompose", "incalg.morphisms", "decompose"),
    ("morphisms.find_non_inner_cocycle", "incalg.morphisms",
     "find_non_inner_cocycle"),
    ("morphisms.FiLinearMap.apply", "incalg.morphisms", "FiLinearMap.apply"),
    ("derivations.der_equals_ider", "incalg.derivations", "der_equals_ider"),
    ("derivations.leibniz_check", "incalg.derivations", "leibniz_check"),
    ("derivations.split_raw_derivation", "incalg.derivations",
     "split_raw_derivation"),
    ("idealization.DElem.__mul__", "incalg.idealization", "DElem.__mul__"),
    ("idealization.DLinearMap.apply", "incalg.idealization", "DLinearMap.apply"),
    ("idealization.DLinearMap.compose", "incalg.idealization",
     "DLinearMap.compose"),
    ("idealization.DLinearMap.from_function", "incalg.idealization",
     "DLinearMap.from_function"),
    ("involutions.check_hypotheses", "incalg.involutions", "check_hypotheses"),
    ("involutions.InvolutionSpec.__init__", "incalg.involutions",
     "InvolutionSpec.__init__"),
    ("involutions.recognize", "incalg.involutions", "recognize"),
    ("involutions.classify", "incalg.involutions", "classify"),
    ("involutions.equivalent_inner", "incalg.involutions", "equivalent_inner"),
    ("involutions.equivalent", "incalg.involutions", "equivalent"),
    ("involutions.symmetric_decompose", "incalg.involutions",
     "symmetric_decompose"),
    ("oracle.enumerate_involutions_D", "incalg.oracle", "enumerate_involutions_D"),
    ("oracle.orbit_partition", "incalg.oracle", "orbit_partition"),
    ("cli.main", "incalg.cli", "main"),
]

SPAN_NAMES = sorted({name for name, _, _ in SPANS})

# Every other method of these classes only adds to ``fields.ops``.
FIELD_CLASSES = ("Field", "RationalField", "PrimeField")
_NOT_OPS = {"__init__", "__eq__", "__ne__", "__hash__", "__repr__"}

COUNTER_METRICS = [
    ("fields.ops", "count"),
    ("fia.mul.terms", "count"),
    ("linalg.rref.cells", "count"),
    ("snf.max_cells", "count"),
    ("oracle.candidates", "count"),
    ("oracle.yield_ratio", "ratio"),
    ("involutions.check_hypotheses.repeat_ratio", "ratio"),
]


def metric_names():
    """(name, unit) of every per-layer metric a traced run reports, the
    runner's own cli.startup_ms included."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.total_ms", "ms"),
                (f"{name}.self_ms", "ms")]
    return out + COUNTER_METRICS + [("cli.startup_ms", "ms")]


def empty_state():
    return {"spans": {name: [0, 0, 0] for name in SPAN_NAMES},
            "ops": 0, "terms": 0, "rref_cells": 0, "snf_max_cells": 0,
            "candidates": 0, "distinct": 0, "hyp_calls": 0, "hyp_repeats": 0}


def merge(states):
    """Sum states recorded in separate processes (the max for SNF size)."""
    total = empty_state()
    for st in states:
        for name, (calls, tot, own) in st["spans"].items():
            acc = total["spans"][name]
            acc[0] += calls
            acc[1] += tot
            acc[2] += own
        for key in ("ops", "terms", "rref_cells", "candidates", "distinct",
                    "hyp_calls", "hyp_repeats"):
            total[key] += st[key]
        total["snf_max_cells"] = max(total["snf_max_cells"], st["snf_max_cells"])
    return total


def to_metrics(state):
    """Per-layer metric values, without the runner's cli.startup_ms."""
    out = {}
    for name, (calls, tot, own) in state["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.total_ms"] = tot / 1e6
        out[f"{name}.self_ms"] = own / 1e6
    out["fields.ops"] = state["ops"]
    out["fia.mul.terms"] = state["terms"]
    out["linalg.rref.cells"] = state["rref_cells"]
    out["snf.max_cells"] = state["snf_max_cells"]
    out["oracle.candidates"] = state["candidates"]
    out["oracle.yield_ratio"] = (state["distinct"] / state["candidates"]
                                 if state["candidates"] else 0.0)
    out["involutions.check_hypotheses.repeat_ratio"] = (
        state["hyp_repeats"] / state["hyp_calls"] if state["hyp_calls"] else 0.0)
    return out


def _oracle_candidates(alg):
    """Conjugated relabel-and-sign maps the oracle tries: per poset
    involution and sign, one unit per central coset."""
    elements = list(alg.poset.elements)
    leq = set(alg.poset.pairs)
    q, n, npairs = alg.field.order, len(elements), alg.npairs
    units = (q - 1) ** (n - 1) * q ** (npairs - n) * q ** (npairs - 1)
    return len(shared.involution_maps(elements, leq)) * 2 * units


class Tracer:
    """Install with ``install()``; ``uninstall()`` restores every object."""

    def __init__(self):
        self.state = empty_state()
        self._stack = [[0]]  # child time of the innermost open span
        self._restore = []
        self._terms = {}
        self._seen_contexts = set()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        stat = self.state["spans"][name]
        stack = self._stack
        active = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            active[0] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                stack.pop()
                stack[-1][0] += dt
                active[0] -= 1
                stat[0] += 1
                stat[2] += dt - frame[0]
                if not active[0]:  # count a recursive call's time once
                    stat[1] += dt
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count_op(self, fn):
        state = self.state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state["ops"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- derived counts ---------------------------------------------------

    def _after_mul(self, args, result):
        conv = args[0].alg.conv
        entry = self._terms.get(id(conv))
        if entry is None or entry[0] is not conv:
            entry = (conv, sum(map(len, conv)))
            self._terms[id(conv)] = entry
        self.state["terms"] += entry[1]

    def _after_rref(self, args, result):
        rows = args[1]
        self.state["rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)

    def _after_snf(self, args, result):
        mat = args[0]
        cells = len(mat) * (len(mat[0]) if mat else 0)
        self.state["snf_max_cells"] = max(self.state["snf_max_cells"], cells)

    def _after_oracle(self, args, result):
        self.state["candidates"] += _oracle_candidates(args[0])
        self.state["distinct"] += len(result)

    def _after_hypotheses(self, args, result):
        key = (args[0], args[1])
        self.state["hyp_calls"] += 1
        if key in self._seen_contexts:
            self.state["hyp_repeats"] += 1
        self._seen_contexts.add(key)

    # -- install / uninstall ---------------------------------------------

    def install(self):
        after = {"fia.IncFn.__mul__": self._after_mul,
                 "linalg.rref": self._after_rref,
                 "snf.smith_normal_form": self._after_snf,
                 "oracle.enumerate_involutions_D": self._after_oracle,
                 "involutions.check_hypotheses": self._after_hypotheses}
        counted = set()
        for name, modname, path in SPANS:
            module = importlib.import_module(modname)
            hook = after.get(name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                counted.add((cls, attr))
                self._wrap_method(cls, attr, name, hook)
            else:
                self._wrap_function(module, path, name, hook)
        fields = importlib.import_module("incalg.fields")
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for attr, value in list(vars(cls).items()):
                if (callable(value) and attr not in _NOT_OPS
                        and (cls, attr) not in counted):
                    self._replace(cls, attr, self._count_op(value))
        return self

    def _wrap_method(self, cls, attr, name, hook):
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span(name, raw.__func__, hook))
        else:
            wrapped = self._span(name, raw, hook)
            if cls.__module__ == "incalg.fields":
                wrapped = self._count_op(wrapped)
        self._replace(cls, attr, wrapped)

    def _wrap_function(self, module, attr, name, hook):
        original = getattr(module, attr)
        wrapped = self._span(name, original, hook)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "incalg"
                                   or modname.startswith("incalg.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapped)

    def _replace(self, owner, attr, wrapped):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
