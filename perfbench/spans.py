"""Spans for the traced run: record them around public dynreg functions,
then derive per-layer metrics from them.

The worker installs the recorder by rebinding the functions below, at run
time and only in the traced run, in every loaded dynreg module that holds
them. Each span is (name, start, end, parent) in four flat arrays kept in
memory; the worker ships them to run.py when it exits. The benchmark's
own root spans, `bench.setup` and `bench.edit`, mark one request each: every
span of a request descends from its root.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array

import numpy as np

# (module, attribute) of each wrapped function; "Class.method" for methods.
FUNCTIONS = [
    ("dynreg.syntactic.regex", "parse_regex"),
    ("dynreg.syntactic.dfa", "regex_to_dfa"),
    ("dynreg.syntactic.dfa", "minimize_dfa"),
    ("dynreg.syntactic.monoid", "syntactic_monoid"),
    ("dynreg.syntactic.stable", "stable_data"),
    ("dynreg.syntactic.classify", "classify_language"),
    ("dynreg.algebra.varieties", "check_variety"),
    ("dynreg.algebra.green", "green_j"),
    ("dynreg.algebra.green", "local_monoids"),
    ("dynreg.algebra.rees", "rees_decompose"),
    ("dynreg.algebra.zg", "find_zg_certificate"),
    ("dynreg.algebra.zg", "subdirect_certificate"),
    ("dynreg.engines.language", "make_language_engine"),
    ("dynreg.engines.kary", "make_kary_engine"),
    ("dynreg.engines.sg", "make_sg_engine"),
    ("dynreg.engines.zg", "make_zg_engine"),
    ("dynreg.engines.windowstats", "synthesize_window_plan"),
    ("dynreg.engines.sg", "build_layer_plan"),
]
METHODS = [
    ("dynreg.syntactic.stable", "StableData", ("block_image",)),
    ("dynreg.engines.language", "LanguageEngine", ("__init__", "update", "query")),
    ("dynreg.engines.kary", "KaryEngine", ("__init__", "update", "query")),
    ("dynreg.engines.sg", "SgEngine", ("__init__", "update", "query")),
    ("dynreg.engines.windowstats", "WindowStatsEngine", ("__init__", "update", "query")),
    ("dynreg.engines.counting", "CountEngine", ("__init__", "update", "query")),
    ("dynreg.engines.counting", "NilpotentEngine", ("__init__", "update", "query")),
    ("dynreg.engines.combinators", "ProductEngine", ("__init__", "update", "query")),
    ("dynreg.engines.combinators", "DivisionEngine", ("__init__", "update", "query")),
    ("dynreg.veb", "VebMap", ("__init__", "build", "insert", "delete", "update",
                              "retrieve", "find_prev", "find_next")),
]
VEB_OPS = ("insert", "delete", "update", "retrieve", "find_prev", "find_next")


def _layer(module):
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = []
        self._vebs = []
        self.missing = []

    def name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, nid):
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i):
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn):
        nid = self.name_id(name)
        names, parents, starts, ends, stack = (
            self.name, self.parent, self.start, self.end, self._stack)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return span

    def veb_probes(self):
        """Sum of the public probe counters of every live VebMap."""
        return sum(m.probes for m in (r() for r in self._vebs) if m is not None)

    def install(self):
        """Rebind every target; names absent from this dynreg are listed in
        self.missing and skipped."""
        import importlib

        for module, attr in FUNCTIONS:
            try:
                fn = getattr(importlib.import_module(module), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(f"{_layer(module)}.{attr}", fn)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("dynreg"):
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapped)
        for module, cls_name, methods in METHODS:
            try:
                cls = getattr(importlib.import_module(module), cls_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{module}.{cls_name}")
                continue
            for meth in methods:
                raw = cls.__dict__.get(meth)
                if raw is None:
                    self.missing.append(f"{module}.{cls_name}.{meth}")
                    continue
                name = f"{_layer(module)}.{cls_name}.{meth}"
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
                    continue
                if cls_name == "VebMap" and meth == "__init__":
                    raw = self._registering(raw)
                setattr(cls, meth, self.wrap(name, raw))

    def _registering(self, init):
        vebs = self._vebs

        @functools.wraps(init)
        def register(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            vebs.append(weakref.ref(obj))

        return register

    def dump(self):
        return {
            "names": list(self.names),
            "name": self.name,
            "parent": self.parent,
            "start": self.start,
            "end": self.end,
        }


class SpanTable:
    """Vectorized view of dumped spans: durations, self times and roots."""

    def __init__(self, dump):
        self.names = dump["names"]
        self.name = np.frombuffer(dump["name"], dtype=np.int32)
        self.parent = np.frombuffer(dump["parent"], dtype=np.int32)
        start = np.frombuffer(dump["start"], dtype=np.int64)
        self.dur = np.frombuffer(dump["end"], dtype=np.int64) - start
        n = len(self.dur)
        has = self.parent >= 0
        covered = np.bincount(self.parent[has], weights=self.dur[has], minlength=n)
        self.self_ns = self.dur - covered
        root = np.where(has, self.parent, np.arange(n))
        while True:
            nxt = root[root]
            if np.array_equal(nxt, root):
                break
            root = nxt
        self.root = root

    def of(self, *names):
        ids = [i for i, nm in enumerate(self.names) if nm in names]
        return np.isin(self.name, ids)

    def under(self, root_name):
        """Mask of spans whose request root is named root_name."""
        return self.of(root_name)[self.root]

    def outermost(self, mask):
        """Spans in mask with no strict ancestor in mask (no double counting
        of recursive or nested calls within one group)."""
        nested = np.zeros(len(mask), dtype=bool)
        p = self.parent.copy()
        live = p >= 0
        while live.any():
            nested[live] |= mask[p[live]]
            p[live] = self.parent[p[live]]
            live = p >= 0
        return mask & ~nested


def layer_metrics(dump, ops, probes, traced_ns, plain_ns):
    """Per-layer metrics of one traced run.

    ops: op_count delta of each traced edit; probes: VebMap probe delta over
    the traced edits; traced_ns / plain_ns: speed-scaled time of the same
    work with and without tracing.
    """
    t = SpanTable(dump)
    setup, edit = t.under("bench.setup"), t.under("bench.edit")
    edits = max(int(np.count_nonzero(t.of("bench.edit"))), 1)

    def secs(mask):
        return float(t.dur[t.outermost(mask)].sum()) / 1e9

    def us_per_edit(mask):
        return float(t.dur[t.outermost(mask & edit)].sum()) / 1e3 / edits

    engine_classes = [c for _, c, m in METHODS if "update" in m and c.endswith("Engine")]
    inner = [f"engines.{c}.update" for c in engine_classes if c != "LanguageEngine"]
    facade_update = t.of("engines.LanguageEngine.update")
    has_parent = t.parent >= 0
    inner_mask = t.of(*inner) & has_parent & facade_update[np.maximum(t.parent, 0)]
    builders = t.of(
        "engines.make_language_engine", "engines.make_kary_engine", "engines.make_sg_engine",
        "engines.make_zg_engine", *[f"engines.{c}.__init__" for c in engine_classes])
    veb_ops = t.of(*[f"veb.VebMap.{op}" for op in VEB_OPS])
    setup_s = float(t.dur[t.of("bench.setup")].sum()) / 1e9
    edit_ns = float(t.dur[t.of("bench.edit")].sum())
    plan_s = secs(t.of("engines.synthesize_window_plan") & setup)
    ops = np.frombuffer(ops, dtype=np.int64) if len(ops) else np.zeros(1, dtype=np.int64)
    return {
        "syntactic.dfa_s": secs(t.of("syntactic.parse_regex", "syntactic.regex_to_dfa") & setup),
        "syntactic.minimize_s": secs(t.of("syntactic.minimize_dfa") & setup),
        "syntactic.monoid_s": secs(t.of("syntactic.syntactic_monoid") & setup),
        "syntactic.stable_s": secs(t.of("syntactic.stable_data") & setup),
        "syntactic.classify_s": secs(t.of("syntactic.classify_language") & setup),
        "syntactic.block_image_us_per_edit": us_per_edit(t.of("syntactic.StableData.block_image")),
        "algebra.check_variety_calls": int(np.count_nonzero(t.of("algebra.check_variety") & setup)),
        "algebra.check_variety_s": secs(t.of("algebra.check_variety") & setup),
        "algebra.zg_certificate_s": secs(
            t.of("algebra.find_zg_certificate", "algebra.subdirect_certificate") & setup),
        "algebra.green_rees_s": secs(
            t.of("algebra.green_j", "algebra.local_monoids", "algebra.rees_decompose") & setup),
        "engines.plan_search_s": plan_s,
        "engines.plan_search_share": plan_s / setup_s if setup_s else 0.0,
        "engines.layer_plan_s": secs(t.of("engines.build_layer_plan") & setup),
        "engines.build_s": float(t.self_ns[builders & setup].sum()) / 1e9,
        "engines.update_self_us": float(t.self_ns[facade_update & edit].sum()) / 1e3 / edits,
        "engines.query_us": us_per_edit(t.of("engines.LanguageEngine.query")),
        "engines.inner_update_us": float(t.dur[inner_mask & edit].sum()) / 1e3 / edits,
        "engines.ops_per_edit_mean": float(ops.mean()),
        "engines.ops_per_edit_max": int(ops.max()),
        "veb.build_s": secs(t.of("veb.VebMap.__init__", "veb.VebMap.build") & setup),
        "veb.calls_per_edit": int(np.count_nonzero(veb_ops & edit)) / edits,
        "veb.find_prev_calls_per_edit":
            int(np.count_nonzero(t.of("veb.VebMap.find_prev") & edit)) / edits,
        "veb.probes_per_edit": probes / edits,
        "veb.self_share": float(t.self_ns[veb_ops & edit].sum()) / edit_ns if edit_ns else 0.0,
        "trace.overhead_ratio": traced_ns / plain_ns,
    }, {"edits": edits, "spans": len(t.dur)}
