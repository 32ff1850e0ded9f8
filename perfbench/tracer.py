"""Per-layer tracing of idals from outside the library.

The tracer wraps the entry points that each idals module exposes to the
layers above it and records one span per call: (task, layer, name, start,
end, parent).  Spans stay in memory until the traced pass ends; a layer's
self time is the duration of its spans minus the part their child spans
cover.  Calls made millions of times per workload (element coercion, map
and module construction) are counted, not timed, because a timing wrapper
would distort them.

Wrapping rebinds every name that refers to an entry point: the defining
module, every idals module that did `from .mod import name`, and the
package namespace.  Methods are patched on their class.  `uninstall`
restores every binding to the identical original object, so untraced runs
execute unmodified library code.  Callers outside idals must look library
names up at call time (`idals.groebner(...)`), not bind them at import.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from contextlib import contextmanager

LAYERS = ("polyring", "fpmod", "idal", "localize", "glued", "cli")

SPAN = "span"
COUNT = "count"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _ring_key(ring):
    return (ring.field.p, ring.variables, ring.order,
            tuple(tuple(sorted(q.items())) for q in ring.quotient_gb))


def _vec_key(vec: dict):
    return tuple(sorted(vec.items()))


def _poly_key(p):
    terms = getattr(p, "terms", None)
    return (0, _vec_key(terms)) if terms is not None else (1, str(p))


# Gröbner entry points record input size, output size and a canonical input
# key; gb_repeat_frac counts keys already seen earlier in the same task.

def _gb_groebner(args, kwargs, result, _):
    gens, ring = _arg(args, kwargs, 0, "gens"), _arg(args, kwargs, 1, "ring")
    key = ("groebner", _ring_key(ring), tuple(sorted(_poly_key(g) for g in gens)))
    return {"in": len(gens), "out": len(result), "key": key}


def _gb_syzygies(args, kwargs, result, _):
    gens, ring = _arg(args, kwargs, 0, "gens"), _arg(args, kwargs, 1, "ring")
    key = ("syzygies", _ring_key(ring), tuple(_vec_key(g.to_vec()) for g in gens))
    return {"in": len(gens), "out": len(result), "key": key}


def _gb_module(args, kwargs, result, _):
    cols = _arg(args, kwargs, 0, "columns")
    ring, rank = _arg(args, kwargs, 1, "ring"), _arg(args, kwargs, 2, "rank")
    key = ("module", _ring_key(ring), rank, tuple(sorted(_vec_key(c) for c in cols if c)))
    return {"in": len(cols), "out": len(result), "key": key}


def _gb_syzygy_vecs(args, kwargs, result, _):
    cols = _arg(args, kwargs, 0, "columns")
    ring, rank = _arg(args, kwargs, 1, "ring"), _arg(args, kwargs, 2, "rank")
    key = ("syz", _ring_key(ring), rank, tuple(_vec_key(c) for c in cols))
    return {"in": len(cols), "out": len(result), "key": key}


def _gb_lifter(args, kwargs, result, _):
    lifter = args[0]
    cols = _arg(args, kwargs, 2, "columns")
    key = ("lift", _ring_key(lifter.ring), lifter.rank, tuple(_vec_key(dict(c)) for c in cols))
    return {"in": len(cols), "out": len(lifter._gb), "key": key}


def _hom_source(args, kwargs, result, _):
    return {"source_gens": _arg(args, kwargs, 1, "M").gens}


def _cache_miss(store):
    def pre(args, kwargs):
        return _arg(args, kwargs, 1, "n") not in getattr(args[0], store)
    return pre


def _built(args, kwargs, result, missed):
    return {"built": missed}


def chain_rule(chain) -> str:
    """Which stabilization rule a ChainColimitResult reports."""
    if chain.truncated:
        return "truncated"
    if chain.stabilized_at == 0:
        return "stage0"
    return "saturated" if chain.saturated else "injective"


def _rule(args, kwargs, result, _):
    return {"rule": chain_rule(result.chain)}


# (layer, qualified name) -> (group, kind, pre-hook, post-hook).  The groups
# name the per-layer metrics; every other function a layer module exposes
# to another idals module is discovered at install time as group "other".
NAMED = {
    ("polyring", "groebner"): ("gb", SPAN, None, _gb_groebner),
    ("polyring", "syzygies"): ("gb", SPAN, None, _gb_syzygies),
    ("polyring", "_module_gb"): ("gb", SPAN, None, _gb_module),
    ("polyring", "_syzygy_vecs"): ("gb", SPAN, None, _gb_syzygy_vecs),
    ("polyring", "SubmoduleLifter.__init__"): ("gb", SPAN, None, _gb_lifter),
    ("polyring", "_vec_reduce"): ("reduce", SPAN, None, None),
    ("polyring", "divide_with_cofactors"): ("reduce", SPAN, None, None),
    ("polyring", "SubmoduleLifter.reduce"): ("reduce", SPAN, None, None),
    ("polyring", "SubmoduleLifter.contains"): ("reduce", SPAN, None, None),
    ("polyring", "SubmoduleLifter.lift"): ("reduce", SPAN, None, None),
    ("polyring", "_parse_poly"): ("parse", SPAN, None, None),
    ("polyring", "PolyRing.poly"): ("coerce", COUNT, None, None),
    ("fpmod", "PresentedModule.__init__"): ("module_init", COUNT, None, None),
    ("fpmod", "ModuleMap.__init__"): ("map_init", COUNT, None, None),
    ("fpmod", "HomModule.__init__"): ("hom", SPAN, None, _hom_source),
    ("fpmod", "HomModule.express"): ("express", SPAN, None, None),
    ("fpmod", "HomModule.interpret"): ("other", SPAN, None, None),
    ("fpmod", "kernel"): ("kernel", SPAN, None, None),
    ("fpmod", "tensor"): ("tensor", SPAN, None, None),
    ("fpmod", "direct_sum"): ("direct_sum", SPAN, None, None),
    ("fpmod", "is_iso"): ("iso", SPAN, None, None),
    ("fpmod", "ModuleMap.compose"): ("other", SPAN, None, None),
    ("fpmod", "ModuleMap.equals"): ("other", SPAN, None, None),
    ("fpmod", "PresentedModule.is_zero_module"): ("other", SPAN, None, None),
    ("fpmod", "tensor_permutation"): ("other", SPAN, None, None),
    ("idal", "Idal.__init__"): ("other", SPAN, None, None),
    ("idal", "Idal.carrier_power"): ("other", SPAN, None, None),
    ("idal", "Idal.power_transition"): ("power_transition", SPAN, None, None),
    ("idal", "Idal.power_map"): ("other", SPAN, None, None),
    ("idal", "Idal.power_idal"): ("other", SPAN, None, None),
    ("localize", "reflect"): ("reflect", SPAN, None, _rule),
    ("localize", "deligne_hom"): ("other", SPAN, None, _rule),
    ("localize", "HomChain.stage"): ("stage", SPAN, _cache_miss("_stages"), _built),
    ("localize", "HomChain.transition"): ("transition", SPAN,
                                          _cache_miss("_transitions"), _built),
    ("localize", "HomChain.shrink"): ("other", SPAN, None, None),
    ("localize", "_saturated_kernel"): ("saturation", SPAN, None, None),
    ("glued", "GluedModule.__init__"): ("other", SPAN, None, None),
    ("glued", "GluedMap.__init__"): ("other", SPAN, None, None),
    ("glued", "TwoChartScheme.affine"): ("other", SPAN, None, None),
    ("glued", "TwoChartScheme.selfglue"): ("other", SPAN, None, None),
    ("glued", "_free_rank_one_witness"): ("other", SPAN, None, None),
    ("glued", "o_glued"): ("other", SPAN, None, None),
    ("glued", "doubleorigin2_datum_check"): ("other", SPAN, None, None),
    ("cli", "run"): ("other", SPAN, None, None),
    ("cli", "load_preset"): ("load", SPAN, None, None),
    ("cli", "Workspace.load"): ("load", SPAN, None, None),
}

# Functions that cross a module boundary so often that only a count is kept.
HOT = {
    ("polyring", "_prepare"),
    ("fpmod", "_column_vec"),
}


def idals_namespaces():
    """The idals package and its loaded submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "idals" or name.startswith("idals."))]


def discover_entries() -> dict:
    """Every function a layer module defines that another idals namespace
    binds (by `from .mod import name` or a package re-export), as
    {(layer, name): (group, kind, None, None)}."""
    namespaces = idals_namespaces()
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"idals.{layer}")
        if mod is None:
            continue
        for other in namespaces:
            if other is mod:
                continue
            for val in vars(other).values():
                if (isinstance(val, types.FunctionType) and val.__module__ == mod.__name__
                        and vars(mod).get(val.__name__) is val):
                    kind = COUNT if (layer, val.__name__) in HOT else SPAN
                    found[(layer, val.__name__)] = ("other", kind, None, None)
    return found


def entry_table() -> dict:
    table = discover_entries()
    table.update(NAMED)
    return table


class Tracer:
    """Spans and counts for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: list = []     # [task, layer, name, start, end, parent]
        self.groups: list = []    # group of each span, parallel to spans
        self.extras: dict = {}    # span index -> hook data
        self.counts: dict = {}    # (layer, name) -> [calls] for COUNT entries
        self.task = -1
        self.missing: list = []
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # -- recording ----------------------------------------------------------

    def reset(self):
        self.spans.clear()
        self.groups.clear()
        self.extras.clear()
        for cell in self.counts.values():
            cell[0] = 0
        self.task = -1

    def _hook(self, parent, started, clock=time.perf_counter):
        # hook work is a child span of layer "trace", so it never inflates
        # the self time of the span it describes or of that span's parent
        self.spans.append([self.task, "trace", "hook", started, clock(), parent])
        self.groups.append("hook")

    def _timed(self, fn, layer, name, group, pre, post):
        spans, groups, extras, stack = self.spans, self.groups, self.extras, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            state = None
            if pre is not None:
                h0 = clock()
                state = pre(args, kwargs)
                tracer._hook(parent, h0)
            idx = len(spans)
            rec = [tracer.task, layer, name, clock(), 0.0, parent]
            spans.append(rec)
            groups.append(group)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if post is not None:
                h0 = clock()
                extras[idx] = post(args, kwargs, result, state)
                tracer._hook(parent, h0)
            return result

        return wrapper

    def _counted(self, fn, layer, name):
        cell = self.counts.setdefault((layer, name), [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, layer, name, spec):
        group, kind, pre, post = spec
        if kind == COUNT:
            return self._counted(fn, layer, name)
        return self._timed(fn, layer, name, group, pre, post)

    # -- installing ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.missing = []
        namespaces = idals_namespaces()
        for (layer, qualname), spec in sorted(entry_table().items(), key=lambda kv: kv[0]):
            mod = sys.modules.get(f"idals.{layer}")
            if mod is None:
                self.missing.append(f"{layer}.{qualname}")
                continue
            if "." in qualname:
                self._patch_method(mod, layer, qualname, spec)
            else:
                self._patch_function(mod, namespaces, layer, qualname, spec)

    def _patch_function(self, mod, namespaces, layer, name, spec):
        orig = vars(mod).get(name)
        if not isinstance(orig, types.FunctionType):
            self.missing.append(f"{layer}.{name}")
            return
        wrapped = self._wrap(orig, layer, name, spec)
        for owner in namespaces:
            for attr, val in list(vars(owner).items()):
                if val is orig:
                    self._patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)

    def _patch_method(self, mod, layer, qualname, spec):
        cls_name, meth = qualname.split(".", 1)
        cls = vars(mod).get(cls_name)
        raw = vars(cls).get(meth) if isinstance(cls, type) else None
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrap(raw.__func__, layer, qualname, spec))
        elif isinstance(raw, types.FunctionType):
            wrapped = self._wrap(raw, layer, qualname, spec)
        else:
            self.missing.append(f"{layer}.{qualname}")
            return
        self._patches.append((cls, meth, raw))
        setattr(cls, meth, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()

    # -- reading ------------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        return [(rec[4] - rec[3]) - child[i] for i, rec in enumerate(spans)]

    def dump(self, path, meta=None):
        """Write the spans and counts of the last traced pass as JSON: each
        span is [task, kind index, start us, end us, parent index], times
        relative to the first span, kinds listed once as [layer, name, group]."""
        kinds: dict = {}
        rows = []
        t0 = self.spans[0][3] if self.spans else 0.0
        for (task, layer, name, start, end, parent), group in zip(self.spans, self.groups):
            k = kinds.setdefault((layer, name, group), len(kinds))
            rows.append([task, k, round((start - t0) * 1e6), round((end - t0) * 1e6), parent])
        data = {
            "meta": meta or {},
            "kinds": [list(k) for k in kinds],
            "spans": rows,
            "counts": {f"{layer}.{name}": cell[0]
                       for (layer, name), cell in sorted(self.counts.items())},
        }
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass

COUNT_UNIT = "count"


def layer_metrics(tracer: Tracer, n_tasks: int) -> dict:
    """{metric name: (value, unit)} for the per-layer metrics.

    Layer self time sums the self times of the layer's spans.  Inside
    polyring, a span entered from another layer (or from the benchmark) is
    an entry; polyring spans below an entry belong to the entry's group, so
    the interreduction inside a Gröbner call is Gröbner time and a lift's
    nested reduction is one reduce call.
    """
    spans, groups, extras = tracer.spans, tracer.groups, tracer.extras
    selfs = tracer.self_times()
    self_by_layer = {layer: 0.0 for layer in LAYERS}
    self_by_group: dict = {}
    calls_by_layer = {layer: 0 for layer in LAYERS}
    calls_by_name: dict = {}
    entries: dict = {}                      # polyring group -> entry span indices
    group_of = list(groups)                 # polyring spans inherit their entry's group
    for i, rec in enumerate(spans):
        layer, name, parent = rec[1], rec[2], rec[5]
        if layer == "trace":
            continue
        if layer == "polyring":
            if parent >= 0 and spans[parent][1] == "polyring":
                group_of[i] = group_of[parent]
            else:
                entries.setdefault(groups[i], []).append(i)
        self_by_layer[layer] += selfs[i]
        key = (layer, group_of[i])
        self_by_group[key] = self_by_group.get(key, 0.0) + selfs[i]
        calls_by_layer[layer] += 1
        calls_by_name[(layer, name)] = calls_by_name.get((layer, name), 0) + 1

    gb_entries = entries.get("gb", [])
    seen: dict = {}
    repeats = gb_in = gb_out = 0
    for i in gb_entries:
        info = extras.get(i)
        if info is None:        # the call raised
            continue
        gb_in += info["in"]
        gb_out += info["out"]
        task_keys = seen.setdefault(spans[i][0], set())
        if info["key"] in task_keys:
            repeats += 1
        task_keys.add(info["key"])
    n_gb = len(gb_entries)

    def count(layer, name):
        cell = tracer.counts.get((layer, name))
        return cell[0] if cell else 0

    def built(name):
        return sum(1 for i, rec in enumerate(spans)
                   if rec[1] == "localize" and rec[2] == name and extras.get(i, {}).get("built"))

    rules = {"stage0": 0, "injective": 0, "saturated": 0, "truncated": 0}
    hom_gens_max = 0
    for i, info in extras.items():
        if "rule" in info:
            rules[info["rule"]] += 1
        if "source_gens" in info:
            hom_gens_max = max(hom_gens_max, info["source_gens"])

    s = "s"
    m = {
        "polyring.gb_calls": (n_gb, COUNT_UNIT),
        "polyring.gb_calls_per_task": (n_gb / max(n_tasks, 1), COUNT_UNIT),
        "polyring.gb_self_s": (self_by_group.get(("polyring", "gb"), 0.0), s),
        "polyring.gb_in_vecs": (gb_in, COUNT_UNIT),
        "polyring.gb_out_vecs": (gb_out, COUNT_UNIT),
        "polyring.gb_repeat_frac": (repeats / n_gb if n_gb else 0.0, "ratio"),
        "polyring.reduce_calls": (len(entries.get("reduce", [])), COUNT_UNIT),
        "polyring.reduce_self_s": (self_by_group.get(("polyring", "reduce"), 0.0), s),
        "polyring.coerce_calls": (count("polyring", "PolyRing.poly"), COUNT_UNIT),
        "polyring.parse_self_s": (self_by_group.get(("polyring", "parse"), 0.0), s),
        "fpmod.self_s": (self_by_layer["fpmod"], s),
        "fpmod.kernel_calls": (calls_by_name.get(("fpmod", "kernel"), 0), COUNT_UNIT),
        "fpmod.hom_calls": (calls_by_name.get(("fpmod", "HomModule.__init__"), 0), COUNT_UNIT),
        "fpmod.express_calls": (calls_by_name.get(("fpmod", "HomModule.express"), 0),
                                COUNT_UNIT),
        "fpmod.tensor_calls": (calls_by_name.get(("fpmod", "tensor"), 0), COUNT_UNIT),
        "fpmod.direct_sum_calls": (calls_by_name.get(("fpmod", "direct_sum"), 0), COUNT_UNIT),
        "fpmod.direct_sum_self_s": (self_by_group.get(("fpmod", "direct_sum"), 0.0), s),
        "fpmod.iso_calls": (calls_by_name.get(("fpmod", "is_iso"), 0), COUNT_UNIT),
        "fpmod.map_inits": (count("fpmod", "ModuleMap.__init__"), COUNT_UNIT),
        "fpmod.module_inits": (count("fpmod", "PresentedModule.__init__"), COUNT_UNIT),
        "fpmod.hom_source_gens_max": (hom_gens_max, COUNT_UNIT),
        "idal.self_s": (self_by_layer["idal"], s),
        "idal.calls": (calls_by_layer["idal"], COUNT_UNIT),
        "idal.power_transition_calls": (calls_by_name.get(("idal", "Idal.power_transition"), 0),
                                        COUNT_UNIT),
        "localize.self_s": (self_by_layer["localize"], s),
        "localize.reflect_calls": (calls_by_name.get(("localize", "reflect"), 0), COUNT_UNIT),
        "localize.stages_built": (built("HomChain.stage"), COUNT_UNIT),
        "localize.transition_calls": (built("HomChain.transition"), COUNT_UNIT),
        "localize.saturation_calls": (calls_by_name.get(("localize", "_saturated_kernel"), 0),
                                      COUNT_UNIT),
        "glued.self_s": (self_by_layer["glued"], s),
        "glued.calls": (calls_by_layer["glued"], COUNT_UNIT),
        "cli.self_s": (self_by_layer["cli"], s),
        "cli.load_self_s": (self_by_group.get(("cli", "load"), 0.0), s),
    }
    for rule, n in rules.items():
        m[f"localize.rule.{rule}"] = (n, COUNT_UNIT)
    return m
