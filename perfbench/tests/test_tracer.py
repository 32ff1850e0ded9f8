"""Tests of the benchmark's tracer and workload plumbing.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys
import types

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import idals  # noqa: E402
import idals.cli  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402
from perfbench import workloads  # noqa: E402


def _synthetic(spans):
    """A tracer holding spans given as (layer, name, group, start, end, parent)."""
    t = tracing.Tracer()
    for layer, name, group, start, end, parent in spans:
        t.spans.append([0, layer, name, start, end, parent])
        t.groups.append(group)
    return t


def test_self_time_subtracts_direct_children():
    t = _synthetic([
        ("localize", "reflect", "reflect", 0.0, 10.0, -1),
        ("fpmod", "kernel", "kernel", 1.0, 4.0, 0),
        ("fpmod", "tensor", "tensor", 5.0, 9.0, 0),
        ("polyring", "_module_gb", "gb", 6.0, 7.0, 2),
        ("localize", "reflect", "reflect", 12.0, 13.5, -1),
    ])
    assert t.self_times() == [3.0, 3.0, 3.0, 1.0, 1.5]
    m = tracing.layer_metrics(t, n_tasks=1)
    assert m["localize.self_s"][0] == 4.5
    assert m["fpmod.self_s"][0] == 6.0
    assert m["polyring.gb_self_s"][0] == 1.0
    assert m["localize.reflect_calls"][0] == 2


def test_polyring_spans_inherit_their_entry_group():
    # an interreduction inside a Groebner call is Groebner time; a reduction
    # entered from fpmod is a reduce call of its own
    t = _synthetic([
        ("fpmod", "kernel", "kernel", 0.0, 10.0, -1),
        ("polyring", "_syzygy_vecs", "gb", 1.0, 6.0, 0),
        ("polyring", "_vec_reduce", "reduce", 2.0, 3.0, 1),
        ("polyring", "_vec_reduce", "reduce", 7.0, 9.0, 0),
        ("trace", "hook", "hook", 6.0, 6.5, 0),
    ])
    t.extras[1] = {"in": 3, "out": 2, "key": "k"}
    m = tracing.layer_metrics(t, n_tasks=1)
    assert m["polyring.gb_calls"][0] == 1
    assert m["polyring.gb_self_s"][0] == 5.0
    assert m["polyring.reduce_calls"][0] == 1
    assert m["polyring.reduce_self_s"][0] == 2.0
    assert m["fpmod.self_s"][0] == 2.5        # 10 - 5 - 2 - 0.5 of hook
    assert (m["polyring.gb_in_vecs"][0], m["polyring.gb_out_vecs"][0]) == (3, 2)


def test_repeat_fraction_is_per_task():
    t = _synthetic([("polyring", "groebner", "gb", float(i), i + 0.5, -1) for i in range(4)])
    for i, task in enumerate((0, 0, 1, 1)):
        t.spans[i][0] = task
        t.extras[i] = {"in": 1, "out": 1, "key": "same"}
    assert tracing.layer_metrics(t, n_tasks=2)["polyring.gb_repeat_frac"][0] == 0.5


def _bindings():
    """Every attribute of every idals namespace and class, by identity."""
    snap = {}
    for mod in tracing.idals_namespaces():
        for attr, val in vars(mod).items():
            snap[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__.startswith("idals"):
                for cattr, cval in vars(val).items():
                    snap[(mod.__name__, attr, cattr)] = cval
    return snap


def test_from_imported_bindings_are_wrapped_while_tracing():
    kernel = idals.fpmod.kernel
    module_gb = idals.polyring._module_gb
    assert idals.localize.kernel is kernel and idals.fpmod._module_gb is module_gb
    t = tracing.Tracer()
    with t.installed():
        assert idals.localize.kernel is not kernel
        assert idals.localize.kernel.__wrapped__ is kernel
        assert idals.glued.kernel is idals.localize.kernel is idals.kernel
        assert idals.fpmod._module_gb.__wrapped__ is module_gb
        R = idals.PolyRing(idals.QQ, ["x", "y"])
        phi = idals.ModuleMap(idals.free_module(R, 2), idals.unit_module(R), [["x", "y"]])
        K, _ = idals.localize.kernel(phi)
        assert K.gens == 1
    names = [(rec[1], rec[2]) for rec in t.spans]
    assert ("fpmod", "kernel") in names
    assert ("polyring", "_syzygy_vecs") in names
    assert t.counts[("fpmod", "ModuleMap.__init__")][0] >= 1
    assert not t.missing


def test_every_patched_name_is_restored_identically():
    before = _bindings()
    t = tracing.Tracer()
    try:
        with t.installed():
            assert _bindings() != before
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    # the class-level hot paths are the original functions again
    assert isinstance(vars(idals.PolyRing)["poly"], types.FunctionType)
    assert not hasattr(vars(idals.PolyRing)["poly"], "__wrapped__")


def test_counted_entries_open_no_span():
    t = tracing.Tracer()
    with t.installed():
        R = idals.PolyRing(idals.QQ, ["x"])
        R.poly("x + 1")
    assert t.counts[("polyring", "PolyRing.poly")][0] == 1
    assert [rec[2] for rec in t.spans] == ["_parse_poly"]


def test_traced_run_emits_every_declared_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    emitted = set(tracing.layer_metrics(tracing.Tracer(), 1))
    emitted |= {"trace_overhead", "cli.report_bytes"}
    assert declared == emitted


def test_inputs_come_from_the_seed(tmp_path):
    root = str(tmp_path)
    assert workloads.make_inputs("hom-chain", 3, root) == workloads.make_inputs("hom-chain", 3, root)
    assert workloads.make_inputs("gb-systems", 3, root) != workloads.make_inputs("gb-systems", 4, root)
    a = workloads.make_inputs("glue-cli", 5, root)
    assert os.path.isfile(a["workspace"]) and a["workspace"].startswith(root)


def test_standard_monomial_count():
    # <x^2, y^2> leaves 1, x, y, xy; <x^2, xy, y^3> leaves 1, x, y, y^2
    assert workloads.standard_monomial_count([[((2, 0), 1)], [((0, 2), 1)]], 2) == 4
    basis = [[((2, 0), 1)], [((1, 1), 1)], [((0, 3), 1)]]
    assert workloads.standard_monomial_count(basis, 2) == 4
    assert workloads.standard_monomial_count([[((1, 1), 1)]], 2) is None


def test_oracles_reject_wrong_outputs(tmp_path):
    tasks = workloads.make_tasks("gb-systems", workloads.make_inputs("gb-systems", 1, str(tmp_path)))
    katsura = next(t for t in tasks if t.name == "katsura-4/GF(32003)")
    assert katsura.check(katsura.run()) is None
    assert katsura.check(katsura.run()[:-1]) is not None
    ideal = next(t for t in tasks if t.name.startswith("random-ideal/"))
    out = ideal.run()
    assert ideal.check(out) is None
    assert ideal.check(out[1:] or [((), 1)]) is not None


def test_reference_groebner_agrees_with_idals():
    from idals.polyring import Poly
    from perfbench import reference

    names, eqs = workloads.katsura(4)
    for p in (0, reference.P):
        R = idals.PolyRing(idals.GF(p) if p else idals.QQ, names, "grevlex")
        want = [{e: int(c) % p if p else c for e, c in R.poly(eq).terms.items()} for eq in eqs]
        assert reference.katsura(4, p) == want
        # same ideal as idals' reduced basis, and the same leading-term ideal
        basis = reference.groebner(reference.katsura(4, p), p)
        gb = idals.groebner([R.poly(eq) for eq in eqs], R)
        assert idals.groebner([Poly(R, f) for f, _ in basis], R) == gb
        ref_leads = [lead for _, lead in basis]
        gb_leads = [reference._lead(g.terms) for g in gb]
        for mine, theirs in ((ref_leads, gb_leads), (gb_leads, ref_leads)):
            assert all(any(all(a <= b for a, b in zip(m, t)) for m in mine) for t in theirs)
    with open(reference.__file__) as fh:
        code = fh.read()
    assert "import idals" not in code and "from idals" not in code
