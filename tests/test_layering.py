"""Only polyring and fpmod know the raw-vector format `{(pos, exps): coeff}`:
the layers above them lift, reduce, rank and compare columns through
`ModuleMap.lift`, `PresentedModule.normal_form` / `span_key` and
`fpmod.column_rank`, never through the engine's helpers.  The converters
between Poly columns and raw vectors, `_column_vec` and `_vec_column`, are
written once, in polyring, and fpmod imports them.

Only idal knows how Deligne stages J^{(x)n} (x) M are flattened: the layers
above it build staged maps, which are matrices, through `Idal.collapse` /
`restage` / `then`, never from `power_transition` or a tensor of a carrier
power.  None presents a stage source: the workspace loader checks a staged
map by currying it into the idal's hom chain.

The glued constructions that work on the overlap datum are written once for
both scheme kinds: no `.kind` comparison inside them.

Only polyring knows the canonical form of a rational coefficient (an int
when integral, otherwise a Fraction): no other module imports `fractions`
or makes a Fraction.

polyring has one reducer: no function but `_pseudo_reduce` iterates the
tail of a prepared divisor.  It has two S-vector loops, the signature loop
of untracked runs and the tracked loop: no other function pops a heap.

localize builds a HOM out of a tensor power only through the hom chain:
no function but `HomChain.stage` and `canonical_to_hom` calls
`hom_module`.  `believes` decides inside the ambient of HOM(J, M): it
presents no HOM and no canonical map and asks no `is_iso`.

A cokernel is presented only where the quotient module itself is read:
by `idal_reflect`, `pushout`, `quotient_functor`, `believes` when HOM(J, M)
has a defining map, and `iso_failure_certificate`, whose first unhit
generator needs the per-generator test.  Whether a map is onto is asked of
`is_surjective`, which reads the reduced basis of the image.

idal presents a tensor product only in `Idal.carrier_power` and
`idal_product`, and neither idal nor glued calls `tensor_map`: the maps out
of tensor products that the idal law, reflection, the pushout cover check
and the dual triangles compare are matrices."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "idals"

UPPER_LAYERS = ("idal", "localize", "glued", "cli")

ENGINE_NAMES = {"_column_vec", "_vec_column", "_module_gb", "_syzygy_vecs",
                "_vec_reduce", "_prepare", "SubmoduleLifter"}


def engine_uses(path):
    """(line, what) for every import or reference of an engine helper and
    every `.reduce_vec(...)` call in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"imports {a.name}") for a in node.names
                      if a.name in ENGINE_NAMES]
        elif isinstance(node, ast.Name) and node.id in ENGINE_NAMES:
            found.append((node.lineno, f"uses {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in ENGINE_NAMES:
            found.append((node.lineno, f"uses .{node.attr}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "reduce_vec"):
            found.append((node.lineno, "calls .reduce_vec("))
    return sorted(found)


@pytest.mark.parametrize("layer", UPPER_LAYERS)
def test_layer_does_not_touch_the_raw_vector_engine(layer):
    path = SRC / f"{layer}.py"
    assert engine_uses(path) == [], f"{path.name} reaches into the Groebner engine"


def test_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .fpmod import _column_vec\n"
        "from . import polyring\n"
        "def f(M, c):\n"
        "    polyring.SubmoduleLifter(M.ring, [], 1)\n"
        "    return M.reduce_vec(c)\n")
    assert [what for _, what in engine_uses(sample)] == [
        "imports _column_vec", "uses .SubmoduleLifter", "calls .reduce_vec("]
    assert engine_uses(SRC / "fpmod.py")       # the engine's own layer is exempt


CONVERTERS = {"_column_vec", "_vec_column"}


def converter_definitions(path):
    """(line, what) for every function, class or assignment in the file
    that defines one of the column converters."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in CONVERTERS:
            found.append((node.lineno, f"defines {node.name}"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(node.lineno, f"assigns {t.id}") for target in targets
                      for t in ast.walk(target) if isinstance(t, ast.Name) and t.id in CONVERTERS]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "polyring"),
                         ids=lambda p: p.stem)
def test_only_polyring_defines_the_column_converters(path):
    assert converter_definitions(path) == [], f"{path.name} converts columns itself"


def test_fpmod_converters_are_polyrings():
    from idals import fpmod, polyring
    assert fpmod._column_vec is polyring._column_vec
    assert fpmod._vec_column is polyring._vec_column


def test_converter_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .polyring import _column_vec\n"
        "def _vec_column(ring, rank, vec):\n"
        "    return ()\n"
        "class Module:\n"
        "    _column_vec = staticmethod(lambda col: {})\n"
        "_vec_column, other = None, None\n")
    assert [what for _, what in converter_definitions(sample)] == [
        "defines _vec_column", "assigns _column_vec", "assigns _vec_column"]
    assert converter_definitions(SRC / "polyring.py")  # their own module is exempt


STAGE_LAYERS = ("localize", "glued", "cli")


def _call_name(node):
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def stage_uses(path):
    """(line, what) for every `power_transition` call and every
    `tensor(<x>.carrier_power(...), ...)` in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name == "power_transition":
            found.append((node.lineno, "calls power_transition"))
        elif (name == "tensor" and node.args and isinstance(node.args[0], ast.Call)
              and _call_name(node.args[0]) == "carrier_power"):
            found.append((node.lineno, "tensors a carrier power"))
    return sorted(found)


@pytest.mark.parametrize("layer", STAGE_LAYERS)
def test_stage_arithmetic_stays_in_idal(layer):
    path = SRC / f"{layer}.py"
    assert stage_uses(path) == [], f"{path.name} builds Deligne stages by hand"


def test_stage_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from .fpmod import tensor\n"
        "from . import fpmod\n"
        "def f(J, M):\n"
        "    t = J.power_transition(2, 1)\n"
        "    return fpmod.tensor(J.carrier_power(2), M), tensor(J.carrier, M)\n")
    assert [what for _, what in stage_uses(sample)] == [
        "calls power_transition", "tensors a carrier power"]
    assert stage_uses(SRC / "idal.py")         # the stages' own layer is exempt


def stage_source_calls(path):
    """Sorted (enclosing function or `Class.method`, line) of every
    `stage_source(...)` call in the file."""
    found = []

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, ast.Call) and _call_name(child) == "stage_source":
                found.append((name, child.lineno))
            visit(child, name)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_stage_sources_are_presented_only_where_read(path):
    assert stage_source_calls(path) == [], f"{path.name} presents a stage"


def test_stage_source_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "class HomChain:\n"
        "    def interpret(self, n):\n"
        "        return self.J.stage_source(n, self.mid)\n"
        "    def stage(self, n):\n"
        "        return hom(self.J.stage_source(n, self.mid), self.target)\n"
        "def tensor_glued(J, M):\n"
        "    return [J.stage_source(k, M) for k in range(2)]\n")
    assert stage_source_calls(sample) == [
        ("HomChain.interpret", 3), ("HomChain.stage", 5), ("tensor_glued", 7)]


# GluedModule validation, compatibility, direct sum, tensor and hom, with
# the helpers that build their overlap data
KIND_FREE = ("GluedModule._validate", "GluedMap.is_compatible", "direct_sum_glued",
             "_block_diagonal", "tensor_glued", "_tensor_element", "hom_glued",
             "_conjugation")


def kind_tests(path, names):
    """{name: [line, ...]} of the comparisons with a `.kind` operand inside
    each named top-level function or `Class.method`; a KeyError names one
    the file does not define."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            defs.update({f"{node.name}.{item.name}": item for item in node.body
                         if isinstance(item, ast.FunctionDef)})
    found = {}
    for name in names:
        found[name] = sorted(
            node.lineno for node in ast.walk(defs[name]) if isinstance(node, ast.Compare)
            and any(isinstance(side, ast.Attribute) and side.attr == "kind"
                    for side in [node.left, *node.comparators]))
    return found


def test_glued_constructions_are_written_once_for_both_kinds():
    found = kind_tests(SRC / "glued.py", KIND_FREE)
    assert all(lines == [] for lines in found.values()), found


def test_kind_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def tensor_glued(G, H):\n"
        "    if G.scheme.kind == 'affine':\n"
        "        return G\n"
        "    return H\n"
        "class GluedMap:\n"
        "    def is_compatible(self):\n"
        "        return 'selfglue' != self.source.scheme.kind\n"
        "def hom_glued(G, H):\n"
        "    return G.kind\n")
    assert kind_tests(sample, ["tensor_glued", "GluedMap.is_compatible", "hom_glued"]) == {
        "tensor_glued": [2], "GluedMap.is_compatible": [7], "hom_glued": []}
    with pytest.raises(KeyError):
        kind_tests(sample, ["direct_sum_glued"])
    # the kind-specific code of the real module is seen
    assert kind_tests(SRC / "glued.py", ["chart_idal"])["chart_idal"]


def fraction_uses(path):
    """(line, what) for every import of `fractions` and every reference to
    a `Fraction` name or attribute in the file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"imports {a.name}") for a in node.names
                      if a.name == "fractions"]
        elif isinstance(node, ast.ImportFrom) and node.module == "fractions":
            found.append((node.lineno, "imports from fractions"))
        elif isinstance(node, ast.Name) and node.id == "Fraction":
            found.append((node.lineno, "uses Fraction"))
        elif isinstance(node, ast.Attribute) and node.attr == "Fraction":
            found.append((node.lineno, "uses .Fraction"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.stem != "polyring"),
                         ids=lambda p: p.stem)
def test_only_polyring_makes_fractions(path):
    assert fraction_uses(path) == [], f"{path.name} makes rational coefficients itself"


def test_fraction_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import fractions\n"
        "from fractions import Fraction as F\n"
        "def half(field):\n"
        "    return field.of(fractions.Fraction(1, 2))\n"
        "def third():\n"
        "    return Fraction(1, 3)\n")
    assert [what for _, what in fraction_uses(sample)] == [
        "imports fractions", "imports from fractions", "uses .Fraction", "uses Fraction"]
    assert fraction_uses(SRC / "polyring.py")  # the coefficients' own module is exempt


def tail_iterations(path):
    """Sorted (enclosing function or `Class.method`, line) of every `for`
    loop or comprehension whose iterable reads a `.tail` attribute."""
    found = []

    def reads_tail(node):
        return any(isinstance(n, ast.Attribute) and n.attr == "tail" for n in ast.walk(node))

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{name}.{child.name}" if name else child.name)
                continue
            if isinstance(child, (ast.For, ast.comprehension)) and reads_tail(child.iter):
                found.append((name, child.iter.lineno))
            visit(child, name)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return sorted(found)


def test_one_reducer_reads_divisor_tails():
    assert {name for name, _ in tail_iterations(SRC / "polyring.py")} == {"_pseudo_reduce"}


def test_tail_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def _pseudo_reduce(vec, divisors):\n"
        "    for d in divisors:\n"
        "        for t, c in d.tail:\n"
        "            pass\n"
        "class _Prepared:\n"
        "    def shifted(self, s):\n"
        "        return {t + s: c for t, c in self.tail}\n"
        "def _loop(G):\n"
        "    for k, (t, c) in enumerate(G[0].tail):\n"
        "        G.tail = t\n"
        "    return sum(c for g in G for _, c in g.tail)\n")
    assert tail_iterations(sample) == [
        ("_Prepared.shifted", 7), ("_loop", 9), ("_loop", 11), ("_pseudo_reduce", 3)]


def callers(path, callee):
    """Sorted names of the module-level functions (and `Class.method`s)
    that call `callee`, by name or as an attribute such as `heapq.heappop`,
    in their own body or in a function nested in it."""
    found = set()
    tree = ast.parse(path.read_text(), filename=str(path))
    defs = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{item.name}", item) for item in node.body
                     if isinstance(item, ast.FunctionDef)]
    for name, node in defs:
        if any(isinstance(n, ast.Call) and _call_name(n) == callee for n in ast.walk(node)):
            found.add(name)
    return sorted(found)


def test_two_s_vector_loops_and_one_reducer():
    assert callers(SRC / "polyring.py", "heappop") == [
        "_pseudo_reduce", "_signature_loop", "_tracked_loop"]


def test_heap_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import heapq\n"
        "from heapq import heappop, heappush\n"
        "def _pseudo_reduce(heap):\n"
        "    return heappop(heap)\n"
        "def _pair_update_loop(pairs):\n"
        "    def update(h):\n"
        "        heappush(pairs, h)\n"
        "    while pairs:\n"
        "        update(heapq.heappop(pairs))\n"
        "def _outer(pairs):\n"
        "    def inner():\n"
        "        return heappop(pairs)\n"
        "    return inner\n"
        "class _Queue:\n"
        "    def pop(self):\n"
        "        return heappop(self.heap)\n"
        "def _sorted(xs):\n"
        "    return sorted(xs)\n")
    assert callers(sample, "heappop") == [
        "_Queue.pop", "_outer", "_pair_update_loop", "_pseudo_reduce"]


def test_every_hom_out_of_a_tensor_power_goes_through_the_chain():
    assert callers(SRC / "localize.py", "hom_module") == ["HomChain.stage", "canonical_to_hom"]


def test_hom_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import fpmod\n"
        "from .fpmod import hom_module\n"
        "class HomChain:\n"
        "    def stage(self, n):\n"
        "        return hom_module(self.J.carrier, self.mid)\n"
        "def canonical_to_hom(J, M):\n"
        "    return fpmod.hom_module(J.carrier, M)\n"
        "def idal_comparison_search(I, J, n_max):\n"
        "    for n in range(1, n_max + 1):\n"
        "        source = J.power_idal(n).carrier\n"
        "        H_O, H_I = hom_module(source, O), hom_module(source, I.carrier)\n"
        "def _power_homs(J, I):\n"
        "    def at(n):\n"
        "        return hom_module(J.carrier_power(n), I.carrier)\n"
        "    return at\n")
    assert callers(sample, "hom_module") == [
        "HomChain.stage", "_power_homs", "canonical_to_hom", "idal_comparison_search"]


HOM_ROUTE = ("hom_module", "HomModule", "canonical_to_hom", "is_iso")


def test_believes_presents_no_hom():
    localize = SRC / "localize.py"
    assert "believes" in callers(localize, "hom_ambient")
    for name in HOM_ROUTE:
        assert "believes" not in callers(localize, name), name


def test_believes_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import fpmod\n"
        "def believes(J, M):\n"
        "    def lifted():\n"
        "        return fpmod.HomModule(J.carrier, M)\n"
        "    return is_iso(canonical_to_hom(J, M)) and hom_module(J.carrier, M)\n")
    for name in HOM_ROUTE:
        assert callers(sample, name) == ["believes"], name


def test_maps_out_of_tensor_products_are_matrices():
    assert callers(SRC / "idal.py", "tensor") == ["Idal.carrier_power", "idal_product"]
    for layer in ("idal", "glued"):
        assert callers(SRC / f"{layer}.py", "tensor_map") == [], layer


def test_tensor_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import fpmod\n"
        "from .fpmod import tensor, tensor_map\n"
        "def _law_sides(e):\n"
        "    return tensor(e.source, e.source)\n"
        "class Idal:\n"
        "    def carrier_power(self, n):\n"
        "        return fpmod.tensor(self.carrier, self.carrier)\n"
        "def dualizable_check(unit, idg):\n"
        "    return tensor_map(unit, idg)\n")
    assert callers(sample, "tensor") == ["Idal.carrier_power", "_law_sides"]
    assert callers(sample, "tensor_map") == ["dualizable_check"]


# the functions of each module that present a cokernel; every other module
# presents none
COKERNEL_CALLERS = {"fpmod": ["iso_failure_certificate", "pushout"],
                    "idal": ["idal_reflect"],
                    "localize": ["believes", "quotient_functor"]}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_cokernels_are_presented_only_where_read(path):
    assert callers(path, "cokernel") == COKERNEL_CALLERS.get(path.stem, [])


def test_cokernel_guard_sees_what_it_forbids(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import fpmod\n"
        "from .fpmod import cokernel\n"
        "def is_iso(phi):\n"
        "    C, _ = cokernel(phi)\n"
        "    return C.is_zero_module()\n"
        "class GluedMap:\n"
        "    def is_chartwise_surjective(self):\n"
        "        return fpmod.cokernel(self.c1)[0].is_zero_module()\n"
        "def _scan_hom_chain(chain, n_max):\n"
        "    def transition_is_surjective(n):\n"
        "        return cokernel(chain.transition(n))[0].is_zero_module()\n"
        "    return transition_is_surjective\n")
    assert callers(sample, "cokernel") == [
        "GluedMap.is_chartwise_surjective", "_scan_hom_chain", "is_iso"]
