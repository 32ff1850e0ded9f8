"""Command-line front end: declarative JSON workspaces, deterministic reports.

Exit codes: 0 mathematical success, 2 mathematical failure (a check computed
false, or overlap data rejected), 1 input error / could not compute.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from .errors import (
    AlgebraError,
    LiftError,
    TauNotInvertibleError,
    TauNotWellDefinedError,
    WellDefinednessError,
    WorkspaceError,
)
from .fpmod import (
    ModuleMap,
    PresentedModule,
    free_module,
    graded_dims,
    is_iso,
    iso_failure_certificate,
    unit_module,
)
from .idal import (
    Idal,
    cover_check,
    idal_check,
    idal_check_witness,
    idal_from_ideal,
    idal_product,
    idal_reflect,
    nilpotency_check,
)
from .localize import (
    HomChain,
    canonical_to_hom,
    deligne_hom,
    idal_comparison_search,
    localization_oracle,
    quotient_functor,
    reflect,
)
from .glued import (
    GluedMap,
    GluedModule,
    SelfGlueTau,
    TwoChartScheme,
    _free_rank_one_witness,
    doubleorigin2_datum_check,
    global_sections,
    idal_generation,
    inverse_of,
    o_glued,
    p1_scheme,
    p1_sections_oracle,
    p1_standard,
    roundtrip_check,
    tensor_glued,
)
from .polyring import QQ, PolyRing, groebner


PRESETS = ("p1", "double-origin-line", "double-origin-plane")

# The largest --degree-bound and --n-max.  Graded windows count every degree up
# to the bound, and at 10^8 the process runs out of memory before it writes a
# report; hom chains and nilpotency scans may walk n-max stages.
MAX_DEGREE_BOUND = 10_000
MAX_N_MAX = 10_000


def _idal_of(ws, spec):
    if "ideal_generators" in spec:
        return idal_from_ideal(spec["ideal_generators"], ws._ring(spec.get("ring")))
    carrier = ws.module(spec["carrier"])
    return Idal(carrier, ModuleMap(carrier, unit_module(carrier.ring), spec["e_matrix"]))


def _scheme_of(ws, spec):
    if spec.get("kind") == "selfglue":
        return TwoChartScheme.selfglue(ws._ring(spec["ring"]), ws.idal(spec["idal"]))
    return TwoChartScheme.affine(ws._ring(spec["chart1"]), ws._ring(spec["chart2"]),
                                 spec["f1"], spec["f2"], spec["inv1"], spec["inv2"],
                                 spec["to2"], spec["to1"])


# (section, kind, builder) in load order; glued modules are built on first use
SECTIONS = (
    ("rings", "ring", lambda ws, spec: PolyRing.from_json(spec)),
    ("modules", "module",
     lambda ws, spec: PresentedModule.from_json(spec, ws._ring(spec.get("ring")))),
    ("maps", "map", lambda ws, spec: ModuleMap(ws.module(spec.get("source")),
                                               ws.module(spec.get("target")), spec["matrix"])),
    ("idals", "idal", _idal_of),
    ("schemes", "scheme", _scheme_of),
    ("glued", "glued module", lambda ws, spec: spec),
)


class Workspace:
    """Named rings, modules, maps, idals, schemes, and glued module specs."""

    def __init__(self):
        self.rings: dict = {}
        self.modules: dict = {}
        self.maps: dict = {}
        self.idals: dict = {}
        self.schemes: dict = {}
        self.glued: dict = {}
        self._glued_modules: dict = {}

    def load(self, data: dict):
        if not isinstance(data, dict):
            raise WorkspaceError(f"a workspace must be a JSON object, not {type(data).__name__}")
        for section, _, _ in SECTIONS:
            names = data.get(section, {})
            if not isinstance(names, dict):
                raise WorkspaceError(f"workspace section {section!r} must be a JSON object "
                                     f"mapping names to objects")
            for name, spec in names.items():
                if name in getattr(self, section):
                    raise WorkspaceError(f"duplicate name {name!r} in {section}")
                if not isinstance(spec, dict):
                    raise WorkspaceError(f"{section} entry {name!r} must be a JSON object")
        for section, kind, build in SECTIONS:
            store = getattr(self, section)
            for name, spec in data.get(section, {}).items():
                try:
                    store[name] = build(self, spec)
                except WorkspaceError:
                    raise
                except Exception as exc:
                    raise WorkspaceError(f"bad {kind} {name!r}: {exc}") from exc

    @staticmethod
    def _lookup(store: dict, kind: str, name):
        # names read from a workspace file may be any JSON value
        if not isinstance(name, str) or name not in store:
            raise WorkspaceError(f"unresolved {kind} name {name!r}")
        return store[name]

    def _ring(self, name):
        return self._lookup(self.rings, "ring", name)

    def module(self, name):
        return self._lookup(self.modules, "module", name)

    def map(self, name):
        return self._lookup(self.maps, "map", name)

    def idal(self, name):
        if isinstance(name, str) and name not in self.idals and name in self.maps:
            return Idal.from_map(self.maps[name])
        return self._lookup(self.idals, "idal", name)

    def scheme(self, name):
        return self._lookup(self.schemes, "scheme", name)

    def glued_spec(self, name):
        return self._lookup(self.glued, "glued module", name)

    def glued_module(self, name) -> GluedModule:
        if name not in self._glued_modules:
            self._glued_modules[name] = self._build_glued(self.glued_spec(name))
        return self._glued_modules[name]

    def _build_glued(self, spec) -> GluedModule:
        scheme = self.scheme(spec.get("scheme"))
        m1 = self.module(spec.get("m1"))
        m2 = self.module(spec.get("m2"))
        tau = spec.get("tau")
        if scheme.kind == "selfglue":
            if not isinstance(tau, dict):
                raise WorkspaceError("selfglue glued modules take a staged tau object")
            J = scheme.idal
            try:
                fwd_stage, bwd_stage = int(tau["fwd_stage"]), int(tau["bwd_stage"])
                fwd = _staged_matrix(J, fwd_stage, m1, m2, tau["fwd"])
                bwd = _staged_matrix(J, bwd_stage, m2, m1, tau["bwd"])
            except (KeyError, TypeError, ValueError) as exc:
                raise WorkspaceError(f"bad staged tau: {exc}") from exc
            return GluedModule(scheme, m1, m2, SelfGlueTau(fwd_stage, fwd, bwd_stage, bwd))
        return GluedModule(scheme, m1, m2, tau, spec.get("tau_inv"))


def _staged_matrix(J: Idal, n: int, M: PresentedModule, T: PresentedModule, rows):
    """The matrix of a staged map J^{(x)n} (x) M -> T read from workspace
    rows, checked well defined by currying it into the idal's hom chain
    without presenting J^{(x)n} (x) M."""
    width = J.power_gens(n) * M.gens
    chain = HomChain.of(J, M, T)
    matrix = ModuleMap(free_module(J.ring, width), T, rows, check=False).matrix
    try:
        chain.curry(n, matrix)
    except LiftError as exc:
        raise WellDefinednessError(
            "matrix does not send source relations into target relations") from exc
    return matrix


def load_preset(name: str) -> dict:
    if name not in PRESETS:
        raise WorkspaceError(f"unknown preset {name!r}; have {', '.join(PRESETS)}")
    text = resources.files("idals.presets").joinpath(f"{name}.json").read_text()
    return json.loads(text)


# ---------------------------------------------------------------------------
# serialization helpers


def _map_json(m: ModuleMap):
    return {"matrix": [[str(x) for x in row] for row in m.matrix]}


def _module_json(M: PresentedModule, degrees):
    """M, whether it is zero and, when it is graded, its dimensions in degrees."""
    out = {"module": M.to_json(), "is_zero": M.is_zero_module()}
    if M.grading is not None:
        out["graded_dims"] = {str(d): v for d, v in graded_dims(M, degrees).items()}
    return out


def _by_degree(S):
    return {str(k): v for k, v in sorted((S.by_degree or {}).items())}


def _blocks(gen):
    return [{"chart": b.chart, "power": b.power} for b in gen.blocks]


def _chain_json(chain, trace: bool):
    out = {
        "stabilized_at": chain.stabilized_at,
        "truncated": chain.truncated,
        "saturated": chain.saturated,
        "value": chain.value.to_json(),
    }
    if trace:
        out["stages"] = [s.to_json() for s in chain.stages]
        out["transitions"] = [_map_json(t) for t in chain.transitions]
    return out


# ---------------------------------------------------------------------------
# command handlers: return (result, certificates, ok)


def _cmd_check_idal(ws, args):
    name = args.names[0]
    e = ws.maps[name] if name in ws.maps else ws.idal(name).e
    witness = idal_check_witness(e)
    ok = witness is None
    return {"is_idal": ok}, ({} if ok else {"witness": witness}), ok


def _cmd_reflect_idal(ws, args):
    f = ws.map(args.names[0])
    idal, pi = idal_reflect(f)
    return ({"idal": idal.serialize(), "pi": _map_json(pi), "pi_is_iso": is_iso(pi)},
            {"idal_law_holds": idal_check(idal.e)}, True)


def _cmd_idal_product(ws, args):
    I, J = ws.idal(args.names[0]), ws.idal(args.names[1])
    P = idal_product(I, J)
    return {"idal": P.serialize()}, {"idal_law_holds": idal_check(P.e)}, True


def _cmd_cover_check(ws, args):
    I, J = ws.idal(args.names[0]), ws.idal(args.names[1])
    ok = cover_check(I, J)
    cert: dict = {}
    gens = [p for p in I.image_generators() + J.image_generators() if not p.is_zero()]
    if ok and gens:
        ring = I.ring
        combine = ModuleMap(free_module(ring, len(gens)), unit_module(ring), [gens], check=False)
        cert["one_as_combination"] = [str(c) for c in combine.lift((ring.one(),))]
    elif not ok:
        cert["reduced_basis"] = [str(g) for g in groebner(gens, I.ring)] if gens else []
    return {"is_cover": ok}, cert, ok


def _cmd_nilpotency(ws, args):
    n = nilpotency_check(ws.idal(args.names[0]), args.n_max)
    return {"nilpotent_at": n}, {}, n is not None


def _cmd_localize(ws, args):
    M = ws.module(args.names[1])
    f = M.ring.poly(args.names[0])
    out = localization_oracle(f, M)
    return _module_json(out, range(-args.degree_bound, args.degree_bound + 1)), {}, True


def _cmd_deligne_hom(ws, args):
    J = ws.idal(args.names[0])
    M, N = ws.module(args.names[1]), ws.module(args.names[2])
    res = deligne_hom(J, M, N, args.n_max)
    return {"chain": _chain_json(res.chain, args.trace)}, {}, True


def _cmd_believes(ws, args):
    J, M = ws.idal(args.names[0]), ws.module(args.names[1])
    c = canonical_to_hom(J, M)
    ok = is_iso(c)
    cert = {} if ok else {"iso_failure": iso_failure_certificate(c)}
    return {"believes": ok}, cert, ok


def _cmd_quotient(ws, args):
    I, M = ws.idal(args.names[0]), ws.module(args.names[1])
    Q = quotient_functor(I, M)
    return _module_json(Q, range(0, args.degree_bound + 1)), {}, True


def _cmd_compare_idals(ws, args):
    I, J = ws.idal(args.names[0]), ws.idal(args.names[1])
    found = idal_comparison_search(I, J, args.n_max)
    if found is None:
        return {"found": False}, {}, False
    n, morphism = found
    return ({"found": True, "power": n, "lift": _map_json(morphism.f)},
            {"triangle_commutes": True}, True)


def _cmd_glue(ws, args):
    try:
        G = ws.glued_module(args.names[0])
    except (TauNotWellDefinedError, TauNotInvertibleError) as exc:
        kind = "tau not well-defined" if isinstance(exc, TauNotWellDefinedError) \
            else "tau not invertible"
        return {"valid": False, "error": kind}, {"detail": str(exc)}, False
    return {"valid": True, "glued": G.serialize()}, {}, True


def _cmd_sections(ws, args):
    G = ws.glued_module(args.names[0])
    S = global_sections(G, args.degree_bound, args.n_max)
    result = {"kind": S.kind, "total": S.total}
    if S.by_degree is not None:
        result["by_degree"] = _by_degree(S)
    if S.module is not None:
        result["module"] = S.module.to_json()
    return result, {}, True


def _cmd_roundtrip(ws, args):
    I, J = ws.idal(args.names[0]), ws.idal(args.names[1])
    M = ws.module(args.names[2])
    res = roundtrip_check(M.ring, I, J, M, args.n_max, args.degree_bound)
    return {"roundtrip": res.ok, "mode": res.mode}, dict(res.detail), res.ok


def _cmd_tensor_glued(ws, args):
    G, H = ws.glued_module(args.names[0]), ws.glued_module(args.names[1])
    return {"glued": tensor_glued(G, H).serialize()}, {}, True


def _cmd_invertible(ws, args):
    G = ws.glued_module(args.names[0])
    try:
        inverse = inverse_of(G)
    except AlgebraError:
        return {"invertible": False}, {
            "rank_one_chart1": _free_rank_one_witness(G.m1) is not None,
            "rank_one_chart2": _free_rank_one_witness(G.m2) is not None}, False
    return {"invertible": True, "inverse": inverse.serialize()}, {}, True


def _cmd_idal_generate(ws, args):
    gen = idal_generation(ws.glued_module(args.names[0]), args.n_max)
    return {"blocks": _blocks(gen), "surjective": gen.verified}, {}, True


HANDLERS = {
    "check-idal": (_cmd_check_idal, 1),
    "reflect-idal": (_cmd_reflect_idal, 1),
    "idal-product": (_cmd_idal_product, 2),
    "cover-check": (_cmd_cover_check, 2),
    "nilpotency": (_cmd_nilpotency, 1),
    "localize": (_cmd_localize, 2),
    "deligne-hom": (_cmd_deligne_hom, 3),
    "believes": (_cmd_believes, 2),
    "quotient": (_cmd_quotient, 2),
    "compare-idals": (_cmd_compare_idals, 2),
    "glue": (_cmd_glue, 1),
    "sections": (_cmd_sections, 1),
    "roundtrip": (_cmd_roundtrip, 3),
    "tensor-glued": (_cmd_tensor_glued, 2),
    "invertible": (_cmd_invertible, 1),
    "idal-generate": (_cmd_idal_generate, 1),
}

COMMANDS = (*HANDLERS, "demo")


# ---------------------------------------------------------------------------
# demos: take the parsed flags, return (result, certificates, ok)


def _demo_p1_sections(args):
    S = global_sections(p1_standard(args.n), args.degree_bound)
    oracle = p1_sections_oracle(args.n)
    ok = S.total == oracle
    return ({"twist": args.n, "dimension": S.total, "oracle": oracle,
             "by_degree": _by_degree(S)}, {"matches_oracle": ok}, ok)


def _demo_serre_twist(args):
    a, b = args.n, args.m
    sch = p1_scheme()
    T = tensor_glued(p1_standard(a, sch), p1_standard(b, sch))
    E = p1_standard(a + b, sch)
    iso = GluedMap(E, T, _free_rank_one_witness(T.m1), _free_rank_one_witness(T.m2))
    ok = is_iso(iso.c1) and is_iso(iso.c2)
    return {"a": a, "b": b, "isomorphic_to_sum_twist": ok}, {}, ok


def _demo_hartogs(args):
    R = PolyRing(QQ, ["x", "y"])
    res = reflect(idal_from_ideal(["x", "y"], R), unit_module(R), args.n_max)
    ok = res.chain.stabilized_at == 1 and is_iso(res.unit)
    return {"stabilized_at": res.chain.stabilized_at, "unit_is_iso": is_iso(res.unit)}, {}, ok


def _demo_nilpotent_line(args):
    O3 = unit_module(PolyRing(QQ, ["x"], quotient=["x^3"]))
    e = Idal.from_map(ModuleMap(O3, O3, [["x"]]))
    nil = nilpotency_check(e, args.n_max)
    res = reflect(e, O3, args.n_max)
    ok = nil == 3 and res.value.is_zero_module()
    return {"nilpotent_at": nil, "reflected_to_zero": res.value.is_zero_module()}, {}, ok


def _demo_roundtrip_line(args):
    A = PolyRing(QQ, ["x"])
    I, J = idal_from_ideal(["x"], A), idal_from_ideal(["x-1"], A)
    res = roundtrip_check(A, I, J, unit_module(A), args.n_max, args.degree_bound)
    return {"roundtrip": res.ok, "mode": res.mode}, dict(res.detail), res.ok


def _demo_double_origin_plane(args):
    R = PolyRing(QQ, ["x", "y"])
    sch = TwoChartScheme.selfglue(R, idal_from_ideal(["x", "y"], R))
    S = global_sections(o_glued(sch), args.degree_bound, args.n_max)
    return {"sections_module": S.module.to_json(), "by_degree": _by_degree(S)}, {}, True


def _demo_doubleorigin2(args):
    R = PolyRing(QQ, ["T1", "T2"])
    J1, J2 = idal_from_ideal(["T1", "T2"], R), Idal.identity(R)
    prod = idal_product(J1, J2)
    p = ModuleMap(free_module(R, 2, [1, 1]), prod.carrier, [["1", "0"], ["0", "1"]],
                  check=False)
    rep = doubleorigin2_datum_check(J1, J2, p)
    return {"clauses": rep.clauses}, {}, rep.ok


def _demo_p1_generate(args):
    gen = idal_generation(p1_standard(args.n), args.n_max)
    return ({"twist": args.n, "blocks": _blocks(gen), "surjective": gen.verified},
            {}, gen.verified)


DEMOS = {
    "p1-sections": _demo_p1_sections,
    "serre-twist": _demo_serre_twist,
    "hartogs": _demo_hartogs,
    "nilpotent-line": _demo_nilpotent_line,
    "roundtrip-line": _demo_roundtrip_line,
    "double-origin-plane": _demo_double_origin_plane,
    "doubleorigin2": _demo_doubleorigin2,
    "p1-generate": _demo_p1_generate,
}


def _run_demo(args):
    name = args.names[0] if args.names else ""
    if name not in DEMOS:
        raise WorkspaceError(f"unknown demo {name!r}; have {', '.join(DEMOS)}")
    return DEMOS[name](args)


def _format_text(report: dict) -> str:
    lines = []

    def emit(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                emit(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            lines.append(f"{prefix}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{prefix}: {value}")

    emit("", report)
    return "\n".join(lines) + "\n"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="idals",
        description="Exact idal calculus: reflection, covers, localization, gluing.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("names", nargs="*",
                        help="workspace names (or demo name / polynomial arguments)")
    parser.add_argument("--workspace", action="append", default=[],
                        help="JSON workspace file (repeatable)")
    parser.add_argument("--preset", action="append", default=[],
                        help=f"built-in workspace: {', '.join(PRESETS)} (repeatable)")
    parser.add_argument("--n-max", type=int, default=8, dest="n_max")
    parser.add_argument("--degree-bound", type=int, default=6, dest="degree_bound")
    parser.add_argument("--n", type=int, default=0, help="demo twist / power")
    parser.add_argument("--m", type=int, default=0, help="second demo parameter")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--timings", action="store_true")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    report = {"command": args.command,
              "inputs": {"names": args.names, "n_max": args.n_max,
                         "degree_bound": args.degree_bound},
              "result": None, "certificates": {}, "timings": None}
    code = 0
    try:
        if args.n_max < 1 or args.degree_bound < 0:
            raise WorkspaceError("flags out of range: need n-max >= 1, degree-bound >= 0")
        if args.degree_bound > MAX_DEGREE_BOUND:
            raise WorkspaceError(f"flags out of range: need degree-bound <= {MAX_DEGREE_BOUND}")
        if args.n_max > MAX_N_MAX:
            raise WorkspaceError(f"flags out of range: need n-max <= {MAX_N_MAX}")
        ws = Workspace()
        for preset in args.preset:
            ws.load(load_preset(preset))
        for path in args.workspace:
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise WorkspaceError(f"cannot read workspace {path!r}: {exc}") from exc
            ws.load(data)
        if args.command == "demo":
            result, certs, ok = _run_demo(args)
        else:
            handler, arity = HANDLERS[args.command]
            if len(args.names) != arity:
                raise WorkspaceError(
                    f"{args.command} takes {arity} name argument(s), got {len(args.names)}")
            result, certs, ok = handler(ws, args)
        report["result"] = result
        report["certificates"] = certs
        code = 0 if ok else 2
    except AlgebraError as exc:
        # rejected overlap data is a mathematical failure, the rest input errors
        report["result"] = {"error": type(exc).__name__, "message": str(exc)}
        code = 2 if isinstance(exc, (TauNotWellDefinedError, TauNotInvertibleError)) else 1
    if args.timings:
        report["timings"] = {"seconds": round(time.perf_counter() - started, 6)}
    if args.format == "json":
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    else:
        sys.stdout.write(_format_text(report))
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
