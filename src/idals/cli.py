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
    StabilizationError,
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
    invertible_check,
    o_glued,
    p1_scheme,
    p1_sections_oracle,
    p1_standard,
    roundtrip_check,
    tensor_glued,
)
from .polyring import QQ, PolyRing, groebner


COMMANDS = (
    "check-idal", "reflect-idal", "idal-product", "cover-check", "nilpotency",
    "localize", "deligne-hom", "believes", "quotient", "compare-idals",
    "glue", "sections", "roundtrip", "tensor-glued", "invertible",
    "idal-generate", "demo",
)

PRESETS = ("p1", "double-origin-line", "double-origin-plane")

# The largest --degree-bound.  Graded windows count every degree up to it, and
# at 10^8 the process runs out of memory before it writes a report.
MAX_DEGREE_BOUND = 10_000


class Workspace:
    """Named rings, modules, maps, idals, schemes, and glued modules."""

    def __init__(self):
        self.rings: dict = {}
        self.modules: dict = {}
        self.maps: dict = {}
        self.idals: dict = {}
        self.schemes: dict = {}
        self.glued: dict = {}
        self._glued_specs: dict = {}

    def load(self, data: dict):
        if not isinstance(data, dict):
            raise WorkspaceError(f"a workspace must be a JSON object, not {type(data).__name__}")
        for section in ("rings", "modules", "maps", "idals", "schemes", "glued"):
            names = data.get(section, {})
            if not isinstance(names, dict):
                raise WorkspaceError(f"workspace section {section!r} must be a JSON object "
                                     f"mapping names to objects")
            store = getattr(self, section if section != "glued" else "_glued_specs")
            for name, spec in names.items():
                if name in store:
                    raise WorkspaceError(f"duplicate name {name!r} in {section}")
                if not isinstance(spec, dict):
                    raise WorkspaceError(f"{section} entry {name!r} must be a JSON object")
        for name, spec in data.get("rings", {}).items():
            try:
                self.rings[name] = PolyRing.from_json(spec)
            except Exception as exc:
                raise WorkspaceError(f"bad ring {name!r}: {exc}") from exc
        for name, spec in data.get("modules", {}).items():
            ring = self._ring(spec.get("ring"))
            try:
                self.modules[name] = PresentedModule.from_json(spec, ring)
            except Exception as exc:
                raise WorkspaceError(f"bad module {name!r}: {exc}") from exc
        for name, spec in data.get("maps", {}).items():
            src = self.module(spec.get("source"))
            tgt = self.module(spec.get("target"))
            try:
                self.maps[name] = ModuleMap(src, tgt, spec["matrix"])
            except Exception as exc:
                raise WorkspaceError(f"bad map {name!r}: {exc}") from exc
        for name, spec in data.get("idals", {}).items():
            try:
                if "ideal_generators" in spec:
                    ring = self._ring(spec.get("ring"))
                    self.idals[name] = idal_from_ideal(spec["ideal_generators"], ring)
                else:
                    carrier = self.module(spec["carrier"])
                    e = ModuleMap(carrier, unit_module(carrier.ring), spec["e_matrix"])
                    self.idals[name] = Idal(carrier, e)
            except WorkspaceError:
                raise
            except Exception as exc:
                raise WorkspaceError(f"bad idal {name!r}: {exc}") from exc
        for name, spec in data.get("schemes", {}).items():
            try:
                if spec.get("kind") == "selfglue":
                    self.schemes[name] = TwoChartScheme.selfglue(
                        self._ring(spec["ring"]), self.idal(spec["idal"]))
                else:
                    self.schemes[name] = TwoChartScheme.affine(
                        self._ring(spec["chart1"]), self._ring(spec["chart2"]),
                        spec["f1"], spec["f2"], spec["inv1"], spec["inv2"],
                        spec["to2"], spec["to1"])
            except WorkspaceError:
                raise
            except Exception as exc:
                raise WorkspaceError(f"bad scheme {name!r}: {exc}") from exc
        for name, spec in data.get("glued", {}).items():
            self._glued_specs[name] = spec

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
        return self._lookup(self._glued_specs, "glued module", name)

    def glued_module(self, name) -> GluedModule:
        if name not in self.glued:
            self.glued[name] = self._build_glued(self.glued_spec(name))
        return self.glued[name]

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


def _mod_json(M: PresentedModule):
    return M.to_json()


def _map_json(m: ModuleMap):
    return {"matrix": [[str(x) for x in row] for row in m.matrix]}


def _chain_json(chain, trace: bool):
    out = {
        "stabilized_at": chain.stabilized_at,
        "truncated": chain.truncated,
        "saturated": chain.saturated,
        "value": _mod_json(chain.value),
    }
    if trace:
        out["stages"] = [_mod_json(s) for s in chain.stages]
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
    pi_iso = is_iso(pi)
    return ({"idal": idal.serialize(), "pi": _map_json(pi), "pi_is_iso": pi_iso},
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
    e = ws.idal(args.names[0])
    n = nilpotency_check(e, args.n_max)
    return {"nilpotent_at": n}, {}, n is not None


def _cmd_localize(ws, args):
    M = ws.module(args.names[1])
    f = M.ring.poly(args.names[0])
    out = localization_oracle(f, M)
    result = {"module": _mod_json(out), "is_zero": out.is_zero_module()}
    if out.grading is not None:
        dims = graded_dims(out, range(-args.degree_bound, args.degree_bound + 1))
        result["graded_dims"] = {str(d): v for d, v in dims.items()}
    return result, {}, True


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
    result = {"module": _mod_json(Q), "is_zero": Q.is_zero_module()}
    if Q.grading is not None:
        dims = graded_dims(Q, range(0, args.degree_bound + 1))
        result["graded_dims"] = {str(d): v for d, v in dims.items()}
    return result, {}, True


def _cmd_compare_idals(ws, args):
    I, J = ws.idal(args.names[0]), ws.idal(args.names[1])
    found = idal_comparison_search(I, J, args.n_max)
    if found is None:
        return {"found": False}, {}, False
    n, morphism = found
    return ({"found": True, "power": n, "lift": _map_json(morphism.f)},
            {"triangle_commutes": True}, True)


def _cmd_glue(ws, args):
    name = args.names[0]
    try:
        G = ws.glued_module(name)
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
        result["by_degree"] = {str(k): v for k, v in sorted(S.by_degree.items())}
    if S.module is not None:
        result["module"] = _mod_json(S.module)
    return result, {}, True


def _cmd_roundtrip(ws, args):
    I, J = ws.idal(args.names[0]), ws.idal(args.names[1])
    M = ws.module(args.names[2])
    res = roundtrip_check(M.ring, I, J, M, args.n_max, args.degree_bound)
    return {"roundtrip": res.ok, "mode": res.mode}, dict(res.detail), res.ok


def _cmd_tensor_glued(ws, args):
    G, H = ws.glued_module(args.names[0]), ws.glued_module(args.names[1])
    T = tensor_glued(G, H)
    return {"glued": T.serialize()}, {}, True


def _cmd_invertible(ws, args):
    G = ws.glued_module(args.names[0])
    ok = invertible_check(G)
    result = {"invertible": ok}
    cert = {}
    if ok:
        result["inverse"] = inverse_of(G).serialize()
    else:
        cert["rank_one_chart1"] = _free_rank_one_witness(G.m1) is not None
        cert["rank_one_chart2"] = _free_rank_one_witness(G.m2) is not None
    return result, cert, ok


def _cmd_idal_generate(ws, args):
    G = ws.glued_module(args.names[0])
    gen = idal_generation(G, args.n_max)
    return ({"blocks": [{"chart": b.chart, "power": b.power} for b in gen.blocks],
             "surjective": gen.verified}, {}, True)


def _run_demo(args):
    name = args.names[0] if args.names else ""
    n = args.n
    if name == "p1-sections":
        G = p1_standard(n)
        S = global_sections(G, args.degree_bound)
        oracle = p1_sections_oracle(n)
        ok = S.total == oracle
        return ({"twist": n, "dimension": S.total, "oracle": oracle,
                 "by_degree": {str(k): v for k, v in sorted((S.by_degree or {}).items())}},
                {"matches_oracle": ok}, ok)
    if name == "serre-twist":
        a, b = n, args.m
        sch = p1_scheme()
        T = tensor_glued(p1_standard(a, sch), p1_standard(b, sch))
        E = p1_standard(a + b, sch)
        iso = GluedMap(E, T, _free_rank_one_witness(T.m1), _free_rank_one_witness(T.m2))
        ok = is_iso(iso.c1) and is_iso(iso.c2)
        return {"a": a, "b": b, "isomorphic_to_sum_twist": ok}, {}, ok
    if name == "hartogs":
        R = PolyRing(QQ, ["x", "y"])
        J = idal_from_ideal(["x", "y"], R)
        res = reflect(J, unit_module(R), args.n_max)
        ok = res.chain.stabilized_at == 1 and is_iso(res.unit)
        return ({"stabilized_at": res.chain.stabilized_at,
                 "unit_is_iso": is_iso(res.unit)}, {}, ok)
    if name == "nilpotent-line":
        Q3 = PolyRing(QQ, ["x"], quotient=["x^3"])
        O3 = unit_module(Q3)
        e = Idal.from_map(ModuleMap(O3, O3, [["x"]]))
        nil = nilpotency_check(e, args.n_max)
        res = reflect(e, O3, args.n_max)
        ok = nil == 3 and res.value.is_zero_module()
        return ({"nilpotent_at": nil, "reflected_to_zero": res.value.is_zero_module()},
                {}, ok)
    if name == "roundtrip-line":
        A = PolyRing(QQ, ["x"])
        I = idal_from_ideal(["x"], A)
        J = idal_from_ideal(["x-1"], A)
        res = roundtrip_check(A, I, J, unit_module(A), args.n_max, args.degree_bound)
        return {"roundtrip": res.ok, "mode": res.mode}, dict(res.detail), res.ok
    if name == "double-origin-plane":
        R = PolyRing(QQ, ["x", "y"])
        J = idal_from_ideal(["x", "y"], R)
        sch = TwoChartScheme.selfglue(R, J)
        S = global_sections(o_glued(sch), args.degree_bound, args.n_max)
        return ({"sections_module": _mod_json(S.module),
                 "by_degree": {str(k): v for k, v in sorted((S.by_degree or {}).items())}},
                {}, True)
    if name == "doubleorigin2":
        R = PolyRing(QQ, ["T1", "T2"])
        J1 = idal_from_ideal(["T1", "T2"], R)
        J2 = Idal.identity(R)
        prod = idal_product(J1, J2)
        p = ModuleMap(free_module(R, 2, [1, 1]), prod.carrier,
                      [["1", "0"], ["0", "1"]], check=False)
        rep = doubleorigin2_datum_check(J1, J2, p)
        return {"clauses": rep.clauses}, {}, rep.ok
    if name == "p1-generate":
        G = p1_standard(n)
        gen = idal_generation(G, args.n_max)
        return ({"twist": n, "blocks": [{"chart": b.chart, "power": b.power}
                                        for b in gen.blocks],
                 "surjective": gen.verified}, {}, gen.verified)
    raise WorkspaceError(
        f"unknown demo {name!r}; have p1-sections, serre-twist, hartogs, "
        "nilpotent-line, roundtrip-line, double-origin-plane, doubleorigin2, p1-generate")


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
    except (TauNotWellDefinedError, TauNotInvertibleError) as exc:
        report["result"] = {"error": type(exc).__name__, "message": str(exc)}
        code = 2
    except (WorkspaceError, StabilizationError) as exc:
        report["result"] = {"error": type(exc).__name__, "message": str(exc)}
        code = 1
    except AlgebraError as exc:
        report["result"] = {"error": type(exc).__name__, "message": str(exc)}
        code = 1
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
