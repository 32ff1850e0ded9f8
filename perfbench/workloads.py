"""Seeded inputs, task lists and oracles of the idals benchmark workloads.

A workload is a list of tasks run one after another by one caller.  Inputs
are plain data (polynomial strings, integers, JSON workspaces) made from the
seed before timing starts; each task builds its library objects from them,
so the library receives only the generated inputs.  Seeded families draw
their *shapes* (supports, ranks, degrees) from a fixed generator and their
coefficients from the workload seed, so two seeds give different inputs of
the same shape and comparable cost.

Every task has an oracle that runs after timing: known degrees of standard
systems, sympy reduced bases, the principal-localization oracle, the
algebraic laws the acceptance suite asserts, and byte-identical golden CLI
reports captured from the seed commit (`data/golden_cli.json`).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
from fractions import Fraction

import idals
import idals.cli

WORKLOADS = ("gb-systems", "hom-chain", "glue-cli")

SHAPE_SEED = 2002_00383
GB_PRIME = 32003
# Sizes of the seeded task families
N_RANDOM_IDEALS = 200       # gb-systems: random 2-3 variable ideals
N_DELIGNE = 100             # hom-chain: Deligne windows
N_INTERSECTION = 100        # hom-chain: intersection-law checks
N_COVER = 7                 # glue-cli: workspace cover pairs (cover-check + check-idal)
N_WS_ROUNDTRIP = 6          # glue-cli: workspace modules for CLI roundtrip
N_RT_QQ, N_RT_GF5 = 20, 10  # glue-cli: in-process glue round trips
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


class Task:
    """One unit of work: `run()` returns plain data, `check(output)` returns
    None when the output is correct and a message otherwise.  A seeded task
    takes its inputs from the workload seed."""

    __slots__ = ("name", "run", "check", "seeded")

    def __init__(self, name, run, check, seeded=False):
        self.name = name
        self.run = run
        self.check = check
        self.seeded = seeded


def _field(p: int):
    return idals.GF(p) if p else idals.QQ


# ---------------------------------------------------------------------------
# polynomial data


def _support(shape, nvars, deg, nterms, constant=True):
    """Distinct exponent vectors of total degree <= deg (>= 1 unless constant)."""
    out = []
    for _ in range(nterms):
        e = [0] * nvars
        for _ in range(shape.randint(0 if constant else 1, deg)):
            e[shape.randrange(nvars)] += 1
        e = tuple(e)
        if e not in out:
            out.append(e)
    return out


def _coeffs(rng, n, choices=(-3, -2, -1, 1, 2, 3)):
    return [rng.choice(choices) for _ in range(n)]


def poly_str(terms, names) -> str:
    """'3*x^2*y - y + 1' from [(exps, coeff), ...] with nonzero int coeffs."""
    out = ""
    for exps, c in terms:
        mono = "*".join(f"{v}^{k}" if k > 1 else v for v, k in zip(names, exps) if k)
        body = (f"{abs(c)}*{mono}" if abs(c) != 1 else mono) if mono else str(abs(c))
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += (" - " if c < 0 else " + ") + body
    return out or "0"


# ---------------------------------------------------------------------------
# independent checks


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def standard_monomial_count(basis, nvars: int):
    """Number of monomials outside the grevlex leading-term ideal of a
    zero-dimensional basis given as [((exps, coeff), ...), ...]."""
    leads = [max((e for e, _ in g), key=_grevlex_key) for g in basis]
    bounds = []
    for i in range(nvars):
        pure = [e[i] for e in leads if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))
    count = 0
    for m in itertools.product(*(range(b) for b in bounds)):
        if not any(all(a <= b for a, b in zip(lm, m)) for lm in leads):
            count += 1
    return count


def _canonical(terms, p):
    """A polynomial {exps: coeff} scaled so its coefficient at the largest
    exponent tuple is 1: reduced bases agree as sets of these."""
    lead = terms[max(terms)]
    if p:
        inv = pow(int(lead) % p, p - 2, p)
        return frozenset((e, int(c) * inv % p) for e, c in terms.items())
    return frozenset((e, Fraction(c) / Fraction(lead)) for e, c in terms.items())


def sympy_basis(gens, names, order, p):
    import sympy

    syms = sympy.symbols(names)
    exprs = [sympy.sympify(g.replace("^", "**")) for g in gens]
    opts = {"modulus": p} if p else {"domain": "QQ"}
    basis = sympy.groebner(exprs, *syms, order=order, **opts)
    out = set()
    for g in basis.exprs:
        poly = sympy.Poly(g, *syms, **opts)
        terms = {}
        for monom, c in poly.terms():
            terms[tuple(monom)] = int(c) % p if p else Fraction(int(c.p), int(c.q))
        out.add(_canonical(terms, p))
    return out


def sympy_ideal_basis(polys, names):
    """Reduced grevlex basis over QQ of polynomial strings, as strings."""
    import sympy

    syms = sympy.symbols(names)
    exprs = [sympy.sympify(g.replace("^", "**")) for g in polys]
    basis = sympy.groebner(exprs, *syms, order="grevlex", domain="QQ")
    return sorted(str(sympy.Poly(g, *syms).monic().as_expr()) for g in basis.exprs)


def sympy_is_one(expr_str) -> bool:
    import sympy

    return sympy.expand(sympy.sympify(expr_str.replace("^", "**"))) == 1


# ---------------------------------------------------------------------------
# gb-systems


def cyclic(n):
    names = [f"x{i}" for i in range(n)]
    eqs = []
    for d in range(1, n):
        eqs.append(" + ".join("*".join(names[(i + j) % n] for j in range(d))
                              for i in range(n)))
    eqs.append("*".join(names) + " - 1")
    return names, eqs


def katsura(n):
    names = [f"u{i}" for i in range(n + 1)]

    def u(i):
        return names[abs(i)] if abs(i) <= n else None

    eqs = []
    for m in range(n):
        prods = [f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1) if u(l) and u(m - l)]
        eqs.append(" + ".join(prods) + f" - {names[m]}")
    eqs.append(" + ".join([names[0]] + [f"2*{v}" for v in names[1:]]) + " - 1")
    return names, eqs


def gb_inputs(seed: int) -> dict:
    systems = []
    for label, (names, eqs), degree in (("cyclic-5", cyclic(5), 70),
                                        ("katsura-4", katsura(4), 16),
                                        ("katsura-5", katsura(5), 32)):
        for p in (0, GB_PRIME):
            systems.append({"label": label, "names": names, "eqs": eqs, "p": p,
                            "degree": degree})
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    ideals = []
    for i in range(N_RANDOM_IDEALS):
        nvars = 2 + i % 2
        names = ["x", "y", "z"][:nvars]
        deg = 4 if nvars == 2 else 2
        gens = []
        for _ in range(shape.randint(2, 3)):
            supp = _support(shape, nvars, deg, shape.randint(2, 4), constant=False)
            gens.append(poly_str(list(zip(supp, _coeffs(rng, len(supp)))), names))
        ideals.append({"names": names, "gens": gens,
                       "order": ("grevlex", "lex")[(i // 2) % 2],
                       "p": (0, GB_PRIME)[(i // 4) % 2]})
    return {"systems": systems, "ideals": ideals}


def _gb_run(names, eqs, p, order="grevlex"):
    def run():
        R = idals.PolyRing(_field(p), names, order)
        basis = idals.groebner([R.poly(e) for e in eqs], R)
        return [tuple(sorted(g.terms.items())) for g in basis]
    return run


def gb_tasks(inputs) -> list:
    tasks = []
    for s in inputs["systems"]:
        def check(out, s=s):
            n = standard_monomial_count(out, len(s["names"]))
            return None if n == s["degree"] else \
                f"{n} standard monomials, expected {s['degree']}"
        field = f"GF({s['p']})" if s["p"] else "QQ"
        tasks.append(Task(f"{s['label']}/{field}", _gb_run(s["names"], s["eqs"], s["p"]), check))
    for i, d in enumerate(inputs["ideals"]):
        memo = {}

        def check(out, d=d, memo=memo):
            if "want" not in memo:
                memo["want"] = sympy_basis(d["gens"], d["names"], d["order"], d["p"])
            got = {_canonical(dict(g), d["p"]) for g in out}
            return None if got == memo["want"] else "reduced basis differs from sympy"
        tasks.append(Task(f"random-ideal/{i:03d}",
                          _gb_run(d["names"], d["gens"], d["p"], d["order"]), check, True))
    return tasks


# ---------------------------------------------------------------------------
# hom-chain


def _graded_module_1var(shape, rng, col_deg_max=3):
    """Shape of acceptance criterion 2's graded modules over QQ[x]; the seed
    picks the nonzero coefficients."""
    g = shape.randint(1, 2)
    shifts = [shape.randint(0, 2) for _ in range(g)]
    cols = []
    for _ in range(shape.randint(0, 2)):
        d = shape.randint(max(shifts), col_deg_max)
        col = []
        for a in shifts:
            c = rng.choice((1, -1, 2, -2, 3)) if shape.random() < 0.75 else 0
            k = d - a
            col.append("0" if not c else poly_str([((k,), c)], ["x"]))
        if any(e != "0" for e in col):
            cols.append(col)
    return {"gens": g, "shifts": shifts, "cols": cols}


def _random_poly(shape, rng, names, deg, zero_ok=True, terms=3):
    supp = _support(shape, len(names), deg, shape.randint(0 if zero_ok else 1, terms))
    return poly_str(list(zip(supp, _coeffs(rng, len(supp), (-2, -1, 1, 2)))), names)


def _random_ideal(shape, rng, names):
    return [_random_poly(shape, rng, names, 2, zero_ok=False)
            for _ in range(shape.randint(1, 2))]


def _random_module(shape, rng, names):
    g = shape.randint(1, 2)
    return {"gens": g, "cols": [[_random_poly(shape, rng, names, 2) for _ in range(g)]
                                for _ in range(shape.randint(0, 2))]}


def hom_inputs(seed: int) -> dict:
    shape, rng = random.Random(SHAPE_SEED + 1), random.Random(seed)
    deligne = [_graded_module_1var(shape, rng) for _ in range(N_DELIGNE)]
    inter = []
    for i in range(N_INTERSECTION):
        names = ["x"] if i % 2 == 0 else ["x", "y"]
        inter.append({"names": names, "I": _random_ideal(shape, rng, names),
                      "J": _random_ideal(shape, rng, names),
                      "M": _random_module(shape, rng, names)})
    return {"reflect_n_max": [3, 4, 5, 6], "hartogs_k": [2, 3, 4],
            "deligne": deligne, "intersection": inter}


def _module(R, spec, graded=False):
    cols = [tuple(c) for c in spec["cols"]]
    return idals.PresentedModule(R, spec["gens"], cols,
                                 grading=spec["shifts"] if graded else None)


WINDOW = range(-5, 6)


def hom_tasks(inputs) -> list:
    tasks = []
    for n in inputs["reflect_n_max"]:
        def run(n=n):
            R = idals.PolyRing(idals.QQ, ["x", "y"])
            J = idals.idal_from_ideal(["x", "y"], R)
            res = idals.reflect(J, idals.PresentedModule(R, 1, [("x",)]), n)
            chain, value = res.chain, res.value
            return {"stabilized_at": chain.stabilized_at, "truncated": chain.truncated,
                    "gens": value.gens, "grading": list(value.grading or []),
                    "relations": [[str(p) for p in col] for col in value.relations]}

        def check(out, n=n):
            # O/(x) localized away from the origin is k[y, 1/y], not finitely
            # generated: the chain must truncate, stage n being O/(x)(n)
            if out["stabilized_at"] is not None or not out["truncated"]:
                return "chain claims to stabilize"
            if out["gens"] != 1 or out["grading"] != [-n]:
                return f"stage value has gens {out['gens']} grading {out['grading']}"
            ideal = sympy_ideal_basis([col[0] for col in out["relations"]], ["x", "y"])
            return None if ideal == ["x"] else f"stage relations generate {ideal}"
        tasks.append(Task(f"reflect/n_max={n}", run, check))
    for k in inputs["hartogs_k"]:
        def run(k=k):
            R = idals.PolyRing(idals.QQ, [f"x{i}" for i in range(k)])
            J = idals.idal_from_ideal(list(R.variables), R)
            res = idals.reflect(J, idals.unit_module(R), 8)
            return [res.chain.stabilized_at, idals.is_iso(res.unit)]
        tasks.append(Task(f"hartogs/k={k}", run,
                          lambda out: None if out == [1, True] else f"got {out}"))

    def nilpotent():
        Q3 = idals.PolyRing(idals.QQ, ["x"], quotient=["x^3"])
        O3 = idals.unit_module(Q3)
        e = idals.Idal.from_map(idals.ModuleMap(O3, O3, [["x"]]))
        res = idals.reflect(e, O3, 8)
        return [idals.nilpotency_check(e, 8), res.chain.stabilized_at,
                res.value.is_zero_module()]

    tasks.append(Task("nilpotent/x^3", nilpotent,
                      lambda out: None if out[0] == 3 and out[1] is not None
                      and out[1] <= 3 and out[2] else f"got {out}"))
    for i, spec in enumerate(inputs["deligne"]):
        def run(spec=spec):
            R = idals.PolyRing(idals.QQ, ["x"])
            J = idals.idal_from_ideal(["x"], R)
            M = _module(R, spec, graded=True)
            O = idals.unit_module(R)
            window_dims = idals.localize.deligne_window_dims
            return [list(window_dims(J, O, M, n, WINDOW).values()) for n in range(10)]

        def check(dims, spec=spec):
            R = idals.PolyRing(idals.QQ, ["x"])
            loc = idals.localization_oracle("x", _module(R, spec, graded=True))
            oracle = [idals.graded_dim(loc, d) for d in WINDOW]
            stable = [n for n in range(9) if dims[n] == dims[n + 1]]
            if not stable:
                return "window dims never stabilize"
            bad = [n for n in range(stable[0], 10) if dims[n] != oracle]
            return None if not bad else f"stages {bad} differ from the localization oracle"
        tasks.append(Task(f"deligne-window/{i:03d}", run, check, True))
    for i, d in enumerate(inputs["intersection"]):
        def run(d=d):
            R = idals.PolyRing(idals.QQ, d["names"])
            return idals.intersection_check(idals.idal_from_ideal(d["I"], R),
                                            idals.idal_from_ideal(d["J"], R),
                                            _module(R, d["M"]))
        tasks.append(Task(f"intersection/{i:03d}", run,
                          lambda out: None if out is True else "intersection law fails", True))
    return tasks


# ---------------------------------------------------------------------------
# glue-cli

_LINE = ["--preset", "double-origin-line"]
_P1 = ["--preset", "p1"]
_PLANE = ["--preset", "double-origin-plane"]

# Every command of the README and the CLI tests, every demo, and commands
# over the objects of all three presets.  Reports are compared byte for byte
# with data/golden_cli.json.
CLI_COMMANDS = [
    ["cover-check", "I", "J"] + _LINE,
    ["cover-check", "I", "I"] + _LINE,
    ["check-idal", "e10"] + _LINE,
    ["check-idal", "xmult"] + _LINE,
    ["reflect-idal", "e10"] + _LINE,
    ["reflect-idal", "xmult"] + _LINE,
    ["idal-product", "I", "J"] + _LINE,
    ["nilpotency", "I"] + _LINE,
    ["localize", "x", "O"] + _LINE,
    ["quotient", "I", "O"] + _LINE,
    ["believes", "I", "O"] + _LINE,
    ["compare-idals", "I", "Isq"] + _LINE,
    ["compare-idals", "Isq", "I", "--n-max", "2"] + _LINE,
    ["compare-idals", "Isq", "I", "--n-max", "1"] + _LINE,
    ["deligne-hom", "I", "O", "k0"] + _LINE,
    ["deligne-hom", "I", "O", "k0", "--trace"] + _LINE,
    ["roundtrip", "I", "J", "O"] + _LINE,
    ["sections", "sky_both"] + _LINE,
    ["glue", "bad_twist"] + _P1,
    ["glue", "O1twist"] + _P1,
    ["sections", "O"] + _P1,
    ["sections", "O2twist"] + _P1,
    ["sections", "Om1twist"] + _P1,
    ["invertible", "O1twist"] + _P1,
    ["invertible", "bad_twist"] + _P1,
    ["tensor-glued", "O1twist", "O1twist"] + _P1,
    ["idal-generate", "skyscraper1"] + _P1,
    ["idal-generate", "skyscraper2"] + _P1,
    ["idal-generate", "O1twist"] + _P1,
    ["cover-check", "T1", "S2"] + _P1,
    ["sections", "missing"] + _P1,
    ["believes", "Jxy", "O"] + _PLANE,
    ["deligne-hom", "Jxy", "O", "O"] + _PLANE,
    ["quotient", "Jxy", "O"] + _PLANE,
    ["localize", "x", "ideal_xy"] + _PLANE,
    ["nilpotency", "Jxy"] + _PLANE,
    ["glue", "O_double"] + _PLANE,
    ["sections", "O_double"] + _PLANE,
    ["demo", "p1-sections", "--n", "3"],
    ["demo", "p1-sections", "--n", "2", "--format", "text"],
    ["demo", "serre-twist", "--n", "2", "--m", "-3"],
    ["demo", "hartogs"],
    ["demo", "nilpotent-line"],
    ["demo", "roundtrip-line"],
    ["demo", "double-origin-plane"],
    ["demo", "doubleorigin2"],
    ["demo", "p1-generate", "--n", "-2"],
]


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = idals.cli.run(list(argv))
    return [code, buf.getvalue()]


def report_bytes(tasks, outputs) -> int:
    """Bytes of CLI report text among the outputs of one pass."""
    return sum(len(out[1].encode()) for task, out in zip(tasks, outputs)
               if task.name.startswith(("cli/", "ws/")) and out is not None)


def load_golden() -> dict:
    with open(os.path.join(DATA_DIR, "golden_cli.json")) as fh:
        return json.load(fh)


def workspace_path(root: str, seed: int) -> str:
    return os.path.join(root, ".bench_build", "perfbench", f"workspace-{seed}.json")


def glue_inputs(seed: int, root: str) -> dict:
    shape, rng = random.Random(SHAPE_SEED + 2), random.Random(seed)
    ws = {"rings": {"A": {"field": "QQ", "variables": ["x"], "order": "grevlex"}},
          "modules": {}, "idals": {"I": {"ring": "A", "ideal_generators": ["x"]},
                                   "J": {"ring": "A", "ideal_generators": ["x - 1"]}}}
    covers = []
    for k in range(N_COVER):
        f = _random_poly(shape, rng, ["x"], 2, zero_ok=False)
        c = rng.choice((1, 2, -1))
        g = f"{f} + {c}" if c > 0 else f"{f} - {-c}"
        ws["idals"][f"C{k}"] = {"ring": "A", "ideal_generators": [f]}
        ws["idals"][f"D{k}"] = {"ring": "A", "ideal_generators": [g]}
        covers.append([f, g])
    for k in range(N_WS_ROUNDTRIP):
        spec = _graded_module_1var(shape, rng)
        ws["modules"][f"M{k}"] = {"ring": "A", "gens": spec["gens"],
                                  "relations": [[col[i] for col in spec["cols"]]
                                                for i in range(spec["gens"])],
                                  "grading": spec["shifts"]}
    path = workspace_path(root, seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ws, fh, sort_keys=True, indent=1)
    roundtrips = [("QQ", _graded_module_1var(shape, rng)) for _ in range(N_RT_QQ)]
    roundtrips += [("GF5", _graded_module_1var(shape, rng)) for _ in range(N_RT_GF5)]
    return {"workspace": path, "covers": covers, "roundtrips": roundtrips}


def _cli_report_check(expect_code, predicate):
    def check(out):
        code, text = out
        if code != expect_code:
            return f"exit {code}, expected {expect_code}"
        return None if predicate(json.loads(text)) else "report fails its check"
    return check


def _cover_certificate_ok(gens):
    def ok(report):
        cof = report["certificates"]["one_as_combination"]
        combo = " + ".join(f"({a})*({g})" for a, g in zip(cof, gens))
        return report["result"]["is_cover"] is True and sympy_is_one(combo)
    return ok


def glue_tasks(inputs) -> list:
    tasks = []
    golden = load_golden()
    for argv in CLI_COMMANDS:
        key = " ".join(argv)

        def check(out, key=key):
            want = golden[key]
            if out[0] != want["code"]:
                return f"exit {out[0]}, golden {want['code']}"
            return None if out[1] == want["report"] else "report differs from golden"
        tasks.append(Task(f"cli/{key}", lambda argv=argv: run_cli(argv), check))
    ws = ["--workspace", inputs["workspace"]]
    for k, gens in enumerate(inputs["covers"]):
        tasks.append(Task(f"ws/cover-check/{k}",
                          lambda k=k: run_cli(["cover-check", f"C{k}", f"D{k}"] + ws),
                          _cli_report_check(0, _cover_certificate_ok(gens)), True))
        tasks.append(Task(f"ws/check-idal/{k}",
                          lambda k=k: run_cli(["check-idal", f"C{k}"] + ws),
                          _cli_report_check(0, lambda r: r["result"]["is_idal"] is True), True))
    for k in range(N_WS_ROUNDTRIP):
        tasks.append(Task(f"ws/roundtrip/{k}",
                          lambda k=k: run_cli(["roundtrip", "I", "J", f"M{k}"] + ws),
                          _cli_report_check(0, lambda r: r["result"]["roundtrip"] is True), True))
    for n in range(-3, 6):
        def run(n=n):
            return idals.global_sections(idals.p1_standard(n, idals.p1_scheme()), 6).total
        tasks.append(Task(f"p1-sections/n={n}", run,
                          lambda out, n=n: None if out == max(n + 1, 0)
                          == idals.p1_sections_oracle(n) else f"dimension {out}"))
    for a in range(-3, 4):
        for b in range(-3, 4):
            def run(a=a, b=b):
                sch = idals.p1_scheme()
                T = idals.tensor_glued(idals.p1_standard(a, sch), idals.p1_standard(b, sch))
                witness = idals.glued._free_rank_one_witness
                iso = idals.GluedMap(idals.p1_standard(a + b, sch), T,
                                     witness(T.m1), witness(T.m2))
                return [idals.is_iso(iso.c1), idals.is_iso(iso.c2)]
            tasks.append(Task(f"serre-twist/{a},{b}", run,
                              lambda out: None if out == [True, True] else f"got {out}"))

        def run_inverse(a=a):
            G = idals.p1_standard(a, idals.p1_scheme())
            ok = idals.invertible_check(G)
            return [ok, [[str(x) for x in row] for row in idals.inverse_of(G).tau.matrix]]
        # O(a) has overlap datum t^a, so its inverse O(-a) has t^-a = ti^a
        want = "1" if a == 0 else (("ti" if a > 0 else "t") + (f"^{abs(a)}" if abs(a) > 1 else ""))
        tasks.append(Task(f"serre-inverse/{a}", run_inverse,
                          lambda out, want=want: None if out == [True, [[want]]]
                          else f"got {out}"))
    for k, (field, spec) in enumerate(inputs["roundtrips"]):
        def run(field=field, spec=spec):
            if field == "QQ":
                R = idals.PolyRing(idals.QQ, ["x"])
                I, J = idals.idal_from_ideal(["x"], R), idals.idal_from_ideal(["x-1"], R)
            else:
                R = idals.PolyRing(idals.GF(5), ["x"])
                I, J = idals.idal_from_ideal(["x"], R), idals.idal_from_ideal(["x+1"], R)
            res = idals.roundtrip_check(R, I, J, _module(R, spec, graded=True),
                                        n_max=8, degree_bound=6)
            return [res.ok, res.mode]
        tasks.append(Task(f"roundtrip/{field}/{k:02d}", run,
                          lambda out: None if out[0] is True else f"got {out}", True))
    for n in range(-2, 3):
        def run(n=n):
            gen = idals.idal_generation(idals.p1_standard(n, idals.p1_scheme()), n_max=8)
            return [gen.verified, gen.map.is_chartwise_surjective()]
        tasks.append(Task(f"idal-generation/O({n})", run,
                          lambda out: None if out == [True, True] else f"got {out}"))
    for label, rel1, rel2 in (("sky1", "t", None), ("sky1sq", "t^2", None),
                              ("sky2", None, "s")):
        def run(rel1=rel1, rel2=rel2):
            sch = idals.p1_scheme()
            m1 = idals.PresentedModule(sch.chart1, 1, [(rel1,)]) if rel1 \
                else idals.zero_module(sch.chart1)
            m2 = idals.PresentedModule(sch.chart2, 1, [(rel2,)]) if rel2 \
                else idals.zero_module(sch.chart2)
            return idals.idal_generation(idals.GluedModule(sch, m1, m2, [], []),
                                         n_max=8).verified
        tasks.append(Task(f"idal-generation/{label}", run,
                          lambda out: None if out is True else "generation not verified"))
    return tasks


# ---------------------------------------------------------------------------


def make_inputs(workload: str, seed: int, root: str) -> dict:
    if workload == "gb-systems":
        return gb_inputs(seed)
    if workload == "hom-chain":
        return hom_inputs(seed)
    if workload == "glue-cli":
        return glue_inputs(seed, root)
    raise ValueError(f"unknown workload {workload!r}")


def make_tasks(workload: str, inputs: dict) -> list:
    return {"gb-systems": gb_tasks, "hom-chain": hom_tasks,
            "glue-cli": glue_tasks}[workload](inputs)
