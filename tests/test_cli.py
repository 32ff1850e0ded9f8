import importlib.util
import itertools
import json
import pathlib
import re
import time

import pytest

from idals import QQ, PolyRing
from idals.cli import MAX_DEGREE_BOUND, MAX_N_MAX, Workspace, load_preset, run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if argv and "--format" not in argv else out


def test_cover_check_true(capsys):
    code, report = invoke(capsys, "cover-check", "I", "J", "--preset", "double-origin-line")
    assert code == 0
    assert report["result"]["is_cover"] is True
    assert report["certificates"]["one_as_combination"] == ["1", "-1"]


def test_cover_check_false_exits_two(capsys):
    code, report = invoke(capsys, "cover-check", "I", "I", "--preset", "double-origin-line")
    assert code == 2
    assert report["result"]["is_cover"] is False
    assert report["certificates"]["reduced_basis"] == ["x"]


def test_check_idal_failure_witness(capsys):
    code, report = invoke(capsys, "check-idal", "e10", "--preset", "double-origin-line")
    assert code == 2
    assert report["result"]["is_idal"] is False
    assert report["certificates"]["witness"]["difference"] != ["0", "0"]


def test_check_idal_success(capsys):
    code, report = invoke(capsys, "check-idal", "xmult", "--preset", "double-origin-line")
    assert code == 0 and report["result"]["is_idal"] is True


def test_demo_p1_sections(capsys):
    code, report = invoke(capsys, "demo", "p1-sections", "--n", "3")
    assert code == 0
    assert report["result"]["dimension"] == 4
    assert report["certificates"]["matches_oracle"] is True


def test_demo_names(capsys):
    for name in ("hartogs", "nilpotent-line", "roundtrip-line", "doubleorigin2",
                 "double-origin-plane"):
        code, _ = invoke(capsys, "demo", name)
        assert code == 0, name
    code, report = invoke(capsys, "demo", "p1-generate", "--n", "-2")
    assert code == 0 and report["result"]["surjective"] is True
    code, report = invoke(capsys, "demo", "serre-twist", "--n", "2", "--m", "-3")
    assert code == 0 and report["result"]["isomorphic_to_sum_twist"] is True


def test_glue_rejects_bad_tau(capsys):
    code, report = invoke(capsys, "glue", "bad_twist", "--preset", "p1")
    assert code == 2
    assert report["result"]["error"] == "tau not invertible"


def test_glue_valid(capsys):
    code, report = invoke(capsys, "glue", "O1twist", "--preset", "p1")
    assert code == 0 and report["result"]["valid"] is True


def test_sections_command(capsys):
    code, report = invoke(capsys, "sections", "O2twist", "--preset", "p1")
    assert code == 0
    assert report["result"]["total"] == 3


def test_roundtrip_command(capsys):
    code, report = invoke(capsys, "roundtrip", "I", "J", "O",
                          "--preset", "double-origin-line")
    assert code == 0 and report["result"]["roundtrip"] is True


def test_roundtrip_large_window(capsys):
    code, report = invoke(capsys, "roundtrip", "I", "J", "O", "--preset",
                          "double-origin-line", "--degree-bound", "200")
    assert code == 0
    assert report["result"] == {"mode": "windowed", "roundtrip": True}
    assert report["certificates"] == {"injective_on_window": True,
                                      "window_dim_pullback": 201, "window_rank_image": 201}


def test_sections_large_window(capsys):
    code, report = invoke(capsys, "sections", "O2twist", "--preset", "p1",
                          "--degree-bound", "100")
    assert code == 0
    assert report["result"]["total"] == 3
    assert report["result"]["by_degree"] == {"0": 1, "1": 1, "2": 1}


def test_believes_false_exit(capsys):
    code, report = invoke(capsys, "believes", "I", "O", "--preset", "double-origin-line")
    assert code == 2
    assert report["certificates"]["iso_failure"] is not None


def test_compare_idals(capsys):
    code, report = invoke(capsys, "compare-idals", "I", "Isq",
                          "--preset", "double-origin-line")
    assert code == 0 and report["result"]["power"] == 1
    code, report = invoke(capsys, "compare-idals", "Isq", "I", "--n-max", "2",
                          "--preset", "double-origin-line")
    assert code == 0 and report["result"]["power"] == 2
    code, report = invoke(capsys, "compare-idals", "Isq", "I", "--n-max", "1",
                          "--preset", "double-origin-line")
    assert code == 2 and report["result"]["found"] is False


def test_nilpotency_absent_exits_two(capsys):
    code, report = invoke(capsys, "nilpotency", "I", "--preset", "double-origin-line")
    assert code == 2 and report["result"]["nilpotent_at"] is None


def test_invertible_command(capsys):
    code, report = invoke(capsys, "invertible", "O1twist", "--preset", "p1")
    assert code == 0 and report["result"]["invertible"] is True
    assert report["result"]["inverse"]["tau"] == [["ti"]]


def test_idal_generate_command(capsys):
    code, report = invoke(capsys, "idal-generate", "skyscraper1", "--preset", "p1")
    assert code == 0 and report["result"]["surjective"] is True


def test_tensor_glued_command(capsys):
    code, report = invoke(capsys, "tensor-glued", "O1twist", "O1twist", "--preset", "p1")
    assert code == 0
    assert report["result"]["glued"]["tau"] == [["t^2"]]


def test_localize_and_quotient(capsys):
    code, report = invoke(capsys, "localize", "x", "O", "--preset", "double-origin-line")
    assert code == 0
    dims = report["result"]["graded_dims"]
    assert dims["-3"] == 1 and dims["3"] == 1
    code, report = invoke(capsys, "quotient", "I", "O", "--preset", "double-origin-line")
    assert code == 0
    assert report["result"]["graded_dims"]["0"] == 1
    assert report["result"]["graded_dims"]["1"] == 0


def test_deligne_hom_command(capsys):
    code, report = invoke(capsys, "deligne-hom", "I", "O", "k0",
                          "--preset", "double-origin-line")
    assert code == 0
    assert report["result"]["chain"]["stabilized_at"] == 1
    assert report["result"]["chain"]["value"]["gens"] in (0, 1)


def test_unresolved_name_exits_one(capsys):
    code, report = invoke(capsys, "believes", "nope", "O", "--preset", "double-origin-line")
    assert code == 1 and report["result"]["error"] == "WorkspaceError"


def test_missing_workspace_file_exits_one(capsys, tmp_path):
    path = str(tmp_path / "nonexistent.json")
    code, report = invoke(capsys, "sections", "O", "--workspace", path)
    assert code == 1 and report["result"]["error"] == "WorkspaceError"
    assert path in report["result"]["message"]


def test_malformed_workspace_json_exits_one(capsys, tmp_path):
    path = tmp_path / "bad.json"
    for content in (b"{bad", b"\xff\xfe{"):
        path.write_bytes(content)
        code, report = invoke(capsys, "sections", "O", "--workspace", str(path))
        assert code == 1 and report["result"]["error"] == "WorkspaceError"


@pytest.mark.parametrize("data", [
    [1],
    {"modules": 5},
    {"rings": {"A": 5}},
    {"rings": {"A": {"field": "QQ", "variables": ["x"]}}, "modules": {"M": {"ring": [1]}}},
])
def test_workspace_of_wrong_shape_exits_one(capsys, tmp_path, data):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(data))
    code, report = invoke(capsys, "sections", "O", "--workspace", str(path))
    assert code == 1 and report["result"]["error"] == "WorkspaceError"


def test_bad_staged_tau_exits_one(capsys, tmp_path):
    spec = dict(load_preset("double-origin-line")["glued"]["sky_both"])
    spec["tau"] = {"fwd_stage": "a"}
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"glued": {"G": spec}}))
    code, report = invoke(capsys, "sections", "G", "--workspace", str(path),
                          "--preset", "double-origin-line")
    assert code == 1 and report["result"]["error"] == "WorkspaceError"


def test_oversized_stage_exits_one_quickly(capsys, tmp_path):
    # stage n of the (x, y) idal has 2^n generators; past the power bound
    # the report is an exit-1 error, not minutes of tensor products
    spec = dict(load_preset("double-origin-plane")["glued"]["O_double"])
    spec["tau"] = dict(spec["tau"], fwd_stage=30)
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"glued": {"G": spec}}))
    for argv in (["nilpotency", "Jxy", "--n-max", "40"],
                 ["sections", "G", "--workspace", str(path)]):
        started = time.perf_counter()
        code, report = invoke(capsys, *argv, "--preset", "double-origin-plane")
        assert time.perf_counter() - started < 1.0
        assert code == 1 and report["result"]["error"] == "AlgebraError"
        assert "256" in report["result"]["message"]


def test_deep_staged_tau_is_reported_not_a_traceback(capsys, tmp_path):
    # the line's idal (x) has one generator, so a tau at stage 500 is a
    # 1 x 1 matrix; checking it curries through 500 hom stages, which must
    # not take one Python frame per stage
    tau = {"fwd_stage": 500, "fwd": [["x"]], "bwd_stage": 500, "bwd": [["x"]]}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"glued": {"deep": {"scheme": "DOL", "m1": "O", "m2": "O",
                                                   "tau": tau}}}))
    code, report = invoke(capsys, "glue", "deep", "--workspace", str(path),
                          "--preset", "double-origin-line")
    assert code == 2
    assert report["result"] == {"valid": False, "error": "tau not invertible"}


def test_compare_idals_on_the_plane_finds_no_power(capsys):
    # the search reads the hom chains of (x, y) to n_max 8 without
    # presenting its tensor powers of up to 256 generators
    started = time.perf_counter()
    code, report = invoke(capsys, "compare-idals", "Jx", "Jxy",
                          "--preset", "double-origin-plane")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and report["result"] == {"found": False}


def staged_o_workspace(tmp_path, stage):
    """A workspace gluing O on both charts of the self-glued (x, y) plane by
    e^{(x)stage} forward and 1 back; idal generation needs the chart idal
    at that power."""
    x_y = load_preset("double-origin-plane")["idals"]["Jxy"]["ideal_generators"]
    row = ["*".join(f"({g})" for g in idx) for idx in itertools.product(x_y, repeat=stage)]
    spec = dict(load_preset("double-origin-plane")["glued"]["O_double"])
    spec["tau"] = {"fwd_stage": stage, "fwd": [row], "bwd_stage": 0, "bwd": [["1"]]}
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"glued": {"G": spec}}))
    return str(path)


@pytest.mark.parametrize("stage", [5, 7])
def test_large_chart_idal_power_exits_one_quickly(capsys, tmp_path, stage):
    # validating the chart idal at that power works at stage 2 * stage,
    # past MAX_POWER_GENS = 2^8 generators
    path = staged_o_workspace(tmp_path, stage)
    code, report = invoke(capsys, "glue", "G", "--workspace", path,
                          "--preset", "double-origin-plane")
    assert code == 0 and report["result"]["valid"] is True
    started = time.perf_counter()
    code, report = invoke(capsys, "idal-generate", "G", "--workspace", path,
                          "--preset", "double-origin-plane")
    assert time.perf_counter() - started < 1.0
    assert code == 1 and report["result"]["error"] == "AlgebraError"
    assert f"tensor power {2 * stage} " in report["result"]["message"]
    assert "256" in report["result"]["message"]


def test_stage_seven_tau_loads_exactly(capsys, tmp_path):
    # the loader checks the 1 x 128 row e^{(x)7} by currying it into the
    # idal's hom chain, without presenting J^{(x)7} (x) O
    path = staged_o_workspace(tmp_path, 7)
    code, report = invoke(capsys, "glue", "G", "--workspace", path,
                          "--preset", "double-origin-plane")
    R = PolyRing(QQ, ["x", "y"])
    x, y = R.var("x"), R.var("y")
    row = [str(x ** idx.count("x") * y ** idx.count("y"))
           for idx in itertools.product("xy", repeat=7)]
    assert code == 0 and report["result"]["valid"] is True
    assert report["result"]["glued"]["tau"] == {"fwd_stage": 7, "fwd": [row],
                                                "bwd_stage": 0, "bwd": [["1"]]}


@pytest.mark.parametrize("preset,spec", [
    # O/(x) -> O sending 1 to 1 does not kill x
    ("double-origin-line", {"scheme": "DOL", "m1": "k0", "m2": "O",
                            "tau": {"fwd_stage": 0, "fwd": [["1"]], "bwd_stage": 0,
                                    "bwd": [["0"]]}}),
    # (x, y) -> O sending x to 1 and y to 0 does not kill the relation (y, -x)
    ("double-origin-plane", {"scheme": "DOP", "m1": "O", "m2": "O",
                             "tau": {"fwd_stage": 1, "fwd": [["1", "0"]], "bwd_stage": 0,
                                     "bwd": [["1"]]}}),
], ids=["stage0", "stage1"])
def test_ill_defined_staged_tau_exits_one(capsys, tmp_path, preset, spec):
    path = tmp_path / "tau.json"
    path.write_text(json.dumps({"glued": {"G": spec}}))
    code, report = invoke(capsys, "glue", "G", "--workspace", str(path), "--preset", preset)
    assert code == 1
    assert report["result"] == {
        "error": "WellDefinednessError",
        "message": "matrix does not send source relations into target relations"}


@pytest.mark.parametrize("argv", [
    ["quotient", "Jxy", "O", "--preset", "double-origin-plane",
     "--degree-bound", str(MAX_DEGREE_BOUND + 1)],
    ["localize", "x", "O", "--preset", "double-origin-line", "--degree-bound", str(10 ** 8)],
], ids=["just-past", "1e8"])
def test_degree_bound_past_the_limit_exits_one(capsys, argv):
    code, report = invoke(capsys, *argv)
    assert code == 1 and report["result"]["error"] == "WorkspaceError"


@pytest.mark.parametrize("command,n_max", [
    (["roundtrip", "I", "J", "O"], MAX_N_MAX + 1),
    (["nilpotency", "I"], 10 ** 5),
], ids=["just-past", "1e5"])
def test_n_max_past_the_limit_exits_one(capsys, command, n_max):
    code, report = invoke(capsys, *command, "--preset", "double-origin-line",
                          "--n-max", str(n_max))
    assert code == 1
    assert report["result"] == {"error": "WorkspaceError",
                                "message": f"flags out of range: need n-max <= {MAX_N_MAX}"}


def test_n_max_at_the_limit_runs(capsys):
    code, report = invoke(capsys, "nilpotency", "I", "--preset", "double-origin-line",
                          "--n-max", str(MAX_N_MAX))
    assert code == 2 and report["result"] == {"nilpotent_at": None}


def test_chart_idal_power_four_generates(capsys, tmp_path):
    # its validation matrices have 2^4 rows and 2^12 columns, at stage 8
    path = staged_o_workspace(tmp_path, 4)
    code, report = invoke(capsys, "idal-generate", "G", "--workspace", path,
                          "--preset", "double-origin-plane")
    assert code == 0
    assert report["result"] == {"blocks": [{"chart": 1, "power": 4},
                                           {"chart": 2, "power": 0}],
                                "surjective": True}


@pytest.mark.parametrize("p,message", [
    (10 ** 19 + 51, "unresolved glued module name 'O'"),   # prime: the ring loads
    (10 ** 19 + 53, "is not prime"),
    (318665857834031151167461, "too large"),
])
def test_large_field_characteristic_reports_quickly(capsys, tmp_path, p, message):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"rings": {"A": {"field": {"p": p}, "variables": ["x"]}}}))
    started = time.perf_counter()
    code, report = invoke(capsys, "sections", "O", "--workspace", str(path))
    assert time.perf_counter() - started < 1.0
    assert code == 1 and report["result"]["error"] == "WorkspaceError"
    assert message in report["result"]["message"]


@pytest.mark.parametrize("p", [2.5, "7", True])
def test_field_characteristic_must_be_an_integer(capsys, tmp_path, p):
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"rings": {"A": {"field": {"p": p}, "variables": ["x"]}}}))
    code, report = invoke(capsys, "sections", "O", "--workspace", str(path))
    assert code == 1 and report["result"]["error"] == "WorkspaceError"
    assert "bad ring 'A'" in report["result"]["message"]


def test_deeply_nested_polynomial_exits_one(capsys):
    nested = "(" * 3000 + "x" + ")" * 3000
    for arg in (nested, "x*" + "-" * 3000 + "x"):
        code, report = invoke(capsys, "localize", arg, "O", "--preset", "double-origin-line")
        assert code == 1 and report["result"]["error"] == "AlgebraError"
        assert "nested" in report["result"]["message"]


def test_large_expansion_exits_one(capsys):
    for arg in ("(x+y+1)^100", "((x+1)^100)^100"):
        code, report = invoke(capsys, "localize", arg, "O", "--preset", "double-origin-plane")
        assert code == 1 and report["result"]["error"] == "AlgebraError"
        assert "expansion too large" in report["result"]["message"]


def test_large_exponent_exits_one(capsys):
    for arg in ("(x+1)^3000", "x^" + "9" * 5000):
        code, report = invoke(capsys, "localize", arg, "O", "--preset", "double-origin-line")
        assert code == 1 and report["result"]["error"] == "AlgebraError"
        assert "exponent" in report["result"]["message"]


def test_long_integer_literal_exits_one(capsys):
    long = "9" * 5000
    for arg in (f"{long}*x", f"x/{'7' * 5000}", "x/0"):
        code, report = invoke(capsys, "localize", arg, "O", "--preset", "double-origin-line")
        assert code == 1 and report["result"]["error"] == "AlgebraError"


def test_flag_out_of_range(capsys):
    code, report = invoke(capsys, "believes", "I", "O", "--n-max", "0",
                          "--preset", "double-origin-line")
    assert code == 1


def test_reports_are_byte_identical(capsys):
    run(["demo", "p1-sections", "--n", "2"])
    first = capsys.readouterr().out
    run(["demo", "p1-sections", "--n", "2"])
    second = capsys.readouterr().out
    assert first == second
    # timings stay null unless requested
    assert json.loads(first)["timings"] is None


def test_text_format(capsys):
    code = run(["cover-check", "I", "J", "--preset", "double-origin-line",
                "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "result.is_cover: True" in out


def test_presets_all_load():
    for name in ("p1", "double-origin-line", "double-origin-plane"):
        ws = Workspace()
        ws.load(load_preset(name))


def test_benchmark_inputs_parse(tmp_path):
    # every polynomial the benchmark generates stays within the parser's bounds
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    gb, hom = workloads.gb_inputs(1), workloads.hom_inputs(1)
    glue = workloads.glue_inputs(1, str(tmp_path))
    texts = [(s["names"], e) for s in gb["systems"] for e in s["eqs"]]
    texts += [(d["names"], g) for d in gb["ideals"] for g in d["gens"]]
    for d in hom["intersection"]:
        texts += [(d["names"], g) for g in d["I"] + d["J"]]
        texts += [(d["names"], p) for col in d["M"]["cols"] for p in col]
    specs = hom["deligne"] + [spec for _, spec in glue["roundtrips"]]
    texts += [(["x"], p) for spec in specs for col in spec["cols"] for p in col]
    texts += [(["x"], p) for pair in glue["covers"] for p in pair]
    for names, text in texts:
        PolyRing(QQ, names).poly(text)
    Workspace().load(json.loads(pathlib.Path(glue["workspace"]).read_text()))


def test_preset_glued_entries_validate():
    ws = Workspace()
    ws.load(load_preset("double-origin-plane"))
    G = ws.glued_module("O_double")
    assert G.tau.fwd_stage == 0
    ws2 = Workspace()
    ws2.load(load_preset("double-origin-line"))
    sky = ws2.glued_module("sky_both")
    assert sky.m1.gens == 1


def test_duplicate_names_rejected():
    ws = Workspace()
    ws.load({"rings": {"A": {"field": "QQ", "variables": ["x"]}}})
    with pytest.raises(Exception):
        ws.load({"rings": {"A": {"field": "QQ", "variables": ["y"]}}})


def test_trace_includes_stages(capsys):
    code, report = invoke(capsys, "deligne-hom", "I", "O", "k0", "--trace",
                          "--preset", "double-origin-line")
    assert code == 0
    assert "stages" in report["result"]["chain"]
    assert "transitions" in report["result"]["chain"]


def test_scheme_roundtrips_to_json():
    from idals import p1_scheme

    data = p1_scheme().to_json()
    assert data["kind"] == "affine" and data["f1"] == "t"


def test_sections_selfglue_skyscraper(capsys):
    code, report = invoke(capsys, "sections", "sky_both",
                          "--preset", "double-origin-line")
    assert code == 0
    assert report["result"]["module"]["gens"] == 2


# ---------------------------------------------------------------------------
# certificates re-verified without the code that produced them: sympy for
# the algebra, the preset file for the inputs


def _sympy():
    return pytest.importorskip("sympy")


def _dol_generators(name):
    """Ideal generators of a double-origin-line idal, read from the preset;
    idal_from_ideal keeps them as the entries of the idal map."""
    return load_preset("double-origin-line")["idals"][name]["ideal_generators"]


def _sym(text):
    sp = _sympy()
    return sp.expand(sp.sympify(text.replace("^", "**"), locals={"x": sp.Symbol("x")}))


def test_cover_certificate_sums_to_one(capsys):
    code, report = invoke(capsys, "cover-check", "I", "J", "--preset", "double-origin-line")
    assert code == 0
    coeffs = report["certificates"]["one_as_combination"]
    gens = _dol_generators("I") + _dol_generators("J")
    assert len(coeffs) == len(gens)
    assert _sym(" + ".join(f"({c})*({g})" for c, g in zip(coeffs, gens))) == 1


def test_non_cover_certificate_is_the_reduced_basis(capsys):
    sp = _sympy()
    code, report = invoke(capsys, "cover-check", "I", "I", "--preset", "double-origin-line")
    assert code == 2
    basis = [_sym(g) for g in report["certificates"]["reduced_basis"]]
    x = sp.Symbol("x")
    expected = sp.groebner([_sym(g) for g in _dol_generators("I") * 2], x, order="grevlex")
    assert basis == list(expected.exprs)
    assert basis != [1]


def test_idal_failure_witness_is_left_minus_right(capsys):
    code, report = invoke(capsys, "check-idal", "e10", "--preset", "double-origin-line")
    assert code == 2
    witness = report["certificates"]["witness"]
    preset = load_preset("double-origin-line")
    e = preset["maps"]["e10"]["matrix"][0]
    carrier = preset["modules"][preset["maps"]["e10"]["source"]]
    assert carrier["relations"] == []        # nonzero means nonzero modulo the carrier
    i, j = (k - 1 for k in witness["generator_pair"])
    # e (x) I sends generator (i, j) to e_i g_j, I (x) e sends it to e_j g_i
    left = [_sym(e[i]) if r == j else 0 for r in range(len(e))]
    right = [_sym(e[j]) if r == i else 0 for r in range(len(e))]
    difference = [_sym(p) for p in witness["difference"]]
    assert difference == [a - b for a, b in zip(left, right)]
    assert any(p != 0 for p in difference)


def test_believes_certificate_generator_is_not_in_the_image(capsys):
    sp = _sympy()
    from idals import canonical_to_hom

    code, report = invoke(capsys, "believes", "I", "O", "--preset", "double-origin-line")
    assert code == 2
    failure = report["certificates"]["iso_failure"]
    assert failure["kind"] == "cokernel_generator"
    ws = Workspace()
    ws.load(load_preset("double-origin-line"))
    c = canonical_to_hom(ws.idal("I"), ws.module("O"))
    assert c.target.gens == 1                 # membership is ideal membership
    image = [_sym(str(p)) for p in c.matrix[0]] + [_sym(str(r[0])) for r in c.target.relations]
    x = sp.Symbol("x")
    assert failure["index"] == 0
    assert not sp.groebner(image, x, order="grevlex").contains(sp.Integer(1))


@pytest.mark.parametrize("names,power", [(("I", "Isq"), 1), (("Isq", "I"), 2)])
def test_comparison_lift_makes_the_triangle_commute(capsys, names, power):
    import itertools

    code, report = invoke(capsys, "compare-idals", *names, "--n-max", "2",
                          "--preset", "double-origin-line")
    assert code == 0 and report["result"]["power"] == power
    lift = [[_sym(p) for p in row] for row in report["result"]["lift"]["matrix"]]
    e_target = [_sym(g) for g in _dol_generators(names[0])]
    e_source = [_sym(g) for g in _dol_generators(names[1])]
    # the idal map of J^{(x)n} sends generator (i_1, ..., i_n), row-major, to
    # the product of the e_J entries
    e_power = [_sym(" * ".join(f"({e_source[i]})" for i in idx))
               for idx in itertools.product(range(len(e_source)), repeat=power)]
    assert len(lift) == len(e_target) and all(len(row) == len(e_power) for row in lift)
    for j, expected in enumerate(e_power):
        assert _sym(" + ".join(f"({e_target[k]})*({lift[k][j]})"
                               for k in range(len(e_target)))) == expected


def _overlap_ring(scheme):
    """For a scheme of the p1 preset: (symbols, same) where same(a, b) says
    whether two sympy expressions agree in U1 = A1[f1^-1], by reduction
    modulo f1 * inv1 - 1."""
    sp = _sympy()
    spec = load_preset("p1")["schemes"][scheme]
    ring_vars = load_preset("p1")["rings"][spec["chart1"]]["variables"] + [spec["inv1"]]
    symbols = {v: sp.Symbol(v) for v in ring_vars}
    unit = sp.sympify(f"({spec['f1']})*({spec['inv1']}) - 1", locals=symbols)
    basis = sp.groebner([unit], *symbols.values(), order="grevlex")

    def same(a, b):
        return basis.reduce(sp.expand(a - b))[1] == 0
    return symbols, same


def _sym_matrix(rows, symbols):
    sp = _sympy()
    return sp.Matrix([[sp.sympify(p.replace("^", "**"), locals=symbols) for p in row]
                      for row in rows])


def _is_identity(product, same):
    n = product.rows
    return product.shape == (n, n) and all(same(product[i, j], int(i == j))
                                           for i in range(n) for j in range(n))


def test_glue_certificate_taus_are_inverse_in_the_overlap(capsys):
    code, report = invoke(capsys, "glue", "O1twist", "--preset", "p1")
    assert code == 0 and report["result"]["valid"] is True
    symbols, same = _overlap_ring("P1")
    glued = report["result"]["glued"]
    tau = _sym_matrix(glued["tau"], symbols)
    tau_inv = _sym_matrix(glued["tau_inv"], symbols)
    assert _is_identity(tau * tau_inv, same) and _is_identity(tau_inv * tau, same)
    assert not same(tau[0, 0], 1)             # a twist, not the trivial gluing


def test_invertible_certificate_inverts_the_twist(capsys):
    code, report = invoke(capsys, "invertible", "O1twist", "--preset", "p1")
    assert code == 0 and report["result"]["invertible"] is True
    symbols, same = _overlap_ring("P1")
    inverse = report["result"]["inverse"]
    tau = _sym_matrix(inverse["tau"], symbols)
    tau_inv = _sym_matrix(inverse["tau_inv"], symbols)
    assert _is_identity(tau * tau_inv, same) and _is_identity(tau_inv * tau, same)
    # the tensor of two line bundles multiplies their taus: O1twist (x) inverse is O
    twist = _sym_matrix(load_preset("p1")["glued"]["O1twist"]["tau"], symbols)
    assert _is_identity(twist * tau, same)


def test_selfglue_glue_certificate_is_inverse_at_stage_zero(capsys):
    sp = _sympy()
    code, report = invoke(capsys, "glue", "O_double", "--preset", "double-origin-plane")
    assert code == 0 and report["result"]["valid"] is True
    tau = report["result"]["glued"]["tau"]
    # at stage 0 the Deligne elements are plain maps O -> O over QQ[x, y]
    assert tau["fwd_stage"] == tau["bwd_stage"] == 0
    symbols = {v: sp.Symbol(v) for v in ("x", "y")}
    fwd, bwd = _sym_matrix(tau["fwd"], symbols), _sym_matrix(tau["bwd"], symbols)
    assert sp.expand(fwd * bwd) == sp.eye(1) and sp.expand(bwd * fwd) == sp.eye(1)


def workspace_file(tmp_path, data):
    path = tmp_path / "workspace.json"
    path.write_text(json.dumps(data))
    return str(path)


LINE = {"rings": {"A": {"field": "QQ", "variables": ["x"]}},
        "modules": {"O": {"ring": "A", "gens": 1}}}


@pytest.mark.parametrize("section,spec,message", [
    ("rings", {"field": "QQ", "variables": 5}, "bad ring 'bad': "),
    ("modules", {"ring": "A"}, "bad module 'bad': "),
    ("modules", {"ring": "nope", "gens": 1}, "unresolved ring name 'nope'"),
    ("maps", {"source": "O", "target": "O"}, "bad map 'bad': "),
    ("maps", {"source": "nope", "target": "O", "matrix": [["1"]]},
     "unresolved module name 'nope'"),
    ("idals", {"carrier": "O", "e_matrix": [["x", "1"]]}, "bad idal 'bad': "),
    ("idals", {"carrier": "nope", "e_matrix": [["x"]]}, "unresolved module name 'nope'"),
    ("schemes", {"kind": "affine", "chart1": "A"}, "bad scheme 'bad': "),
    ("schemes", {"kind": "selfglue", "ring": "A", "idal": "nope"},
     "unresolved idal name 'nope'"),
], ids=["ring", "module", "module-ring", "map", "map-source", "idal", "idal-carrier",
        "scheme", "scheme-idal"])
def test_workspace_entry_errors_have_one_form(capsys, tmp_path, section, spec, message):
    # a malformed entry is wrapped with its kind and name; an unresolved
    # reference inside it is reported as it is, not wrapped
    data = {key: dict(entries) for key, entries in LINE.items()}
    data.setdefault(section, {})["bad"] = spec
    code, report = invoke(capsys, "check-idal", "bad", "--workspace",
                          workspace_file(tmp_path, data))
    assert code == 1 and report["result"]["error"] == "WorkspaceError"
    assert report["result"]["message"].startswith(message)
    if message.startswith("unresolved"):
        assert report["result"]["message"] == message


def test_affine_tau_that_is_not_a_matrix_exits_one(capsys, tmp_path):
    spec = dict(load_preset("p1")["glued"]["O1twist"], tau=5)
    path = workspace_file(tmp_path, {"glued": {"G": spec}})
    for command in ("glue", "sections", "invertible"):
        code, report = invoke(capsys, command, "G", "--workspace", path, "--preset", "p1")
        assert code == 1
        assert report["result"] == {"error": "AlgebraError",
                                    "message": "a matrix must be a list, not int"}


def test_map_row_given_as_a_string_exits_one(capsys, tmp_path):
    # read one character per entry, ["xy"] would be the idal (x, y) -> O
    data = {"maps": {"g": {"source": "ideal_xy", "target": "O", "matrix": ["xy"]}}}
    code, report = invoke(capsys, "check-idal", "g", "--workspace",
                          workspace_file(tmp_path, data), "--preset", "double-origin-plane")
    assert code == 1
    assert report["result"] == {"error": "WorkspaceError",
                                "message": "bad map 'g': a matrix row must be a list, not str"}


@pytest.mark.parametrize("field,value,message", [
    ("relations", ["xy", "yx"], "a relation row must be a list, not str"),
    ("relations", "xy", "relations must be a list, not str"),
    ("grading", "11", "a grading must be a list, not str"),
    # rows past the generator count, or past the first row's length, were dropped
    ("relations", [["x"], ["y"], ["x"]], "relations must be 2 rows of equal length"),
    ("relations", [["x"], ["y", "x"]], "relations must be 2 rows of equal length"),
], ids=["row-strings", "string", "grading-string", "extra-row", "ragged"])
def test_malformed_module_exits_one(capsys, tmp_path, field, value, message):
    data = {"modules": {"M": {"ring": "B", "gens": 2, field: value}}}
    code, report = invoke(capsys, "sections", "G", "--workspace",
                          workspace_file(tmp_path, data), "--preset", "double-origin-plane")
    assert code == 1
    assert report["result"] == {"error": "WorkspaceError", "message": f"bad module 'M': {message}"}


def test_invertible_builds_its_inverse_once(capsys, monkeypatch):
    from idals import cli, glued
    calls = {"inverse_of": 0, "built": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cli, "inverse_of", counted("inverse_of", cli.inverse_of))
    monkeypatch.setattr(glued, "_inverse_with_unit",
                        counted("built", glued._inverse_with_unit))
    code, report = invoke(capsys, "invertible", "O1twist", "--preset", "p1")
    assert code == 0 and report["result"]["invertible"] is True
    assert calls == {"inverse_of": 1, "built": 1}


def test_readme_lists_the_cli_commands():
    from idals.cli import COMMANDS
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    listed = re.search(r"Commands: `([^`]*)`", readme).group(1)
    assert tuple(name.strip() for name in listed.split(",")) == COMMANDS


@pytest.mark.parametrize("section,name,field,bad", [
    ("rings", "A1", "variables", "t i"),
    ("rings", "A1", "variables", "2t"),
    ("schemes", "P1", "inv1", "t i"),
    ("schemes", "P1", "inv2", "s+1"),
    ("schemes", "P1", "inv2", ""),
], ids=["ring-space", "ring-digit", "inv1-space", "inv2-plus", "inv2-empty"])
def test_variable_names_that_cannot_be_parsed_exit_one(capsys, tmp_path, section, name, field,
                                                       bad):
    data = load_preset("p1")
    data[section][name] = dict(data[section][name], **{field: [bad] if section == "rings" else bad})
    code, report = invoke(capsys, "sections", "O", "--workspace", workspace_file(tmp_path, data))
    kind = section[:-1]
    assert code == 1 and report["result"]["error"] == "WorkspaceError"
    assert report["result"]["message"].startswith(
        f"bad {kind} {name!r}: bad variable name {bad!r}: ")
