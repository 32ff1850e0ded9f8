import json

import pytest

from idals.cli import Workspace, load_preset, run


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


def test_deeply_nested_polynomial_exits_one(capsys):
    nested = "(" * 3000 + "x" + ")" * 3000
    for arg in (nested, "x*" + "-" * 3000 + "x"):
        code, report = invoke(capsys, "localize", arg, "O", "--preset", "double-origin-line")
        assert code == 1 and report["result"]["error"] == "AlgebraError"
        assert "nested" in report["result"]["message"]


def test_large_exponent_exits_one(capsys):
    for arg in ("(x+1)^3000", "x^" + "9" * 5000):
        code, report = invoke(capsys, "localize", arg, "O", "--preset", "double-origin-line")
        assert code == 1 and report["result"]["error"] == "AlgebraError"
        assert "exponent" in report["result"]["message"]


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
