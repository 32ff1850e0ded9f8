"""`RingHom._apply_terms`, which keeps the powers of each image on the hom,
against the frozen copy in `ringhom_oracle.py`: every image computed while
the benchmark's glue-cli tasks run (seed 1), compared term for term."""

import importlib.util
import pathlib

from idals import QQ, PolyRing, RingHom, polyring

import ringhom_oracle as oracle


def _workloads():
    root = pathlib.Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def record_images(monkeypatch):
    """(hom, terms, image) for every `_apply_terms` call made from now on."""
    calls = []
    original = polyring.RingHom._apply_terms

    def spy(self, terms):
        image = original(self, terms)
        calls.append((self, dict(terms), image))
        return image

    monkeypatch.setattr(polyring.RingHom, "_apply_terms", spy)
    return calls


def test_glue_cli_images_match_the_oracle(monkeypatch, tmp_path):
    workloads = _workloads()
    tasks = workloads.glue_tasks(workloads.glue_inputs(1, str(tmp_path)))
    calls = record_images(monkeypatch)
    for task in tasks:
        assert task.check(task.run()) is None, task.name
    homs = {id(hom): hom for hom, _, _ in calls}
    assert len(homs) > 10
    # powers were reused: more lookups than powers computed
    lookups = sum(1 for _, terms, _ in calls for exps in terms for e in exps if e)
    assert lookups > sum(len(hom._powers) for hom in homs.values())
    for hom, terms, image in calls:
        want = oracle.apply_terms(hom, terms)
        assert list(image.terms.items()) == list(want.terms.items())


def test_repeated_powers_in_a_quotient_ring():
    # images that reduce modulo the target's quotient, applied twice
    A = PolyRing(QQ, ["x", "y"])
    B = PolyRing(QQ, ["t", "ti"], quotient=["t*ti - 1"])
    h = RingHom(A, B, {"x": "t + ti", "y": "2*t - 1"})
    polys = [A.poly(f"x^{a}*y^{b} - {a + 1}*x^{b}") for a in range(5) for b in range(4)]
    for _ in range(2):
        for p in polys:
            image = h.apply(p)
            want = oracle.apply_terms(h, A.poly(p).terms)
            assert list(image.terms.items()) == list(want.terms.items())
    assert set(h._powers) == {("x", a) for a in range(1, 5)} | {("y", b) for b in range(1, 4)}
