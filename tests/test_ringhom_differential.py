"""`RingHom._apply_terms`, which keeps the image of each monomial on the
hom, against the frozen copy in `ringhom_oracle.py`: every image computed
while the benchmark's glue-cli tasks run (seed 1), and homs with multi-term
images, zero images and coefficients over QQ and GF(p), each compared term
for term and in order, cold, warm and composed."""

import importlib.util
import pathlib

import pytest

from idals import GF, QQ, PolyRing, RingHom, polyring

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
    # monomial images were reused: more lookups than monomials computed
    lookups = sum(len(terms) for _, terms, _ in calls)
    assert lookups > sum(len(hom._monomials) for hom in homs.values())
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
    assert set(h._monomials) == {exps for p in polys for exps in p.terms}


def assert_images_match(h, polys):
    for p in polys:
        image = h.apply(p)
        want = oracle.apply_terms(h, h.src.poly(p).terms)
        assert list(image.terms.items()) == list(want.terms.items()), p


def source_polys(A):
    # monomials of degree <= 3, the same with coefficients minus their
    # squares, and their sum, whose images partly cancel
    names = A.variables
    monos = ["1"] + [f"{v}^{e}" for v in names for e in (1, 2, 3)] + [
        f"{u}^2*{v}" for u in names for v in names if u != v] + ["*".join(names)]
    polys = [A.poly(m) for m in monos]
    polys += [A.poly(f"{k + 2}*{m} - ({m})^2") for k, m in enumerate(monos)]
    polys.append(A.poly(" + ".join(monos)))
    return polys


# (quotient of B, then C and a hom B -> C to compose with)
TARGETS = {
    "free": ([], ["u", "v"], [], {"t": "u^2 - 2*v", "ti": "3*u*v + 1"}),
    "localized": (["t*ti - 1"], ["u", "v"], ["u*v - 1"], {"t": "2*u", "ti": "1/2*v"}),
    "cusp": (["t^3 - ti^2"], ["u"], [], {"t": "u^2", "ti": "u^3"}),
}


@pytest.mark.parametrize("field", [QQ, GF(5), GF(32003)], ids=["QQ", "GF5", "GF32003"])
@pytest.mark.parametrize("target", sorted(TARGETS))
def test_images_cold_warm_and_composed(field, target):
    quotient, c_vars, c_quotient, g_images = TARGETS[target]
    A = PolyRing(field, ["x", "y", "z"])
    B = PolyRing(field, ["t", "ti"], quotient=quotient)
    # multi-term images with coefficients, and a zero image
    h = RingHom(A, B, {"x": "2*t^2 - ti", "y": "t + 3*ti - 1", "z": "0"})
    polys = source_polys(A)
    assert_images_match(h, polys)        # cold: each monomial image computed
    assert_images_match(h, polys)        # warm: each monomial image kept
    g = RingHom(B, PolyRing(field, c_vars, quotient=c_quotient), g_images)
    composed = g.compose(h)
    for v in A.variables:
        want = oracle.apply_terms(g, h.images[v].terms)
        assert list(composed.images[v].terms.items()) == list(want.terms.items())
    assert_images_match(composed, polys)
    assert_images_match(composed, polys)


def test_a_warm_hom_maps_a_matrix_without_products(monkeypatch):
    A = PolyRing(QQ, ["x", "y"])
    B = PolyRing(QQ, ["t", "ti"], quotient=["t*ti - 1"])
    h = RingHom(A, B, {"x": "t^2 - 2*ti", "y": "3*ti"})
    rows = [[A.poly("x^3*y - 2*y^2 + 1"), A.poly("x*y^3")], [A.poly("0"), A.poly("x^2 + y")]]
    cold = h.apply_matrix(rows)
    products = []
    original = polyring.Poly.__mul__

    def counted(self, other):
        products.append((self, other))
        return original(self, other)

    monkeypatch.setattr(polyring.Poly, "__mul__", counted)
    warm = h.apply_matrix(rows)
    assert products == []
    assert warm == cold
