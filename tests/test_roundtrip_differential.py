"""Differential tests of `glued.roundtrip_check` against the frozen copy in
`roundtrip_oracle.py`, which reflected M into all three idals before
choosing a mode and ranked window columns densely.  The present code stops
at the first truncating reflector and ranks sparsely; (ok, mode, detail)
must be the same."""

import random

import pytest

from idals import GF, QQ, PolyRing, PresentedModule, idal_from_ideal
from idals import glued
from idals.errors import StabilizationError
from idals.fpmod import unit_module
from idals.glued import roundtrip_check

import roundtrip_oracle as oracle


def graded_module(ring, rng, col_deg_max=3):
    """A graded module over a univariate ring shaped like the benchmark's
    round-trip modules: one or two generators in degrees 0..2 and up to two
    homogeneous relation columns."""
    x = ring.var(ring.variables[0])
    g = rng.randint(1, 2)
    shifts = [rng.randint(0, 2) for _ in range(g)]
    cols = []
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(max(shifts), col_deg_max)
        col = []
        for a in shifts:
            c = rng.choice((1, -1, 2, -2, 3)) if rng.random() < 0.75 else 0
            col.append(ring.constant(c) * x ** (d - a) if c else ring.zero())
        if any(not p.is_zero() for p in col):
            cols.append(tuple(col))
    return PresentedModule(ring, g, cols, grading=shifts)


def same_result(A, I, J, M, n_max=8, degree_bound=6):
    new = roundtrip_check(A, I, J, M, n_max, degree_bound)
    old = oracle.roundtrip_check(A, I, J, M, n_max, degree_bound)
    assert (new.ok, new.mode, new.detail) == (old.ok, old.mode, old.detail)
    return new


COVERS = {
    "QQ": (PolyRing(QQ, ["x"]), "x", "x-1"),
    "GF5": (PolyRing(GF(5), ["x"]), "x", "x+1"),
}


@pytest.mark.parametrize("name", sorted(COVERS))
@pytest.mark.parametrize("seed", range(4))
def test_seeded_graded_modules_match_oracle(name, seed):
    A, f, g = COVERS[name]
    I, J = idal_from_ideal([f], A), idal_from_ideal([g], A)
    rng = random.Random(f"roundtrip-{name}-{seed}")
    modes = set()
    for _ in range(5):
        M = graded_module(A, rng)
        modes.add(same_result(A, I, J, M, degree_bound=rng.choice((3, 6))).mode)
    # the swapped cover reflects J first
    same_result(A, J, I, graded_module(A, rng))
    assert modes


@pytest.mark.parametrize("pair", [("0", "1"), ("1", "x"), ("x", "1"), ("x^2", "x-1")])
def test_named_pairs_on_O_match_oracle(pair):
    A = COVERS["QQ"][0]
    I, J = (idal_from_ideal([t], A) for t in pair)
    same_result(A, I, J, unit_module(A))


def counted_reflect(monkeypatch):
    calls = []
    real = glued.reflect

    def spy(K, M, n_max=8):
        calls.append(K)
        return real(K, M, n_max)

    monkeypatch.setattr(glued, "reflect", spy)
    return calls


@pytest.mark.parametrize("pair,module,count,mode", [
    (("x", "x-1"), None, 1, "windowed"),                 # I truncates
    (("1", "x"), None, 2, "windowed"),                   # I stabilizes, J truncates
    (("x", "x-1"), [("x", "0"), ("0", "x-1")], 3, "exact"),
    (("0", "1"), None, 3, "exact"),
])
def test_reflectors_stop_at_the_first_truncation(monkeypatch, pair, module, count, mode):
    A = COVERS["QQ"][0]
    I, J = (idal_from_ideal([t], A) for t in pair)
    M = unit_module(A) if module is None else PresentedModule(A, 2, module)
    calls = counted_reflect(monkeypatch)
    res = roundtrip_check(A, I, J, M)
    assert res.mode == mode and len(calls) == count
    assert calls[:2] == [I, J][:count]


def test_non_principal_truncating_idal_raises_as_before(monkeypatch):
    A = COVERS["QQ"][0]
    I = idal_from_ideal(["x", "x^2"], A)       # the ideal (x) on two generators
    J = idal_from_ideal(["x-1"], A)
    M = unit_module(A)
    with pytest.raises(StabilizationError) as old:
        oracle.roundtrip_check(A, I, J, M)
    calls = counted_reflect(monkeypatch)
    with pytest.raises(StabilizationError) as new:
        roundtrip_check(A, I, J, M)
    assert str(new.value) == str(old.value)
    assert len(calls) == 1
