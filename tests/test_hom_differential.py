"""`HomModule` and `direct_sum` against the frozen construction in
`hom_oracle.py`: same ambient, module and inclusion presentations, and the
same direct-sum inclusions and projections."""

import random

import pytest

from idals import GF, QQ, PolyRing, PresentedModule, direct_sum, free_module, hom_module
from idals.fpmod import zero_module

import hom_oracle as oracle
from conftest import random_homogeneous_module, random_module

QQ_XY = PolyRing(QQ, ["x", "y"])
GF7_XY = PolyRing(GF(7), ["x", "y"])
QUOT = PolyRing(QQ, ["x", "y"], quotient=["x^2 - y^3"])
GRADED_QUOT = PolyRing(QQ, ["x", "y"], quotient=["x*y"])


def matrix_key(phi):
    return (phi.source.presentation_key(), phi.target.presentation_key(),
            tuple(tuple(str(p) for p in row) for row in phi.matrix))


def fixed_pairs():
    R = QQ_XY
    ideal = PresentedModule(R, 2, [("y", "-x")], grading=[1, 1])
    ungraded = PresentedModule(R, 2, [("y - 1", "-x")])
    skyscraper = PresentedModule(R, 1, [("x",), ("y",)], grading=[0])
    return [
        ("graded", ideal, skyscraper),
        ("graded-shifted", ideal, free_module(R, 2, [0, 1])),
        ("ungraded-source", ungraded, ideal),
        ("ungraded-target", ideal, ungraded),
        ("source-no-gens", zero_module(R), ideal),
        ("target-no-gens", ideal, zero_module(R)),
        ("source-no-relations", free_module(R, 2, [1, 0]), ideal),
        ("ungraded-no-relations", PresentedModule(R, 2), ungraded),
        ("quotient", PresentedModule(QUOT, 1, [("x",)]), PresentedModule(QUOT, 2, [("y", "x")])),
        ("graded-quotient",
         PresentedModule(GRADED_QUOT, 2, [("y", "-x")], grading=[1, 1]),
         PresentedModule(GRADED_QUOT, 1, [("x",)], grading=[0])),
        ("gf7", PresentedModule(GF7_XY, 2, [("y", "-x")], grading=[1, 1]),
         PresentedModule(GF7_XY, 1, [("x^2",)], grading=[0])),
    ]


def random_pairs():
    rng = random.Random(41)
    for ring in (QQ_XY, GF7_XY, GRADED_QUOT):
        for _ in range(4):
            yield random_homogeneous_module(ring, rng), random_homogeneous_module(ring, rng)
    for ring in (QQ_XY, GF7_XY, QUOT):
        for _ in range(4):
            yield random_module(ring, rng), random_module(ring, rng)
        yield random_module(ring, rng), random_homogeneous_module(ring, rng)


CASES = fixed_pairs() + [(f"random-{k}", M, N) for k, (M, N) in enumerate(random_pairs())]


@pytest.mark.parametrize("name,M,N", CASES, ids=[c[0] for c in CASES])
def test_hom_matches_oracle(name, M, N):
    H = hom_module(M, N)
    amb, K, incl = oracle.hom_parts(M, N)
    assert H.ambient.presentation_key() == amb.presentation_key()
    assert H.module.presentation_key() == K.presentation_key()
    assert matrix_key(H.incl) == matrix_key(incl)


@pytest.mark.parametrize("name,M,N", CASES, ids=[c[0] for c in CASES])
def test_direct_sum_maps_match_oracle(name, M, N):
    for modules in ([M], [M, N], [N, M, N]):
        S, incls, projs = direct_sum(modules)
        S_old, incls_old, projs_old = oracle.direct_sum(modules)
        assert S.presentation_key() == S_old.presentation_key()
        assert [matrix_key(i) for i in incls] == [matrix_key(i) for i in incls_old]
        assert [matrix_key(p) for p in projs] == [matrix_key(p) for p in projs_old]
