"""Differential tests of `fpmod.column_rank`, the sparse base-field rank of
columns modulo module relations, against the frozen dense rank of
`rank_oracle.py` (Gauss-Jordan on coordinate rows), over QQ and GF(5)."""

import random

import pytest

from idals import GF, QQ, PolyRing, PresentedModule
from idals.errors import AlgebraError, RingMismatchError
from idals.fpmod import column_rank, unit_module

import rank_oracle
from conftest import random_module, random_poly

FIELDS = {"QQ": QQ, "GF5": GF(5)}


def rings(field):
    return (PolyRing(field, ["x"]), PolyRing(field, ["x", "y"]),
            PolyRing(field, ["x", "y"], quotient=["x*y"]))


def dense_rank(*blocks):
    """The oracle's rank of the stacked coordinate rows of the blocks."""
    field = blocks[0][0].ring.field
    parts = [rank_oracle.coordinates(M, cols) for M, cols in blocks]
    return rank_oracle.rank([sum(rows, []) for rows in zip(*parts)], field)


def random_column(ring, rng, gens, deg=2, terms=3):
    return tuple(random_poly(ring, rng, deg, terms=terms) for _ in range(gens))


def scaled(ring, col, c):
    return tuple(ring.constant(c) * p for p in col)


def added(a, b):
    return tuple(p + q for p, q in zip(a, b))


def in_relations(M, rng):
    """A ring combination of M's relation columns: zero in M."""
    col = tuple(M.ring.zero() for _ in range(M.gens))
    for rel in M.relations:
        col = added(col, tuple(random_poly(M.ring, rng, 1) * p for p in rel))
    return col


def columns_for(M, rng, kind):
    ring = M.ring
    if kind == "dense":
        return [random_column(ring, rng, M.gens, deg=3, terms=6) for _ in range(rng.randint(3, 8))]
    base = [random_column(ring, rng, M.gens) for _ in range(rng.randint(1, 4))]
    if kind == "deficient":
        # base-field combinations of the first columns
        combos = []
        for _ in range(rng.randint(1, 4)):
            col = tuple(ring.zero() for _ in range(M.gens))
            for b in base:
                col = added(col, scaled(ring, b, rng.randint(-2, 2)))
            combos.append(col)
        return base + combos
    if kind == "duplicate":
        return base + [rng.choice(base) for _ in range(3)]
    if kind == "zero":
        return [tuple(ring.zero() for _ in range(M.gens)) for _ in range(3)] + base
    if kind == "relations":
        # columns that reduce to zero, alone and added to others
        zeros = [in_relations(M, rng) for _ in range(3)]
        return zeros + [added(b, in_relations(M, rng)) for b in base] + base
    raise ValueError(kind)


KINDS = ("dense", "deficient", "duplicate", "zero", "relations")


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
def test_rank_matches_dense_oracle(field_name, kind, seed):
    rng = random.Random(f"{field_name}-{kind}-{seed}")
    for ring in rings(FIELDS[field_name]):
        M = random_module(ring, rng, gens_max=3, cols_max=3)
        cols = columns_for(M, rng, kind)
        assert column_rank((M, cols)) == dense_rank((M, cols))


@pytest.mark.parametrize("field_name", sorted(FIELDS))
@pytest.mark.parametrize("seed", range(6))
def test_stacked_two_ring_rank_matches_dense_oracle(field_name, seed):
    rng = random.Random(f"stacked-{field_name}-{seed}")
    A, B, Q = rings(FIELDS[field_name])
    for R1, R2 in ((A, B), (B, Q), (Q, A)):
        M1 = random_module(R1, rng, gens_max=2, cols_max=2)
        M2 = random_module(R2, rng, gens_max=3, cols_max=2)
        n = rng.randint(1, 7)
        kind = rng.choice(KINDS)
        cols1 = (columns_for(M1, rng, kind) + [random_column(R1, rng, M1.gens)] * n)[:n]
        cols2 = [random_column(R2, rng, M2.gens) for _ in range(n)]
        if rng.random() < 0.5:
            cols2[-1] = cols2[0]
        got = column_rank((M1, cols1), (M2, cols2))
        assert got == dense_rank((M1, cols1), (M2, cols2))
        assert got >= max(column_rank((M1, cols1)), column_rank((M2, cols2)))


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_empty_inputs(field_name):
    R = rings(FIELDS[field_name])[1]
    M = PresentedModule(R, 2, [("x", "y")])
    assert column_rank((M, [])) == 0 == dense_rank((M, []))
    assert column_rank((M, []), (unit_module(rings(FIELDS[field_name])[0]), [])) == 0


@pytest.mark.parametrize("field_name", sorted(FIELDS))
def test_small_exact_ranks(field_name):
    R = rings(FIELDS[field_name])[0]
    M = PresentedModule(R, 1, [("x^2",)])
    cols = [(R.poly(t),) for t in ("0", "x^2", "x^3 - x^2", "1", "1", "x + 1", "2*x + 2")]
    assert column_rank((M, cols)) == 2 == dense_rank((M, cols))
    # stacking a block that separates the duplicates raises the rank
    O = unit_module(R)
    other = [(R.poly(t),) for t in ("0", "0", "0", "x", "x^2", "0", "0")]
    assert column_rank((M, cols), (O, other)) == 3 == dense_rank((M, cols), (O, other))


def test_stacked_blocks_must_agree():
    R = rings(QQ)[0]
    F = rings(GF(5))[0]
    with pytest.raises(RingMismatchError):
        column_rank((unit_module(R), [(R.one(),)]), (unit_module(F), [(F.one(),)]))
    with pytest.raises(AlgebraError):
        column_rank((unit_module(R), [(R.one(),)]), (unit_module(R), []))
