"""The heap reducer against the frozen max-scan reducer in `reducer_oracle`.

Both must take the same reduction steps, so remainders, cofactors, reduced
bases and tracked representations are compared as ordered item lists: the
same values inserted in the same order.
"""

import random
from fractions import Fraction

import pytest

from idals import GF, QQ, PolyRing
from idals.polyring import _buchberger, _prepare, _vec_reduce, _vkey

import reducer_oracle as oracle

FIELDS = [QQ, GF(5), GF(32003)]
ORDERS = ["grevlex", "lex", "grlex"]


def items(d):
    return list(d.items())


def random_coeff(field, rng):
    if field.p:
        return rng.randrange(1, field.p)
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def random_vec(ring, rank, rng, terms=4, deg=3):
    vec = {}
    for _ in range(rng.randint(1, terms)):
        e = [0] * ring.nvars
        for _ in range(rng.randint(0, deg)):
            e[rng.randrange(ring.nvars)] += 1
        vec[(rng.randrange(rank), tuple(e))] = random_coeff(ring.field, rng)
    return vec


def cases(n):
    rng = random.Random(20201)
    for k in range(n):
        field = FIELDS[k % len(FIELDS)]
        order = ORDERS[(k // len(FIELDS)) % len(ORDERS)]
        rank = 1 + k % 3
        nvars = rng.choice([2, 3])
        ring = PolyRing(field, ["x", "y", "z"][:nvars], order)
        yield ring, rank, random.Random(rng.random())


def assert_same_gb(new, old):
    if isinstance(new, tuple):
        (new_gb, new_reps), (old_gb, old_reps) = new, old
        assert [items(r) for r in new_reps] == [items(r) for r in old_reps]
    else:
        new_gb, old_gb = new, old
    assert [items(v) for v in new_gb] == [items(v) for v in old_gb]


@pytest.mark.parametrize("ring,rank,rng", list(cases(27)))
def test_reduce_matches_oracle(ring, rank, rng):
    for _ in range(6):
        divs = [random_vec(ring, rank, rng, terms=3, deg=2) for _ in range(rng.randint(1, 4))]
        track_len = rng.randint(0, len(divs))
        memo = {}
        for _ in range(3):
            vec = random_vec(ring, rank, rng, terms=6, deg=4)
            new = _vec_reduce(vec, [_prepare(d, ring) for d in divs], ring, rank,
                              track_len=track_len, memo=memo)
            old = oracle.vec_reduce(vec, [oracle.prepare(d, ring) for d in divs], ring, rank,
                                    track_len=track_len)
            assert items(new[0]) == items(old[0])
            assert len(new[1]) == track_len
            assert [items(c) for c in new[1]] == [items(c) for c in old[1] or []]


@pytest.mark.parametrize("ring,rank,rng", list(cases(27)))
def test_buchberger_matches_oracle(ring, rank, rng):
    for track in (False, True):
        vecs = [random_vec(ring, rank, rng, terms=3, deg=2) for _ in range(rng.randint(1, 3))]
        assert_same_gb(_buchberger(vecs, ring, rank, track=track),
                       oracle.buchberger(vecs, ring, rank, track=track))


@pytest.mark.parametrize("ring,rank,rng", list(cases(9)))
def test_elimination_key_matches_oracle(ring, rank, rng):
    """The tagged input of `_syzygy_vecs`, under its elimination key."""
    columns = [random_vec(ring, rank, rng, terms=3, deg=2) for _ in range(rng.randint(1, 3))]
    work = []
    for i, col in enumerate(columns):
        v = dict(col)
        v[(rank + i, (0,) * ring.nvars)] = ring.field.one()
        work.append(v)
    total = rank + len(columns)
    assert_same_gb(_buchberger(work, ring, total, keyf=_vkey(ring, elim_rank=rank)),
                   oracle.buchberger(work, ring, total, keyf=oracle.vkey(ring, elim_rank=rank)))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS)
def test_quotient_ring_reduction_matches_oracle(field, order):
    rng = random.Random(f"{field.p}-{order}")
    Q = PolyRing(field, ["x", "y"], order, quotient=["x^2*y - y", "y^3 + x"])
    free = Q.free()
    for rank in (1, 2, 3):
        old_divs = [oracle.prepare({(pos, e): c for e, c in q.items()}, free)
                    for q in Q.quotient_gb for pos in range(rank)]
        for _ in range(5):
            vec = random_vec(free, rank, rng, terms=6, deg=5)
            new = _vec_reduce(vec, Q._quotient_divisors(rank), free, rank, track_len=2)
            old = oracle.vec_reduce(vec, old_divs, free, rank, track_len=2)
            assert items(new[0]) == items(old[0])
            assert [items(c) for c in new[1]] == [items(c) for c in old[1]]
        # a module GB over the quotient: the quotient generators appended
        vecs = [random_vec(free, rank, rng, terms=3, deg=2) for _ in range(2)]
        vecs += [{(pos, e): c for e, c in q.items()} for q in Q.quotient_gb
                 for pos in range(rank)]
        assert_same_gb(_buchberger(vecs, free, rank, track=True),
                       oracle.buchberger(vecs, free, rank, track=True))


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("elim_rank", [None, 1, 2])
def test_term_key_sorts_like_the_oracle_order(order, elim_rank):
    ring = PolyRing(QQ, ["x", "y", "z"], order)
    rng = random.Random(7)
    terms = {(rng.randrange(4), tuple(rng.randrange(4) for _ in range(3)))
             for _ in range(300)}
    assert (sorted(terms, key=_vkey(ring, elim_rank))
            == sorted(terms, key=oracle.vkey(ring, elim_rank), reverse=True))
