"""The heap reducer against the frozen max-scan reducer in `reducer_oracle`.

Both must take the same reduction steps, so remainders, cofactors, reduced
bases and tracked representations are compared as ordered item lists: the
same values inserted in the same order.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from idals import GF, QQ, PolyRing, polyring
from idals.polyring import (SubmoduleLifter, _buchberger, _prepare, _syzygy_vecs,
                            _vec_reduce, _vkey)

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
        for _ in range(3):
            vec = random_vec(ring, rank, rng, terms=6, deg=4)
            new = _vec_reduce(vec, [_prepare(d, ring) for d in divs], ring,
                              track_len=track_len)
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
            new = _vec_reduce(vec, Q._quotient_divisors(rank), free, track_len=2)
            old = oracle.vec_reduce(vec, old_divs, free, rank, track_len=2)
            assert items(new[0]) == items(old[0])
            assert [items(c) for c in new[1]] == [items(c) for c in old[1]]
        # a module GB over the quotient: the quotient generators appended
        vecs = [random_vec(free, rank, rng, terms=3, deg=2) for _ in range(2)]
        vecs += [{(pos, e): c for e, c in q.items()} for q in Q.quotient_gb
                 for pos in range(rank)]
        assert_same_gb(_buchberger(vecs, free, rank, track=True),
                       oracle.buchberger(vecs, free, rank, track=True))


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize("order", ORDERS)
def test_reduce_terms_matches_the_full_reduction(field, order):
    """`PolyRing.reduce_terms` hands back a term dict that no leading monomial
    of the quotient divides as it is; with divisible terms or without, it
    must equal the normal form `_vec_reduce` gives."""
    rng = random.Random(f"reduce-terms-{field.p}-{order}")
    Q = PolyRing(field, ["x", "y"], order, quotient=["x^2*y - y", "y^3 + x"])
    free, divs = Q.free(), Q._quotient_divisors(1)
    divisible = []
    for _ in range(200):
        terms = {e: c for (_, e), c in random_vec(free, 1, rng, terms=4, deg=4).items()}
        full, _ = _vec_reduce({(0, e): c for e, c in terms.items()}, divs, free)
        got = Q.reduce_terms(dict(terms))
        assert got == {e: c for (_, e), c in full.items()}
        divisible.append(any(polyring.mono_divides(d.exps, e) for e in terms for d in divs))
        if not divisible[-1]:
            assert items(got) == items(terms)
    assert 20 <= sum(divisible) <= 180   # both kinds of input are met


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("elim_rank", [None, 1, 2])
def test_term_key_sorts_like_the_oracle_order(order, elim_rank):
    ring = PolyRing(QQ, ["x", "y", "z"], order)
    rng = random.Random(7)
    terms = {(rng.randrange(4), tuple(rng.randrange(4) for _ in range(3)))
             for _ in range(300)}
    assert (sorted(terms, key=_vkey(ring, elim_rank))
            == sorted(terms, key=oracle.vkey(ring, elim_rank), reverse=True))


# -- the integer kernel over QQ ----------------------------------------------
#
# Over QQ `_buchberger` holds primitive integer vectors and `_vec_reduce`
# runs on integers; the cases below stress what that changes: mixed
# denominators, numerators of over 30 digits, tracks, the elimination order
# of `_syzygy_vecs` and quotient rings.

POOLS = {
    "mixed": [Fraction(7, 3), Fraction(-11, 12), Fraction(5, 8), Fraction(-1, 6),
              Fraction(2), Fraction(-3), Fraction(9, 4)],
    "huge": [Fraction(10 ** 31 + 7, 3), Fraction(-(10 ** 33) + 1, 10 ** 30 + 1),
             Fraction(2 ** 107 - 1), Fraction(-5, 10 ** 31 + 9), Fraction(1)],
}


def pool_vec(ring, rank, rng, pool, terms=3, deg=2):
    vec = random_vec(ring, rank, rng, terms, deg)
    return {k: rng.choice(POOLS[pool]) for k in vec}


def assert_fractions(result):
    """Every coefficient of a QQ basis (and of its tracks) is a Fraction."""
    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        for v in part:
            assert all(type(c) is Fraction for c in v.values())


def spy_on_loop(monkeypatch):
    """Check, at every reduction `_buchberger` makes over QQ, that the loop
    holds its basis as primitive integer vectors."""
    calls = []
    original = polyring._pseudo_reduce

    def spy(vec, divisors, *args, **kwargs):
        assert all(type(c) is int for c in vec.values())
        for d in divisors:
            assert all(type(c) is int for c in d.vec.values())
            assert gcd(*d.vec.values()) == 1
        calls.append(len(divisors))
        return original(vec, divisors, *args, **kwargs)

    monkeypatch.setattr(polyring, "_pseudo_reduce", spy)
    return calls


QQ_CASES = [(pool, order, rank) for pool in POOLS for order in ORDERS for rank in (1, 2, 3)]


@pytest.mark.parametrize("pool,order,rank", QQ_CASES)
def test_integer_kernel_matches_oracle(pool, order, rank, monkeypatch):
    calls = spy_on_loop(monkeypatch)
    ring = PolyRing(QQ, ["x", "y", "z"][:2 + rank % 2], order)
    rng = random.Random(f"{pool}-{order}-{rank}")
    for _ in range(3):
        vecs = [pool_vec(ring, rank, rng, pool) for _ in range(rng.randint(2, 4))]
        for track in (False, True):
            new = _buchberger(vecs, ring, rank, track=track)
            assert_same_gb(new, oracle.buchberger(vecs, ring, rank, track=track))
            assert_fractions(new)
    assert calls


@pytest.mark.parametrize("pool,order,rank", QQ_CASES)
def test_integer_reduction_matches_oracle(pool, order, rank):
    """`_vec_reduce` by non-monic Fraction divisors: rational remainder and
    cofactors, equal to the oracle's, computed on integers."""
    ring = PolyRing(QQ, ["x", "y"], order)
    rng = random.Random(f"reduce-{pool}-{order}-{rank}")
    for _ in range(4):
        divs = [pool_vec(ring, rank, rng, pool) for _ in range(rng.randint(1, 4))]
        track_len = rng.randint(0, len(divs))
        vec = pool_vec(ring, rank, rng, pool, terms=6, deg=4)
        new = _vec_reduce(vec, [_prepare(d, ring) for d in divs], ring,
                          track_len=track_len)
        old = oracle.vec_reduce(vec, [oracle.prepare(d, ring) for d in divs], ring, rank,
                                track_len=track_len)
        assert items(new[0]) == items(old[0])
        assert [items(c) for c in new[1]] == [items(c) for c in old[1] or []]
        assert_fractions(new[1] + [new[0]])


@pytest.mark.parametrize("pool", POOLS)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_integer_syzygies_match_oracle(pool, rank, monkeypatch):
    """`_syzygy_vecs` runs the loop under the elimination order; its output
    is the oracle basis of the tagged input, projected."""
    calls = spy_on_loop(monkeypatch)
    ring = PolyRing(QQ, ["x", "y"])
    rng = random.Random(f"syz-{pool}-{rank}")
    columns = [pool_vec(ring, rank, rng, pool) for _ in range(rng.randint(2, 3))]
    work = []
    for i, col in enumerate(columns):
        v = dict(col)
        v[(rank + i, (0, 0))] = QQ.one()
        work.append(v)
    total = rank + len(columns)
    old = oracle.buchberger(work, ring, total, keyf=oracle.vkey(ring, elim_rank=rank))
    new = _buchberger(work, ring, total, keyf=_vkey(ring, elim_rank=rank))
    assert_same_gb(new, old)
    assert_fractions(new)
    want = [{(p - rank, e): c for (p, e), c in g.items()} for g in old
            if all(p >= rank for (p, _) in g)]
    assert [items(v) for v in _syzygy_vecs(columns, ring, rank)] == [items(v) for v in want]
    assert calls


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_integer_kernel_over_a_quotient_ring(rank):
    Q = PolyRing(QQ, ["x", "y"], quotient=["7/3*x^2*y - y", "-11/12*y^3 + x"])
    free = Q.free()
    rng = random.Random(f"quotient-{rank}")
    quotient = [{(pos, e): c for e, c in q.items()} for q in Q.quotient_gb
                for pos in range(rank)]
    vecs = [pool_vec(free, rank, rng, "mixed") for _ in range(2)] + quotient
    new = _buchberger(vecs, free, rank, track=True)
    assert_same_gb(new, oracle.buchberger(vecs, free, rank, track=True))
    assert_fractions(new)
    lifter = SubmoduleLifter(Q, vecs[:2], rank)
    assert items(lifter._gb[0]) == items(new[0][0])
    old_divs = [oracle.prepare(v, free) for v in quotient]
    for _ in range(4):
        vec = pool_vec(free, rank, rng, "huge", terms=6, deg=5)
        rem, cof = _vec_reduce(vec, Q._quotient_divisors(rank), free, track_len=2)
        old = oracle.vec_reduce(vec, old_divs, free, rank, track_len=2)
        assert items(rem) == items(old[0])
        assert [items(c) for c in cof] == [items(c) for c in old[1]]


def katsura(n):
    """Katsura-n in x0..xn: u_l = x|l| for |l| <= n, sum of the u_l is 1, and
    for m < n the sum of u_l * u_(m-l) is u_m."""
    def u(l):
        return f"x{abs(l)}"
    eqs = [" + ".join(u(l) for l in range(-n, n + 1)) + " - 1"]
    for m in range(n):
        eqs.append(" + ".join(f"{u(l)}*{u(m - l)}" for l in range(-n, n + 1)
                              if abs(m - l) <= n) + f" - {u(m)}")
    return [f"x{i}" for i in range(n + 1)], eqs


def cyclic4():
    return ["x0", "x1", "x2", "x3"], ["x0 + x1 + x2 + x3",
                                      "x0*x1 + x1*x2 + x2*x3 + x3*x0",
                                      "x0*x1*x2 + x1*x2*x3 + x2*x3*x0 + x3*x0*x1",
                                      "x0*x1*x2*x3 - 1"]


@pytest.mark.parametrize("system", [lambda: katsura(4), cyclic4], ids=["katsura-4", "cyclic-4"])
@pytest.mark.parametrize("track", [False, True])
def test_standard_systems_over_qq_match_oracle(system, track):
    variables, eqs = system()
    ring = PolyRing(QQ, variables)
    vecs = [{(0, e): c for e, c in ring.poly(g).terms.items()} for g in eqs]
    new = _buchberger(vecs, ring, 1, track=track)
    assert_same_gb(new, oracle.buchberger(vecs, ring, 1, track=track))
    assert_fractions(new)
