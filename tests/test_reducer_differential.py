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
from idals.polyring import (SubmoduleLifter, _buchberger, _packing, _prepare, _quotient_vecs,
                            _syzygy_vecs, _vec_reduce)

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
            new = _vec_reduce(vec, _prepare(divs, ring), ring, track_len=track_len)
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
    assert_same_gb(_buchberger(work, ring, total),
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
    """A smaller packed term is a larger term.  The oracle's elimination key
    orders terms the same way: positions below elim_rank are the smallest
    positions, so position-over-term already puts them first."""
    ring = PolyRing(QQ, ["x", "y", "z"], order)
    rng = random.Random(7)
    terms = {(rng.randrange(4), tuple(rng.randrange(4) for _ in range(3)))
             for _ in range(300)}
    for width in (8, 16):
        packing = _packing(order, 3, width)
        top = packing.top   # exponents at the top of the fields sort right too
        wide = terms | {(pos, tuple(top if x == 3 else x for x in e)) for pos, e in terms}
        for ts in (terms, wide):
            assert (sorted(ts, key=lambda t: packing.pack(*t))
                    == sorted(ts, key=oracle.vkey(ring, elim_rank), reverse=True))


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


def assert_canonical(result):
    """Every coefficient of a QQ basis (and of its tracks) is canonical: an
    int, or a Fraction whose denominator is greater than 1."""
    parts = result if isinstance(result, tuple) else (result,)
    for part in parts:
        for v in part:
            assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                       for c in v.values())


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
            assert_canonical(new)
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
        new = _vec_reduce(vec, _prepare(divs, ring), ring, track_len=track_len)
        old = oracle.vec_reduce(vec, [oracle.prepare(d, ring) for d in divs], ring, rank,
                                track_len=track_len)
        assert items(new[0]) == items(old[0])
        assert [items(c) for c in new[1]] == [items(c) for c in old[1] or []]
        assert_canonical(new[1] + [new[0]])


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
    new = _buchberger(work, ring, total)
    assert_same_gb(new, old)
    assert_canonical(new)
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
    assert_canonical(new)
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
    assert_canonical(new)


# -- packed terms whose width grows ------------------------------------------
#
# The kernel packs exponents into 8-bit fields first and packs again at twice
# the width whenever a term outgrows them: at the input, or mid-run when a
# product of in-range terms overflows.  Nothing it returns may depend on it.

def spy_on_widths(monkeypatch):
    """The field width of every packing asked for: inside `_buchberger`,
    one per run started, the first at 8 bits and each restart at twice the
    width before it."""
    widths = []
    original = polyring._packing

    def spy(order, nvars, width):
        widths.append(width)
        return original(order, nvars, width)

    monkeypatch.setattr(polyring, "_packing", spy)
    return widths


def binomial(ring, a, b, pos=0):
    """x^a - y^b-style vector: monomial a minus monomial b, in position pos."""
    one = ring.field.one()
    return {(pos, tuple(a)): one, (pos, tuple(b)): ring.field.neg(one)}


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("track", [False, True])
def test_width_grows_mid_run_under_lex(field, track, monkeypatch):
    # x^200 - y and y^2 - x fit 8-bit fields; under lex the basis holds
    # y^400 - y, whose exponent does not
    widths = spy_on_widths(monkeypatch)
    ring = PolyRing(field, ["x", "y"], "lex")
    vecs = [binomial(ring, (200, 0), (0, 1)), binomial(ring, (0, 2), (1, 0))]
    new = _buchberger(vecs, ring, 1, track=track)
    assert_same_gb(new, oracle.buchberger(vecs, ring, 1, track=track))
    assert widths == [8, 16]
    assert any(e == (0, 400) for v in (new[0] if track else new) for _, e in v)


def test_divisor_with_leading_coefficient_minus_one_keeps_the_scale_positive():
    # y^2 - x leads with -x under lex; reducing x^3 by it must not negate the
    # work at every step: the scale stays 1 and the remainder is y^6
    ring = PolyRing(QQ, ["x", "y"], "lex")
    (div,) = _prepare([binomial(ring, (0, 2), (1, 0))], ring)
    assert div.lc == -1
    packing = div.packing
    vec = {packing.packed((0, (3, 0))): 1}
    rem, cof, scale = polyring._pseudo_reduce(vec, [div], packing, 0, track_len=1)
    assert scale == 1
    assert {packing.unpacked(t): c for t, c in rem.items()} == {(0, (0, 6)): 1}
    assert sorted(cof[0].values()) == [-1, -1, -1]


@pytest.mark.parametrize("track", [False, True])
def test_lex_family_with_negative_leading_coefficients(track):
    # x^n - y, y^2 - x over QQ: every reduction by y^2 - x has lc = -1
    ring = PolyRing(QQ, ["x", "y"], "lex")
    vecs = [binomial(ring, (1200, 0), (0, 1)), binomial(ring, (0, 2), (1, 0))]
    assert_same_gb(_buchberger(vecs, ring, 1, track=track),
                   oracle.buchberger(vecs, ring, 1, track=track))


@pytest.mark.parametrize("field", FIELDS)
def test_tracks_alone_outgrow_the_width(field, monkeypatch):
    # every basis exponent fits 8 bits, but the tracks reach x^444
    widths = spy_on_widths(monkeypatch)
    ring = PolyRing(field, ["x", "y"], "grlex")
    vecs = [{(0, (14, 238)): field.of(3), (0, (26, 80)): field.of(2)},
            {(0, (190, 240)): field.of(1), (0, (194, 52)): field.of(2)},
            {(0, (127, 6)): field.of(4), (0, (208, 143)): field.of(2)}]
    new = _buchberger(vecs, ring, 1, track=True)
    assert_same_gb(new, oracle.buchberger(vecs, ring, 1, track=True))
    assert widths == [8, 16]
    assert max(max(e) for v in new[0] for _, e in v) <= 255
    assert max(max(e) for t in new[1] for _, e in t) > 255


@pytest.mark.parametrize("field", FIELDS)
def test_reduction_widens_mid_run(field):
    # x^250 * y reduced by x - y^2 (lex) passes through y^501, and the
    # divisors were prepared at 8 bits
    ring = PolyRing(field, ["x", "y"], "lex")
    divs = [binomial(ring, (1, 0), (0, 2)), binomial(ring, (0, 3), (0, 0))]
    prepared = _prepare(divs, ring)
    assert [d.packing.width for d in prepared] == [8, 8]
    vec = {(0, (250, 1)): ring.field.one(), (0, (3, 0)): ring.field.of(2)}
    for track_len in (0, 2):
        new = _vec_reduce(vec, prepared, ring, track_len=track_len)
        old = oracle.vec_reduce(vec, [oracle.prepare(d, ring) for d in divs], ring, 1,
                                track_len=track_len)
        assert items(new[0]) == items(old[0])
        assert [items(c) for c in new[1]] == [items(c) for c in old[1] or []]
    assert max(max(e) for c in new[1] for e in c) > 255   # the cofactors outgrew 8 bits


@pytest.mark.parametrize("field", FIELDS)
def test_divisors_share_the_widest_packing(field, monkeypatch):
    # y - 1 fits 8 bits and x^300 - y needs 16: prepared together both sit
    # at 16 bits; prepared apart, a reduction by both packs its input once,
    # at 16, with no failed attempt at 8
    ring = PolyRing(field, ["x", "y"], "lex")
    divs = [binomial(ring, (0, 1), (0, 0)), binomial(ring, (300, 0), (0, 1))]
    assert [d.packing.width for d in _prepare(divs, ring)] == [16, 16]
    apart = _prepare(divs[:1], ring) + _prepare(divs[1:], ring)
    assert [d.packing.width for d in apart] == [8, 16]
    widths = []
    original = polyring._packed

    def spy(vec, packing, p):
        widths.append(packing.width)
        return original(vec, packing, p)

    monkeypatch.setattr(polyring, "_packed", spy)
    vec = {(0, (301, 2)): ring.field.one(), (0, (0, 5)): ring.field.of(2)}
    new = _vec_reduce(vec, apart, ring, track_len=2)
    old = oracle.vec_reduce(vec, [oracle.prepare(d, ring) for d in divs], ring, 1, track_len=2)
    assert items(new[0]) == items(old[0])
    assert [items(c) for c in new[1]] == [items(c) for c in old[1]]
    assert widths == [16]


def big_exponent_systems(ring):
    """x^70000 - y and y^2 - x, and x^70000*y - 1 with y^2 - x, built
    through the API: 70000 needs fields of 32 bits."""
    x, y = ring.var("x"), ring.var("y")
    big = ring.monomial((70000, 0))
    return [[big - y, y * y - x], [big * y - 1, y * y - x]]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ["grevlex", "grlex"])
def test_exponents_past_two_to_the_sixteen(field, order):
    ring = PolyRing(field, ["x", "y"], order)
    for gens in big_exponent_systems(ring):
        vecs = [{(0, e): c for e, c in g.terms.items()} for g in gens]
        for track in (False, True):
            assert_same_gb(_buchberger(vecs, ring, 1, track=track),
                           oracle.buchberger(vecs, ring, 1, track=track))
        want = oracle.buchberger(vecs, ring, 1)
        assert ([items(g.terms) for g in polyring.groebner(gens, ring)]
                == [[(e, c) for (_, e), c in v.items()] for v in want])
        vec = {(0, (70003, 5)): ring.field.one(), (0, (2, 7)): ring.field.of(3)}
        new = _vec_reduce(vec, _prepare(vecs, ring), ring, track_len=2)
        old = oracle.vec_reduce(vec, [oracle.prepare(v, ring) for v in vecs], ring, 1,
                                track_len=2)
        assert items(new[0]) == items(old[0])
        assert [items(c) for c in new[1]] == [items(c) for c in old[1]]


def test_exponents_past_two_to_the_sixteen_under_lex():
    # x - y^2 eliminates x: each basis holds y^140000 and comes from a
    # reduction of 70000 steps (the tracked runs of these take minutes)
    ring = PolyRing(GF(32003), ["x", "y"], "lex")
    for gens in big_exponent_systems(ring):
        vecs = [{(0, e): c for e, c in g.terms.items()} for g in gens]
        new = _buchberger(vecs, ring, 1)
        assert_same_gb(new, oracle.buchberger(vecs, ring, 1))
        assert max(e[1] for v in new for _, e in v) >= 140000


@pytest.mark.parametrize("field", FIELDS)
def test_rank_three_syzygies_with_widening(field, monkeypatch):
    """`_syzygy_vecs` of rank-3 columns whose S-vectors reach y^299: the
    Buchberger run starts at 8 bits and widens, and its output is the
    oracle basis of the tagged input under the elimination key, projected."""
    widths = spy_on_widths(monkeypatch)
    ring = PolyRing(field, ["x", "y"])
    rank = 3
    c0 = {(0, (200, 1)): field.one(), (1, (0, 100)): field.of(2)}
    c1 = {(0, (1, 200)): field.one(), (2, (100, 0)): field.of(3)}
    columns = [c0, c1, {**c0, **c1}, {(p, (a, b + 1)): c for (p, (a, b)), c in c1.items()}]
    work = []
    for i, col in enumerate(columns):
        v = dict(col)
        v[(rank + i, (0, 0))] = field.one()
        work.append(v)
    old = oracle.buchberger(work, ring, rank + len(columns),
                            keyf=oracle.vkey(ring, elim_rank=rank))
    want = [{(p - rank, e): c for (p, e), c in g.items()} for g in old
            if all(p >= rank for (p, _) in g)]
    assert len(want) == 2
    assert [items(v) for v in _syzygy_vecs(columns, ring, rank)] == [items(v) for v in want]
    assert widths == [8, 16]


# -- the pair rule of untracked runs -----------------------------------------
#
# Untracked runs of every rank take their S-vectors from the signature loop,
# so they reduce other S-vectors than the oracle, which keeps the plain pair
# rule; the reduced basis is unique, so theirs must still equal the
# oracle's, item for item.  Tracked runs keep the oracle's pair rule (the
# tests above).

def cyclic(n):
    names = [f"x{i}" for i in range(n)]
    eqs = [" + ".join("*".join(names[(i + j) % n] for j in range(d)) for i in range(n))
           for d in range(1, n)]
    return names, eqs + ["*".join(names) + " - 1"]


def system_vecs(ring, eqs):
    return [{(0, e): c for e, c in ring.poly(g).terms.items()} for g in eqs]


@pytest.mark.parametrize("field", [GF(32003), QQ], ids=["GF32003", "QQ"])
@pytest.mark.parametrize("system", [lambda: katsura(5), lambda: cyclic(5)],
                         ids=["katsura-5", "cyclic-5"])
def test_untracked_standard_systems_match_oracle(field, system):
    variables, eqs = system()
    ring = PolyRing(field, variables)
    vecs = system_vecs(ring, eqs)
    new = _buchberger(vecs, ring, 1)
    assert_same_gb(new, oracle.buchberger(vecs, ring, 1))
    assert_canonical(new)


def spy_on_reductions(monkeypatch):
    """(bound, remainder) of every `_pseudo_reduce` call; the bound is a
    signature for the regular reductions of the signature loop's J-pairs
    and None for every other reduction."""
    calls = []
    original = polyring._pseudo_reduce

    def spy(vec, divisors, packing, p, track_len=0, bound=None):
        out = original(vec, divisors, packing, p, track_len, bound)
        calls.append((bound, out[0]))
        return out

    monkeypatch.setattr(polyring, "_pseudo_reduce", spy)
    return calls


def test_untracked_runs_reduce_fewer_pairs(monkeypatch):
    # katsura-5: the F5 and syzygy criteria leave no J-pair that reduces
    # to zero
    calls = spy_on_reductions(monkeypatch)
    variables, eqs = katsura(5)
    ring = PolyRing(GF(32003), variables)
    _buchberger(system_vecs(ring, eqs), ring, 1)
    pairs = [rem for bound, rem in calls if bound is not None]
    assert pairs and all(pairs)
    # cyclic-5: fewer S-vectors than the tracked run, for the same basis;
    # the tracked run reduces its S-vectors and then each basis element once
    variables, eqs = cyclic(5)
    ring = PolyRing(GF(32003), variables)
    vecs = system_vecs(ring, eqs)
    calls.clear()
    untracked = _buchberger(vecs, ring, 1)
    n_untracked = sum(bound is not None for bound, _ in calls)
    calls.clear()
    tracked, _ = _buchberger(vecs, ring, 1, track=True)
    assert [items(v) for v in untracked] == [items(v) for v in tracked]
    assert all(bound is None for bound, _ in calls)
    assert 0 < n_untracked < len(calls) - len(tracked)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("rank", [1, 2])
def test_later_leading_terms_dividing_earlier_ones(field, order, rank):
    # each later input's leading term divides an earlier one's (twice with
    # equal leading terms), and a zero input sits in between
    ring = PolyRing(field, ["x", "y", "z"], order)
    one = field.one()

    def vec(*terms, pos=0):
        return {(pos, e): field.of(c) for e, c in terms}

    vecs = [vec(((3, 2, 0), 1), ((0, 1, 1), 2)),
            vec(((2, 2, 1), 3), ((1, 0, 0), -1)),
            vec(((3, 1, 0), 1), ((0, 0, 2), one)),
            {},
            vec(((3, 1, 0), 2), ((1, 1, 0), one)),
            vec(((1, 1, 0), 1), ((0, 0, 1), 1)),
            vec(((1, 0, 0), 1), ((0, 1, 0), 4)),
            vec(((1, 0, 0), 1), ((0, 0, 1), -1))]
    if rank == 2:
        vecs += [vec(((2, 0, 0), 1), pos=1), vec(((1, 1, 1), 2), ((0, 0, 0), 1), pos=1),
                 {**vec(((1, 0, 0), 1), pos=1), **vec(((0, 2, 0), 1))}]
    new = _buchberger(vecs, ring, rank)
    assert_same_gb(new, oracle.buchberger(vecs, ring, rank))
    tracked, _ = _buchberger(vecs, ring, rank, track=True)
    assert [items(v) for v in new] == [items(v) for v in tracked]


@pytest.mark.parametrize("ring,rank,rng", [c for c in cases(36) if c[1] > 1])
def test_untracked_modules_match_oracle(ring, rank, rng):
    for _ in range(2):
        vecs = [random_vec(ring, rank, rng, terms=3, deg=2) for _ in range(rng.randint(3, 5))]
        new = _buchberger(vecs, ring, rank)
        assert_same_gb(new, oracle.buchberger(vecs, ring, rank))
        tracked, _ = _buchberger(vecs, ring, rank, track=True)
        assert [items(v) for v in new] == [items(v) for v in tracked]


@pytest.mark.parametrize("ring,rank,rng", list(cases(18)))
def test_syzygy_elimination_inputs_match_oracle(ring, rank, rng):
    """`_syzygy_vecs`: the tagged columns under the elimination key, then
    the projection of the basis elements free of the column positions."""
    columns = [random_vec(ring, rank, rng, terms=3, deg=2) for _ in range(rng.randint(2, 4))]
    work = []
    for i, col in enumerate(columns):
        v = dict(col)
        v[(rank + i, (0,) * ring.nvars)] = ring.field.one()
        work.append(v)
    total = rank + len(columns)
    old = oracle.buchberger(work, ring, total, keyf=oracle.vkey(ring, elim_rank=rank))
    assert_same_gb(_buchberger(work, ring, total), old)
    want = [{(p - rank, e): c for (p, e), c in g.items()} for g in old
            if all(p >= rank for (p, _) in g)]
    assert [items(v) for v in _syzygy_vecs(columns, ring, rank)] == [items(v) for v in want]


def oracle_syzygies(columns, ring, rank):
    """What `_syzygy_vecs` must give: the oracle basis of the tagged columns
    and quotient generators under the elimination key, projected to the
    column tags of the elements free of the column positions."""
    work = [dict(c) for c in columns] + _quotient_vecs(ring, rank)
    for i, v in enumerate(work):
        v[(rank + i, (0,) * ring.nvars)] = ring.field.one()
    free = ring.free()
    old = oracle.buchberger(work, free, rank + len(work), keyf=oracle.vkey(free, elim_rank=rank))
    want = [{(p - rank, e): c for (p, e), c in g.items() if p - rank < len(columns)}
            for g in old if all(p >= rank for (p, _) in g)]
    return [v for v in want if v]


@pytest.mark.parametrize("field", [GF(7), GF(32003), QQ], ids=["GF7", "GF32003", "QQ"])
def test_kernel_over_a_quotient_ring_stays_small(field, monkeypatch):
    """The kernel of free(2) -> O^2/((2xy + 2, x + 2)) over QQ[x,y]/(x^2 - y^3)
    with rows (-2y + 2, -2x - y) and (x + y, -4y - 2): a pair rule that
    selects by sugar made its intermediate elements swell (hundreds of
    reductions over GF(32003), no result in minutes over QQ); the signature
    loop gives the oracle's 5 syzygies in a few dozen reductions on every
    field."""
    ring = PolyRing(field, ["x", "y"], quotient=["x^2 - y^3"])

    def column(top, bottom):
        return {(pos, e): c for pos, text in enumerate((top, bottom))
                for e, c in ring.poly(text).terms.items()}

    columns = [column("-2*y + 2", "x + y"), column("-2*x - y", "-4*y - 2"),
               column("2*x*y + 2", "x + 2")]
    want = oracle_syzygies(columns, ring, 2)
    assert len(want) == 5
    calls = spy_on_reductions(monkeypatch)
    assert [items(v) for v in _syzygy_vecs(columns, ring, 2)] == [items(v) for v in want]
    assert len(calls) < 100
