"""The signature loop of untracked Groebner runs, of every rank.

`polyring._signature_loop` reduces other S-vectors than the frozen
Buchberger loop in `reducer_oracle`, and fewer.  The reduced basis is unique,
so on every input the basis `_buchberger` returns must equal the oracle's,
item for item: seeded ideals over QQ, GF(5) and GF(32003) under grevlex,
lex and grlex, with the inputs the loop treats apart (zero and duplicate
inputs, an input already in the ideal of the earlier ones, constants and
unit ideals, quotient rings, exponents that restart the packing wider), and
a small system whose run drops a singular J-pair.

Module runs (rank 2 and 3) are compared alike on free rings and over
QQ[x,y]/(x^2 - y^3) and QQ[x,y]/(xy - 1): seeded inputs with zero,
duplicate and in-module inputs and constant leading terms in one position,
and the tagged inputs of `_syzygy_vecs`, whose elements of a zero or
repeated column lead with a constant tag.  A module has no principal
syzygies, and a constant leading term fills one position only, so neither
may end or prune a module run as they do an ideal's.

The oracle takes about 9 s on cyclic-6, so that system is checked without
it.  Over GF(32003) its run exercises both criteria that stop a J-pair after
its reduction (a syzygy and a singular drop).  Over QQ its basis is checked
without the code under test: 156 standard monomials, the leading monomials
of the GF(32003) basis, and every S-pair of the basis reducing to zero by
the basis under a reducer written here.
"""

import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm
from operator import add, ge, sub

import pytest

from idals import GF, QQ, PolyRing, groebner, polyring
from idals.polyring import Poly, _buchberger, _module_gb, _quotient_vecs, _syzygy_vecs

import reducer_oracle as oracle
from test_reducer_differential import (FIELDS, ORDERS, assert_canonical, assert_same_gb,
                                       big_exponent_systems, cyclic, items, oracle_syzygies,
                                       random_vec, spy_on_widths, system_vecs)


def spy_on_pairs(monkeypatch):
    """The fate of every J-pair the signature loop reduces: "zero" (a new
    syzygy), "singular" (its leading term is a multiple, of the same
    signature, of an element's) or "kept"."""
    fates = []
    original = polyring._pseudo_reduce

    def spy(vec, divisors, packing, p, track_len=0, bound=None):
        out = original(vec, divisors, packing, p, track_len, bound)
        if bound is not None:
            rem = out[0]
            if not rem:
                fates.append("zero")
            else:
                lt = min(rem)
                singular = any(
                    d.sig is not None and d.pos == lt >> packing.high
                    and not ((lt & packing.low) - d.fields) & packing.guard
                    and d.sig + lt - d.lt == bound for d in divisors)
                fates.append("singular" if singular else "kept")
        return out

    monkeypatch.setattr(polyring, "_pseudo_reduce", spy)
    return fates


def to_vec(poly):
    return {(0, e): c for e, c in poly.terms.items()}


def combination(ring, gens, rng):
    """A random combination of the gens: an input in their ideal."""
    out = ring.zero()
    for g in gens:
        coeff = Poly(ring, {e: c for (_, e), c in random_vec(ring, 1, rng, 2, 2).items()})
        out = out + coeff * Poly(ring, {e: c for (_, e), c in g.items()})
    return to_vec(out)


def seeded_ideals(field, order):
    """Eight ideals of 2-4 generators in 2-3 variables, the later ones with
    a zero input, a duplicate, an input in the ideal of the earlier ones, or
    a constant added."""
    rng = random.Random(f"signature-{field.p}-{order}")
    for k in range(8):
        ring = PolyRing(field, ["x", "y", "z"][:2 + k % 2], order)
        gens = [random_vec(ring, 1, rng, terms=4, deg=3) for _ in range(rng.randint(2, 4))]
        extra = k % 5
        if extra == 1:
            gens.insert(1, {})
        elif extra == 2:
            gens.append(dict(gens[0]))
        elif extra == 3:
            gens.insert(rng.randrange(len(gens) + 1), combination(ring, gens[:2], rng))
        elif extra == 4:
            gens.append({(0, (0,) * ring.nvars): field.of(3)})
        yield ring, gens


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS)
def test_seeded_ideals_match_oracle(field, order, monkeypatch):
    fates = spy_on_pairs(monkeypatch)
    for ring, gens in seeded_ideals(field, order):
        new = _buchberger(gens, ring, 1)
        assert_same_gb(new, oracle.buchberger(gens, ring, 1))
        assert_canonical(new)
    assert "kept" in fates


def test_seeded_ideals_reach_a_syzygy(monkeypatch):
    fates = spy_on_pairs(monkeypatch)
    for field in FIELDS:
        for order in ORDERS:
            for ring, gens in seeded_ideals(field, order):
                _buchberger(gens, ring, 1)
    assert "zero" in fates


@pytest.mark.parametrize("field", FIELDS)
def test_a_singular_pair_is_dropped(field, monkeypatch):
    fates = spy_on_pairs(monkeypatch)
    ring = PolyRing(field, ["x", "y", "z"])
    gens = [to_vec(ring.poly(g)) for g in ("y^2 + z", "x^2*y - 3*x*z - 2*z", "3*x*z - 2*x")]
    assert_same_gb(_buchberger(gens, ring, 1), oracle.buchberger(gens, ring, 1))
    assert "singular" in fates


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("gens", [["2*x*y - 1", "x^3 + y", "7"],   # a constant input
                                  ["x", "x - 1"],                  # a constant after entry
                                  ["x*y - 1", "x^2"],              # a constant from a J-pair
                                  ["x^2 + y", "x*y^2 - 1", "y^3 - x"]])
def test_unit_ideals(field, gens):
    ring = PolyRing(field, ["x", "y"])
    vecs = [to_vec(ring.poly(g)) for g in gens]
    new = _buchberger(vecs, ring, 1)
    assert_same_gb(new, oracle.buchberger(vecs, ring, 1))
    if len(gens) < 4:
        assert [items(v) for v in new] == [[((0, (0, 0)), 1)]]
    assert ring.contains_one([ring.poly(g) for g in gens]) == (len(gens) < 4)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS)
def test_quotient_ring_inputs(field, order):
    quotient = ["x^2*y - y", "y^3 + x", "x^3 - 2*y"]
    Q = PolyRing(field, ["x", "y"], order, quotient=quotient)
    free = Q.free()
    # the quotient basis the ring computes at construction
    qvecs = [to_vec(free.poly(q)) for q in quotient]
    want = oracle.buchberger(qvecs, free, 1)
    assert [items(q) for q in Q.quotient_gb] == [[(e, c) for (_, e), c in v.items()]
                                                 for v in want]
    rng = random.Random(f"quotient-{field.p}-{order}")
    for _ in range(4):
        gens = [random_vec(free, 1, rng, terms=3, deg=3) for _ in range(rng.randint(1, 3))]
        old = oracle.buchberger(gens + [to_vec(Poly(free, dict(q))) for q in Q.quotient_gb],
                                free, 1)
        got = groebner([Poly(free, {e: c for (_, e), c in g.items()}) for g in gens], Q)
        assert [items(g.terms) for g in got] == [[(e, c) for (_, e), c in v.items()]
                                                 for v in old]
        assert [items(v) for v in _module_gb(gens, Q, 1)] == [items(v) for v in old]


@pytest.mark.parametrize("field", FIELDS)
def test_exponents_past_two_to_the_sixteen_restart_the_packing(field, monkeypatch):
    widths = spy_on_widths(monkeypatch)
    ring = PolyRing(field, ["x", "y"])
    for gens in big_exponent_systems(ring):
        widths.clear()
        vecs = [to_vec(g) for g in gens]
        assert_same_gb(_buchberger(vecs, ring, 1), oracle.buchberger(vecs, ring, 1))
        assert widths == [8, 16, 32]


# -- module runs -----------------------------------------------------------------


def module_rings(field, order):
    yield PolyRing(field, ["x", "y"], order)
    yield PolyRing(field, ["x", "y", "z"], order)
    yield PolyRing(field, ["x", "y"], order, quotient=["x^2 - y^3"])
    yield PolyRing(field, ["x", "y"], order, quotient=["x*y - 1"])


def module_combination(ring, gens, rng):
    """A random combination of the gens with term coefficients: an input in
    the module they generate."""
    field, out = ring.field, {}
    for g in gens:
        ((_, shift), c), = random_vec(ring, 1, rng, terms=1, deg=2).items()
        for (pos, e), d in g.items():
            key = (pos, tuple(map(add, e, shift)))
            v = field.add(out.get(key, field.zero()), field.mul(c, d))
            if v:
                out[key] = v
            else:
                out.pop(key, None)
    return out


def constant_lead(ring, rank, pos, rng):
    """A vector whose leading term is a constant in position pos, with a
    tail of degree 3 in a later position, so that it is not taken first."""
    one = (0,) * ring.nvars
    cube = tuple(3 if i == 0 else 0 for i in range(ring.nvars))
    return {(pos, one): ring.field.of(rng.choice([2, 3, -1])),
            (rank - 1, cube): ring.field.one()}


def seeded_modules(field, order):
    """Inputs of rank 2 and 3 on each ring of `module_rings`: 2-4 random
    vectors, the later draws with a zero input, a duplicate, an input in
    the module of the earlier ones, or constant leading terms in one
    position added."""
    rng = random.Random(f"modules-{field.p}-{order}")
    for ring in module_rings(field, order):
        free = ring.free()
        for k in range(6):
            rank = 2 + k % 2
            gens = [random_vec(free, rank, rng, terms=3, deg=2)
                    for _ in range(rng.randint(2, 4))]
            extra = k % 5
            if extra == 1:
                gens.insert(1, {})
            elif extra == 2:
                gens.append(dict(gens[0]))
            elif extra == 3:
                gens.insert(rng.randrange(len(gens) + 1),
                            module_combination(free, gens[:2], rng))
            elif extra == 4:
                gens += [constant_lead(free, rank, 1, rng), constant_lead(free, rank, 1, rng)]
            yield ring, rank, gens


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS)
def test_seeded_modules_match_oracle(field, order):
    for ring, rank, gens in seeded_modules(field, order):
        free = ring.free()
        want = oracle.buchberger(gens + _quotient_vecs(ring, rank), free, rank)
        got = _module_gb(gens, ring, rank)
        assert [items(v) for v in got] == [items(v) for v in want]
        assert_canonical(got)


def tagged_columns(ring, rank, rng):
    """Columns for `_syzygy_vecs`: random ones, then a zero column and a
    repeated one, whose tagged inputs lead with constant tags."""
    columns = [random_vec(ring.free(), rank, rng, terms=3, deg=2)
               for _ in range(rng.randint(2, 3))]
    return columns + [{}, dict(columns[0])]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("order", ORDERS)
def test_tagged_syzygy_inputs_match_oracle(field, order):
    rng = random.Random(f"tagged-{field.p}-{order}")
    for ring in module_rings(field, order):
        for rank in (2, 3):
            columns = tagged_columns(ring, rank, rng)
            assert ([items(v) for v in _syzygy_vecs(columns, ring, rank)]
                    == [items(v) for v in oracle_syzygies(columns, ring, rank)])


# -- cyclic-6 ------------------------------------------------------------------


def grevlex_heap_key(e):
    """Larger monomials first under a min-heap, by grevlex: the higher
    degree, then the smaller exponent of the last variable that differs."""
    return (-sum(e), e[::-1], e)


def reduces_to_zero(poly: dict, basis: list, p: int) -> bool:
    """Whether poly {exps: int} reduces to zero by the basis, a list of
    (leading monomial, leading coefficient, other terms) with integer
    coefficients; over QQ by primitive pseudo-division, with the content
    divided out after each step."""
    heap = [grevlex_heap_key(e) for e in poly]
    heapify(heap)
    while heap:
        t = heappop(heap)[2]
        c = poly.pop(t, 0)
        if not c:
            continue
        for lt, lc, tail in basis:
            if all(map(ge, t, lt)):
                break
        else:
            return False
        if p:
            a, b = 1, c * pow(lc, -1, p) % p
        else:
            k = gcd(c, lc) if lc > 0 else -gcd(c, lc)
            a, b = lc // k, c // k
            if a != 1:
                for m in poly:
                    poly[m] *= a
        shift = tuple(map(sub, t, lt))
        for e, d in tail:
            m = tuple(map(add, e, shift))
            old = poly.get(m)
            v = (old or 0) - b * d
            if p:
                v %= p
            if v:
                poly[m] = v
                if old is None:
                    heappush(heap, grevlex_heap_key(m))
            elif old is not None:
                del poly[m]
        if not p and poly:
            k = gcd(*poly.values())
            if k > 1:
                for m in poly:
                    poly[m] //= k
    return True


def s_pairs_reduce_to_zero(polys: list, p: int) -> bool:
    """Buchberger's test, written apart from the library: every S-pair of
    the polynomials {exps: coeff} (grevlex) reduces to zero by them."""
    basis = []
    for g in polys:
        if not p:
            den = lcm(*(Fraction(c).denominator for c in g.values()))
            g = {e: int(Fraction(c) * den) for e, c in g.items()}
        lt = min(g, key=grevlex_heap_key)
        basis.append((lt, g[lt], [(e, c) for e, c in g.items() if e != lt]))
    for i, (li, ci, ti) in enumerate(basis):
        for lj, cj, tj in basis[i + 1:]:
            top = tuple(map(max, li, lj))
            k = gcd(ci, cj)
            spoly = {}
            for lt, tail, f in ((li, ti, cj // k), (lj, tj, -(ci // k))):
                shift = tuple(map(sub, top, lt))
                for e, c in tail:
                    m = tuple(map(add, e, shift))
                    v = spoly.get(m, 0) + f * c
                    if p:
                        v %= p
                    if v:
                        spoly[m] = v
                    else:
                        spoly.pop(m, None)
            if not reduces_to_zero(spoly, basis, p):
                return False
    return True


def standard_monomials(leads: list, nvars: int) -> int:
    """The number of monomials no leading monomial divides (None past
    10000), grown from 1 one variable at a time."""
    seen, todo = set(), [(0,) * nvars]
    while todo:
        m = todo.pop()
        if m in seen or any(all(map(ge, m, lt)) for lt in leads):
            continue
        seen.add(m)
        if len(seen) > 10000:
            return None
        todo += [m[:i] + (m[i] + 1,) + m[i + 1:] for i in range(nvars)]
    return len(seen)


def test_the_independent_checks_see_what_they_forbid():
    names, eqs = cyclic(4)
    ring = PolyRing(QQ, names)
    gens = [dict(ring.poly(g).terms) for g in eqs]
    basis = [dict(g.terms) for g in groebner([ring.poly(g) for g in eqs], ring)]
    for p in (0, 32003):
        if p:
            gens = [{e: int(c) % p for e, c in g.items()} for g in gens]
            basis = [{e: int(c) % p for e, c in g.items()} for g in basis]
        assert not s_pairs_reduce_to_zero(gens, p)
        assert s_pairs_reduce_to_zero(basis, p)
        # one coefficient changed: the basis of another ideal, and no longer
        # a Groebner basis
        bent = [dict(g) for g in basis]
        e = max(bent[1])
        bent[1][e] += 1
        assert not s_pairs_reduce_to_zero(bent, p)
    # cyclic-4 is one-dimensional: its standard monomials never end
    assert standard_monomials([min(g, key=grevlex_heap_key) for g in basis], 4) is None
    assert standard_monomials([(2, 0), (1, 1), (0, 3)], 2) == 4


def test_cyclic6_over_gf_drops_syzygies_and_singular_pairs(monkeypatch):
    fates = spy_on_pairs(monkeypatch)
    names, eqs = cyclic(6)
    ring = PolyRing(GF(32003), names)
    basis = _buchberger(system_vecs(ring, eqs), ring, 1)
    assert len(basis) == 45
    assert "zero" in fates and "singular" in fates and "kept" in fates


def test_cyclic6_over_qq():
    names, eqs = cyclic(6)
    bases = {}
    for field in (QQ, GF(32003)):
        ring = PolyRing(field, names)
        bases[field.p] = groebner([ring.poly(g) for g in eqs], ring)
    leads = [g.leading_term()[0] for g in bases[0]]
    assert leads == [g.leading_term()[0] for g in bases[32003]]
    assert standard_monomials(leads, 6) == 156
    assert s_pairs_reduce_to_zero([dict(g.terms) for g in bases[0]], 0)
