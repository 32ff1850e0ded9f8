"""Frozen copy of the max-scan reducer and the Buchberger loop that used it.

Test-only oracle for `test_reducer_differential.py`: the heap reducer in
`idals.polyring` must take the same steps as this code (same divisor, same
term order, same arithmetic), so its remainders, cofactors, bases and
tracked representations must be equal to the ones computed here.  Do not
optimise this file; its value is that it stays as it was.
"""

from __future__ import annotations

import heapq

from idals.polyring import mono_divides, mono_mul


def mono_div(a, b):
    """Exponent vector of a / b; caller guarantees divisibility."""
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def vkey(ring, elim_rank=None):
    key = ring._key
    if elim_rank is None:
        return lambda t: (-t[0],) + tuple(key(t[1]))

    def ekey(t):
        return ((1 if t[0] < elim_rank else 0), -t[0]) + tuple(key(t[1]))
    return ekey


class Prepared:
    __slots__ = ("vec", "lt", "lc", "pos", "exps", "sugar", "track")

    def __init__(self, vec, keyf, track=None):
        self.vec = vec
        self.lt = max(vec, key=keyf)
        self.lc = vec[self.lt]
        self.pos, self.exps = self.lt
        self.sugar = max(sum(e) for (_, e) in vec)
        self.track = track


def prepare(vec, ring, keyf=None, track=None) -> Prepared:
    return Prepared(vec, keyf or vkey(ring), track)


def _vec_scale_shift(vec, coeff, shift, field):
    return {(p, mono_mul(e, shift)): field.mul(c, coeff) for (p, e), c in vec.items()}


def _vec_sub_inplace(target, other, field):
    for k, c in other.items():
        s = field.sub(target.get(k, field.zero()), c)
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def vec_reduce(vec, divisors, ring, rank, keyf=None, track_len=0):
    field = ring.field
    keyf = keyf or vkey(ring)
    work = dict(vec)
    remainder: dict = {}
    cof = [dict() for _ in range(track_len)] if track_len else None
    while work:
        t = max(work, key=keyf)
        pos, exps = t
        c = work[t]
        hit = None
        for i, d in enumerate(divisors):
            if d.pos == pos and mono_divides(d.exps, exps):
                hit = (i, d)
                break
        if hit is None:
            remainder[t] = c
            del work[t]
            continue
        i, d = hit
        factor = field.div(c, d.lc)
        shift = mono_div(exps, d.exps)
        _vec_sub_inplace(work, _vec_scale_shift(d.vec, factor, shift, field), field)
        if cof is not None and i < track_len:
            prev = cof[i].get(shift, field.zero())
            s = field.add(prev, factor)
            if s:
                cof[i][shift] = s
            else:
                cof[i].pop(shift, None)
    return remainder, cof


def _track_combine(track_target, track_src, coeff, shift, field):
    for (i, e), c in track_src.items():
        k = (i, mono_mul(e, shift))
        s = field.add(track_target.get(k, field.zero()), field.mul(c, coeff))
        if s:
            track_target[k] = s
        else:
            track_target.pop(k, None)


def buchberger(vecs, ring, rank, keyf=None, track=False):
    field = ring.field
    keyf = keyf or vkey(ring)

    G = []
    for i, v in enumerate(vecs):
        if not v:
            continue
        t = {(i, (0,) * ring.nvars): field.one()} if track else None
        G.append(prepare(dict(v), ring, keyf, t))

    def monic(prep):
        if prep.lc == field.one():
            return prep
        inv = field.inv(prep.lc)
        v = {k: field.mul(c, inv) for k, c in prep.vec.items()}
        t = None
        if prep.track is not None:
            t = {k: field.mul(c, inv) for k, c in prep.track.items()}
        return prepare(v, ring, keyf, t)

    G = [monic(g) for g in G]

    pairs: list = []
    done_pairs: set = set()

    def pair_key(i, j):
        gi, gj = G[i], G[j]
        lcm = mono_lcm(gi.exps, gj.exps)
        sugar = max(sum(mono_div(lcm, gi.exps)) + gi.sugar,
                    sum(mono_div(lcm, gj.exps)) + gj.sugar)
        return (sugar, tuple(lcm), i, j)

    def push_pairs_with(j):
        gj = G[j]
        for i in range(j):
            gi = G[i]
            if gi.pos != gj.pos:
                continue
            heapq.heappush(pairs, (*pair_key(i, j), i, j))

    for j in range(len(G)):
        push_pairs_with(j)

    while pairs:
        *_, i, j = heapq.heappop(pairs)
        if (i, j) in done_pairs:
            continue
        done_pairs.add((i, j))
        gi, gj = G[i], G[j]
        lcm = mono_lcm(gi.exps, gj.exps)
        if rank == 1 and all(a == 0 or b == 0 for a, b in zip(gi.exps, gj.exps)):
            continue
        skip = False
        for k, gk in enumerate(G):
            if k in (i, j) or gk.pos != gi.pos:
                continue
            if mono_divides(gk.exps, lcm):
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a in done_pairs and b in done_pairs:
                    skip = True
                    break
        if skip:
            continue
        si, sj = mono_div(lcm, gi.exps), mono_div(lcm, gj.exps)
        spoly = _vec_scale_shift(gi.vec, field.one(), si, field)
        _vec_sub_inplace(spoly, _vec_scale_shift(gj.vec, field.one(), sj, field), field)
        red, cof = vec_reduce(spoly, G, ring, rank, keyf, track_len=len(G) if track else 0)
        if not red:
            continue
        rtrack = None
        if track:
            rtrack = {}
            _track_combine(rtrack, gi.track, field.one(), si, field)
            _track_combine(rtrack, gj.track, field.neg(field.one()), sj, field)
            for d, cterms in zip(G, cof):
                for shift, c in cterms.items():
                    _track_combine(rtrack, d.track, field.neg(c), shift, field)
        G.append(monic(prepare(red, ring, keyf, rtrack)))
        push_pairs_with(len(G) - 1)

    keep = []
    for idx, g in enumerate(G):
        lt_divisible = False
        for k in range(len(G)):
            if k == idx:
                continue
            other = G[k]
            if other.pos == g.pos and mono_divides(other.exps, g.exps):
                if other.exps == g.exps and k > idx:
                    continue
                lt_divisible = True
                break
        if not lt_divisible:
            keep.append(idx)

    minimal = [G[k] for k in keep]

    reduced = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        rem, cof = vec_reduce(g.vec, others, ring, rank, keyf,
                              track_len=len(others) if track else 0)
        tr = None
        if track:
            tr = dict(g.track)
            for d, cterms in zip(others, cof or []):
                for shift, c in cterms.items():
                    _track_combine(tr, d.track, field.neg(c), shift, field)
        if rem:
            reduced.append(monic(prepare(rem, ring, keyf, tr)))

    reduced.sort(key=lambda g: keyf(g.lt), reverse=True)
    if track:
        return [g.vec for g in reduced], [g.track for g in reduced]
    return [g.vec for g in reduced]
