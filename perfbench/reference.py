"""A fixed reference computation that gauges the speed of the host.

A shared machine runs the same code slower or faster from second to second
and from minute to minute (other tenants contend for its cores and caches),
by as much as half again.  The benchmark runs this computation between its
tasks, about every REF_EVERY seconds, and scales the times of each pass by
REF_SECONDS / (the reference's mean time in that pass), so its figures read
as seconds on a host of fixed speed.

The computation is a textbook Buchberger algorithm over dict polynomials
with `Fraction` and mod-p coefficients, written here and never changed:
the same operation mix as idals' Groebner engine (tuples, dicts, `max`
with a key, small and big integer arithmetic), but none of idals' code, so
a change to idals moves the benchmark's figures and leaves the reference
alone.  It is deterministic and takes no input.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# Nominal seconds of one `run()`: the benchmark's figures are seconds on a
# host where run() takes this long.  It is near the time on a 2-vCPU Intel
# Xeon VM with Python 3.11.7 in its faster phases; a fixed number, so that
# figures from different runs and commits compare.
REF_SECONDS = 0.02
# Seconds of tasks between two runs of the reference within a pass.
REF_EVERY = 0.25
P = 32003


def _key(e):
    return (sum(e), tuple(-x for x in reversed(e)))   # grevlex


def _lead(f):
    return max(f, key=_key)


def _sub_scaled(f, g, c, shift, p):
    """f - c * x^shift * g, in place on f."""
    for e, a in g.items():
        m = tuple(x + y for x, y in zip(e, shift))
        v = f.get(m, 0) - c * a
        if p:
            v %= p
        if v:
            f[m] = v
        else:
            f.pop(m, None)


def _div(a, b, p):
    return a * pow(b, p - 2, p) % p if p else a / b


def _normal_form(f, basis, p):
    f, rem = dict(f), {}
    while f:
        e = _lead(f)
        for g, lg in basis:
            if all(x <= y for x, y in zip(lg, e)):
                shift = tuple(x - y for x, y in zip(e, lg))
                _sub_scaled(f, g, _div(f[e], g[lg], p), shift, p)
                break
        else:
            rem[e] = f.pop(e)
    return rem


def _monic(f, p):
    lc = f[_lead(f)]
    return {e: _div(c, lc, p) for e, c in f.items()}


def groebner(polys, p):
    """Groebner basis (not reduced) of polys; pairs by smallest lcm first."""
    basis = [(f, _lead(f)) for f in (_monic(f, p) for f in polys)]

    def lcm(i, j):
        return tuple(max(x, y) for x, y in zip(basis[i][1], basis[j][1]))

    pairs = [(i, j) for j in range(len(basis)) for i in range(j)]
    while pairs:
        pairs.sort(key=lambda ij: _key(lcm(*ij)), reverse=True)
        i, j = pairs.pop()
        (f, lf), (g, lg) = basis[i], basis[j]
        m = lcm(i, j)
        if all(a + b == c for a, b, c in zip(lf, lg, m)):
            continue   # coprime leading monomials
        s = {}
        _sub_scaled(s, f, -1, tuple(x - y for x, y in zip(m, lf)), p)
        _sub_scaled(s, g, 1, tuple(x - y for x, y in zip(m, lg)), p)
        h = _normal_form(s, basis, p)
        if h:
            h = _monic(h, p)
            pairs += [(k, len(basis)) for k in range(len(basis))]
            basis.append((h, _lead(h)))
    return basis


def katsura(n, p):
    """The katsura-n system in u0..un as {exponents: coefficient} dicts."""
    one = 1 if p else Fraction(1)

    def unit(*idx):
        e = [0] * (n + 1)
        for i in idx:
            e[i] += 1
        return tuple(e)

    polys = []
    for m in range(n):
        f = {}
        for l in range(-n, n + 1):
            if abs(m - l) <= n:
                e = unit(abs(l), abs(m - l))
                f[e] = f.get(e, 0) + one
        f[unit(m)] = f.get(unit(m), 0) - one
        polys.append({e: c % p if p else c for e, c in f.items() if c})
    last = {unit(0): one, unit(): -one % p if p else -one}
    last.update({unit(i): 2 * one for i in range(1, n + 1)})
    polys.append(last)
    return polys


def run():
    """One reference computation: katsura-3 over QQ and over GF(32003)."""
    return [len(groebner(katsura(3, p), p)) for p in (0, P)]


def timed() -> tuple:
    """(wall, CPU) seconds of one run().  The garbage collector is off while
    it runs, so that collections the program's allocations call for fall in
    the program's own time."""
    gc.disable()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        run()
        return time.perf_counter() - t0, time.process_time() - c0
    finally:
        gc.enable()


if __name__ == "__main__":
    print(run(), [round(timed()[0], 4) for _ in range(5)])
