"""Exact multivariate polynomial arithmetic and the Groebner/syzygy engine.

Coefficients are exact.  Over the rationals a coefficient is stored in one
canonical form: an `int` when its value is integral, otherwise a
`fractions.Fraction` whose denominator is greater than 1; over a prime field
it is a machine integer in [0, p).  Nothing else, a float above all, is ever
taken as a coefficient.  Polynomials are stored as {exponent-tuple:
coefficient} maps and are always kept in normal form with respect to the
ring's quotient ideal, so equality of polynomials is equality in the
quotient ring.

The module-level Groebner engine works on "raw vectors": dicts mapping
(position, exponent-tuple) to a coefficient.  Ring elements are rank-1
vectors.  The module order is position-over-term with descending positions
(position 0 is largest).  Quotient rings are handled by appending the
quotient generators, placed in every position, to the divisor sets.  Over
the rationals the engine computes on integers (`_pseudo_reduce`) and hands
out canonical rationals.  Inside the engine each term is one packed int
(`_Packing`): comparing terms, multiplying by a monomial and testing
divisibility are int operations, and raw vectors are converted where they
enter and leave.

`_buchberger` picks its S-vectors by one of two loops: untracked runs of
every rank by an incremental signature algorithm (`_signature_loop`, whose
signatures are packed terms as well), and tracked runs, whose cofactors
depend on the pairs reduced, by the plain pair rule with the chain
criterion.  Both reduce through `_pseudo_reduce` and hand a minimal basis
to one tail that makes it reduced.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd, lcm as int_lcm
from numbers import Rational
from operator import itemgetter, mul

from .errors import (
    AlgebraError,
    RankMismatchError,
    RingMismatchError,
    VariableMismatchError,
)


# ---------------------------------------------------------------------------
# fields


class BaseField:
    """The rationals (p == 0) or a prime field F_p."""

    __slots__ = ("p",)

    def __init__(self, p: int = 0):
        if p and not _is_prime(p):
            raise AlgebraError(f"{p} is not prime")
        self.p = p

    @property
    def is_rational(self) -> bool:
        return self.p == 0

    def of(self, value):
        """Coerce an exact rational (an int, a Fraction or another
        `numbers.Rational`) or a coefficient string into the field; anything
        else, a float above all, is an AlgebraError."""
        p = self.p
        if type(value) is int:
            return value % p if p else value
        if isinstance(value, str):
            return self.parse_coeff(value)
        if not isinstance(value, Rational):
            raise AlgebraError(f"a coefficient is an exact rational or a string, "
                               f"not {type(value).__name__}")
        num, den = int(value.numerator), int(value.denominator)
        if p:
            if den % p == 0:
                raise AlgebraError(f"denominator not invertible mod {p}")
            return num * self.inv(den % p) % p
        return _ratio(num, den)

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return (a + b) % self.p if self.p else _canonical(a + b)

    def sub(self, a, b):
        return (a - b) % self.p if self.p else _canonical(a - b)

    def mul(self, a, b):
        return (a * b) % self.p if self.p else _canonical(a * b)

    def neg(self, a):
        return (-a) % self.p if self.p else -a

    def inv(self, a):
        if self.p:
            if a % self.p == 0:
                raise ZeroDivisionError("inverse of 0")
            return pow(a, self.p - 2, self.p)
        return self.div(1, a)

    def div(self, a, b):
        if self.p:
            return self.mul(a, self.inv(b))
        # `/` of two ints is a float
        if type(a) is int and type(b) is int:
            return _ratio(a, b)
        return _canonical(a / b)

    def parse_coeff(self, text):
        text = text.strip()
        m = re.fullmatch(r"\(\s*(-?\d+)\s+mod\s+(\d+)\s*\)", text)
        if m:
            if not self.p or _int_literal(m.group(2)) != self.p:
                raise AlgebraError(f"coefficient {text!r} does not match field {self}")
            return _int_literal(m.group(1)) % self.p
        if "/" in text:
            parts = text.split("/")
            if len(parts) != 2:
                raise AlgebraError(f"coefficient {_shown(text)!r} has more than one '/'")
            num, den = parts
            den = _int_literal(den)
            if not den:
                raise AlgebraError(f"coefficient {text!r} divides by zero")
            return self.of(Fraction(_int_literal(num), den))
        return self.of(_int_literal(text))

    def coeff_str(self, c) -> str:
        if self.p:
            return f"({int(c) % self.p} mod {self.p})"
        return str(c)

    def __eq__(self, other):
        return isinstance(other, BaseField) and self.p == other.p

    def __hash__(self):
        return hash(("BaseField", self.p))

    def __repr__(self):
        return "QQ" if not self.p else f"GF({self.p})"

    def to_json(self):
        return "QQ" if not self.p else {"p": self.p}

    @staticmethod
    def from_json(data) -> "BaseField":
        if data == "QQ":
            return QQ
        p = data.get("p") if isinstance(data, dict) else None
        if type(p) is not int:
            raise AlgebraError(f'a field is "QQ" or {{"p": <integer>}}, not {_shown(repr(data))}')
        return BaseField(p)


QQ = BaseField(0)


def _canonical(q):
    """A rational (int or Fraction) in the form QQ stores: an int when it is
    integral, otherwise the Fraction."""
    return q if type(q) is int or q.denominator != 1 else q.numerator


def _ratio(num: int, den: int):
    """num / den for ints, in canonical form: one gcd decides between the
    exact quotient and the Fraction."""
    if den < 0:
        num, den = -num, -den
    if gcd(num, den) == den:
        return num // den
    return Fraction(num, den)


# Miller-Rabin with the first 12 primes as bases classifies every integer
# below this bound exactly (Sorenson & Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Exact primality for n below PRIME_BOUND; AlgebraError above it."""
    if n >= PRIME_BOUND:
        raise AlgebraError(f"field characteristic of {n.bit_length()} bits is too "
                           f"large: primality is decided only below {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _shown(text: str) -> str:
    """A literal as error messages quote it: long ones are elided."""
    return text if len(text) <= 24 else f"{text[:12]}...{text[-12:]}"


def _int_literal(text: str) -> int:
    """int(text), raising AlgebraError where int() refuses the literal: a
    malformed one, or one of more digits than Python converts to an int
    (4300 unless `sys.set_int_max_str_digits` says otherwise)."""
    try:
        return int(text)
    except ValueError:
        raise AlgebraError(f"cannot read integer literal {_shown(text)!r} "
                           f"({len(text)} characters)") from None


def GF(p: int) -> BaseField:
    return BaseField(p)


# ---------------------------------------------------------------------------
# monomials and orders

ORDERS = ("grevlex", "lex", "grlex")


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True if monomial a divides monomial b."""
    return all(x <= y for x, y in zip(a, b))


def make_order_key(order: str):
    """Sort key monotone with the monomial order: bigger key = bigger monomial.

    Orders always use the unweighted total degree; grading weights never enter
    the division order (negative weights would destroy the well-ordering).
    """
    if order not in ORDERS:
        raise AlgebraError(f"unknown monomial order {order!r}")

    if order == "lex":
        return lambda e: e
    if order == "grlex":
        return lambda e: (sum(e), e)

    def grevlex_key(e):
        return (sum(e), tuple(-x for x in reversed(e)))

    return grevlex_key


# ---------------------------------------------------------------------------
# polynomial ring


class PolyRing:
    """Polynomial ring over QQ or F_p, optionally modulo a quotient ideal.

    The quotient ideal is stored as its reduced Groebner basis, computed once
    at construction.  `weights` assigns an integer degree to each variable
    (default 1) and is what graded_dim and homogeneity tests use.  The ring
    also keeps the Groebner memo of the module engine (`_gb_memoized`).
    """

    __slots__ = ("field", "variables", "order", "weights", "quotient_gb",
                 "_key", "_var_index", "_free", "_signature", "_gb_memo", "_qdivs")

    def __init__(self, field: BaseField, variables, order: str = "grevlex",
                 quotient=(), weights=None):
        self.field = field
        self.variables = tuple(variables)
        for v in self.variables:
            # a name the parser cannot read back would fail on first use; an
            # ASCII identifier is one identifier token, [A-Za-z_][A-Za-z_0-9]*
            if not (isinstance(v, str) and v.isascii() and v.isidentifier()):
                raise AlgebraError(f"bad variable name {_shown(repr(v))}: a variable is "
                                   f"a letter or '_' followed by letters, digits or '_'")
        if len(set(self.variables)) != len(self.variables):
            raise AlgebraError("duplicate variable names")
        self.order = order
        self.weights = tuple(weights) if weights is not None else (1,) * len(self.variables)
        if len(self.weights) != len(self.variables):
            raise AlgebraError("weights length must match variable count")
        self._key = make_order_key(order)
        self._var_index = {v: i for i, v in enumerate(self.variables)}
        self._signature = None
        self._gb_memo = {}
        self._qdivs = {}
        quotient = tuple(quotient)
        if not quotient:
            self.quotient_gb = ()
            # not `self`: a ring that referred to itself, and the Groebner
            # memo with it, would wait for the cyclic collector to be freed
            self._free = None
        else:
            free = PolyRing(field, self.variables, order, (), self.weights)
            gens = [free.poly(q).terms for q in quotient]
            gb = _buchberger([_poly_to_vec(t) for t in gens if t], free, 1)
            self.quotient_gb = tuple(_vec_to_poly_terms(v) for v in gb)
            self._free = free

    def free(self) -> "PolyRing":
        """The same ring with no quotient ideal."""
        return self if self._free is None else self._free

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def monomial_key(self, exps):
        return self._key(exps)

    def mono_degree(self, exps) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    # -- element construction ------------------------------------------------

    def zero(self) -> "Poly":
        return Poly(self, {})

    def one(self) -> "Poly":
        return Poly(self, {(0,) * self.nvars: self.field.one()})

    def constant(self, c) -> "Poly":
        c = self.field.of(c)
        return Poly(self, {} if not c else {(0,) * self.nvars: c})

    def var(self, name: str) -> "Poly":
        if name not in self._var_index:
            raise VariableMismatchError(f"no variable {name!r} in {self.variables}")
        e = [0] * self.nvars
        e[self._var_index[name]] = 1
        return Poly(self, self.reduce_terms({tuple(e): self.field.one()}))

    def monomial(self, exps, coeff=1) -> "Poly":
        c = self.field.of(coeff)
        terms = {tuple(exps): c} if c else {}
        return Poly(self, self.reduce_terms(terms))

    def poly(self, source) -> "Poly":
        """Coerce a string, int, Fraction, or Poly into this ring."""
        if isinstance(source, Poly):
            if source.ring is self:
                return source
            if source.ring.variables != self.variables or source.ring.field != self.field:
                raise RingMismatchError("cannot coerce polynomial between different rings")
            return Poly(self, self.reduce_terms(dict(source.terms)))
        if isinstance(source, (int, Fraction)):
            return self.constant(source)
        if isinstance(source, str):
            return Poly(self, self.reduce_terms(_parse_poly(source, self)))
        raise AlgebraError(f"cannot build polynomial from {source!r}")

    def reduce_terms(self, terms: dict) -> dict:
        """Normal form of a raw term dict modulo the quotient ideal: the dict
        itself when no leading monomial of the quotient divides a term."""
        if not self.quotient_gb or not terms:
            return terms
        divs = self._quotient_divisors(1)
        if not any(mono_divides(d.exps, e) for e in terms for d in divs):
            return terms
        red, _ = _vec_reduce(_poly_to_vec(terms), divs, self._free)
        return _vec_to_poly_terms(red)

    def _quotient_divisors(self, rank: int):
        """Quotient generators placed in each of `rank` positions, prepared
        once per rank."""
        divs = self._qdivs.get(rank)
        if divs is None:
            divs = self._qdivs[rank] = _prepare(_quotient_vecs(self, rank), self.free())
        return divs

    def contains_one(self, gens) -> bool:
        """Ideal membership of 1 in <gens> + quotient ideal."""
        gb = groebner(list(gens), self)
        return len(gb) == 1 and gb[0].is_one()

    # -- identity ------------------------------------------------------------

    def signature(self):
        """Identity of the ring; rings never change after construction, so it
        is rendered once."""
        if self._signature is None:
            self._signature = (
                self.field.p, self.variables, self.order, self.weights,
                tuple(sorted(str(Poly(self._free, dict(q))) for q in self.quotient_gb)))
        return self._signature

    def __eq__(self, other):
        return other is self or (isinstance(other, PolyRing)
                                 and self.signature() == other.signature())

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        base = f"{self.field}[{', '.join(self.variables)}]"
        if self.quotient_gb:
            qs = ", ".join(str(Poly(self._free, dict(q))) for q in self.quotient_gb)
            return f"{base}/({qs})"
        return base

    def to_json(self):
        data = {
            "field": self.field.to_json(),
            "variables": list(self.variables),
            "order": self.order,
            "quotient_generators": [str(Poly(self._free, dict(q))) for q in self.quotient_gb],
        }
        if any(w != 1 for w in self.weights):
            data["weights"] = list(self.weights)
        return data

    @staticmethod
    def from_json(data) -> "PolyRing":
        return PolyRing(
            BaseField.from_json(data["field"]),
            data["variables"],
            data.get("order", "grevlex"),
            tuple(data.get("quotient_generators", ())),
            data.get("weights"),
        )


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Immutable polynomial, stored in normal form for its ring."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.ring.nvars: self.ring.field.one()}

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def _coerced(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.ring != self.ring:
                raise RingMismatchError("polynomials over different rings")
            return other
        return self.ring.poly(other)

    def __add__(self, other):
        other = self._coerced(other)
        field = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = field.add(out.get(e, field.zero()), c)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.ring, out)

    def __neg__(self):
        field = self.ring.field
        return Poly(self.ring, {e: field.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerced(other))

    def __mul__(self, other):
        other = self._coerced(other)
        field = self.ring.field
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                s = field.add(out.get(e, field.zero()), field.mul(c1, c2))
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return Poly(self.ring, self.ring.reduce_terms(out))

    __rmul__ = __mul__
    __radd__ = __add__

    def __rsub__(self, other):
        return self._coerced(other) - self

    def __pow__(self, n: int):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        if not n:
            return self.ring.one()
        result = None   # 1 * base would be base, term for term
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def scale(self, c) -> "Poly":
        c = self.ring.field.of(c)
        if not c:
            return self.ring.zero()
        field = self.ring.field
        return Poly(self.ring, {e: field.mul(v, c) for e, v in self.terms.items()})

    def leading_term(self):
        """(exps, coeff) of the leading term; None for the zero polynomial."""
        if not self.terms:
            return None
        e = max(self.terms, key=self.ring.monomial_key)
        return e, self.terms[e]

    def degree(self):
        """Weighted total degree; None for the zero polynomial."""
        if not self.terms:
            return None
        return max(self.ring.mono_degree(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        return len({self.ring.mono_degree(e) for e in self.terms}) <= 1

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: self.ring.monomial_key(t[0]), reverse=True)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            try:
                other = self._coerced(other)
            except AlgebraError:
                return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.signature(), tuple(sorted(self.terms.items()))))

    def __str__(self):
        return _poly_str(self)

    def __repr__(self):
        return f"Poly({self})"


def _mono_str(ring: PolyRing, exps) -> str:
    parts = []
    for name, e in zip(ring.variables, exps):
        if e == 1:
            parts.append(name)
        elif e:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def _poly_str(p: Poly) -> str:
    if not p.terms:
        return "0"
    field = p.ring.field
    chunks = []
    for exps, c in p.sorted_terms():
        mono = _mono_str(p.ring, exps)
        if field.is_rational:
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            body = mono if (mag == 1 and mono) else (f"{mag}*{mono}" if mono else f"{mag}")
        else:
            sign = "+"
            body = mono if (c == field.one() and mono) else (
                f"{field.coeff_str(c)}*{mono}" if mono else field.coeff_str(c))
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    out = first_body if first_sign == "+" else f"-{first_body}"
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# parser

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[()+\-*/^])")

# Parentheses and unary minus signs inside a factor each recurse once; the
# bound keeps the recursive parser well inside Python's recursion limit.
MAX_NESTING = 100

# `^` expands its base by repeated multiplication, so its cost grows faster
# than the exponent: parsing `(x+1)^1000` over QQ takes about 3 s.
MAX_EXPONENT = 100

# A product of polynomials with s and t terms makes s * t term products, and
# expanding a power multiplies its growing partial results: unbounded,
# `(x+y+1)^60` (1891 terms) takes 2 s, nested powers multiply the exponent
# bound, and more variables widen every factor.  Each product formed while
# parsing, the squarings of `^` included, may make at most this many term
# products; `(x+y+1)^30` (496 terms) still parses.
MAX_PRODUCT_WORK = 20_000


def _tokenize(text: str):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise AlgebraError(f"malformed polynomial near {text[pos:pos + 12]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    return tokens


def _bounded_product(a: Poly, b: Poly) -> Poly:
    if len(a.terms) * len(b.terms) > MAX_PRODUCT_WORK:
        raise AlgebraError(
            f"polynomial expansion too large: a product of {len(a.terms)} by "
            f"{len(b.terms)} terms exceeds {MAX_PRODUCT_WORK} term products")
    return a * b


def _bounded_power(base: Poly, n: int) -> Poly:
    """Poly.__pow__'s square-and-multiply, with every product bounded."""
    result = base.ring.one()
    while n:
        if n & 1:
            result = _bounded_product(result, base)
        base = _bounded_product(base, base) if n > 1 else base
        n >>= 1
    return result


class _Parser:
    """Recursive-descent parser over one token list.  The methods share the
    token index and the nesting depth through the instance, so a parse
    leaves no reference cycle behind."""

    __slots__ = ("tokens", "ring", "idx", "depth")

    def __init__(self, tokens: list, ring: PolyRing):
        self.tokens = tokens
        self.ring = ring
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        self.idx += 1
        return self.tokens[self.idx - 1]

    def expr(self) -> Poly:
        """The sum of the terms, added into one dict in the order and with
        the cancellations of `Poly.__add__`."""
        field = self.ring.field
        negate = False
        while self.peek() in ("+", "-"):
            if self.advance() == "-":
                negate = not negate
        terms: dict = {}
        while True:
            mono = self.monomial()
            for e, c in (mono,) if mono else self.term().terms.items():
                s = field.add(terms.get(e, 0), field.neg(c) if negate else c)
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
            if self.peek() not in ("+", "-"):
                return Poly(self.ring, terms)
            negate = self.advance() == "-"

    def monomial(self):
        """(exps, coeff) of the next term when it is only integer literals
        and variable powers joined by `*`, followed by `+`, `-`, `)` or the
        end, and the quotient reduces its monomial no further; the index
        moves past it.  Otherwise None, and `term` parses it as `Poly`
        products with their bounds and errors.  Its atoms would sit one
        level deeper, so past the nesting bound it is None too."""
        if self.depth >= MAX_NESTING:
            return None
        tokens, ring = self.tokens, self.ring
        field, index = ring.field, ring._var_index
        i = self.idx
        coeff = 1
        exps = [0] * len(index)
        while True:
            tok = tokens[i]
            if tok is None:
                return None
            i += 1
            if tok.isdigit():
                coeff = field.mul(coeff, field.of(_int_literal(tok)))
            else:
                v = index.get(tok)
                if v is None:
                    return None
                e = 1
                if tokens[i] in ("^", "**"):
                    exp = tokens[i + 1]
                    if (exp is None or not exp.isdigit()
                            or len(exp.lstrip("0")) > len(str(MAX_EXPONENT))
                            or int(exp) > MAX_EXPONENT):
                        return None
                    e = int(exp)
                    i += 2
                exps[v] += e
            tok = tokens[i]
            if tok != "*":
                break
            i += 1
        if tok not in ("+", "-", ")", None):
            return None
        exps = tuple(exps)
        if ring.quotient_gb and any(mono_divides(d.exps, exps)
                                    for d in ring._quotient_divisors(1)):
            return None
        self.idx = i
        return exps, coeff

    def term(self) -> Poly:
        field = self.ring.field
        node = self.factor()
        while True:
            if self.peek() == "*":
                self.advance()
                node = _bounded_product(node, self.factor())
            elif self.peek() == "/":
                self.advance()
                den = self.advance()
                if den is None or not den.isdigit():
                    raise AlgebraError("division only by integer literals")
                d = field.of(_int_literal(den))
                if not d:
                    raise AlgebraError(f"division by {den}, which is zero in {field}")
                node = node.scale(field.inv(d))
            else:
                return node

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() in ("^", "**"):
            self.advance()
            exp = self.advance()
            if exp is None or not exp.isdigit():
                raise AlgebraError("exponent must be a non-negative integer literal")
            # compare lengths first: int() refuses literals of over 4300 digits
            if (len(exp.lstrip("0")) > len(str(MAX_EXPONENT))
                    or int(exp) > MAX_EXPONENT):
                raise AlgebraError(f"exponent larger than {MAX_EXPONENT}")
            return _bounded_power(base, int(exp))
        return base

    def atom(self) -> Poly:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise AlgebraError(f"polynomial nested deeper than {MAX_NESTING} levels")
        node = self.atom_body()
        self.depth -= 1
        return node

    def atom_body(self) -> Poly:
        ring, tokens = self.ring, self.tokens
        tok = self.advance()
        if tok == "-":
            return -self.atom()
        if tok == "(":
            # either a parenthesized expression or the `(k mod p)` form, whose
            # k may be negative: `-3` is the two tokens `-` and `3`
            i = self.idx + (tokens[self.idx] == "-")
            nxt = tokens[i]
            if nxt is not None and nxt.isdigit() and tokens[i + 1] == "mod":
                k = _int_literal(nxt)
                if i > self.idx:
                    k = -k
                self.idx = i + 2
                p = self.advance()
                if p is None:
                    raise AlgebraError("unclosed (k mod p) coefficient")
                p = _int_literal(p)
                if self.advance() != ")":
                    raise AlgebraError("unclosed (k mod p) coefficient")
                if not ring.field.p or ring.field.p != p:
                    raise AlgebraError(f"(k mod {p}) coefficient in ring over {ring.field}")
                return ring.constant(k)
            node = self.expr()
            if self.advance() != ")":
                raise AlgebraError("unbalanced parentheses")
            return node
        if tok is None:
            raise AlgebraError("unexpected end of polynomial")
        if tok.isdigit():
            return ring.constant(_int_literal(tok))
        if tok in ring._var_index:
            return ring.var(tok)
        raise VariableMismatchError(f"unknown symbol {tok!r} for ring {ring!r}")


def _parse_poly(text: str, ring: PolyRing) -> dict:
    """Recursive-descent parser for +, -, *, ^/** , parentheses, and the
    coefficient forms `num`, `num/den`, `(k mod p)`."""
    parser = _Parser(_tokenize(text), ring)
    result = parser.expr()
    if parser.peek() is not None:
        raise AlgebraError(f"trailing input after polynomial: {parser.peek()!r}")
    return dict(result.terms)


# ---------------------------------------------------------------------------
# raw vector engine (free ring only; quotients handled by appended divisors)
#
# vec: dict[(pos, exps)] -> coeff.  Module order: position-over-term with
# position 0 largest; ties broken by the ring's monomial order.
#
# Inside the engine every term (pos, exps) is one int (`_Packing`): the
# position above the order key above one field per exponent, each topped by
# a guard bit.  A smaller int is a larger term, and all parts are linear in
# the exponents: multiplying by a monomial adds a fixed int (t - s is the
# shift from s to a multiple t), and s divides t exactly when both lie in
# one position and subtracting the fields of s from those of t sets no guard
# bit.  Two exponents below 2^width sum to less than 2^(width + 1), so a
# product never carries into the next field: a new term whose exponent
# outgrows the width shows a set guard bit, and the engine raises
# `_Overflow` and starts again at twice the width.  The steps taken do not
# depend on the width, so the rerun gives the same result.


def _poly_to_vec(terms: dict) -> dict:
    return {(0, e): c for e, c in terms.items()}


def _column_vec(col) -> dict:
    """A column of Polys as one raw vector `{(pos, exps): coeff}`."""
    return {(pos, e): c for pos, p in enumerate(col) for e, c in p.terms.items()}


def _vec_column(ring: PolyRing, rank: int, vec: dict):
    """The raw vector as a column of `rank` Polys, each in normal form."""
    cols = [dict() for _ in range(rank)]
    for (pos, e), c in vec.items():
        cols[pos][e] = c
    return tuple(Poly(ring, ring.reduce_terms(t)) for t in cols)


def _vec_to_poly_terms(vec: dict) -> dict:
    return {e: c for (_, e), c in vec.items()}


class _Overflow(Exception):
    """A term outgrew the field width of its packing."""


# The width packing starts from, and the most recent conversions a packing
# keeps in each direction.  Many small reductions convert the same few terms
# again and again (on perfbench's workloads nearly every lookup hits, and no
# packing sees more than a few hundred distinct terms); a full pair of
# caches holds about 1.7 MB.
START_WIDTH = 8
PACK_MEMO_MAX = 1 << 12


class _Packing:
    """Terms (pos, exps) of one monomial order and variable count, packed
    into ints with `width`-bit exponent fields.

    The fields sit below the key, variable i at bit i * (width + 1).  Under
    grevlex the key is minus the degree, and the fields, compared from the
    last variable down, break ties as grevlex does.  Under lex the key is
    minus the exponents read as digits of base 2^width, the first variable
    most significant; grlex puts minus the degree above those digits.  The
    offset is the largest such sum over exponents of at most 2^width - 1, so
    the degree digit is wider than any degree the guard admits.

    `packed(key)` and `unpacked(t)` are `pack(*key)` and `unpack(t)`, kept
    for the last PACK_MEMO_MAX terms."""

    __slots__ = ("width", "top", "offsets", "incr", "base", "high", "low", "guard", "ones",
                 "packed", "unpacked")

    def __init__(self, order: str, nvars: int, width: int):
        span = width + 1
        top = (1 << width) - 1
        offsets = tuple(i * span for i in range(nvars))
        if order == "grevlex":
            keys = (1,) * nvars
            koff = nvars * top
        else:
            keys = tuple(1 << (nvars - 1 - i) * width for i in range(nvars))
            koff = (1 << nvars * width) - 1
            if order == "grlex":
                keys = tuple(k + (1 << nvars * width) for k in keys)
                koff += nvars * top << nvars * width
        below = nvars * span
        self.width = width
        self.top = top                  # the largest exponent a field holds
        self.offsets = offsets
        self.incr = tuple((1 << o) - (k << below) for o, k in zip(offsets, keys))
        self.base = koff << below
        self.high = below + koff.bit_length()
        self.low = (1 << below) - 1     # the exponent fields
        self.guard = sum(1 << o + width for o in offsets)
        # a field is nonzero exactly when adding `top` to it sets its guard bit
        self.ones = sum(top << o for o in offsets)
        self.packed = lru_cache(PACK_MEMO_MAX)(lambda key: self.pack(*key))
        self.unpacked = lru_cache(PACK_MEMO_MAX)(self.unpack)

    def pack(self, pos: int, exps) -> int:
        """The packed term; `_Overflow` for an exponent above top."""
        if exps and max(exps) > self.top:
            raise _Overflow
        return (pos << self.high) + self.base + sum(map(mul, exps, self.incr))

    def unpack(self, t) -> tuple:
        """(pos, exps) of a packed term."""
        return t >> self.high, self.exps(t)

    def exps(self, t) -> tuple:
        """The exponents of a term, or of the monomial a shift multiplies by."""
        top = self.top
        return tuple([t >> o & top for o in self.offsets])

    def degree(self, t) -> int:
        top = self.top
        return sum([t >> o & top for o in self.offsets])


@cache
def _packing(order: str, nvars: int, width: int) -> _Packing:
    return _Packing(order, nvars, width)


def _packed(vec: dict, packing: _Packing, p: int):
    """(packed, den): vec with its terms packed, over QQ multiplied by den,
    the least common denominator, so that its coefficients are integers;
    key order is kept."""
    packed = packing.packed
    if p:
        return {packed(k): c for k, c in vec.items()}, 1
    den = int_lcm(*(c.denominator for c in vec.values()))
    return {packed(k): c.numerator * (den // c.denominator) for k, c in vec.items()}, den


class _Prepared:
    """A divisor with cached leading-term data, its terms packed by `packing`.

    `vec` is the divisor as the reduction loop uses it: over QQ a primitive
    integer vector, over GF(p) the vector itself; `unit` is the scalar with
    unit * vec equal to the divisor a caller prepared (1 inside Buchberger).
    `lt` is the packed leading term, `pos` and `exps` its position and
    exponents, `fields` its exponent fields, and `tail` holds the other terms
    of vec as (term, coeff).  Inside Buchberger an element also carries its
    track, its sugar (the largest degree of its terms) and, in the signature
    loop, its signature."""

    __slots__ = ("vec", "packing", "lt", "lc", "pos", "exps", "fields", "sugar", "track",
                 "tail", "unit", "sig")

    def __init__(self, vec, packing: _Packing, track=None, unit=1):
        self.vec = vec
        self.packing = packing
        self.lt = lt = min(vec)
        self.lc = vec[lt]
        self.pos, self.exps = packing.unpacked(lt)
        self.fields = lt & packing.low
        self.sugar = None
        self.track = track
        self.tail = [(t, c) for t, c in vec.items() if t != lt]
        self.unit = unit
        self.sig = None

    def repacked(self, packing: _Packing) -> "_Prepared":
        packed, unpacked = packing.packed, self.packing.unpacked
        return _Prepared({packed(unpacked(t)): c for t, c in self.vec.items()}, packing,
                         unit=self.unit)


def _repacked(divisors: list, packing: _Packing) -> list:
    return [d if d.packing is packing else d.repacked(packing) for d in divisors]


def _prepare(vecs: list, ring) -> list:
    """Divisors for `_vec_reduce` under the ring's module order, all on one
    packing: the narrowest whose fields hold every exponent of the vecs."""
    p = ring.field.p
    big = max((x for v in vecs for _, e in v for x in e), default=0)
    width = START_WIDTH
    while big >> width:
        width *= 2
    packing = _packing(ring.order, ring.nvars, width)
    out = []
    for vec in vecs:
        ints, den = _packed(vec, packing, p)
        if p:
            out.append(_Prepared(ints, packing))
            continue
        content = gcd(*ints.values())
        if content != 1:
            ints = {k: c // content for k, c in ints.items()}
        out.append(_Prepared(ints, packing, unit=_ratio(content, den)))
    return out


def _shifted(vec: dict, coeff, shift: int, p: int, guard: int) -> dict:
    """coeff * vec multiplied by the monomial that `shift` adds."""
    out = {}
    for t, c in vec.items():
        t += shift
        if t & guard:
            raise _Overflow
        out[t] = c * coeff % p if p else c * coeff
    return out


def _vec_sub_inplace(target: dict, other: dict, field):
    for k, c in other.items():
        s = field.sub(target.get(k, 0), c)
        if s:
            target[k] = s
        else:
            target.pop(k, None)


def _pseudo_reduce(vec: dict, divisors: list, packing: _Packing, p: int, track_len: int = 0,
                   bound=None):
    """Normal form of the packed vec by the prepared divisors, up to a
    nonzero scalar.

    Returns (remainder, cofactors, scale) with
    scale * vec == sum of cofactors[i] * divisors[i].vec + remainder,
    the sum running over every divisor (a cofactor is kept for each of the
    first track_len divisors only, keyed by the shift its monomial adds).
    Over GF(p) scale is 1 and a term is cancelled by the inverse of the
    divisor's leading coefficient lc.  Over QQ the coefficients are integers:
    with g = gcd(c, lc) given the sign of lc, the work, the remainder and the
    cofactors are multiplied by lc // g > 0 and c // g times the shifted
    divisor is subtracted (primitive pseudo-reduction), so the loop divides
    nothing, and a divisor with lc = -1 rescales nothing.  Every step
    depends on leading monomials only, hence both take the steps a reduction
    by field division takes, with every intermediate value multiplied by the
    scale reached so far.

    The leading term is popped from a heap of packed terms; a term that
    cancels leaves its entry behind, and the entry is skipped when popped.
    Each step reduces by the first divisor whose leading term divides.

    With a `bound` (a packed signature) the reduction is regular: a divisor
    d with a signature d.sig reduces term t only when its multiple's
    signature d.sig + (t - d.lt) is a smaller term than the bound, that is
    a larger int.  It is checked on a divisor match only; a divisor with no
    signature always reduces.
    """
    high, low, guard = packing.high, packing.low, packing.guard
    work = dict(vec)
    heap = list(work)
    heapify(heap)
    remainder: dict = {}
    cof = [dict() for _ in range(track_len)]
    scale = 1
    while heap:
        t = heappop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        pos, fields = t >> high, t & low
        for i, d in enumerate(divisors):
            if d.pos == pos and not (fields - d.fields) & guard:
                if bound is None or d.sig is None:
                    break
                sig = d.sig + t - d.lt
                if sig & guard:
                    raise _Overflow
                if sig > bound:
                    break
        else:
            remainder[t] = c
            continue
        lc = d.lc
        if p:
            factor = c if lc == 1 else c * pow(lc, p - 2, p) % p
        else:
            g = gcd(c, lc) if lc > 0 else -gcd(c, lc)
            m, factor = lc // g, c // g
            if m != 1:
                scale *= m
                for part in (work, remainder, *cof):
                    for k in part:
                        part[k] *= m
        shift = t - d.lt
        for nt, dc in d.tail:
            nt += shift
            old = work.get(nt)
            if old is None:
                if nt & guard:
                    raise _Overflow
                s = -dc * factor % p if p else -dc * factor
                if s:
                    work[nt] = s
                    heappush(heap, nt)
            else:
                s = (old - dc * factor) % p if p else old - dc * factor
                if s:
                    work[nt] = s
                else:
                    del work[nt]
        if i < track_len:
            ci = cof[i]
            s = ci.get(shift, 0) + factor
            if p:
                s %= p
            if s:
                ci[shift] = s
            else:
                ci.pop(shift, None)
    return remainder, cof, scale


def _vec_reduce(vec: dict, divisors: list, ring: PolyRing, track_len: int = 0):
    """Full normal form of vec by the divisors, prepared by `_prepare`.

    Returns (remainder, cofactors) where cofactors is a list of track_len
    term dicts, the cofactors of the first track_len divisors as they were
    prepared (empty when track_len is 0).  Over QQ the remainder and the
    cofactors are canonical rationals; the reduction itself runs on integers.
    """
    p = ring.field.p
    # the divisors of one `_prepare` call share one packing; the loop starts
    # at the widest packing given and repacks any narrower divisor
    width = max((d.packing.width for d in divisors), default=START_WIDTH)
    packing = _packing(ring.order, ring.nvars, width)
    while True:
        try:
            ints, den = _packed(vec, packing, p)
            rem, cof, scale = _pseudo_reduce(ints, _repacked(divisors, packing), packing, p,
                                             track_len)
            break
        except _Overflow:
            packing = _packing(ring.order, ring.nvars, 2 * packing.width)
    unpacked, exps = packing.unpacked, packing.exps
    if p:
        return ({unpacked(t): c for t, c in rem.items()},
                [{exps(s): c for s, c in ci.items()} for ci in cof])
    scale *= den   # scale * vec == sum of cofactor * d.vec + remainder
    rem = {unpacked(t): _ratio(c, scale) for t, c in rem.items()}
    out = []
    for d, ci in zip(divisors, cof):
        # the prepared divisor is d.unit * d.vec
        num, dnm = d.unit.denominator, scale * d.unit.numerator
        out.append({exps(s): _ratio(c * num, dnm) for s, c in ci.items()})
    return rem, out


def _track_combine(track_target: dict, track_src: dict, coeff, shift: int, field, guard: int):
    for k, c in track_src.items():
        k += shift
        if k & guard:
            raise _Overflow
        s = field.add(track_target.get(k, 0), field.mul(c, coeff))
        if s:
            track_target[k] = s
        else:
            track_target.pop(k, None)


def _buchberger(vecs: list, ring: PolyRing, rank: int, track: bool = False):
    """Reduced Groebner basis of the submodule generated by vecs.

    With track=True, also returns representations: for each basis element a
    dict {(input_index, exps): coeff} expressing it over the input vectors.

    - Untracked runs of every rank (`groebner`, `_module_gb`,
      `_syzygy_vecs`, the quotient basis of a ring) run the signature loop
      (`_signature_loop`), which reduces no S-vector that the syzygy
      criterion (for rank 1 the F5 criterion too) or a singular top
      reduction shows to be superfluous.
    - Tracked runs queue every pair, select by sugar and drop a popped pair
      by the product and chain criteria (`_tracked_loop`); the pairs they
      reduce, and so the representations they return, stay those of the
      plain algorithm.

    The reduced basis is unique, so the loop changes no basis: each loop
    hands a minimal basis to one shared tail, which reduces every element
    by the others and makes it monic.

    Over QQ the loops hold each element as a primitive integer vector
    lambda * g, g monic, with the track lambda * t of g's track t, and
    reduce by `_pseudo_reduce`; over GF(p) they hold g itself.  Every choice
    depends on leading monomials only, so both fields take the same steps on
    monic elements.  Over QQ the returned basis and tracks are divided by
    lambda, as canonical rationals, at the end.  Tracks are packed too, the
    input index in the place of the position.
    """
    width = START_WIDTH
    while True:
        try:
            return _buchberger_packed(vecs, ring, rank, track,
                                      _packing(ring.order, ring.nvars, width))
        except _Overflow:
            width *= 2


def _loop_form(vec: dict, tr, packing: _Packing, field) -> _Prepared:
    """A new element as the loops hold it, its track divided alike:
    primitive over QQ, monic over GF(p)."""
    p = field.p
    s = vec[min(vec)] if p else gcd(*vec.values())
    if s != 1:
        if p:
            inv = field.inv(s)
            vec = {k: c * inv % p for k, c in vec.items()}
            if tr is not None:
                tr = {k: c * inv % p for k, c in tr.items()}
        else:
            vec = {k: c // s for k, c in vec.items()}
            if tr is not None:
                tr = {k: field.div(c, s) for k, c in tr.items()}
    return _Prepared(vec, packing, tr)


def _sugared(g: _Prepared) -> _Prepared:
    """g with its sugar set: the largest degree of its terms."""
    g.sugar = max(map(g.packing.degree, g.vec))
    return g


def _buchberger_packed(vecs: list, ring: PolyRing, rank: int, track: bool, packing: _Packing):
    """`_buchberger` with its terms packed by `packing`; `_Overflow` when a
    term outgrows it."""
    field = ring.field
    p = field.p
    G: list[_Prepared] = []
    one = (0,) * ring.nvars
    for i, v in enumerate(vecs):
        if v:
            v, den = _packed(v, packing, p)
            G.append(_sugared(_loop_form(v, {packing.pack(i, one): den} if track else None,
                                         packing, field)))
    if track:
        minimal = _minimal(_tracked_loop(G, rank, packing, field), packing)
    else:
        minimal = _signature_loop(G, packing, field, rank)

    reduced = []
    for rem, tr in _interreduced(minimal, packing, field, track):
        lt = min(rem)
        if not p:
            # g's leading term is irreducible by the others, so over GF(p)
            # rem is monic like g; over QQ it is made monic here
            lc = rem[lt]
            rem = {k: _ratio(c, lc) for k, c in rem.items()}
            if tr is not None:
                tr = {k: field.div(c, lc) for k, c in tr.items()}
        reduced.append((lt, rem, tr))
    reduced.sort(key=itemgetter(0))
    unpacked = packing.unpacked
    basis = [{unpacked(t): c for t, c in v.items()} for _, v, _ in reduced]
    if track:
        return basis, [{unpacked(k): c for k, c in t.items()} for _, _, t in reduced]
    return basis


def _minimal(G: list, packing: _Packing) -> list:
    """The elements of G whose leading term no other element's divides; of
    equal leading terms the first is kept."""
    guard = packing.guard
    keep = []
    for idx, g in enumerate(G):
        for k, other in enumerate(G):
            if (k != idx and other.pos == g.pos and not (g.fields - other.fields) & guard
                    and (k < idx or other.fields != g.fields)):
                break
        else:
            keep.append(g)
    return keep


def _interreduced(minimal: list, packing: _Packing, field, track: bool) -> list:
    """(remainder, track) of each element of a minimal basis reduced by the
    others; over QQ both are still multiplied by the reduction's scale."""
    p = field.p
    out = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        rem, cof, scale = _pseudo_reduce(g.vec, others, packing, p,
                                         len(others) if track else 0)
        tr = None
        if track:
            tr = {k: field.mul(c, scale) for k, c in g.track.items()}
            for d, cterms in zip(others, cof):
                for shift, c in cterms.items():
                    _track_combine(tr, d.track, field.neg(c), shift, field, packing.guard)
        out.append((rem, tr))
    return out


def _signature_loop(inputs: list, packing: _Packing, field, rank: int) -> list:
    """A minimal Groebner basis of the submodule of rank `rank` the inputs
    generate, by an incremental signature algorithm (Faugere's F5, ISSAC
    2002, in the form of Roune & Stillman, ISSAC 2012; for submodules of
    free modules see Eder & Faugere, JSC 2017).

    The inputs are taken lowest degree (sugar) first, of equal degrees the
    smaller leading term first.  `basis` is a minimal basis of the inputs
    taken so far; the next input f_i is reduced by it, and if something is
    left, the multiples of what is left are worked out in signature order.
    A signature is t * e_i, held as the packed term of the monomial t;
    every element found for f_i carries one, and the elements of `basis`
    carry none: their signatures lie at earlier inputs, so they may always
    reduce.

    - The J-pair of a new element g with an earlier element h whose leading
      term lies in the same position is the multiple of the one of larger
      signature by which its leading term reaches their lcm; of equal
      signatures (a singular pair) there is none.
    - The pairs are popped smallest signature first, one signature T at a
      time.  T is dropped when a known syzygy signature divides it: a
      signature that reduced to zero or, for rank 1, a leading term of
      `basis` (the F5 criterion: the principal syzygies, which a module of
      higher rank does not have).  It is dropped too when the latest
      element whose signature divides T, the rewriter, made none of its
      pairs.  Otherwise the rewriter is multiplied up to T and reduced
      regularly (`_pseudo_reduce` with the bound T).
    - A result of zero is a syzygy, and its signature joins the list.  A
      result whose leading term a multiple of signature T divides (it is
      singular top-reducible) is dropped: an element of that signature and
      leading term is there already.  Otherwise it joins the elements.

    Once f_i's pairs are done, its elements and `basis` form a Groebner
    basis of the inputs so far, which is made minimal for the next input
    and left minimal for the shared tail.  For rank 1 a constant ends the
    run: the ideal is the unit ideal.
    """
    p = field.p
    guard, low, width, top, ones = (packing.guard, packing.low, packing.width, packing.top,
                                    packing.ones)
    pack, exps = packing.pack, packing.exps
    inputs = sorted(inputs, key=lambda g: (g.sugar, -g.lt))
    basis, found = inputs[:1], []   # found: the elements found for the current input
    for f in inputs[1:]:
        if found:
            basis = _minimal(basis + found, packing)
            for g in basis:
                g.sig = None
        rem, _, _ = _pseudo_reduce(f.vec, basis, packing, p)
        if not rem:
            found = []
            continue
        if rem != f.vec:
            f = _loop_form(rem, None, packing, field)
        if rank == 1 and not f.fields:
            return [f]
        f.sig = packing.base    # the signature 1 * e_i
        found = [f]
        reducers = basis + found
        # the exponent fields of syzygy signatures
        syz = [g.fields for g in basis] if rank == 1 else []
        # (minus the signature, index in found of the element it multiplies)
        pairs: list = []
        nb = len(basis)
        new = f
        while new is not None:
            nf, nsig, nlt, npos = new.fields, new.sig, new.lt, new.pos
            n = len(found) - 1
            for k in range(nb + n):
                h = reducers[k]
                if h.pos != npos:
                    continue
                a = h.fields
                if rank == 1 and h.sig is None and not (a + ones) & (nf + ones) & guard:
                    continue    # T = lt(h) * sig(new): the F5 criterion drops it
                # per field, m is `top` where h's field is at least new's
                m = (((a | guard) - nf & guard) >> width) * top
                lcm = pack(npos, exps(a & m | nf & ~m & low))
                T, gen = nsig + lcm - nlt, n
                if h.sig is not None:
                    other = h.sig + lcm - h.lt
                    if other == T:
                        continue
                    if (T | other) & guard:
                        raise _Overflow
                    if other < T:
                        T, gen = other, k - nb
                elif T & guard:
                    raise _Overflow
                tf = T & low
                for s in syz:
                    if not (tf - s) & guard:
                        break
                else:
                    heappush(pairs, (-T, gen))
            new = None
            while pairs and new is None:
                key, gen = heappop(pairs)
                gens = {gen}
                while pairs and pairs[0][0] == key:
                    gens.add(heappop(pairs)[1])
                T = -key
                tf = T & low
                for s in syz:
                    if not (tf - s) & guard:
                        break
                else:
                    r = len(found) - 1
                    while (tf - (found[r].sig & low)) & guard:
                        r -= 1
                    if r not in gens:
                        continue
                    r = found[r]
                    rem, _, _ = _pseudo_reduce(_shifted(r.vec, 1, T - r.sig, p, guard),
                                               reducers, packing, p, 0, T)
                    if not rem:
                        syz.append(tf)
                        continue
                    lt = min(rem)
                    lf = lt & low
                    for h in found:
                        if not (lf - h.fields) & guard and h.sig + lt - h.lt == T:
                            break
                    else:
                        new = _loop_form(rem, None, packing, field)
                        if rank == 1 and not new.fields:
                            return [new]
                        new.sig = T
                        found.append(new)
                        reducers.append(new)
    return _minimal(basis + found, packing)


def _spoly(gi: _Prepared, gj: _Prepared, lcm: int, packing: _Packing, field):
    """(S, ai, si, aj, sj): the S-vector S = ai * x^si * gi - aj * x^sj * gj,
    the shifts si, sj taking the leading terms to the packed lcm; ai == aj
    == 1 over GF(p)."""
    p, guard = field.p, packing.guard
    si, sj = lcm - gi.lt, lcm - gj.lt
    common = gcd(gi.lc, gj.lc)
    ai, aj = gj.lc // common, gi.lc // common
    spoly = _shifted(gi.vec, ai, si, p, guard)
    _vec_sub_inplace(spoly, _shifted(gj.vec, aj, sj, p, guard), field)
    return spoly, ai, si, aj, sj


def _tracked_loop(G: list, rank: int, packing: _Packing, field) -> list:
    """Buchberger's algorithm on the tracked inputs G, extended in place and
    returned: every pair is queued as (sugar, lcm, i, j), the sugar of a
    pair being the degree of the lcm plus the larger excess of an element's
    sugar over the degree of its leading monomial; a popped pair is dropped
    by the product criterion (rank-1 leading positions only) or the chain
    criterion."""
    guard, low, ones = packing.guard, packing.low, packing.ones
    pairs: list = []

    def push_pairs_with(j):
        gj = G[j]
        for i in range(j):
            gi = G[i]
            if gi.pos != gj.pos:
                continue
            lcm = tuple(map(max, gi.exps, gj.exps))
            sugar = sum(lcm) + max(gi.sugar - sum(gi.exps), gj.sugar - sum(gj.exps))
            heappush(pairs, (sugar, lcm, i, j))

    for j in range(len(G)):
        push_pairs_with(j)
    done_pairs: set = set()
    while pairs:
        _, lcm, i, j = heappop(pairs)
        gi, gj = G[i], G[j]
        done_pairs.add((i, j))
        if rank == 1 and not (gi.fields + ones) & (gj.fields + ones) & guard:
            continue
        lcm = packing.pack(gi.pos, lcm)
        lcm_fields = lcm & low
        skip = False
        for k, gk in enumerate(G):
            if k in (i, j) or gk.pos != gi.pos:
                continue
            if not (lcm_fields - gk.fields) & guard:
                a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
                if a in done_pairs and b in done_pairs:
                    skip = True
                    break
        if skip:
            continue
        spoly, ai, si, aj, sj = _spoly(gi, gj, lcm, packing, field)
        red, cof, scale = _pseudo_reduce(spoly, G, packing, field.p, len(G))
        if not red:
            continue
        rtrack = {}
        _track_combine(rtrack, gi.track, field.mul(scale, ai), si, field, guard)
        _track_combine(rtrack, gj.track, field.neg(field.mul(scale, aj)), sj, field, guard)
        for d, cterms in zip(G, cof):
            for shift, c in cterms.items():
                _track_combine(rtrack, d.track, field.neg(c), shift, field, guard)
        G.append(_sugared(_loop_form(red, rtrack, packing, field)))
        push_pairs_with(len(G) - 1)
    return G


# Equal presentations are rebuilt as new objects throughout the layers above,
# and each object caches only its own basis, so the same Groebner input comes
# back many times.  Each ring therefore memoizes the results of the three
# entry points below, keyed on the ordered input columns: syzygy positions
# and tracked cofactors depend on the input order.  The memo keeps at most
# this many entries per ring and drops the oldest first, so a long-lived ring
# does not grow without bound.
GB_MEMO_MAX = 256


def _gb_memoized(ring: PolyRing, kind: str, rank: int, columns: list, compute):
    """compute(), or its stored result for the same (kind, rank, columns) on
    this ring instance.  Callers copy what they hand out or never mutate it."""
    memo = ring._gb_memo
    key = (kind, rank, tuple(frozenset(c.items()) for c in columns))
    hit = memo.get(key)
    if hit is None:
        hit = compute()
        if len(memo) >= GB_MEMO_MAX:
            del memo[next(iter(memo))]
        memo[key] = hit
    return hit


def _quotient_vecs(ring: PolyRing, rank: int) -> list:
    """The quotient generators placed in each of `rank` positions."""
    return [{(pos, e): c for e, c in q.items()}
            for q in ring.quotient_gb for pos in range(rank)]


def _module_gb(columns: list, ring: PolyRing, rank: int):
    """Reduced GB of the submodule of ring^rank generated by the columns,
    over the quotient ring (quotient generators appended in each position)."""
    def compute():
        vecs = [dict(c) for c in columns if c] + _quotient_vecs(ring, rank)
        return _buchberger(vecs, ring.free(), rank)
    return [dict(v) for v in _gb_memoized(ring, "gb", rank, columns, compute)]


def _syzygy_vecs(columns: list, ring: PolyRing, rank: int) -> list:
    """Generators of {c : sum c_i * columns_i = 0 in ring^rank} over the
    quotient ring.  Returned vectors live in positions 0..len(columns)-1."""
    def compute():
        free = ring.free()
        n = len(columns)
        work = [dict(c) for c in columns] + _quotient_vecs(ring, rank)
        for i, v in enumerate(work):
            v[(rank + i, (0,) * ring.nvars)] = ring.field.one()
        # position-over-term with positions 0..rank-1 largest is already an
        # elimination order for the columns' positions
        gb = _buchberger(work, free, rank + len(work))
        out = []
        for g in gb:
            if all(p >= rank for (p, _) in g):
                proj = {(p - rank, e): c for (p, e), c in g.items() if p - rank < n}
                if proj:
                    out.append(proj)
        return out
    return [dict(v) for v in _gb_memoized(ring, "syz", rank, columns, compute)]


class SubmoduleLifter:
    """Tracked Groebner data for one column set: membership plus explicit
    cofactor lifts.  Cofactors over appended quotient columns are dropped.

    Lifters of equal column lists on one ring share their basis, its
    representations and the prepared divisors; none of them is mutated
    after construction."""

    def __init__(self, ring: PolyRing, columns: list, rank: int):
        self.ring = ring
        self.rank = rank
        self.n = len(columns)
        free = ring.free()

        def compute():
            vecs = [dict(c) for c in columns] + _quotient_vecs(ring, rank)
            gb, reprs = _buchberger(vecs, free, rank, track=True)
            return gb, reprs, _prepare(gb, free)

        self._gb, self._reprs, self._prepared = _gb_memoized(
            ring, "lift", rank, columns, compute)
        self._free = free

    def reduce(self, vec: dict):
        """(remainder, cofactors) with cofactors a list of n term dicts."""
        field = self.ring.field
        rem, cof = _vec_reduce(vec, self._prepared, self._free,
                               track_len=len(self._prepared))
        out = [dict() for _ in range(self.n)]
        for gidx, cterms in enumerate(cof):
            rep = self._reprs[gidx]
            for shift, c in cterms.items():
                for (i, e), rc in rep.items():
                    if i >= self.n:
                        continue
                    k = mono_mul(e, shift)
                    s = field.add(out[i].get(k, field.zero()), field.mul(rc, c))
                    if s:
                        out[i][k] = s
                    else:
                        out[i].pop(k, None)
        return rem, out

    def contains(self, vec: dict) -> bool:
        rem, _ = _vec_reduce(vec, self._prepared, self._free)
        return not rem

    def lift(self, vec: dict):
        """Cofactor term dicts if vec lies in the submodule, else None."""
        rem, cof = self.reduce(vec)
        if rem:
            return None
        return cof


# ---------------------------------------------------------------------------
# free-module elements and the public operations


class FreeVector:
    """Element of a free module ring^rank, entries indexed by position."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring: PolyRing, entries):
        self.ring = ring
        self.entries = tuple(ring.poly(e) for e in entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.entries)

    def to_vec(self) -> dict:
        return _column_vec(self.entries)

    @staticmethod
    def from_vec(ring: PolyRing, rank: int, vec: dict) -> "FreeVector":
        return FreeVector(ring, _vec_column(ring, rank, vec))

    def __eq__(self, other):
        return (isinstance(other, FreeVector) and self.ring == other.ring
                and self.entries == other.entries)

    def __repr__(self):
        return f"FreeVector([{', '.join(str(p) for p in self.entries)}])"


def normal_form(p, ring: PolyRing) -> Poly:
    """Unique remainder of p modulo the ring's quotient ideal."""
    return ring.poly(p)


def groebner(gens: list, ring: PolyRing) -> list:
    """Reduced Groebner basis of <gens> + quotient ideal, as polynomials of
    the free ring, sorted by leading monomial (descending)."""
    if not gens:
        raise AlgebraError("empty generator list")
    free = ring.free()
    vecs = []
    for g in gens:
        terms = ring.poly(g).terms
        if terms:
            vecs.append(_poly_to_vec(dict(terms)))
    for q in ring.quotient_gb:
        vecs.append(_poly_to_vec(dict(q)))
    if not vecs:
        return []
    gb = _buchberger(vecs, free, 1)
    return [Poly(free, _vec_to_poly_terms(v)) for v in gb]


def divide_with_cofactors(v: FreeVector, basis: list):
    """Division of v by the basis as given (not by a Groebner basis).

    Returns (remainder, cofactors) with v = sum cofactor_i * basis_i +
    remainder modulo the quotient ideal, and the remainder irreducible by the
    basis leading terms.
    """
    ring = v.ring
    rank = v.rank
    for b in basis:
        if b.rank != rank:
            raise RankMismatchError("basis element with different ambient rank")
    free = ring.free()
    vecs = [b.to_vec() for b in basis if not b.is_zero()]
    index_map = [i for i, b in enumerate(basis) if not b.is_zero()]
    divisors = _prepare(vecs + _quotient_vecs(ring, rank), free)
    rem, cof = _vec_reduce(v.to_vec(), divisors, free, track_len=len(index_map))
    cofactors = [ring.zero()] * len(basis)
    for slot, terms in enumerate(cof):
        cofactors[index_map[slot]] = Poly(ring, ring.reduce_terms(terms))
    return FreeVector.from_vec(ring, rank, rem), cofactors


def syzygies(gens: list, ring: PolyRing) -> list:
    """Generating set of the syzygy module of gens inside ring^rank."""
    if not gens:
        raise AlgebraError("empty generator list")
    rank = gens[0].rank
    for g in gens:
        if g.rank != rank:
            raise RankMismatchError("generators with different ambient ranks")
    raw = _syzygy_vecs([g.to_vec() for g in gens], ring, rank)
    return [FreeVector.from_vec(ring, len(gens), v) for v in raw]


# ---------------------------------------------------------------------------
# ring homomorphisms


class RingHom:
    """Ring homomorphism given by variable images; the base field is fixed.

    A hom keeps the image of every source monomial it has mapped, in normal
    form in the target (`_monomials`; a hom never changes).  A new monomial's
    image is the image of the monomial with its last variable peeled off,
    times the image of that variable's power, both kept as well: one
    product, reduced once.  A power of one variable is its image raised to
    the power.  A polynomial's image is then the coefficient-scaled sum of
    its monomials' images, which needs no product and no reduction, since a
    sum of normal forms is a normal form.  The products are taken in the
    order of `c * p1**e1 * p2**e2 * ...`, so an image lists its terms as
    that expansion does."""

    def __init__(self, src: PolyRing, dst: PolyRing, images: dict):
        if src.field != dst.field:
            raise RingMismatchError("ring homomorphisms must fix the base field")
        self.src = src
        self.dst = dst
        self.images = {v: dst.poly(images[v]) for v in src.variables}
        self._monomials = {}
        for q in src.quotient_gb:
            img = self._apply_terms(dict(q))
            if not img.is_zero():
                raise AlgebraError(
                    f"ill-defined homomorphism: quotient relation {Poly(src.free(), dict(q))} "
                    f"maps to {img} != 0")

    def _monomial_image(self, exps) -> Poly:
        """The image of the monomial exps, kept on the hom."""
        image = self._monomials.get(exps)
        if image is None:
            used = [i for i, e in enumerate(exps) if e]
            if not used:
                image = self.dst.one()
            elif len(used) == 1:
                k = used[0]
                image = self.images[self.src.variables[k]] ** exps[k]
            else:
                k = used[-1]
                rest = exps[:k] + (0,) * (len(exps) - k)
                image = self._monomial_image(rest) * self._monomial_image((0,) * k + exps[k:])
            self._monomials[exps] = image
        return image

    def _apply_terms(self, terms: dict) -> Poly:
        known = self._monomials
        field = self.dst.field
        add, mul = field.add, field.mul
        out: dict = {}
        for exps, c in terms.items():
            image = known.get(exps)
            if image is None:
                image = self._monomial_image(exps)
            for e, v in image.terms.items():
                s = add(out.get(e, 0), mul(c, v))
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly(self.dst, out)

    def apply(self, p) -> Poly:
        return self._apply_terms(self.src.poly(p).terms)

    def apply_matrix(self, rows):
        return tuple(tuple(self.apply(x) for x in row) for row in rows)

    def compose(self, inner: "RingHom") -> "RingHom":
        """self after inner (inner: A -> B, self: B -> C)."""
        if inner.dst != self.src:
            raise RingMismatchError("non-composable ring homomorphisms")
        return RingHom(inner.src, self.dst,
                       {v: self.apply(inner.images[v]) for v in inner.src.variables})

    @staticmethod
    def inclusion(src: PolyRing, dst: PolyRing) -> "RingHom":
        return RingHom(src, dst, {v: dst.var(v) for v in src.variables})

    def __repr__(self):
        ims = ", ".join(f"{v} -> {self.images[v]}" for v in self.src.variables)
        return f"RingHom({self.src!r} -> {self.dst!r}; {ims})"


# ---------------------------------------------------------------------------
# bounded-degree monomial enumeration (for exact graded linear algebra)

def iter_window(ring: PolyRing, lo: int, hi: int):
    """Yields (m, k) once for every quotient-normal-form monomial m whose
    weighted degree k lies in lo..hi, in no particular order.

    One pass walks the whole window: each variable is bounded by the far end
    of the window, and a leaf is kept under the degree its weighted sum has.
    The monomials are yielded as they are reached, so a caller that only
    counts holds none of them.  Supported ring shapes (the graded components
    are finite exactly there): all weights positive, or a single
    positive-weight variable together with inverse variables t_j of negative
    weight whose quotient leading monomials have the localization shape
    t_j * (positive-block monomial).  An empty window (lo > hi) yields
    nothing and checks nothing.
    """
    if lo > hi:
        return
    n = ring.nvars
    if n == 0:
        if lo <= 0 <= hi:
            yield (), 0
        return
    weights = ring.weights
    lms = [max(q, key=ring.monomial_key) for q in ring.quotient_gb]
    # zero-weight variables are only allowed when eliminated by the quotient
    # (their leading monomial is the bare variable, as for inverted constants)
    for i in range(n):
        if weights[i] == 0:
            unit_vec = tuple(1 if j == i else 0 for j in range(n))
            if unit_vec not in lms:
                raise AlgebraError(
                    "monomial enumeration requires nonzero or eliminated variable weights")

    pos = [i for i in range(n) if weights[i] > 0]
    neg = [i for i in range(n) if weights[i] < 0]

    def candidates():
        """(m, k) before the quotient filter."""
        if not neg:
            if pos:
                yield from _window_block(weights, pos, 0, 0, lo, hi, hi, [0] * n)
            elif lo <= 0 <= hi:
                yield (0,) * n, 0
            return
        if len(pos) > 1:
            raise AlgebraError(
                "graded components over rings with several positive-weight and "
                "some negative-weight variables are not finite in general")
        # pure positive-block monomials
        if pos:
            i = pos[0]
            w = weights[i]
            for a in range(max(-(-lo // w), 0), hi // w + 1):
                e = [0] * n
                e[i] = a
                yield tuple(e), a * w
        # positive-block degree cap for monomials that use an inverse
        # variable: every inverse variable t_j has a leading monomial
        # t_j * m_j, so a positive exponent >= deg(m_j) together with t_j >= 1
        # is reducible
        cap = 0
        for lm in lms:
            if any(lm[j] for j in neg):
                cap = max(cap, sum(lm[i] for i in pos))
        # monomials with at least one inverse variable: the negative block
        # must contribute <= -1
        for a in (range(cap) if pos else [0]):
            base = [0] * n
            shift = 0
            if pos:
                base[pos[0]] = a
                shift = a * weights[pos[0]]
            tlo, thi = lo - shift, min(hi - shift, -1)
            if tlo <= thi:
                for m, s in _window_block(weights, neg, 0, 0, tlo, thi, tlo, base):
                    yield m, shift + s

    if neg and not pos and lo <= 0 <= hi:
        # listed without the quotient test: in a ring of inverse variables
        # only the unit ideal could reduce 1
        yield (0,) * n, 0
    for m, k in candidates():
        if not any(mono_divides(lm, m) for lm in lms):
            yield m, k


def _window_block(weights, var_list, k, cur, tlo, thi, far, exps):
    """(exps, sum) for the completions of exps over var_list[k:] whose
    weighted sum, cur so far, lies in tlo..thi.

    All weights in var_list have one sign, so each variable is bounded by the
    budget left to the far end of the range.  A module-level generator: one
    nested in `iter_window` would reach itself through its closure cell and
    leave a reference cycle behind every window."""
    i = var_list[k]
    w = weights[i]
    last = k == len(var_list) - 1
    for e in range(max((far - cur) // w, -1) + 1):  # none when the sign cannot work out
        exps[i] = e
        s = cur + e * w
        if not last:
            yield from _window_block(weights, var_list, k + 1, s, tlo, thi, far, exps)
        elif tlo <= s <= thi:
            yield tuple(exps), s
    exps[i] = 0


def monomials_in_window(ring: PolyRing, lo: int, hi: int) -> dict:
    """{k: the quotient-normal-form monomials of weighted degree k} for every
    k in lo..hi, each list sorted by the ring's order (descending); see
    `iter_window`."""
    out = {k: [] for k in range(lo, hi + 1)}
    for m, k in iter_window(ring, lo, hi):
        out[k].append(m)
    for monos in out.values():
        if len(monos) > 1:
            monos.sort(key=ring.monomial_key, reverse=True)
    return out


def monomials_of_degree(ring: PolyRing, d: int) -> list:
    """All quotient-normal-form monomials of weighted degree d, sorted by the
    ring's order (descending): the one-degree window of `monomials_in_window`."""
    return monomials_in_window(ring, d, d)[d]
