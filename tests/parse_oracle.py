"""Frozen copy of the polynomial parser from before monomial terms skipped
`Poly` products.

Test-only oracle for `test_parse_differential.py`: every factor here is its
own `Poly`, multiplied (and reduced modulo the quotient) one at a time, and
every `+` copies the growing sum.  The present `_Parser` must give the same
term dicts, and raise the same exception class with the same message on
malformed and out-of-bound input.  Do not optimise this file; its value is
that it stays as it was.
"""

from __future__ import annotations

from idals.errors import AlgebraError, VariableMismatchError
from idals.polyring import (MAX_EXPONENT, MAX_NESTING, MAX_PRODUCT_WORK, Poly, _int_literal,
                            _tokenize)


def bounded_product(a: Poly, b: Poly) -> Poly:
    if len(a.terms) * len(b.terms) > MAX_PRODUCT_WORK:
        raise AlgebraError(
            f"polynomial expansion too large: a product of {len(a.terms)} by "
            f"{len(b.terms)} terms exceeds {MAX_PRODUCT_WORK} term products")
    return a * b


def bounded_power(base: Poly, n: int) -> Poly:
    """Poly.__pow__'s square-and-multiply, with every product bounded."""
    result = base.ring.one()
    while n:
        if n & 1:
            result = bounded_product(result, base)
        base = bounded_product(base, base) if n > 1 else base
        n >>= 1
    return result


class Parser:
    """Recursive-descent parser over one token list.  The methods share the
    token index and the nesting depth through the instance, so a parse
    leaves no reference cycle behind."""

    __slots__ = ("tokens", "ring", "idx", "depth")

    def __init__(self, tokens: list, ring):
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
        sign = 1
        while self.peek() in ("+", "-"):
            if self.advance() == "-":
                sign = -sign
        node = self.term()
        if sign < 0:
            node = -node
        while self.peek() in ("+", "-"):
            op = self.advance()
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self) -> Poly:
        field = self.ring.field
        node = self.factor()
        while True:
            if self.peek() == "*":
                self.advance()
                node = bounded_product(node, self.factor())
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
            return bounded_power(base, int(exp))
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
            # either a parenthesized expression or the `(k mod p)` form
            nxt = tokens[self.idx]
            if nxt is not None and nxt.lstrip("-").isdigit() and tokens[self.idx + 1] == "mod":
                k = _int_literal(self.advance())
                self.advance()
                p = _int_literal(self.advance())
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


def parse_poly(text: str, ring) -> dict:
    """Recursive-descent parser for +, -, *, ^/** , parentheses, and the
    coefficient forms `num`, `num/den`, `(k mod p)`."""
    parser = Parser(_tokenize(text), ring)
    result = parser.expr()
    if parser.peek() is not None:
        raise AlgebraError(f"trailing input after polynomial: {parser.peek()!r}")
    return dict(result.terms)
