"""The polynomial parser against the frozen `Poly`-product parser in
`parse_oracle`.

The present parser adds a term made only of integer literals and variable
powers to the sum as one (exps, coeff); every other term still goes through
`Poly` products.  On seeded expressions over QQ, GF(p) and quotient rings
both must return the same term dict, item for item in the same order, and on
malformed or out-of-bound input both must raise the same exception class with
the same message.

One divergence is intended: `(k mod p)` with a negative k.  The tokenizer
splits `-3` into `-` and `3`, so the oracle never takes its `(k mod p)`
branch for it and fails; the parser reads it as `BaseField.parse_coeff`
does.  The oracle is handed the same text with each such k replaced: by the
residue `parse_coeff` gives where the form is whole and its p is the field's,
by the residue mod p where p is another modulus, and by -k where the form is
broken (a p too long to read included), which the parser rejects for the
same reason whatever the sign.  A text the shared tokenizer rejects is
handed over as it is, since that error quotes the text.  A second, smaller
divergence: a `(k mod` at the end of the text is an AlgebraError, where the
oracle raises a TypeError from `int(None)`.
"""

import random
import re

import pytest

from idals import GF, QQ, PolyRing
from idals.errors import AlgebraError
from idals.polyring import MAX_EXPONENT, MAX_NESTING, _parse_poly, _tokenize

import parse_oracle as oracle

RINGS = {
    "QQ": PolyRing(QQ, ["x", "y", "z"]),
    "GF7": PolyRing(GF(7), ["x", "y", "z"]),
    "GF32003-lex": PolyRing(GF(32003), ["x", "y"], "lex"),
    "quotient-QQ": PolyRing(QQ, ["x", "y"], quotient=["x^2 - y - 1", "y^3"]),
    "quotient-GF5": PolyRing(GF(5), ["x", "y", "z"], quotient=["x*y - z", "z^2 + 2*x"]),
}


def outcome(parse, text, ring):
    try:
        return "ok", list(parse(text, ring).items())
    except Exception as exc:   # the class and message are what is compared
        return type(exc), str(exc)


# a whole `(-k mod p)` form, and the start `(-k mod` of any other, as the
# tokenizer reads them: `mod` a token of its own
NEGATIVE_MOD = re.compile(r"\(\s*-\s*(\d+)\s*mod\s+(\d+)\s*\)")
NEGATIVE_MOD_START = re.compile(r"\(\s*-\s*(\d+)\s*mod\b")


def oracle_text(text, ring):
    """text with each negative k of a `(k mod p)` form replaced as the
    module docstring says."""
    try:
        _tokenize(text)
    except AlgebraError:
        return text
    field = ring.field

    def residue(m):
        k, p = m.group(1), m.group(2)
        if len(p) > 4000:   # a p that int() refuses breaks the form
            return f"({k} mod {p})"
        p = int(p)
        if p == field.p:
            value = field.parse_coeff(f"(-{k} mod {p})")
            assert value == -int(k) % p
        else:
            value = -int(k) % p
        return f"({value} mod {p})"

    text = NEGATIVE_MOD.sub(residue, text)
    return NEGATIVE_MOD_START.sub(r"(\1 mod", text)


def assert_same(text, ring):
    new = outcome(_parse_poly, text, ring)
    old = outcome(oracle.parse_poly, oracle_text(text, ring), ring)
    assert new == old, text
    return new


def literal(rng):
    return str(rng.choice([0, 1, 1, 2, 3, 7, 10, 12, 123456789012345678901234567890]))


def atom(rng, ring, depth):
    roll = rng.random()
    if depth > 0 and roll < 0.15:
        return f"({expr(rng, ring, depth - 1)})"
    if depth > 0 and roll < 0.22:
        return "-" + atom(rng, ring, depth - 1)
    if roll < (0.27 if ring.field.p else 0.23):
        p = ring.field.p
        if not p or rng.random() < 0.2:
            p = rng.choice([3, 11])   # a modulus that does not match the field
        return f"({rng.choice([-3, 0, 2, 9])} mod {p})"
    if roll < 0.5:
        return literal(rng)
    return rng.choice(ring.variables)


def factor(rng, ring, depth):
    base = atom(rng, ring, depth)
    if rng.random() < 0.35:
        op = rng.choice(["^", "**", " ^ "])
        base += f"{op}{rng.choice([0, 1, 2, 3, 5])}"
    return base


def term(rng, ring, depth):
    out = factor(rng, ring, depth)
    for _ in range(rng.randint(0, 3)):
        out += rng.choice(["*", " * "]) + factor(rng, ring, depth)
    if rng.random() < 0.2:
        out += f"/{rng.choice([1, 2, 3, 4, 6])}"
    return out


def expr(rng, ring, depth=2):
    out = rng.choice(["", "", "-", "+", "- -"]) + term(rng, ring, depth)
    for _ in range(rng.randint(0, 4)):
        out += rng.choice([" + ", " - ", "+", "-", " + -"]) + term(rng, ring, depth)
    return out


@pytest.mark.parametrize("name", sorted(RINGS))
@pytest.mark.parametrize("seed", range(4))
def test_seeded_expressions_parse_alike(name, seed):
    ring = RINGS[name]
    rng = random.Random(f"{name}-{seed}")
    parsed = 0
    for _ in range(150):
        text = expr(rng, ring)
        parsed += assert_same(text, ring)[0] == "ok"
    assert parsed > 50


def monomial_terms(rng, ring):
    """Sums of terms that take the monomial path: literals and variable
    powers only."""
    terms = []
    for _ in range(rng.randint(1, 6)):
        parts = [literal(rng)] if rng.random() < 0.6 else []
        for v in rng.sample(ring.variables, rng.randint(0, len(ring.variables))):
            e = rng.choice(["", "^2", "**3", "^0", "^10"])
            parts.append(v + e)
        rng.shuffle(parts)
        terms.append("*".join(parts or ["1"]))
    return rng.choice(["", "-"]) + "".join(
        t if k == 0 else rng.choice([" + ", " - "]) + t for k, t in enumerate(terms))


@pytest.mark.parametrize("name", sorted(RINGS))
def test_monomial_sums_parse_alike(name):
    ring = RINGS[name]
    rng = random.Random(name)
    for _ in range(200):
        text = monomial_terms(rng, ring)
        assert assert_same(text, ring)[0] == "ok"
        # the same terms inside parentheses, multiplied and raised
        assert_same(f"({text})*({text})", ring)
        assert_same(f"-({text})^2 + x*({text})", ring)


def mutate(rng, text):
    """text with a random edit at a random place."""
    i = rng.randrange(len(text) + 1)
    edit = rng.choice(["(", ")", "^", "**", "*", "+", "-", "/", "/0", "^101",
                       "^" + "9" * 5000, "9" * 5000, "w", "$", "mod", "^x", "/y", "", "  "])
    if rng.random() < 0.5 and text:
        return text[:i] + edit + text[i + 1:]
    return text[:i] + edit + text[i:]


@pytest.mark.parametrize("name", sorted(RINGS))
def test_malformed_input_fails_alike(name):
    ring = RINGS[name]
    rng = random.Random(f"malformed-{name}")
    failed = 0
    for _ in range(300):
        text = mutate(rng, rng.choice([expr(rng, ring, 1), monomial_terms(rng, ring)]))
        failed += assert_same(text, ring)[0] != "ok"
    assert failed > 100


@pytest.mark.parametrize("name", sorted(RINGS))
def test_bounds_fail_alike(name):
    ring = RINGS[name]
    v = ring.variables[0]
    deep = MAX_NESTING - 1
    texts = [
        "",
        "x +",
        f"{v}^{MAX_EXPONENT}",
        f"{v}^{MAX_EXPONENT + 1}",
        f"2*{v}^000{MAX_EXPONENT}",
        f"{v}**3000 + 1",
        f"3*{v}^" + "9" * 5000,
        "9" * 5000 + f"*{v}",
        f"{v}/0",
        f"(2 mod 7)*{v}",
        "(" * deep + v + ")" * deep,
        "(" * deep + f"2*{v}^2 + {v}" + ")" * deep,
        "(" * MAX_NESTING + v + ")" * MAX_NESTING,
        "(" * MAX_NESTING + f"3*{v}*{v}" + ")" * MAX_NESTING,
        "-" * deep + v,
        "1 + " + "-" * MAX_NESTING + v,
        f"({v} + 1)^30 * ({v} + 2)^30",
        f"(x + {v} + 1)^60",
        f"(({v} + 1)^100)^100",
        f"{v}*{v} )",
        f"{v} {v}",
    ]
    for text in texts:
        assert_same(text, ring)


@pytest.mark.parametrize("p", [5, 7, 32003])
def test_negative_k_mod_p_reads_as_parse_coeff(p):
    field = GF(p)
    ring = PolyRing(field, ["x", "y"])
    for k in (-1, -3, -p, -p - 2, -10 ** 30):
        form = f"({k} mod {p})"
        c = field.parse_coeff(form)
        assert c == k % p
        assert ring.poly(f"{form}*x") == ring.monomial((1, 0), c)
        assert ring.poly(f"y - {form}") == ring.var("y") - ring.constant(c)
        assert ring.poly(f"( - {-k} mod {p})^2") == ring.constant(c * c)
        # the intended divergence: the frozen oracle reads no negative k
        with pytest.raises(AlgebraError, match="unbalanced parentheses"):
            oracle.parse_poly(f"{form}*x", ring)
    other = 3 if p != 3 else 5
    for text, fld in ((f"(-3 mod {other})*x", field), (f"(-3 mod {p})", QQ)):
        with pytest.raises(AlgebraError, match=r"\(k mod \d+\) coefficient in ring over"):
            _parse_poly(text, PolyRing(fld, ["x"]))


def test_k_mod_cut_short_is_an_algebra_error():
    ring = RINGS["GF7"]
    for text in ("(3 mod", "x + (-3 mod", "(3 mod 7", "(-3 mod 7 + x)"):
        with pytest.raises(AlgebraError, match=r"unclosed \(k mod p\) coefficient"):
            _parse_poly(text, ring)
    with pytest.raises(TypeError):   # the oracle's behaviour, kept frozen
        oracle.parse_poly("(3 mod", ring)
