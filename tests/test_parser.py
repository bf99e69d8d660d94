"""The expression grammar against plain RatFunc/AlgebraElement arithmetic,
its error messages, and the integer-monomial path of long sums."""

import itertools
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pqvirasoro import cli
from pqvirasoro.cli import ExpressionError, main, parse_expression
from pqvirasoro.field import P, Q, RatFunc, monomial
from pqvirasoro.freealg import AlgebraElement, C, L, T, TINV, t_degree, t_word

LETTERS = {"T": T, "Tinv": TINV, "C": C}

# ---------------------------------------------------------------------------
# expression trees: ("int", n), ("p",), ("q",), ("T",), ("Tinv",), ("C",),
# ("L", n), ("neg", x), ("add", x, y, sign), ("mul", x, y, sep),
# ("div", x, y) and ("pow", x, k, plus)

leaves = st.one_of(
    st.integers(0, 12).map(lambda n: ("int", n)),
    st.sampled_from([("p",), ("q",), ("T",), ("Tinv",), ("C",)]),
    st.integers(-3, 3).map(lambda n: ("L", n)),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("add"), children, children, st.sampled_from("+-")),
        st.tuples(st.just("mul"), children, children, st.sampled_from([" ", "*"])),
        st.tuples(st.just("div"), children, children),
        st.tuples(st.just("pow"), children, st.integers(-2, 3), st.sampled_from(["", "+"])),
    )


trees = st.recursive(leaves, _extend, max_leaves=8)

# the grammar level of a text: a sum or a signed term, a product, a power, an atom
EXPR, TERM, FACTOR, ATOM = range(4)


def _render(tree):
    """(text, level) of a tree, parenthesizing only where the grammar needs it."""
    kind = tree[0]
    if kind == "int":
        return str(tree[1]), ATOM
    if kind == "L":
        return f"L({tree[1]})", ATOM
    if kind == "neg":
        return "-" + _wrap(tree[1], TERM), EXPR
    if kind == "add":
        return f"{_wrap(tree[1], EXPR)} {tree[3]} {_wrap(tree[2], TERM)}", EXPR
    if kind == "mul":
        return _wrap(tree[1], TERM) + tree[3] + _wrap(tree[2], FACTOR), TERM
    if kind == "div":
        return f"{_wrap(tree[1], TERM)}/{_wrap(tree[2], FACTOR)}", TERM
    if kind == "pow":  # a written + only in front of a nonnegative exponent
        sign = tree[3] if tree[2] >= 0 else ""
        return f"{_wrap(tree[1], FACTOR)}^{sign}{tree[2]}", FACTOR
    return kind, ATOM


def _wrap(tree, level):
    text, at = _render(tree)
    return text if at >= level else f"({text})"


class Refused(Exception):
    """The message with which the parser must refuse a tree."""


def _scalar(x):
    return x.terms.keys() <= {()}


def _evaluate(tree):
    """The value of a tree by plain arithmetic, children left to right."""
    kind = tree[0]
    if kind == "int":
        return AlgebraElement({(): RatFunc(tree[1])})
    if kind in ("p", "q"):
        return AlgebraElement({(): P if kind == "p" else Q})
    if kind in LETTERS:
        return AlgebraElement.from_word((LETTERS[kind],))
    if kind == "L":
        return AlgebraElement.from_word((L(tree[1]),))
    x = _evaluate(tree[1])
    if kind == "neg":
        return -x
    if kind == "pow":
        return _evaluate_power(x, tree[2])
    y = _evaluate(tree[2])
    if kind == "add":
        return x + y if tree[3] == "+" else x - y
    if kind == "mul":
        return x * y
    if not _scalar(y):
        raise Refused("can only divide by a scalar coefficient")
    if y.is_zero():
        raise Refused("division by zero")
    return x.scale(y.coefficient(()).inverse())


def _evaluate_power(x, k):
    if k >= 0:
        out = AlgebraElement.unit()
        for _ in range(k):
            out = out * x
        return out
    if _scalar(x):
        if x.is_zero():
            raise Refused("division by zero")
        return AlgebraElement({(): x.coefficient(()) ** k})
    if len(x.terms) == 1:
        [(word, coeff)] = x.terms.items()
        if all(map(t_degree, word)):
            return AlgebraElement({t_word(sum(map(t_degree, word)) * k): coeff ** k})
        if C in word:
            raise Refused("exponent on C must be nonnegative")
    raise Refused("negative exponent requires an invertible factor")


def _word_bound(tree):
    """An upper bound on the words of a tree's value."""
    kind = tree[0]
    if kind == "neg":
        return _word_bound(tree[1])
    if kind == "add":
        return _word_bound(tree[1]) + _word_bound(tree[2])
    if kind in ("mul", "div"):
        return _word_bound(tree[1]) * _word_bound(tree[2])
    if kind == "pow":
        return _word_bound(tree[1]) ** max(tree[2], 1)
    return 1


@settings(max_examples=400)
@given(trees)
def test_parser_agrees_with_plain_arithmetic(tree):
    # the bound keeps the reference's repeated products small
    assume(_word_bound(tree) <= 500)
    src, _ = _render(tree)
    try:
        expected = _evaluate(tree)
    except Refused as refused:
        with pytest.raises(ExpressionError) as exc:
            parse_expression(src)
        assert str(exc.value) == f"{refused} (at position {exc.value.pos})"
        return
    assert parse_expression(src) == expected


def test_rendered_trees_read_back_as_drawn():
    tree = ("div", ("neg", ("mul", ("int", 2), ("pow", ("add", ("p",), ("T",), "-"), -2, "+"),
                            " ")), ("pow", ("q",), 2, "+"))
    assert _render(tree)[0] == "(-2 (p - T)^-2)/q^+2"
    # the power binds first, and a second power applies to the first
    assert _render(("pow", ("pow", ("L", -1), 2, ""), 3, ""))[0] == "L(-1)^2^3"
    assert parse_expression("L(-1)^2^3") == AlgebraElement.from_word((L(-1),) * 6)


# each message and position recorded before terms became integer monomials
REFUSED = [
    ("L(1)/L(2)", "can only divide by a scalar coefficient", 4),
    ("L(1)^-1", "negative exponent requires an invertible factor", 5),
    ("C^-1", "exponent on C must be nonnegative", 2),
    ("(C T)^-2", "exponent on C must be nonnegative", 6),
    ("(L(1) + L(2))^-2", "negative exponent requires an invertible factor", 14),
    ("1/0", "division by zero", 1),
    ("p/(q - q)", "division by zero", 1),
    ("L(1)/(0*L(2))", "division by zero", 4),
    ("(0*T)^-1", "division by zero", 6),
    ("(T Tinv L(1))^-1", "negative exponent requires an invertible factor", 14),
    ("T/(T + 1)", "can only divide by a scalar coefficient", 1),
    ("p/(L(1) + L(2))", "can only divide by a scalar coefficient", 1),
    ("2 L(1)/(q - q) + 1", "division by zero", 6),
    ("(p L(1)^2)^-3", "negative exponent requires an invertible factor", 11),
    ("L(1)^5000", "exponent 5000 is out of range: |k| <= 4096", 5),
    ("(2 C)^-1 L(1)", "exponent on C must be nonnegative", 6),
    ("q^2 (p + L(1))^-1", "negative exponent requires an invertible factor", 15),
    ("3 p/(2 q T)", "can only divide by a scalar coefficient", 3),
    ("(p^2 - p^2 + L(1))^-1", "negative exponent requires an invertible factor", 19),
    ("((p + q)/p^3 T C)^-1", "exponent on C must be nonnegative", 18),
    ("(1/(p + q) L(1) - L(1)/(p + q))^-1", "division by zero", 32),
    ("(T - T + 2)^-1 / (L(1) T)", "can only divide by a scalar coefficient", 15),
    ("-(q/p)^-2 (L(0) + C)^-1", "negative exponent requires an invertible factor", 21),
    # where a run of factors would span an int the grammar reads, or a ^
    ("L(1 p^2)", "expected ')', found 'p'", 4),
    ("L(-2*p)", "expected ')', found '*'", 4),
    ("3*p^2^x", "exponent must be an integer", 6),
    # past 4,096 only a word-free +-p^a q^b takes an exponent, up to degree 2^20
    ("2^999999999", "exponent 999999999 is out of range: |k| <= 4096", 2),
    ("L(1)^100000000", "exponent 100000000 is out of range: |k| <= 4096", 5),
    ("T^-999999999", "exponent -999999999 is out of range: |k| <= 4096", 2),
    ("p^1048577", "the power has degree over 1048576 in p or q", 2),
    ("(p/q^2)^-524289", "the power has degree over 1048576 in p or q", 8),
    # deep parentheses would exhaust the descent's stack, and a chain of
    # powers would square a number's bits at each ^
    ("(" * 201 + "1" + ")" * 201, "parentheses nest deeper than 200", 200),
    ("(" * 300 + "1" + ")" * 300, "parentheses nest deeper than 200", 200),
    ("2" + "^2" * 29, "the power's coefficient could have more than 1048576 bits", 40),
    ("(2 T)^-2" + "^2" * 29, "the power's coefficient could have more than 1048576 bits", 45),
    ("(p/3)" + "^2" * 29, "the power's coefficient could have more than 1048576 bits", 44),
    ("(5/7)^4096^128", "the power's coefficient could have more than 1048576 bits", 11),
    # a coefficient with p or q: its power's terms times the bits of each
    ("(p + q)" + "^2" * 13, "the power's coefficient could have more than 1048576 bits", 26),
    ("(1000 p + 999 q)^2000", "the power's coefficient could have more than 1048576 bits", 17),
    ("(p + q)^-1024", "the power's coefficient could have more than 1048576 bits", 8),
    ("(p + 2 q + 3)^100", "the power's coefficient could have more than 1048576 bits", 14),
    # a power of several words: before each product, its pairs of terms
    ("(T + 1000 p + 999 q)^400", "the power's coefficient could have more than 1048576 bits", 21),
    ("(T + 1000 p + 999 q)^800", "the power's coefficient could have more than 1048576 bits", 21),
]


@pytest.mark.parametrize("src, message, pos", REFUSED, ids=[src for src, _, _ in REFUSED])
def test_refused_expressions_keep_their_message_and_position(capsys, src, message, pos):
    with pytest.raises(ExpressionError) as exc:
        parse_expression(src)
    assert str(exc.value) == f"{message} (at position {pos})"
    assert exc.value.pos == pos
    assert main(["normalize", src]) == 2
    assert capsys.readouterr().err == f"error: {message} (at position {pos})\n"


def test_inputs_within_the_depth_and_bit_bounds_still_parse():
    one = AlgebraElement.from_word(())
    assert parse_expression("(" * 200 + "1" + ")" * 200) == one
    assert parse_expression("(" * 150 + "2 T" + ")" * 150) == 2 * AlgebraElement.from_word((T,))
    # 2^2^...^2 with 19 powers has 2^19 + 1 bits; a unit's powers grow nothing
    assert parse_expression("2" + "^2" * 19) == (2 ** 2 ** 19) * one
    assert parse_expression("(-1)^4096^4096 (1/1)^4096^4096") == one
    assert parse_expression("(5/7)^4096^64") == Fraction(5, 7) ** (4096 * 64) * one
    # the bound counts a power's terms, not its degree
    assert parse_expression("(p + q)^512") == (P + Q) ** 512 * one
    assert parse_expression("(p^64 + q)^64^2") == (P ** 64 + Q) ** 128 * one
    # 21 words whose coefficients hold 35k bits
    assert parse_expression("(T + 1000 p + 999 q)^20") == AlgebraElement({
        (T,) * j: math.comb(20, j) * (1000 * P + 999 * Q) ** (20 - j) for j in range(21)})


def test_a_sum_of_integer_monomials_adds_and_multiplies_no_ratfunc(monkeypatch):
    # 200 terms c*p^a*q^b*L(i) over 20 words: each word's monomials add as
    # ints, and its coefficient is built once
    rng = random.Random(19)
    parts, expected = [], AlgebraElement()
    for _ in range(200):
        c, i = rng.choice([-3, -2, -1, 1, 2, 3]), rng.randrange(20)
        a, b = rng.randint(-3, 4), rng.randint(-3, 4)
        parts.append(f"{'-' if c < 0 else '+'} {abs(c)}*p^{a}*q^{b}*L({i})")
        expected += AlgebraElement.from_word((L(i),), monomial(c, a, b))
    calls = []
    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        def spy(self, other, name=name, op=getattr(RatFunc, name)):
            calls.append(name)
            return op(self, other)
        monkeypatch.setattr(RatFunc, name, spy)
    x = parse_expression(" ".join(parts))
    monkeypatch.undo()
    assert calls == []
    assert x == expected and len(x.terms) == 20


# a sum of 300 one-letter words: its square has 90,000 words of 2 letters
SUM_300 = "(" + " + ".join(f"L({i})" for i in range(300)) + ")"


def test_the_power_of_a_sum_is_bounded_by_its_real_size(capsys):
    assert len(parse_expression("(L(1) + L(2))^16").terms) == 1 << 16
    message = f"the power has more than 65536 words (at position {len(SUM_300) + 1})"
    with pytest.raises(ExpressionError) as exc:
        parse_expression(SUM_300 + "^2")
    assert str(exc.value) == message
    assert main(["normalize", SUM_300 + "^2"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    # 2^100 would pass the bound, and the 101 words of the power do not
    x = parse_expression("(1 + T)^100")
    assert len(x.terms) == 101 and x.coefficient((T,) * 50) == RatFunc(math.comb(100, 50))


@pytest.mark.parametrize("text, pos", [
    # 2^17 words of 17 letters; (L(1) + L(2))^16 has exactly 2^20 letters
    ("(L(1) + L(2))^17", 14),
    # nested exponents multiply: 2^24 letters at the second ^, 2^36 at the third
    ("((T^4096)^4096)^4096", 10),
    ("L(1)^257^4096", 9),
    # about 2^31 letters at the 16th product, refused before the 7th
    ("(L(1)^4096 + L(2))^16", 19),
])
def test_a_power_past_the_letter_bound_is_refused_before_it_is_built(monkeypatch, text, pos):
    products = []

    def spy(self, other, op=AlgebraElement.__mul__):
        out = op(self, other)
        products.append(sum(map(len, out.terms)))
        return out

    monkeypatch.setattr(AlgebraElement, "__mul__", spy)
    with pytest.raises(ExpressionError) as exc:
        parse_expression(text)
    assert str(exc.value) == f"the power could have more than 1048576 letters (at position {pos})"
    assert all(n <= 1 << 20 for n in products)


def test_the_coefficient_bound_of_a_power_reads_sizes_in_place(monkeypatch):
    # (L(1) + L(2))^16 is every word of 16 letters L(1) and L(2), with
    # coefficient 1, and (T + 1000 p + 999 q)^400 is refused after the 44
    # products its coefficients' sizes allow, without copying a num or den
    words = itertools.product((L(1), L(2)), repeat=16)
    assert parse_expression("(L(1) + L(2))^16") == AlgebraElement({w: 1 for w in words})
    products = []

    def spy(self, other, op=AlgebraElement.__mul__):
        products.append(len(self.terms))
        return op(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", spy)
    monkeypatch.setattr(RatFunc, "num", property(lambda self: pytest.fail("num copied")))
    monkeypatch.setattr(RatFunc, "den", property(lambda self: pytest.fail("den copied")))
    with pytest.raises(ExpressionError) as exc:
        parse_expression("(T + 1000 p + 999 q)^400")
    assert str(exc.value) == (
        "the power's coefficient could have more than 1048576 bits (at position 21)")
    assert products == list(range(1, 45))


def test_a_power_past_the_word_bound_is_refused_before_a_larger_product(monkeypatch):
    # each product multiplies the running power by the base once, so none
    # has more than 65,536 x len(base) word pairs
    budget = []

    def spy(self, other, op=AlgebraElement.__mul__):
        assert len(self.terms) * len(other.terms) <= budget[0]
        return op(self, other)

    monkeypatch.setattr(AlgebraElement, "__mul__", spy)
    for text, base_words, pos, bound in (
            ("(L(1) + L(2))^32", 2, 14, "could have more than 1048576 letters"),
            ("(L(1) + L(2) + L(3))^16", 3, 21, "could have more than 1048576 letters"),
            (SUM_300 + "^3", 300, len(SUM_300) + 1, "has more than 65536 words")):
        budget[:] = [(1 << 16) * base_words]
        with pytest.raises(ExpressionError) as exc:
            parse_expression(text)
        assert str(exc.value) == f"the power {bound} (at position {pos})"


def test_powers_of_sums_equal_repeated_products():
    # every k up to 40 against a k-fold product, and words that do not commute
    for base, k_max in (("2 - p T + q^2/(3 p) T^2", 40), ("L(1) - p C + 1", 6)):
        expected, factor = AlgebraElement.unit(), parse_expression(base)
        for k in range(k_max + 1):
            assert parse_expression(f"({base})^{k}") == expected, (base, k)
            expected = expected * factor


# ---------------------------------------------------------------------------
# runs of factors as one token

def test_a_rendered_term_is_one_token_per_run_of_factors():
    kinds = [tok[0] for tok in cli._tokenize("-3*p^5*q^4*T^-2 L(-6)^3 C^2 + (p^2 - 7)/q^2")]
    assert kinds == ["-", "term", "+", "term", "/", "name", "^", "int", "end"]


@pytest.mark.parametrize("src, word, coeff", [
    ("(T)^2*p", (T, T), monomial(1, 1, 0)),
    ("L(1)/2*p^3", (L(1),), monomial(1, 3, 0) * RatFunc(2).inverse()),
    ("2*p^2^3", (), monomial(2, 6, 0)),
    ("3*p ^2", (), monomial(3, 2, 0)),
    ("T L(1)(p + q)", (T, L(1)), P + Q),
])
def test_a_run_of_factors_next_to_a_power_or_quotient_keeps_its_value(src, word, coeff):
    assert parse_expression(src) == AlgebraElement.from_word(word, coeff)


def test_rendered_powers_of_p_and_q_past_the_exponent_bound_read_back(capsys):
    for src in ("L(500) T^10", "L(5000) T"):
        assert main(["normalize", src]) == 0
        out = capsys.readouterr().out
        assert "^50" in out
        assert main(["normalize", out.rstrip("\n")]) == 0
        assert capsys.readouterr().out == out
    assert parse_expression("p^1048576") == AlgebraElement({(): monomial(1, 1 << 20, 0)})
    assert parse_expression("(-q/p)^-5001") == AlgebraElement({(): monomial(-1, 5001, -5001)})


def test_only_exponents_past_the_bound_are_checked_for_degree(capsys):
    # nested powers within 4,096 multiply past degree 2^20, as they always did
    assert parse_expression("(p^4096)^4096") == AlgebraElement({(): monomial(1, 1 << 24, 0)})
    # so a normal form of degree past 2^20 prints, but does not read back
    assert main(["normalize", "L(1000000) T^2"]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert out == "q^2000002/p^2000002*T^2 L(1000000)"
    assert main(["normalize", out]) == 2
    assert "the power has degree over 1048576 in p or q (at position 2)" in capsys.readouterr().err


def _outcome(src):
    try:
        return parse_expression(src)
    except ExpressionError as exc:
        return str(exc), exc.pos


# pieces that put a run of factors in every context: after ^, L( and /,
# each with or without a sign; before a ^ across spaces; next to words,
# underscores and non-ASCII digits; with exponents, indices and literals
# past what a run may hold; and with more factors than one run holds
PIECES = ["p", "q", "T", "C", "L", "L(", "(", ")", "Tinv", "T2", "x", "_", "\u0663", "\u00b2",
          "0", "2", "12", "999", "1000", "4097", "99999999", "L(268435456)", "9" * 20, "9" * 21,
          "9" * 4301, "*", "/", "^", "^-", "+", "-", " ", " ", "  ", "\t",
          "p^2", "q^3", "L(1)", "L(-2)", "T^-2", "C^2", " L(0)^2", "*p", "3*p", " ^2",
          "T^-10", "L(1)^12", " p q 2 T C L(3) p^2 q^2", "*p*q*2*T*C*L(3)*p^2*q^2"]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(PIECES), min_size=1, max_size=12))
def test_runs_of_factors_parse_as_their_fine_tokens_do(pieces):
    # the same text with no runs, each factor its own tokens, gives the same
    # element, or the same message at the same position
    src = "".join(pieces)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_TERM", re.compile("(?!)"))
        fine = _outcome(src)
    assert _outcome(src) == fine


# ---------------------------------------------------------------------------
# parenthesized sums of runs as one token

def _fine_outcome(src):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_TERM", re.compile("(?!)"))
        return _outcome(src)


def _sum_tokens(src):
    return [tok for tok in cli._tokenize(src) if tok[0] == "term" and src[tok[2]] == "("]


def test_a_parenthesized_sum_of_runs_is_one_token():
    src = "-((2*p^6*q + 5*p^4))*T^2 L(-5)^3 C"
    assert [tok[0] for tok in cli._tokenize(src)] == ["-", "(", "term", ")", "*", "term", "end"]
    assert [tok[2] for tok in _sum_tokens(src)] == [2]
    assert parse_expression(src) == AlgebraElement.from_word(
        (T, T) + (L(-5),) * 3 + (C,), -(2 * P ** 6 * Q + 5 * P ** 4))


def test_with_the_run_pattern_off_no_sum_is_one_token():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_TERM", re.compile("(?!)"))
        tokens = cli._tokenize("(p + q)*(L(1) + L(2))/(-T + 1)^2")
    assert "term" not in [tok[0] for tok in tokens]
    assert len(_sum_tokens("(p + q)*(L(1) + L(2))/(-T + 1)^2")) == 3


@pytest.mark.parametrize("src, outcome", [
    # the sum is the 201st level, refused where its ( opens
    ("(" * 200 + "(p + q)" + ")" * 200, ("parentheses nest deeper than 200 (at position 200)", 200)),
    ("(" * 199 + "(p + q)" + ")" * 199, AlgebraElement.from_word((), P + Q)),
    # no sum where L( opens an index
    ("L(1 + 2)", ("expected ')', found '+' (at position 4)", 4)),
    ("2^(1 + 1)", ("exponent must be an integer (at position 2)", 2)),
    ("x/(p + q)^2", ("unknown symbol 'x' (at position 0)", 0)),
    ("(p + q2)", ("unknown symbol 'q2' (at position 5)", 5)),
    ("(p + q", ("expected ')', found end of input (at position 6)", 6)),
])
def test_a_sum_token_gives_the_value_or_error_of_its_fine_tokens(src, outcome):
    assert _outcome(src) == _fine_outcome(src) == outcome


def test_where_a_sum_is_read_as_one_token():
    for src in ("(" * 200 + "(p + q)" + ")" * 200, "(" * 199 + "(p + q)" + ")" * 199,
                "2^(1 + 1)", "x/(p + q)^2"):
        assert len(_sum_tokens(src)) == 1, src
    for src in ("L(1 + 2)", "(p + q2)", "(p + q"):
        assert _sum_tokens(src) == [], src


SUM_PIECES = PIECES + ["(p + q)", "(2*p - 3)", "(-T + 1)", "(L(1) + L(2))", " + ", " - "]


@settings(max_examples=1000)
@given(st.lists(st.sampled_from(SUM_PIECES), min_size=1, max_size=12))
def test_sums_of_runs_parse_as_their_fine_tokens_do(pieces):
    src = "".join(pieces)
    assert _outcome(src) == _fine_outcome(src)


def _roundtrip_element():
    """100 terms shaped like a rendered parse_roundtrip element: numerators
    of 1 to 10 monomials of degree at most 8, every 20th coefficient over a
    polynomial den, each shifted by p^a q^b."""
    rng = random.Random(40)
    monomials = [(i, j) for i in range(9) for j in range(9 - i)]
    dens = [P + Q, P - Q, P ** 2 + Q ** 2, P ** 2 + P * Q + Q ** 2]
    terms = {}
    while len(terms) < 100:
        word = (t_word(rng.randint(-2, 2))
                + sum(((L(n),) * rng.randint(1, 3) for n in sorted(rng.sample(range(-6, 7), 3))), ())
                + (C,) * rng.randint(0, 2))
        num = RatFunc({m: rng.choice([-9, -4, -1, 1, 2, 7]) for m in rng.sample(monomials, rng.randint(1, 10))})
        coeff = num * monomial(1, rng.randint(-3, 3), rng.randint(-3, 3))
        terms[word] = coeff / rng.choice(dens) if len(terms) % 20 == 19 else coeff
    return AlgebraElement(terms)


def test_a_rendered_element_reads_one_token_per_parenthesized_sum():
    x = _roundtrip_element()
    src = str(x)
    sums = sum((num_terms > 1) + (den_terms > 1) for (num_terms, _), (den_terms, _) in
               (c.sizes() for c in x.terms.values()))
    assert sums >= 90
    assert len(_sum_tokens(src)) == sums
    # so every + and - left is one between terms, outside all parentheses
    depth = 0
    for kind, _, _ in cli._tokenize(src):
        depth += (kind == "(") - (kind == ")")
        assert depth == 0 or kind not in ("+", "-")
    assert parse_expression(src) == x
