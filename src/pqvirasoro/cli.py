"""Command-line front end.

Verbs:
    normalize EXPR      rewrite an expression to its normal form
    bracket N M         the bracket environment element B(n, m)
    verify              run a verification suite, one JSON record per line
    table               export structure constants or the Hopf generator maps
    fock                dump truncated oscillator matrices and residuals

Expressions use the letters T, Tinv, C, L(n), integer and p,q rational
coefficients, with juxtaposition or * for products, ^ for powers, and
parentheses. Negative powers are only meaningful on T and on scalar
coefficients; a zero to a negative power is a division by zero.

The tokenizer reads a run of factors such as 3*p^5*q^4 T^-2 L(-6)^3 as
one token of cached value, but no run after / or where the grammar reads
an int, nor before a ^. It reads a parenthesized sum of two or more runs,
such as (7*p^9*q^4 - p^8*q^5 + 3), as one token too: an atom that counts
as one level of parentheses, may follow / and precede ^, is not read as
the ( after L, and whose value the parser's own summation of a sum adds
up, uncached. The parser reads a product of numbers, p, q and
letters as one integer monomial c * p^a * q^b * w: c stays an int until
a factor is a general scalar such as a parenthesized sum, and a value
becomes an AlgebraElement only when it has several words. A sum adds the
int monomials of each word into one {(a, b): c} map and builds one
RatFunc per word at the end, so parsing is linear in the number of
terms. A power of several words may have at most 65,536 words, and no
power may have more than 2^20 letters over all its words, which is
checked before each product. Only a word-free +-p^a q^b takes an
exponent past 4,096, and then only up to degree 2^20. The coefficient
of a power may have at most 2^20 bits over all its terms, a bound taken
before the power is: the bits of an int base times |k|, and for a base
with p or q its power's terms times the bits of each. A power of several
words takes it before each product, over its pairs of coefficients: the
product of their terms times the sum of their bits. Parentheses nest at
most 200 deep.

Verification records are JSON lines with a stable field order; the
process exits 0 when every gated record is ok, 1 when some gated
residual is nonzero, and 2 on usage errors. Variant modes (the printed
coproduct of C, the alternative C-commutation form) are reported but
excluded from gating unless requested.
"""

import argparse
import json
import random
import re
import sys
from functools import lru_cache, reduce
from math import comb

from .field import RatFunc, accumulate, monomial
from .freealg import (
    AlgebraElement,
    DEFAULT_CONFIG,
    Presentation,
    L,
    T,
    TINV,
    C,
    bracket_env,
    normalize,
    random_word,
    RELATION_NAMES,
    central_coeff,
    t_degree,
    t_word,
    word_str,
)
from . import homlie
from . import hopf as hopfmod
from . import oscillator as osc


class ExpressionError(ValueError):
    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_SYMBOLS = set("+-*/^()")

# largest |k| accepted in x^k: the power of a word is a word k times as long
_MAX_EXPONENT = 4096

# the most parentheses open at once: each level takes four frames of the descent
_MAX_DEPTH = 200
_TOO_DEEP = f"parentheses nest deeper than {_MAX_DEPTH}"


# a run of at most 16 factors that the descent reads as one term, joined by *
# or single spaces, ending neither in a word nor before a ^: ints, p^a, q^b,
# L(n)^k, C^k and T^k (k < 0 only on T) in ASCII digits too few to reach a
# bound of int(), a or n; one-digit k keeps a cached run's word short
_FACTOR = r"(?:[0-9]{1,20}|[pq](?:\^[0-9]{1,3})?|(?:C|L\(-?[0-9]{1,8}\))(?:\^[0-9])?|T(?:\^-?[0-9])?)"
_RUN = rf"{_FACTOR}(?:[* ]{_FACTOR}){{0,15}}"
# or a parenthesized sum of two or more runs, the first with an optional -,
# joined by " + " or " - ", as a rendered numerator is: one atom
_TERM = re.compile(rf"\(-?{_RUN}(?: [+-] {_RUN})+\)|{_RUN}(?!\w|\s*\^)")
_SIGN = re.compile(" ([+-]) ")


def _fine_token(src, i, tokens):
    """Append the token that starts at src[i], not a space; return its end."""
    ch = src[i]
    if ch in _SYMBOLS:
        tokens.append((ch, ch, i))
        return i + 1
    # isdecimal accepts exactly the digits int() reads, such as '٣' but not '²'
    if ch.isdecimal():
        j = i
        while j < len(src) and src[j].isdecimal():
            j += 1
        try:
            value = int(src[i:j])
        except ValueError:  # longer than sys.get_int_max_str_digits()
            raise ExpressionError(
                f"integer literal of {j - i} digits is too long: at most "
                f"{sys.get_int_max_str_digits()} digits", i) from None
        tokens.append(("int", value, i))
        return j
    if ch.isalpha():
        j = i
        while j < len(src) and src[j].isalnum():
            j += 1
        tokens.append(("name", src[i:j], i))
        return j
    raise ExpressionError(f"unexpected character {ch!r}", i)


def _tokenize(src):
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        if src[i].isspace():
            i += 1
            continue
        m = _TERM.match(src, i)
        if m:
            text = m[0]
            if text[0] == "(":
                # a sum is one atom, read anywhere but as the ( of L(n)
                if not tokens or tokens[-1][:2] != ("name", "L"):
                    tokens.append(("term", _sum_value(text), i))
                    i = m.end()
                    continue
            elif not text.isdecimal():  # a bare int stays an int token
                # no run after /, which takes one factor, nor where an int goes: after ^ or L(, signed or not
                last = [tok[1] for tok in tokens[-3:]]
                last = last[:-1] if last[-1:] in (["+"], ["-"]) else last
                if last[-1:] not in (["/"], ["^"]) and last[-2:] != ["L", "("]:
                    tokens.append(("term", _term_value(text), i))
                    i = m.end()
                    continue
        i = _fine_token(src, i, tokens)
    tokens.append(("end", None, n))
    return tokens


@lru_cache(maxsize=1 << 12)
def _term_value(run):
    """The term that the descent reads from a run, cached as runs and factors recur."""
    factors = run.replace("*", " ").split(" ")
    if len(factors) > 1:
        return reduce(_mul, map(_term_value, factors))
    tokens = []
    i = 0
    while i < len(run):
        i = _fine_token(run, i, tokens)
    tokens.append(("end", None, i))
    return _Parser(run, tokens).factor()


def _sum_value(text):
    """The value of a sum token, its runs added as the descent adds them."""
    negate = text[1] == "-"
    parts = _SIGN.split(text[1 + negate:-1])
    signs = ["-" if negate else "+"] + parts[1::2]
    return _sum([_neg(_term_value(run)) if sign == "-" else _term_value(run)
                 for sign, run in zip(signs, parts[::2])])


def _describe(tok, src):
    """A token as an error message names it, a run or sum by its first fine token."""
    if tok[0] == "term":
        _fine_token(src, tok[2], first := [])
        tok = first[0]
    return "end of input" if tok[0] == "end" else repr(tok[1])


# a term is (c, a, b, w): the product c * p^a * q^b * w of an int or RatFunc
# c and a word w; a term of c = 0 is always _ZERO, so a scalar is a term of
# the empty word
_ZERO = (0, 0, 0, ())
_NAMES = {"p": (1, 1, 0, ()), "q": (1, 0, 1, ()), "T": (1, 0, 0, (T,)),
          "Tinv": (1, 0, 0, (TINV,)), "C": (1, 0, 0, (C,))}

# the most words that a power of a sum of several words may have
_MAX_POWER_WORDS = 1 << 16

# the most letters, summed over its words, that a power may have: nested
# powers multiply their exponents past what _MAX_EXPONENT bounds; also the
# highest degree in p or q of a power of +-p^a q^b past _MAX_EXPONENT, and
# the most bits, summed over its terms, of the coefficient of a power
_MAX_POWER_LETTERS = 1 << 20
_TOO_LONG = f"the power could have more than {_MAX_POWER_LETTERS} letters"
_TOO_MANY_BITS = f"the power's coefficient could have more than {_MAX_POWER_LETTERS} bits"


def _power_bits(c, k):
    """A bound on the bits of c^k, summed over its terms, for a term
    coefficient c and k >= 0; 0 for a unit. An int's is its bits times k.
    A RatFunc takes the larger bound of its num and den: for a polynomial
    of t terms whose |coefficients| sum to s, each coefficient of its k-th
    power is at most s^k, and the power has at most comb(t + k - 1, k)
    terms, and at most as many as there are points (i + j, i - j) in k
    times the ranges of those of its terms (one row when homogeneous)."""
    if type(c) is int:
        return 0 if c in (1, -1) else c.bit_length() * k
    bits = 0
    for poly in (c.num, c.den):
        norm = sum(map(abs, poly.values()))
        if norm > 1:
            sums, diffs = [i + j for i, j in poly], [i - j for i, j in poly]
            terms = min(comb(len(poly) + k - 1, k),
                        (k * (max(sums) - min(sums)) + 1) * (k * (max(diffs) - min(diffs)) + 1))
            bits = max(bits, terms * norm.bit_length() * k)
    return bits


def _bit_sums(x):
    """Over the words of the element x, the sums of each coefficient's terms
    and of its terms times the bits of its |coefficients|' sum, taking the
    larger of its num's and den's for each."""
    terms = bits = 0
    for c in x.terms.values():
        (num_terms, num_norm), (den_terms, den_norm) = c.sizes()
        t = max(num_terms, den_terms)
        terms += t
        bits += t * max(num_norm, den_norm).bit_length()
    return terms, bits


def _rat(c):
    """A term coefficient as a RatFunc."""
    return monomial(c) if type(c) is int else c


def _times(c1, c2):
    """The product of two term coefficients; it stays an int while both are."""
    if type(c1) is int:
        return c1 * c2 if type(c2) is int else c2.times_monomial(c1, 0, 0)
    return c1.times_monomial(c2, 0, 0) if type(c2) is int else c1 * c2


def _element(x):
    """A parsed value as an AlgebraElement."""
    if type(x) is not tuple:
        return x
    c, a, b, w = x
    coeff = monomial(c, a, b) if type(c) is int else c.times_monomial(1, a, b)
    return AlgebraElement.from_clean({w: coeff} if c else {})


def _value(x):
    """An AlgebraElement as a parsed value: a term unless it has several words."""
    if len(x.terms) > 1:
        return x
    for w, coeff in x.terms.items():
        return (coeff, 0, 0, w)
    return _ZERO


def _mul(x, y):
    """The product of two parsed values; a term times a term stays one."""
    if type(x) is tuple and type(y) is tuple:
        c = _times(x[0], y[0])
        if not c:
            return _ZERO
        return (c, x[1] + y[1], x[2] + y[2], x[3] + y[3])
    return _value(_element(x) * _element(y))


def _neg(x):
    if type(x) is tuple:
        return (-x[0],) + x[1:]
    return -x


def _sum(values):
    """The sum of parsed values. Int-coefficient terms add into one
    {(a, b): c} map per word, which becomes one RatFunc at the end; other
    coefficients add as RatFuncs."""
    sums = {}
    terms = {}
    for value in values:
        if type(value) is tuple:
            c, a, b, w = value
            if type(c) is int:
                mono = sums.setdefault(w, {})
                mono[a, b] = mono.get((a, b), 0) + c
            else:
                accumulate(terms, w, c.times_monomial(1, a, b))
        else:
            for word, coeff in value.terms.items():
                accumulate(terms, word, coeff)
    for w, mono in sums.items():
        accumulate(terms, w, RatFunc(mono))
    return _value(AlgebraElement.from_clean(terms))


class _Parser:
    """Recursive descent over the tokens.  A parsed value is a term while
    it has at most one word, and an AlgebraElement of several words else."""

    def __init__(self, src, tokens):
        self.src = src
        self.tokens = tokens
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExpressionError(f"expected {kind!r}, found {_describe(tok, self.src)}", tok[2])
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(f"unexpected {_describe(tok, self.src)}", tok[2])
        return _element(value)

    def expr(self):
        kind = self.peek()[0]
        if kind in ("+", "-"):
            self.next()
        value = self.term()
        if self.peek()[0] not in ("+", "-"):
            return _neg(value) if kind == "-" else value
        return _sum(self._signed_terms(kind, value))

    def _signed_terms(self, kind, value):
        """Each term of a sum with its sign, from its first on, parsed as
        the sum consumes them."""
        while True:
            yield _neg(value) if kind == "-" else value
            kind = self.peek()[0]
            if kind not in ("+", "-"):
                return
            self.next()
            value = self.term()

    def term(self):
        value = self.factor()
        while True:
            kind, _, pos = self.peek()
            if kind == "*":
                self.next()
                value = _mul(value, self.factor())
            elif kind == "/":
                self.next()
                d = self.factor()
                if type(d) is not tuple or d[3]:
                    raise ExpressionError("can only divide by a scalar coefficient", pos)
                c, a, b, _ = d
                if not c:
                    raise ExpressionError("division by zero", pos)
                if c not in (1, -1):
                    c = _rat(c).inverse()
                value = _mul(value, (c, -a, -b, ()))
            elif kind in ("term", "int", "name", "("):
                value = _mul(value, self.factor())
            else:
                return value

    def factor(self):
        value = self.atom()
        while self.peek()[0] == "^":
            self.next()
            value = self._power(value)
        return value

    def _signed_int(self, what):
        sign = 1
        if self.peek()[0] in ("+", "-"):
            sign = -1 if self.next()[0] == "-" else 1
        tok = self.next()
        if tok[0] != "int":
            raise ExpressionError(f"{what} must be an integer", tok[2])
        return sign * tok[1]

    def _power(self, value):
        kind, _, pos = self.peek()
        k = self._signed_int("exponent")
        if abs(k) > _MAX_EXPONENT:
            # a word-free +-p^a q^b grows no word: only its degrees bound k
            if type(value) is not tuple or value[0] not in (1, -1) or value[3]:
                raise ExpressionError(f"exponent {k} is out of range: |k| <= {_MAX_EXPONENT}", pos)
            if max(map(abs, value[1:3])) * abs(k) > _MAX_POWER_LETTERS:
                raise ExpressionError(
                    f"the power has degree over {_MAX_POWER_LETTERS} in p or q", pos)
        if type(value) is tuple:
            c, a, b, w = value
            if len(w) * abs(k) > _MAX_POWER_LETTERS:
                raise ExpressionError(_TOO_LONG, pos)
            # a chain of powers would square a coefficient's size at each ^
            if _power_bits(c, abs(k)) > _MAX_POWER_LETTERS:
                raise ExpressionError(_TOO_MANY_BITS, pos)
            if k >= 0:  # _ZERO^0 is 1
                return (c ** k, a * k, b * k, w * k)
            if not c:
                raise ExpressionError("division by zero", pos)
            if all(map(t_degree, w)):
                # a unit stays as it is: (+-1)^k = (+-1)^-k
                c = c ** -k if c in (1, -1) else _rat(c) ** k
                return (c, a * k, b * k, t_word(sum(map(t_degree, w)) * k))
            if C in w:
                raise ExpressionError("exponent on C must be nonnegative", pos)
        elif k >= 0:
            out = AlgebraElement.unit()
            words, letters = len(value.terms), sum(map(len, value.terms))
            terms, bits = _bit_sums(value)
            for _ in range(k):
                # each word of the product is one of out's and one of value's
                if (words * sum(map(len, out.terms)) + len(out.terms) * letters
                        > _MAX_POWER_LETTERS):
                    raise ExpressionError(_TOO_LONG, pos)
                # so each coefficient is a sum of products of t1 t2 terms of b1 + b2 bits
                out_terms, out_bits = _bit_sums(out)
                if out_terms * bits + out_bits * terms > _MAX_POWER_LETTERS:
                    raise ExpressionError(_TOO_MANY_BITS, pos)
                out = out * value
                if len(out.terms) > _MAX_POWER_WORDS:
                    raise ExpressionError(
                        f"the power has more than {_MAX_POWER_WORDS} words", pos)
            return _value(out)
        raise ExpressionError("negative exponent requires an invertible factor", pos)

    def atom(self):
        tok = self.next()
        kind, val, pos = tok
        if kind == "term":
            # a sum token is one level of parentheses
            if self.depth == _MAX_DEPTH and self.src[pos] == "(":
                raise ExpressionError(_TOO_DEEP, pos)
            return val
        if kind == "int":
            return (val, 0, 0, ())
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                raise ExpressionError(_TOO_DEEP, pos)
            self.depth += 1
            value = self.expr()
            self.expect(")")
            self.depth -= 1
            return value
        if kind == "name":
            if val in _NAMES:
                return _NAMES[val]
            if val == "L":
                self.expect("(")
                at = self.peek()[2]
                n = self._signed_int("index of L")
                try:
                    letter = L(n)
                except ValueError as exc:  # |n| past the letter bound
                    raise ExpressionError(str(exc), at) from None
                self.expect(")")
                return (1, 0, 0, (letter,))
            raise ExpressionError(f"unknown symbol {val!r}", pos)
        raise ExpressionError(f"unexpected {_describe(tok, self.src)}", pos)


def parse_expression(src):
    """Parse a textual expression into an (unnormalized) AlgebraElement."""
    return _Parser(src, _tokenize(src)).parse()


def render_element(x):
    return str(x)


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _variant_names(args):
    names = []
    if args.variant:
        names.append(args.variant)
    if args.strict_typos:
        names.append("strict-typos")
    return names


def _config(args):
    # the default presentation is the shared one, so that every call of
    # main in a process reads and fills one normal-form memo
    names = _variant_names(args)
    return Presentation(names) if names else DEFAULT_CONFIG


class _Report:
    """Collects records and tracks the gated pass/fail outcome."""

    def __init__(self, gate_variants=False, variants=()):
        self.records = []
        self.failed = False
        self.gate_variants = gate_variants
        self.variants = list(variants)

    def add(self, suite, check, ok, residual=None, **params):
        gated = not self.variants or self.gate_variants
        fields = {"suite": suite, "check": check}
        fields.update(params)
        if self.variants:
            fields["variants"] = self.variants
        fields["status"] = "ok" if ok else "fail"
        fields["gated"] = gated
        if not ok and residual is not None:
            fields["residual"] = str(residual)
        self.records.append(fields)
        if not ok and gated:
            self.failed = True

    def summary_lines(self, suites):
        """One line per suite: its record count and the checks that failed."""
        lines = []
        for suite in suites:
            records = [r for r in self.records if r["suite"] == suite]
            failures = [r for r in records if r["status"] == "fail"]
            checks = sorted({r["check"] for r in failures})
            summary = f"{len(failures)} failing ({', '.join(checks)})" if failures else "all ok"
            lines.append(f"{suite:11s} {len(records):5d} records  {summary}")
        return lines


def _suite_fock(report, window, dim):
    for mode in ("one_param", "two_param"):
        o = osc.make_oscillator(dim, mode)
        for n in range(1, min(6, dim - 2) + 1):
            res = osc.verify_power_commutator(n, o)
            report.add("fock", "power_commutator", res.is_zero(), res, mode=mode, n=n, dim=dim)
        top = min(window, dim // 3)
        for n in range(-1, top + 1):
            for m in range(-1, top + 1):
                res = osc.verify_bracket(n, m, o)
                report.add("fock", "bracket", res.is_zero(), res, mode=mode, n=n, m=m, dim=dim)
    for mode in osc.MODES:
        ok = all(
            osc.lowering_coeff(k, mode) == osc.lowering_coeff_iterative(k, mode)
            for k in range(31)
        )
        report.add("fock", "lowering_oracle", ok, mode=mode, k_max=30)


def _suite_homlie(report, window):
    for n in range(-window, window + 1):
        for m in range(-window, window + 1):
            res = homlie.skew_residual(n, m)
            report.add("homlie", "skew", res.is_zero(), res, n=n, m=m)
    jwin = min(window, 5)
    bad = []
    for n in range(-jwin, jwin + 1):
        for m in range(-jwin, jwin + 1):
            for k in range(-jwin, jwin + 1):
                res = homlie.hom_jacobi_residual(n, m, k)
                if not res.is_zero():
                    bad.append((n, m, k, str(res)))
    report.add(
        "homlie", "hom_jacobi", not bad,
        residual="; ".join(f"{t[:3]}: {t[3]}" for t in bad[:3]) if bad else None,
        window=jwin, triples=(2 * jwin + 1) ** 3,
    )
    for n in range(1, 11):
        ok = central_coeff(-n) == -central_coeff(n)
        report.add("homlie", "central_reflection", ok, n=n)
    gap = homlie.alpha_bracket_gap(1, 2)
    report.add(
        "homlie", "twist_not_bracket_map", not gap.is_zero(),
        residual="unexpectedly multiplicative" if gap.is_zero() else None,
        n=1, m=2, gap=str(gap),
    )


def _hopf_axioms(report, x, label, cfg):
    """The coassociativity, counit and antipode records of x, in that order."""
    res = hopfmod.check_coassoc(x, cfg)
    report.add("hopf", "coassoc", res.is_zero(), res, x=label)
    for check, fn in (("counit", hopfmod.check_counit), ("antipode", hopfmod.check_antipode)):
        r1, r2 = fn(x, cfg)
        report.add("hopf", check, r1.is_zero() and r2.is_zero(),
                   r1 if not r1.is_zero() else r2, x=label)


def _suite_hopf(report, window, cfg):
    gens = hopfmod.generators(window)
    for name, g in gens:
        _hopf_axioms(report, g, name, cfg)
        res = hopfmod.cocommutativity_residual(g, cfg)
        report.add("hopf", "cocommutative", res.is_zero(), res, x=name)
    for name1, g1 in gens:
        for name2, g2 in gens:
            _hopf_axioms(report, g1 * g2, f"{name1}*{name2}", cfg)
    for mapname in ("delta", "antipode", "counit"):
        for rel in RELATION_NAMES:
            for n in range(-window, window + 1):
                for m in range(-window, window + 1):
                    residuals = hopfmod.check_relation_preservation(mapname, rel, n, m, cfg)
                    bad = [r for r in residuals if not r.is_zero()]
                    report.add(
                        "hopf", f"{mapname}_preserves_{rel}", not bad,
                        bad[0] if bad else None, n=n, m=m,
                    )
    for name, g in gens:
        res = hopfmod.antipode_squared(g, cfg)
        report.add("hopf", "antipode_squared", res.is_zero(), res, x=name)


def _suite_confluence(report, seed, count, cfg):
    rng = random.Random(seed)
    mismatches = 0
    for idx in range(count):
        word = random_word(rng, max_len=12, index_range=(-6, 6))
        x = AlgebraElement.from_word(word)
        a = normalize(x, cfg, strategy="leftmost")
        b = normalize(x, cfg, strategy="rightmost")
        if a != b:
            mismatches += 1
            if mismatches <= 5:
                report.add(
                    "confluence", "strategy_agreement", False,
                    a - b, word=word_str(word), seed=seed, index=idx,
                )
    report.add(
        "confluence", "summary", mismatches == 0,
        None if mismatches == 0 else f"{mismatches}/{count} words disagree",
        seed=seed, words=count, mismatches=mismatches,
    )


def _cmd_verify(args):
    variants = _variant_names(args)
    report = _Report(gate_variants=args.gate_variants, variants=variants)
    cfg = _config(args)
    suites = [args.suite] if args.suite != "all" else ["fock", "homlie", "hopf", "confluence"]
    for suite in suites:
        if suite == "fock":
            _suite_fock(report, args.range, args.dim)
        elif suite == "homlie":
            _suite_homlie(report, args.range)
        elif suite == "hopf":
            _suite_hopf(report, args.range, cfg)
        elif suite == "confluence":
            _suite_confluence(report, args.seed, args.words, cfg)
    _emit([json.dumps(r) for r in report.records], args.out)
    for line in report.summary_lines(suites):
        print(line, file=sys.stderr)
    return 1 if report.failed else 0


def _structure_constants_lines(window, fmt):
    lines = []
    for n in range(-window, window + 1):
        for m in range(-window, window + 1):
            env = bracket_env(n, m)
            if fmt == "json":
                lines.append(json.dumps(
                    {"n": n, "m": m, "coeff_L": str(env.coefficient((L(n + m),))),
                     "coeff_C": str(env.coefficient((C,)))}))
            else:
                ln, lm = (word_str((L(k),), latex=True) for k in (n, m))
                rhs = " + ".join(f"\\left({c.latex()}\\right){word_str(w, latex=True)}"
                                 for w, c in env.terms.items()) or "0"
                lines.append(f"  \\big[{ln},{lm}\\big] &= {rhs} \\\\")
    return lines


def _hopf_maps_lines(window, fmt, cfg):
    lines = []
    for name, g in hopfmod.generators(window):
        delta, eps, s = hopfmod.coproduct(g, cfg), hopfmod.counit(g), hopfmod.antipode(g, cfg)
        if fmt == "json":
            lines.append(json.dumps(
                {"generator": name, "delta": str(delta), "counit": str(eps), "antipode": str(s)}))
        else:
            gl = normalize(g, cfg).latex()
            lines.append(f"  \\Delta({gl}) &= {delta.latex()} \\\\")
            lines.append(f"  \\epsilon({gl}) &= {eps.latex()} \\\\")
            lines.append(f"  S({gl}) &= {s.latex()} \\\\")
    return lines


def _cmd_table(args):
    if args.kind == "hopf_maps":
        lines = _hopf_maps_lines(args.range, args.format, _config(args))
    else:
        # the structure constants depend on neither the rewrite rules nor delta(C)
        flag = "--variant" if args.variant else "--strict-typos" if args.strict_typos else None
        if flag:
            raise ValueError(f"table --kind structure_constants does not take {flag}")
        lines = _structure_constants_lines(args.range, args.format)
    if args.format == "latex":
        lines = ["\\begin{align*}"] + lines + ["\\end{align*}"]
    _emit(lines, args.out)
    return 0


def _emit_element(args, x, name, **fields):
    """Write x as text, as LaTeX, or as a JSON object of fields, x under
    name, and its term map."""
    if args.format == "json":
        fields[name] = render_element(x)
        fields["terms"] = {word_str(w): str(c) for w, c in x.sorted_terms()}
        line = json.dumps(fields)
    elif args.format == "latex":
        line = x.latex()
    else:
        line = render_element(x)
    _emit([line], args.out)
    return 0


def _cmd_normalize(args):
    nf = normalize(parse_expression(args.expr), _config(args))
    return _emit_element(args, nf, "normal_form", input=args.expr)


def _cmd_bracket(args):
    return _emit_element(args, bracket_env(args.n, args.m), "element", n=args.n, m=args.m)


def _cmd_fock(args):
    o = osc.make_oscillator(args.dim, args.mode)
    named = [("a", o.a), ("a_plus", o.a_plus)]
    for n in range(-1, min(args.range, args.dim - 2) + 1):
        named.append((f"L({n})", osc.make_L(n, o)))
    if args.format == "csv":
        lines = ["operator,row,col,entry"]
        for name, op in named:
            for (i, j) in sorted(op.entries):
                lines.append(f"{name},{i},{j},{op.entries[(i, j)]}")
    else:
        lines = []
        for name, op in named:
            entries = {f"{i},{j}": str(op.entries[(i, j)]) for (i, j) in sorted(op.entries)}
            lines.append(json.dumps({"operator": name, "dim": o.dim, "mode": o.mode, "entries": entries}))
    _emit(lines, args.out)
    return 0


def count(text):
    """argparse type of --range and --words: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pqvirasoro",
        description="symbolic toolkit for the two-parameter deformed Virasoro algebra",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, fmt_choices=("text", "json", "latex")):
        p.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def variant(p):
        p.add_argument("--variant", choices=["r5-8.11"], default=None,
                       help="use the alternative form of the C commutation relation")

    p = sub.add_parser("normalize", help="rewrite an expression to normal form")
    p.add_argument("expr")
    common(p)
    variant(p)
    p.set_defaults(fn=_cmd_normalize, strict_typos=False)

    p = sub.add_parser("bracket", help="bracket environment element B(n, m)")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    common(p)
    p.set_defaults(fn=_cmd_bracket)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=["fock", "homlie", "hopf", "confluence", "all"],
                   default="all")
    p.add_argument("--range", type=count, default=6, help="index window half-width")
    p.add_argument("--dim", type=int, default=20, help="Fock truncation dimension")
    p.add_argument("--seed", type=int, default=0, help="seed for random words")
    p.add_argument("--words", type=count, default=500, help="random words for the confluence suite")
    variant(p)
    p.add_argument("--strict-typos", action="store_true",
                   help="use the printed form of the coproduct of C")
    p.add_argument("--gate-variants", action="store_true",
                   help="let variant-mode records affect the exit status")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("table", help="export structure constants or Hopf maps")
    p.add_argument("--kind", choices=["structure_constants", "hopf_maps"],
                   default="structure_constants")
    p.add_argument("--range", type=count, default=3)
    common(p, fmt_choices=("json", "latex"))
    variant(p)
    p.add_argument("--strict-typos", action="store_true")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("fock", help="dump truncated oscillator matrices")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--range", type=count, default=3)
    p.add_argument("--mode", choices=list(osc.MODES), default="two_param")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_fock)

    return parser


def _expression_last(argv):
    """argv with a normalize expression that starts with "-" moved behind "--".

    argparse reads a token that starts with "-" as an option unless it
    follows "--", so ``normalize -q^5/p^5`` would be a usage error.
    normalize has no single-dash option but -h, so the first other token
    of the form -x is its expression, and its options still work.
    """
    if argv[:1] != ["normalize"] or "--" in argv:
        return argv
    for i, arg in enumerate(argv[1:], 1):
        if arg[:1] == "-" and arg[1:2] not in ("", "-") and arg != "-h":
            return argv[:i] + argv[i + 1:] + ["--", arg]
    return argv


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(_expression_last(sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.fn(args)
    except ValueError as exc:  # ExpressionError is one too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
