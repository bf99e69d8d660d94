"""Words in T, T^-1, L(n), C and the rewriting that reduces them to the
normal-form basis T^d L(n1)^k1 ... L(nm)^km C^e (T-powers collected on the
far left, L-indices strictly increasing, C-powers on the far right).

The oriented rules, applied to adjacent letter pairs:

    T T^-1 -> 1                        T^-1 T -> 1
    L(n) T^s -> p^{-s(n+1)} q^{s(n+1)} T^s L(n)        (s = +1 or -1)
    C T^s   -> (q/p)^s T^s C
    C L(n)  -> (q/p)^n L(n) C          [variant "r5-8.11": q^n L(n) C]
    L(n) L(m) -> q^{m-n} p^{n-m} L(m) L(n)
                 + p^n q^{-n} * bracket_env(n, m)      (n > m)

where bracket_env(n, m) carries the L(n+m) term and, when m == -n, the
central C term.  Each rule is a defining relation of ``relation_elements``
solved for its out-of-order word: R1, R2(n, s), R3(0, s), R5(n) and
R4(n, m), in the order above, so the r5-8.11 form of R5 is written only
there.  Each rule has one main term, whose coefficient is exactly
p^s q^t: the swap of R4, the moves of R2, R3 and R5, and R1's
cancellation.  Only R4 adds side terms, each one letter shorter.  The
main term either shortens the word, or keeps its length and swaps one
adjacent pair a > b into b a, which makes the word smaller as a tuple
of int letters.  Every rewrite thus lowers the word in length-then-
lexicographic order, and reduction terminates: the length never rises,
and while it stays fixed the letters only permute, so the word can fall
only finitely often.  Each rule is compiled once per letter pair into a
triple (shift, main, sides).  ``_reduce`` follows this order: it takes
words a length at a time, longest first and largest first within a
length, and rewrites each word in place along its main terms, summing
their exponents into one shift; side terms wait in the map of their own,
shorter length.  The system is not confluent: the two strategies reduce
some words to different normal forms, and the confluence suite counts
those words.

A letter is an int whose natural order is the normal-form letter order:
L(n) is the int n, for |n| < INDEX_BOUND (2^28), T and T^-1 are the
constants -INDEX_BOUND - 1 and -INDEX_BOUND below every index, and C is
the constant INDEX_BOUND above it.  A word is a tuple of such ints, so a
pair is a redex when its letters are out of order or are T T^-1, and
sorting letters puts them in basis order.

Each word's reduction is fixed by the word, the strategy and the
presentation, and normalization is linear, so ``normalize`` may take the
normal form of each word of an element from a memo and add them up.  The
memo's owner is the Presentation, and every caller of it shares the memo:
at most 2,048 words of at most 8 terms, so 16,384 terms.  A memo per call
would lose the 16,714 of the Hopf sweep's 34,725 lookups that hit a word
an earlier op stored, and make the sweep 9% slower.

Elements are immutable in spirit: all operations return fresh values.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby
from operator import index

from .field import ONE, ZERO, LinComb, accumulate, monomial, pq_ladder

__all__ = [
    "T",
    "TINV",
    "C",
    "L",
    "INDEX_BOUND",
    "t_degree",
    "t_word",
    "AlgebraElement",
    "NormalWord",
    "Presentation",
    "VARIANTS",
    "DEFAULT_CONFIG",
    "word_str",
    "word_sort_key",
    "find_redex",
    "rewrite_once",
    "normalize",
    "normal_pairs",
    "multiply",
    "bracket_coeff",
    "central_coeff",
    "twist_weight",
    "bracket_env",
    "basis_decompose",
    "random_word",
    "relation_elements",
    "RELATION_NAMES",
]


# letters: T < T^-1 < L(n) = n for every allowed n < C
INDEX_BOUND = 1 << 28  # every L index n has |n| < INDEX_BOUND
T = -INDEX_BOUND - 1
TINV = -INDEX_BOUND
C = INDEX_BOUND


def L(n):
    """The weight-n generator letter, the int n itself."""
    n = index(n)
    if -INDEX_BOUND < n < INDEX_BOUND:
        return n
    raise ValueError("L index %d is out of range: |n| < %d" % (n, INDEX_BOUND))


def t_degree(letter):
    """+1 for T, -1 for T^-1 and 0 for any other letter."""
    return 1 if letter == T else -1 if letter == TINV else 0


def t_word(m):
    """The word T^m as a letter tuple (empty for m = 0)."""
    if m >= 0:
        return (T,) * m
    return (TINV,) * (-m)


def word_sort_key(word):
    """Deterministic order: higher length first, then letter-wise."""
    return (-len(word), word)


# (T, L(n), power) notation: text first, then LaTeX
_NOTATION = (("T", "L(%d)", "^%d"), ("\\mathcal{T}", "L_{%d}", "^{%d}"))


def word_str(word, latex=False):
    """Render a word as text or LaTeX, merging runs of equal letters into
    powers (a run of T^-1 becomes a negative power of T)."""
    t_sym, l_fmt, power = _NOTATION[latex]
    parts = []
    count = 0
    last = len(word) - 1
    for i, letter in enumerate(word):
        count += 1
        if i < last and word[i + 1] == letter:
            continue
        if letter == T:
            base = t_sym
        elif letter == TINV:
            base, count = t_sym, -count
        elif letter == C:
            base = "C"
        else:
            base = l_fmt % letter
        parts.append(base if count == 1 else base + power % count)
        count = 0
    return " ".join(parts) or "1"


class AlgebraElement(LinComb):
    """Finite Q(p,q)-linear combination of words, as a term map."""

    __slots__ = ()
    _sort_key = staticmethod(word_sort_key)
    _key_str = staticmethod(word_str)

    @staticmethod
    def _paren(cs, coeff):
        # only polynomials of several terms are wrapped, so p/q*L(1) stays bare
        return coeff.is_laurent_polynomial() and not coeff.is_monomial()

    @classmethod
    def unit(cls):
        return cls({(): ONE})

    @classmethod
    def from_word(cls, word, coeff=ONE):
        return cls({tuple(word): coeff})

    def __mul__(self, other):
        # word concatenation, extended bilinearly; no rewriting happens here
        if not isinstance(other, AlgebraElement):
            return self.__rmul__(other)
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                accumulate(out, w1 + w2, c1 * c2)
        return AlgebraElement.from_clean(out)

    def coefficient(self, word):
        return self.terms.get(tuple(word), ZERO)


# ---------------------------------------------------------------------------
# structure coefficients
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def bracket_coeff(n, m):
    """Coefficient of L(n+m) in the environment bracket of L(n), L(m)."""
    n, m = L(n), L(m)
    return pq_ladder(m) - pq_ladder(n)


@lru_cache(maxsize=None)
def twist_weight(n):
    """The weight 1 + (q/p)^n by which the Hom-Lie twist scales L(n)."""
    n = L(n)
    return ONE + monomial(1, -n, n)


@lru_cache(maxsize=None)
def central_coeff(n):
    """Coefficient of C in the environment bracket of L(n), L(-n)."""
    n = L(n)
    return (monomial(1, n, -n) / (6 * twist_weight(n))) \
        * pq_ladder(n - 1) * pq_ladder(n) * pq_ladder(n + 1)


@lru_cache(maxsize=None)
def bracket_env(n, m):
    """Environment bracket of L(n) and L(m) as a normalized element:
    bracket_coeff(n,m) * L(n+m) plus, when m == -n, central_coeff(n) * C.
    Every index is checked before any coefficient is computed.
    """
    n, m = L(n), L(m)
    terms = {(L(n + m),): bracket_coeff(n, m)}
    if n + m == 0:
        terms[(C,)] = central_coeff(n)
    return AlgebraElement(terms)


# ---------------------------------------------------------------------------
# rewriting
# ---------------------------------------------------------------------------


# the named departures from the paper's conventions: "r5-8.11" writes R5 in
# the unweighted form of eq. 8.11, q^n L(n) C = C L(n), and "strict-typos"
# takes the printed coproduct delta(C) = C (x) 1 + 1 (x) T
VARIANTS = ("r5-8.11", "strict-typos")


# Bounds of a presentation's tables: the words each stores, and the terms
# of one entry (a larger entry is returned but not stored).
_MEMO_MAX_WORDS = 2048
_MEMO_ENTRY_MAX_TERMS = 8


class _Table(OrderedDict):
    """A bounded memo of per-word results, least recently used first."""

    __slots__ = ()

    def lookup(self, key, compute, *args):
        """The entry of key, or the items of the map compute(*args) as a
        tuple of pairs, stored if it has at most _MEMO_ENTRY_MAX_TERMS pairs;
        past _MEMO_MAX_WORDS entries the least recently used one is dropped."""
        pairs = self.get(key)
        if pairs is not None:
            self.move_to_end(key)
            return pairs
        pairs = tuple(compute(*args).items())
        if len(pairs) <= _MEMO_ENTRY_MAX_TERMS:
            self[key] = pairs
            if len(self) > _MEMO_MAX_WORDS:
                self.popitem(last=False)
        return pairs


@dataclass(frozen=True)
class Presentation:
    """The algebra's conventions: the set of VARIANTS it departs by, stored
    as a frozenset so that it can key the rule table.  Its tables of
    normal forms and of coproducts are not fields, so equality and hashing
    ignore them."""

    variants: frozenset = frozenset()

    def __post_init__(self):
        if isinstance(self.variants, str):
            raise TypeError("variants must be names, not the string %r" % (self.variants,))
        object.__setattr__(self, "variants", frozenset(self.variants))
        unknown = sorted(self.variants.difference(VARIANTS))
        if unknown:
            raise ValueError("unknown variant %s" % ", ".join(map(repr, unknown)))

    @cached_property
    def _memo(self):
        """(word, strategy) -> normal form of the word as a tuple of
        (word, coefficient) pairs."""
        return _Table()

    @cached_property
    def _coproducts(self):
        """word -> normalized coproduct of the word as a tuple of
        ((left, right), coefficient) pairs, filled by ``hopf``."""
        return _Table()


DEFAULT_CONFIG = Presentation()


def find_redex(word, strategy="leftmost", start=None):
    """Index of the redex pair the strategy meets first, or None.

    leftmost scans rightward and rightmost leftward from the pair at
    start, so the result is the first redex at or after start, or the
    last at or before it.  start defaults to the strategy's end of the
    word, and a start beyond that end is read as the end.
    """
    last = len(word) - 2
    if strategy == "leftmost":
        rng = range(0 if start is None or start < 0 else start, last + 1)
    elif strategy == "rightmost":
        rng = range(last if start is None or start > last else start, -1, -1)
    else:
        raise ValueError("unknown strategy %r" % (strategy,))
    for i in rng:
        # out of the normal-form letter order, or the T T^-1 pair that R1 cancels
        a, b = word[i], word[i + 1]
        if a > b or (a == T and b == TINV):
            return i
    return None


@lru_cache(maxsize=None)
def _rule(a, b, variants):
    """The rule a b -> p^s q^t * main + sides of the redex (a, b), compiled
    once per pair into the triple (shift, main, sides).

    The defining relation that contains the word (a, b), solved for it;
    its longest other term is main, two letters long (none for R1), of
    coefficient exactly p^s q^t with (s, t) = shift.  sides are R4's other
    terms as (coefficient, letters) pairs, each one letter long.
    """
    if t_degree(a):
        name, n, m = "R1", 0, 1
    elif t_degree(b):
        name, n, m = ("R3", 0, t_degree(b)) if a == C else ("R2", a, t_degree(b))
    elif a == C:
        name, n, m = "R5", b, 0
    else:
        name, n, m = "R4", a, b
    for rel in relation_elements(name, n, m, Presentation(variants)):
        if (a, b) in rel.terms:
            scale = -rel.terms[(a, b)].inverse()  # -1 / lead
            terms = [(c * scale, repl) for repl, c in rel.terms.items() if repl != (a, b)]
            coeff, main = max(terms, key=lambda term: len(term[1]))
            if coeff != monomial(1, *coeff.shift):
                raise ValueError("the rule for %s has main coefficient %s, not p^s q^t"
                                 % (word_str((a, b)), coeff))
            return coeff.shift, main, tuple(term for term in terms if term[1] != main)


def rewrite_once(word, strategy="leftmost", cfg=DEFAULT_CONFIG):
    """One rewrite step at the strategy's redex, or None if word is normal:
    the (coefficient, word) terms that replace word, its main term first."""
    i = find_redex(word, strategy)
    if i is None:
        return None
    shift, main, sides = _rule(word[i], word[i + 1], cfg.variants)
    head, tail = word[:i], word[i + 2:]
    return [(monomial(1, *shift), head + main + tail)] + \
        [(c, head + repl + tail) for c, repl in sides]


def _reduce(coeffs, cfg, strategy):
    """Reduction of the word -> coefficient map coeffs, a length at a time.

    Words are taken longest first, and the words of one length largest
    first as tuples.  A word taken is rewritten in place along the main
    terms of its rules, which sum into one shift, while the strategy's
    next redex is found by a scan that resumes at the last rewrite.  Each
    R4 side term, one letter shorter than its word, is added to the map of
    its own length, so every word has all of its coefficient before its
    length is taken.  A same-length step makes the word smaller as a
    tuple, so after an R4 step a word of this length not yet taken is met
    later in the order: the chain stops there and adds its coefficient to
    that word's.  Otherwise its normal end goes to the result.  Each
    distinct word taken is rewritten once.
    """
    variants = cfg.variants
    rightmost = strategy == "rightmost"
    levels = {}
    for word, coeff in coeffs.items():
        levels.setdefault(len(word), {})[word] = coeff
    result = {}
    while levels:
        level = levels.pop(max(levels))
        for word in sorted(level, reverse=True):
            coeff = level.pop(word, None)
            if coeff is None:  # cancelled by a chain that stopped at it
                continue
            i = find_redex(word, strategy)
            w, s, t = list(word), 0, 0
            while i is not None:
                (ds, dt), main, sides = _rule(w[i], w[i + 1], variants)
                if sides:
                    c = coeff.times_monomial(1, s, t)
                    head, tail = tuple(w[:i]), tuple(w[i + 2:])
                    shorter = levels.setdefault(len(w) - 1, {})
                    for c2, repl in sides:
                        accumulate(shorter, head + repl + tail, c * c2)
                s, t = s + ds, t + dt
                w[i:i + 2] = main
                if sides and tuple(w) in level:
                    accumulate(level, tuple(w), coeff.times_monomial(1, s, t))
                    break
                # no redex starts before i - 1 or after i + len(main) - 1
                i = find_redex(w, strategy, i + len(main) - 1 if rightmost else i - 1)
            else:
                accumulate(result, tuple(w), coeff.times_monomial(1, s, t))
    return result


def normalize(x, cfg=DEFAULT_CONFIG, strategy="leftmost"):
    """Rewrite x to the normal form the strategy reaches.

    The system is not confluent, so the normal form can depend on the
    strategy.  Each word is reduced by a fixed sequence of rewrite steps,
    chosen by the word, the strategy and the rule table of cfg.variants
    alone, so the reduction is a linear map and the normal form of x is
    the sum of c * NF(w) over its terms, the same value in Q(p, q) as
    reducing all of x at once.  Each word is reduced on its own, by
    ``normal_pairs``.  A normal word is its own normal form.  Any other
    word is a hit in cfg's memo, keyed by (word, strategy), or is reduced
    and stored if NF(w) has at most _MEMO_ENTRY_MAX_TERMS terms.  The memo
    keeps the _MEMO_MAX_WORDS (2,048) most recently used words, so at most
    16,384 terms.  It outlives the call: cleared before each of 8,325
    Hopf-sweep ops, it took them 0.95-0.96 s against 0.87-0.88 s.
    """
    terms = ((x, ONE),) if isinstance(x, tuple) else x.terms.items()
    result = {}
    for word, coeff in terms:
        for w, c in normal_pairs(word, cfg, strategy):
            accumulate(result, w, c if coeff is ONE else coeff * c)
    return AlgebraElement.from_clean(result)


def normal_pairs(word, cfg=DEFAULT_CONFIG, strategy="leftmost"):
    """The normal form of one word as (word, coefficient) pairs:
    ((word, ONE),) for a normal word, else cfg's memo entry, made on a miss
    and stored unless it has more than _MEMO_ENTRY_MAX_TERMS terms."""
    if find_redex(word, strategy) is None:
        return ((word, ONE),)
    return cfg._memo.lookup((word, strategy), _reduce, {word: ONE}, cfg, strategy)


def multiply(x, y, cfg=DEFAULT_CONFIG):
    """Product in the quantum group: concatenate bilinearly, then normalize."""
    return normalize(x * y, cfg)


def random_word(rng, max_len=12, index_range=(-6, 6)):
    """Random word over the full alphabet, for confluence sweeps."""
    lo, hi = index_range
    letters = [T, TINV, C] + [L(n) for n in range(lo, hi + 1)]
    length = rng.randint(1, max_len)
    return tuple(rng.choice(letters) for _ in range(length))


# ---------------------------------------------------------------------------
# the normal-form basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalWord:
    """Basis word T^t_exp L(n1)^k1 ... L(nm)^km C^c_exp.

    l_part is a tuple of (index, multiplicity) pairs with strictly
    increasing indices and positive multiplicities; c_exp >= 0.
    """

    t_exp: int = 0
    l_part: tuple = ()
    c_exp: int = 0

    def __post_init__(self):
        if self.c_exp < 0:
            raise ValueError("C exponent must be nonnegative")
        last = None
        for n, k in self.l_part:
            if k <= 0:
                raise ValueError("L multiplicities must be positive")
            if last is not None and n <= last:
                raise ValueError("L indices must be strictly increasing")
            last = n

    @classmethod
    def from_word(cls, word):
        """Parse a letter tuple that is already in normal form."""
        if find_redex(word) is not None:
            raise ValueError("word is not normal: %s" % word_str(word))
        t_exp = c_exp = 0
        l_part = []
        for letter, run in groupby(word):
            count = len(tuple(run))
            if t_degree(letter):
                t_exp = t_degree(letter) * count
            elif letter == C:
                c_exp = count
            else:
                l_part.append((letter, count))
        return cls(t_exp, tuple(l_part), c_exp)

    def word(self):
        return self.t_factor() + self.lc_factor()

    def t_factor(self):
        """The T^d tensor factor of the grouplike/enveloping factorization."""
        return t_word(self.t_exp)

    def lc_factor(self):
        """The L..C tensor factor of the factorization."""
        w = ()
        for n, k in self.l_part:
            w += (L(n),) * k
        return w + (C,) * self.c_exp

    def degree(self):
        return abs(self.t_exp) + sum(k for _, k in self.l_part) + self.c_exp

    def __str__(self):
        return word_str(self.word())


def basis_decompose(x):
    """Split a normalized element into (NormalWord, coefficient) pairs.

    Each NormalWord separates into its T-power factor and its L/C factor
    (``t_factor``/``lc_factor``), exhibiting the tensor factorization of
    the quantum group over its grouplike subalgebra.
    """
    out = []
    for w, c in x.sorted_terms():
        out.append((NormalWord.from_word(w), c))
    return out


# ---------------------------------------------------------------------------
# defining relations, as elements that must normalize to zero
# ---------------------------------------------------------------------------

RELATION_NAMES = ("R1", "R2", "R3", "R4", "R5")


def relation_elements(name, n=0, m=1, cfg=DEFAULT_CONFIG):
    """The defining relations as lhs - rhs elements.

    R1: T T^-1 = 1 = T^-1 T                      (no parameters)
    R2: T^m L(n) = p^{m(n+1)} q^{-m(n+1)} L(n) T^m
    R3: q^m T^m C = p^m C T^m
    R4: q^n p^-n L(n) L(m) - q^m p^-m L(m) L(n) = bracket_env(n, m)
    R5: q^n L(n) C = p^n C L(n)   [variant "r5-8.11": q^n L(n) C = C L(n)]
    """
    if name == "R1":
        unit = AlgebraElement.unit()
        return [AlgebraElement.from_word((T, TINV)) - unit,
                AlgebraElement.from_word((TINV, T)) - unit]
    if name == "R2":
        lhs = AlgebraElement.from_word(t_word(m) + (L(n),))
        rhs = AlgebraElement.from_word((L(n),) + t_word(m),
                                       monomial(1, m * (n + 1), -m * (n + 1)))
        return [lhs - rhs]
    if name == "R3":
        lhs = AlgebraElement.from_word(t_word(m) + (C,), monomial(1, 0, m))
        rhs = AlgebraElement.from_word((C,) + t_word(m), monomial(1, m, 0))
        return [lhs - rhs]
    if name == "R4":
        lhs = AlgebraElement({(L(n), L(m)): monomial(1, -n, n)}) \
            + AlgebraElement({(L(m), L(n)): -monomial(1, -m, m)})
        return [lhs - bracket_env(n, m)]
    if name == "R5":
        lhs = AlgebraElement.from_word((L(n), C), monomial(1, 0, n))
        weight = 0 if "r5-8.11" in cfg.variants else n
        return [lhs - AlgebraElement.from_word((C, L(n)), monomial(1, weight, 0))]
    raise ValueError("unknown relation %r" % (name,))
