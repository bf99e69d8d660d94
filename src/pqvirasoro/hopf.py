"""Hopf structure on the deformed enveloping algebra.

The coproduct, counit, and antipode are fixed on generators by

    delta(T) = T (x) T            (likewise for the inverse)
    delta(L_n) = L_n (x) T^n + T^n (x) L_n
    delta(C) = C (x) 1 + 1 (x) C
    eps(T) = eps(Tinv) = 1,  eps(L_n) = eps(C) = 0
    S(T^m) = T^(-m),  S(L_n) = -T^(-n) L_n T^(-n),  S(C) = -C

and extended to words multiplicatively (anti-multiplicatively for S).
One memoized table, ``_images``, holds each letter's delta and S images.
Tensor squares and cubes are linear combinations of slot tuples of
normal-form words; products are taken slotwise and re-normalized.

The maps work a word at a time on normal forms, which is exact because
reduction is linear.  ``normal_pairs`` gives a word's normal form from the
presentation's memo, so no slot word becomes an element of its own.  The
coproduct of a word, expanded letter by letter and normalized slotwise, is
computed once per presentation, in a table ``_coproducts`` with the memo's
bounds: at most 2,048 words, least recently used out first, and no entry
of more than 8 terms.  It holds 2,023 words in 2.2 MB after every op of
perfbench's hopf_sweep, and 2,048 words in 4.3 MB when full of the words
of up to 2 letters over T, T^-1, C and L(-24..24).  check_coassoc reads
its inner coproducts from the same table.  S(w) is normalized word by
word, by ``_scaled_antipode``, in antipode and in check_antipode, which
then normalizes each of its sides once, as one sum of concatenations.

The variant ``strict-typos`` of a Presentation takes the printed coproduct
delta(C) = C (x) 1 + 1 (x) T, which breaks the counit and antipode
axioms on C; it is kept purely to demonstrate that failure. The variant
``r5-8.11`` changes the C-commutation relation that every map normalizes
by, so that form can be explored as well.
"""

from functools import lru_cache
from itertools import product

from .field import ONE, ZERO, LinComb, accumulate
# multiply is unused here; it stays a name of this module because
# perfbench's tracer wraps hopf.multiply
from .freealg import (  # noqa: F401
    AlgebraElement,
    DEFAULT_CONFIG,
    C,
    L,
    T,
    TINV,
    multiply,
    normal_pairs,
    normalize,
    relation_elements,
    t_degree,
    t_word,
    word_sort_key,
    word_str,
)

class TensorElement(LinComb):
    """Linear combination of slot tuples of words (arity 2 or 3)."""

    __slots__ = ()

    def __init__(self, arity, terms=None):
        if arity not in (2, 3):
            raise ValueError("tensor arity must be 2 or 3")
        if terms and any(len(slots) != arity for slots in terms):
            raise ValueError("slot tuple length does not match arity")
        super().__init__(terms, arity)

    @property
    def arity(self):
        return self.shape

    @classmethod
    def zero(cls, arity=2):
        return cls(arity)

    @staticmethod
    def _sort_key(slots):
        return tuple(word_sort_key(w) for w in slots)

    @staticmethod
    def _key_str(slots, latex=False):
        return (" \\otimes " if latex else "(x)").join(word_str(w, latex) for w in slots)


def tensor_normalize(t, cfg=DEFAULT_CONFIG):
    """Normalize every slot word and redistribute the products."""
    out = {}
    for slots, coeff in t.terms.items():
        for choice in product(*[normal_pairs(w, cfg) for w in slots]):
            c = coeff
            for _, cw in choice:
                if cw is not ONE:
                    c = cw if c is ONE else c * cw
            accumulate(out, tuple(w for w, _ in choice), c)
    return TensorElement.from_clean(out, t.arity)


def tensor_multiply(x, y, cfg=DEFAULT_CONFIG):
    """Slotwise product of tensors, then slotwise normalization."""
    if x.arity != y.arity:
        raise ValueError("arity mismatch")
    raw = {}
    for s1, c1 in x.terms.items():
        for s2, c2 in y.terms.items():
            accumulate(raw, tuple(a + b for a, b in zip(s1, s2)), c1 * c2)
    return tensor_normalize(TensorElement.from_clean(raw, x.arity), cfg)


@lru_cache(maxsize=None)
def _images(letter, variants):
    """The Hopf images of one letter under the presentation of variants:
    delta(letter) as a tuple of (left word, right word) pairs, each with
    coefficient 1, and S(letter) as (sign, word)."""
    k = t_degree(letter)
    if k:
        return (((letter,), (letter,)),), (1, t_word(-k))
    if letter == C:
        # the printed coproduct has 1 (x) T where the corrected one has 1 (x) C
        right = T if "strict-typos" in variants else C
        return (((C,), ()), ((), (right,))), (-1, (C,))
    tn, conj = t_word(letter), t_word(-letter)
    return (((letter,), tn), (tn, (letter,))), (-1, conj + (letter,) + conj)


def coproduct(x, cfg=DEFAULT_CONFIG):
    """Algebra-map extension of the generator coproducts: the sum of
    c * delta(w) over the terms of x, each delta(w) read from cfg's table."""
    out = {}
    for word, coeff in x.terms.items():
        for slots, c in _word_coproduct(word, cfg):
            accumulate(out, slots, c if coeff is ONE else coeff * c)
    return TensorElement.from_clean(out, 2)


def _word_coproduct(word, cfg):
    """delta(word) with normal slots, as ((left, right), coefficient) pairs."""
    return cfg._coproducts.lookup(word, _expand_coproduct, word, cfg)


def _expand_coproduct(word, cfg):
    """delta(word), expanded letter by letter and then normalized slotwise."""
    out = {}
    for choice in product(*[_images(letter, cfg.variants)[0] for letter in word]):
        slots = (sum([u for u, _ in choice], ()), sum([v for _, v in choice], ()))
        accumulate(out, slots, ONE)
    return tensor_normalize(TensorElement.from_clean(out, 2), cfg).terms


def _is_t_power(word):
    return all(map(t_degree, word))


def counit(x):
    """Sum of the coefficients of the pure T-power words."""
    total = ZERO
    for word, coeff in x.terms.items():
        if _is_t_power(word):
            total = total + coeff
    return total


def antipode(x, cfg=DEFAULT_CONFIG):
    """Anti-homomorphic extension of the generator antipodes: the sum of
    c * S(w) over the terms of x, each S(w) in normal form."""
    out = {}
    for word, coeff in x.terms.items():
        for w, c in _scaled_antipode(word, coeff, cfg):
            accumulate(out, w, c)
    return AlgebraElement.from_clean(out)


def tau_swap(t):
    """Exchange the two slots of an arity-2 tensor."""
    if t.arity != 2:
        raise ValueError("slot swap is defined for arity 2")
    return TensorElement.from_clean({(b, a): c for (a, b), c in t.terms.items()}, 2)


def cocommutativity_residual(x, cfg=DEFAULT_CONFIG):
    """coproduct(x) minus its slot swap.

    The generator coproducts are all symmetric under the swap and the
    swap is an algebra map of the tensor square, so this vanishes on
    everything: the coproduct is cocommutative.
    """
    d = coproduct(x, cfg)
    return d - tau_swap(d)


def check_coassoc(x, cfg=DEFAULT_CONFIG):
    """(delta (x) id) delta(x) - (id (x) delta) delta(x)."""
    # the slots of a coproduct are normal words, so the residual is normal
    left = {}
    right = {}
    for (w1, w2), c in coproduct(x, cfg).terms.items():
        for (u, v), c2 in _word_coproduct(w1, cfg):
            accumulate(left, (u, v, w2), c if c2 is ONE else c * c2)
        for (u, v), c2 in _word_coproduct(w2, cfg):
            accumulate(right, (w1, u, v), c if c2 is ONE else c * c2)
    return TensorElement.from_clean(left, 3) - TensorElement.from_clean(right, 3)


def check_counit(x, cfg=DEFAULT_CONFIG):
    """Both counit-axiom residuals, m((id (x) eps) delta(x)) - x first."""
    # the counit of a single word is 1 on T-powers and 0 on everything else,
    # and the slots of a coproduct are normal words
    keep_first = {}
    keep_second = {}
    for (w1, w2), c in coproduct(x, cfg).terms.items():
        if _is_t_power(w2):
            accumulate(keep_first, w1, c)
        if _is_t_power(w1):
            accumulate(keep_second, w2, c)
    base = normalize(x, cfg)
    return (
        AlgebraElement.from_clean(keep_first) - base,
        AlgebraElement.from_clean(keep_second) - base,
    )


def check_antipode(x, cfg=DEFAULT_CONFIG):
    """Both antipode-axiom residuals, m((S (x) id) delta(x)) - eps(x) 1 first.

    Each side sums the concatenations c * S(w1) w2 (or c * w1 S(w2)) over
    the terms c * w1 (x) w2 of delta(x) and normalizes the sum once, which
    by the linearity of reduction is the sum of the normalized products.
    S(w1) and S(w2) are normal forms before they are concatenated: the
    system is not confluent, and reducing S's raw image together with the
    other slot changes the verdicts.
    """
    left = {}
    right = {}
    for (w1, w2), c in coproduct(x, cfg).terms.items():
        for s, cs in _scaled_antipode(w1, c, cfg):
            accumulate(left, s + w2, cs)
        for s, cs in _scaled_antipode(w2, c, cfg):
            accumulate(right, w1 + s, cs)
    target = AlgebraElement.unit() * counit(x)
    return (
        normalize(AlgebraElement.from_clean(left), cfg) - target,
        normalize(AlgebraElement.from_clean(right), cfg) - target,
    )


def _scaled_antipode(word, coeff, cfg):
    """coeff * S(word) in normal form, as (word, coefficient) pairs."""
    sign, letters = 1, ()
    for letter in reversed(word):
        s, image = _images(letter, cfg.variants)[1]
        sign *= s
        letters += image
    if sign < 0:
        coeff = -coeff
    return [(w, coeff if c is ONE else coeff * c) for w, c in normal_pairs(letters, cfg)]


def antipode_squared(x, cfg=DEFAULT_CONFIG):
    """S(S(x)) - x, compared in normal form."""
    return antipode(antipode(x, cfg), cfg) - normalize(x, cfg)


def check_relation_preservation(map_name, relation, n=0, m=1, cfg=DEFAULT_CONFIG):
    """Images of a defining relation under delta, S, or eps.

    Returns the list of residuals, one per relation element: tensors
    for delta, algebra elements for S, field values for eps. The
    antipode lands in the opposite algebra, which word reversal
    already accounts for.
    """
    # built at each call, as perfbench's tracer rebinds coproduct and antipode
    maps = {"delta": coproduct, "antipode": antipode, "counit": lambda x, _: counit(x)}
    if map_name not in maps:
        raise ValueError("map_name must be delta, antipode, or counit")
    return [maps[map_name](elem, cfg) for elem in relation_elements(relation, n, m, cfg)]


def generators(window):
    """Named generators for axiom sweeps: T, Tinv, C, and a window of L_n."""
    out = [
        ("T", AlgebraElement.from_word((T,))),
        ("Tinv", AlgebraElement.from_word((TINV,))),
        ("C", AlgebraElement.from_word((C,))),
    ]
    for n in range(-window, window + 1):
        out.append((f"L({n})", AlgebraElement.from_word((L(n),))))
    return out
