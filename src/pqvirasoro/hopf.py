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

The variant ``strict-typos`` of a Presentation takes the printed coproduct
delta(C) = C (x) 1 + 1 (x) T, which breaks the counit and antipode
axioms on C; it is kept purely to demonstrate that failure. The variant
``r5-8.11`` changes the C-commutation relation that every map normalizes
by, so that form can be explored as well.
"""

from functools import lru_cache
from itertools import product

from .field import ZERO, LinComb, accumulate
from .freealg import (
    AlgebraElement,
    DEFAULT_CONFIG,
    C,
    L,
    T,
    TINV,
    multiply,
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
    _PAREN_CHARS = "+-/ "

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
        for choice in product(*[normalize(w, cfg).terms.items() for w in slots]):
            c = coeff
            for _, cw in choice:
                c = c * cw
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
    """Algebra-map extension of the generator coproducts."""
    out = {}
    for word, coeff in x.terms.items():
        for choice in product(*[_images(letter, cfg.variants)[0] for letter in word]):
            slots = (sum([u for u, _ in choice], ()), sum([v for _, v in choice], ()))
            accumulate(out, slots, coeff)
    return tensor_normalize(TensorElement.from_clean(out, 2), cfg)


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
    """Anti-homomorphic extension of the generator antipodes."""
    out = {}
    for word, coeff in x.terms.items():
        sign, letters = 1, ()
        for letter in reversed(word):
            s, image = _images(letter, cfg.variants)[1]
            sign *= s
            letters += image
        accumulate(out, letters, coeff if sign > 0 else -coeff)
    return normalize(AlgebraElement.from_clean(out), cfg)


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
    d = coproduct(x, cfg)
    delta = {w: coproduct(AlgebraElement.from_word(w), cfg).terms
             for w in dict.fromkeys(w for slots in d.terms for w in slots)}
    left = {}
    right = {}
    for (w1, w2), c in d.terms.items():
        for (u, v), c2 in delta[w1].items():
            accumulate(left, (u, v, w2), c * c2)
        for (u, v), c2 in delta[w2].items():
            accumulate(right, (w1, u, v), c * c2)
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
    """Both antipode-axiom residuals, m((S (x) id) delta(x)) - eps(x) 1 first."""
    # sums of normal forms minus the normal counit(x) * 1 need no normalize
    left = {}
    right = {}
    for (w1, w2), c in coproduct(x, cfg).terms.items():
        x1, x2 = AlgebraElement.from_word(w1), AlgebraElement.from_word(w2)
        for w, cw in multiply(antipode(x1, cfg), x2, cfg).terms.items():
            accumulate(left, w, c * cw)
        for w, cw in multiply(x1, antipode(x2, cfg), cfg).terms.items():
            accumulate(right, w, c * cw)
    target = AlgebraElement.unit() * counit(x)
    return (
        AlgebraElement.from_clean(left) - target,
        AlgebraElement.from_clean(right) - target,
    )


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
    residuals = []
    for elem in relation_elements(relation, n, m, cfg):
        if map_name == "delta":
            residuals.append(coproduct(elem, cfg))
        elif map_name == "antipode":
            residuals.append(antipode(elem, cfg))
        elif map_name == "counit":
            residuals.append(counit(elem))
        else:
            raise ValueError("map_name must be delta, antipode, or counit")
    return residuals


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
