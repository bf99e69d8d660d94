"""Coproduct, counit, antipode, and where the axioms do and do not close."""

import itertools
import random

import pytest

from pqvirasoro import freealg, hopf
from pqvirasoro.field import ONE, ZERO, substitute
from pqvirasoro.freealg import (
    AlgebraElement,
    C,
    DEFAULT_CONFIG,
    L,
    Presentation,
    RELATION_NAMES,
    T,
    TINV,
    multiply,
    normalize,
    random_word,
    relation_elements,
    t_degree,
    t_word,
)
from pqvirasoro.hopf import (
    TensorElement,
    antipode,
    antipode_squared,
    check_antipode,
    check_coassoc,
    check_counit,
    check_relation_preservation,
    cocommutativity_residual,
    coproduct,
    counit,
    generators,
    tau_swap,
    tensor_multiply,
    tensor_normalize,
    _images,
)

STRICT = Presentation({"strict-typos"})
EQ811 = Presentation({"r5-8.11"})


def elem(*letters):
    return AlgebraElement.from_word(letters)


# ---------------------------------------------------------------------------
# raw free-algebra pipelines: the same letter maps, one final normalization


def raw_antipode(x):
    """Word reversal and letter replacement with no normalization at all."""
    out = {}
    for word, coeff in x.terms.items():
        sign = 1
        letters = []
        for letter in reversed(word):
            if letter in (T, TINV):
                letters.append(TINV if letter == T else T)
            elif letter == C:
                sign = -sign
                letters.append(C)
            else:
                sign = -sign
                letters.extend(t_word(-letter))
                letters.append(letter)
                letters.extend(t_word(-letter))
        w = tuple(letters)
        c = coeff if sign == 1 else -coeff
        out[w] = out[w] + c if w in out else c
    return AlgebraElement(out)


def raw_letter_coproduct(letter, cfg):
    """delta of one letter, written out from the module docstring's formulas."""
    if letter in (T, TINV):
        return {((letter,), (letter,)): ONE}
    if letter == C:
        right = (T,) if "strict-typos" in cfg.variants else (C,)
        return {((C,), ()): ONE, ((), right): ONE}
    return {((letter,), t_word(letter)): ONE, (t_word(letter), (letter,)): ONE}


def raw_coproduct_terms(x, cfg):
    """Letterwise coproduct fold without slot normalization."""
    out = {}
    for word, coeff in x.terms.items():
        partial = {((), ()): coeff}
        for letter in word:
            step = raw_letter_coproduct(letter, cfg)
            grown = {}
            for (a, b), c in partial.items():
                for (u, v), d in step.items():
                    slots = (a + u, b + v)
                    w = c * d
                    grown[slots] = grown[slots] + w if slots in grown else w
            partial = grown
        for slots, c in partial.items():
            out[slots] = out[slots] + c if slots in out else c
    return out


def raw_antipode_axiom_residual(x, cfg):
    """m((S (x) id) delta(x)) - eps(x) 1 built in the free algebra."""
    acc = AlgebraElement.zero()
    for (w1, w2), c in raw_coproduct_terms(x, cfg).items():
        acc = acc + raw_antipode(AlgebraElement.from_word(w1)) * AlgebraElement.from_word(w2) * c
    acc = acc - AlgebraElement.unit() * counit(x)
    return normalize(acc, cfg)


# ---------------------------------------------------------------------------
# tensors


def test_tensor_str_frozen_form():
    d = coproduct(elem(L(0)))
    assert str(d) == "L(0)(x)1 + 1(x)L(0)"


def test_tensor_arithmetic():
    d = coproduct(elem(L(1)))
    assert (d - d).is_zero()
    assert d + TensorElement.zero(2) == d
    z = d.scale(ZERO)
    assert z.is_zero()


def test_tau_swap_is_an_involution():
    d = coproduct(elem(L(2), C))
    assert tau_swap(tau_swap(d)) == d


def test_tensor_multiply_matches_coproduct_of_product():
    for (_, g1), (_, g2) in itertools.product(generators(3), repeat=2):
        lhs = coproduct(multiply(g1, g2))
        rhs = tensor_multiply(coproduct(g1), coproduct(g2))
        assert lhs == rhs


def test_arities_are_checked():
    """A tensor has two or three slots, each key as many as its arity; the
    slot swap and the slotwise product refuse other arities."""
    for arity in (1, 4):
        with pytest.raises(ValueError, match="arity must be 2 or 3"):
            TensorElement(arity)
    with pytest.raises(ValueError, match="does not match arity"):
        TensorElement(3, {((L(1),), ()): 1})
    triple = TensorElement(3, {((L(1),), (), ()): 1})
    with pytest.raises(ValueError, match="arity 2"):
        tau_swap(triple)
    with pytest.raises(ValueError, match="arity mismatch"):
        tensor_multiply(triple, coproduct(elem(L(1))))


# ---------------------------------------------------------------------------
# structure maps on generators


def test_images_table_matches_the_generator_formulas():
    for cfg, right in ((DEFAULT_CONFIG, (C,)), (EQ811, (C,)), (STRICT, (T,))):
        v = cfg.variants
        assert _images(T, v) == ((((T,), (T,)),), (1, (TINV,)))
        assert _images(TINV, v) == ((((TINV,), (TINV,)),), (1, (T,)))
        assert _images(C, v) == ((((C,), ()), ((), right)), (-1, (C,)))
        for n in range(-3, 4):
            tn = (T,) * n if n >= 0 else (TINV,) * -n
            conj = (TINV,) * n if n >= 0 else (T,) * -n
            assert _images(L(n), v) == ((((L(n),), tn), (tn, (L(n),))),
                                        (-1, conj + (L(n),) + conj)), (sorted(v), n)


def test_generator_coproducts():
    assert str(coproduct(elem(T))) == "T(x)T"
    assert str(coproduct(elem(C))) == "C(x)1 + 1(x)C"
    d = coproduct(elem(L(2)))
    assert d.terms[((L(2),), (T, T))] == ONE
    assert d.terms[((T, T), (L(2),))] == ONE


def test_counit_values():
    assert counit(elem(T)) == ONE
    assert counit(elem(TINV)) == ONE
    assert counit(elem(C)) == ZERO
    assert counit(elem(L(3))) == ZERO
    assert counit(AlgebraElement.unit()) == ONE


def test_counit_is_multiplicative():
    gens = generators(4)
    for (_, g1), (_, g2) in itertools.product(gens, repeat=2):
        assert counit(multiply(g1, g2)) == counit(g1) * counit(g2)


def test_antipode_on_generators():
    assert antipode(elem(T)) == elem(TINV)
    assert antipode(elem(TINV)) == elem(T)
    assert antipode(elem(C)) == -elem(C)
    # the T-conjugated image T^-2 L(2) T^-2 is sorted into the basis
    assert str(antipode(elem(L(2)))) == "-p^6/q^6*T^-4 L(2)"
    assert str(antipode(elem(L(-2)))) == "-p^2/q^2*T^4 L(-2)"
    assert str(antipode(elem(L(0)))) == "-L(0)"


def test_antipode_equals_its_raw_pipeline():
    for _, g in generators(3):
        x = multiply(g, elem(C, L(1)))
        assert antipode(x) == normalize(raw_antipode(x))


def test_antipode_is_anti_multiplicative_on_words():
    for w1, w2 in [((L(2),), (L(1),)), ((T, L(1)), (C,)), ((L(-2), C), (TINV, L(3)))]:
        x, y = AlgebraElement.from_word(w1), AlgebraElement.from_word(w2)
        assert raw_antipode(x * y) == raw_antipode(y) * raw_antipode(x)


# ---------------------------------------------------------------------------
# axioms that hold


def test_coassociativity_on_generators_and_products():
    gens = generators(4)
    for _, g in gens:
        assert check_coassoc(g).is_zero()
    for (_, g1), (_, g2) in itertools.product(generators(2), repeat=2):
        assert check_coassoc(multiply(g1, g2)).is_zero()


def test_counit_axiom_on_generators_and_products():
    for (_, g1), (_, g2) in itertools.product(generators(3), repeat=2):
        r1, r2 = check_counit(multiply(g1, g2))
        assert r1.is_zero() and r2.is_zero()


def test_antipode_axiom_on_generators():
    for _, g in generators(6):
        r1, r2 = check_antipode(g)
        assert r1.is_zero() and r2.is_zero()


def test_coproduct_is_cocommutative():
    for _, g in generators(4):
        assert cocommutativity_residual(g).is_zero()
    x = multiply(elem(L(2)), elem(L(-1)))
    assert cocommutativity_residual(x).is_zero()


def test_antipode_squared_identity_on_generators():
    for _, g in generators(5):
        assert antipode_squared(g).is_zero()


def test_delta_and_counit_preserve_all_relations():
    for rel in RELATION_NAMES:
        for n in range(-3, 4):
            for m in range(-3, 4):
                for r in check_relation_preservation("delta", rel, n, m):
                    assert r.is_zero(), ("delta", rel, n, m)
                for r in check_relation_preservation("counit", rel, n, m):
                    assert r.is_zero(), ("counit", rel, n, m)


def test_antipode_preserves_relations_without_merge_terms():
    for rel in ("R1", "R2", "R3", "R5"):
        for n in range(-3, 4):
            for m in range(-3, 4):
                for r in check_relation_preservation("antipode", rel, n, m):
                    assert r.is_zero(), (rel, n, m)


# ---------------------------------------------------------------------------
# axioms that fail, and why


def test_antipode_axiom_fails_on_products_of_l_generators():
    """The convolution residual is nonzero when computed through normal forms."""
    r1, r2 = check_antipode(multiply(elem(L(-3)), elem(L(-2))))
    assert str(r1) == "((p^2 - q^2)/p^3)*T^5 L(-5)"
    assert not r2.is_zero()
    failures = 0
    for n, m in itertools.product(range(-2, 3), repeat=2):
        r1, _ = check_antipode(multiply(elem(L(n)), elem(L(m))))
        if not r1.is_zero():
            failures += 1
    assert failures > 0


def test_antipode_axiom_residuals_vanish_in_the_free_algebra():
    """The same convolution collapses to zero with one final normalization.

    The nonzero residuals above are artifacts of reducing intermediate
    products: the reduction system is not confluent, so interleaved
    normal forms can land in different representatives of the same coset.
    """
    for n, m in itertools.product(range(-3, 4), repeat=2):
        x = elem(L(n)) * elem(L(m))
        assert raw_antipode_axiom_residual(x, DEFAULT_CONFIG).is_zero(), (n, m)


def test_antipode_squared_fails_through_normal_forms_but_not_raw():
    x = elem(L(1), L(2))
    assert not antipode_squared(x).is_zero()
    raw = raw_antipode(raw_antipode(x))
    assert normalize(raw) == normalize(x)


def test_antipode_does_not_preserve_the_bracket_relation():
    """S applied to the commutation relation of two L's leaves a nonzero
    normal form, which vanishes in the p = q degeneration.

    The antipode is built from one reversal and one final normalization,
    and the residual survives that reduction. The reduction is not
    confluent, so this does not show that the residual lies outside the
    relation ideal. The one invariant at hand cannot show it either: the
    algebra map pi onto Q(p, q)[T, T^-1] that sends every L(n) and C to 0
    kills every relation, so it vanishes on the ideal, but it vanishes on
    each of the 144 nonzero residuals in the window -6..6 as well, since
    none of them has a pure T-power term.
    """
    residuals = check_relation_preservation("antipode", "R4", 2, 1)
    bad = [r for r in residuals if not r.is_zero()]
    assert bad
    for r in bad:
        for coeff in r.terms.values():
            assert substitute(coeff, p=5, q=5) == 0
    # the diagonal pairs reduce to zero: S kills the relation when n = m
    for n in (-2, 0, 1, 3):
        for r in check_relation_preservation("antipode", "R4", n, n):
            assert r.is_zero(), n

    # pi of a normal form is its T-power terms, the empty word included
    window = range(-6, 7)
    nonzero = [r for n in window for m in window
               for r in check_relation_preservation("antipode", "R4", n, m)
               if not r.is_zero()]
    assert len(nonzero) == 144
    for r in nonzero:
        assert not any(all(map(t_degree, word)) for word in r.terms)


# ---------------------------------------------------------------------------
# the map pi onto Q(p, q)[t, 1/t], which kills the relation ideal


def pi(x):
    """The algebra map that sends L(n) and C to 0 and T^k to t^k, as a map
    from exponents of t to nonzero coefficients."""
    out = {}
    for word, coeff in x.terms.items():
        if all(map(t_degree, word)):
            k = sum(map(t_degree, word))
            out[k] = out.get(k, ZERO) + coeff
    return {k: c for k, c in out.items() if c}


def test_pi_kills_every_defining_relation():
    for cfg in (DEFAULT_CONFIG, EQ811, STRICT):
        for name in RELATION_NAMES:
            for n, m in itertools.product(range(-6, 7), repeat=2):
                for rel in relation_elements(name, n, m, cfg):
                    assert pi(rel) == {}, (sorted(cfg.variants), name, n, m)


def test_pi_is_unchanged_by_normalization():
    for cfg in (DEFAULT_CONFIG, EQ811):
        for strategy in ("leftmost", "rightmost"):
            rng = random.Random(0)
            for _ in range(500):
                x = elem(*random_word(rng, 10))
                assert pi(normalize(x, cfg, strategy)) == pi(x), (x, strategy)


def test_counit_is_pi_at_t_equal_to_one():
    rng = random.Random(1)
    pool = [g for _, g in generators(3)]
    words = [normalize(elem(*random_word(rng, 6))) for _ in range(50)]
    for x in pool + [multiply(g1, g2) for g1 in pool for g2 in pool] + words:
        assert counit(x) == sum(pi(x).values(), ZERO)


def test_pi_vanishes_on_every_nonzero_hopf_residual():
    """The residuals of criterion 7 are not shown to lie outside the ideal."""
    pool = [g for _, g in generators(6)]
    antipode_res = [r for x in pool + [multiply(g1, g2) for g1 in pool for g2 in pool]
                    for r in check_antipode(x) if not r.is_zero()]
    image_res = [r for n, m in itertools.product(range(-6, 7), repeat=2)
                 for r in check_relation_preservation("antipode", "R4", n, m)
                 if not r.is_zero()]
    letters = [T, TINV, C] + [L(n) for n in range(-4, 5)]
    square_res = [r for length in (1, 2, 3)
                  for combo in itertools.product(letters, repeat=length)
                  for r in (antipode_squared(elem(*combo)),) if not r.is_zero()]
    assert (len(antipode_res), len(image_res), len(square_res)) == (288, 144, 1371)
    for r in antipode_res + image_res + square_res:
        assert pi(r) == {}, r


# ---------------------------------------------------------------------------
# variant configurations


def test_printed_coproduct_of_c_breaks_counit_axiom():
    r1, r2 = check_counit(elem(C), STRICT)
    assert str(r1) == "1"
    assert str(r2) == "T - C"


def test_printed_coproduct_of_c_breaks_antipode_axiom():
    r1, r2 = check_antipode(elem(C), STRICT)
    assert str(r1) == "T - C"
    assert str(r2) == "T^-1 + C"


def test_printed_coproduct_of_c_breaks_coassociativity():
    res = check_coassoc(elem(C), STRICT)
    assert str(res) == "-1(x)T(x)T + 1(x)T(x)1 + 1(x)1(x)T"


def test_printed_coproduct_only_differs_on_c():
    for name, g in generators(2):
        if name == "C":
            continue
        assert coproduct(g, STRICT) == coproduct(g)


def test_eq811_variant_changes_delta_preservation_of_r5():
    # sound under its own rewrite, but its coproduct image does not vanish
    for r in check_relation_preservation("delta", "R5", 0, 0, EQ811):
        assert r.is_zero()
    residuals = check_relation_preservation("delta", "R5", 1, 0, EQ811)
    bad = [r for r in residuals if not r.is_zero()]
    assert len(bad) == 1
    assert str(bad[0]) == "((p*q - q)/p)*T C(x)L(1) + ((p*q - q)/p)*L(1)(x)T C"
    # the standard form is preserved on the same window
    for n in range(-3, 4):
        for r in check_relation_preservation("delta", "R5", n, 0):
            assert r.is_zero(), n


def test_invalid_map_name_rejected():
    with pytest.raises(ValueError):
        check_relation_preservation("comultiply", "R1")


def test_relation_preservation_calls_the_maps_bound_at_each_call(monkeypatch):
    # perfbench's tracer counts calls by rebinding hopf.coproduct and hopf.antipode
    seen = []
    for name in ("coproduct", "antipode"):
        def traced(x, cfg, inner=getattr(hopf, name), name=name):
            seen.append(name)
            return inner(x, cfg)
        monkeypatch.setattr(hopf, name, traced)
    delta = check_relation_preservation("delta", "R4", 2, 1)
    s = check_relation_preservation("antipode", "R4", 2, 1)
    assert seen == ["coproduct"] * len(delta) + ["antipode"] * len(s) and delta and s


def test_invalid_config_rejected():
    with pytest.raises(ValueError, match="unknown variant 'fixed'"):
        Presentation({"fixed"})


# ---------------------------------------------------------------------------
# the per-word maps against the formulation that expands every call anew


def add(store, key, coeff):
    store[key] = store.get(key, ZERO) + coeff


def expanded_coproduct(x, cfg):
    """delta(x) with each word expanded letter by letter and its slots
    normalized by one tensor_normalize of its own."""
    total = TensorElement.zero(2)
    for word, coeff in x.terms.items():
        raw = raw_coproduct_terms(AlgebraElement.from_word(word, coeff), cfg)
        total = total + tensor_normalize(TensorElement(2, raw), cfg)
    return total


def expanded_check_coassoc(x, cfg):
    left, right = {}, {}
    for (w1, w2), c in expanded_coproduct(x, cfg).terms.items():
        for (u, v), c2 in expanded_coproduct(elem(*w1), cfg).terms.items():
            add(left, (u, v, w2), c * c2)
        for (u, v), c2 in expanded_coproduct(elem(*w2), cfg).terms.items():
            add(right, (w1, u, v), c * c2)
    return TensorElement(3, left) - TensorElement(3, right)


def expanded_check_counit(x, cfg):
    keep_first, keep_second = {}, {}
    for (w1, w2), c in expanded_coproduct(x, cfg).terms.items():
        if all(map(t_degree, w2)):
            add(keep_first, w1, c)
        if all(map(t_degree, w1)):
            add(keep_second, w2, c)
    base = normalize(x, cfg)
    return AlgebraElement(keep_first) - base, AlgebraElement(keep_second) - base


def expanded_check_antipode(x, cfg):
    """Both residuals from one multiply(S(w1), w2) (or w1 S(w2)) per term."""
    left = right = AlgebraElement.zero()
    for (w1, w2), c in expanded_coproduct(x, cfg).terms.items():
        x1, x2 = elem(*w1), elem(*w2)
        s1, s2 = normalize(raw_antipode(x1), cfg), normalize(raw_antipode(x2), cfg)
        left = left + c * multiply(s1, x2, cfg)
        right = right + c * multiply(x1, s2, cfg)
    target = AlgebraElement.unit() * counit(x)
    return left - target, right - target


@pytest.mark.parametrize("variants", [(), ("r5-8.11",), ("strict-typos",)])
def test_hopf_maps_equal_the_expanded_formulation(variants):
    cfg = Presentation(variants)
    gens = [g for _, g in generators(4)]
    pool = gens + [multiply(g1, g2, cfg) for g1 in gens for g2 in gens]
    for x in pool:
        assert coproduct(x, cfg) == expanded_coproduct(x, cfg), x
        assert antipode(x, cfg) == normalize(raw_antipode(x), cfg), x
        assert check_coassoc(x, cfg) == expanded_check_coassoc(x, cfg), x
        assert check_counit(x, cfg) == expanded_check_counit(x, cfg), x
        assert check_antipode(x, cfg) == expanded_check_antipode(x, cfg), x
    assert cfg._coproducts


def test_coproduct_table_is_bounded():
    cap, max_terms = freealg._MEMO_MAX_WORDS, freealg._MEMO_ENTRY_MAX_TERMS
    cfg = Presentation()
    table = cfg._coproducts
    letters = [T, TINV, C] + [L(n) for n in range(-24, 25)]
    words = [w for length in (1, 2) for w in itertools.product(letters, repeat=length)]
    assert len(words) > cap
    first = {}
    for w in words:
        first[w] = coproduct(elem(*w), cfg)
        assert len(table) <= cap
    assert len(table) == cap
    assert all(len(pairs) <= max_terms for pairs in table.values())
    # least recently used out first: the last words swept are the ones kept
    assert list(table)[-1] == words[-1] and words[0] not in table
    big = (L(3), L(2), L(1), L(0))
    d = coproduct(elem(*big), cfg)
    assert len(d.terms) > max_terms and big not in table
    assert d == expanded_coproduct(elem(*big), cfg)
    table.clear()
    for w in words:
        assert coproduct(elem(*w), cfg) == first[w], w
    assert len(table) == cap
