"""Free algebra on T, C, L(n) and reduction to the normal-form basis."""

import hashlib
import random
import time
from itertools import groupby

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pqvirasoro import field, freealg
from pqvirasoro.field import ONE, P, Q, ZERO, RatFunc, accumulate, monomial, pq_int, pq_ladder
from pqvirasoro.freealg import (
    AlgebraElement,
    C,
    DEFAULT_CONFIG,
    L,
    NormalWord,
    RELATION_NAMES,
    Presentation,
    T,
    TINV,
    basis_decompose,
    bracket_coeff,
    bracket_env,
    central_coeff,
    find_redex,
    multiply,
    normalize,
    random_word,
    relation_elements,
    rewrite_once,
    t_degree,
    t_word,
    word_sort_key,
    word_str,
)

EQ811 = Presentation({"r5-8.11"})
SETTINGS = [(cfg, strategy) for cfg in (DEFAULT_CONFIG, EQ811)
            for strategy in ("leftmost", "rightmost")]
COEFFS = (ONE, -ONE, P, -P / Q, monomial(2, 1, -1), (P + Q) / Q)


def elem(*letters):
    return AlgebraElement.from_word(letters)


def letters_strategy(max_len=6, lo=-4, hi=4):
    letter = st.one_of(
        st.just(T),
        st.just(TINV),
        st.just(C),
        st.integers(min_value=lo, max_value=hi).map(L),
    )
    return st.lists(letter, max_size=max_len).map(tuple)


# ---------------------------------------------------------------------------
# words and elements


def test_word_str_compresses_runs():
    assert word_str(()) == "1"
    assert word_str((TINV, TINV, L(1), L(1), C)) == "T^-2 L(1)^2 C"
    assert word_str((T, L(-3))) == "T L(-3)"


def groupby_word_str(word, latex=False):
    """word_str's reference: one power per groupby run, T^-1 runs negative."""
    t_sym, l_fmt, power = (("\\mathcal{T}", "L_{%d}", "^{%d}") if latex
                           else ("T", "L(%d)", "^%d"))
    parts = []
    for letter, run in groupby(word):
        count = len(list(run))
        if letter in (T, TINV):
            base, count = t_sym, count if letter == T else -count
        else:
            base = "C" if letter == C else l_fmt % letter
        parts.append(base if count == 1 else base + power % count)
    return " ".join(parts) or "1"


runs_of_letters = st.lists(
    st.tuples(st.sampled_from((T, TINV, C, L(-12), L(-1), L(0), L(3))), st.integers(1, 4)),
    max_size=6).map(lambda runs: tuple(letter for letter, k in runs for _ in range(k)))


@given(runs_of_letters)
@example((TINV, TINV, TINV, L(1), L(1), TINV))
@example((T, TINV, TINV, C, C, C, C))
def test_word_str_matches_a_groupby_reference(word):
    for latex in (False, True):
        assert word_str(word, latex) == groupby_word_str(word, latex)


def test_t_word():
    assert t_word(0) == ()
    assert t_word(2) == (T, T)
    assert t_word(-3) == (TINV, TINV, TINV)


def test_word_sort_key_orders_by_length_then_letters():
    short = (L(5),)
    long = (L(0), L(1))
    assert word_sort_key(long) < word_sort_key(short)


def test_element_arithmetic():
    x = elem(L(1)) + elem(L(2))
    y = elem(L(1))
    assert x - y == elem(L(2))
    assert (x - x).is_zero()
    assert not AlgebraElement.zero()
    assert bool(x)
    assert x * 0 == AlgebraElement.zero()


def test_scalar_multiplication():
    x = elem(L(1)) * (P + Q)
    assert x.coefficient((L(1),)) == P + Q
    assert (x * (P + Q).inverse()).coefficient((L(1),)) == ONE


def test_concatenation_product_is_raw():
    x = elem(L(1)) * elem(L(2))
    assert set(x.terms) == {(L(1), L(2))}
    y = elem(T) * elem(TINV)
    assert set(y.terms) == {(T, TINV)}


def test_str_rendering():
    x = elem(L(1), L(2)) - elem(L(3)) * monomial(1, 0, -1)
    assert str(x) == "L(1) L(2) - 1/q*L(3)"
    assert str(AlgebraElement.zero()) == "0"
    assert str(AlgebraElement.unit()) == "1"


@given(letters_strategy(), letters_strategy())
def test_product_bilinear_on_words(w1, w2):
    x, y = AlgebraElement.from_word(w1), AlgebraElement.from_word(w2)
    s = x + y
    z = elem(L(0))
    assert z * s == z * x + z * y
    assert s * z == x * z + y * z


# ---------------------------------------------------------------------------
# structure coefficients


def test_bracket_coeff_is_a_signed_run_over_one():
    # the shape that field._u_mul's linear-time path multiplies by: if a
    # convention change breaks it, that path no longer fires on brackets
    for n in range(-12, 13):
        for m in range(-12, 13):
            coeff = bracket_coeff(n, m)
            assert coeff == -monomial(1, -m, m) * pq_ladder(n - m)
            assert coeff._den == (1,)
            assert coeff._num in ((1,) * abs(n - m), (-1,) * abs(n - m))


def test_bracket_coeff_values():
    # u(m) - u(n) with u(k) the p-shifted quantum integer
    assert bracket_coeff(0, 1) == pq_int(1) * monomial(1, -1, 0)
    assert bracket_coeff(1, -1) == -(P + Q) / (P * Q)
    assert str(bracket_coeff(1, -1)) == "-(p + q)/(p*q)"
    assert bracket_coeff(2, 2).is_zero()


def test_central_coeff_vanishes_near_zero():
    for n in (-1, 0, 1):
        assert central_coeff(n).is_zero()
    assert not central_coeff(2).is_zero()
    for n in range(1, 9):
        assert central_coeff(-n) == -central_coeff(n)


def test_structure_constants_check_both_indices_before_computing():
    # only n + m was checked, so L(2^28) with L(-1) built pq_ladder(2^28)
    bound = freealg.INDEX_BOUND
    start = time.perf_counter()
    for n, m in ((bound, -1), (-1, bound), (-bound, 1), (1, -bound)):
        for table in (bracket_env, bracket_coeff):
            with pytest.raises(ValueError, match="out of range"):
                table(n, m)
    assert time.perf_counter() - start < 1.0


def test_bracket_env_antisymmetric():
    for n in range(-3, 4):
        for m in range(-3, 4):
            assert (bracket_env(n, m) + bracket_env(m, n)).is_zero()


def test_bracket_env_central_pair():
    x = bracket_env(2, -2)
    assert x.coefficient((C,)) == central_coeff(2)
    assert x.coefficient((L(0),)) == bracket_coeff(2, -2)


# ---------------------------------------------------------------------------
# rewriting


def test_find_redex_on_normal_words_is_none():
    for w in [(), (T, T), (TINV,), (L(-1), L(0), L(0), C), (L(2),)]:
        assert find_redex(w) is None


def test_find_redex_strategies_pick_opposite_ends():
    w = (L(2), L(1), L(3), L(0))
    assert find_redex(w, "leftmost") == 0
    assert find_redex(w, "rightmost") == 2


def test_rewrite_once_on_normal_word_returns_none():
    assert rewrite_once((L(0), L(1))) is None


def test_normalize_swap_with_merge_term():
    x = normalize(elem(L(2), L(1)))
    assert x.coefficient((L(1), L(2))) == P / Q
    assert x.coefficient((L(3),)) == -monomial(1, 0, -1)
    assert len(x.terms) == 2


def test_normalize_cancels_t_pairs():
    assert normalize(elem(T, TINV)) == AlgebraElement.unit()
    assert normalize(elem(TINV, T)) == AlgebraElement.unit()
    assert normalize(elem(T, TINV, T)) == elem(T)


def test_normalize_moves_t_left_and_c_right():
    x = normalize(elem(L(1), T))
    assert set(x.terms) == {(T, L(1))}
    assert x.coefficient((T, L(1))) == monomial(1, -2, 2)
    y = normalize(elem(C, L(1)))
    assert set(y.terms) == {(L(1), C)}
    assert y.coefficient((L(1), C)) == monomial(1, -1, 1)


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        w = random_word(rng, max_len=8, index_range=(-4, 4))
        for strategy in ("leftmost", "rightmost"):
            nf = normalize(AlgebraElement.from_word(w), strategy=strategy)
            assert normalize(nf, strategy=strategy) == nf


def test_relations_reduce_to_zero():
    for name in RELATION_NAMES:
        for n in range(-4, 5):
            for m in range(-4, 5):
                for el in relation_elements(name, n, m):
                    assert normalize(el).is_zero(), (name, n, m)


def _relation_by_arithmetic(name, n, m, cfg):
    """The docstring's lhs - rhs of ``relation_elements``, by LinComb sums."""
    word = AlgebraElement.from_word
    if name == "R1":
        return [word((T, TINV)) - AlgebraElement.unit(), word((TINV, T)) - AlgebraElement.unit()]
    if name == "R2":
        return [word(t_word(m) + (L(n),)) - word((L(n),) + t_word(m),
                                                 monomial(1, m * (n + 1), -m * (n + 1)))]
    if name == "R3":
        return [word(t_word(m) + (C,), monomial(1, 0, m)) - word((C,) + t_word(m), monomial(1, m, 0))]
    if name == "R4":
        return [word((L(n), L(m)), monomial(1, -n, n)) - word((L(m), L(n)), monomial(1, -m, m))
                - bracket_env(n, m)]
    weight = 0 if "r5-8.11" in cfg.variants else n
    return [word((L(n), C), monomial(1, 0, n)) - word((C, L(n)), monomial(1, weight, 0))]


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, EQ811], ids=["standard", "eq811"])
def test_relation_elements_equal_their_lhs_minus_rhs(cfg):
    for name in RELATION_NAMES:
        for n in range(-13, 14):
            for m in range(-13, 14):
                got = relation_elements(name, n, m, cfg)
                expected = _relation_by_arithmetic(name, n, m, cfg)
                # the same terms in the same order, so _rule reads the same sides
                assert [list(x.terms.items()) for x in got] == \
                    [list(x.terms.items()) for x in expected], (name, n, m)


def test_eq811_variant_sound_under_its_own_rewrite():
    for n in range(-4, 5):
        for m in range(-4, 5):
            for el in relation_elements("R5", n, m, cfg=EQ811):
                assert normalize(el, cfg=EQ811).is_zero()


def test_equals_and_multiply_helpers():
    x = elem(L(2), L(1))
    y = normalize(x)
    assert normalize(x) == normalize(y)
    assert multiply(elem(L(2)), elem(L(1))) == y


def _weight(word):
    return sum(i * letter for i, letter in enumerate(word))


def _length_weight_key(word):
    return (-len(word), _weight(word))


@given(letters_strategy())
def test_length_then_weight_rises_on_every_rewrite(word):
    # a same-length branch swaps the redex pair a > b, adding a - b to the
    # weight and making the word smaller as a tuple
    i = find_redex(word)
    for _, new_word in rewrite_once(word) or ():
        assert _length_weight_key(new_word) > _length_weight_key(word)
        if len(new_word) == len(word):
            assert sorted(new_word) == sorted(word)
            assert _weight(new_word) - _weight(word) == word[i] - word[i + 1]
            assert new_word < word


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, EQ811], ids=["standard", "eq811"])
@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_reduce_rewrites_each_distinct_word_at_most_once(monkeypatch, cfg, strategy):
    rewritten = []

    # _reduce scans each word it takes from the strategy's end and rewrites
    # it once; a scan with a start resumes within the word being rewritten
    def spy(word, strategy="leftmost", start=None):
        if start is None:
            rewritten.append(word)
        return find_redex(word, strategy, start)

    monkeypatch.setattr(freealg, "find_redex", spy)
    rng = random.Random(7)
    for _ in range(40):
        words = [random_word(rng, max_len=8, index_range=(-4, 4))
                 for _ in range(rng.randint(1, 3))]
        rewritten.clear()
        freealg._reduce({w: ONE for w in words}, cfg, strategy)
        assert rewritten and len(set(rewritten)) == len(rewritten), words


def test_reduce_takes_each_length_in_descending_tuple_order(monkeypatch):
    taken = []

    def spy(word, strategy="leftmost", start=None):
        if start is None:
            taken.append(word)
        return find_redex(word, strategy, start)

    monkeypatch.setattr(freealg, "find_redex", spy)
    # the weight order would take (L(1), L(0)), of weight 0, before
    # (L(2), L(9)), of weight 9
    freealg._reduce({(L(2), L(9)): ONE, (L(1), L(0)): ONE}, DEFAULT_CONFIG, "leftmost")
    assert taken[:2] == [(L(2), L(9)), (L(1), L(0))]


def _stepwise_reduce(word, cfg, strategy):
    """The normal form of word as a word -> coefficient map, taken one
    ``rewrite_once`` step at a time: no levels, no rewriting in place,
    no merging, no memo."""
    pending, result = {word: ONE}, {}
    while pending:
        w, c = pending.popitem()
        steps = rewrite_once(w, strategy, cfg)
        if steps is None:
            accumulate(result, w, c)
            continue
        for c2, w2 in steps:
            accumulate(pending, w2, c * c2)
    return result


@st.composite
def t_run_words(draw):
    """Words whose L letters stand between long runs of T, T^-1 and C."""
    run = st.lists(st.sampled_from((T, TINV, C)), max_size=8).map(tuple)
    word = ()
    for n in draw(st.lists(st.integers(-4, 4), max_size=4)):
        word += draw(run) + (L(n),)
    return word + draw(run)


def _raw_antipode(word):
    """The letters of S(word) up to sign, before any rewriting."""
    letters = ()
    for letter in reversed(word):
        if letter == C:
            letters += (C,)
        elif t_degree(letter):
            letters += t_word(-t_degree(letter))
        else:
            letters += t_word(-letter) + (letter,) + t_word(-letter)
    return letters


@given(t_run_words(), st.sampled_from(SETTINGS))
def test_reduce_equals_the_stepwise_reduction_on_long_t_runs(word, setting):
    assert freealg._reduce({word: ONE}, *setting) == _stepwise_reduce(word, *setting)


@pytest.mark.parametrize("word", [
    (L(5), L(-6), L(3)), (L(-4), T, L(6), C, L(-5)), (L(6), TINV, L(-3), L(4), T, T),
    (L(12),), (L(-12),), (L(12), C, L(-12)), (L(-12), T, L(12))])
def test_reduce_equals_the_stepwise_reduction_on_double_antipode_images(word):
    image = _raw_antipode(_raw_antipode(word))
    assert len(image) >= 40
    for cfg, strategy in SETTINGS:
        assert freealg._reduce({image: ONE}, cfg, strategy) == \
            _stepwise_reduce(image, cfg, strategy)


@st.composite
def single_letter_run_words(draw):
    """Words of runs of one letter each, 1-30 long, around up to four L
    letters: T, T^-1, C, or the L letter just before the run, repeated.
    A word with a run of an L letter keeps its L letters in order, as R4
    steps across a long run make the stepwise reduction too slow."""
    letters = draw(st.lists(st.integers(-4, 4).map(L), max_size=4))
    kinds = st.sampled_from((T, TINV, C, None))
    gaps = draw(st.lists(st.lists(st.tuples(kinds, st.integers(1, 30)), max_size=2),
                         min_size=len(letters) + 1, max_size=len(letters) + 1))
    if any(kind is None for gap in gaps for kind, _ in gap):
        letters.sort()
    word = ()
    for gap, letter in zip(gaps, [None] + letters):
        for kind, size in gap:
            word += (letter if kind is None else kind,) * size
        word += (letter,) if letter is not None else ()
    return tuple(letter for letter in word if letter is not None)


@given(single_letter_run_words())
@example(t_word(-11) + (L(-7),) + t_word(29) + (L(-11),))
@example(t_word(12) + (L(5), C) + t_word(-20) + (L(-3),) + t_word(7))
@example((C,) * 9 + (L(2),) * 30 + t_word(-17) + (L(4),))
def test_reduce_equals_the_stepwise_reduction_on_single_letter_runs(word):
    for cfg, strategy in SETTINGS:
        assert freealg._reduce({word: ONE}, cfg, strategy) == _stepwise_reduce(word, cfg, strategy)


def _t_runs_scaled(f):
    """Two words whose T runs are f times hopf_sweep's and a mixed one's."""
    return [t_word(-11 * f) + (L(-7),) + t_word(29 * f) + (L(-11),),
            t_word(12 * f) + (L(5), C) + t_word(-20 * f) + (L(-3),) + t_word(7 * f)]


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_rule_lookups_do_not_grow_with_the_t_runs(monkeypatch, strategy):
    # a run of letters is rewritten in one step, so doubling every T run
    # adds no rule lookup; one lookup per letter crossed would double them
    lookups = []

    def rule(a, b, variants, compiled=freealg._rule):
        lookups.append((a, b))
        return compiled(a, b, variants)

    monkeypatch.setattr(freealg, "_rule", rule)
    for word, doubled in zip(_t_runs_scaled(1), _t_runs_scaled(2)):
        counts = []
        for w in (word, doubled):
            lookups.clear()
            freealg._reduce({w: ONE}, DEFAULT_CONFIG, strategy)
            counts.append(len(lookups))
        assert 0 < counts[1] <= counts[0] <= 12, (word_str(word), counts)


def _stepwise_sum(coeffs, cfg, strategy):
    """The sum of coeff * ``_stepwise_reduce(word)`` over the map coeffs."""
    total = {}
    for word, coeff in coeffs.items():
        for w, c in _stepwise_reduce(word, cfg, strategy).items():
            accumulate(total, w, coeff * c)
    return total


@pytest.mark.parametrize("strategy", ["leftmost", "rightmost"])
def test_a_run_of_unit_steps_makes_one_product(monkeypatch, strategy):
    # every step of this word is R1, R2, R3 or R5, whose coefficient is p^s q^t
    word = (L(5), L(7)) + t_word(-4) + (C,) + t_word(3) + (L(9),) + t_word(-2)
    # this also compiles every rule the word meets, before the spies count
    expected = _stepwise_reduce(word, DEFAULT_CONFIG, strategy)
    products = []
    for name in ("times_monomial", "__mul__"):
        def product(self, *args, name=name, op=getattr(RatFunc, name)):
            products.append(name)
            return op(self, *args)
        monkeypatch.setattr(RatFunc, name, product)
    result = freealg._reduce({word: ONE}, DEFAULT_CONFIG, strategy)
    assert result == expected and len(result) == 1
    assert products == ["times_monomial"]


def test_a_chain_stops_at_a_word_of_its_length_not_yet_taken(monkeypatch):
    # L(2) L(1) L(0) is the lighter word, and its first step, R4's swap at
    # the left, gives L(1) L(2) L(0): that chain goes no further
    first, second = (L(2), L(1), L(0)), (L(1), L(2), L(0))
    coeffs = {first: ONE, second: ONE}
    expected = _stepwise_sum(coeffs, DEFAULT_CONFIG, "leftmost")
    scanned, rules = [], []

    def scan(word, strategy="leftmost", start=None):
        if start is None:
            scanned.append(word)
        return find_redex(word, strategy, start)

    def rule(a, b, variants, compiled=freealg._rule):
        rules.append((a, b))
        return compiled(a, b, variants)

    monkeypatch.setattr(freealg, "find_redex", scan)
    monkeypatch.setattr(freealg, "_rule", rule)
    assert freealg._reduce(coeffs, DEFAULT_CONFIG, "leftmost") == expected
    assert scanned.count(first) == scanned.count(second) == 1
    assert len(set(scanned)) == len(scanned)
    # only the chain of L(1) L(2) L(0) reaches its redex L(2) L(0)
    assert rules.count((L(2), L(0))) == 1


@given(st.lists(st.sampled_from([C] + [L(n) for n in range(-2, 3)]), min_size=2, max_size=5)
       .flatmap(lambda word: st.dictionaries(st.permutations(word).map(tuple),
                                             st.sampled_from(COEFFS), min_size=2, max_size=6)),
       st.sampled_from(SETTINGS))
@example({(L(2), L(1), L(0)): ONE, (L(2), L(0), L(1)): -P}, SETTINGS[3])
def test_reduce_of_permutations_of_one_word_equals_the_stepwise_sum(coeffs, setting):
    # the words share their length and letters, so chains meet words not yet taken
    assert freealg._reduce(dict(coeffs), *setting) == _stepwise_sum(coeffs, *setting)


def _basis_order(k):
    """The normal-form letter order over the indices -k..k, written out by hand."""
    return [T, TINV] + [L(n) for n in range(-k, k + 1)] + [C]


_RANK = {letter: rank for rank, letter in enumerate(_basis_order(6))}


def _out_of_order(a, b):
    return _RANK[a] > _RANK[b]


def test_letters_sort_in_basis_order_and_indices_are_bounded():
    order = _basis_order(6)
    assert sorted(reversed(order)) == order
    assert sorted(random.Random(0).sample(order, len(order))) == order
    bound = freealg.INDEX_BOUND
    assert TINV < L(1 - bound) and L(bound - 1) < C
    for n in (bound, -bound, bound + 1, -bound - 1):
        with pytest.raises(ValueError, match="out of range"):
            L(n)


def test_l_takes_only_an_integer_index():
    # a float or a string is neither truncated nor parsed into a letter
    for n in (1.9, 2.0, "3"):
        with pytest.raises(TypeError):
            L(n)
    assert L(3) == 3 and L(-5) == -5


def test_redex_pairs_are_the_out_of_order_pairs_and_t_tinv():
    letters = [T, TINV, C] + [L(n) for n in range(-3, 4)]
    for a in letters:
        for b in letters:
            is_redex = find_redex((a, b)) == 0
            assert is_redex == (_out_of_order(a, b) or (a, b) == (T, TINV)), (a, b)


def _scan_by_hand(word, strategy, start):
    """The first redex pair at or after start for leftmost, the last at or
    before it for rightmost (start None: from the strategy's end), in the
    basis order written out by hand."""
    redexes = [i for i in range(len(word) - 1)
               if _out_of_order(word[i], word[i + 1]) or word[i:i + 2] == (T, TINV)]
    if strategy == "leftmost":
        return next((i for i in redexes if start is None or i >= start), None)
    return next((i for i in reversed(redexes) if start is None or i <= start), None)


@given(letters_strategy(max_len=10))
@example((L(1), L(0)))
@example((T, TINV, L(2), L(1)))
def test_find_redex_from_any_start_equals_a_scan_by_hand(word):
    for strategy in ("leftmost", "rightmost"):
        for start in [None, *range(-2, len(word) + 2)]:
            assert find_redex(word, strategy, start) == _scan_by_hand(word, strategy, start), \
                (strategy, start)


def _hand_written_rule(a, b, variants):
    """The rewrite rule for the redex (a, b), written out coefficient by
    coefficient, as a reference independent of relation_elements."""
    if a in (T, TINV):  # T T^-1 or T^-1 T
        return {(): ONE}
    s = {T: 1, TINV: -1}.get(b)
    if s is not None and a != C:  # L(n) T^s
        return {(b, a): monomial(1, -s * (a + 1), s * (a + 1))}
    if s is not None:  # C T^s
        return {(b, a): monomial(1, -s, s)}
    if a == C:  # C L(n)
        if "r5-8.11" in variants:
            return {(b, a): monomial(1, 0, b)}
        return {(b, a): monomial(1, -b, b)}
    n, m = a, b  # L(n) L(m) with n > m
    weight = monomial(1, n, -n)
    rule = {(b, a): monomial(1, n - m, m - n), (L(n + m),): weight * bracket_coeff(n, m)}
    if n + m == 0:
        rule[(C,)] = weight * central_coeff(n)
    return {w: c for w, c in rule.items() if c}


@pytest.mark.parametrize("cfg", [DEFAULT_CONFIG, EQ811], ids=["standard", "eq811"])
def test_rewrite_rules_match_hand_written_coefficients(cfg):
    idx = range(-4, 5)
    pairs = [(T, TINV), (TINV, T), (C, T), (C, TINV)]
    pairs += [(L(n), t) for n in idx for t in (T, TINV)]
    pairs += [(C, L(n)) for n in idx]
    pairs += [(L(n), L(m)) for n in idx for m in idx if n > m]
    # the families cover every redex pair over these letters
    letters = [T, TINV, C] + [L(n) for n in idx]
    assert set(pairs) == {(a, b) for a in letters for b in letters
                          if find_redex((a, b)) == 0}
    for a, b in pairs:
        step = rewrite_once((a, b), cfg=cfg)
        rule = {w: c for c, w in step}
        assert len(rule) == len(step)
        assert rule == _hand_written_rule(a, b, cfg.variants), (a, b)


_LETTERS = st.sampled_from([T, TINV, C] + [L(n) for n in range(-6, 7)])


@given(st.tuples(_LETTERS, _LETTERS).filter(lambda pair: find_redex(pair) == 0),
       st.sampled_from([frozenset(), frozenset({"r5-8.11"})]))
def test_each_rule_has_a_unit_monomial_main_term_and_shorter_sides(pair, variants):
    # the rewriting loop follows main terms in place and leaves sides for later
    a, b = pair
    shift, main, sides = freealg._rule(a, b, variants)
    rule = _hand_written_rule(a, b, variants)
    assert len(main) == (0 if t_degree(a) else 2)
    assert rule.pop(main) == monomial(1, *shift)
    assert {repl: c for c, repl in sides} == rule and len(sides) == len(rule)
    assert all(len(repl) == 1 for _, repl in sides)


def test_a_rule_whose_main_coefficient_is_not_a_unit_monomial_is_rejected(monkeypatch):
    relation = AlgebraElement({(C, L(1)): ONE, (L(1), C): -(ONE + P)})
    monkeypatch.setattr(freealg, "relation_elements", lambda *args: [relation])
    with pytest.raises(ValueError, match=r"C L\(1\) has main coefficient p \+ 1, not p\^s q\^t"):
        freealg._rule.__wrapped__(C, L(1), frozenset())


@given(letters_strategy(max_len=5, lo=-3, hi=3))
def test_reduction_terminates_via_bounded_walk(word):
    """Walk the full branching reduction with a visited set."""
    seen = set()
    stack = [word]
    steps = 0
    while stack:
        w = stack.pop()
        if w in seen:
            continue
        seen.add(w)
        steps += 1
        assert steps < 20000
        branch = rewrite_once(w)
        if branch is None:
            continue
        for _, w2 in branch:
            assert _length_weight_key(w2) > _length_weight_key(w)
            stack.append(w2)


# ---------------------------------------------------------------------------
# the per-word normal-form memo of normalize


def fresh(cfg):
    """A presentation equal to cfg with a memo of its own, still empty."""
    return Presentation(cfg.variants)


def memo_consistent(cfg):
    """cfg's memo is within its bounds and stores only words that are not
    normal, each with its normal form as _reduce gives it."""
    memo = cfg._memo
    assert len(memo) <= freealg._MEMO_MAX_WORDS
    for (word, strategy), pairs in memo.items():
        assert find_redex(word, strategy) is not None
        assert len(pairs) <= freealg._MEMO_ENTRY_MAX_TERMS
        assert dict(pairs) == freealg._reduce({word: ONE}, cfg, strategy)
    return True


@st.composite
def memo_elements(draw):
    """1-4 terms over T, T^-1, C, L(-4..4) of up to 8 letters, plus at times
    a multiple of a defining relation, whose normal forms cancel."""
    terms = draw(st.lists(st.tuples(letters_strategy(max_len=8), st.sampled_from(COEFFS)),
                          min_size=1, max_size=4))
    x = AlgebraElement(dict(terms))
    relation = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(("R1", "R2", "R3", "R4")), st.integers(-3, 3),
        st.sampled_from((-1, 1)), st.sampled_from(COEFFS))))
    if relation is not None:
        name, n, m, coeff = relation
        x = x + coeff * relation_elements(name, n, m)[0]
    return x


@given(memo_elements())
def test_memo_gives_the_reduction_of_the_whole_element(x):
    def each_setting(settings):
        return [normalize(x, cfg, strategy).terms for cfg, strategy in settings]

    expected = [freealg._reduce(dict(x.terms), cfg, strategy) for cfg, strategy in SETTINGS]
    settings = [(fresh(cfg), strategy) for cfg, strategy in SETTINGS]
    cold = each_setting(settings)
    warm = each_setting(settings)
    assert cold == expected and warm == expected
    for terms in warm:
        terms.clear()
    after_mutation = each_setting(settings)
    cleared = each_setting([(fresh(cfg), strategy) for cfg, strategy in SETTINGS])
    assert after_mutation == expected and cleared == expected
    assert all(memo_consistent(cfg) for cfg, _ in settings)


def test_memo_bound_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(freealg, "_MEMO_MAX_WORDS", 12)
    cfg = Presentation()
    rng = random.Random(3)
    for _ in range(300):
        normalize(random_word(rng, max_len=6, index_range=(-3, 3)), cfg)
        assert memo_consistent(cfg)
    assert len(cfg._memo) == 12
    oldest, second = list(cfg._memo)[:2]
    normalize(oldest[0], cfg, oldest[1])
    while second in cfg._memo:
        normalize(random_word(rng, max_len=6, index_range=(-3, 3)), cfg)
    assert oldest in cfg._memo


def test_memo_stores_no_large_normal_form():
    word = (L(3), L(2), L(1), L(-1), L(-2))
    expected = freealg._reduce({word: ONE}, DEFAULT_CONFIG, "leftmost")
    assert len(expected) > freealg._MEMO_ENTRY_MAX_TERMS
    cfg = Presentation()
    assert normalize(word, cfg).terms == expected
    assert normalize(AlgebraElement.from_word(word, P), cfg) == P * AlgebraElement(expected)
    assert not cfg._memo


def test_memo_stores_each_word_of_an_element():
    x = elem(L(2), L(1)) + elem(C, L(1)) + elem(L(1), C)
    cfg = Presentation()
    normalize(x, cfg)
    assert set(cfg._memo) == {((L(2), L(1)), "leftmost"), ((C, L(1)), "leftmost")}
    assert memo_consistent(cfg)


def test_normal_words_normalize_to_themselves_without_storing():
    from test_acceptance import enumerate_normal_words

    words = [nw.word() for nw in enumerate_normal_words()]
    assert len(words) == 825
    settings = [(fresh(cfg), strategy) for cfg, strategy in SETTINGS]
    for word in words:
        for cfg, strategy in settings:
            assert normalize(word, cfg, strategy).terms == {word: ONE}
    assert not any(cfg._memo for cfg, _ in settings)


def test_equal_presentations_keep_separate_memos():
    a, b = Presentation(["r5-8.11"]), Presentation({"r5-8.11"})
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "Presentation(variants=frozenset({'r5-8.11'}))"
    default_keys = list(DEFAULT_CONFIG._memo)
    word = (C, L(2), L(1))
    nf = normalize(word, a)
    assert list(a._memo) == [(word, "leftmost")] and not b._memo
    assert normalize(word, b) == nf
    assert a._memo is not b._memo and a._memo == b._memo
    assert list(DEFAULT_CONFIG._memo) == default_keys
    assert normalize(word) != nf  # the default's rules for C L(n) differ


# ---------------------------------------------------------------------------
# grading: the default relations are homogeneous once deg p = deg q = 1,
# deg L(n) = -1, deg C = 1 and deg T = 0, and they keep T-degree and weight


def word_grading(word):
    """(T-degree, weight, degree) of a word; the weight sums its L indices."""
    indices = [a for a in word if a not in (T, TINV, C)]
    return sum(map(t_degree, word)), sum(indices), word.count(C) - len(indices)


def coefficient_degree(c):
    """The degree of a homogeneous coefficient, read from its shift, num and
    den, or None if num or den mixes degrees."""
    num, den = ({i + j for i, j in part} for part in (c.num, c.den))
    if len(num) != 1 or len(den) != 1:
        return None
    return sum(c.shift) + num.pop() - den.pop()


@given(letters_strategy(max_len=8))
def test_normal_forms_keep_t_degree_weight_and_degree(word):
    t, weight, degree = word_grading(word)
    for cfg in (DEFAULT_CONFIG, Presentation(["strict-typos"])):
        for strategy in ("leftmost", "rightmost"):
            for w, c in normalize(word, cfg, strategy).terms.items():
                t2, weight2, degree2 = word_grading(w)
                assert (t2, weight2) == (t, weight)
                assert coefficient_degree(c) == degree - degree2


def test_r5_8_11_breaks_the_grading():
    # eq. 8.11's q^n L(n) C = C L(n) is not homogeneous: C L(1) and L(1) C
    # both have degree 0, but the coefficient q has degree 1
    assert normalize((C, L(1)), EQ811) == elem(L(1), C) * Q
    assert word_grading((C, L(1))) == word_grading((L(1), C)) == (0, 1, 0)
    assert coefficient_degree(Q) == 1
    assert coefficient_degree(normalize((C, L(1))).coefficient((L(1), C))) == 0


def test_r5_8_11_normal_form_of_a_long_word():
    """Word 38 of seed 0's random words, L(6) L(5) L(4) L(2) L(-4) L(-3)
    L(3) L(0) T L(-5)^2 L(-1), reduced leftmost under eq. 8.11: its
    non-homogeneous coefficients take the sparse GCD, on which the
    recursive PRS spent minutes for this word.  The digest was recorded
    with that PRS."""
    rng = random.Random(0)
    word = [random_word(rng, 12, (-6, 6)) for _ in range(39)][38]
    nf = normalize(AlgebraElement.from_word(word), EQ811, "leftmost")
    assert len(nf.terms) == 13074
    assert hashlib.md5(str(nf).encode()).hexdigest().startswith("c3014abae91e")


# ---------------------------------------------------------------------------
# the reduction system is not confluent: documented witnesses


def test_conjugation_witness_strategies_disagree():
    """T L(2) L(1) T^-1 reduces differently from each end."""
    x = elem(T, L(2), L(1), TINV)
    a = normalize(x, strategy="leftmost")
    b = normalize(x, strategy="rightmost")
    assert a.coefficient((L(1), L(2))) == b.coefficient((L(1), L(2))) == monomial(1, 6, -6)
    assert a.coefficient((L(3),)) == -monomial(1, 4, -5)
    assert b.coefficient((L(3),)) == -monomial(1, 5, -6)
    diff = a - b
    assert set(diff.terms) == {(L(3),)}
    assert str(diff) == "((p^5 - p^4*q)/q^6)*L(3)"


def test_sorting_witness_strategies_disagree():
    x = elem(L(3), L(2), L(1))
    a = normalize(x, strategy="leftmost")
    b = normalize(x, strategy="rightmost")
    assert a != b
    # the disagreement vanishes in the one-parameter degeneration p = 1, q = 1
    from pqvirasoro.field import substitute
    for word, coeff in (a - b).terms.items():
        assert substitute(coeff, p=1, q=1) == 0


def test_strategy_disagreements_collapse_the_relation_ideal():
    """Both normal forms of T L(n) L(m) T^-1 equal it modulo the relations, so
    their difference lies in the relation ideal: a nonzero multiple of L(n+m),
    or for n + m = 0 a nonzero combination of L(0) and C."""
    central = []
    for n in range(-4, 5):
        for m in range(-4, n):
            x = elem(T, L(n), L(m), TINV)
            diff = normalize(x, strategy="leftmost") - normalize(x, strategy="rightmost")
            assert not diff.is_zero(), (n, m)
            if n + m:
                assert set(diff.terms) == {(L(n + m),)}, (n, m)
            else:
                assert set(diff.terms) <= {(L(0),), (C,)}, (n, m)
                central.append(set(diff.terms))
    # (1, -1) leaves L(0) alone and (2, -2) involves C, so the ideal holds both
    assert central == [{(L(0),)}] + [{(L(0),), (C,)}] * 3


def test_normalized_product_not_associative():
    x, y, z = elem(L(3)), elem(L(2)), elem(L(1))
    lhs = multiply(multiply(x, y), z)
    rhs = multiply(x, multiply(y, z))
    assert lhs != rhs
    diff = lhs - rhs
    assert (L(6),) in diff.terms
    # every discrepancy coefficient vanishes at p = q
    from pqvirasoro.field import substitute
    for coeff in diff.terms.values():
        assert substitute(coeff, p=3, q=3) == 0


# ---------------------------------------------------------------------------
# the normal-form basis


def test_normal_word_round_trip():
    nw = NormalWord(-2, ((-1, 2), (3, 1)), 1)
    assert nw.word() == (TINV, TINV, L(-1), L(-1), L(3), C)
    assert NormalWord.from_word(nw.word()) == nw
    assert nw.degree() == 6
    assert str(nw) == "T^-2 L(-1)^2 L(3) C"


def test_normal_word_rejects_disorder():
    with pytest.raises(ValueError):
        NormalWord.from_word((L(1), L(0)))
    with pytest.raises(ValueError):
        NormalWord.from_word((L(1), T))
    for word in [(T, TINV), (C, L(0)), (L(0), C, T)]:
        with pytest.raises(ValueError):
            NormalWord.from_word(word)
    with pytest.raises(ValueError):
        NormalWord(0, ((2, 1), (1, 1)), 0)
    with pytest.raises(ValueError):
        NormalWord(0, (), -1)


def test_normal_words_are_normalize_fixed_points():
    words = [
        NormalWord(0, (), 0),
        NormalWord(2, ((0, 1),), 0),
        NormalWord(-1, ((-2, 1), (0, 2), (3, 1)), 2),
        NormalWord(0, ((5, 3),), 0),
    ]
    for nw in words:
        x = AlgebraElement.from_word(nw.word())
        for strategy in ("leftmost", "rightmost"):
            assert normalize(x, strategy=strategy) == x


def test_basis_decompose_factorizes():
    nw = NormalWord(-2, ((-1, 1), (2, 2)), 1)
    x = AlgebraElement.from_word(nw.word())
    pairs = basis_decompose(x)
    assert len(pairs) == 1
    word, coeff = pairs[0]
    assert coeff == ONE
    assert word == nw
    assert word.t_factor() == t_word(-2)
    assert word.lc_factor() == (L(-1), L(2), L(2), C)


def test_basis_decompose_rejects_non_normal():
    with pytest.raises(ValueError):
        basis_decompose(elem(L(1), L(0)))


@pytest.mark.parametrize("call, message", [
    (lambda: Presentation({"r5-8.11", "nope"}), "unknown variant 'nope'"),
    (lambda: Presentation(["printed", "r5-8.11", "eq811"]), "unknown variant 'eq811', 'printed'"),
    (lambda: find_redex((L(1), L(0)), "middle"), "unknown strategy 'middle'"),
    (lambda: find_redex((L(1), L(0)), "middle", 0), "unknown strategy 'middle'"),
    (lambda: relation_elements("R6"), "unknown relation 'R6'"),
    (lambda: NormalWord(0, ((1, 0),), 0), "L multiplicities must be positive"),
], ids=["variant", "variants", "strategy", "strategy-start", "relation", "multiplicity"])
def test_unknown_names_and_bad_multiplicities_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_presentation_stores_its_variants_as_a_frozenset():
    for names in (["strict-typos", "r5-8.11"], {"r5-8.11", "strict-typos"},
                  ("r5-8.11", "strict-typos", "r5-8.11")):
        cfg = Presentation(names)
        assert type(cfg.variants) is frozenset
        assert cfg == Presentation(frozenset(freealg.VARIANTS))
        assert hash(cfg) == hash(Presentation(frozenset(freealg.VARIANTS)))
    assert DEFAULT_CONFIG == Presentation([]) and DEFAULT_CONFIG.variants == frozenset()


@pytest.mark.parametrize("name", ["r5-8.11", "strict-typos", ""])
def test_presentation_rejects_a_bare_string(name):
    # a string is a collection of letters, which would read as variant names
    with pytest.raises(TypeError, match="not the string %r" % (name,)):
        Presentation(name)


@given(st.lists(letters_strategy(max_len=7), min_size=1, max_size=3),
       st.sampled_from(["leftmost", "rightmost"]),
       st.tuples(st.sampled_from(["R1", "R2", "R3", "R4", "R5"]),
                 st.integers(-4, 4), st.integers(-3, 3)))
def test_strict_typos_never_changes_rewriting(words, strategy, relation):
    # strict-typos changes no defining relation, so its rule table is a copy
    # of the one without it and reduces every word the same way
    coeffs = {w: ONE for w in words}
    for base in ((), ("r5-8.11",)):
        plain, typos = Presentation(base), Presentation(base + ("strict-typos",))
        assert relation_elements(*relation, typos) == relation_elements(*relation, plain)
        assert freealg._reduce(dict(coeffs), typos, strategy) == \
            freealg._reduce(dict(coeffs), plain, strategy)


def test_random_word_is_seed_deterministic():
    a = [random_word(random.Random(5)) for _ in range(3)]
    b = [random_word(random.Random(5)) for _ in range(3)]
    # same seed, fresh generator each time: identical first draw
    assert a[0] == b[0]
    rng1, rng2 = random.Random(9), random.Random(9)
    assert [random_word(rng1) for _ in range(10)] == [random_word(rng2) for _ in range(10)]
