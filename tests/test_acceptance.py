"""Acceptance gate: nine numbered criteria, one printed line each.

Every check is exact (zero-tolerance symbolic equality) and carries a
wall-clock budget. Criteria 5 and 7 are red by design: the reduction
system is not confluent, so the two reduction strategies genuinely
disagree on some words and some Hopf-axiom checks computed through
intermediate normal forms pick up nonzero residuals. Those failures are
kept visible rather than papered over; the per-module tests pin the
witnesses and show which residuals vanish when the same computations
are carried out in the free algebra with a single final reduction.
"""

import itertools
import random
import time

from pqvirasoro.field import ONE
from pqvirasoro.freealg import (
    AlgebraElement,
    C,
    L,
    NormalWord,
    Presentation,
    RELATION_NAMES,
    T,
    TINV,
    basis_decompose,
    multiply,
    normalize,
    random_word,
    relation_elements,
    t_word,
)
from pqvirasoro.homlie import hom_jacobi_residual, skew_residual
from pqvirasoro.hopf import (
    antipode_squared,
    check_antipode,
    check_coassoc,
    check_counit,
    check_relation_preservation,
    generators,
)
from pqvirasoro.oscillator import (
    element_image,
    lowering_coeff,
    lowering_coeff_iterative,
    make_oscillator,
    safe_columns,
    verify_bracket,
    verify_power_commutator,
    word_image,
)


def report(capsys, num, t0, budget, ok, detail=""):
    elapsed = time.time() - t0
    verdict = "PASS" if ok and elapsed < budget else "FAIL"
    line = f"criterion {num}: {verdict} ({elapsed:.2f}s)"
    if detail and verdict == "FAIL":
        line += f"  [{detail}]"
    with capsys.disabled():
        print(line, flush=True)
    assert elapsed < budget, f"criterion {num} exceeded {budget}s budget"
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_power_commutators(capsys):
    t0 = time.time()
    bad = []
    for mode in ("one_param", "two_param"):
        osc = make_oscillator(16, mode)
        for n in range(1, 7):
            if not verify_power_commutator(n, osc).is_zero():
                bad.append((mode, n))
    report(capsys, 1, t0, 10.0, not bad, f"nonzero residuals: {bad}")


def test_criterion_2_one_param_bracket(capsys):
    t0 = time.time()
    osc = make_oscillator(20, "one_param")
    bad = [
        (n, m)
        for n in range(-1, 6)
        for m in range(-1, 6)
        if not verify_bracket(n, m, osc).is_zero()
    ]
    report(capsys, 2, t0, 30.0, not bad, f"nonzero residuals: {bad}")


def test_criterion_3_two_param_bracket_and_oracle(capsys):
    t0 = time.time()
    osc = make_oscillator(20, "two_param")
    bad = [
        (n, m)
        for n in range(-1, 6)
        for m in range(-1, 6)
        if not verify_bracket(n, m, osc).is_zero()
    ]
    oracle_ok = all(
        lowering_coeff(k, mode) == lowering_coeff_iterative(k, mode)
        for mode in ("classical", "one_param", "two_param")
        for k in range(31)
    )
    report(capsys, 3, t0, 30.0, not bad and oracle_ok,
           f"bracket residuals: {bad}, oracle ok: {oracle_ok}")


def test_criterion_4_homlie_axioms(capsys):
    t0 = time.time()
    skew_bad = [
        (n, m)
        for n in range(-8, 9)
        for m in range(-8, 9)
        if not skew_residual(n, m).is_zero()
    ]
    jacobi_bad = [
        (n, m, k)
        for n in range(-5, 6)
        for m in range(-5, 6)
        for k in range(-5, 6)
        if not hom_jacobi_residual(n, m, k).is_zero()
    ]
    central_bad = [
        (n, m, -n - m)
        for n in range(-5, 6)
        for m in range(-5, 6)
        if not hom_jacobi_residual(n, m, -n - m).is_zero()
    ]
    ok = not skew_bad and not jacobi_bad and not central_bad
    report(capsys, 4, t0, 120.0, ok,
           f"skew: {len(skew_bad)}, jacobi: {len(jacobi_bad)}, central: {len(central_bad)}")


def enumerate_normal_words():
    """All NormalWords with T-power in [-2, 2], L-indices in [-3, 3],
    and combined L/C degree at most 3."""
    out = []
    indices = range(-3, 4)
    for t_exp in range(-2, 3):
        for total in range(4):
            for c_exp in range(total + 1):
                l_degree = total - c_exp
                for combo in itertools.combinations_with_replacement(indices, l_degree):
                    l_part = tuple((n, len(list(g))) for n, g in itertools.groupby(combo))
                    out.append(NormalWord(t_exp, l_part, c_exp))
    return out


def test_criterion_5_strategy_agreement_and_basis(capsys):
    t0 = time.time()
    rng = random.Random(0)
    mismatches = 0
    for _ in range(500):
        w = random_word(rng, max_len=12, index_range=(-6, 6))
        x = AlgebraElement.from_word(w)
        if normalize(x, strategy="leftmost") != normalize(x, strategy="rightmost"):
            mismatches += 1
    words = enumerate_normal_words()
    fixed_bad = 0
    seen = set()
    for nw in words:
        x = AlgebraElement.from_word(nw.word())
        if normalize(x) != x or normalize(x, strategy="rightmost") != x:
            fixed_bad += 1
        seen.add(nw.word())
    distinct_ok = len(seen) == len(words)
    ok = mismatches == 0 and fixed_bad == 0 and distinct_ok
    report(capsys, 5, t0, 120.0, ok,
           f"strategy mismatches: {mismatches}/500, non-fixed normal words: {fixed_bad}, "
           f"pairwise distinct: {distinct_ok}")


def test_criterion_6_relations_and_cross_oracle(capsys):
    t0 = time.time()
    rel_bad = []
    for name in RELATION_NAMES:
        for n in range(-6, 7):
            for m in range(-6, 7):
                for el in relation_elements(name, n, m):
                    if not normalize(el).is_zero():
                        rel_bad.append((name, n, m))
    osc = make_oscillator(16, "two_param")
    cross_bad = []
    for pair in itertools.product(range(-1, 5), repeat=2):
        word = tuple(L(n) for n in pair)
        cols = safe_columns(16, 2, 4)
        direct = word_image(word, osc)
        for strategy in ("leftmost", "rightmost"):
            nf = normalize(AlgebraElement.from_word(word), strategy=strategy)
            if not (element_image(nf, osc) - direct).is_zero_on(cols):
                cross_bad.append((pair, strategy))
    for triple in itertools.product(range(-1, 4), repeat=3):
        word = tuple(L(n) for n in triple)
        cols = safe_columns(16, 3, 3)
        direct = word_image(word, osc)
        nf = normalize(AlgebraElement.from_word(word))
        if not (element_image(nf, osc) - direct).is_zero_on(cols):
            cross_bad.append((triple, "leftmost"))
    ok = not rel_bad and not cross_bad
    report(capsys, 6, t0, 60.0, ok,
           f"relation residuals: {len(rel_bad)}, image mismatches: {len(cross_bad)}")


def test_criterion_7_hopf_axioms(capsys):
    t0 = time.time()
    gens = generators(6)
    axiom_bad = {"coassoc": 0, "counit": 0, "antipode": 0}
    pool = [g for _, g in gens]
    arguments = pool + [multiply(g1, g2) for g1 in pool for g2 in pool]
    for x in arguments:
        if not check_coassoc(x).is_zero():
            axiom_bad["coassoc"] += 1
        r1, r2 = check_counit(x)
        if not (r1.is_zero() and r2.is_zero()):
            axiom_bad["counit"] += 1
        a1, a2 = check_antipode(x)
        if not (a1.is_zero() and a2.is_zero()):
            axiom_bad["antipode"] += 1
    delta_r4_bad = 0
    for n in range(-6, 7):
        for m in range(-6, 7):
            for r in check_relation_preservation("delta", "R4", n, m):
                if not r.is_zero():
                    delta_r4_bad += 1
    s_rel_bad = {name: 0 for name in RELATION_NAMES}
    for name in RELATION_NAMES:
        for n in range(-6, 7):
            for m in range(-6, 7):
                for r in check_relation_preservation("antipode", name, n, m):
                    if not r.is_zero():
                        s_rel_bad[name] += 1
    letters = [T, TINV, C] + [L(n) for n in range(-4, 5)]
    s2_bad = 0
    for length in (1, 2, 3):
        for combo in itertools.product(letters, repeat=length):
            if not antipode_squared(AlgebraElement.from_word(combo)).is_zero():
                s2_bad += 1
    ok = (
        not any(axiom_bad.values())
        and delta_r4_bad == 0
        and not any(s_rel_bad.values())
        and s2_bad == 0
    )
    report(capsys, 7, t0, 180.0, ok,
           f"axiom failures: {axiom_bad}, delta-R4: {delta_r4_bad}, "
           f"S-relations: {s_rel_bad}, S^2: {s2_bad}/1884")


def test_criterion_8_basis_factorization(capsys):
    t0 = time.time()
    words = enumerate_normal_words()
    pairs = set()
    round_trip_bad = 0
    for nw in words:
        x = AlgebraElement.from_word(nw.word())
        decomposed = basis_decompose(x)
        if len(decomposed) != 1:
            round_trip_bad += 1
            continue
        back, coeff = decomposed[0]
        if back != nw or coeff != ONE:
            round_trip_bad += 1
            continue
        pairs.add((back.t_factor(), back.lc_factor()))
    # counting: T-powers and L/C-monomials pair independently
    t_parts = {t_word(d) for d in range(-2, 3)}
    lc_parts = {nw.lc_factor() for nw in words}
    count_ok = (
        len(words) == len(pairs) == len(t_parts) * len(lc_parts)
        and len(words) == 825
    )
    ok = round_trip_bad == 0 and count_ok
    report(capsys, 8, t0, 10.0, ok,
           f"round-trip failures: {round_trip_bad}, words: {len(words)}, "
           f"pairs: {len(pairs)}, product: {len(t_parts)}x{len(lc_parts)}")


def test_criterion_9_variant_demonstrations(capsys):
    t0 = time.time()
    strict = Presentation({"strict-typos"})
    c = AlgebraElement.from_word((C,))
    r1, r2 = check_counit(c, strict)
    strict_breaks_counit = not r1.is_zero() or not r2.is_zero()
    standard_ok = all(
        r.is_zero()
        for n in range(-2, 3)
        for r in check_relation_preservation("delta", "R5", n, 0)
    )
    eq811 = Presentation({"r5-8.11"})
    eq811_sound = all(
        normalize(el, eq811).is_zero()
        for n in range(-2, 3)
        for el in relation_elements("R5", n, 0, cfg=eq811)
    )
    eq811_delta_differs = any(
        not r.is_zero()
        for n in (-2, -1, 1, 2)
        for r in check_relation_preservation("delta", "R5", n, 0, eq811)
    )
    ok = strict_breaks_counit and standard_ok and eq811_sound and eq811_delta_differs
    report(capsys, 9, t0, 10.0, ok,
           f"strict counit broken: {strict_breaks_counit}, standard preserved: {standard_ok}, "
           f"variant sound: {eq811_sound}, variant image differs: {eq811_delta_differs}")
