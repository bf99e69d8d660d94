"""Twisted bracket, central extension, and the twisted Jacobi identity."""

import itertools
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqvirasoro.field import ONE, P, Q, monomial
from pqvirasoro.freealg import (
    INDEX_BOUND,
    AlgebraElement,
    C,
    L,
    bracket_coeff,
    central_coeff,
    twist_weight,
)
from pqvirasoro import homlie
from pqvirasoro.homlie import (
    alpha,
    alpha_bracket_gap,
    hom_jacobi_residual,
    plain_jacobi_residual,
    skew_residual,
    twisted_env,
    vbracket,
)

window = st.integers(min_value=-6, max_value=6)


def gen(n, coeff=ONE):
    return AlgebraElement.from_word((L(n),), coeff)


def cgen(coeff=ONE):
    return AlgebraElement.from_word((C,), coeff)


def test_element_basics():
    x = gen(2) + cgen()
    assert not x.is_zero()
    assert (x - x).is_zero()
    assert x + AlgebraElement.zero() == x
    y = gen(2, P) + gen(2, Q)
    assert y == gen(2, P + Q)
    assert (gen(0) - gen(0)).is_zero()


@pytest.mark.parametrize("word", [(L(1), L(2)), ()])
def test_bracket_and_twist_take_only_one_letter_words(word):
    x = gen(1) + AlgebraElement.from_word(word)
    with pytest.raises(ValueError):
        vbracket(x, gen(2))
    with pytest.raises(ValueError):
        vbracket(cgen(), x)
    with pytest.raises(ValueError):
        alpha(x)


def test_bracket_structure_constants_match_rewriting_layer():
    for n in range(-5, 6):
        for m in range(-5, 6):
            b = vbracket(gen(n), gen(m))
            expected = gen(n + m, bracket_coeff(n, m))
            if n + m == 0:
                expected = expected + cgen(central_coeff(n))
            assert b == expected, (n, m)


def test_central_g_reflection_and_low_zeros():
    for n in range(0, 11):
        assert central_coeff(-n) == -central_coeff(n)
    for n in (-1, 0, 1):
        assert central_coeff(n).is_zero()
    assert not central_coeff(2).is_zero()


def test_central_element_is_central():
    c = cgen()
    for n in (-3, 0, 4):
        assert vbracket(c, gen(n)).is_zero()
        assert vbracket(gen(n), c).is_zero()
    assert vbracket(c, c).is_zero()


def test_twist_scales_generators():
    x = alpha(gen(3))
    assert x == gen(3, ONE + monomial(1, -3, 3))
    assert alpha(cgen()) == cgen()


@given(window, window)
def test_bracket_skew_symmetric(n, m):
    assert skew_residual(n, m).is_zero()


@given(window, window)
def test_bracket_bilinear(n, m):
    x = gen(n, P) + gen(m, Q)
    y = gen(1)
    lhs = vbracket(x, y)
    rhs = vbracket(gen(n), y).scale(P) + vbracket(gen(m), y).scale(Q)
    assert lhs == rhs


def test_twisted_jacobi_holds_on_window():
    for n in range(-4, 5):
        for m in range(-4, 5):
            for k in range(-4, 5):
                assert hom_jacobi_residual(n, m, k).is_zero(), (n, m, k)


def test_twisted_jacobi_covers_central_triples():
    # triples with n + m + k = 0 exercise the central terms
    for n in range(-5, 6):
        for m in range(-5, 6):
            assert hom_jacobi_residual(n, m, -n - m).is_zero()


def _all_vbracket_jacobi_sum(outer, n, m, k):
    """The cyclic sum with every bracket, inner ones too, through vbracket."""
    ln, lm, lk = gen(n), gen(m), gen(k)
    return (
        vbracket(outer(ln), vbracket(lm, lk))
        + vbracket(outer(lm), vbracket(lk, ln))
        + vbracket(outer(lk), vbracket(ln, lm))
    )


@pytest.mark.parametrize("residual, outer", [
    (hom_jacobi_residual, alpha),
    (plain_jacobi_residual, lambda x: x),
])
def test_jacobi_residuals_match_the_all_vbracket_sum(monkeypatch, residual, outer):
    """Reading every bracket from the tables changes no residual, and no
    residual calls vbracket."""
    calls = []

    def spy(x, y):
        calls.append((x, y))
        return vbracket(x, y)

    triples = list(itertools.product(range(-4, 5), repeat=3))
    assert sum(n + m + k == 0 for n, m, k in triples) == 61
    for n, m, k in triples:
        expected = _all_vbracket_jacobi_sum(outer, n, m, k)
        with monkeypatch.context() as patch:
            patch.setattr(homlie, "vbracket", spy)
            got = residual(n, m, k)
        assert got == expected, (n, m, k)
    assert calls == []


def test_twisted_env_is_the_twisted_bracket():
    for n in range(-13, 14):
        for j in range(-13, 14):
            assert twisted_env(n, j) == vbracket(alpha(gen(n)), gen(j)), (n, j)
        assert twisted_env(n, -n).coefficient((C,)) == \
            twist_weight(n) * central_coeff(n)


def test_skew_and_gap_are_the_element_brackets():
    """The table forms equal the brackets of built generators, in value
    and in text."""
    for n in range(-6, 7):
        for m in range(-6, 7):
            skew = vbracket(gen(n), gen(m)) + vbracket(gen(m), gen(n))
            gap = vbracket(alpha(gen(n)), alpha(gen(m))) - alpha(vbracket(gen(n), gen(m)))
            assert (skew_residual(n, m), str(skew_residual(n, m))) == (skew, str(skew))
            assert (alpha_bracket_gap(n, m), str(alpha_bracket_gap(n, m))) == (gap, str(gap))


@pytest.mark.parametrize("check", [skew_residual, alpha_bracket_gap])
def test_pair_checks_reject_indices_first(check, monkeypatch):
    # they read the tables alone, so a vbracket call would fail here
    monkeypatch.setattr(homlie, "vbracket", None)
    check(1, 2)
    with pytest.raises(TypeError):
        check(1.0, 2)
    start = time.perf_counter()
    for args in ((INDEX_BOUND, 0), (0, -INDEX_BOUND), (INDEX_BOUND - 1, 1)):
        with pytest.raises(ValueError, match="out of range"):
            check(*args)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("residual", [hom_jacobi_residual, plain_jacobi_residual])
def test_jacobi_residuals_check_indices_on_a_warm_table(residual):
    # with the tables warm, lru_cache would answer a float key such as
    # twisted_env(1.0, 5) from the int key (1, 5) and check nothing
    residual(1, 2, 3)
    bound = INDEX_BOUND
    for args in ((1.0, 2, 3), (1, 2.0, 3), (1, 2, 3.0)):
        with pytest.raises(TypeError):
            residual(*args)
    start = time.perf_counter()
    for args in ((bound, 0, 0), (0, bound, -1), (0, 0, -bound)):
        with pytest.raises(ValueError, match="out of range"):
            residual(*args)
    assert time.perf_counter() - start < 1.0


def test_plain_jacobi_fails_without_the_twist():
    res = plain_jacobi_residual(1, 2, 4)
    assert not res.is_zero()
    hits = [
        (n, m, k)
        for n in range(1, 4)
        for m in range(1, 4)
        for k in range(1, 5)
        if not plain_jacobi_residual(n, m, k).is_zero()
    ]
    assert hits


def test_twist_is_not_a_bracket_map():
    gap = alpha_bracket_gap(1, 2)
    assert not gap.is_zero()
    # the gap is concentrated on L_{n+m}, with no C part
    assert set(gap.terms) == {(L(3),)}
