"""Twisted bracket, central extension, and the twisted Jacobi identity."""

from hypothesis import given
from hypothesis import strategies as st

from pqvirasoro.field import ONE, P, Q, monomial, pq_int
from pqvirasoro.freealg import bracket_coeff, central_coeff
from pqvirasoro.homlie import (
    HomLieElement,
    alpha,
    alpha_bracket_gap,
    hom_jacobi_residual,
    plain_jacobi_residual,
    skew_residual,
    structure_constant_records,
    vbracket,
)

window = st.integers(min_value=-6, max_value=6)


def test_element_basics():
    x = HomLieElement.lgen(2) + HomLieElement.cgen()
    assert not x.is_zero()
    assert (x - x).is_zero()
    assert x + HomLieElement.zero() == x
    y = HomLieElement.lgen(2, P) + HomLieElement.lgen(2, Q)
    assert y == HomLieElement.lgen(2, P + Q)
    assert (HomLieElement.lgen(0) - HomLieElement.lgen(0)).is_zero()


def test_element_str():
    x = HomLieElement.lgen(-1) - HomLieElement.cgen()
    s = str(x)
    assert "L(-1)" in s and "C" in s
    assert str(HomLieElement.zero()) == "0"


def test_bracket_structure_constants_match_rewriting_layer():
    for n in range(-5, 6):
        for m in range(-5, 6):
            b = vbracket(HomLieElement.lgen(n), HomLieElement.lgen(m))
            expected = HomLieElement.lgen(n + m, bracket_coeff(n, m))
            if n + m == 0:
                expected = expected + HomLieElement.cgen(central_coeff(n))
            assert b == expected, (n, m)


def test_central_g_reflection_and_low_zeros():
    for n in range(0, 11):
        assert central_coeff(-n) == -central_coeff(n)
    for n in (-1, 0, 1):
        assert central_coeff(n).is_zero()
    assert not central_coeff(2).is_zero()


def test_central_element_is_central():
    c = HomLieElement.cgen()
    for n in (-3, 0, 4):
        assert vbracket(c, HomLieElement.lgen(n)).is_zero()
        assert vbracket(HomLieElement.lgen(n), c).is_zero()
    assert vbracket(c, c).is_zero()


def test_twist_scales_generators():
    x = alpha(HomLieElement.lgen(3))
    assert x == HomLieElement.lgen(3, ONE + monomial(1, -3, 3))
    assert alpha(HomLieElement.cgen()) == HomLieElement.cgen()


@given(window, window)
def test_bracket_skew_symmetric(n, m):
    assert skew_residual(n, m).is_zero()


@given(window, window)
def test_bracket_bilinear(n, m):
    x = HomLieElement.lgen(n, P) + HomLieElement.lgen(m, Q)
    y = HomLieElement.lgen(1)
    lhs = vbracket(x, y)
    rhs = vbracket(HomLieElement.lgen(n), y).scale(P) + vbracket(HomLieElement.lgen(m), y).scale(Q)
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
    # the gap is concentrated on L_{n+m}
    assert set(gap.l) == {3}
    assert gap.c.is_zero()


def test_structure_constant_records():
    records = structure_constant_records(1)
    assert len(records) == 9
    by_pair = {(r["n"], r["m"]): r for r in records}
    assert by_pair[(1, -1)]["coeff_L"] == "-(p + q)/(p*q)"
    assert by_pair[(1, -1)]["coeff_C"] == "0"
    assert by_pair[(0, 0)]["coeff_L"] == "0"
    assert by_pair[(-1, 1)]["coeff_L"] == "(p + q)/(p*q)"
