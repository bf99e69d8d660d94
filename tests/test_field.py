"""Exact arithmetic in the rational function field in p and q."""

import copy
import operator
import pickle
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pqvirasoro import field
from pqvirasoro.field import (
    ONE,
    P,
    PoleError,
    Q,
    RatFunc,
    ZERO,
    evaluate,
    monomial,
    pq_int,
    q_int,
    specialize_p1,
    substitute,
)
from pqvirasoro.freealg import AlgebraElement, L
from pqvirasoro.hopf import TensorElement
from pqvirasoro.oscillator import FockOperator


def ints(lo=-4, hi=4):
    return st.integers(min_value=lo, max_value=hi)


@st.composite
def ratfuncs(draw):
    """Small random field elements built from monomial sums."""
    terms = draw(st.lists(st.tuples(ints(), ints(-3, 3), ints(-3, 3)),
                          min_size=1, max_size=4))
    x = ZERO
    for c, a, b in terms:
        x = x + monomial(c, a, b)
    den = draw(st.sampled_from([ONE, P, Q, P * Q, P - Q, P + Q, ONE + P * Q]))
    return x / den


@st.composite
def nonzero_ratfuncs(draw):
    x = draw(ratfuncs())
    if x.is_zero():
        x = x + ONE
    return x


def test_canonical_form_identifies_equal_fractions():
    lhs = (P * P - Q * Q) / (P - Q)
    assert lhs == P + Q
    assert (P ** 3 - Q ** 3) / (P - Q) == P * P + P * Q + Q * Q


def test_canonical_form_of_one_variable_fractions():
    # (q + 1)(q + 2) / ((1 - q)(q + 2)): the common factor goes, and the sign
    # moves to the numerator so the denominator leads positively
    x = RatFunc({(0, 2): 1, (0, 1): 3, (0, 0): 2}, {(0, 2): -1, (0, 1): -1, (0, 0): 2})
    assert (x.shift, x.num, x.den) == ((0, 0), {(0, 1): -1, (0, 0): -1},
                                       {(0, 1): 1, (0, 0): -1})
    assert str(x) == "-(q + 1)/(q - 1)"
    # 2p(p - 1)(p + 1) / (-4(p + 1)(p - 2)): the factor p moves to the shift
    y = RatFunc({(3, 0): 2, (1, 0): -2}, {(2, 0): -4, (1, 0): 4, (0, 0): 8})
    assert (y.shift, y.num, y.den) == ((1, 0), {(1, 0): -1, (0, 0): 1},
                                       {(1, 0): 2, (0, 0): -4})
    assert str(y) == "-(p^2 - p)/(2*p - 4)"



def test_dict_input_with_negative_exponents():
    # the constructor moves negative exponents into the shift before the
    # dense form reads the exponents as indices
    assert RatFunc({(-1, 2): 1, (1, 0): 1}) == (P * P + Q * Q) / P
    assert RatFunc({(-1, 0): 1}) == P.inverse()
    assert RatFunc({(0, -2): 3, (1, -1): 1}) == (P * Q + 3) / (Q * Q)


def test_zero_and_one_predicates():
    assert ZERO.is_zero() and not ZERO.is_one()
    assert ONE.is_one() and not ONE.is_zero()
    assert not P.is_zero()
    assert (P - P).is_zero()
    assert (P / P).is_one()


def test_monomials():
    m = monomial(3, 2, -1)
    assert m == RatFunc(3) * P * P / Q
    assert m.is_monomial()
    assert not (P + Q).is_monomial()


def test_from_fraction():
    assert RatFunc.from_fraction(Fraction(3, 4)) * RatFunc(4) == RatFunc(3)


def test_integer_powers():
    assert P ** 0 == ONE
    for k in (0.5, Fraction(1, 2), P):
        with pytest.raises(TypeError):
            P ** k
    assert (P + Q) ** 2 == P * P + monomial(2, 1, 1) + Q * Q
    assert (P * Q) ** -2 == monomial(1, -2, -2)
    x = (P + Q) / (P - Q)
    assert x ** -1 == (P - Q) / (P + Q)
    assert x ** 3 * x ** -3 == ONE


@given(st.integers(1, 9), st.booleans(), st.integers(1, 9), ints(-5, 5), ints(-5, 5), ints(-8, 8))
def test_powers_of_monomials_match_repeated_products(c, negative, d, a, b, k):
    """Repeated squaring of (c/d) p^a q^b to the k (c/d = c when d = 1)
    gives what repeated products and inverse() give: value, hash and text,
    with the same canonical (shift, num, den)."""
    x = monomial(-c if negative else c, a, b) / d
    expected = ONE
    for _ in range(abs(k)):
        expected = expected * x
    if k < 0:
        expected = expected.inverse()
    value = x ** k
    assert value == expected and hash(value) == hash(expected)
    assert (value.shift, value.num, value.den) == (expected.shift, expected.num, expected.den)
    assert (str(value), value.latex()) == (str(expected), expected.latex())


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    for num, den in ((1, 0), ({(1, 0): 1}, 0), (P.num, {(0, 0): 0})):
        with pytest.raises(ZeroDivisionError, match="zero denominator"):
            RatFunc(num, den)


def test_string_forms():
    assert str(P + Q) == "p + q"
    assert str(-(P + Q) / (P * Q)) == "-(p + q)/(p*q)"
    assert str(monomial(1, 2, -2)) == "p^2/q^2"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"


def test_quantum_integers():
    assert q_int(0).is_zero()
    assert q_int(1).is_one()
    assert q_int(3) == ONE + Q + Q * Q
    assert pq_int(3) == P * P + P * Q + Q * Q
    assert pq_int(1).is_one()
    # [n](p,q) * (p - q) telescopes
    for n in range(7):
        assert pq_int(n) * (P - Q) == P ** n - Q ** n
        assert q_int(n) * (Q - ONE) == Q ** n - ONE


def test_quantum_integer_addition_rule():
    for m in range(6):
        for n in range(6):
            assert pq_int(m + n) == P ** n * pq_int(m) + Q ** m * pq_int(n)


def test_specialize_p1_degenerates_to_one_parameter():
    for n in range(8):
        assert specialize_p1(pq_int(n)) == q_int(n)


def test_substitute_exact_values():
    x = (P ** 2 - Q ** 2) / (P - Q)
    assert substitute(x, p=2, q=3) == RatFunc(5)
    assert substitute(x, p=Fraction(1, 2)) == Fraction(1, 2) + Q


def test_substitute_pole_detected():
    x = ONE / (P - Q)
    with pytest.raises(PoleError):
        substitute(x, p=2, q=2)


def test_substitute_zero_rejected():
    with pytest.raises(ValueError):
        substitute(P, p=0)


def test_evaluate():
    assert evaluate((P + Q) / (P * Q), 2, 3) == Fraction(5, 6)
    assert evaluate(pq_int(4), 2, 3) == Fraction(2 ** 4 - 3 ** 4, 2 - 3)


polys = st.dictionaries(st.tuples(ints(0, 3), ints(0, 3)), ints(-3, 3).filter(bool),
                        min_size=1, max_size=4)
points = st.sampled_from([Fraction(v) for v in (1, -1, 2, -2, 3)]
                         + [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])


@given(polys, polys, st.tuples(ints(-3, 3), ints(-3, 3)), points, points,
       st.sampled_from(("p", "q", "pq")))
@example({(0, 0): 1}, {(1, 0): 1, (0, 1): -1}, (0, 0), Fraction(2), Fraction(2), "pq")
@example({(1, 0): 1, (0, 1): -1}, {(2, 0): 1, (0, 2): -1}, (0, 0), Fraction(2), Fraction(2), "pq")
@example({(0, 1): 1}, {(1, 0): 1, (0, 0): -2}, (1, -1), Fraction(2), Fraction(1), "p")
@example({(1, 0): 2}, {(0, 2): 1, (0, 0): -4}, (0, 2), Fraction(1), Fraction(-2), "q")
def test_substitute_and_evaluate_agree_with_sympy(num, den, shift, pv, qv, which):
    """Differential check: values, and poles exactly where sympy's reduced
    denominator vanishes at the point."""
    sympy = pytest.importorskip("sympy")
    ps, qs = sympy.symbols("p q")

    def sym(shift, num, den):
        poly = [sum(c * ps ** i * qs ** j for (i, j), c in f.items()) for f in (num, den)]
        return ps ** shift[0] * qs ** shift[1] * poly[0] / poly[1]

    expected = sympy.cancel(sym(shift, num, den))
    kw = {name: v for name, v in (("p", pv), ("q", qv)) if name in which}
    at = {ps if name == "p" else qs: sympy.Rational(v.numerator, v.denominator)
          for name, v in kw.items()}
    x = RatFunc(num, den, shift)
    if sympy.expand(sympy.fraction(expected)[1].subs(at)) == 0:
        with pytest.raises(PoleError, match="denominator vanishes at"):
            substitute(x, **kw)
        if which == "pq":
            with pytest.raises(PoleError):
                evaluate(x, pv, qv)
        return
    value = substitute(x, **kw)
    assert sympy.cancel(sym(value.shift, value.num, value.den) - expected.subs(at)) == 0
    if which == "pq":
        r = expected.subs(at)
        assert evaluate(x, pv, qv) == Fraction(int(r.p), int(r.q))


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x
    assert x * ONE == x
    assert x - x == ZERO


@given(nonzero_ratfuncs())
def test_field_inverses(x):
    assert x * x.inverse() == ONE
    assert (x.inverse()).inverse() == x


@given(ratfuncs(), ratfuncs())
def test_equality_is_canonical(x, y):
    # cross-multiplied comparison agrees with structural equality
    assert (x == y) == (x - y).is_zero()
    assert (x != y) == (not x == y)
    if x == y:
        assert hash(x) == hash(y)


@given(st.integers() | st.fractions())
@example(0)
@example(-1)
def test_constants_hash_as_the_numbers_they_equal(v):
    """A constant equals its int or Fraction, so it hashes as one, and each
    is found in a set of the other."""
    x = RatFunc.from_fraction(Fraction(v))
    assert x == v and hash(x) == hash(v)
    assert x in {v} and v in {x}


@given(ratfuncs())
def test_string_is_stable_under_arithmetic_detours(x):
    y = (x + P) - P
    z = (x * Q) / Q
    assert str(x) == str(y) == str(z)


@given(ratfuncs())
def test_evaluation_is_a_homomorphism(x):
    pt = (Fraction(2), Fraction(3, 2))
    lhs = evaluate(x * x + x, *pt)
    v = evaluate(x, *pt)
    assert lhs == v * v + v


def homogeneous_polys(degree):
    return st.dictionaries(ints(0, degree).map(lambda i: (i, degree - i)),
                           ints(-3, 3).filter(bool), min_size=1, max_size=degree + 1)


def times_pq_int(f, c, k):
    """f times c [k] = c (p^(k-1) + p^(k-2) q + ... + q^(k-1)), the numerator
    of c pq_int(k)."""
    out = {}
    for (i, j), v in f.items():
        for e in range(k):
            out[(i + e, j + k - 1 - e)] = out.get((i + e, j + k - 1 - e), 0) + c * v
    return {m: v for m, v in out.items() if v}


# a factor c [k] of a value's num or den, or none
pq_int_factors = st.none() | st.tuples(ints(-3, 3).filter(bool), ints(1, 8))


@st.composite
def value_parts(draw, homogeneous=None, pq_ints=False):
    """(num, den, shift) of a value, homogeneous or not, not yet reduced;
    with pq_ints, the num or den of a homogeneous value may carry a factor
    c [k]."""
    if homogeneous is None:
        homogeneous = draw(st.booleans())
    if homogeneous:
        num = draw(ints(0, 3).flatmap(homogeneous_polys))
        den = draw(ints(0, 2).flatmap(homogeneous_polys))
    else:
        num, den = draw(polys), draw(polys)
    factor = draw(pq_int_factors) if pq_ints and homogeneous else None
    if factor is not None:
        if draw(st.booleans()):
            num = times_pq_int(num, *factor)
        else:
            den = times_pq_int(den, *factor)
    return num, den, draw(st.tuples(ints(-3, 3), ints(-3, 3)))


@given(value_parts(), ints(-6, 6), ints(-3, 3), ints(-3, 3))
@example(({(1, 0): 3, (0, 1): 1}, {(2, 0): 1, (0, 2): 1}, (-1, 0)), 2, 1, -2)
@example(({(1, 0): 2, (0, 0): 1}, {(0, 1): 4, (0, 0): 2}, (0, 1)), -6, 0, 3)
def test_times_monomial_is_the_product_with_a_monomial(parts, c, a, b):
    """times_monomial, the monomial path of __mul__, against the constructor."""
    num, den, (i, j) = parts
    x = RatFunc(num, den, (i, j))
    expected = RatFunc({m: c * v for m, v in num.items()}, den, (i + a, j + b))
    assert x.times_monomial(c, a, b) == expected
    assert x * monomial(c, a, b) == expected == monomial(c, a, b) * x


@given(value_parts(pq_ints=True), value_parts(pq_ints=True),
       value_parts(homogeneous=True, pq_ints=True),
       st.sampled_from(("independent", "sum is homogeneous", "sum is zero")))
@example(({(1, 0): 1, (0, 0): 1}, {(0, 0): 1}, (0, 0)), ({(0, 0): 1}, {(0, 0): 1}, (0, 0)),
         ({(1, 0): 1}, {(0, 0): 1}, (0, 0)), "sum is homogeneous")
@example(({(1, 1): 2}, {(1, 0): 1, (0, 1): -1}, (-1, 2)), ({(0, 0): 1}, {(0, 0): 1}, (0, 0)),
         ({(0, 0): 1}, {(0, 0): 1}, (0, 0)), "sum is zero")
# 6(p + q)(p + 1) / (4(p + q)(q + 2)): integer and polynomial content shared
@example(({(2, 0): 6, (1, 0): 6, (1, 1): 6, (0, 1): 6}, {(1, 1): 4, (1, 0): 8, (0, 2): 4, (0, 1): 8},
          (0, 0)), ({(0, 1): 1, (0, 0): 2}, {(1, 0): 1, (0, 0): 1}, (0, 0)),
         ({(0, 0): 1}, {(0, 0): 1}, (0, 0)), "independent")
# (6p + 6) / (4q + 2): the GCD is the constant 2
@example(({(1, 0): 6, (0, 0): 6}, {(0, 1): 4, (0, 0): 2}, (0, 0)),
         ({(0, 1): 2, (0, 0): 1}, {(1, 0): 3, (0, 0): 3}, (1, 0)),
         ({(0, 0): 1}, {(0, 0): 1}, (0, 0)), "independent")
# -[8] against a numerator of three terms and over (p + q): products by a run
@example(({(i, 7 - i): -1 for i in range(8)}, {(0, 0): 1}, (0, 0)),
         ({(2, 0): 1, (1, 1): -3, (0, 2): 1}, {(1, 0): 1, (0, 1): 1}, (1, 0)),
         ({(0, 0): 1}, {(0, 0): 1}, (0, 0)), "independent")
def test_arithmetic_agrees_with_sympy(xs, ys, hs, relation):
    """Differential check of +, -, *, / and inverse: each result has sympy's
    value, and the canonical parts and renderings of the same value built
    from sympy's reduced numerator and denominator.  y is drawn so that
    x + y may cancel to a homogeneous value or to zero."""
    sympy = pytest.importorskip("sympy")
    ps, qs = sympy.symbols("p q")

    def sym(num, den, shift):
        poly = [sum(c * ps ** i * qs ** j for (i, j), c in f.items()) for f in (num, den)]
        return ps ** shift[0] * qs ** shift[1] * poly[0] / poly[1]

    def canonical(expr):
        # n/d = (cd * n) / (cn * d) with cn * n and cd * d in Z[p, q]
        (cn, n), (cd, d) = (sympy.Poly(f, ps, qs).clear_denoms()
                            for f in sympy.fraction(sympy.cancel(expr)))
        return RatFunc({m: int(c * cd) for m, c in n.terms() if c},
                       {m: int(c * cn) for m, c in d.terms()})

    x, sx = RatFunc(*xs), sym(*xs)
    if relation == "independent":
        y, sy = RatFunc(*ys), sym(*ys)
    else:
        sy = sympy.cancel((sym(*hs) if relation == "sum is homogeneous" else 0) - sx)
        y = canonical(sy)
    results = [(x + y, sx + sy), (x - y, sx - sy), (x * y, sx * sy)]
    if y:
        results.append((x / y, sx / sy))
    if x:
        results.append((x.inverse(), 1 / sx))
    for value, expected in results:
        assert sympy.cancel(sym(value.num, value.den, value.shift) - expected) == 0
        ref = canonical(expected)
        assert (value.shift, value.num, value.den) == (ref.shift, ref.num, ref.den)
        assert value == ref and hash(value) == hash(ref)
        assert (str(value), value.latex()) == (str(ref), ref.latex())


def schoolbook(F, G):
    """The product of two coefficient tuples, one coefficient pair at a time."""
    out = [0] * (len(F) + len(G) - 1)
    for i, f in enumerate(F):
        for j, g in enumerate(G):
            out[i + j] += f * g
    return tuple(out)


coefficients = st.sampled_from((0, 0, 1, -1, 2, -7, 10 ** 20))


@given(ints(-9, 9).filter(bool) | st.sampled_from((10 ** 20, -(10 ** 20))), ints(1, 50),
       st.lists(coefficients, min_size=1, max_size=40).map(tuple))
@example(1, 16, (1, 0, 2))
@example(-1, 50, (3, 0, 0, -1, 0, 5))
@example(2, 8, (1, 1))
def test_product_by_a_run_is_the_schoolbook_product(c, k, partner):
    """_u_mul against a convolution, for a run c (1, ..., 1) of length k, the
    numerator shape of c [k], on either side of a partner with zeros inside."""
    run = (c,) * k
    expected = schoolbook(partner, run)
    assert field._u_mul(run, partner) == expected
    assert field._u_mul(partner, run) == expected


# ---------------------------------------------------------------------------
# the heuristic GCD with cofactors, against sympy's gcd


def sympy_u_gcd(F, G):
    """sympy's GCD of two coefficient tuples (lowest first), as a tuple."""
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    g = sympy.gcd(sympy.Poly(F[::-1], x), sympy.Poly(G[::-1], x))
    return tuple(int(v) for v in reversed(g.all_coeffs()))


def check_u_cofactors(F, G):
    """_u_cofactors(F, G) is sympy's GCD g, lead positive, with F/g and G/g
    whose products with g give F and G back; returns g."""
    g, a, b = field._u_cofactors(F, G)
    assert g == sympy_u_gcd(F, G) and g[-1] > 0
    assert field._u_mul(g, a) == F and field._u_mul(g, b) == G
    return g


dense_polys = st.lists(ints(-20, 20), min_size=1, max_size=8).map(field._u_trim).filter(bool)


@given(dense_polys, dense_polys, dense_polys)
# the first point, 35, gives the candidate x - 16, which fails; the GCD is 3
@example((1,), (9, 9, 3, -6), (9, 3))
# x^2 + x and x^2 + x + 2 are coprime, yet even at every integer
@example((1,), (0, 1, 1), (2, 1, 1))
# a GCD of two digits whose factor x sits below the lowest coefficient
@example((0, 2, -1), (1, 0, 3), (-5, 1))
def test_u_cofactors_of_products_agree_with_sympy(G, A, B):
    check_u_cofactors(field._u_mul(G, A), field._u_mul(G, B))


@pytest.mark.parametrize("n", range(1, 13))
def test_u_cofactors_of_the_central_dens_agree_with_sympy(n):
    """The den 1 + x^n of the central weight, times 6, against every such
    den of n' <= 12 and against its own square times a numerator."""
    one_plus = (1,) + (0,) * (n - 1) + (1,)
    D = field._u_scale(one_plus, 6)
    for m in range(1, 13):
        check_u_cofactors((1,) + (0,) * (m - 1) + (1,), D)
    check_u_cofactors(field._u_mul(field._u_mul(one_plus, one_plus), (4, -2, 8)), D)


def test_u_cofactors_of_a_high_power_of_a_non_cyclotomic_den():
    """(x + 2)^200 against (x + 2)^37 (x^60 - x^59 + 3): the den a
    primitive PRS took 11 s on."""
    D = ((P + 2 * Q) ** 200)._num
    F = ((P + 2 * Q) ** 37 * (P ** 60 - P ** 59 * Q + 3 * Q ** 60))._num
    assert check_u_cofactors(F, D) == ((P + 2 * Q) ** 37)._num


def as_sympy(f, p, q):
    return sum(c * p ** i * q ** j for (i, j), c in f.items())


def check_p_cofactors(f, g):
    """_p_cofactors(f, g) is sympy's GCD h up to sign, with positive
    graded-lex lead, and f/h and g/h whose products with h give f and g."""
    sympy = pytest.importorskip("sympy")
    h, a, b = field._p_cofactors(f, g)
    assert field._p_lead_coeff(h) > 0
    assert field._p_mul(h, a) == f and field._p_mul(h, b) == g
    p, q = sympy.symbols("p q")
    expected = sympy.Poly(sympy.gcd(as_sympy(f, p, q), as_sympy(g, p, q)), p, q).as_dict()
    assert h in ({m: int(c) for m, c in expected.items()},
                 {m: -int(c) for m, c in expected.items()})


sparse_polys = st.dictionaries(st.tuples(ints(0, 4), ints(0, 4)), ints(-9, 9).filter(bool),
                               min_size=1, max_size=5)


@given(sparse_polys, sparse_polys, sparse_polys)
# a GCD in q alone, whose images at every point are constants
@example({(0, 1): 1, (0, 0): 1}, {(1, 0): 1, (0, 0): 2}, {(1, 0): 1, (0, 1): 3})
# q - 31 vanishes at the first point, so that point gives no image
@example({(0, 0): 1}, {(0, 1): 1, (0, 0): -31}, {(0, 0): 1, (1, 0): 1})
# the first point's candidate, 33 p q^2 + 10 p q^3 + 12 q^2 - 33 q, divides
# neither, so the GCD moves to a larger point
@example({(1, 2): 31, (0, 1): 35}, {(0, 0): 33, (2, 2): -2}, {(0, 2): 33})
def test_p_cofactors_of_products_agree_with_sympy(h, a, b):
    check_p_cofactors(field._p_mul(h, a), field._p_mul(h, b))


def test_p_cofactors_of_the_slow_sparse_witnesses_agree_with_sympy():
    """The dens of a sum and the operands of a quotient that the recursive
    PRS took 35 s and 5.7 s on."""
    x = -(12 * P ** 4 * Q ** 4 + 3 * P * Q ** 6 - P * Q ** 4 - 2 * Q) / (
        2 * P ** 3 * Q ** 5 - 12 * P ** 6 + Q)
    y = 100 * P ** 5 / (P ** 5 * Q ** 4 - P ** 2 * Q ** 6 - P ** 4 * Q ** 3 - P * Q ** 2 - 3 * Q)
    check_p_cofactors(x.den, y.den)
    num = {(131, 100): 1, (132, 73): 1, (98, 40): -183239355520, (36, 66): 833605546387,
           (133, 296): -1}
    check_p_cofactors(field._p_strip(num)[0], {(2, 0): 3, (0, 2): -5})
    assert (x + y) - y == x
    d = 3 * P ** 2 - 5 * Q ** 2
    assert RatFunc(num) / d * d == RatFunc(num)


# ---------------------------------------------------------------------------
# rendering against a reference written from the documented notation


def reference_render(x, latex=False):
    """The notation of a value p^a q^b num / den, from its parts alone.

    The shift is split between num (positive exponents) and den (negative
    ones).  Each polynomial lists its terms in graded-lex order with p > q,
    a term as |c|*p^i*q^j (LaTeX |c| p^{i} q^{j}), leaving out a unit
    coefficient and every zero exponent, and joined by " + " or " - ".  A
    negative leading numerator term puts the sign in front of the whole
    value.  Over den 1 a negated sum reads -(...) (LaTeX -\\left(...\\right));
    LaTeX writes \\frac{num}{den}; text writes num/den, parenthesizing a
    numerator of several terms and any denominator other than an integer or
    a bare power of p or of q."""
    if x.is_zero():
        return "0"
    a, b = x.shift
    times, power = (" ", "%s^{%d}") if latex else ("*", "%s^%d")

    def terms(poly, da, db):
        out = [((i + da, j + db), c) for (i, j), c in poly.items()]
        return sorted(out, key=lambda t: (sum(t[0]), t[0][0]), reverse=True)

    def text(poly_terms):
        out = ""
        for (i, j), c in poly_terms:
            mono = times.join(v if k == 1 else power % (v, k)
                              for v, k in (("p", i), ("q", j)) if k)
            body = mono if abs(c) == 1 and mono else times.join(
                s for s in (str(abs(c)), mono) if s)
            if out:
                out += " - " if c < 0 else " + "
            elif c < 0:
                out += "-"
            out += body
        return out

    num = terms(x.num, max(a, 0), max(b, 0))
    den = terms(x.den, max(-a, 0), max(-b, 0))
    sign = ""
    if num[0][1] < 0:
        sign, num = "-", [(m, -c) for m, c in num]
    ns, ds = text(num), text(den)
    if den == [((0, 0), 1)]:
        if sign and len(num) > 1:
            return ("-\\left(%s\\right)" if latex else "-(%s)") % ns
        return sign + ns
    if latex:
        return "%s\\frac{%s}{%s}" % (sign, ns, ds)
    if len(num) > 1:
        ns = "(%s)" % ns
    (i, j), c = den[0]
    if len(den) > 1 or (i, j) != (0, 0) and (c != 1 or i and j):
        ds = "(%s)" % ds
    return "%s%s/%s" % (sign, ns, ds)


coefficients = st.one_of(st.sampled_from([1, -1]), st.integers(10, 10 ** 15),
                         st.integers(-10 ** 15, -10))
# denominators before the shift, of low degree to keep the GCDs cheap: the
# shift makes bare and mixed powers of p and q of any size
GRADED_DENS = [ONE, RatFunc(12), P + Q, 3 * P ** 2 - 5 * Q ** 2]
SPARSE_DENS = GRADED_DENS + [P + 1, Q ** 3 - 2 * P]


@st.composite
def rendered_values(draw):
    """(value, graded) with exponents 0-300 and shifts of either sign."""
    graded = draw(st.booleans())
    count = draw(st.integers(1, 4))
    if graded:
        degree = draw(st.integers(0, 300))
        count = min(count, degree + 1)
        monos = draw(st.lists(st.integers(0, degree), min_size=count, max_size=count,
                              unique=True))
        monos = [(i, degree - i) for i in monos]
    else:
        monos = draw(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 300)),
                              min_size=count, max_size=count, unique=True))
        if len({i + j for i, j in monos}) == 1:
            monos.append((0, 0) if monos[0] != (0, 0) else (1, 0))
    num = {m: draw(coefficients) for m in monos}
    den = draw(st.sampled_from(GRADED_DENS if graded else SPARSE_DENS))
    shift = draw(st.tuples(st.integers(-300, 300), st.integers(-300, 300)))
    return RatFunc(num, 1, shift) / den, graded


@given(rendered_values())
@example((monomial(-1, 129, -300), True))
@example((monomial(123456789012, -128, 127), True))
@example((RatFunc(-7, 12, (-130, 0)), True))
@example((-(P ** 200 + Q ** 200) / (P ** 129 - Q ** 129), True))
@example(((P ** 150 + 1) / (Q ** 131 - P), False))
def test_rendering_agrees_with_a_reference(drawn):
    """Differential check of str() and latex() against reference_render, over
    graded and sparse values with exponents past any table bound."""
    x, graded = drawn
    if graded:
        assert len({i + j for i, j in x.num}) == len({i + j for i, j in x.den}) == 1
    assert str(x) == reference_render(x)
    assert x.latex() == reference_render(x, latex=True)
    assert str(-x) == reference_render(-x)
    assert (-x).latex() == reference_render(-x, latex=True)


@given(ratfuncs())
@example(RatFunc({(2, 0): 3, (0, 2): -4}, {(2, 0): 1, (0, 2): 1}))
def test_sizes_count_the_terms_and_norms_of_num_and_den(x):
    assert x.sizes() == tuple((len(f), sum(map(abs, f.values()))) for f in (x.num, x.den))


def test_rendering_of_a_negated_sum_in_an_element():
    c = -(P ** 130 + 12 * Q ** 130)
    x = AlgebraElement({(L(1),): c, (L(2),): c / Q ** 140})
    assert str(x) == ("-((p^130 + 12*q^130))*L(1)"
                      " - ((p^130 + 12*q^130)/q^140)*L(2)")
    assert x.latex() == ("-\\left(p^{130} + 12 q^{130}\\right)\\, L_{1}"
                         " - \\frac{p^{130} + 12 q^{130}}{q^{140}}\\, L_{2}")


def assert_renders_as_reference(x):
    for y in (x, -x):
        assert str(y) == reference_render(y)
        assert y.latex() == reference_render(y, latex=True)


# the power tables stop at 128 and the coefficient table at |c| = 1024
EDGE_EXPONENTS = range(126, 130)
EDGE_COEFFICIENTS = [1023, 1024, 1025, 2047, 10 ** 30]


@pytest.mark.parametrize("k", EDGE_EXPONENTS)
def test_rendering_of_exponents_at_the_power_table_bound(k):
    # p^k at the lead end (j0 = 0) and q^k at the tail end (i0 = 0) of one
    # numerator, then each end moved off 0 by a shift, over den 1 and over
    # monomial and polynomial denominators
    values = [P ** k + 3 * Q ** k, P ** k - 5 * P ** (k - 1) * Q + Q ** k,
              P ** k * (P - 3 * Q), Q ** k * (4 * P + Q), P ** 2 * Q ** (k - 2) + Q ** k,
              P ** k + P * Q ** (k - 1), (P ** k + 2 * Q ** k) / (P + Q),
              (P - Q) / P ** k, (P - Q) / Q ** k, 7 * Q / (2 * P ** k * Q ** k),
              P ** k + 1, (Q ** k - P + 3) / P ** k]
    for x in values:
        assert_renders_as_reference(x)


def test_rendering_of_interior_zero_coefficients():
    for x in [P ** 5 - 2 * P ** 3 * Q ** 2 + Q ** 5, P ** 4 * Q + 9 * Q ** 5,
              P ** 130 + 6 * P ** 64 * Q ** 66 - Q ** 130, (P ** 3 + Q ** 3) / Q ** 2,
              (P ** 3 - P * Q ** 2 + 1024 * Q ** 3) / (P ** 2 + Q ** 2), P ** 3 + P + 1]:
        assert_renders_as_reference(x)


@pytest.mark.parametrize("c", [1, 7, RatFunc(2, 3), RatFunc(1, 12)] + EDGE_COEFFICIENTS)
def test_rendering_of_constants_and_coefficients_at_the_table_bound(c):
    for x in [RatFunc(1) * c, c * P, c * Q ** 3, c * P ** 2 * Q, P + c * Q, c * P - Q,
              P ** 2 - c * P * Q + c * Q ** 2, c * P ** 2 + Q, (P + Q) / c, c / P,
              c / (P * Q ** 2), c / (P ** 3 + 1), P ** 2 + c]:
        assert_renders_as_reference(x)


def test_rendering_of_monomial_denominators():
    for x in [1 / P, 1 / Q, 1 / (P * Q), 5 / P ** 3, 5 / Q ** 3, RatFunc(5, 6) / (P * Q ** 2),
              (P + Q) / P, (P + Q) / Q ** 2, (P + Q) / (P ** 2 * Q), (P - 2 * Q) / (3 * P),
              (P ** 2 + Q) / Q, Q / (6 * P ** 4 * Q ** 4)]:
        assert_renders_as_reference(x)


def test_text_tables_hold_at_most_their_bounds():
    # a graded and a sparse numerator of 4,001 distinct coefficients, each
    # term rendered as the reference renders it, and exponents up to 4,000
    graded = RatFunc({(k, 4000 - k): k - 2000 or 1 for k in range(4001)})
    sparse = RatFunc({(k, 0): 3 * k - 6000 or 1 for k in range(4001)})
    for x in (graded, sparse, graded / Q ** 3000, sparse / (P + 1)):
        assert_renders_as_reference(x)
    for coeffs, p_pow, p_mid, q_pow, _, _ in field._NOTATION:
        assert len(coeffs) < 2 * field._COEFF_BOUND
        assert len(p_pow) == len(p_mid) == len(q_pow) == field._POWER_BOUND


def test_rendering_of_a_coefficient_past_the_digit_limit_is_refused():
    limit = sys.get_int_max_str_digits()
    huge = 10 ** (limit + 1)
    message = "a coefficient has more than %d digits and is too long to print" % limit
    for x in [P ** 3 + huge * P * Q ** 2 + Q ** 3, (P + Q) / (huge * P), P + huge]:
        with pytest.raises(ValueError, match=message):
            str(x)
        with pytest.raises(ValueError, match=message):
            x.latex()


# ---------------------------------------------------------------------------
# the den-1 path of __mul__ and __add__ against the general path


def dict_mul(f, g):
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            m = (i1 + i2, j1 + j2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def dict_shifted(f, a, b):
    return {(i + a, j + b): c for (i, j), c in f.items()}


def rebuilt_product(xs, ys):
    """x y rebuilt from the dicts of x and y, through the constructor."""
    (n1, d1, (a1, b1)), (n2, d2, (a2, b2)) = xs, ys
    return RatFunc(dict_mul(n1, n2), dict_mul(d1, d2), (a1 + a2, b1 + b2))


def rebuilt_sum(xs, ys):
    """x + y rebuilt from the dicts of x and y over the den d1 d2."""
    (n1, d1, (a1, b1)), (n2, d2, (a2, b2)) = xs, ys
    a, b = min(a1, a2), min(b1, b2)
    num = dict_shifted(dict_mul(n1, d2), a1 - a, b1 - b)
    for m, c in dict_shifted(dict_mul(n2, d1), a2 - a, b2 - b).items():
        num[m] = num.get(m, 0) + c
    return RatFunc({m: c for m, c in num.items() if c}, dict_mul(d1, d2), (a, b))


def parts_of(x):
    return x.num, x.den, x.shift


@st.composite
def laurent_pairs(draw):
    """(x, y) as (num, den, shift) dicts: x a graded Laurent polynomial and y
    one of the same degree, of any degree, with a den other than 1 (graded
    or not), or -x plus a value of x's degree, so that sums cancel in part
    or to zero."""
    d1 = draw(ints(0, 3))
    a1, b1 = draw(ints(-3, 3)), draw(ints(-3, 3))
    x = (draw(homogeneous_polys(d1)), {(0, 0): 1}, (a1, b1))
    kind = draw(st.sampled_from(("same degree", "any degree", "graded den", "sparse den",
                                 "cancels", "zero")))
    if kind == "cancels":
        part = draw(homogeneous_polys(d1))
        num = {m: part.get(m, 0) - x[0].get(m, 0) for m in set(part) | set(x[0])}
        return x, ({m: c for m, c in num.items() if c} or {(0, d1): 1}, {(0, 0): 1}, (a1, b1))
    if kind == "zero":
        return x, ({m: -c for m, c in x[0].items()}, {(0, 0): 1}, (a1, b1))
    d2 = draw(ints(0, 3))
    a2 = draw(ints(-3, 3))
    b2 = a1 + b1 + d1 - d2 - a2 if kind == "same degree" else draw(ints(-3, 3))
    den = {"graded den": draw(ints(0, 2).flatmap(homogeneous_polys)),
           "sparse den": draw(polys)}.get(kind, {(0, 0): 1})
    return x, (draw(homogeneous_polys(d2)), den, (a2, b2))


@given(laurent_pairs(), st.booleans())
# q (p + q) - (p - q) q: the sum p q + q^2 - p q + q^2 keeps q^2 only
@example((({(1, 0): 1, (0, 1): 1}, {(0, 0): 1}, (0, 1)),
          ({(1, 0): -1, (0, 1): 1}, {(0, 0): 1}, (0, 1))), False)
# p^2 + p q and q^2 - p^2: the sum strips to q (p + q)
@example((({(2, 0): 1, (1, 1): 1}, {(0, 0): 1}, (0, 0)),
          ({(0, 2): 1, (2, 0): -1}, {(0, 0): 1}, (0, 0))), True)
# (p + q) / 6 against 6: the product's den divides down to 1
@example((({(1, 0): 6}, {(0, 0): 1}, (0, 0)),
          ({(1, 0): 1, (0, 1): 1}, {(0, 0): 6}, (0, 0))), False)
def test_den_one_paths_agree_with_the_general_path(pair, swap):
    """x * y and x + y, with or without the den-1 path, equal the value
    rebuilt from dicts, in the same form: graded tuples whenever the value
    is homogeneous, and a graded den of 1 the shared (1,)."""
    xs, ys = (pair[1], pair[0]) if swap else pair
    x, y = RatFunc(*xs), RatFunc(*ys)
    for value, expected in ((x * y, rebuilt_product(xs, ys)), (x + y, rebuilt_sum(xs, ys))):
        assert parts_of(value) == parts_of(expected)
        assert value == expected and hash(value) == hash(expected)
        assert type(value._num) is type(expected._num)
        if type(expected._den) is tuple and expected.is_laurent_polynomial():
            assert value._den is field._ONE_T
        if not value:
            assert value is ZERO


@given(value_parts(pq_ints=True), value_parts(pq_ints=True), ints(-6, 6).filter(bool),
       ints(-2, 2), ints(-2, 2), ints(-3, 3))
# ((p + q)/6).times_monomial(6, 0, 0): a den that g divides down to 1
@example(({(1, 0): 1, (0, 1): 1}, {(0, 0): 6}, (0, 0)), ({(0, 0): 1}, {(0, 0): 1}, (0, 0)),
         6, 0, 0, 1)
def test_den_one_is_always_the_shared_tuple(xs, ys, c, a, b, k):
    """Every graded result whose den is 1, of a product, a quotient, a sum,
    a power or times_monomial, holds the one shared tuple (1,), so the den-1
    path can test it by identity."""
    x, y = RatFunc(*xs), RatFunc(*ys)
    results = [x * y, x + y, x - y, -x, x.times_monomial(c, a, b), x ** abs(k)]
    if y:
        results += [x / y, y.inverse()]
        if k:
            results.append(y ** k)
    for value in results:
        if type(value._den) is tuple and value.is_laurent_polynomial():
            assert value._den is field._ONE_T, value


@given(ints(-9, 9), ints(-4, 4), ints(-4, 4), st.tuples(ints(-3, 3), ints(-3, 3)))
def test_one_entry_maps_are_monomials(c, a, b, shift):
    """RatFunc({(a, b): c}) is monomial(c, a, b) times the shift, with the
    parts of the general constructor path (a dict den takes it)."""
    value = RatFunc({(a, b): c}, 1, shift)
    expected = RatFunc({(a, b): c}, {(0, 0): 1}, shift)
    assert parts_of(value) == parts_of(expected)
    assert value == monomial(c, a + shift[0], b + shift[1])
    assert (type(value._num), type(value._den)) == (tuple, tuple)
    if c:
        assert value._den is field._ONE_T and value.is_monomial()
    else:
        assert value is ZERO


@pytest.mark.parametrize("value", [ZERO, ONE, P + Q, (P + Q) / 6, monomial(-3, 2, -1),
                                   (P + 1) / (Q ** 2 - P)])
def test_copies_and_pickles_are_equal_values_and_leave_zero_alone(value):
    """A copied or unpickled value equals the original in its parts, keeps
    den 1 the shared tuple and zero the shared ZERO, and changes neither."""
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value)), pickle.loads(pickle.dumps(value, 2))):
        assert parts_of(twin) == parts_of(value) and twin == value
        assert type(twin._num) is type(value._num)
        if type(value._den) is tuple and value.is_laurent_polynomial():
            assert twin._den is field._ONE_T
        assert (twin is ZERO) == (not value)
    assert ZERO.is_zero() and ZERO.shift == (0, 0) and ZERO._den is field._ONE_T


def test_float_and_fraction_coefficients_and_exponents_are_refused():
    """A dict entry or a monomial takes ints only; rationals enter through
    RatFunc(n, d) and division, so every value has one canonical form."""
    for make in (lambda: RatFunc({(0, 0): 1.5}),
                 lambda: RatFunc({(1, 0): 2, (0, 1): 0.5}),
                 lambda: RatFunc({(0, 0): Fraction(1, 2)}),
                 lambda: RatFunc({(1, 0): 2, (0, 1): Fraction(1, 2)}),
                 lambda: RatFunc({(0.5, 0): 1}),
                 lambda: RatFunc(1, {(0, 1): 1, (1, 0): 0.5}),
                 lambda: monomial(1.5),
                 lambda: monomial(1, 0.5),
                 lambda: monomial(1, 0, Fraction(1, 2))):
        with pytest.raises(TypeError, match=r"0\.5|1\.5|Fraction\(1, 2\)"):
            make()
    assert RatFunc({(0, 0): 1}) / 2 == RatFunc(1, 2)
    e = RatFunc({(1, 0): 4, (0, 1): 1}) / 2
    assert str(e * e) == "(16*p^2 + 8*p*q + q^2)/4"


def test_bools_are_not_int_coefficients():
    """A bool is refused wherever an int coefficient is taken, so no
    canonical tuple holds one; a constant no longer equals True."""
    for make in (lambda: RatFunc(True), lambda: RatFunc(1, True),
                 lambda: RatFunc({(0, 0): True}), lambda: monomial(True),
                 lambda: AlgebraElement({(L(1),): True}), lambda: RatFunc(1) + True):
        with pytest.raises(TypeError):
            make()
    assert RatFunc._coerce(True) is None
    assert RatFunc(1) != True and RatFunc(0) != False  # noqa: E712
    assert RatFunc(1) == 1 and hash(RatFunc(1)) == hash(1)


@pytest.mark.parametrize("x", [ZERO, ONE, P - Q, (P + Q) / 6, monomial(-3, 2, -1),
                               (P + 1) / (Q ** 2 - P)])
@pytest.mark.parametrize("scalar", [0, 1, -7, Fraction(-3, 4), RatFunc(5, 2), P * Q])
def test_int_and_fraction_operands_agree_with_ratfunc_operands(x, scalar):
    """An int, Fraction or RatFunc on either side of + - * / gives the value
    and the parts of the all-RatFunc expression; a float or a str operand,
    on either side, is a TypeError."""
    s = RatFunc._coerce(scalar)
    pairs = [(x + scalar, x + s), (scalar + x, s + x), (x - scalar, x - s),
             (scalar - x, s - x), (x * scalar, x * s), (scalar * x, s * x)]
    if s:
        pairs.append((x / scalar, x / s))
    if x:
        pairs.append((scalar / x, s / x))
    for mixed, pure in pairs:
        assert type(mixed) is RatFunc and mixed == pure and parts_of(mixed) == parts_of(pure)
    for bad in (1.5, "2"):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(TypeError):
                op(x, bad)
            with pytest.raises(TypeError):
                op(bad, x)


class Named(field.LinComb):
    """A combination of named keys, each rendered as its name."""

    __slots__ = ()
    _PAREN_CHARS = "+"

    @staticmethod
    def _key_str(key, latex):
        return key


def test_lincombs_hash_by_value_and_repr_as_their_type_and_text():
    x = Named({"a": P + Q, "b": 0, "c": Fraction(1, 2)})
    y = Named({"c": RatFunc(1, 2), "a": Q + P})
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert x != Named({"a": P + Q}, shape=2) and x != {"a": P + Q}
    for other in (1, P, {"a": P + Q}, AlgebraElement()):
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(x, other)
    assert repr(x) == "Named((p + q)*a + 1/2*c)"


@pytest.mark.parametrize("scalar", [Fraction(1, 2), 3, RatFunc(1, 2) * P])
def test_every_element_type_takes_the_same_coefficients(scalar):
    """int, Fraction and RatFunc enter algebra, tensor and Fock elements
    alike, through the constructor, scale and multiplication by a scalar;
    anything else is a TypeError."""
    value = RatFunc._coerce(scalar)
    for make, key in ((AlgebraElement, (L(2), L(1))),
                      (lambda terms: TensorElement(2, terms), ((L(1),), ())),
                      (lambda terms: FockOperator(3, terms), (0, 2))):
        x = make({key: scalar})
        assert x.terms == {key: value} and type(x.terms[key]) is RatFunc
        str(x)  # every coefficient renders
        one = make({key: 1})
        assert one.scale(scalar) == scalar * one == one * scalar == x
        for bad in (1.5, "2", None, True):
            with pytest.raises(TypeError):
                make({key: bad})
            with pytest.raises(TypeError):
                one.scale(bad)
            with pytest.raises(TypeError):
                bad * one
            with pytest.raises(TypeError):
                one * bad
    tensor = TensorElement(2, {((L(1),), ()): 1})
    with pytest.raises(TypeError):
        tensor * tensor
    x = AlgebraElement({(L(2), L(1)): Fraction(1, 2)})
    assert str(x) == "1/2*L(2) L(1)"
    assert Fraction(1, 2) * AlgebraElement.from_word((L(1),)) == \
        AlgebraElement.from_word((L(1),)) * Fraction(1, 2) == \
        AlgebraElement.from_word((L(1),)).scale(Fraction(1, 2))
