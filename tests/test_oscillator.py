"""The exact oscillator algebra, its truncated matrix views and the guarded verifications."""

import dataclasses
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pqvirasoro import oscillator
from pqvirasoro.field import (
    ONE, P, PoleError, Q, RatFunc, ZERO, monomial, pq_int, pq_ladder, q_int,
)
from pqvirasoro.freealg import (
    INDEX_BOUND, AlgebraElement, C, L, T, TINV, bracket_coeff, central_coeff, normalize,
    relation_elements, twist_weight,
)
from pqvirasoro.oscillator import (
    DifferenceOperator,
    FockOperator,
    MODES,
    Oscillator,
    bracket_residual,
    element_image,
    exact_L,
    lowering_coeff,
    lowering_coeff_iterative,
    make_L,
    make_oscillator,
    power_residual,
    power_weights,
    safe_columns,
    verify_bracket,
    verify_power_commutator,
    word_image,
)


def deformed_commutator(A, B, alpha, beta):
    """alpha A B - beta B A, from the truncated product."""
    return A * B * alpha - B * A * beta


def truncated_image(x, osc):
    """The image of x through products of truncated matrices, C going to
    zero and each coefficient taken at the mode's point."""
    out = FockOperator(osc.dim)
    for word, coeff in x.terms.items():
        if C not in word:
            image = FockOperator.identity(osc.dim).scale(oscillator._at_mode(osc.mode, coeff)[0])
            for letter in word:
                image = image * make_L(letter, osc)
            out = out + image
    return out


def r4_weights(n, m, mode):
    """(alpha, beta, gamma) of R4 = alpha L(n) L(m) - beta L(m) L(n)
    - gamma L(n+m) - ..., read from relation_elements at the mode's point,
    for n != m."""
    (rel,) = relation_elements("R4", n, m)
    return oscillator._at_mode(mode, rel.coefficient((L(n), L(m))),
                               -rel.coefficient((L(m), L(n))), -rel.coefficient((L(n + m),)))


def fock_power(x, n):
    """x^n as n truncated products."""
    out = FockOperator.identity(x.dim)
    for _ in range(n):
        out = out * x
    return out


def test_mode_list():
    assert MODES == ("classical", "one_param", "two_param")


def test_lowering_coeff_closed_forms():
    for k in range(12):
        assert lowering_coeff(k, "classical") == ZERO + k
        assert lowering_coeff(k, "one_param") == q_int(k)
        assert lowering_coeff(k, "two_param") == pq_int(k) * monomial(1, -k, 0)


def test_lowering_coeff_matches_recurrence_oracle():
    for mode in MODES:
        for k in range(31):
            assert lowering_coeff(k, mode) == lowering_coeff_iterative(k, mode)


def test_mode_constants_match_hand_written_forms():
    """The per-mode constants as they were once written out by hand, kept
    as the reference for their derivation from the two-parameter ones:
    R4's weights at the mode's point are the mode's bracket weights."""
    lowering = {
        "classical": lambda k: RatFunc(k),
        "one_param": q_int,
        "two_param": pq_ladder,
    }
    bracket = {
        "classical": lambda n, m: (ONE, ONE, RatFunc(m - n)),
        "one_param": lambda n, m: (Q ** n, Q ** m, q_int(m) - q_int(n)),
        "two_param": lambda n, m: (monomial(1, -n, n), monomial(1, -m, m), bracket_coeff(n, m)),
    }
    power = {
        "classical": lambda n: (ONE, ONE, RatFunc(n)),
        "one_param": lambda n: (ONE, Q ** n, q_int(n)),
        "two_param": lambda n: (P ** n, Q ** n, pq_int(n)),
    }
    for mode in MODES:
        for k in range(31):
            assert lowering_coeff(k, mode) == lowering[mode](k), (mode, k)
        for n in range(-1, 9):
            assert power_weights(n, mode) == power[mode](n), (mode, n)
            for m in range(-1, 9):
                if m != n:
                    assert r4_weights(n, m, mode) == bracket[mode](n, m), (mode, n, m)
    for fn, args in ((lowering_coeff, (3,)), (r4_weights, (1, 2)), (power_weights, (3,))):
        with pytest.raises(ValueError, match="unknown mode 'quantum'"):
            fn(*args, "quantum")


def test_ladder_matrix_shape():
    osc = make_oscillator(6, "two_param")
    # a e_k = lam_k e_{k-1}, a+ e_k = e_{k+1}
    assert osc.a.column(0) == {}
    assert osc.a.column(3) == {2: lowering_coeff(3, "two_param")}
    assert osc.a_plus.column(2) == {3: ONE}
    assert osc.a_plus.column(5) == {}  # truncated top
    a, a_plus = osc
    assert a == osc.a and a_plus == osc.a_plus


def test_defining_relation_on_guarded_columns():
    for mode, alpha, beta in [
        ("two_param", P, Q),
        ("one_param", ONE, Q),
        ("classical", ONE, ONE),
    ]:
        osc = make_oscillator(9, mode)
        rel = deformed_commutator(osc.a, osc.a_plus, alpha, beta) - FockOperator.identity(9)
        assert rel.is_zero_on(safe_columns(9, 2, 1))
        # and the relation genuinely fails on the truncation boundary
        assert not rel.is_zero()


def test_operator_arithmetic():
    osc = make_oscillator(5, "classical")
    x = osc.a + osc.a_plus
    assert x - osc.a_plus == osc.a
    assert (x - x).is_zero()
    assert (osc.a.scale(ZERO)).is_zero()
    two = osc.a.scale(ONE + ONE)
    assert two == osc.a + osc.a


def test_dimension_mismatch_rejected():
    a = make_oscillator(4, "classical").a
    b = make_oscillator(5, "classical").a
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_make_L_low_cases():
    osc = make_oscillator(8, "two_param")
    assert make_L(-1, osc) == osc.a
    l0 = make_L(0, osc)
    for k in range(8):
        assert l0.column(k) == ({k: lowering_coeff(k, "two_param")} if k else {})
    with pytest.raises(ValueError):
        make_L(-2, osc)


@pytest.mark.parametrize("dim", (3, 7, 40))
@pytest.mark.parametrize("mode", MODES)
def test_make_L_is_the_defining_product(mode, dim):
    """The entries of a, shifted up by n + 1 rows, are (a+)^(n+1) a,
    which is zero exactly when n >= dim - 1."""
    osc = make_oscillator(dim, mode)
    raising = FockOperator.identity(dim)  # (a+)^(n+1)
    for n in range(-1, dim + 3):
        gen = make_L(n, osc)
        assert gen == raising * osc.a, n
        assert gen.is_zero() == (n >= dim - 1), n
        raising = raising * osc.a_plus


def test_changing_a_returned_generator_leaves_later_results_intact():
    osc = make_oscillator(6, "two_param")
    expected = fock_power(osc.a_plus, 3) * osc.a
    make_L(2, osc).terms.clear()
    assert make_L(2, osc) == expected
    make_L(2, osc).terms[(0, 0)] = ONE
    assert make_L(2, osc) == expected
    a = FockOperator.from_clean(dict(osc.a.terms), osc.dim)
    make_L(-1, osc).terms.clear()
    assert make_L(-1, osc) == osc.a == a


def test_oscillators_hold_only_their_operators():
    assert [f.name for f in dataclasses.fields(Oscillator)] == ["mode", "dim", "a", "a_plus"]
    osc = make_oscillator(6, "two_param")
    for n in range(-1, 4):
        make_L(n, osc)
    assert osc == make_oscillator(6, "two_param")
    assert osc != make_oscillator(6, "one_param")
    assert osc != make_oscillator(7, "two_param")


def test_safe_columns():
    assert list(safe_columns(10, 2, 3)) == list(range(4))
    assert list(safe_columns(10, 3, 3)) == [0]
    assert list(safe_columns(10, 2, -1)) == list(range(10))
    with pytest.raises(ValueError, match="no safe columns: dim 10 too small for words "
                                         "of length 4 with shift 3"):
        safe_columns(10, 4, 3)


def test_word_image_rules():
    osc = make_oscillator(6, "two_param")
    assert word_image((L(2),), osc) == make_L(2, osc)
    assert word_image((C,), osc).is_zero()
    assert word_image((), osc) == FockOperator.identity(6)
    with pytest.raises(ValueError):
        word_image((T,), osc)


def test_word_image_rejects_t_after_c():
    # C maps to zero, but T has no image wherever it stands in the word
    osc = make_oscillator(6, "two_param")
    for word in ((C, T), (L(1), C, TINV)):
        with pytest.raises(ValueError, match="T has no Fock image"):
            word_image(word, osc)


def test_element_image_is_linear():
    osc = make_oscillator(7, "two_param")
    x = AlgebraElement.from_word((L(1),)) * (P + Q) + AlgebraElement.from_word((L(0), L(1)))
    img = element_image(x, osc)
    expected = make_L(1, osc).scale(P + Q) + make_L(0, osc) * make_L(1, osc)
    assert img == expected


@pytest.mark.parametrize("mode", MODES)
def test_element_image_substitutes_coefficients_at_the_mode(mode):
    """Every oscillator realizes R4 at its own point, so the images of its
    relation elements vanish once their coefficients are substituted."""
    osc = make_oscillator(12, mode)
    for n in range(-1, 5):
        for m in range(-1, 5):
            (rel,) = relation_elements("R4", n, m)
            assert element_image(rel, osc).is_zero(), (n, m)
    pole = {"classical": ONE / (P - Q), "one_param": ONE / (P - ONE), "two_param": ONE / P}[mode]
    x = AlgebraElement.from_word((L(1),)) * pole
    if mode == "two_param":
        assert element_image(x, osc) == make_L(1, osc).scale(pole)
    else:
        with pytest.raises(PoleError, match="denominator vanishes at p = 1"):
            element_image(x, osc)


def test_verify_bracket_zero_on_window():
    for mode in ("one_param", "two_param"):
        osc = make_oscillator(14, mode)
        for n in range(-1, 4):
            for m in range(-1, 4):
                assert verify_bracket(n, m, osc).is_zero(), (mode, n, m)


def test_verify_bracket_detects_wrong_weights(perturb_r4):
    osc = make_oscillator(12, "two_param")
    l1, l2 = make_L(1, osc), make_L(2, osc)
    # wrong twist: plain commutator does not close on L_3
    alpha, beta, gamma = r4_weights(1, 2, "two_param")
    wrong = deformed_commutator(l1, l2, ONE, ONE) - make_L(3, osc).scale(gamma)
    assert not wrong.is_zero_on(safe_columns(12, 2, 2))
    # and with R4's twist taken out, the check fails on the same columns
    perturb_r4(lambda n, m: AlgebraElement({(L(n), L(m)): ONE - monomial(1, -n, n),
                                            (L(m), L(n)): monomial(1, -m, m) - ONE}))
    assert not verify_bracket(1, 2, osc).view(12).is_zero_on(safe_columns(12, 2, 2))


def wrong_r4(which):
    """What perturbs R4(n, m): its L(n) L(m) weight alpha doubled, or its
    L(n+m) weight gamma plus 1."""
    if which == "alpha":
        return lambda n, m: AlgebraElement({(L(n), L(m)): monomial(1, -n, n)})
    return lambda n, m: AlgebraElement({(L(n + m),): -ONE})


def perturbed(weights, which):
    """The power weights (alpha, beta, gamma) with alpha times p, or gamma plus 1."""
    alpha, beta, gamma = weights
    return (alpha * P, beta, gamma) if which == "alpha" else (alpha, beta, gamma + ONE)


@pytest.mark.parametrize("which", ("alpha", "gamma"))
@pytest.mark.parametrize("mode", ("classical", "two_param"))
@pytest.mark.parametrize("dim", (9, 14))
def test_guarded_products_show_wrong_weights(monkeypatch, perturb_r4, dim, mode, which):
    """With a wrong weight, the view of the exact residual equals the
    truncated products on the guarded columns, and is nonzero there unless
    the guard keeps column 0 alone, which every L_k annihilates. The
    checks return the exact residual itself."""
    perturb_r4(wrong_r4(which))
    monkeypatch.setattr(oscillator, "power_weights",
                        lambda n, mode: perturbed(power_weights(n, mode), which))
    osc = make_oscillator(dim, mode)
    for n in range(-1, 5):
        for m in range(-1, 5):
            if which == "gamma" and n + m < -1:
                continue  # L_{-2} has no image to weigh
            (rel,) = oscillator.relation_elements("R4", n, m)
            full = truncated_image(rel, osc)
            cols = safe_columns(dim, 2, max(n, m, 1))
            res = bracket_residual(n, m, mode)
            view = res.view(dim).restrict(cols)
            assert view == full.restrict(cols), (n, m)
            assert view.is_zero() == (len(cols) == 1), (n, m)
            assert verify_bracket(n, m, osc) == res and not res.is_zero(), (n, m)
        if n >= 1:
            alpha, beta, gamma = oscillator.power_weights(n, mode)
            full = (deformed_commutator(osc.a, fock_power(osc.a_plus, n), alpha, beta)
                    - fock_power(osc.a_plus, n - 1).scale(gamma))
            cols = safe_columns(dim, n + 1, 1)
            res = power_residual(n, mode)
            view = res.view(dim).restrict(cols)
            assert view == full.restrict(cols), n
            assert not view.is_zero(), n
            assert verify_power_commutator(n, osc) == res, n


def test_verify_power_commutator_zero():
    for mode in ("one_param", "two_param"):
        osc = make_oscillator(12, mode)
        for n in range(1, 6):
            assert verify_power_commutator(n, osc).is_zero(), (mode, n)


EXACT_RANGE = range(-8, 9)


@pytest.mark.parametrize("mode", MODES)
def test_exact_bracket_residual_vanishes_for_all_indices(mode):
    """No view and no guard: L_n with n <= -2 has no Fock matrix, yet the
    relation holds in the algebra for every pair."""
    for n in EXACT_RANGE:
        for m in EXACT_RANGE:
            assert bracket_residual(n, m, mode).is_zero(), (n, m)


@pytest.mark.parametrize("mode", MODES)
def test_exact_power_residual_vanishes(mode):
    for n in range(1, 40):
        assert power_residual(n, mode).is_zero(), n


@pytest.mark.parametrize("which", ("alpha", "gamma"))
@pytest.mark.parametrize("mode", MODES)
def test_exact_residual_shows_wrong_weights_for_every_pair(monkeypatch, perturb_r4, mode, which):
    """Even where the guard keeps column 0 alone and the view is zero, the
    exact residual of a wrong weight is not."""
    perturb_r4(wrong_r4(which))
    monkeypatch.setattr(oscillator, "power_weights",
                        lambda n, mode: perturbed(power_weights(n, mode), which))
    for n in EXACT_RANGE:
        for m in EXACT_RANGE:
            assert not bracket_residual(n, m, mode).is_zero(), (n, m)
    for n in range(1, 40):
        assert not power_residual(n, mode).is_zero(), n
    osc = make_oscillator(9, mode)
    assert safe_columns(9, 2, 4) == range(1)
    assert not verify_bracket(4, 2, osc).is_zero()
    # lie_fock's shape
    osc = make_oscillator(40, mode)
    assert safe_columns(40, 2, 19) == range(2)
    assert not verify_bracket(19, 19, osc).is_zero()
    assert not verify_power_commutator(38, osc).is_zero()


@pytest.mark.parametrize("mode", MODES)
def test_checks_return_the_exact_residual(mode):
    """The checks are the exact residuals, bounded as before: n, m >= -1,
    n >= 1 and the safe columns of the oscillator's dimension."""
    osc = make_oscillator(9, mode)
    for n in range(-1, 5):
        for m in range(-1, 5):
            res = verify_bracket(n, m, osc)
            assert isinstance(res, DifferenceOperator) and res == bracket_residual(n, m, mode)
    for n in range(1, 8):
        assert verify_power_commutator(n, osc) == power_residual(n, mode)
    with pytest.raises(ValueError, match="bracket checks need n, m >= -1"):
        verify_bracket(-2, 1, osc)
    with pytest.raises(ValueError, match="no safe columns: dim 9 too small"):
        verify_bracket(5, 1, osc)
    with pytest.raises(ValueError, match="power commutator checks need n >= 1"):
        verify_power_commutator(0, osc)
    with pytest.raises(ValueError, match="no safe columns: dim 9 too small"):
        verify_power_commutator(8, osc)


@pytest.mark.parametrize("compute", (
    twist_weight, central_coeff,
    lambda n: exact_L(n, "two_param"), lambda n: power_residual(n, "two_param"),
), ids=("twist_weight", "central_coeff", "exact_L", "power_residual"))
@pytest.mark.parametrize("n", (INDEX_BOUND, -INDEX_BOUND, 2 ** 40))
def test_structure_constants_check_their_index_first(compute, n):
    start = time.perf_counter()
    with pytest.raises(ValueError, match="L index .* is out of range"):
        compute(n)
    assert time.perf_counter() - start < 1.0


def test_exact_generators():
    for mode in MODES:
        assert exact_L(3, mode) == DifferenceOperator({(3, 1): ONE}, mode)
        assert exact_L(-1, mode).view(6) == make_oscillator(6, mode).a
        # z^-1 sends |0> below the bottom row, and out of the view
        assert DifferenceOperator.term(-1, 0, mode).view(3) == FockOperator(
            3, {(0, 1): ONE, (1, 2): ONE})
    # classical mode is the Weyl algebra: Lam z = z (Lam + 1)
    lam, z = DifferenceOperator.term(0, 1, "classical"), DifferenceOperator.term(1, 0, "classical")
    assert lam * z == DifferenceOperator({(1, 1): ONE, (1, 0): ONE}, "classical")
    # two_param: Lam z = z (1/p + (q/p) Lam)
    lam, z = DifferenceOperator.term(0, 1, "two_param"), DifferenceOperator.term(1, 0, "two_param")
    assert lam * z == DifferenceOperator({(1, 0): monomial(1, -1, 0), (1, 1): Q / P}, "two_param")
    assert str(exact_L(1, "classical").scale(P) + DifferenceOperator.term(0, 0, "classical")) == (
        "1 + p*z Lam")
    assert str(lam * z - exact_L(-1, "two_param")) == "-z^-1 Lam + (1/p)*z + (q/p)*z Lam"
    assert DifferenceOperator.zero("one_param") == power_residual(3, "one_param")
    with pytest.raises(ValueError, match="mode mismatch"):
        exact_L(1, "classical") * exact_L(1, "two_param")
    with pytest.raises(ValueError, match="mode must be one of"):
        exact_L(1, "quantum")


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(-3, 3)),
                min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(-3, 3)),
                min_size=1, max_size=3),
       st.sampled_from(MODES))
def test_exact_product_is_the_matrix_product_on_guarded_columns(xs, ys, mode):
    """The view of a product equals the product of the views wherever no
    intermediate state leaves the matrix."""
    x, y = (DifferenceOperator({(a, i): monomial(c, 0, i) for a, i, c in terms}, mode)
            for terms in (xs, ys))
    # each factor shifts by at most 3 either way
    dim = 14
    cols = range(3, dim - 6)
    assert (x * y).view(dim).restrict(cols) == (x.view(dim) * y.view(dim)).restrict(cols)


def test_word_image_is_exact_past_the_guard():
    """L(5) pushes |1> past the top of a 6 x 6 matrix and L(-1) brings it
    back: the truncated product drops that entry, the view keeps it."""
    osc = make_oscillator(6, "two_param")
    img = word_image((L(-1), L(5)), osc)
    assert img.column(1) == {5: lowering_coeff(6, "two_param") * lowering_coeff(1, "two_param")}
    assert (make_L(-1, osc) * make_L(5, osc)).column(1) == {}


def test_power_weights_shapes():
    alpha, beta, gamma = power_weights(3, "two_param")
    assert alpha == P ** 3 and beta == Q ** 3 and gamma == pq_int(3)
    alpha, beta, gamma = power_weights(3, "one_param")
    assert alpha == ONE and beta == Q ** 3 and gamma == q_int(3)


def test_truncation_independence_on_guarded_columns():
    """Entries over safe columns do not depend on the cutoff."""
    small, large = make_oscillator(9, "two_param"), make_oscillator(13, "two_param")
    cols = safe_columns(9, 2, 3)
    for n in (-1, 0, 2, 3):
        op_s = make_L(n, small) * make_L(0, small)
        op_l = make_L(n, large) * make_L(0, large)
        for k in cols:
            assert op_s.column(k) == op_l.column(k), (n, k)


@given(st.lists(st.integers(min_value=-1, max_value=3), min_size=1, max_size=4))
def test_normal_forms_agree_with_direct_products(indices):
    """Both reduction strategies preserve the operator on guarded columns.

    The normal forms themselves may differ as elements, but their matrix
    images agree with the unreduced product wherever truncation cannot
    interfere.
    """
    osc = make_oscillator(16, "two_param")
    word = tuple(L(n) for n in indices)
    direct = word_image(word, osc)
    cols = safe_columns(16, len(indices), 3)
    x = AlgebraElement.from_word(word)
    for strategy in ("leftmost", "rightmost"):
        nf = normalize(x, strategy=strategy)
        img = element_image(nf, osc)
        assert (img - direct).is_zero_on(cols), strategy


def test_bad_dimensions_and_modes_are_refused_and_zero_prints_as_0():
    for make in (lambda: FockOperator(0), lambda: FockOperator(2.0)):
        with pytest.raises(ValueError, match="positive integer"):
            make()
    with pytest.raises(ValueError, match="integer >= 3"):
        make_oscillator(2)
    with pytest.raises(ValueError, match="unknown mode 'quantum'"):
        lowering_coeff_iterative(3, "quantum")
    zero = FockOperator(3)
    assert (str(zero), repr(zero)) == ("0", "FockOperator(dim=3, nnz=0)")
    one = FockOperator(2, {(0, 1): ONE})
    assert (str(one), repr(one)) == ("{(0,1): 1}", "FockOperator(dim=2, nnz=1)")


def test_entries_outside_the_matrix_are_rejected():
    for pos in ((0, 5), (-1, 0), (3, 3), (2, -1), (0.5, 1)):
        with pytest.raises(ValueError, match="outside a 3 x 3 matrix"):
            FockOperator(3, {(0, 0): ONE, pos: ONE})
    f = FockOperator(3, {(0, 2): ONE, (2, 0): ONE})
    assert FockOperator.identity(3) * f == f
