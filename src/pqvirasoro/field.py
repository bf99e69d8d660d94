"""Exact arithmetic in the field Q(p,q) of rational functions in two formal
deformation parameters.

Every value is kept in a unique canonical form

    p^a * q^b * num(p,q) / den(p,q)

where num and den are coprime integer polynomials, neither divisible by p nor
by q (all pure monomial content lives in the integer shift pair (a, b)), the
integer contents of num and den are coprime, and den has a positive leading
coefficient in graded-lex order with p > q.  Because the form is unique,
equality is plain structural comparison and hashing is well defined.

A value whose num and den are both homogeneous is kept in graded form: num
and den are dense integer tuples (c_0, ..., c_d) that mean the sum of
c_i p^i q^(d-i).  The canonical conditions then read c_0 != 0 and c_d != 0
for both, and c_d > 0 for den; the degree of each is the tuple's length
minus one.  Products of graded values are univariate convolutions in
x = p/q, and their terms come out in graded-lex order without a sort.
Every coefficient the rewriting system makes is graded, since its
relations are homogeneous once deg p = deg q = 1, deg L(n) = -1, deg C = 1
and deg T = 0.  Any other value keeps num and den as sparse dicts
{(i, j): c}.  The form is a function of the value: every result, of
arithmetic or of the constructor, is graded exactly when it is
homogeneous, so equal values share one representation.  ``num`` and
``den`` read as dicts in both forms.

Both forms take GCDs by one algorithm, the heuristic GCD of Char, Geddes
and Gonnet: both polynomials are evaluated at one integer xi (q = xi for
the sparse form), one integer GCD (one univariate GCD) is read back in
base xi, and the candidate is checked by exact division, whose quotients
are the cofactors every caller divides by.  An inexact division moves to
a larger xi.  The cost follows the size of the operands and of their GCD,
with no remainder sequence whose coefficients swell with the degree.

Almost every structure constant is a Laurent polynomial: graded with den
1, which is always the one shared tuple ``_ONE_T``.  Products of two such
values, and sums of two of one degree, take a path of their own, right
after the one coercion entry of ``__add__`` and ``__mul__``, that convolves
or adds the numerators and skips the GCD; the central weight's den 6
(1 + (q/p)^n) is the common exception.  A sparse den of 1, as of a parsed
p + 1, is likewise always the one shared dict ``_ONE_P``: den 1 is one
object in each form, so a predicate finds it by identity, and no sparse
value holds a den dict of its own that only repeats {(0, 0): 1}.  Nothing
may mutate it; ``num`` and ``den`` return copies.

All values are immutable; every function here except ``accumulate`` (which
adds into the caller's dict) is pure, so instances can be shared freely
between threads or worker processes.

``LinComb`` is the sparse linear combination over this field that every
element type of the package (words, tensors, Fock matrices) is built on.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate as _running_sums, compress
from math import gcd as _int_gcd
from operator import neg as _neg, sub as _sub

__all__ = [
    "RatFunc",
    "PoleError",
    "ZERO",
    "ONE",
    "P",
    "Q",
    "monomial",
    "q_int",
    "pq_int",
    "pq_ladder",
    "accumulate",
    "LinComb",
    "specialize_p1",
    "substitute",
    "evaluate",
]


class PoleError(ValueError):
    """Raised when a substitution point hits a zero of the denominator."""


# ---------------------------------------------------------------------------
# dense univariate integer polynomials (c_0, ..., c_d): the num and den of a
# graded value (c_i is the coefficient of p^i q^(d-i)), and the images in
# Z[p] of the sparse GCD below (c_i is the coefficient of p^i)
# ---------------------------------------------------------------------------

_ONE_T = (1,)


def _u_trim(F):
    # drop zero top coefficients, so that F[-1] leads
    n = len(F)
    while n and not F[n - 1]:
        n -= 1
    return tuple(F[:n])


def _u_neg(F):
    return tuple([-c for c in F])


def _u_scale(F, c):
    return F if c == 1 else tuple([c * v for v in F])


def _u_exquo(F, c):
    return F if c == 1 else tuple([v // c for v in F])


# a product of fewer coefficient pairs than this stays on the schoolbook loop
# even by a run: there the run path, test included, gained at most 1.5x and
# lost up to 30% (on runs of 2, or of a c other than 1 and -1)
_RUN_MIN_SIZE = 16


def _u_run_mul(F, c, k):
    # F times the run c (1, ..., 1) of length k, by the running sums of
    # _u_mul; the last sum is c F(1) - c F(1) = 0 and is dropped.  A run of
    # -1 swaps the two chains instead of scaling F.
    zeros = (0,) * k
    if c == -1:
        diffs = map(_sub, zeros + F, F + zeros)
    else:
        F = _u_scale(F, c)
        diffs = map(_sub, F + zeros, zeros + F)
    out = list(_running_sums(diffs))
    out.pop()
    return tuple(out)


def _u_mul(F, G):
    # F and G are nonzero: every caller has tested its operands
    if len(F) < len(G):
        F, G = G, F
    if len(G) == 1:
        return _u_scale(F, G[0])
    # a run c (1, ..., 1) of length k, such as the numerator of every
    # (p,q)-integer [k], multiplies in linear time: since
    # (1 + x + ... + x^(k-1)) (1 - x) = 1 - x^k, F times it is c times the
    # running sums of F - x^k F
    if len(F) * len(G) >= _RUN_MIN_SIZE:
        if G.count(G[0]) == len(G):
            return _u_run_mul(F, G[0], len(G))
        if F.count(F[0]) == len(F):
            return _u_run_mul(G, F[0], len(F))
    out = [0] * (len(F) + len(G) - 1)
    for j, g in enumerate(G):
        if g:
            for i, f in enumerate(F, j):
                out[i] += f * g
    return tuple(out)


def _u_divexact(F, D):
    # F / D, raising ValueError when D does not divide F
    dD = len(D) - 1
    lcD = D[-1]
    R = list(F)
    out = [0] * max(len(F) - dD, 0)
    for e in range(len(out) - 1, -1, -1):
        q, r = divmod(R[e + dD], lcD)
        if r:
            raise ValueError("inexact univariate division")
        if q:
            out[e] = q
            for k, c in enumerate(D, e):
                R[k] -= q * c
    if any(R[:dD]):
        raise ValueError("inexact univariate division")
    return tuple(out)


def _u_eval(F, x):
    v = 0
    for c in reversed(F):
        v = v * x + c
    return v


def _digits(h, xi):
    # the symmetric base-xi digits of h, lowest first, each in (-xi/2, xi/2]
    out = []
    half = xi // 2
    while h:
        d = h % xi
        if d > half:
            d -= xi
        out.append(d)
        h = (h - d) // xi
    return out


def _next_point(xi):
    # the next evaluation point of a heuristic GCD, about 2.73 xi
    return xi * 73794 // 27011


def _u_cofactors(F, G):
    """(g, F/g, G/g) for the GCD g in Z[x] of nonzero F and G, lead of g
    positive: the heuristic GCD of Char, Geddes and Gonnet (GCDHEU,
    J. Symbolic Comput. 7, 1989).

    With the contents split off, the primitive parts A and B are evaluated
    at an integer xi, and the symmetric base-xi digits of
    h = gcd(A(xi), B(xi)) give a candidate; its primitive part is checked
    by exact division, whose quotients are the cofactors.  Two facts make
    this exact:

    - a candidate that divides both A and B is their GCD once
      xi >= 2 min(|A|, |B|) + 2 (max norms), which holds for every xi here
      (a one-digit h gives the candidate 1, which divides both);
    - the loop ends: h is g(xi) times gcd(Abar(xi), Bbar(xi)) for the
      coprime cofactors Abar and Bbar, and that extra factor always
      divides their resultant, a nonzero integer fixed by F and G, so once
      xi is large enough the digits of h are g's coefficients times it.
    """
    cf = _int_gcd(*F)
    cg = _int_gcd(*G)
    c = _int_gcd(cf, cg)
    A = _u_exquo(F, cf)
    B = _u_exquo(G, cg)
    # the shorter operand is usually the den, whose norm is the cheaper one
    xi = 2 * max(map(abs, B if len(B) <= len(A) else A)) + 29
    while True:
        digits = _digits(_int_gcd(_u_eval(A, xi), _u_eval(B, xi)), xi)
        if len(digits) == 1:
            return (c,), _u_exquo(F, c), _u_exquo(G, c)
        # h > 0, so its top symmetric digit, the lead of g, is positive
        g = _u_exquo(tuple(digits), _int_gcd(*digits))
        try:
            qa = _u_divexact(A, g)
            qb = _u_divexact(B, g)
        except ValueError:
            xi = _next_point(xi)
        else:
            return _u_scale(g, c), _u_scale(qa, cf // c), _u_scale(qb, cg // c)


# the graded reading: F of length d + 1 is homogeneous of degree d


def _h_add(F, at_f, G, at_g):
    # p^i q^j F + p^k q^l G for at_f = (i, j) and at_g = (k, l), of one degree
    i, j = at_f
    out = [0] * (i + len(F) + j)
    out[i:i + len(F)] = F
    for k, c in enumerate(G, at_g[0]):
        out[k] += c
    return tuple(out) if any(out) else ()


def _h_strip(F):
    # (F0, i, j) with F = p^i q^j F0 and F0 divisible by neither p nor q
    i = 0
    while not F[i]:
        i += 1
    k = len(F)
    while not F[k - 1]:
        k -= 1
    return F[i:k], i, len(F) - k


def _h_dict(F):
    d = len(F) - 1
    return {(i, d - i): c for i, c in enumerate(F) if c}


# ---------------------------------------------------------------------------
# sparse integer polynomials in p and q: {(i, j): c} with c != 0
# ---------------------------------------------------------------------------

_ONE_P = {(0, 0): 1}


def _grlex(mono):
    # graded lexicographic order with p > q
    return (mono[0] + mono[1], mono[0])


def _p_add(f, at_f, g, at_g):
    # p^i q^j f + p^k q^l g for at_f = (i, j) and at_g = (k, l)
    i, j = at_f
    k, l = at_g
    out = {(a + i, b + j): c for (a, b), c in f.items()}
    for (a, b), c in g.items():
        m = (a + k, b + l)
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _p_neg(f):
    return {m: -c for m, c in f.items()}


def _p_scale(f, c):
    return f if c == 1 else {m: c * v for m, v in f.items()}


def _p_exquo(f, c):
    return f if c == 1 else {m: v // c for m, v in f.items()}


def _p_mul(f, g):
    out = {}
    for (i1, j1), c1 in f.items():
        for (i2, j2), c2 in g.items():
            m = (i1 + i2, j1 + j2)
            s = out.get(m, 0) + c1 * c2
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _p_strip(f):
    # (f0, i, j) with f = p^i q^j f0 and f0 divisible by neither p nor q
    it = iter(f)
    ai, bj = next(it)
    for i, j in it:
        if i < ai:
            ai = i
        if j < bj:
            bj = j
    if ai or bj:
        f = {(i - ai, j - bj): c for (i, j), c in f.items()}
    return f, ai, bj


def _p_lead_coeff(f):
    return f[max(f, key=_grlex)]


def _p_dense(f):
    """The dense tuple of a nonzero f without monomial factors, or None if
    f is not homogeneous."""
    d = None
    for i, j in f:
        if d is None:
            d = i + j
        elif i + j != d:
            return None
    out = [0] * (d + 1)
    for (i, _), c in f.items():
        out[i] = c
    return tuple(out)


def _p_divexact(f, g):
    """Exact division in Z[p,q] by a nonzero g other than 1; raises
    ValueError if g does not divide f."""
    out = {}
    rem = dict(f)
    gl = max(g, key=_grlex)
    gc = g[gl]
    while rem:
        rl = max(rem, key=_grlex)
        di, dj = rl[0] - gl[0], rl[1] - gl[1]
        qc, r = divmod(rem[rl], gc)
        if r or di < 0 or dj < 0:
            raise ValueError("inexact polynomial division")
        out[(di, dj)] = qc
        for (i, j), c in g.items():
            m = (i + di, j + dj)
            s = rem.get(m, 0) - qc * c
            if s:
                rem[m] = s
            else:
                rem.pop(m, None)
    return out


def _p_at_q(f, xi):
    # f(p, xi) as a dense tuple in p
    out = [0] * (max(i for i, _ in f) + 1)
    for (i, j), c in f.items():
        out[i] += c * xi ** j
    return _u_trim(out)


def _p_cofactors(f, g):
    """(h, f/h, g/h) for the GCD h in Z[p,q] of nonzero f and g, with
    positive graded-lex leading coefficient: the heuristic GCD of
    ``_u_cofactors`` one variable up.  With the contents split off, q = xi
    leaves dense tuples in p; the coefficients of their GCD, read back in
    symmetric base xi, are polynomials in q and give a candidate, whose
    primitive part is checked by exact division.  The same two facts hold:
    a candidate that divides both is the GCD, and the loop ends."""
    cf = _int_gcd(*f.values())
    cg = _int_gcd(*g.values())
    c = _int_gcd(cf, cg)
    A = _p_exquo(f, cf)
    B = _p_exquo(g, cg)
    xi = 2 * max(map(abs, (B if len(B) <= len(A) else A).values())) + 29
    while True:
        a = _p_at_q(A, xi)
        b = _p_at_q(B, xi)
        # a point where A or B vanishes as a polynomial in p gives no image
        if a and b:
            h = {(i, j): d for i, v in enumerate(_u_cofactors(a, b)[0])
                 for j, d in enumerate(_digits(v, xi)) if d}
            if len(h) == 1 and (0, 0) in h:
                return {(0, 0): c}, _p_exquo(f, c), _p_exquo(g, c)
            h = _p_exquo(h, _int_gcd(*h.values()))
            if _p_lead_coeff(h) < 0:
                h = _p_neg(h)
            try:
                qa = _p_divexact(A, h)
                qb = _p_divexact(B, h)
            except ValueError:
                pass
            else:
                return _p_scale(h, c), _p_scale(qa, cf // c), _p_scale(qb, cg // c)
        xi = _next_point(xi)


# ---------------------------------------------------------------------------
# the two polynomial forms, as one interface for RatFunc's arithmetic
# ---------------------------------------------------------------------------


class _Graded:
    """Homogeneous num and den as dense tuples."""

    one = _ONE_T
    add = staticmethod(_h_add)
    neg = staticmethod(_u_neg)
    mul = staticmethod(_u_mul)
    scale = staticmethod(_u_scale)
    exquo = staticmethod(_u_exquo)
    cofactors = staticmethod(_u_cofactors)
    strip = staticmethod(_h_strip)

    @staticmethod
    def lead(F):
        return F[-1]

    @staticmethod
    def make(shift, num, den):
        return RatFunc._raw(shift, num, _ONE_T if den == _ONE_T else den)


class _Sparse:
    """Any num and den, as dicts; a homogeneous result turns graded."""

    one = _ONE_P
    add = staticmethod(_p_add)
    neg = staticmethod(_p_neg)
    mul = staticmethod(_p_mul)
    scale = staticmethod(_p_scale)
    exquo = staticmethod(_p_exquo)
    cofactors = staticmethod(_p_cofactors)
    strip = staticmethod(_p_strip)
    lead = staticmethod(_p_lead_coeff)

    @staticmethod
    def make(shift, num, den):
        dense_num = _p_dense(num)
        if dense_num is not None:
            dense_den = _p_dense(den)
            if dense_den is not None:
                return _Graded.make(shift, dense_num, dense_den)
        return RatFunc._raw(shift, num, _ONE_P if den == _ONE_P else den)


def _canonical(num, den, shift, ops):
    """The value p^a q^b num / den for shift (a, b), in canonical form."""
    if not num:
        return ZERO
    a, b = shift
    num, i, j = ops.strip(num)
    a += i
    b += j
    den, i, j = ops.strip(den)
    a -= i
    b -= j
    if den != ops.one:
        _, num, den = ops.cofactors(num, den)
        if ops.lead(den) < 0:
            num = ops.neg(num)
            den = ops.neg(den)
    return ops.make((a, b), num, den)


def _common(x, y, same_degree=False):
    """The form that x and y meet in, and their num and den in it: graded
    when both are (and, if same_degree, of one degree), else sparse."""
    if type(x._den) is tuple and type(y._den) is tuple and (
            not same_degree or x._degree() == y._degree()):
        return _Graded, x._num, x._den, y._num, y._den
    return (_Sparse,) + x._dicts() + y._dicts()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


# p^k and q^k are read from tables for k < _POWER_BOUND, and a term's sign
# and coefficient for |c| < _COEFF_BOUND; past either bound the text is
# formatted in the term that has it and not kept
_POWER_BOUND = 128
_COEFF_BOUND = 1024


class _Coefficients(dict):
    """The start of a term's text by its coefficient c: the separator, then
    |c| and the product sign unless |c| is 1, as in " - 3*"."""

    def __init__(self, times):
        super().__init__()
        self.times = times

    def __missing__(self, c):
        text = (" - " if c < 0 else " + ") + ("" if c in (1, -1) else str(abs(c)) + self.times)
        if -_COEFF_BOUND < c < _COEFF_BOUND:
            self[c] = text
        return text


def _powers(var, power, times=""):
    return ("", var + times) + tuple(var + power % k + times for k in range(2, _POWER_BOUND))


# (coefficients, p^k, p^k before a power of q, q^k, exponent format,
# product sign): text, then LaTeX
_NOTATION = tuple((_Coefficients(times), _powers("p", power), _powers("p", power, times),
                   _powers("q", power), power, times)
                  for power, times in (("^%d", "*"), ("^{%d}", " ")))


def _term(note, c, i, j):
    # the text of c p^i q^j with its separator in front
    coeffs, p_pow, p_mid, q_pow, power, times = note
    if j:
        ps = p_mid[i] if i < _POWER_BOUND else "p" + power % i + times
        return coeffs[c] + ps + (q_pow[j] if j < _POWER_BOUND else "q" + power % j)
    if i:
        return coeffs[c] + (p_pow[i] if i < _POWER_BOUND else "p" + power % i)
    return (" - " if c < 0 else " + ") + str(abs(c))


def _poly_str(f, i0, j0, latex=False):
    """(negative, text) for a nonzero f in either form: whether its leading
    term is negative, and the text of p^i0 q^j0 f, negated if it is.  The
    terms come in graded-lex order, p > q, each the texts of its sign and
    coefficient, of p^i and of q^j, read from the tables."""
    note = coeffs, _, p_mid, q_pow, _, _ = _NOTATION[latex]
    if type(f) is tuple and max(i0, j0) + len(f) > _POWER_BOUND:
        f = _h_dict(f)  # its powers past the tables are formatted term by term
    if type(f) is dict:
        terms = sorted([(i + j, i, j, c) for (i, j), c in f.items()], reverse=True)
        negative = terms[0][3] < 0
        pieces = [_term(note, -c if negative else c, i + i0, j + j0) for _, i, j, c in terms]
    else:
        # below the lead term every power of q is positive, so each term is
        # its coefficient's text, then p^i followed by times, then q^j
        d = len(f) - 1
        negative = f[d] < 0
        cs = f[-2::-1]
        ps = p_mid[i0:i0 + d][::-1]
        qs = q_pow[j0 + 1:j0 + d + 1]
        if 0 in cs:
            ps, qs, cs = tuple(compress(ps, cs)), tuple(compress(qs, cs)), tuple(compress(cs, cs))
        pieces = [_term(note, -f[d] if negative else f[d], i0 + d, j0)] * (3 * len(cs) + 1)
        pieces[1::3] = map(coeffs.__getitem__, map(_neg, cs) if negative else cs)
        pieces[2::3] = ps
        pieces[3::3] = qs
    pieces[0] = pieces[0][3:]
    return negative, "".join(pieces)


# ---------------------------------------------------------------------------
# the canonical rational function
# ---------------------------------------------------------------------------


def _as_poly(x):
    if isinstance(x, dict):
        poly = {}
        for mono, c in x.items():
            i, j = mono
            if type(c) is not int or type(i) is not int or type(j) is not int:
                raise TypeError("term %r * p^%r * q^%r: coefficients and exponents must be ints"
                                % (c, i, j))
            if c:
                poly[mono] = c
        return poly
    if type(x) is int:
        return {(0, 0): x} if x else {}
    raise TypeError("expected int or exponent->coefficient dict, got %r" % (x,))


class RatFunc:
    """Element of Q(p,q) in canonical Laurent-shifted form.

    shift -- pair (a, b): overall monomial factor p^a * q^b
    num   -- integer polynomial, not divisible by p or q
    den   -- integer polynomial, not divisible by p or q, coprime to num,
             positive graded-lex leading coefficient

    num and den read as {(i, j): c} dicts; a homogeneous value keeps them
    as dense tuples inside (see the module docstring).  Zero is represented
    uniquely as shift (0,0), num 0, den 1.
    """

    __slots__ = ("shift", "_num", "_den")

    def __new__(cls, num=0, den=1, shift=(0, 0)):
        if type(num) is int and type(den) is int:
            if not den:
                raise ZeroDivisionError("zero denominator in Q(p,q)")
            return _canonical((num,) if num else (), (den,), shift, _Graded)
        # an int den of 1 is the shared _ONE_P, which _canonical keeps
        den = _ONE_P if type(den) is int and den == 1 else _as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(p,q)")
        return _canonical(_as_poly(num), den, shift, _Sparse)

    # -- internal fast constructor for results already in canonical form --

    @classmethod
    def _raw(cls, shift, num, den):
        self = object.__new__(cls)
        self.shift = shift
        self._num = num
        self._den = den
        return self

    @classmethod
    def from_fraction(cls, fr):
        return cls(fr.numerator, fr.denominator)

    # -- the two forms ---------------------------------------------------

    @property
    def num(self):
        """The numerator as a new {(i, j): c} dict."""
        n = self._num
        return dict(n) if type(n) is dict else _h_dict(n)

    @property
    def den(self):
        """The denominator as a new {(i, j): c} dict."""
        d = self._den
        return dict(d) if type(d) is dict else _h_dict(d)

    def sizes(self):
        """((terms, norm) of num, (terms, norm) of den): each one's count of
        nonzero terms and sum of |coefficients|, read without a copy."""
        return tuple((len(f), sum(map(abs, f.values()))) if type(f) is dict
                     else (len(f) - f.count(0), sum(map(abs, f))) for f in (self._num, self._den))

    def _ops(self):
        return _Graded if type(self._den) is tuple else _Sparse

    def _dicts(self):
        # num and den as dicts, shared with a sparse value: do not mutate
        if type(self._den) is dict:
            return self._num, self._den
        return _h_dict(self._num), _h_dict(self._den)

    def _degree(self):
        # the degree of a graded value
        return self.shift[0] + self.shift[1] + len(self._num) - len(self._den)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self._num

    # a stored den of 1 is _ONE_T or _ONE_P, and 1 and a monomial are graded
    def is_one(self):
        return self._den is _ONE_T and self.shift == (0, 0) and self._num == _ONE_T

    def is_monomial(self):
        """True when the value is c * p^a * q^b with integer c."""
        return self._den is _ONE_T and len(self._num) == 1

    def is_laurent_polynomial(self):
        """True when den is 1, so the value is a polynomial times p^a q^b."""
        return self._den is _ONE_T or self._den is _ONE_P

    def __bool__(self):
        return bool(self._num)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if type(other) is int:
            return RatFunc(other)
        if isinstance(other, Fraction):
            return RatFunc.from_fraction(other)
        return None

    def __add__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        n1, n2 = self._num, o._num
        if not n1:
            return o
        if not n2:
            return self
        (a1, b1), (a2, b2) = self.shift, o.shift
        a, b = min(a1, a2), min(b1, b2)
        # Laurent polynomials of one degree: no den to meet in
        if self._den is _ONE_T and o._den is _ONE_T and a1 + b1 + len(n1) == a2 + b2 + len(n2):
            num = _h_add(n1, (a1 - a, b1 - b), n2, (a2 - a, b2 - b))
            if not num:
                return ZERO
            num, i, j = _h_strip(num)
            return RatFunc._raw((a + i, b + j), num, _ONE_T)
        ops, n1, d1, n2, d2 = _common(self, o, same_degree=True)
        den = d1
        if d1 != d2:
            _, d1, d2 = ops.cofactors(d1, d2)
            n1 = ops.mul(n1, d2)
            n2 = ops.mul(n2, d1)
            den = ops.mul(den, d2)
        num = ops.add(n1, (a1 - a, b1 - b), n2, (a2 - a, b2 - b))
        return _canonical(num, den, (a, b), ops)

    __radd__ = __add__

    def __neg__(self):
        if not self._num:
            return self
        return RatFunc._raw(self.shift, self._ops().neg(self._num), self._den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        # __add__ coerces other, or returns NotImplemented
        return (-self).__add__(other)

    def times_monomial(self, c, a, b):
        """The product with the monomial c * p^a * q^b, for an int c."""
        if not c or not self._num:
            return ZERO
        if c == 1 and not a and not b:  # values are immutable: no copy
            return self
        shift = (self.shift[0] + a, self.shift[1] + b)
        if c == 1:
            return RatFunc._raw(shift, self._num, self._den)
        ops, den = self._ops(), self._den
        g = _int_gcd(c, *(den.values() if type(den) is dict else den))
        # make: a den that g divides down to 1 is the shared _ONE_T or _ONE_P
        return ops.make(shift, ops.scale(self._num, c // g), ops.exquo(den, g))

    def __mul__(self, other):
        o = other if type(other) is RatFunc else self._coerce(other)
        if o is None:
            return NotImplemented
        n1, n2 = self._num, o._num
        if not n1 or not n2:
            return ZERO
        shift = (self.shift[0] + o.shift[0], self.shift[1] + o.shift[1])
        # Laurent polynomials: the product of two canonical numerators is
        # canonical, and a den of 1 needs no GCD
        if self._den is _ONE_T and o._den is _ONE_T:
            return RatFunc._raw(shift, _u_mul(n1, n2), _ONE_T)
        ops, n1, d1, n2, d2 = _common(self, o)
        # a GCD against a denominator of 1 is 1
        if d2 != ops.one:
            _, n1, d2 = ops.cofactors(n1, d2)
        if d1 != ops.one:
            _, n2, d1 = ops.cofactors(n2, d1)
        return ops.make(shift, ops.mul(n1, n2), ops.mul(d1, d2))

    __rmul__ = __mul__

    def inverse(self):
        if not self._num:
            raise ZeroDivisionError("division by zero in Q(p,q)")
        ops = self._ops()
        num, den = self._den, self._num
        if ops.lead(den) < 0:
            num = ops.neg(num)
            den = ops.neg(den)
        return ops.make((-self.shift[0], -self.shift[1]), num, den)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k == 0:
            return ONE
        if k < 0:
            return self.inverse() ** (-k)
        if not self._num:
            return ZERO
        ops = self._ops()
        num = den = ops.one
        base_n, base_d = self._num, self._den
        e = k
        while e:
            if e & 1:
                num = ops.mul(num, base_n)
                den = ops.mul(den, base_d)
            e >>= 1
            if e:
                base_n = ops.mul(base_n, base_n)
                base_d = ops.mul(base_d, base_d)
        return ops.make((self.shift[0] * k, self.shift[1] * k), num, den)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.shift == o.shift and self._num == o._num and self._den == o._den

    def __hash__(self):
        num, den = self._num, self._den
        if type(den) is dict:
            num, den = frozenset(num.items()), frozenset(den.items())
        elif self.shift == (0, 0) and len(num) < 2 and len(den) == 1:
            # a constant equals its int or Fraction, so it hashes as one
            return hash(Fraction(num[0] if num else 0, den[0]))
        return hash((self.shift, num, den))

    def __reduce__(self):
        # a copy or an unpickled value is rebuilt through the canonical
        # constructor: the default would set its parts on the shared ZERO
        # that __new__() returns
        return RatFunc, (self.num, self.den, self.shift)

    # -- display ---------------------------------------------------------

    def _signed_text(self, latex):
        """(negative, text of the magnitude): a negated sum over den 1
        keeps its parentheses, as in -(p + q)."""
        num = self._num
        if not num:
            return False, "0"
        den = self._den
        a, b = self.shift
        da, db = max(-a, 0), max(-b, 0)
        # a den of one term has its coefficient c > 0 and is one term's text
        c = self._ops().lead(den) if len(den) == 1 else 0
        try:
            negative, ns = _poly_str(num, max(a, 0), max(b, 0), latex)
            if c == 1 and not da and not db:
                if negative and len(num) > 1:
                    return True, ("\\left(%s\\right)" if latex else "(%s)") % ns
                return negative, ns
            ds = _term(_NOTATION[latex], c, da, db)[3:] if c else _poly_str(den, da, db, latex)[1]
        except ValueError:  # str(c) refuses an int past Python's digit limit
            raise ValueError("a coefficient has more than %d digits and is too long to print"
                             % sys.get_int_max_str_digits()) from None
        if latex:
            return negative, "\\frac{%s}{%s}" % (ns, ds)
        if len(num) > 1:
            ns = "(%s)" % ns
        # an integer, or a bare power of p or of q, stays bare
        if not c or da and db or c != 1 and (da or db):
            ds = "(%s)" % ds
        return negative, "%s/%s" % (ns, ds)

    def _render(self, latex):
        negative, text = self._signed_text(latex)
        return "-" + text if negative else text

    def __str__(self):
        return self._render(False)

    def latex(self):
        return self._render(True)

    def __repr__(self):
        return "RatFunc(%s)" % self


def monomial(c=1, a=0, b=0):
    """The Laurent monomial c * p^a * q^b."""
    if type(c) is not int or type(a) is not int or type(b) is not int:
        raise TypeError("monomial %r * p^%r * q^%r: coefficient and exponents must be ints"
                        % (c, a, b))
    if c == 0:
        return ZERO
    return RatFunc._raw((a, b), (c,), _ONE_T)


ZERO = RatFunc._raw((0, 0), (), _ONE_T)
ONE = RatFunc(1)
P = RatFunc({(1, 0): 1})
Q = RatFunc({(0, 1): 1})


# ---------------------------------------------------------------------------
# quantum integers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def q_int(n):
    """One-parameter quantum integer (q^n - 1)/(q - 1).

    For n >= 0 this is the polynomial 1 + q + ... + q^(n-1).
    """
    return (Q ** n - ONE) / (Q - ONE)


@lru_cache(maxsize=None)
def pq_int(n):
    """Two-parameter quantum integer (p^n - q^n)/(p - q).

    For n >= 0 this is the homogeneous polynomial sum of p^i q^(n-1-i).
    """
    return (P ** n - Q ** n) / (P - Q)


@lru_cache(maxsize=None)
def pq_ladder(k):
    """[k]_{p,q} / p^k: the two-parameter lowering coefficient, and the
    building block of every structure constant of the bracket."""
    return pq_int(k) * monomial(1, -k, 0)


# ---------------------------------------------------------------------------
# sparse linear combinations over Q(p,q)
# ---------------------------------------------------------------------------


def accumulate(store, key, coeff):
    """Add coeff to store[key], dropping the entry when the sum is zero."""
    old = store.get(key)
    if old is not None:
        coeff = old + coeff
    if coeff:
        store[key] = coeff
    elif old is not None:
        del store[key]


def _coefficient(c):
    """c as a RatFunc: an int, a Fraction or a RatFunc is taken, else TypeError."""
    coeff = RatFunc._coerce(c)
    if coeff is None:
        raise TypeError("coefficient %r is not an int, Fraction or RatFunc" % (c,))
    return coeff


class LinComb:
    """Finite Q(p,q)-linear combination, as a map from basis keys to nonzero
    coefficients.

    shape is None or a value that two combinations must share to be added
    or equal (a tensor arity, a matrix dimension).  Subclasses give the
    order of their keys (``_sort_key``), how a key renders as text or LaTeX
    (``_key_str(key, latex)``), when a text coefficient is parenthesized in
    front of a key (``_paren``, by default when it holds one of the
    characters ``_PAREN_CHARS``), and whatever product they have.
    """

    __slots__ = ("terms", "shape")
    _PAREN_CHARS = "+-/ "

    def __init__(self, terms=None, shape=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if type(c) is not RatFunc:
                    c = _coefficient(c)
                if c:
                    clean[key] = c
        self.terms = clean
        self.shape = shape

    @classmethod
    def from_clean(cls, terms, shape=None):
        """Wrap a term map that has no zero coefficients, without copying it."""
        self = object.__new__(cls)
        self.terms = terms
        self.shape = shape
        return self

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch: %r and %r" % (self.shape, other.shape))
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return self.from_clean(out, self.shape)

    def __neg__(self):
        return self.from_clean({key: -c for key, c in self.terms.items()}, self.shape)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        if type(coeff) is not RatFunc:
            coeff = _coefficient(coeff)
        if not coeff:
            return self.from_clean({}, self.shape)
        return self.from_clean({key: coeff * c for key, c in self.terms.items()},
                               self.shape)

    def __rmul__(self, coeff):
        coeff = RatFunc._coerce(coeff)
        if coeff is None:
            return NotImplemented
        return self.scale(coeff)

    __mul__ = __rmul__  # scalars commute; a subclass with a product overrides it

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.shape == other.shape and self.terms == other.terms

    def __hash__(self):
        return hash((self.shape, frozenset(self.terms.items())))

    @staticmethod
    def _sort_key(key):
        return key

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))

    def _paren(self, cs, coeff):
        """Whether the sign-stripped coefficient text cs needs parentheses."""
        return any(ch in cs for ch in self._PAREN_CHARS)

    def _render(self, latex):
        product = "%s\\, %s" if latex else "%s*%s"
        pieces = []
        for key, coeff in self.sorted_terms():
            ks = self._key_str(key, latex)
            neg, cs = coeff._signed_text(latex)
            if cs == "1":
                body = ks
            else:
                if not latex and self._paren(cs, coeff):
                    cs = "(%s)" % cs
                body = cs if ks == "1" else product % (cs, ks)
            if not pieces:
                pieces.append("-" + body if neg else body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces) or "0"

    def __str__(self):
        return self._render(False)

    def latex(self):
        return self._render(True)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self)


# ---------------------------------------------------------------------------
# substitution and numeric evaluation
# ---------------------------------------------------------------------------


def substitute(x, p=None, q=None):
    """Substitute exact rational values for p and/or q.

    Values must be nonzero rationals (the parameters are invertible).
    Raises PoleError if the canonical denominator vanishes at the point.
    """
    if p is None and q is None:
        return x
    point = [(name, Fraction(v)) for name, v in (("p", p), ("q", q)) if v is not None]
    if any(v == 0 for _, v in point):
        raise ValueError("cannot substitute zero for an invertible parameter")
    pv = P if p is None else RatFunc.from_fraction(Fraction(p))
    qv = Q if q is None else RatFunc.from_fraction(Fraction(q))

    def at(poly):
        return sum((c * pv ** i * qv ** j for (i, j), c in poly.items()), ZERO)

    den = at(x.den)
    if not den:
        raise PoleError("denominator vanishes at " + ", ".join("%s = %s" % nv for nv in point))
    return at(x.num) / den * pv ** x.shift[0] * qv ** x.shift[1]


def specialize_p1(x):
    """Degenerate the two-parameter field to the one-parameter one: p := 1."""
    return substitute(x, p=1)


def evaluate(x, p, q):
    """Exact numeric value at a nonzero rational point (p, q)."""
    v = substitute(x, Fraction(p), Fraction(q))
    return Fraction(v.num.get((0, 0), 0), v.den[(0, 0)])
