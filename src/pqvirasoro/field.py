"""Exact arithmetic in the field Q(p,q) of rational functions in two formal
deformation parameters.

Every value is kept in a unique canonical form

    p^a * q^b * num(p,q) / den(p,q)

where num and den are coprime integer polynomials, neither divisible by p nor
by q (all pure monomial content lives in the integer shift pair (a, b)), the
integer contents of num and den are coprime, and den has a positive leading
coefficient in graded-lex order with p > q.  Because the form is unique,
equality is plain structural comparison and hashing is well defined.

All values are immutable; every function here except ``accumulate`` (which
adds into the caller's dict) is pure, so instances can be shared freely
between threads or worker processes.

``LinComb`` is the sparse linear combination over this field that every
element type of the package (words, tensors, Hom-Lie elements, Fock
matrices) is built on.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd

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
# sparse integer polynomials in p and q: {(i, j): c} with c != 0
# ---------------------------------------------------------------------------

_ZERO_P: dict = {}
_ONE_P = {(0, 0): 1}


def _grlex(mono):
    # graded lexicographic order with p > q
    return (mono[0] + mono[1], mono[0])


def _p_add(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def _p_neg(f):
    return {m: -c for m, c in f.items()}


def _p_scale(f, c):
    if c == 0:
        return {}
    if c == 1:
        return dict(f)
    return {m: c * v for m, v in f.items()}


def _p_mul(f, g):
    if not f or not g:
        return {}
    if len(f) == 1:
        ((i0, j0), c0), = f.items()
        return {(i0 + i, j0 + j): c0 * c for (i, j), c in g.items()}
    if len(g) == 1:
        return _p_mul(g, f)
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


def _p_shift(f, di, dj):
    if di == 0 and dj == 0:
        return dict(f)
    return {(i + di, j + dj): c for (i, j), c in f.items()}


def _p_min_exps(f):
    ai = min(i for i, _ in f)
    bj = min(j for _, j in f)
    return ai, bj


def _p_content(f):
    # gcd of the integer coefficients; the univariate helpers use it as well
    c = 0
    for v in f.values():
        c = _int_gcd(c, v)
        if c == 1:
            break
    return c


def _p_lead_coeff(f):
    return f[max(f, key=_grlex)]


def _p_sign_norm(f):
    # positive leading coefficient under graded-lex
    if f and _p_lead_coeff(f) < 0:
        return _p_neg(f)
    return dict(f)


def _p_is_homogeneous(f):
    degs = {i + j for i, j in f}
    return len(degs) <= 1


def _p_divexact(f, g):
    """Exact division in Z[p,q]; raises ValueError if g does not divide f."""
    if g == _ONE_P:
        return dict(f)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(g) == 1:
        ((gi, gj), gc), = g.items()
        out = {}
        for (i, j), c in f.items():
            q, r = divmod(c, gc)
            if r or i < gi or j < gj:
                raise ValueError("inexact polynomial division")
            out[(i - gi, j - gj)] = q
        return out
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


# ---------------------------------------------------------------------------
# univariate helpers: {exp: coeff}, used for GCD computations
# ---------------------------------------------------------------------------


def _u_deg(F):
    return max(F) if F else -1


def _u_mul(F, G):
    if not F or not G:
        return {}
    out = {}
    for e1, c1 in F.items():
        for e2, c2 in G.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            elif e in out:
                del out[e]
    return out


def _u_sub(F, G):
    out = dict(F)
    for e, c in G.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _u_primitive(F):
    if not F:
        return {}
    c = _p_content(F)
    if c == 1:
        return dict(F)
    return {e: v // c for e, v in F.items()}


def _u_sign(F):
    if F and F[_u_deg(F)] < 0:
        return {e: -v for e, v in F.items()}
    return dict(F)


def _u_pseudo_rem(F, G):
    dG = _u_deg(G)
    lcG = G[dG]
    R = dict(F)
    while R and _u_deg(R) >= dG:
        dR = _u_deg(R)
        lcR = R[dR]
        new = {e: c * lcG for e, c in R.items()}
        for e, c in G.items():
            t = e + dR - dG
            s = new.get(t, 0) - lcR * c
            if s:
                new[t] = s
            elif t in new:
                del new[t]
        R = new
    return R


def _u_gcd(F, G):
    """GCD in Z[x] (primitive PRS), leading coefficient positive."""
    if not F:
        return _u_sign(G)
    if not G:
        return _u_sign(F)
    cf = _p_content(F)
    cg = _p_content(G)
    c = _int_gcd(cf, cg)
    A = {e: v // cf for e, v in F.items()}
    B = {e: v // cg for e, v in G.items()}
    if _u_deg(A) < _u_deg(B):
        A, B = B, A
    while B:
        R = _u_pseudo_rem(A, B)
        A, B = B, _u_primitive(R)
    A = _u_sign(_u_primitive(A))
    if c != 1:
        A = {e: v * c for e, v in A.items()}
    return A


def _u_divexact(F, D):
    out = {}
    R = dict(F)
    dD = _u_deg(D)
    lcD = D[dD]
    while R:
        dR = _u_deg(R)
        if dR < dD:
            raise ValueError("inexact univariate division")
        q, r = divmod(R[dR], lcD)
        if r:
            raise ValueError("inexact univariate division")
        e = dR - dD
        out[e] = q
        for eD, cD in D.items():
            t = eD + e
            s = R.get(t, 0) - q * cD
            if s:
                R[t] = s
            else:
                R.pop(t, None)
    return out


# ---------------------------------------------------------------------------
# bivariate GCD: recursive view Z[q][p] with a primitive PRS, plus a fast
# path for homogeneous operands (then gcd reduces to a univariate gcd in p/q)
# ---------------------------------------------------------------------------


def _rec_from(f):
    R = {}
    for (i, j), c in f.items():
        R.setdefault(i, {})[j] = c
    return R


def _rec_to(R):
    return {(i, j): c for i, ci in R.items() for j, c in ci.items()}


def _rec_content_p(R):
    cont = {}
    for ci in R.values():
        cont = _u_gcd(cont, ci)
        if cont == {0: 1}:
            break
    return cont


def _rec_div(R, D):
    if D == {0: 1}:
        return {i: dict(ci) for i, ci in R.items()}
    return {i: _u_divexact(ci, D) for i, ci in R.items()}


def _rec_primitive_p(R):
    if not R:
        return {}
    return _rec_div(R, _rec_content_p(R))


def _rec_pseudo_rem(A, B):
    dB = max(B)
    lcB = B[dB]
    R = {i: dict(ci) for i, ci in A.items()}
    while R and max(R) >= dB:
        dR = max(R)
        lcR = R[dR]
        new = {i: _u_mul(ci, lcB) for i, ci in R.items()}
        for i, ci in B.items():
            t = i + dR - dB
            cur = _u_sub(new.get(t, {}), _u_mul(ci, lcR))
            if cur:
                new[t] = cur
            elif t in new:
                del new[t]
        R = new
    return R


def _p_gcd_core(f, g):
    """GCD of two nonzero int-content-free, monomial-free polynomials."""
    if f == g:
        return _p_sign_norm(f)
    if _p_is_homogeneous(f) and _p_is_homogeneous(g):
        F = {i: c for (i, j), c in f.items()}
        G = {i: c for (i, j), c in g.items()}
        H = _u_gcd(F, G)
        d = _u_deg(H)
        return {(i, d - i): c for i, c in H.items()}
    F = _rec_from(f)
    G = _rec_from(g)
    cf = _rec_content_p(F)
    cg = _rec_content_p(G)
    c = _u_gcd(cf, cg)
    A = _rec_div(F, cf)
    B = _rec_div(G, cg)
    if max(A) < max(B):
        A, B = B, A
    while B:
        R = _rec_pseudo_rem(A, B)
        A, B = B, _rec_primitive_p(R)
    core = _rec_to(_rec_primitive_p(A))
    if c != {0: 1}:
        core = _p_mul(core, {(0, j): v for j, v in c.items()})
    return _p_sign_norm(core)


def _p_gcd(f, g):
    """GCD in Z[p,q] with positive graded-lex leading coefficient."""
    if not f:
        return _p_sign_norm(g)
    if not g:
        return _p_sign_norm(f)
    af, bf = _p_min_exps(f)
    ag, bg = _p_min_exps(g)
    f0 = _p_shift(f, -af, -bf)
    g0 = _p_shift(g, -ag, -bg)
    mi, mj = min(af, ag), min(bf, bg)
    cf = _p_content(f0)
    cg = _p_content(g0)
    c = _int_gcd(cf, cg)
    if len(f0) == 1 or len(g0) == 1:
        # one operand is (up to the stripped monomial) a constant
        core = {(0, 0): c}
    else:
        F = {m: v // cf for m, v in f0.items()}
        G = {m: v // cg for m, v in g0.items()}
        core = _p_gcd_core(F, G)
        if c != 1:
            core = _p_scale(core, c)
    return _p_shift(core, mi, mj)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _mono_str(c, i, j, latex=False):
    parts = []
    ac = abs(c)
    if ac != 1 or (i == 0 and j == 0):
        parts.append(str(ac))
    for sym, e in (("p", i), ("q", j)):
        if e == 0:
            continue
        if e == 1:
            parts.append(sym)
        elif latex:
            parts.append("%s^{%d}" % (sym, e))
        else:
            parts.append("%s^%d" % (sym, e))
    if latex:
        return " ".join(parts)
    return "*".join(parts)


def _poly_str(f, latex=False):
    if not f:
        return "0"
    terms = sorted(f.items(), key=lambda kv: _grlex(kv[0]), reverse=True)
    out = []
    for k, ((i, j), c) in enumerate(terms):
        s = _mono_str(c, i, j, latex)
        if k == 0:
            out.append("-" + s if c < 0 else s)
        else:
            out.append((" - " if c < 0 else " + ") + s)
    return "".join(out)


def _den_is_atomic(f):
    if len(f) != 1:
        return False
    ((i, j), c), = f.items()
    if i == 0 and j == 0:
        return True  # integer
    return c == 1 and (i == 0 or j == 0)


# ---------------------------------------------------------------------------
# the canonical rational function
# ---------------------------------------------------------------------------


def _as_poly(x):
    if isinstance(x, dict):
        return {m: c for m, c in x.items() if c}
    if isinstance(x, int):
        return {(0, 0): x} if x else {}
    raise TypeError("expected int or exponent->coefficient dict, got %r" % (x,))


class RatFunc:
    """Element of Q(p,q) in canonical Laurent-shifted form.

    shift -- pair (a, b): global monomial factor p^a * q^b
    num   -- integer polynomial, not divisible by p or q
    den   -- integer polynomial, not divisible by p or q, coprime to num,
             positive graded-lex leading coefficient

    Zero is represented uniquely as shift (0,0), num 0, den 1.
    """

    __slots__ = ("shift", "num", "den", "_hash")

    def __init__(self, num=0, den=1, shift=(0, 0)):
        num = _as_poly(num)
        den = _as_poly(den)
        if not den:
            raise ZeroDivisionError("zero denominator in Q(p,q)")
        if not num:
            self.shift = (0, 0)
            self.num = {}
            self.den = dict(_ONE_P)
            self._hash = None
            return
        a, b = shift
        ai, bj = _p_min_exps(num)
        if ai or bj:
            num = _p_shift(num, -ai, -bj)
            a += ai
            b += bj
        ai, bj = _p_min_exps(den)
        if ai or bj:
            den = _p_shift(den, -ai, -bj)
            a -= ai
            b -= bj
        if den != _ONE_P:
            g = _p_gcd(num, den)
            if g != _ONE_P:
                num = _p_divexact(num, g)
                den = _p_divexact(den, g)
        if _p_lead_coeff(den) < 0:
            num = _p_neg(num)
            den = _p_neg(den)
        self.shift = (a, b)
        self.num = num
        self.den = den
        self._hash = None

    # -- internal fast constructor for results already in canonical form --

    @classmethod
    def _raw(cls, shift, num, den):
        self = object.__new__(cls)
        self.shift = shift
        self.num = num
        self.den = den
        self._hash = None
        return self

    @classmethod
    def from_fraction(cls, fr):
        return cls(fr.numerator, fr.denominator)

    # -- predicates ------------------------------------------------------

    def is_zero(self):
        return not self.num

    def is_one(self):
        return self.shift == (0, 0) and self.num == _ONE_P and self.den == _ONE_P

    def is_monomial(self):
        """True when the value is c * p^a * q^b with integer c."""
        return self.den == _ONE_P and len(self.num) == 1 and (0, 0) in self.num

    def __bool__(self):
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, int):
            return RatFunc(other)
        if isinstance(other, Fraction):
            return RatFunc(other.numerator, other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num:
            return o
        if not o.num:
            return self
        a = min(self.shift[0], o.shift[0])
        b = min(self.shift[1], o.shift[1])
        n1 = _p_shift(self.num, self.shift[0] - a, self.shift[1] - b)
        n2 = _p_shift(o.num, o.shift[0] - a, o.shift[1] - b)
        if self.den == o.den:
            return RatFunc(_p_add(n1, n2), self.den, (a, b))
        g = _p_gcd(self.den, o.den)
        if g == _ONE_P:
            num = _p_add(_p_mul(n1, o.den), _p_mul(n2, self.den))
            den = _p_mul(self.den, o.den)
        else:
            d1 = _p_divexact(self.den, g)
            d2 = _p_divexact(o.den, g)
            num = _p_add(_p_mul(n1, d2), _p_mul(n2, d1))
            den = _p_mul(self.den, d2)
        return RatFunc(num, den, (a, b))

    __radd__ = __add__

    def __neg__(self):
        if not self.num:
            return self
        return RatFunc._raw(self.shift, _p_neg(self.num), dict(self.den))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def _scale_int(self, c):
        if c == 0 or not self.num:
            return ZERO
        if c == 1:
            return self
        cd = _p_content(self.den)
        g = _int_gcd(c, cd)
        num = _p_scale(self.num, c // g)
        den = self.den if g == 1 else {m: v // g for m, v in self.den.items()}
        return RatFunc._raw(self.shift, num, den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num or not o.num:
            return ZERO
        a = self.shift[0] + o.shift[0]
        b = self.shift[1] + o.shift[1]
        if self.is_monomial():
            return o._scale_int(self.num[(0, 0)])._with_shift(a, b)
        if o.is_monomial():
            return self._scale_int(o.num[(0, 0)])._with_shift(a, b)
        if self.den == _ONE_P and o.den == _ONE_P:
            return RatFunc(_p_mul(self.num, o.num), 1, (a, b))
        g1 = _p_gcd(self.num, o.den)
        g2 = _p_gcd(o.num, self.den)
        n1 = self.num if g1 == _ONE_P else _p_divexact(self.num, g1)
        d2 = o.den if g1 == _ONE_P else _p_divexact(o.den, g1)
        n2 = o.num if g2 == _ONE_P else _p_divexact(o.num, g2)
        d1 = self.den if g2 == _ONE_P else _p_divexact(self.den, g2)
        return RatFunc._raw((a, b), _p_mul(n1, n2), _p_mul(d1, d2))

    __rmul__ = __mul__

    def _with_shift(self, a, b):
        if not self.num:
            return self
        if (a, b) == self.shift:
            return self
        return RatFunc._raw((a, b), self.num, self.den)

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("division by zero in Q(p,q)")
        num, den = dict(self.den), dict(self.num)
        if _p_lead_coeff(den) < 0:
            num = _p_neg(num)
            den = _p_neg(den)
        return RatFunc._raw((-self.shift[0], -self.shift[1]), num, den)

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
        if not self.num:
            return ZERO
        num, den = _ONE_P, _ONE_P
        base_n, base_d = self.num, self.den
        e = k
        while e:
            if e & 1:
                num = _p_mul(num, base_n)
                den = _p_mul(den, base_d)
            e >>= 1
            if e:
                base_n = _p_mul(base_n, base_n)
                base_d = _p_mul(base_d, base_d)
        return RatFunc._raw((self.shift[0] * k, self.shift[1] * k), num, den)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.shift == o.shift and self.num == o.num and self.den == o.den

    def __ne__(self, other):
        r = self.__eq__(other)
        return r if r is NotImplemented else not r

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.shift,
                      frozenset(self.num.items()),
                      frozenset(self.den.items())))
            self._hash = h
        return h

    # -- display ---------------------------------------------------------

    def _display_parts(self):
        a, b = self.shift
        num = _p_shift(self.num, max(a, 0), max(b, 0))
        den = _p_shift(self.den, max(-a, 0), max(-b, 0))
        return num, den

    def _render(self, latex):
        if not self.num:
            return "0"
        num, den = self._display_parts()
        sign = ""
        if _p_lead_coeff(num) < 0:
            sign = "-"
            num = _p_neg(num)
        ns = _poly_str(num, latex)
        if den == _ONE_P:
            if sign and len(num) > 1:
                return ("-\\left(%s\\right)" if latex else "-(%s)") % ns
            return sign + ns
        ds = _poly_str(den, latex)
        if latex:
            return "%s\\frac{%s}{%s}" % (sign, ns, ds)
        if len(num) > 1:
            ns = "(%s)" % ns
        if not _den_is_atomic(den):
            ds = "(%s)" % ds
        return "%s%s/%s" % (sign, ns, ds)

    def __str__(self):
        return self._render(False)

    def latex(self):
        return self._render(True)

    def __repr__(self):
        return "RatFunc(%s)" % self


ZERO = RatFunc(0)
ONE = RatFunc(1)
P = RatFunc({(1, 0): 1})
Q = RatFunc({(0, 1): 1})


def monomial(c=1, a=0, b=0):
    """The Laurent monomial c * p^a * q^b."""
    if c == 0:
        return ZERO
    return RatFunc._raw((a, b), {(0, 0): c}, dict(_ONE_P))


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

    def __init__(self, terms=None, shape=None):
        clean = {}
        if terms:
            for key, c in terms.items():
                if isinstance(c, int):
                    c = RatFunc(c)
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
        if isinstance(coeff, int):
            coeff = RatFunc(coeff)
        if not coeff:
            return self.from_clean({}, self.shape)
        return self.from_clean({key: coeff * c for key, c in self.terms.items()},
                               self.shape)

    def __rmul__(self, coeff):
        if isinstance(coeff, (int, RatFunc)):
            return self.scale(coeff)
        return NotImplemented

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
            cs = coeff._render(latex)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
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
