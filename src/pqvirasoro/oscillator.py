"""Exact operator algebra of the deformed Fock oscillator, and its matrix views.

The oscillator acts on the states |k>: the raising operator sends |k> to
|k+1> and the lowering operator sends |k> to lam_k |k-1>, where lam_k is
fixed by the defining relation of the chosen mode together with lam_0 = 0:

    classical:  a a+ - a+ a = 1          lam_k = k
    one_param:  a a+ - q a+ a = 1        lam_k = (q^k - 1)/(q - 1)
    two_param:  p a a+ - q a+ a = 1      lam_k = (p^k - q^k)/((p - q) p^k)

The classical and one-parameter modes are the two-parameter oscillator
at (p, q) = (1, 1) and at p = 1, so each constant below is written once,
in its two-parameter form, and substituted exactly at the mode's point.

Every operator the checks build is a finite sum of terms c z^a Lam^i,
where z|k> = |k+1> and Lam|k> = lam_k |k>: a+ = z, a = z^-1 Lam, and the
generator L_n = (a+)^(n+1) a is the one term z^n Lam. With r = q/p,
lam_k = (1 - r^k)/(p - q), so lam_(k+b) = lam_b + r^b lam_k, and the
algebra has one commutation rule,

    Lam^i z^b = z^b (u_b + v_b Lam)^i,    u_b = lam_b,  v_b = r^b.

These are the (p, q)-difference operators of Hartwig, Larsson and
Silvestrov (J. Algebra 295, 2006). For every integer b, u_b is
[b]_{p,q} / p^b (or -[-b]_{p,q} / q^-b when b < 0) and v_b a monomial,
so every structure constant is a Laurent polynomial in p and q, and
products of Laurent coefficients never meet a denominator. At p = q = 1
the rule reads Lam z^b = z^b (Lam + b): the classical mode is the Weyl
algebra, with no case of its own.

For fixed a, the terms z^a Lam^i act on infinitely many states |k>
through the distinct values lam_k, so they are linearly independent: an
operator is zero exactly when each of its coefficients is. The bracket
and power identities are therefore decided in this algebra, for every
index and with no truncation. ``realize`` is the one map from the
rewriting layer: L(n) goes to z^n Lam, C to zero, and each coefficient
to its value at the mode's point. The bracket check realizes R4 as
``freealg.relation_elements`` states it, the relation every rewrite rule
is solved from, so no weight of it is written here a second time;
``bracket_residual`` even takes L_n with n <= -2, which has no Fock
image. ``verify_bracket`` and ``verify_power_commutator`` return the
exact residual, with ``safe_columns`` as the bound on their input.

A matrix is only an output view: ``DifferenceOperator.view`` puts each
term's c lam_k^i at (k + a, k) within rows and columns 0..dim-1. The
oscillator pair, ``make_L``, ``word_image`` and ``element_image`` are
such views. ``FockOperator``'s own product stays as the truncated
reference the tests compare them against, on the columns of
``safe_columns``, where a product of truncated matrices computes what
the untruncated operators would.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .field import ZERO, ONE, P, Q, LinComb, accumulate, monomial, pq_int, pq_ladder, substitute
from .freealg import C, L, AlgebraElement, relation_elements, t_degree

# the point (p, q) of each mode, None leaving a parameter free
_POINTS = {"classical": (1, 1), "one_param": (1, None), "two_param": (None, None)}
MODES = tuple(_POINTS)


def _at_mode(mode, *values):
    """The two-parameter values, substituted at the mode's point."""
    if mode not in _POINTS:
        raise ValueError(f"unknown mode {mode!r}")
    return tuple(substitute(v, *_POINTS[mode]) for v in values)


class FockOperator(LinComb):
    """Sparse N x N matrix of exact rational-function entries.

    entries maps (row, col) to a nonzero RatFunc; the operator sends
    basis column |k> to sum_i entries[(i, k)] |i>.
    """

    __slots__ = ()

    def __init__(self, dim, entries=None):
        if not isinstance(dim, int) or dim < 1:
            raise ValueError("dimension must be a positive integer")
        for i, j in entries or ():
            if i not in range(dim) or j not in range(dim):
                raise ValueError("entry (%r, %r) lies outside a %d x %d matrix" % (i, j, dim, dim))
        super().__init__(entries, dim)

    @property
    def dim(self):
        return self.shape

    @property
    def entries(self):
        return self.terms

    @classmethod
    def identity(cls, dim):
        return cls(dim, {(k, k): ONE for k in range(dim)})

    def __mul__(self, other):
        """Matrix product with another operator, or scaling by a coefficient."""
        if not isinstance(other, FockOperator):
            return self.__rmul__(other)
        if self.shape != other.shape:
            raise ValueError("dimension mismatch")
        by_row = {}
        for (k, j), val in other.terms.items():
            by_row.setdefault(k, []).append((j, val))
        out = {}
        for (i, k), u in self.terms.items():
            for j, v in by_row.get(k, ()):
                accumulate(out, (i, j), u * v)
        return FockOperator.from_clean(out, self.shape)

    def column(self, k):
        """The image of |k> as a map row -> coefficient."""
        return {i: val for (i, j), val in self.terms.items() if j == k}

    def restrict(self, cols):
        """Keep only the columns in cols, zeroing the rest."""
        keep = set(cols)
        return FockOperator.from_clean(
            {pos: val for pos, val in self.terms.items() if pos[1] in keep}, self.shape)

    def is_zero_on(self, cols):
        keep = set(cols)
        return not any(pos[1] in keep for pos in self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        return "{%s}" % ", ".join(f"({i},{j}): {val}" for (i, j), val in self.sorted_terms())

    def __repr__(self):
        return f"FockOperator(dim={self.dim}, nnz={len(self.terms)})"


def lowering_coeff(k, mode):
    """Closed form for lam_k in the given mode."""
    return _at_mode(mode, pq_ladder(k))[0]


def lowering_coeff_iterative(k, mode):
    """Solve the defining recurrence step by step from lam_0 = 0.

    Independent oracle for the closed form: classical lam' = lam + 1,
    one_param lam' = q lam + 1, two_param p lam' - q lam = 1.
    """
    lam = ZERO
    for _ in range(k):
        if mode == "classical":
            lam = lam + ONE
        elif mode == "one_param":
            lam = Q * lam + ONE
        elif mode == "two_param":
            lam = (Q * lam + ONE) / P
        else:
            raise ValueError(f"unknown mode {mode!r}")
    return lam


@lru_cache(maxsize=None)
def _eigenvalue(k, i, mode):
    """lam_k^i at the mode: the eigenvalue of Lam^i on |k>."""
    return lowering_coeff(k, mode) ** i


@lru_cache(maxsize=None)
def _commute(b, i, mode):
    """Lam^i z^b = z^b sum_l e_l Lam^l, as the pairs (l, e_l) with e_l nonzero.

    The row is the binomial expansion of (u_b + v_b Lam)^i at the mode.
    """
    u, v = _at_mode(mode, pq_ladder(b), monomial(1, -b, b))
    row = ((l, comb(i, l) * u ** (i - l) * v ** l) for l in range(i + 1))
    return tuple((l, e) for l, e in row if e)


class DifferenceOperator(LinComb):
    """Exact operator sum of terms c z^a Lam^i, keyed by (a, i), in one mode.

    shape is the mode, whose constants the product substitutes, so
    operators of different modes neither add nor multiply.
    """

    __slots__ = ()

    def __init__(self, terms, mode):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        super().__init__(terms, mode)

    @classmethod
    def zero(cls, mode):
        return cls({}, mode)

    @classmethod
    def term(cls, a, i, mode):
        """The one term z^a Lam^i."""
        return cls({(a, i): ONE}, mode)

    def __mul__(self, other):
        """Product by the rule Lam^i z^b = z^b (u_b + v_b Lam)^i, or scaling."""
        if not isinstance(other, DifferenceOperator):
            return self.__rmul__(other)
        if self.shape != other.shape:
            raise ValueError("mode mismatch: %r and %r" % (self.shape, other.shape))
        out = {}
        for (a, i), c in self.terms.items():
            for (b, j), d in other.terms.items():
                cd = c * d
                for l, e in _commute(b, i, self.shape):
                    accumulate(out, (a + b, l + j), cd * e)
        return DifferenceOperator.from_clean(out, self.shape)

    def view(self, dim):
        """The truncated dim x dim matrix.

        The term c z^a Lam^i sends |k> to c lam_k^i |k+a>, which lands in
        the matrix when 0 <= k + a < dim.
        """
        out = {}
        for (a, i), c in self.terms.items():
            for k in range(dim):
                if 0 <= k + a < dim:
                    lam = _eigenvalue(k, i, self.shape)
                    if lam:
                        accumulate(out, (k + a, k), c * lam)
        return FockOperator.from_clean(out, dim)

    @staticmethod
    def _key_str(key, latex=False):
        names = ("z", "\\Lambda" if latex else "Lam")
        return " ".join(f"{x}^{e}" if e != 1 else x for x, e in zip(names, key) if e) or "1"


def exact_L(n, mode):
    """The generator L_n = z^n Lam, for every L index n, as an exact operator."""
    return DifferenceOperator.term(L(n), 1, mode)


@dataclass(frozen=True)
class Oscillator:
    mode: str
    dim: int
    a: FockOperator
    a_plus: FockOperator

    def __iter__(self):
        yield self.a
        yield self.a_plus


def make_oscillator(N, mode="two_param"):
    """The oscillator pair a = z^-1 Lam and a+ = z, as N x N matrices."""
    if not isinstance(N, int) or N < 3:
        raise ValueError("truncation dimension must be an integer >= 3")
    return Oscillator(mode=mode, dim=N, a=exact_L(-1, mode).view(N),
                      a_plus=DifferenceOperator.term(1, 0, mode).view(N))


def safe_columns(dim, word_length, max_shift):
    """Column guard against truncation artifacts.

    A word of at most word_length letters, each shifting the state
    index up by at most max_shift, cannot push a state from a safe
    column past the cutoff, so on those columns the truncated matrices
    compute exactly what the untruncated operators would.
    """
    top = dim - 1 - word_length * max(max_shift, 0)
    if top < 0:
        raise ValueError(
            f"no safe columns: dim {dim} too small for words of length "
            f"{word_length} with shift {max_shift}"
        )
    return range(top + 1)


def make_L(n, osc):
    """The generator L_n = (a+)^(n+1) a as a truncated matrix.

    Only n >= -1 makes sense here: the raising operator is not
    invertible, so (a+)^(n+1) is undefined for n <= -2. L_n = z^n Lam
    sends |k> to lam_k |k+n>, which drops out past the top row, so L_n
    is zero for n >= dim - 1; each call builds a new matrix.
    """
    if not isinstance(n, int) or n < -1:
        raise ValueError("L_n has a Fock image only for integer n >= -1")
    return exact_L(n, osc.mode).view(osc.dim)


def realize(x, mode):
    """The exact image of an element of the rewriting layer in the mode.

    The letter L(n), the int n, maps to L_n = z^n Lam and C to zero (the
    realization is centerless), and each coefficient is taken at the
    mode's point. T has no Fock image, so a word containing it is refused.
    """
    out = {}
    for word, coeff in x.terms.items():
        if any(map(t_degree, word)):
            raise ValueError("T has no Fock image")
        if C not in word:
            # c z^n Lam for the first letter L(n), or c for the empty word
            c = _at_mode(mode, coeff)[0]
            image = DifferenceOperator({(word[0], 1) if word else (0, 0): c}, mode)
            for letter in word[1:]:
                image = image * exact_L(letter, mode)
            for key, d in image.terms.items():
                accumulate(out, key, d)
    return DifferenceOperator(out, mode)


def bracket_residual(n, m, mode):
    """The image of R4(n, m), as ``relation_elements`` states it, in the
    exact algebra, for any integers n and m."""
    (rel,) = relation_elements("R4", n, m)
    return realize(rel, mode)


def verify_bracket(n, m, osc):
    """Exact residual of the bracket relation R4 in the oscillator's mode.

    The realization is centerless, so the image of
    (q/p)^n L_n L_m - (q/p)^m L_m L_n - [L_n, L_m] must vanish. n and m
    must have Fock images, and the safe columns of osc.dim bound them.
    """
    if n < -1 or m < -1:
        raise ValueError("bracket checks need n, m >= -1")
    safe_columns(osc.dim, 2, max(n, m, 1))
    return bracket_residual(n, m, osc.mode)


def word_image(word, osc):
    """Matrix image of a word: the view at osc.dim of its exact product.

    Every column is exact, including those on which a product of
    truncated matrices loses a state pushed past the top row and back.
    """
    return realize(AlgebraElement.from_word(word), osc.mode).view(osc.dim)


def element_image(x, osc):
    """Matrix image of a linear combination of words: the view at osc.dim
    of its exact image."""
    return realize(x, osc.mode).view(osc.dim)


def power_weights(n, mode):
    """Coefficients (alpha, beta, gamma) with alpha a (a+)^n - beta (a+)^n a = gamma (a+)^(n-1)."""
    return _at_mode(mode, P ** n, Q ** n, pq_int(n))


def power_residual(n, mode):
    """alpha a (a+)^n - beta (a+)^n a - gamma (a+)^(n-1) in the exact algebra."""
    alpha, beta, gamma = power_weights(L(n), mode)
    a, up = exact_L(-1, mode), DifferenceOperator.term(n, 0, mode)
    return a * up * alpha - up * a * beta - DifferenceOperator.term(n - 1, 0, mode) * gamma


def verify_power_commutator(n, osc):
    """Exact residual of the ladder identity for a against the n-th power
    of a+; the safe columns of osc.dim bound n."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("power commutator checks need n >= 1")
    safe_columns(osc.dim, n + 1, 1)
    return power_residual(n, osc.mode)
