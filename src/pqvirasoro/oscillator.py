"""Truncated Fock-space realization of the deformed oscillator.

The oscillator acts on the column space spanned by |0>, ..., |N-1>:
the raising operator sends |k> to |k+1> and the lowering operator
sends |k> to lam_k |k-1>, where lam_k is fixed by the defining
relation of the chosen mode together with lam_0 = 0:

    classical:  a a+ - a+ a = 1          lam_k = k
    one_param:  a a+ - q a+ a = 1        lam_k = (q^k - 1)/(q - 1)
    two_param:  p a a+ - q a+ a = 1      lam_k = (p^k - q^k)/((p - q) p^k)

The classical and one-parameter modes are the two-parameter oscillator
at (p, q) = (1, 1) and at p = 1, so each constant below is written once,
in its two-parameter form, and substituted exactly at the mode's point.
The generators L_n = (a+)^(n+1) a (n >= -1) then give matrices on
which the deformed Virasoro relations can be checked by exact
arithmetic. Since a sends |k> to lam_k |k-1> and a+ only shifts,
L_n sends |k> to lam_k |k+n>, so ``make_L`` reads L_n off the entries
of a in one pass; past the top row the shifted entries drop out, and
L_n is zero for n >= dim - 1. Likewise (a+)^k is the entries 1 at
(j + k, j), with no repeated product. The matrices are built
independently of the symbolic rewriting engine, so checking its
structure constants on them is an independent test of those constants.
Truncation spoils the top edge of the matrix, so identities are only
asserted on guarded columns that no intermediate state can push past
the cutoff. Column j of a product A B is A times column j of B, so the
checks restrict each right factor to the guarded columns before they
multiply, and compute no other column.
"""

from dataclasses import dataclass

from .field import ZERO, ONE, P, Q, LinComb, accumulate, monomial, pq_int, pq_ladder, substitute
from .freealg import C, bracket_coeff, t_degree

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
    def zero(cls, dim):
        return cls(dim)

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

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = FockOperator.identity(self.dim)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

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
    """Build the truncated oscillator pair for the given mode."""
    if not isinstance(N, int) or N < 3:
        raise ValueError("truncation dimension must be an integer >= 3")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    lam = tuple(lowering_coeff(k, mode) for k in range(N))
    a_plus = _raising_power(1, N, range(N))
    a = FockOperator(N, {(k - 1, k): lam[k] for k in range(1, N)})
    return Oscillator(mode=mode, dim=N, a=a, a_plus=a_plus)


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
    invertible, so (a+)^(n+1) is undefined for n <= -2. The entry
    lam_k at (k-1, k) of a moves to (k+n, k), and drops out when
    k + n is past the top row; each call builds a new matrix.
    """
    if not isinstance(n, int) or n < -1:
        raise ValueError("L_n has a Fock image only for integer n >= -1")
    return FockOperator.from_clean(
        {(k + n, k): lam for (_, k), lam in osc.a.terms.items() if k + n < osc.dim},
        osc.dim)


def _raising_power(k, dim, cols):
    """(a+)^k as a truncated matrix, restricted to the columns cols.

    a+ only shifts, so (a+)^k sends |j> to |j+k>: its entries are 1 at
    (j + k, j), and the ones past the top row drop out.
    """
    return FockOperator.from_clean({(j + k, j): ONE for j in cols if j + k < dim}, dim)


def deformed_commutator(A, B, alpha, beta):
    """alpha*A*B - beta*B*A, exactly."""
    if A.dim != B.dim:
        raise ValueError("dimension mismatch")
    return A * B * alpha - B * A * beta


def bracket_weights(n, m, mode):
    """Coefficients (alpha, beta, gamma) of the mode's bracket relation.

    The relation checked is alpha L_n L_m - beta L_m L_n = gamma L_{m+n};
    in two-parameter form alpha = (q/p)^n and beta = (q/p)^m.
    """
    return _at_mode(mode, monomial(1, -n, n), monomial(1, -m, m), bracket_coeff(n, m))


def verify_bracket(n, m, osc):
    """Residual of the bracket relation for the oscillator's mode.

    Returns alpha L_n L_m - beta L_m L_n - gamma L_{m+n} restricted to
    its safe columns; the realization is centerless, so the
    residual must vanish there exactly.
    """
    if n < -1 or m < -1:
        raise ValueError("bracket checks need n, m >= -1")
    alpha, beta, gamma = bracket_weights(n, m, osc.mode)
    cols = safe_columns(osc.dim, 2, max(n, m, 1))
    Ln, Lm = make_L(n, osc), make_L(m, osc)
    res = Ln * Lm.restrict(cols) * alpha - Lm * Ln.restrict(cols) * beta
    if not gamma.is_zero():
        res = res - make_L(m + n, osc).restrict(cols) * gamma
    return res


def word_image(word, osc):
    """Matrix image of a word of letters from the rewriting layer.

    The letter L(n), the int n, maps to L_n and C to the zero matrix (the
    realization is centerless).  T has no Fock image, so words containing
    it are rejected.
    """
    if any(map(t_degree, word)):
        raise ValueError("T has no Fock image")
    out = FockOperator.identity(osc.dim)
    for letter in word:
        if letter == C:
            return FockOperator.zero(osc.dim)
        out = out * make_L(letter, osc)
    return out


def element_image(x, osc):
    """Matrix image of a linear combination of words, term by term."""
    out = FockOperator.zero(osc.dim)
    for word, coeff in x.terms.items():
        out = out + word_image(word, osc).scale(coeff)
    return out


def power_weights(n, mode):
    """Coefficients (alpha, beta, gamma) with alpha a (a+)^n - beta (a+)^n a = gamma (a+)^(n-1)."""
    return _at_mode(mode, P ** n, Q ** n, pq_int(n))


def verify_power_commutator(n, osc):
    """Residual of the ladder identity for a against the n-th power of a+."""
    if not isinstance(n, int) or n < 1:
        raise ValueError("power commutator checks need n >= 1")
    alpha, beta, gamma = power_weights(n, osc.mode)
    cols = safe_columns(osc.dim, n + 1, 1)
    a, ap_n = osc.a, _raising_power(n, osc.dim, range(osc.dim))
    return (a * ap_n.restrict(cols) * alpha - ap_n * a.restrict(cols) * beta
            - _raising_power(n - 1, osc.dim, cols) * gamma)
