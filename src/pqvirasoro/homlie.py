"""The two-parameter deformed Virasoro algebra as a Hom-Lie algebra.

Elements live in the span of the generators L_n (n ranging over all
integers) and a central element C: the degree-1 part of the free algebra,
so they are ``freealg.AlgebraElement`` values on the one-letter words
(L(n),) and (C,). A word of any other length is not in the span, and
``vbracket`` and ``alpha`` raise ``ValueError`` on it. The bracket is

    [L_n, L_m] = ([m]/p^m - [n]/p^n) L_{m+n} + delta_{m+n,0} g(n) C

with [k] the (p,q)-integer and the central weight

    g(n) = (q/p)^(-n) / (6 (1 + (q/p)^n)) * [n-1]/p^(n-1) * [n]/p^n * [n+1]/p^(n+1),

while C brackets to zero with everything. The twist map scales L_n by
1 + (q/p)^n and fixes C. The bracket is skew symmetric and satisfies
the twisted Jacobi identity

    [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0,

but the plain Jacobi identity fails, and the twist is deliberately not
a bracket homomorphism. The structure constants and twist weights are
read from the rewriting layer's ``freealg.bracket_env`` and
``freealg.twist_weight``, the one table of them, so they
are not checked against a second copy here. ``twisted_env(n, j)`` caches
[alpha(L_n), L_j] as that table's entry scaled by the twist weight. A
Jacobi sum reads every bracket from these tables: since C is central,
the inner bracket [L_m, L_k] contributes only its L_{m+k} term, so
[alpha(L_n), [L_m, L_k]] = bracket_coeff(m, k) twisted_env(n, m + k),
and no element is built or bracketed term by term. The skew residual and
the twist's gap read the same tables: [L_n, L_m] + [L_m, L_n] is the sum
of two entries, and [alpha(L_n), alpha(L_m)] is twisted_env(n, m) scaled
by the twist weight of m. ``vbracket`` and ``alpha`` stay the general
element maps. The independent checks of the constants are the Fock
realization in ``oscillator``, which realizes R4 as
``freealg.relation_elements`` states it, from this table, and the
twisted Jacobi identity, whose central triples test g(n).
"""

from functools import lru_cache

from .field import accumulate
from .freealg import AlgebraElement, C, L, bracket_coeff, bracket_env, twist_weight


def vbracket(x, y):
    """Bilinear bracket; C is central, so only L-L pairs contribute."""
    ys = [(m, cy) for (m,), cy in y.terms.items() if m != C]
    out = {}
    for (n,), cx in x.terms.items():
        if n == C:
            continue
        for m, cy in ys:
            w = cx * cy
            for word, coeff in bracket_env(n, m).terms.items():
                accumulate(out, word, w * coeff)
    return AlgebraElement.from_clean(out)


def alpha(x):
    """The twist map: L_n goes to twist_weight(n) L_n, C is fixed.

    twist_weight(n) = 1 + (q/p)^n is a structure constant, read from
    ``freealg`` with the others, which caches each weight once.
    """
    return AlgebraElement.from_clean({
        (n,): coeff if n == C else coeff * twist_weight(n)
        for (n,), coeff in x.terms.items()
    })


def skew_residual(n, m):
    """[L_n, L_m] + [L_m, L_n]; zero including the central component."""
    n, m = L(n), L(m)
    return bracket_env(n, m) + bracket_env(m, n)


@lru_cache(maxsize=None)
def twisted_env(n, j):
    """[alpha(L_n), L_j]: the environment bracket scaled by twist_weight(n)."""
    return bracket_env(n, j).scale(twist_weight(n))


def _jacobi_sum(outer_env, n, m, k):
    """Cyclic sum of bracket_coeff(b, c) * outer_env(a, b + c) over
    (a, b, c) = (n, m, k), (m, k, n), (k, n, m).

    outer_env(a, j) is the outer bracket of L_a with L_j. The indices are
    checked before any table is read, since a cache hit checks nothing.
    """
    n, m, k = L(n), L(m), L(k)
    out = {}
    for a, b, c in ((n, m, k), (m, k, n), (k, n, m)):
        env = outer_env(a, b + c)
        w = bracket_coeff(b, c)
        if w:
            for word, coeff in env.terms.items():
                accumulate(out, word, w * coeff)
    return AlgebraElement.from_clean(out)


def hom_jacobi_residual(n, m, k):
    """Cyclic sum of [alpha(L_n), [L_m, L_k]]; zero for every triple."""
    return _jacobi_sum(twisted_env, n, m, k)


def plain_jacobi_residual(n, m, k):
    """The same cyclic sum without the twist; generically nonzero."""
    return _jacobi_sum(bracket_env, n, m, k)


def alpha_bracket_gap(n, m):
    """[alpha(L_n), alpha(L_m)] - alpha([L_n, L_m]).

    Nonzero in general: the twist is not a bracket homomorphism.
    """
    n, m = L(n), L(m)
    return twisted_env(n, m).scale(twist_weight(m)) - alpha(bracket_env(n, m))
