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
are not checked against a second copy here, and the inner bracket
[L_m, L_k] of a Jacobi sum is read from that table as it is. Their
independent checks are the Fock realization in ``oscillator`` and the
twisted Jacobi identity, whose central triples test g(n).
"""

from .field import accumulate
from .freealg import AlgebraElement, C, L, bracket_env, twist_weight


def _gen(n):
    return AlgebraElement.from_word((L(n),))


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
    ln, lm = _gen(n), _gen(m)
    return vbracket(ln, lm) + vbracket(lm, ln)


def _jacobi_sum(outer, n, m, k):
    """Cyclic sum of [outer(L_n), [L_m, L_k]].

    The inner bracket of two generators is ``bracket_env`` itself, so
    only the outer brackets go through ``vbracket``.
    """
    return (
        vbracket(outer(_gen(n)), bracket_env(m, k))
        + vbracket(outer(_gen(m)), bracket_env(k, n))
        + vbracket(outer(_gen(k)), bracket_env(n, m))
    )


def hom_jacobi_residual(n, m, k):
    """Cyclic sum of [alpha(L_n), [L_m, L_k]]; zero for every triple."""
    return _jacobi_sum(alpha, n, m, k)


def plain_jacobi_residual(n, m, k):
    """The same cyclic sum without the twist; generically nonzero."""
    return _jacobi_sum(lambda x: x, n, m, k)


def alpha_bracket_gap(n, m):
    """[alpha(L_n), alpha(L_m)] - alpha([L_n, L_m]).

    Nonzero in general: the twist is not a bracket homomorphism.
    """
    ln, lm = _gen(n), _gen(m)
    return vbracket(alpha(ln), alpha(lm)) - alpha(vbracket(ln, lm))
