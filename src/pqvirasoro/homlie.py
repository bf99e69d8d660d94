"""The two-parameter deformed Virasoro algebra as a Hom-Lie algebra.

Elements live in the span of the generators L_n (n ranging over all
integers) and a central element C. The bracket is

    [L_n, L_m] = ([m]/p^m - [n]/p^n) L_{m+n} + delta_{m+n,0} g(n) C

with [k] the (p,q)-integer and the central weight

    g(n) = (q/p)^(-n) / (6 (1 + (q/p)^n)) * [n-1]/p^(n-1) * [n]/p^n * [n+1]/p^(n+1),

while C brackets to zero with everything. The twist map scales L_n by
1 + (q/p)^n and fixes C. The bracket is skew symmetric and satisfies
the twisted Jacobi identity

    [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0,

but the plain Jacobi identity fails, and the twist is deliberately not
a bracket homomorphism. The structure constants are read from the
rewriting layer's ``freealg.bracket_env``, the one table of them, so they
are not checked against a second copy here. Their independent
checks are the Fock realization in ``oscillator`` and the twisted Jacobi
identity, whose central triples test g(n).
"""

from .field import ZERO, ONE, LinComb, accumulate, monomial
from .freealg import C, L, bracket_env, word_str


class HomLieElement(LinComb):
    """A finite linear combination of the L_n plus a multiple of C.

    The term map is keyed by the letters L(n) and C of the rewriting layer,
    ints that sort in basis order.
    """

    __slots__ = ()
    _PAREN_CHARS = "+-/ *"

    def __init__(self, l=None, c=ZERO):
        terms = {L(n): coeff for n, coeff in l.items()} if l else {}
        terms[C] = c
        super().__init__(terms)

    @property
    def l(self):
        """The L part, as a map n -> coefficient."""
        return {n: coeff for n, coeff in self.terms.items() if n != C}

    @property
    def c(self):
        """The coefficient of C."""
        return self.terms.get(C, ZERO)

    @classmethod
    def lgen(cls, n, coeff=ONE):
        return cls({n: coeff})

    @classmethod
    def cgen(cls, coeff=ONE):
        return cls(c=coeff)

    @staticmethod
    def _key_str(letter, latex=False):
        return word_str((letter,), latex)


def vbracket(x, y):
    """Bilinear bracket; C is central, so only L-L pairs contribute."""
    out = {}
    for n, cx in x.terms.items():
        if n == C:
            continue
        for m, cy in y.terms.items():
            if m == C:
                continue
            w = cx * cy
            for (letter,), coeff in bracket_env(n, m).terms.items():
                accumulate(out, letter, w * coeff)
    return HomLieElement.from_clean(out)


def alpha(x):
    """The twist map: L_n goes to (1 + (q/p)^n) L_n, C is fixed."""
    return HomLieElement.from_clean({
        n: coeff if n == C else coeff * (ONE + monomial(1, -n, n))
        for n, coeff in x.terms.items()
    })


def skew_residual(n, m):
    """[L_n, L_m] + [L_m, L_n]; zero including the central component."""
    ln, lm = HomLieElement.lgen(n), HomLieElement.lgen(m)
    return vbracket(ln, lm) + vbracket(lm, ln)


def hom_jacobi_residual(n, m, k):
    """Cyclic sum of [alpha(L_n), [L_m, L_k]]; zero for every triple."""
    ln, lm, lk = (HomLieElement.lgen(i) for i in (n, m, k))
    return (
        vbracket(alpha(ln), vbracket(lm, lk))
        + vbracket(alpha(lm), vbracket(lk, ln))
        + vbracket(alpha(lk), vbracket(ln, lm))
    )


def plain_jacobi_residual(n, m, k):
    """Cyclic sum without the twist; generically nonzero."""
    ln, lm, lk = (HomLieElement.lgen(i) for i in (n, m, k))
    return (
        vbracket(ln, vbracket(lm, lk))
        + vbracket(lm, vbracket(lk, ln))
        + vbracket(lk, vbracket(ln, lm))
    )


def alpha_bracket_gap(n, m):
    """[alpha(L_n), alpha(L_m)] - alpha([L_n, L_m]).

    Nonzero in general: the twist is not a bracket homomorphism.
    """
    ln, lm = HomLieElement.lgen(n), HomLieElement.lgen(m)
    return vbracket(alpha(ln), alpha(lm)) - alpha(vbracket(ln, lm))


def structure_constant_records(window):
    """Bracket coefficients over a symmetric index window, as strings."""
    records = []
    for n in range(-window, window + 1):
        for m in range(-window, window + 1):
            env = bracket_env(n, m)
            records.append(
                {
                    "n": n,
                    "m": m,
                    "coeff_L": str(env.coefficient((L(n + m),))),
                    "coeff_C": str(env.coefficient((C,))),
                }
            )
    return records
