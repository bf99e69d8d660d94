"""Exact symbolic toolkit for a two-parameter deformed Virasoro algebra.

The package builds the quantum group generated by a grouplike element T, a
bi-infinite family of Virasoro-type generators L(n) and a central element C
over the exact coefficient field Q(p,q), reduces arbitrary words to a normal
form basis, and machine-checks the oscillator, Hom-Lie and Hopf identities
that the construction rests on.
"""

from .field import (
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

__version__ = "0.1.0"

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
    "specialize_p1",
    "substitute",
    "evaluate",
    "__version__",
]
