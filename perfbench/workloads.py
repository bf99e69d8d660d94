"""Seeded workloads of the benchmark.

``Workload.build`` makes a workload's inputs from the seed and returns a
list of ops. An op is a key that names it, a family, and a thunk that
calls the program and returns its rendered outputs, a verdict and the
raw values the invariants look at. The inputs of op i do not depend on
how many ops a run makes, so a short run sees a prefix of a long one.

``check`` tests an op's outcome against invariants that hold for every
seed and, when the op is in the recorded reference, against the outcome
recorded at the commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from functools import lru_cache


def outcome(texts, verdict):
    """An op's outcome as the reference records it: a digest of its
    rendered outputs and its verdict."""
    digest = hashlib.blake2b("\x1f".join(texts).encode(), digest_size=8).hexdigest()
    return f"{digest} {verdict}"


class Op:
    __slots__ = ("key", "family", "thunk")

    def __init__(self, key, family, thunk):
        self.key = key
        self.family = family
        self.thunk = thunk


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


# ---------------------------------------------------------------------------
# words_heavy
# ---------------------------------------------------------------------------

WORD_L_LETTERS = 7
WORD_INDICES = range(-6, 7)
WORD_BLOCK = 50


@lru_cache(maxsize=None)
def _mahonian(n):
    """counts[k]: the permutations of n letters with k inversions.

    Their generating function is prod_{i <= n} (1 + q + ... + q^(i-1)).
    """
    counts = [1]
    for i in range(2, n + 1):
        counts = [sum(counts[max(0, k - i + 1):k + 1]) for k in range(len(counts) + i - 1)]
    return tuple(counts)


@lru_cache(maxsize=None)
def _inversion_schedule():
    """Inversion counts of one block: the quantiles (j + 1/2) / WORD_BLOCK.

    A word's cost grows about exponentially with the inversions among its
    L indices, so every block of ops gets the same inversion profile, that
    of words with distinct random indices, and only the words themselves
    are seeded.
    """
    counts = _mahonian(WORD_L_LETTERS)
    total = sum(counts)
    schedule = []
    for j in range(WORD_BLOCK):
        acc = 0
        for k, c in enumerate(counts):
            acc += c
            if 2 * WORD_BLOCK * acc >= (2 * j + 1) * total:
                schedule.append(k)
                break
    return tuple(schedule)


def _indices_with_inversions(rng, k):
    """WORD_L_LETTERS distinct indices with exactly k inversions.

    Every such sequence is equally likely: a random set of indices is
    ordered by a Lehmer code drawn digit by digit, each digit weighted by
    the number of ways the remaining digits can bring the sum to k.
    """
    pool = sorted(rng.sample(WORD_INDICES, WORD_L_LETTERS))
    indices = []
    for rest in range(WORD_L_LETTERS - 1, -1, -1):
        tail = _mahonian(rest)
        digits = range(min(rest, k) + 1)
        weights = [tail[k - c] if k - c < len(tail) else 0 for c in digits]
        c = rng.choices(digits, weights)[0]
        indices.append(pool.pop(c))
        k -= c
    return indices


def _words(fa, seed, count):
    """Words of WORD_L_LETTERS distinct L indices plus one T, T^-1 or C.

    Distinct indices narrow the spread of cost among words with the same
    inversion count to about two thirds of that with repeats allowed.
    """
    rng = _rng("words_heavy", seed)
    extras = (fa.T, fa.TINV, fa.C)
    words = []
    while len(words) < count:
        block = list(_inversion_schedule())
        rng.shuffle(block)
        for k in block:
            word = [fa.L(n) for n in _indices_with_inversions(rng, k)]
            word.insert(rng.randint(0, WORD_L_LETTERS), rng.choice(extras))
            words.append(tuple(word))
    return words[:count]


def _words_heavy(prog, seed, count):
    fa, cli = prog.freealg, prog.cli

    def op(word):
        def run():
            a = fa.normalize(word, strategy="leftmost")
            b = fa.normalize(word, strategy="rightmost")
            left, right = cli.render_element(a), cli.render_element(b)
            verdict = "agree" if left == right else "disagree"
            return (left, right), verdict, (a, b)
        return run

    return [Op(fa.word_str(w), "word", op(w)) for w in _words(fa, seed, count)]


def _words_heavy_invariant(prog, texts, verdict, raw):
    find_redex = prog.freealg.find_redex
    for elem in raw:
        for word in elem.terms:
            for strategy in ("leftmost", "rightmost"):
                if find_redex(word, strategy) is not None:
                    return "output word %s is not normal" % prog.freealg.word_str(word)
    if (verdict == "agree") != (raw[0] == raw[1]):
        return "rendered comparison disagrees with element comparison"
    return None


# ---------------------------------------------------------------------------
# hopf_sweep
# ---------------------------------------------------------------------------

HOPF_WINDOW = 12
S2_INDEX_RANGE = (-4, 4)


def _hopf_space(prog):
    """Every op of the sweep, by family in rotation order: lists of (key, thunk)."""
    fa, hopf, cli = prog.freealg, prog.hopf, prog.cli
    gens = hopf.generators(HOPF_WINDOW)
    args = list(gens)
    for n1, g1 in gens:
        for n2, g2 in gens:
            args.append((f"{n1}*{n2}", fa.multiply(g1, g2)))

    def residuals(values):
        texts = tuple(cli.render_element(r) for r in values)
        zero = all(r.is_zero() for r in values)
        return texts, "zero" if zero else "nonzero", None

    def axiom(check, x):
        def run():
            res = getattr(hopf, check)(x)
            return residuals(res if isinstance(res, tuple) else (res,))
        return run

    def relation(mapname, rel, n, m):
        return lambda: residuals(hopf.check_relation_preservation(mapname, rel, n, m))

    def squared(word):
        return lambda: residuals((hopf.antipode_squared(fa.AlgebraElement.from_word(word)),))

    space = {}
    for family, check in (("coassoc", "check_coassoc"), ("counit", "check_counit"),
                          ("antipode", "check_antipode")):
        space[family] = [(f"{family} {label}", axiom(check, x)) for label, x in args]
    window = range(-HOPF_WINDOW, HOPF_WINDOW + 1)
    for mapname in ("delta", "antipode", "counit"):
        space[mapname + "_rel"] = [
            (f"{mapname}_rel {rel} {n} {m}", relation(mapname, rel, n, m))
            for rel in fa.RELATION_NAMES for n in window for m in window
        ]
    lo, hi = S2_INDEX_RANGE
    letters = [fa.T, fa.TINV, fa.C] + [fa.L(n) for n in range(lo, hi + 1)]
    space["antipode_squared"] = [
        (f"antipode_squared {fa.word_str(w)}", squared(w))
        for length in (1, 2, 3) for w in itertools.product(letters, repeat=length)
    ]
    return space


# ---------------------------------------------------------------------------
# lie_fock
# ---------------------------------------------------------------------------

FOCK_DIM = 40
# every bracket and power the column guard allows at FOCK_DIM
BRACKET_RANGE = range(-1, (FOCK_DIM - 1) // 2 + 1)
POWER_RANGE = range(1, FOCK_DIM - 1)
JACOBI_RANGE = range(-13, 14)


def _lie_space(prog):
    """Every op of lie_fock, by family in rotation order: lists of (key, thunk)."""
    osc, homlie, cli = prog.oscillator, prog.homlie, prog.cli
    o = osc.make_oscillator(FOCK_DIM, "two_param")

    def residual(value):
        return (cli.render_element(value),), "zero" if value.is_zero() else "nonzero", None

    def bracket(n, m):
        return lambda: residual(osc.verify_bracket(n, m, o))

    def power(n):
        return lambda: residual(osc.verify_power_commutator(n, o))

    def jacobi(n, m, k):
        return lambda: residual(homlie.hom_jacobi_residual(n, m, k))

    return {
        "bracket": [(f"bracket {n} {m}", bracket(n, m))
                    for n in BRACKET_RANGE for m in BRACKET_RANGE],
        "power": [(f"power {n}", power(n)) for n in POWER_RANGE],
        "hom_jacobi": [(f"hom_jacobi {n} {m} {k}", jacobi(n, m, k))
                       for n in JACOBI_RANGE for m in JACOBI_RANGE for k in JACOBI_RANGE],
    }


# ---------------------------------------------------------------------------
# parse_roundtrip
# ---------------------------------------------------------------------------

PARSE_TERMS = 100
NUM_DEGREE = 8
NUM_MONOMIALS = tuple((i, j) for i in range(NUM_DEGREE + 1) for j in range(NUM_DEGREE + 1 - i))
NUM_COEFFS = tuple(c for c in range(-9, 10) if c)
# every DEN_EVERY-th coefficient gets a denominator built from these forms;
# most coefficients of real normal forms have none
DEN_EVERY = 20
DEN_FORMS = (
    {(1, 0): 1, (0, 1): 1},
    {(1, 0): 1, (0, 1): -1},
    {(2, 0): 1, (0, 2): 1},
    {(2, 0): 1, (1, 1): 1, (0, 2): 1},
    {(2, 0): 1, (1, 1): -1, (0, 2): 1},
)


def _poly_mul(f, g):
    out = {}
    for (i, j), a in f.items():
        for (k, l), b in g.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0) + a * b
    return {m: c for m, c in out.items() if c}


def _poly(rng, size):
    """A polynomial in p, q with `size` terms of degree at most NUM_DEGREE."""
    return dict(zip(rng.sample(NUM_MONOMIALS, size), rng.choices(NUM_COEFFS, k=size)))


def _normal_word(fa, rng):
    t = rng.randint(-2, 2)
    indices = sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))
    l_part = tuple((n, rng.randint(1, 3)) for n in indices)
    return fa.NormalWord(t, l_part, rng.randint(0, 2)).word()


def _element(prog, rng):
    fa, field = prog.freealg, prog.field
    terms = {}
    while len(terms) < PARSE_TERMS:
        word = _normal_word(fa, rng)
        if word in terms:
            continue
        num = _poly(rng, rng.randint(1, 10))
        den = {(0, 0): 1}
        if len(terms) % DEN_EVERY == DEN_EVERY - 1:
            for form in rng.sample(DEN_FORMS, rng.randint(1, 2)):
                den = _poly_mul(den, form)
        shift = (rng.randint(-3, 3), rng.randint(-3, 3))
        terms[word] = field.RatFunc(num, den, shift)
    return fa.AlgebraElement(terms)


def _parse_roundtrip(prog, seed, count):
    cli = prog.cli
    rng = _rng("parse_roundtrip", seed)

    def op(x):
        def run():
            text = cli.render_element(x)
            back = cli.parse_expression(text)
            return (text,), "equal" if back == x else "differs", None
        return run

    return [Op(f"element {seed}:{i}", "element", op(_element(prog, rng)))
            for i in range(count)]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class Workload:
    """A named workload.

    rate is about the throughput in ops per second at the commit that
    defined the benchmark: a run of --seconds s makes seconds * rate ops,
    so both sides of a comparison do the same work on the same inputs.
    words_heavy's and parse_roundtrip's rates are set above their
    throughput, so that a run holds enough ops for a steady op_p90_ms
    across seeds. expected is
    the verdict every op must reach, or None where some ops are expected
    to differ. A workload with a finite op space (``space``) shuffles each
    family with the seed and takes one op of each family in turn, skipping
    families that are used up, so no op repeats before the whole space is
    used and the record can cover every op a seed can draw.
    """

    def __init__(self, name, rate, build=None, space=None, invariant=None, expected=None):
        self.name = name
        self.rate = rate
        self._build = build
        self.space = space
        self.invariant = invariant
        self.expected = expected

    def build(self, prog, seed, count):
        if self.space is None:
            return self._build(prog, seed, count)
        rng = _rng(self.name, seed)
        families = []
        for family, items in self.space(prog).items():
            items = list(items)
            rng.shuffle(items)
            families.append((family, items))
        order = ((family, item)
                 for row in itertools.zip_longest(*(items for _, items in families))
                 for (family, _), item in zip(families, row) if item is not None)
        return [Op(key, family, thunk)
                for family, (key, thunk) in itertools.islice(itertools.cycle(order), count)]


WORKLOADS = {
    w.name: w for w in (
        Workload("words_heavy", rate=35.0, build=_words_heavy, invariant=_words_heavy_invariant),
        Workload("hopf_sweep", rate=555.0, space=_hopf_space),
        Workload("lie_fock", rate=950.0, space=_lie_space, expected="zero"),
        Workload("parse_roundtrip", rate=30.0, build=_parse_roundtrip, expected="equal"),
    )
}

ZERO_OUTCOME_VERDICT = "zero"


def check(prog, workload, reference, key, texts, verdict, raw):
    """None if the outcome is right, else a reason naming what is wrong."""
    if workload.expected is not None and verdict != workload.expected:
        return "verdict %s, expected %s" % (verdict, workload.expected)
    if workload.invariant is not None:
        reason = workload.invariant(prog, texts, verdict, raw)
        if reason:
            return reason
    ref = reference.get(workload.name, {})
    expected = ref.get("ops", {}).get(key)
    if expected is None and ref.get("complete"):
        expected = outcome(("0",) * len(texts), ZERO_OUTCOME_VERDICT)
    actual = outcome(texts, verdict)
    if expected is not None and actual != expected:
        return "outcome %r differs from the reference %r" % (actual, expected)
    return None
