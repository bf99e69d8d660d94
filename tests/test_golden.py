"""Pinned renderings and pinned command-line outputs.

Verification records, tables and normal forms are compared byte for byte
across changes, so the exact text of every element type is part of the
interface.  A change that means to alter these bytes records the digests
again, and says so.
"""

import hashlib
import random

import pytest

from pqvirasoro.cli import main, parse_expression, render_element
from pqvirasoro.field import ONE, P, Q, RatFunc
from pqvirasoro.freealg import AlgebraElement, C, L, NormalWord, T, normalize
from pqvirasoro.hopf import TensorElement
from pqvirasoro.oscillator import FockOperator


def test_rendering_of_coefficient_shapes():
    # each type has its own rule for parenthesizing a coefficient; -(p + q)
    # renders with doubled parentheses in both term renderers
    a, b, c, d = P / Q, 3 * P ** 2 * Q, -(P + Q), (P + Q) / Q
    assert str(AlgebraElement({(L(1),): c, (L(2),): a, (T, L(3)): b, (): d})) == (
        "3*p^2*q*T L(3) - ((p + q))*L(1) + p/q*L(2) + ((p + q)/q)")
    assert str(AlgebraElement({(L(1),): a, (): c})) == "p/q*L(1) - ((p + q))"
    tensor = TensorElement(2, {((L(1),), ()): c, ((), (L(1),)): a,
                               ((C,), (T,)): b, ((), ()): d})
    assert str(tensor) == (
        "-((p + q))*L(1)(x)1 + 3*p^2*q*C(x)T + (p/q)*1(x)L(1) + ((p + q)/q)*1(x)1")
    fock = FockOperator(3, {(0, 1): a, (1, 2): b, (0, 0): c, (2, 1): d})
    assert str(fock) == "{(0,0): -(p + q), (0,1): p/q, (1,2): 3*p^2*q, (2,1): (p + q)/q}"


NF_EXPR = "(p + q)/q L(1)^2 - (p + q) L(2) C^2 + p/(p-q) T^-2 L(-1)"
EQ811_EXPR = "C^2 L(2) L(-1) T"
# words of words_heavy's shape: 7 distinct L indices and one C or T^-1; their
# normal forms have hundreds of terms, coefficients of degree up to 104 and
# denominators such as 6*p^2*q^53 + 6*q^55
BIG_C_EXPR = "L(2) L(3) L(-3) L(-2) C L(-5) L(4) L(-4)"
BIG_TINV_EXPR = "L(-2) L(5) L(6) L(-1) T^-1 L(-4) L(-6) L(-3)"
# one with T: 154 terms and about 53k characters of text per normal form
BIG_T_EXPR = "L(5) L(3) L(6) L(-2) T L(0) L(-5) L(1)"
# long runs of T and T^-1 around L and C letters; its two strategies'
# normal forms differ
T_RUNS_EXPR = "T^-9 L(4) T^13 C L(-2) T^-15 L(3) T^6"

# the expression grammar: scalar powers of either sign, nested parentheses,
# sums that mix scalars and words, and sums whose word part cancels
SCALAR_POWER_EXPR = ("2^-3 p^4 q^-2 L(1) - (3 p^2 q)^-2 T^-1"
                     " + ((p - 2 q)^2 (p + q)^-1)^-1 C + (-p/q)^3")
NESTED_EXPR = "((p + q) (L(1) - (2 q)^2 (L(-1) + 1))) ((T + (p - q)^2) C)"
MIXED_SUM_EXPR = "3 + p L(2) - q^2 + L(2) L(1) - 1/(p + q) + 2 (1 - L(2) p)"
CANCEL_EXPR = "L(1) - L(1) + 2 + (T L(1) - T L(1) + p)^2 L(3) - (L(2) + q - L(2))^-1 T"
# exponents past 128: sparse and graded coefficients, numerators and denominators
HIGH_POWER_EXPR = "(p^150 + 1)/(q^131 - p) L(1) - p^200 q^-3 T + (p^129 - q^129)^-1 C"

GOLDEN = [
    (["verify", "--suite", "all", "--range", "2", "--dim", "8", "--words", "20",
      "--seed", "0"], 1,
     "2ef77a0d054698c57c684e81e1b57837ffe2fd4eed3657e07d7d58cb18c466bb"),
    (["verify", "--suite", "homlie"], 0,
     "6b71bd68bb7bf9c52a3b71dea40b6568b4f640d07a595d5b027d13683019d53a"),
    # the default window: every Hopf axiom on the generators and their products
    (["verify", "--suite", "hopf"], 1,
     "5b7c04f93f7f9f7842de7215d15424be072d59bb2a4da8ca261d695889417be3"),
    # the window -12..12, where S(L(n)) = -T^-n L(n) T^-n puts runs of up
    # to 12 T letters on each side of an L letter
    (["verify", "--suite", "hopf", "--range", "12"], 1,
     "81f30d8d2146842c757de7d01b634edd0e3002780beaafa1a3fbbde32855c6ec"),
    (["table", "--kind", "structure_constants", "--range", "2", "--format", "json"], 0,
     "689d0619fe3325f8c8d93a8493b341ad1595d851386dc6dbf14316d508fd0df3"),
    (["table", "--kind", "structure_constants", "--range", "2", "--format", "latex"], 0,
     "767a8800d2ae2b4ae24b8cd6fdaad3b4432cd15ceb4b67a921b7f0f8feff46e2"),
    (["table", "--kind", "hopf_maps", "--range", "2", "--format", "json"], 0,
     "29c12063a5291cbc922705ea486304d031a4444177cf99c4505e3fc2e9baf48a"),
    (["table", "--kind", "hopf_maps", "--range", "2", "--format", "latex"], 0,
     "4dcb167c30db7f9fcf207011f1669efc795945081e5352f39519769b84f8354d"),
    (["fock", "--dim", "8", "--range", "3", "--format", "csv"], 0,
     "df6076abd5b9f52f6b43e831d76e29dc9066bd9aaea420fc3bfd80a4e7c58bb2"),
    (["fock", "--dim", "8", "--range", "3", "--format", "json"], 0,
     "0895c9469528c41bd35287f2b4af9242f3e69397026a5175fd3a2febfe9dc954"),
    # the classical and one-parameter modes: lam_k = k and lam_k = [k]_q
    (["fock", "--dim", "8", "--range", "3", "--mode", "classical", "--format", "csv"], 0,
     "9ed2db29b136644d72ec869315410d353cc8424f8f9ccf4f63b498f65198e8ca"),
    (["fock", "--dim", "8", "--range", "3", "--mode", "one_param", "--format", "json"], 0,
     "993192eb344042ff7047c75f6e7876305a5ec2bffb7674af33b344a66de2c231"),
    # long products: L(10) at dim 24 has ladder numerators of up to 23 terms
    (["fock", "--dim", "24", "--range", "10", "--format", "json"], 0,
     "f7ebbc5abf7cfafbf0cc515dfce96243579e9ed5cc26c590972c4b8f670b0eaa"),
    (["verify", "--suite", "fock", "--range", "6", "--dim", "24"], 0,
     "0252479b809c78a506150aa2bc3cec304cfa11166180f4a3eb425a48041fa186"),
    # the r5-8.11 rewrite rules and the printed coproduct of C (strict-typos)
    (["verify", "--suite", "hopf", "--range", "2", "--variant", "r5-8.11"], 0,
     "129a0bffe0e68af359e3a7bc92a2915e7ccc43821f2dac4f68159ecd26547db4"),
    (["verify", "--suite", "hopf", "--range", "2", "--strict-typos", "--variant", "r5-8.11",
      "--gate-variants"], 1,
     "83282d94a218d4d297fa76e222c82343b21ead72b98b02adf0b41202c1980047"),
    (["verify", "--suite", "confluence", "--words", "20", "--variant", "r5-8.11"], 0,
     "b341cbb6215ee09857a4c8d15a504f2c1c8348a6042608cb4c15ca7dc7a1c141"),
    (["table", "--kind", "hopf_maps", "--range", "2", "--variant", "r5-8.11",
      "--strict-typos", "--format", "json"], 0,
     "f7001e71cb97a4bb631f1a2e1ba60c6ea3e90d9be991a13c85be36c1f88409a5"),
    (["table", "--kind", "hopf_maps", "--range", "2", "--variant", "r5-8.11",
      "--strict-typos", "--format", "latex"], 0,
     "570cd3266c69bdc6104f7350f459da479e61b6972b77ce0d1dc8468b43f7041f"),
    # a \frac coefficient, a negated multi-term polynomial, T, L and C powers
    (["normalize", NF_EXPR, "--format", "text"], 0,
     "9bdd5e89f4eaa176ebd77e7aa38dcbec5de27543df6b6a8aa26826adc937240a"),
    (["normalize", NF_EXPR, "--format", "json"], 0,
     "9d28eaefd76871fbdfdfd97456cc43dd866c9f1312c74565b7141228b020d130"),
    (["normalize", NF_EXPR, "--format", "latex"], 0,
     "71b741802a0b45e1512e3a693c329541fad7eded961ec6dd240e05485acdec13"),
    # the r5-8.11 form of the C L(n) rule: q^4/p^2 here, q^4/p^4 by default
    (["normalize", EQ811_EXPR, "--variant", "r5-8.11", "--format", "text"], 0,
     "bc4d89aac8c7fad99bc8d4b7b4f47efa2f3eb90ebe94052eedab5569ef413c40"),
    (["normalize", EQ811_EXPR, "--variant", "r5-8.11", "--format", "json"], 0,
     "5c3eef7f20dd8858d6d05df387ebe1a0a9bf60425b889bfec64d4a0271653ee4"),
    (["normalize", EQ811_EXPR, "--variant", "r5-8.11", "--format", "latex"], 0,
     "d2344a0535fd89461fa16a30f4015e7d3ed6205f965d265182ac19daad297b4f"),
    (["normalize", BIG_C_EXPR, "--format", "text"], 0,
     "a3e6e277810678fccdb249f7c9c266ae6a5d6e2370d18fcd723eabc14572a5dd"),
    (["normalize", BIG_C_EXPR, "--format", "json"], 0,
     "d5e83da6e147d24479114d3c8adb2c7b4c558322c8fcfa4bff6bd7f08e290d16"),
    (["normalize", BIG_C_EXPR, "--format", "latex"], 0,
     "5243d364c0a3bf761ccbe59370ad8b943ebe1802571e0c2b0a83acf73054193e"),
    (["normalize", BIG_TINV_EXPR, "--format", "text"], 0,
     "f9383c1a1297c3219bf1a7a1498d8bddca1f9481046802288114f8dc3e8d0c9a"),
    (["normalize", BIG_TINV_EXPR, "--format", "json"], 0,
     "69a10701a56c720f72c73710b6da6a21f67b7cd9646fd5887a3c909b2a4d300f"),
    (["normalize", BIG_TINV_EXPR, "--format", "latex"], 0,
     "12a3651ac96e57e83a744edd7ef015f6b10869a143a3e4adac057986099bc425"),
    (["normalize", BIG_T_EXPR, "--format", "latex"], 0,
     "6747b32352effabb0eabdc0da82117c40114574bf9bb721b17c9a263d303a3af"),
    (["normalize", SCALAR_POWER_EXPR, "--format", "text"], 0,
     "bc28f20223b1ab226f3812852ab917bbc6d40458ff4bc195b51f41deb99d6587"),
    (["normalize", SCALAR_POWER_EXPR, "--format", "json"], 0,
     "58d6d44615342263d39d226161cf68bc37c865eda400513d62a02d3fbfedf043"),
    (["normalize", SCALAR_POWER_EXPR, "--format", "latex"], 0,
     "79341f3c1f060ae1a2637589b371b5c8a000f2e89e1a26f0e681f20ea4f7ebe9"),
    (["normalize", NESTED_EXPR, "--format", "text"], 0,
     "35ef48f726009e964fe058bfb9bff5038da951fa366c8e88c2d2a3ce65e7b9ab"),
    (["normalize", NESTED_EXPR, "--format", "json"], 0,
     "261c946ba7903699da87bb7261c566eab01a62c94e2172e7d42c656a4a980a9b"),
    (["normalize", NESTED_EXPR, "--format", "latex"], 0,
     "13b84629a79629956b913e187709d524b16e6437b048744953acd3ff183b04b0"),
    (["normalize", MIXED_SUM_EXPR, "--format", "text"], 0,
     "933ff9235bfd4ac7e3ff710ab90e7ab18ea87158ff2da99711211ccd9eaf727b"),
    (["normalize", MIXED_SUM_EXPR, "--format", "json"], 0,
     "b28885b20f8ecb0405ce02aa877e14f1b3bdccf9bb4b78c26697fb369b36dfac"),
    (["normalize", MIXED_SUM_EXPR, "--format", "latex"], 0,
     "e1ee95e293c15b67cffcc9fd541c92229a0fcf73318ab598ce6c6271fd34d61d"),
    (["normalize", CANCEL_EXPR, "--format", "text"], 0,
     "bc51bb06561d0b2032e29acc5d0ed1bd378390997e061a9329b61caa3ab4152f"),
    (["normalize", CANCEL_EXPR, "--format", "json"], 0,
     "6b1551e3d8edc8fc5f2c5e61769db2c23ecea392cd4686b32eee394f79e24abf"),
    (["normalize", CANCEL_EXPR, "--format", "latex"], 0,
     "7cc557c71c0f7f1d621db1e15330e4b4604c864e16616f65e0a6e1232deee6b4"),
    (["bracket", "2", "-2", "--format", "text"], 0,
     "16ed7e4a3f89ff2a17cf46a5b3c9e08300855934ad50a8bd18a161e69b96e1f1"),
    (["bracket", "2", "-2", "--format", "json"], 0,
     "1fc6a8cf43b4cb284789ca2c1ea96e4d790e09e735cef4b1dad18318c0d9676d"),
    (["bracket", "2", "-2", "--format", "latex"], 0,
     "eec07a357740ef17549cd3466aed531872c8cc8ccdd04291e311f4e32ee95ae5"),
    (["normalize", HIGH_POWER_EXPR, "--format", "text"], 0,
     "659dd1e8ce60f7f78c866ed886c56a8dca678e78da8ca8606b855127d1652f6d"),
    (["normalize", HIGH_POWER_EXPR, "--format", "json"], 0,
     "41ab51a81c3e5fb9cce940bb2fa0507fb597deebf7458d89f6353f1b30337d7c"),
    (["normalize", HIGH_POWER_EXPR, "--format", "latex"], 0,
     "98bc0c1daeb82d741ec499abd85a05744b0e5ce7acab94e8d3ee1c4039a7045e"),
    # a coefficient of 200 terms with exponents up to 199
    (["bracket", "100", "-100", "--format", "text"], 0,
     "35dcabc6716e18c269c469df36860df344e9ac8c981c2977f81e1e5a00e7c0a1"),
    (["bracket", "100", "-100", "--format", "json"], 0,
     "f0310d4bab4a91cee4f27dd202544ee2e41033840377289d54ddb943a587cfb1"),
    (["bracket", "100", "-100", "--format", "latex"], 0,
     "74cbf530681c513f673f4d5aafaeddeeddb7e32578fb45c19645640e67108a82"),
]

# verify's stderr, by the command's arguments after "verify"
VERIFY_SUMMARY = {
    ("--suite", "all", "--range", "2", "--dim", "8", "--words", "20", "--seed", "0"): """\
fock           47 records  all ok
homlie         37 records  all ok
hopf          607 records  36 failing (antipode, antipode_preserves_R4)
confluence      6 records  6 failing (strategy_agreement, summary)
""",
    ("--suite", "homlie"): "homlie        181 records  all ok\n",
    ("--suite", "hopf"): (
        "hopf         3383 records  300 failing (antipode, antipode_preserves_R4)\n"),
    ("--suite", "hopf", "--range", "12"): (
        "hopf        11867 records  1176 failing (antipode, antipode_preserves_R4)\n"),
    ("--suite", "fock", "--range", "6", "--dim", "24"): "fock          143 records  all ok\n",
    ("--suite", "hopf", "--range", "2", "--variant", "r5-8.11"): (
        "hopf          607 records  84 failing (antipode, antipode_preserves_R4,"
        " antipode_preserves_R5, coassoc, delta_preserves_R5)\n"),
    ("--suite", "hopf", "--range", "2", "--strict-typos", "--variant", "r5-8.11",
     "--gate-variants"): (
        "hopf          607 records  153 failing (antipode, antipode_preserves_R4,"
        " antipode_preserves_R5, coassoc, cocommutative, counit, delta_preserves_R3,"
        " delta_preserves_R4, delta_preserves_R5)\n"),
    ("--suite", "confluence", "--words", "20", "--variant", "r5-8.11"): (
        "confluence      6 records  6 failing (strategy_agreement, summary)\n"),
}


@pytest.mark.parametrize("argv, code, digest", GOLDEN,
                         ids=[" ".join(argv) for argv, _, _ in GOLDEN])
def test_cli_output_matches_recorded_digest(capsys, argv, code, digest):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    # verify reports one summary line per suite on stderr, off the record stream
    assert err == (VERIFY_SUMMARY[tuple(argv[1:])] if argv[0] == "verify" else "")


# the CLI prints leftmost normal forms only; these pin the rightmost ones,
# whose rewrite steps resume each scan leftward from the last rewrite
RIGHTMOST_DIGESTS = [
    (BIG_C_EXPR, False, "ef5a820131da9d2fd22f270869957700df5c58e4f1d77880467cec7deb82b375"),
    (BIG_TINV_EXPR, False, "215fba08576cd8af3e346f1adf6932346babfcf413508e0766c9c7020d0ac3d9"),
    (BIG_T_EXPR, False, "8327ece28672a7832d56aae9e58465e55a49520425ca27e81956c8edd85bd09e"),
    (BIG_T_EXPR, True, "5b4fe37299229e62d3f758170adca5fc07318e424c968455582adc7b4e2c9c0e"),
    (T_RUNS_EXPR, False, "2370fc6b899a8427748175a7292196e1e7b1e5a71b3aef7d0527ccdff0c2c184"),
]


@pytest.mark.parametrize("expr, latex, digest", RIGHTMOST_DIGESTS,
                         ids=[expr + " latex" * latex for expr, latex, _ in RIGHTMOST_DIGESTS])
def test_rightmost_normal_form_matches_recorded_digest(expr, latex, digest):
    x = normalize(parse_expression(expr), strategy="rightmost")
    text = x.latex() if latex else str(x)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _long_sum(seed, size=100):
    """An element of normal words whose coefficients are sums of 1-10 terms
    c*p^i*q^j of degree <= 8 times p^a q^b, a and b in -3..3, with every
    20th over one or two of (p + q), (p - q), p^2 + q^2 and p^2 + p q + q^2."""
    rng = random.Random(seed)
    monomials = [(i, j) for i in range(9) for j in range(9 - i)]
    forms = [P + Q, P - Q, P ** 2 + Q ** 2, P ** 2 + P * Q + Q ** 2]
    terms = {}
    while len(terms) < size:
        indices = sorted(rng.sample(range(-6, 7), rng.randint(1, 4)))
        word = NormalWord(rng.randint(-2, 2), tuple((n, rng.randint(1, 3)) for n in indices),
                          rng.randint(0, 2)).word()
        if word in terms:
            continue
        k = rng.randint(1, 10)
        num = dict(zip(rng.sample(monomials, k), rng.choices([-3, -2, -1, 1, 2, 5, 9], k=k)))
        coeff = RatFunc(num, 1, (rng.randint(-3, 3), rng.randint(-3, 3)))
        if len(terms) % 20 == 19:
            den = ONE
            for form in rng.sample(forms, rng.randint(1, 2)):
                den = den * form
            coeff = coeff / den
        terms[word] = coeff
    return AlgebraElement(terms)


def test_normalize_of_a_long_sum_matches_recorded_digest(capsys):
    # the rendered input is echoed in the record, so the digest pins its
    # rendering as well as its parse and normal form
    assert main(["normalize", render_element(_long_sum(19)), "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert len(out) > 15_000 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a2b4da3cd6ac05779f35aecf1a8e436ede1c7eed90de77c43a73cd9b2386ee40")
