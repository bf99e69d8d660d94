"""Expression parsing, rendering, verification suites, exit codes."""

import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import pqvirasoro
from pqvirasoro import freealg, homlie
from pqvirasoro.cli import ExpressionError, main, parse_expression, render_element
from pqvirasoro.field import ONE, RatFunc, ZERO, monomial
from pqvirasoro.freealg import (
    AlgebraElement,
    C,
    DEFAULT_CONFIG,
    INDEX_BOUND,
    L,
    T,
    TINV,
    normalize,
    random_word,
)


def parse(s):
    return parse_expression(s)


# ---------------------------------------------------------------------------
# parsing


def test_parse_letters_and_juxtaposition():
    x = parse("L(2) L(1)")
    assert set(x.terms) == {(L(2), L(1))}
    assert parse("T Tinv") == parse("T * Tinv")


def test_parse_signed_indices_and_powers():
    assert parse("L(-3)") == AlgebraElement.from_word((L(-3),))
    assert parse("T^-2") == AlgebraElement.from_word((TINV, TINV))
    assert parse("T^3") == AlgebraElement.from_word((T, T, T))
    x = parse("L(1)^2")
    assert set(x.terms) == {(L(1), L(1))}
    assert parse("(L(1) + L(2))^2") == parse("(L(1) + L(2)) (L(1) + L(2))")
    assert parse("(L(1) + L(2))^0") == parse("1")


def test_parse_scalars():
    x = parse("(p + q)/(p*q) * L(0)")
    assert x.coefficient((L(0),)) == monomial(1, -1, 0) + monomial(1, 0, -1)
    assert parse("2") == AlgebraElement.unit() * 2
    assert parse("1") == AlgebraElement.unit()
    assert parse("0*L(5)").is_zero()
    assert parse("q^2/p^2*T") == AlgebraElement.from_word((T,)) * monomial(1, -2, 2)


def test_parse_sums_and_signs():
    x = parse("-L(1) + 2 L(2) - 3")
    assert x.coefficient((L(1),)) == monomial(-1, 0, 0)
    assert x.coefficient((L(2),)) == monomial(2, 0, 0)
    assert x.coefficient(()) == monomial(-3, 0, 0)


def test_parse_errors():
    for src in ["L(", "L(1", "L(x)", "@", "T^", "1 +", ")", "L(1)/L(2)",
                "L(1)^-1", "C^-1", "(L(1) + L(2))^-2", "foo", "1/0", "1 )"]:
        with pytest.raises(ExpressionError):
            parse(src)


def test_parse_error_reports_position():
    try:
        parse("L(1) @")
    except ExpressionError as exc:
        assert exc.pos == 5
    else:
        raise AssertionError("expected a parse error")


@pytest.mark.parametrize("src, pos", [("0^-1", 2), ("(p-p)^-1", 6), ("(L(1)-L(1))^-1", 12),
                                      ("(0*L(1))^-2", 9)])
def test_zero_to_a_negative_power_is_a_division_by_zero(capsys, src, pos):
    # a usage error like 1/0 (exit 2), reported at the exponent
    with pytest.raises(ExpressionError, match="division by zero") as exc:
        parse(src)
    assert exc.value.pos == pos
    assert main(["normalize", src]) == 2
    assert capsys.readouterr().err == f"error: division by zero (at position {pos})\n"


def test_zero_to_a_nonnegative_power():
    assert parse("0^0") == AlgebraElement.unit()
    assert parse("(L(1)-L(1))^0") == AlgebraElement.unit()
    assert parse("(0*L(1))^2").is_zero()


@pytest.mark.parametrize("src, message", [
    ("3*", "unexpected end of input"),
    ("1 +", "unexpected end of input"),
    ("L(1) (", "unexpected end of input"),
    ("", "unexpected end of input"),
    ("L(1", "expected ')', found end of input"),
    ("L", "expected '(', found end of input"),
])
def test_end_of_input_is_named_in_errors(capsys, src, message):
    with pytest.raises(ExpressionError) as exc:
        parse(src)
    assert str(exc.value) == f"{message} (at position {len(src)})"
    assert exc.value.pos == len(src)
    assert main(["normalize", src]) == 2
    assert capsys.readouterr().err == f"error: {message} (at position {len(src)})\n"


@pytest.mark.parametrize("src, message, pos", [
    ("L(x)", "index of L", 2),
    ("L(", "index of L", 2),
    ("L()", "index of L", 2),
    ("L(-)", "index of L", 3),
    ("L(--1)", "index of L", 3),
    ("L(1)^x", "exponent", 5),
    ("L(1)^", "exponent", 5),
    ("T^-x", "exponent", 3),
])
def test_a_bad_integer_is_named_by_what_it_reads(capsys, src, message, pos):
    with pytest.raises(ExpressionError) as exc:
        parse(src)
    assert exc.value.pos == pos
    assert main(["normalize", src]) == 2
    assert capsys.readouterr().err == f"error: {message} must be an integer (at position {pos})\n"


@pytest.mark.parametrize("src, pos", [("L(1)^100000000", 5), ("T^-999999999", 2),
                                      ("2^999999999", 2)])
def test_exponents_beyond_the_bound_exit_2_at_parsing(capsys, src, pos):
    # each would otherwise build a word or an integer of that many letters or digits
    with pytest.raises(ExpressionError, match=r"\|k\| <= 4096") as exc:
        parse(src)
    assert exc.value.pos == pos
    assert main(["normalize", src]) == 2
    assert "|k| <= 4096" in capsys.readouterr().err


DIGIT_LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("src, message, pos", [
    ("2\u00b2", "unexpected character '\u00b2'", 1),
    ("L(\u00b9)", "unexpected character '\u00b9'", 2),
    ("p^\u00b2", "unexpected character '\u00b2'", 2),
    ("L(77777777777777777777)",
     "L index 77777777777777777777 is out of range: |n| < 268435456", 2),
    ("L(-77777777777777777777) L(1)",
     "L index -77777777777777777777 is out of range: |n| < 268435456", 2),
    ("3 + " + "9" * (DIGIT_LIMIT + 1), f"integer literal of {DIGIT_LIMIT + 1} digits is too"
     f" long: at most {DIGIT_LIMIT} digits", 4),
], ids=["superscript exponent factor", "superscript index", "superscript exponent",
        "index past the bound", "negative index past the bound", "literal past the digit limit"])
def test_digits_int_cannot_read_and_huge_indices_are_named_at_their_position(
        capsys, src, message, pos):
    # superscript digits pass str.isdigit but not int(); an index past the
    # letter bound and a literal past Python's digit limit are usage errors too
    with pytest.raises(ExpressionError) as exc:
        parse(src)
    assert exc.value.pos == pos
    assert main(["normalize", src]) == 2
    assert capsys.readouterr().err == f"error: {message} (at position {pos})\n"


def test_a_coefficient_past_the_digit_limit_is_named_when_printed(capsys):
    # 10^a 10^b has a + b + 1 digits: each factor parses, and only the
    # printed product can go past Python's digit limit
    half = DIGIT_LIMIT // 2
    assert main(["normalize", f"10^{half} 10^{DIGIT_LIMIT - 1 - half} L(1)"]) == 0
    assert capsys.readouterr().out == "1" + "0" * (DIGIT_LIMIT - 1) + "*L(1)\n"
    assert main(["normalize", f"10^{half} 10^{DIGIT_LIMIT - half} L(1)"]) == 2
    assert capsys.readouterr().err == (
        f"error: a coefficient has more than {DIGIT_LIMIT} digits and is too long to print\n")


def test_decimal_digits_of_any_script_read_as_integers():
    assert parse("L(\u0663)") == parse("L(3)")
    assert parse("\u0664\u0662 T") == parse("42 T")


def test_exponents_at_the_bound_are_accepted():
    assert parse("T^-4096") == AlgebraElement.from_word((TINV,) * 4096)
    assert len(next(iter(parse("L(1)^4096").terms))) == 4096


def test_negative_powers_only_on_t_and_scalars():
    assert parse("T^-3") == AlgebraElement.from_word((TINV,) * 3)
    assert parse("(T^2)^-2") == AlgebraElement.from_word((TINV,) * 4)
    assert parse("2^-1") * 2 == AlgebraElement.unit()
    assert parse("(p/q)^-1") == AlgebraElement.unit() * monomial(1, -1, 1)


def test_round_trip_examples():
    for src in ["L(2) L(1)", "T^-2 L(1)^2 C", "-(p + q)/(p*q)*L(-3) + 2", "1", "0"]:
        x = parse(src)
        assert parse(render_element(x)) == x


@given(st.integers(min_value=0, max_value=10_000))
def test_round_trip_normal_forms(seed):
    rng = random.Random(seed)
    w = random_word(rng, max_len=6, index_range=(-4, 4))
    nf = normalize(AlgebraElement.from_word(w), DEFAULT_CONFIG)
    rendered = render_element(nf)
    assert parse(rendered) == nf
    # rendering is stable across a reparse
    assert render_element(parse(rendered)) == rendered


# denominators of one and several terms, homogeneous or not, among them
# (p + q)(p^2 + q^2)
DENOMINATORS = [
    {(0, 0): 1},
    {(1, 0): 1, (0, 1): 1},
    {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1},
    {(2, 0): 1, (0, 2): 1},
    {(1, 0): 1, (0, 0): -2},
    {(1, 1): 1, (0, 0): 1},
    {(0, 0): 3},
]


@st.composite
def coefficients(draw):
    """Coefficients of any shape: numerators that need not be homogeneous,
    denominators of several terms, shifts of either sign."""
    num = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                               st.integers(-9, 9).filter(bool), min_size=1, max_size=6))
    shift = draw(st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
    return RatFunc(num, draw(st.sampled_from(DENOMINATORS)), shift)


words = st.lists(st.sampled_from([T, TINV, C] + [L(n) for n in range(-3, 4)]),
                 max_size=4).map(tuple)


@given(st.dictionaries(words, coefficients(), max_size=5))
@example({(): RatFunc({(2, 0): 1, (0, 0): -3}, DENOMINATORS[2], (-2, 1)),
          (L(1), T): RatFunc({(0, 1): -2}, DENOMINATORS[4], (0, -3))})
def test_round_trip_of_any_coefficient_shape(terms):
    # the empty word is drawn too, so scalar terms mix with word terms
    x = AlgebraElement(terms)
    rendered = render_element(x)
    assert parse(rendered) == x
    assert render_element(parse(rendered)) == rendered


def test_long_sum_with_cancellations():
    src = " + ".join(f"{i % 9 + 1}*p^{i % 7}*q^-{i % 5}*L({i})" for i in range(2000))
    x = parse(src + " - L(0) + 1")
    assert len(x.terms) == 2000
    assert x.coefficient((L(0),)) == ZERO and x.coefficient(()) == ONE
    assert x.coefficient((L(1999),)) == monomial(2, 4, -4)


# ---------------------------------------------------------------------------
# verbs, files, exit codes


def run(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def test_normalize_verb(tmp_path):
    code, text = run(["normalize", "L(2) L(1)"], tmp_path)
    assert code == 0
    assert text == "p/q*L(1) L(2) - 1/q*L(3)\n"


def test_normalize_verb_json(tmp_path):
    code, text = run(["normalize", "L(2) L(1)", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["terms"] == {"L(1) L(2)": "p/q", "L(3)": "-1/q"}


def test_main_calls_share_the_default_presentation(monkeypatch, capsys):
    """Without a variant every call of main normalizes under DEFAULT_CONFIG,
    so the calls of one process share its normal-form memo; a named variant
    gets a presentation of its own."""
    import pqvirasoro.cli as cli

    seen = []

    def recorded(x, cfg, *args, **kwargs):
        seen.append(cfg)
        return normalize(x, cfg, *args, **kwargs)

    monkeypatch.setattr(cli, "normalize", recorded)
    for _ in range(2):
        assert main(["normalize", "L(2) L(1)"]) == 0
    assert seen[0] is seen[1] is DEFAULT_CONFIG
    assert main(["normalize", "L(2) L(1)", "--variant", "r5-8.11"]) == 0
    assert seen[2] is not DEFAULT_CONFIG and seen[2].variants == {"r5-8.11"}
    assert capsys.readouterr().out.count("\n") == 3


def test_normal_forms_that_start_with_a_minus_read_back(tmp_path, capsys):
    # argparse takes a leading "-" for an option; normalize reads it as the
    # expression, wherever its options stand
    assert main(["normalize", "(-p/q)^-5001"]) == 0
    rendered = capsys.readouterr().out.rstrip("\n")
    assert rendered == "-q^5001/p^5001"
    assert main(["normalize", rendered]) == 0
    assert capsys.readouterr() == (rendered + "\n", "")
    code, text = run(["normalize", "--format", "json", rendered], tmp_path)
    assert code == 0 and json.loads(text)["input"] == rendered
    assert json.loads(text)["normal_form"] == rendered
    code, text = run(["normalize", "-L(1)", "--variant", "r5-8.11", "--format", "text"],
                     tmp_path)
    assert (code, text) == (0, "-L(1)\n")
    assert main(["normalize", "--", "-L(1)"]) == 0
    assert capsys.readouterr() == ("-L(1)\n", "")
    done = run_module("pqvirasoro", "normalize", rendered, "--format", "text")
    assert (done.returncode, done.stdout, done.stderr) == (0, rendered + "\n", "")
    # a parse error still names its position in the expression as given
    assert main(["normalize", "-L(", "--format", "json"]) == 2
    assert capsys.readouterr().err == "error: index of L must be an integer (at position 3)\n"
    # -h is still help, and a second dash token is still refused
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "-h"])
    assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage: ")
    with pytest.raises(SystemExit) as exc:
        main(["normalize", "-L(1)", "-L(2)"])
    assert exc.value.code == 2 and "unrecognized arguments: -L(2)" in capsys.readouterr().err


def test_normalize_parse_error_exit_code(capsys):
    assert main(["normalize", "L("]) == 2
    assert "error" in capsys.readouterr().err


def run_module(module, *args):
    """Run python -m module args in a child process that imports this
    checkout's package."""
    src = os.path.dirname(os.path.dirname(pqvirasoro.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", module, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


@pytest.mark.parametrize("module", ["pqvirasoro", "pqvirasoro.cli"])
def test_python_dash_m_runs_the_command_line(capsys, module):
    for expr in ("L(1) L(0)", "L(2) L(1)"):
        assert main(["normalize", expr]) == 0
        expected = capsys.readouterr().out
        done = run_module(module, "normalize", expr)
        assert (done.returncode, done.stdout, done.stderr) == (0, expected, "")
    failed = run_module(module, "normalize", "L(")
    assert failed.returncode == 2 and failed.stderr.startswith("error: ")
    usage = run_module(module, "no-such-verb")
    assert usage.returncode == 2 and usage.stderr.startswith("usage: ")


def test_bracket_verb(tmp_path):
    code, text = run(["bracket", "1", "-1", "--format", "json"], tmp_path)
    assert code == 0
    payload = json.loads(text)
    assert payload["terms"] == {"L(0)": "-(p + q)/(p*q)"}


def test_bracket_rejects_variant(capsys):
    # the bracket does not depend on the rewrite rules, so it takes no variant
    with pytest.raises(SystemExit) as exc:
        main(["bracket", "1", "2", "--variant", "r5-8.11"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --variant" in capsys.readouterr().err


def test_structure_constants_table(tmp_path):
    code, text = run(["table", "--kind", "structure_constants", "--range", "1",
                      "--format", "json"], tmp_path)
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    assert [(r["n"], r["m"]) for r in records] == [(n, m) for n in (-1, 0, 1) for m in (-1, 0, 1)]
    by_pair = {(r["n"], r["m"]): r for r in records}
    assert by_pair[(1, -1)]["coeff_L"] == "-(p + q)/(p*q)"
    assert by_pair[(1, -1)]["coeff_C"] == "0"
    assert by_pair[(-1, 1)]["coeff_L"] == "(p + q)/(p*q)"
    assert all(r["coeff_L"] == "0" for r in records if r["n"] == r["m"])


@pytest.mark.parametrize("flags, named", [
    (["--variant", "r5-8.11"], "--variant"),
    (["--strict-typos"], "--strict-typos"),
])
def test_structure_constants_table_rejects_rewrite_flags(flags, named, capsys):
    # the structure constants depend on neither the rewrite rules nor delta(C)
    assert main(["table", "--kind", "structure_constants", "--range", "1"] + flags) == 2
    err = capsys.readouterr().err
    assert named in err and "structure_constants" in err
    assert main(["table", "--kind", "hopf_maps", "--range", "0"] + flags) == 0


def test_index_beyond_the_letter_bound_exits_2(capsys):
    assert main(["normalize", f"L({INDEX_BOUND}) L(1)"]) == 2
    assert "out of range" in capsys.readouterr().err
    assert main(["normalize", f"L(-{INDEX_BOUND - 1})"]) == 0


def test_hopf_maps_table(tmp_path):
    code, text = run(["table", "--kind", "hopf_maps", "--range", "0",
                      "--format", "json"], tmp_path)
    assert code == 0
    records = {r["generator"]: r for r in map(json.loads, text.splitlines())}
    assert records["L(0)"]["delta"] == "L(0)(x)1 + 1(x)L(0)"
    assert records["T"]["antipode"] == "T^-1"
    assert records["C"]["counit"] == "0"


def test_latex_table_renders(tmp_path):
    code, text = run(["table", "--kind", "hopf_maps", "--range", "0",
                      "--format", "latex"], tmp_path)
    assert code == 0
    assert "\\Delta(L_{0}) &= L_{0} \\otimes 1 + 1 \\otimes L_{0}" in text


def test_fock_dump_csv(tmp_path):
    code, text = run(["fock", "--dim", "4", "--range", "0", "--format", "csv"], tmp_path)
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "operator,row,col,entry"
    assert "a,0,1,1/p" in lines
    assert "a_plus,1,0,1" in lines


def test_verify_homlie_passes(tmp_path):
    code, text = run(["verify", "--suite", "homlie", "--range", "3"], tmp_path, "h.jsonl")
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    assert records and all(r["status"] == "ok" for r in records)
    assert all(r["gated"] for r in records)


def test_a_failing_hom_jacobi_record_names_its_first_three_triples(tmp_path, monkeypatch, capsys):
    """With the untwisted bracket in place of the twisted one, Hom-Jacobi
    fails, and the record pins the residuals of the first three triples."""
    monkeypatch.setattr(homlie, "twisted_env", freealg.bracket_env)
    code, text = run(["verify", "--suite", "homlie", "--range", "1"], tmp_path, "h.jsonl")
    assert code == 1
    [record] = [json.loads(line) for line in text.splitlines() if '"hom_jacobi"' in line]
    d = "((p^2 - q^2)/(p^2*q^2))*L(0)"
    assert record == {"suite": "homlie", "check": "hom_jacobi", "window": 1, "triples": 27,
                      "status": "fail", "gated": True,
                      "residual": f"(-1, 0, 1): -{d}; (-1, 1, 0): {d}; (0, -1, 1): {d}"}
    assert "1 failing (hom_jacobi)" in capsys.readouterr().err


def test_verify_fock_passes(tmp_path):
    code, text = run(["verify", "--suite", "fock", "--range", "2", "--dim", "10"],
                     tmp_path, "f.jsonl")
    assert code == 0
    assert all(json.loads(line)["status"] == "ok" for line in text.splitlines())


def test_verify_fock_takes_its_verdict_from_the_exact_residual(perturb_r4, tmp_path, capsys):
    # at dim 3 the guard keeps column 0 alone, which every L_k annihilates,
    # so a wrong bracket weight (gamma + 1 in R4) leaves every guarded view
    # zero, while the exact residual each record prints is not
    perturb_r4(lambda n, m: AlgebraElement({(L(n + m),): -ONE}))
    code, text = run(["verify", "--suite", "fock", "--dim", "3"], tmp_path, "f.jsonl")
    assert code == 1
    failing = [r for r in map(json.loads, text.splitlines()) if r["status"] == "fail"]
    assert len(failing) == 2 * 9 and {r["check"] for r in failing} == {"bracket"}
    assert all(r["residual"] != "0" for r in failing)
    assert "18 failing (bracket)" in capsys.readouterr().err


def test_verify_fock_checks_r4_as_the_rewriting_states_it(perturb_r4, tmp_path, capsys):
    # R4's L(n) L(m) coefficient (q/p)^n times p: the one-parameter mode,
    # at p = 1, cannot see it, and every two-parameter bracket record fails
    perturb_r4(lambda n, m: AlgebraElement(
        {(L(n), L(m)): monomial(1, 1 - n, n) - monomial(1, -n, n)}))
    code, text = run(["verify", "--suite", "fock"], tmp_path, "f.jsonl")
    assert code == 1
    records = [json.loads(line) for line in text.splitlines()]
    failing = [r for r in records if r["status"] == "fail"]
    assert len(records) == 143 and failing == [
        r for r in records if r["check"] == "bracket" and r["mode"] == "two_param"]
    assert all(r["residual"] != "0" for r in failing)
    assert f"{len(failing)} failing (bracket)" in capsys.readouterr().err


def test_bracket_past_the_letter_bound_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert main(["bracket", str(INDEX_BOUND), "-1"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "out of range" in capsys.readouterr().err


def test_verify_confluence_reports_failures(tmp_path):
    code, text = run(["verify", "--suite", "confluence", "--words", "5"], tmp_path, "c.jsonl")
    assert code == 1
    records = [json.loads(line) for line in text.splitlines()]
    summary = records[-1]
    assert summary["check"] == "summary"
    assert summary["status"] == "fail"
    assert summary["mismatches"] > 0
    assert summary["gated"]


def test_verify_hopf_reports_known_failures(tmp_path):
    code, text = run(["verify", "--suite", "hopf", "--range", "1"], tmp_path, "p.jsonl")
    assert code == 1
    failing = {json.loads(line)["check"]
               for line in text.splitlines() if json.loads(line)["status"] == "fail"}
    assert failing == {"antipode", "antipode_preserves_R4"}


def test_verify_strict_typos_not_gated_by_default(tmp_path):
    code, text = run(["verify", "--suite", "hopf", "--range", "0", "--strict-typos"],
                     tmp_path, "s.jsonl")
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    assert any(r["status"] == "fail" for r in records)
    assert all(not r["gated"] for r in records)
    assert all(r["variants"] == ["strict-typos"] for r in records)


def test_verify_strict_typos_gated_on_request(tmp_path):
    code, _ = run(["verify", "--suite", "hopf", "--range", "0", "--strict-typos",
                   "--gate-variants"], tmp_path, "g.jsonl")
    assert code == 1


@pytest.mark.parametrize("args", [
    ["verify", "--suite", "confluence", "--words", "-3"],
    ["verify", "--suite", "homlie", "--range", "-2"],
    ["table", "--range", "-1"],
    ["fock", "--range", "-1"],
])
def test_negative_counts_rejected_at_parsing(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "must be nonnegative, got -" in err
    with pytest.raises(SystemExit) as exc:
        main(args[:-1] + ["two"])
    assert exc.value.code == 2
    assert "invalid count value: 'two'" in capsys.readouterr().err


def test_verify_output_is_deterministic(tmp_path):
    _, first = run(["verify", "--suite", "homlie", "--range", "2"], tmp_path, "a.jsonl")
    _, second = run(["verify", "--suite", "homlie", "--range", "2"], tmp_path, "b.jsonl")
    assert first == second


def test_verify_seed_changes_confluence_words(tmp_path):
    _, s0 = run(["verify", "--suite", "confluence", "--words", "4", "--seed", "1"],
                tmp_path, "s0.jsonl")
    _, s1 = run(["verify", "--suite", "confluence", "--words", "4", "--seed", "2"],
                tmp_path, "s1.jsonl")
    assert json.loads(s0.splitlines()[-1])["seed"] == 1
    assert json.loads(s1.splitlines()[-1])["seed"] == 2
