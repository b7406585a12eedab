import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import pptor
from pptor._lexer import int_digit_limit
from pptor.cardinals import MAX_FINITE_DIGITS
from pptor.cli import main

LIMIT = int_digit_limit()
# the literal cases spell 5,000 digits; a limit of 0 means none
PAST_LIMIT = pytest.mark.skipif(
    not 0 < LIMIT < 5000, reason="no integer-string limit below 5,000 digits")
SCHEMA = json.loads(
    (Path(pptor.__file__).parent / "schemas" / "cli-result-1.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def run_json(capsys, *argv):
    """Run one --json command; the document must be strict JSON matching the
    shipped schema, its result the schema's shape for that command."""
    code, out, _ = run(capsys, "--json", *argv)
    doc = json.loads(out, parse_constant=_reject_constant)
    shape = {"$ref": "#/$defs/" + doc["command"].replace(" ", "-")}
    schema = dict(SCHEMA, properties=dict(SCHEMA["properties"], result=shape))
    jsonschema.Draft202012Validator(schema).validate(doc)
    return code, doc


def test_low_false(capsys):
    code, out, _ = run(capsys, "low", "E y. x = 2*y")
    assert code == 0 and out.strip() == "false"


def test_low_true(capsys):
    code, out, _ = run(capsys, "low", "2*x = 0 & E y. x = 4*y")
    assert code == 0 and out.strip() == "true"


def test_low_json_schema_keys(capsys):
    code, doc = run_json(capsys, "low", "E y. x = 2*y")
    assert code == 0
    assert doc["command"] == "low"
    assert doc["input"]["formula"] == "E y. x = 2*y"
    assert doc["result"]["low"] is False
    assert "trace" in doc


def test_eval(capsys):
    code, doc = run_json(capsys, "eval", "2*x = 0 & E y. x = 4*y", "Z/8 + Z/2")
    assert code == 0
    assert doc["result"]["subgroup"]["order"] == 2
    # the basis also holds the relation row (0, 2); JSON keeps it
    assert doc["result"]["subgroup"]["generators"] == [[4, 0], [0, 2]]


def test_eval_text_skips_relation_rows(capsys):
    code, out, _ = run(capsys, "eval", "2*x = 0 & E y. x = 4*y", "Z/8 + Z/2")
    assert code == 0
    assert out.splitlines() == ["φ[M] ≤ M^1", "order: 2",
                                "isomorphism type: Z/2", "generator: 4, 0"]


def test_pure_and_witness(capsys):
    code, doc = run_json(capsys, "pure", "2,0", "Z/8 + Z/2")
    assert code == 0
    assert doc["result"]["pure"] is False
    assert doc["trace"]["witness"]["n"] == 2
    code, doc = run_json(capsys, "pure", "0,1", "Z/8 + Z/2")
    assert doc["result"]["pure"] is True


def test_pure_with_free_part(capsys):
    code, doc = run_json(capsys, "pure", "2", "Z")
    assert code == 0
    assert doc["result"]["pure"] is False
    assert doc["result"]["subgroup"]["order"] is None
    assert doc["trace"]["witness"] == {"n": 2, "element": [2]}
    code, out, _ = run(capsys, "pure", "2,0", "Z + Z/4")
    assert code == 0
    assert out.splitlines() == ["false", "witness: [2, 0] ∈ 2M ∩ H but ∉ 2H"]


def test_large_prime_exponent_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "pure", "1", "Z/1000000007")
    assert code == 0 and out.strip() == "true"
    code, doc = run_json(capsys, "complement", "1", "Z/1000000007")
    assert code == 0 and doc["result"]["complement"]["order"] == 1
    code, out, _ = run(capsys, "complement", "1", "Z/1000000007")
    assert code == 0 and out.splitlines() == ["complement of order 1, type 0"]
    assert time.perf_counter() - start < 5


def test_pure_factors_each_modulus(capsys):
    # both moduli are primes below 10^12; their product, the exponent, has
    # no prime factor up to the trial division limit
    group = "Z/999999999989 + Z/999999999959"
    code, out, _ = run(capsys, "pure", "1,1", group)
    assert code == 0 and out.strip() == "true"
    code, doc = run_json(capsys, "pure", "1,1", group)
    assert code == 0 and doc["result"]["pure"] is True


def test_factorization_limit_is_a_domain_error(capsys):
    # 1000003 · 1000033: no prime factor up to the trial division limit
    start = time.perf_counter()
    for argv in (("pure", "1", "Z/1000036000099"), ("ulm", "Z/1000036000099")):
        code, doc = run_json(capsys, *argv)
        assert code == 1 and "trial division limit 1000000" in doc["error"]
    assert time.perf_counter() - start < 5


def _group(moduli, factors, free):
    return {"moduli": moduli, "invariant_factors": factors, "free_rank": free}


# plain output, then the result and trace of --json, over groups with a ℤ
# factor; the subgroup's "generators" are its Hermite rows
_Z93 = _group([0, 9], [9], 1)
_Z4 = _group([0, 4], [4], 1)


@pytest.mark.parametrize("argv, text, result, trace", [
    (("torsion", "Z^2 + Z/3"),
     ["t(M) has order 3, type Z/3", "generator: 0, 0, 1"],
     {"group": _group([0, 0, 3], [3], 2),
      "torsion": {"ambient": _group([0, 0, 3], [3], 2),
                  "generators": [[0, 0, 1]], "order": 3,
                  "group": _group([3], [3], 0)}}, None),
    (("pure", "1,3", "Z + Z/9"), ["true"],
     {"group": _Z93,
      "subgroup": {"ambient": _Z93, "generators": [[1, 3], [0, 9]],
                   "order": None, "group": _group([0], [], 1)},
      "pure": True}, None),
    (("pure", "3,0", "Z + Z/9"),
     ["false", "witness: [3, 0] ∈ 3M ∩ H but ∉ 3H"],
     {"group": _Z93,
      "subgroup": {"ambient": _Z93, "generators": [[3, 0], [0, 9]],
                   "order": None, "group": _group([0], [], 1)},
      "pure": False}, {"witness": {"n": 3, "element": [3, 0]}}),
    (("pure", "0,3", "Z + Z/9"),
     ["false", "witness: [0, 3] ∈ 3M ∩ H but ∉ 3H"],
     {"group": _Z93,
      "subgroup": {"ambient": _Z93, "generators": [[0, 3]], "order": 3,
                   "group": _group([3], [3], 0)},
      "pure": False}, {"witness": {"n": 3, "element": [0, 3]}}),
    (("eval", "E y. x = 2*y", "Z + Z/4"),
     ["φ[M] ≤ M^1", "order: inf", "isomorphism type: Z/2 + Z",
      "generator: 2, 0", "generator: 0, 2"],
     {"formula": "E y . x = 2*y", "group": _Z4, "free_variables": ["x"],
      "subgroup": {"ambient": _Z4, "generators": [[2, 0], [0, 2]],
                   "order": None, "group": _group([2, 0], [2], 1)}}, None),
])
def test_exact_output_over_free_factors(capsys, argv, text, result, trace):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines() == text
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["result"] == result
    assert doc.get("trace") == trace


def test_generator_with_a_leading_minus_follows_double_dash(capsys):
    # without "--", argparse reads "-5,3" as an option and exits 2
    with pytest.raises(SystemExit) as exc:
        main(["pure", "-5,3", "Z/7 + Z/9"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, "pure", "--", "-5,3", "Z/7 + Z/9")
    assert code == 0
    assert out.splitlines() == ["false", "witness: [2, 3] ∈ 3M ∩ H but ∉ 3H"]
    code, doc = run_json(capsys, "pure", "--", "-5,3", "Z/7 + Z/9")
    assert code == 0 and doc["result"]["pure"] is False
    assert doc["trace"] == {"witness": {"n": 3, "element": [2, 3]}}


def test_torsion(capsys):
    code, doc = run_json(capsys, "torsion", "Z + Z/6")
    assert code == 0
    assert doc["result"]["torsion"]["order"] == 6


def test_complement_success_and_failure(capsys):
    code, doc = run_json(capsys, "complement", "0,1", "Z/8 + Z/2")
    assert code == 0
    assert doc["result"]["complement"]["order"] == 8
    code, doc = run_json(capsys, "complement", "4,0", "Z/8 + Z/2")
    assert code == 1
    assert "error" in doc and "result" not in doc


@pytest.mark.parametrize("argv, message", [
    (("complement", "1;", "Z/4"), "empty generator in subgroup '1;'"),
    (("pure", "x", "Z/4"), "coordinate 'x' of generator 'x' is not an integer"),
    (("pure", "1, 2.5", "Z/4 + Z/2"),
     "coordinate '2.5' of generator '1, 2.5' is not an integer"),
    # each parser names the end of its input
    (("low", "x = 2*y &"),
     "expected a term, got end of input (line 1, column 10)"),
    (("eval", "x =", "Z/4"),
     "expected a term, got end of input (line 1, column 4)"),
    (("ulm", "Z/4+"), "unexpected end of input in group expression"),
    (("card", "stable", "aleph(1"),
     "expected ')', got end of input in cardinal expression"),
    (("card", "stable", "aleph("), "bad ordinal index end of input"),
    # numbers are ASCII digits, and no literal passes the interpreter's
    # integer-string limit
    (("low", "x = ²*y"), "unexpected character '²' (line 1, column 5)"),
    (("ulm", "Z/٣"), "unexpected character '٣' in group expression"),
    (("card", "stable", "2^²"),
     "unexpected character '²' in cardinal expression"),
    pytest.param(
        ("eval", "x = " + "7" * 5000 + "*y", "Z/4"),
        f"integer literal of 5000 digits exceeds the limit of {LIMIT} digits "
        "(line 1, column 5)", marks=PAST_LIMIT),
    pytest.param(
        ("ulm", "Z/" + "7" * 5000),
        f"integer literal of 5000 digits exceeds the limit of {LIMIT} digits "
        "in group expression", marks=PAST_LIMIT),
    pytest.param(
        ("card", "stable", "aleph" + "7" * 5000),
        f"integer literal of 5000 digits exceeds the limit of {LIMIT} digits "
        "in cardinal expression", marks=PAST_LIMIT),
    pytest.param(
        ("pure", "1, " + "7" * 5000, "Z/4 + Z/2"),
        "coordinate 2 of generator 1: integer literal of 5000 digits exceeds "
        f"the limit of {LIMIT} digits", marks=PAST_LIMIT),
    # a coordinate is read by the same rule: no non-ASCII digit, no '_'
    (("pure", "٣,1_0", "Z/4 + Z/16"),
     "coordinate '٣' of generator '٣,1_0' is not an integer"),
    (("pure", "3,1_0", "Z/4 + Z/16"),
     "coordinate '1_0' of generator '3,1_0' is not an integer"),
])
def test_subgroup_parse_errors_name_the_input(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1 and not out and err.strip() == f"error: {message}"
    code, doc = run_json(capsys, *argv)
    assert code == 1 and doc["error"] == message and "result" not in doc


def test_chain(capsys):
    code, doc = run_json(capsys, "chain", "--witness", "2", "3", "1",
                         "--indices")
    assert code == 0
    assert doc["result"]["orders"] == [8, 4, 2, 1, 1]
    assert doc["result"]["stabilization_index"] == 3
    assert doc["result"]["indices"] == [2, 2, 2, 1]


def test_chain_rank_limit(capsys):
    start = time.perf_counter()
    code, doc = run_json(capsys, "chain", "--witness", "2", "60", "6")
    assert code == 1 and "limit 64" in doc["error"]
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize("argv", [("complement", "0", "(Z/2)^65"),
                                  ("eval", "x1 = x2", "(Z/2)^33"),
                                  ("ulm", "(Z/2)^1000000000000")])
def test_rank_limit(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert code == 1 and "limit 64" in err
    code, doc = run_json(capsys, *argv)
    assert code == 1 and "limit 64" in doc["error"]
    assert time.perf_counter() - start < 5


def test_types(capsys):
    code, out, _ = run(capsys, "types", "0", "--bound", "4")
    assert code == 0 and out.strip() == "5"
    code, out, _ = run(capsys, "types", "0", "--bound", "2")
    assert out.strip() == "2"
    code, doc = run_json(capsys, "types", "0", "--bound", "4", "--oracle")
    assert code == 0 and doc["result"]["count"] == 5


def test_types_bound_limit(capsys):
    code, doc = run_json(capsys, "types", "0", "--bound", "33")
    assert code == 1 and "limit 32" in doc["error"]


@pytest.mark.parametrize("argv, count", [
    (("types", "(Z/2)^3", "--bound", "32"), 26),
    (("types", "Z/2 + Z/2", "--bound", "32", "--oracle"), 32)])
def test_types_at_bound_limit(capsys, argv, count):
    start = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip() == str(count)
    code, doc = run_json(capsys, *argv)
    assert code == 0 and doc["result"]["count"] == count
    assert time.perf_counter() - start < 5


def test_ulm(capsys):
    code, doc = run_json(capsys, "ulm", "Z/8 + Z/2")
    assert code == 0
    assert {(a["p"], a["n"]): a["value"] for a in doc["result"]["alpha"]} == \
        {(2, 1): 1, (2, 3): 1}


def test_limit_model(capsys):
    code, doc = run_json(capsys, "limit-model", "lambda", "--cof", "w1")
    assert code == 0
    assert doc["result"]["model"] == \
        "t(Prod_p(PE(Sum_n(Z(p^n)^(λ))))) ⊕ Sum_p(Z(p^inf)^(λ))"


def test_limit_model_refuses_a_composite_p(capsys):
    argv = ("limit-model", "lambda", "--cof", "w", "--p", "4")
    message = "variant must be 'Tor' or a prime, got 4"
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err.strip() == f"error: {message}"
    code, doc = run_json(capsys, *argv)
    assert code == 1 and doc["error"] == message and "result" not in doc
    code, doc = run_json(capsys, "limit-model", "lambda", "--cof", "w",
                         "--p", "5")
    assert code == 0 and doc["result"]["class"] == "p=5"


def test_card_stable_false_koenig(capsys):
    code, out, _ = run(capsys, "card", "stable", "beth(ω)")
    assert code == 0
    assert out.startswith("false (")
    assert "König" in out


def test_card_stable_true(capsys):
    code, out, _ = run(capsys, "card", "stable", "2^aleph0")
    assert code == 0 and out.startswith("true")


def test_card_stable_unknown_json(capsys):
    code, doc = run_json(capsys, "card", "stable", "aleph1")
    assert code == 0
    assert doc["command"] == "card stable"
    assert doc["result"]["verdict"] == "unknown"


@pytest.mark.parametrize("cardinal", ["aleph0 + 9^9^7", "aleph0 + 9^9^8"])
def test_a_finite_power_past_the_digit_limit_exits_1_at_once(capsys, cardinal):
    # 9^9^7 has 4.6 million digits and took seconds; 9^9^8 ran for minutes
    limit = min(MAX_FINITE_DIGITS, LIMIT or MAX_FINITE_DIGITS)
    start = time.perf_counter()
    code, out, err = run(capsys, "card", "stable", cardinal)
    assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == f"error: a finite value exceeds the limit of {limit} digits\n"
    code, doc = run_json(capsys, "card", "stable", cardinal)
    assert code == 1 and str(limit) in doc["error"]


ZERO_POWER = "aleph0^((lambda^aleph0)^0)"  # (λ^ℵ₀)^0 = 1, so this is ℵ₀


@pytest.mark.parametrize("command, options", [
    (("card", "stable"), ()),
    (("limit-model",), ("--cof", "w1", "--p", "2")),
])
def test_a_power_to_the_zero_answers_as_its_value(capsys, command, options):
    code, out, err = run(capsys, *command, ZERO_POWER, *options)
    assert (code, out, err) == run(capsys, *command, "aleph0", *options)
    if command == ("card", "stable"):
        assert code == 0 and out == "false (beth strictly increasing)\n"
    code, doc = run_json(capsys, *command, ZERO_POWER, *options)
    want_code, want = run_json(capsys, *command, "aleph0", *options)
    assert doc.pop("input") == dict(want.pop("input"), cardinal=ZERO_POWER)
    assert (code, doc) == (want_code, want)


def test_verify_single_suite(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "rem-ab")
    assert code == 0
    assert doc["result"][0]["passed"] is True


def test_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "eval", "bad ((", "Z/2")
    assert code == 1 and "error" in err
    code, doc = run_json(capsys, "eval", "bad ((", "Z/2")
    assert code == 1 and "result" not in doc


def test_verify_suite_choices_are_the_suites():
    """The parser lists the suites without importing the acceptance suite."""
    from pptor import cli, verify

    assert cli.VERIFY_SUITES == tuple(verify.SUITES)


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_cli_starts_without_numpy():
    """Only the evaluation criterion's oracle needs numpy, and it imports it
    when it runs, so no other command pays for the import."""
    src = str(Path(pptor.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, pptor.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
