import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

import pptor
from pptor.cli import main

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


def test_verify_single_suite(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "rem-ab")
    assert code == 0
    assert doc["result"][0]["passed"] is True


def test_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "eval", "bad ((", "Z/2")
    assert code == 1 and "error" in err
    code, doc = run_json(capsys, "eval", "bad ((", "Z/2")
    assert code == 1 and "result" not in doc


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
