import random

import pytest

from pptor._lexer import int_digit_limit
from pptor.cardinals import (
    ALEPH0,
    FALSE,
    TRUE,
    UNKNOWN,
    Aleph,
    Beth,
    CardinalError,
    Finite,
    Power,
    Prod,
    Sum,
    Var,
    card_str,
    cofinality,
    compare,
    eq,
    le,
    lt,
    normalize,
    parse_cardinal,
    stability_predicate,
)


def test_parse_and_print_roundtrip():
    for text in ("aleph0", "aleph1", "alephw", "beth(w)", "beth2",
                 "2^aleph0", "aleph1 + beth(2)", "lambda^aleph0",
                 "(2^aleph0)^aleph0", "aleph0 * kappa", "17"):
        e = parse_cardinal(text)
        assert parse_cardinal(card_str(e)) == e


def test_parse_unicode_aliases():
    assert parse_cardinal("beth(ω)") == parse_cardinal("beth(w)")
    assert parse_cardinal("beth(omega)") == parse_cardinal("beth(w)")
    assert parse_cardinal("lambda") == Var("λ")


def test_parse_errors():
    for text, message in (
            ("aleph(", "bad ordinal index end of input"),
            ("aleph(1", "expected ')', got end of input in cardinal expression"),
            ("2 ^", "unexpected end of input in cardinal expression")):
        with pytest.raises(CardinalError) as exc:
            parse_cardinal(text)
        assert str(exc.value) == message


def test_parse_reads_ascii_digits_up_to_the_literal_limit():
    """Only an ASCII-digit suffix makes aleph/beth an index: aleph² and
    aleph٣ are names, as x² is; a literal past the interpreter's
    integer-string limit, alone or as a suffix, names the limit."""
    limit = int_digit_limit()
    cases = [("2^²", "unexpected character '²' in cardinal expression"),
             ("beth(٣)", "unexpected character '٣' in cardinal expression")]
    if 0 < limit < 5000:  # a limit of 0 means none
        too_long = (f"integer literal of 5000 digits exceeds the limit of "
                    f"{limit} digits in cardinal expression")
        cases += [("7" * 5000, too_long),
                  ("aleph" + "7" * 5000, too_long),
                  ("beth(" + "7" * 5000 + ")", too_long)]
    for text, message in cases:
        with pytest.raises(CardinalError) as exc:
            parse_cardinal(text)
        assert str(exc.value) == message
    assert parse_cardinal("aleph²") == Var("aleph²")
    assert parse_cardinal("aleph٣") == Var("aleph٣")
    if limit:
        assert parse_cardinal("aleph" + "7" * limit) == Aleph(int("7" * limit))


def test_normalize_rules():
    n = lambda s: normalize(parse_cardinal(s))
    assert n("aleph0 + aleph0") == ALEPH0
    assert n("aleph0 * aleph1") == Aleph(1)
    assert n("2 + 3") == Finite(5)
    assert n("(2^aleph0)^aleph0") == n("2^aleph0")
    assert n("aleph0^aleph0") == n("2^aleph0")   # squeeze 2 ≤ ℵ0 ≤ 2^ℵ0
    assert n("aleph1^5") == Aleph(1)
    assert n("aleph0 + 7") == ALEPH0
    assert n("3^aleph0") == n("2^aleph0")


def test_normalize_idempotent_fuzz():
    rng = random.Random(15)
    atoms = [ALEPH0, Aleph(1), Aleph(2), Aleph("w"), Beth(1), Beth("w"),
             Var("κ"), Var("λ"), Finite(2), Finite(7)]

    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(atoms)
        op = rng.choice((Sum, Prod, Power))
        if op is Power:
            return Power(build(depth - 1), build(depth - 1))
        return op((build(depth - 1), build(depth - 1)))

    for _ in range(400):
        e = build(3)
        n1 = normalize(e)
        assert normalize(n1) == n1
        assert parse_cardinal(card_str(n1)) == n1


def test_order_theorems():
    assert lt(ALEPH0, parse_cardinal("2^aleph0"))[0] == TRUE       # Cantor
    assert lt(parse_cardinal("beth(w)"),
              parse_cardinal("beth(w)^aleph0"))[0] == TRUE         # König
    assert le(Aleph(1), parse_cardinal("2^aleph0"))[0] == TRUE     # successor
    assert lt(Aleph(1), Beth("w"))[0] == TRUE
    assert le(Aleph("w"), Beth("w"))[0] == TRUE
    assert eq(parse_cardinal("aleph0+aleph1"), Aleph(1))[0] == TRUE


def test_independence_is_unknown():
    assert eq(Aleph(1), parse_cardinal("2^aleph0"))[0] == UNKNOWN  # CH
    assert le(Beth(1), Aleph(1))[0] == UNKNOWN
    assert eq(parse_cardinal("aleph1^aleph0"), Aleph(1))[0] == UNKNOWN


def test_reasons_are_reported():
    verdict, reason = lt(parse_cardinal("beth(w)"),
                         parse_cardinal("beth(w)^aleph0"))
    assert verdict == TRUE and "König" in reason
    verdict, reason = lt(Var("κ"), parse_cardinal("2^kappa"))
    assert verdict == TRUE and "Cantor" in reason


def test_cofinality():
    assert cofinality(ALEPH0) == ALEPH0
    assert cofinality(Aleph("w")) == ALEPH0
    assert cofinality(Beth("w")) == ALEPH0
    assert cofinality(Aleph(1)) == Aleph(1)
    assert cofinality(Var("λ")) is None


def test_stability_predicate():
    v, reason = stability_predicate(parse_cardinal("beth(w)"))
    assert v == FALSE and "König" in reason
    v, _ = stability_predicate(parse_cardinal("2^aleph0"))
    assert v == TRUE
    v, _ = stability_predicate(parse_cardinal("mu^aleph0"))
    assert v == TRUE
    v, _ = stability_predicate(Aleph(1))
    assert v == UNKNOWN
    with pytest.raises(CardinalError):
        stability_predicate(Finite(5))


def test_tribool_str():
    assert str(TRUE) == "true"
    assert str(FALSE) == "false"
    assert str(UNKNOWN) == "unknown"


def test_compare_dispatch():
    assert compare(ALEPH0, Aleph(1), "lt")[0] == TRUE
    assert compare(ALEPH0, ALEPH0, "=")[0] == TRUE
    with pytest.raises(CardinalError):
        compare(ALEPH0, ALEPH0, "nope")
