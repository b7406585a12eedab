import itertools
import random

import pytest

from pptor._lexer import int_digit_limit
from pptor.cardinals import (
    ALEPH0,
    FALSE,
    MAX_FINITE_DIGITS,
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
from reference import gch_assignments, gch_values


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


def test_zero_exponent_folds_before_the_parent_reads_it():
    """(κ^μ)^0 is 1, not an infinite κ^0, when the Sum, Product or Power
    above it applies its rules."""
    p = parse_cardinal
    assert normalize(p("2 + (mu^lambda)^0")) == Finite(3)
    assert normalize(p("1 + (alephw^aleph0)^0")) == Finite(2)
    assert normalize(p("aleph0^((lambda^aleph0)^0)")) == ALEPH0
    assert normalize(p("(kappa^alephw)^(0^7)*7")) == Finite(7)
    assert compare(Finite(2), p("2 + (mu^lambda)^0"), "le") == (TRUE, "finite")
    assert compare(p("1 + (alephw^aleph0)^0"), Finite(2), "eq") == \
        (TRUE, "equal normal forms")
    assert compare(p("aleph0^((lambda^aleph0)^0)"), ALEPH0, "eq") == \
        (TRUE, "equal normal forms")


def test_a_finite_value_past_the_digit_limit_is_refused():
    """normalize refuses a finite value of more digits than the limit, a
    power before computing it, so card_str can print every normal form."""
    limit = min(MAX_FINITE_DIGITS, int_digit_limit() or MAX_FINITE_DIGITS)
    p = parse_cardinal
    widest = normalize(p(f"9*10^{limit - 1} + aleph0*0"))  # limit digits
    assert widest == Finite(9 * 10 ** (limit - 1))
    assert len(card_str(widest)) == limit
    message = f"a finite value exceeds the limit of {limit} digits"
    for text in (f"10^{limit}", f"10^{limit - 1}*10",
                 f"10^{limit - 1}*9 + 10^{limit - 1}", "aleph0 + 9^9^8",
                 "aleph0 + 7^7^7", "1^(9^9^9)", f"2^(10^{limit - 1})"):
        with pytest.raises(CardinalError) as exc:
            normalize(p(text))
        assert str(exc.value) == message, text
    # an exponent of `limit` digits is cheap when the base is 0 or 1
    assert normalize(p(f"1^(9*10^{limit - 1})")) == Finite(1)
    assert normalize(p(f"0^(9*10^{limit - 1})")) == Finite(0)


def _random_term(rng, atoms, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(atoms)
    op = rng.choice((Sum, Prod, Power))
    args = (_random_term(rng, atoms, depth - 1),
            _random_term(rng, atoms, depth - 1))
    return Power(*args) if op is Power else op(args)


def test_normalize_idempotent_fuzz():
    rng = random.Random(15)
    atoms = [ALEPH0, Aleph(1), Aleph(2), Aleph("w"), Beth(1), Beth("w"),
             Var("κ"), Var("λ"), Finite(0), Finite(1), Finite(2), Finite(7)]
    for _ in range(400):
        e = _random_term(rng, atoms, 3)
        n1 = normalize(e)
        assert normalize(n1) == n1
        assert parse_cardinal(card_str(n1)) == n1


def test_normal_form_does_not_depend_on_the_order_of_arguments():
    """ω ranks above every integer index, so ℵ_99 and ℵ_ω (ℶ_99 and ℶ_ω)
    never tie in the sort of a sum's or a product's arguments."""
    atoms = [Aleph(99), Aleph("w"), Beth(99), Beth("w"), Var("κ"), Var("λ"),
             Finite(2)]
    pairs = list(itertools.product(atoms, repeat=2))
    terms = atoms + [Power(a, b) for a, b in pairs] + [Prod(p) for p in pairs]
    for a, b in itertools.product(terms, repeat=2):
        assert normalize(Sum((a, b))) == normalize(Sum((b, a)))
        assert normalize(Prod((a, b))) == normalize(Prod((b, a)))


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


# GCH model checks: GCH is consistent with ZFC, so a verdict that fails in
# the model is no theorem, and a normal form must keep the term's value there.

_MODEL_LEAVES = [Finite(0), Finite(1), Finite(2), ALEPH0, Aleph(1), Aleph("w"),
                 Beth(1), Var("λ")]


def test_normalize_keeps_the_value_of_every_nested_power_in_a_gch_model():
    """All 16,384 terms x ∘ ((a^b)^c) over eight leaves, ∘ one of +, ·, x^t
    and t^x: a power of a power is where a half-rewritten child showed."""
    changed = []
    for x, a, b, c in itertools.product(_MODEL_LEAVES, repeat=4):
        t = Power(Power(a, b), c)
        envs = gch_assignments(x, t)
        for e in (Sum((x, t)), Prod((x, t)), Power(x, t), Power(t, x)):
            if gch_values(normalize(e), envs) != gch_values(e, envs):
                changed.append(card_str(e))
    assert changed == []


_HOLDS = {"lt": lambda x, y: x < y, "le": lambda x, y: x <= y,
          "eq": lambda x, y: x == y}


def test_compare_verdicts_hold_in_a_gch_model():
    """Seeded comparisons of terms of depth ≤ 3: TRUE must hold and FALSE
    must fail under every assignment of the variables.  The finite atoms
    stay ≤ 2, so no finite power outgrows 256^256."""
    rng = random.Random(26)
    atoms = _MODEL_LEAVES + [Aleph(2), Beth("w"), Var("κ")]
    decided, wrong = 0, []
    for _ in range(2000):
        a = _random_term(rng, atoms, 3)
        b = _random_term(rng, atoms, 3)
        rel = rng.choice(tuple(_HOLDS))
        verdict, reason = compare(a, b, rel)
        if verdict is UNKNOWN:
            continue
        decided += 1
        envs = gch_assignments(a, b)
        holds = map(_HOLDS[rel], gch_values(a, envs), gch_values(b, envs))
        if any(h != (verdict is TRUE) for h in holds):
            wrong.append((card_str(a), rel, card_str(b), str(verdict), reason))
    assert wrong == []
    assert decided == 1157
