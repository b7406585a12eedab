"""Seeded, bounded parse fuzz: every string over a language's alphabet, with
non-ASCII digits, a non-ASCII letter and newlines mixed in, either parses or
raises that language's own error with a message that names the input."""

import random

import pytest

from pptor._lexer import int_digit_limit
from pptor.cardinals import CardinalError, parse_cardinal
from pptor.formulas import FormulaError, parse
from pptor.groups import GroupError, parse_group

EXTRA = ("²", "٣", "é", "\n")
LIMIT = int_digit_limit() or 4300  # with no limit, still try long literals

LANGUAGES = {
    "formula": (parse, FormulaError,
                ("x", "y", "z1", "E", "E", "_", "0", "2", "12", "*", "*", "+",
                 "-", "=", "=", "&", "(", ")", ".", " ", " ")),
    "group": (parse_group, GroupError,
              ("Z", "Z", "0", "1", "4", "12", "+", "^", "/", "/", "(", ")",
               " ")),
    "cardinal": (parse_cardinal, CardinalError,
                 ("aleph", "beth", "aleph1", "alephw", "lambda", "ω", "w",
                  "0", "2", "17", "+", "*", "^", "(", ")", " ")),
}


def _strings(alphabet, seed, count):
    rng = random.Random(seed)
    pool = alphabet + EXTRA
    for _ in range(count):
        text = "".join(rng.choice(pool) for _ in range(rng.randint(0, 10)))
        if rng.random() < 0.02:  # a literal at or past the limit
            k = rng.randint(0, len(text))
            digits = "9" * rng.choice((LIMIT, LIMIT + 1))
            text = text[:k] + digits + text[k:]
        yield text


@pytest.mark.parametrize("language", sorted(LANGUAGES))
def test_parse_fuzz_raises_only_domain_errors(language):
    parse_text, error, alphabet = LANGUAGES[language]
    parsed = failed = 0
    for text in _strings(alphabet, 2300 + len(language), 3000):
        try:
            parse_text(text)
            parsed += 1
        except error as exc:
            message = str(exc)
            for bad in ("invalid literal", "Exceeds the limit", "None"):
                assert bad not in message, (text, message)
            failed += 1
    assert parsed and failed
