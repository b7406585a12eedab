"""The one lexer and token cursor behind the formula, group and cardinal
parsers.

A token is (kind, value, line, column).  Its kind is "int" (value the
integer), "ident" (value the name), "eof" (value None) or one of the
grammar's punctuation characters (value the character itself).  Numbers
are ASCII 0–9 only.  Each grammar passes its punctuation and its error
constructor ``error(message, line, column)``, which returns that
language's exception in that language's message format.
"""

from __future__ import annotations

import sys


def int_digit_limit() -> int:
    """The interpreter's integer-string limit in digits; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _integer(text: str, error, line: int, col: int) -> int | None:
    """The one number rule: ``text`` as an optional sign and ASCII digits,
    spaces around; None if it is not one; the error past the limit."""
    body = text.strip()
    digits = body[1:] if body[:1] in ("+", "-") else body
    if not digits or not all("0" <= ch <= "9" for ch in digits):
        return None
    limit = int_digit_limit()
    if 0 < limit < len(digits):
        raise error(f"integer literal of {len(digits)} digits exceeds the "
                    f"limit of {limit} digits", line, col)
    return int(body)


def _tokenize(text: str, punctuation: str, error, names: bool = True):
    """Tokens of ``text``, ending in one "eof" token.  With ``names`` off a
    letter is an unexpected character unless it is punctuation."""
    tokens = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if "0" <= ch <= "9":
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(
                ("int", _integer(text[i:j], error, line, col), line, col))
        elif names and (ch.isalpha() or ch == "_"):
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], line, col))
        elif ch in punctuation:
            tokens.append((ch, ch, line, col))
        elif ch == "\n":
            line, col = line + 1, 0  # the next character is in column 1
        elif not ch.isspace():
            raise error(f"unexpected character {ch!r}", line, col)
        col += j - i
        i = j
    tokens.append(("eof", None, line, col))
    return tokens


def _shown(tok) -> str:
    return "end of input" if tok[0] == "eof" else repr(tok[1])


class Cursor:
    """Peek and take over the tokens of one text."""

    def __init__(self, text: str, punctuation: str, error, names: bool = True):
        self.tokens = _tokenize(text, punctuation, error, names)
        self.pos = 0
        self.error = error

    def peek(self, ahead: int = 0):
        return self.tokens[self.pos + ahead]

    def take(self, kind=None):
        """The next token, which must be of ``kind`` when one is named."""
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            self.fail(f"expected {kind!r}, got {_shown(tok)}", tok)
        self.pos += 1
        return tok

    def fail(self, message: str, tok=None):
        """Raise the grammar's error at ``tok``, by default the next token."""
        _, _, line, col = tok or self.peek()
        raise self.error(message, line, col)

    def unexpected(self):
        """Raise the grammar's error for the next token."""
        tok = self.peek()
        self.fail("unexpected end of input" if tok[0] == "eof"
                  else f"unexpected token {tok[1]!r}")
