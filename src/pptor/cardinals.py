"""Symbolic cardinal arithmetic with a sound three-valued comparison engine.

Expressions are trees over Finite(n), Aleph(i), Beth(i) (index a finite
integer or ω, written "w"), Var (an unspecified infinite cardinal such as
λ), and Sum / Prod / Power.  The rule system is deliberately small and
one-sided: True/False are returned only for ZFC theorems — Cantor, König
(with the tracked cofinalities), monotonicity, absorption and the
2 ≤ κ ≤ 2^μ squeeze, ℶ-recursion — and everything else is Unknown, so
statements independent of ZFC (CH and friends) are never decided.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ._lexer import Cursor, _integer, _shown, int_digit_limit

OMEGA = "w"  # ordinal index ω

# A finite value that normalize computes has at most this many decimal
# digits (CPython's default integer-string limit), or the interpreter's own
# limit when that is lower, so card_str prints every normal form.  A finite
# power past it is refused from the bit lengths of its base and exponent,
# before it is computed: 9^9^8 would take minutes.
MAX_FINITE_DIGITS = 4300


class CardinalError(ValueError):
    pass


class TriBool(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __str__(self):
        return self.value


TRUE, FALSE, UNKNOWN = TriBool.TRUE, TriBool.FALSE, TriBool.UNKNOWN


@dataclass(frozen=True)
class Finite:
    n: int


@dataclass(frozen=True)
class Aleph:
    i: object  # int ≥ 0 or OMEGA


@dataclass(frozen=True)
class Beth:
    i: object


@dataclass(frozen=True)
class Var:
    name: str  # denotes an arbitrary infinite cardinal


@dataclass(frozen=True)
class Sum:
    args: tuple


@dataclass(frozen=True)
class Prod:
    args: tuple


@dataclass(frozen=True)
class Power:
    base: object
    exp: object


ALEPH0 = Aleph(0)


def _index_le(i, j) -> bool:
    if i == OMEGA:
        return j == OMEGA
    return j == OMEGA or i <= j


def _index_lt(i, j) -> bool:
    if i == OMEGA:
        return False
    return j == OMEGA or i < j


def is_infinite(e) -> bool:
    if isinstance(e, Finite):
        return False
    if isinstance(e, (Aleph, Beth, Var)):
        return True
    if isinstance(e, (Sum, Prod)):
        return any(is_infinite(a) for a in e.args)
    if isinstance(e, Power):
        return is_infinite(e.base) or (
            _finite_ge(e.base, 2) and is_infinite(e.exp)
        )
    raise CardinalError(f"not a cardinal expression: {e!r}")


def _finite(b: int, e: int = 1) -> Finite:
    """Finite(b^e), or the CardinalError naming the limit when b^e has more
    digits than it allows.  A power is refused before it is computed when
    b^e ≥ 2^((bits(b) − 1)·e) ≥ 16^limit; one that passes has fewer than
    8·limit bits, so computing it is cheap."""
    limit = min(MAX_FINITE_DIGITS, int_digit_limit() or MAX_FINITE_DIGITS)
    if (b.bit_length() - 1) * e < 4 * limit:
        n = b ** e
        if n.bit_length() <= 3 * limit or n < 10 ** limit:  # 2^(3L) < 10^L
            return Finite(n)
    raise CardinalError(f"a finite value exceeds the limit of {limit} digits")


def _finite_ge(e, n) -> bool:
    return isinstance(e, Finite) and e.n >= n


def _ge_two(e) -> bool:
    return is_infinite(e) or _finite_ge(e, 2)


def _ge_one(e) -> bool:
    return is_infinite(e) or _finite_ge(e, 1)


def beth_of(e):
    """Index i with e = ℶ_i provably, or None.  ℶ_0 = ℵ_0; ℶ_{i+1} = 2^ℶ_i."""
    if isinstance(e, Beth):
        return e.i
    if isinstance(e, Aleph) and e.i == 0:
        return 0
    if isinstance(e, Power):
        j = beth_of(e.exp)
        if j is not None and j != OMEGA:
            base_ok = _finite_ge(e.base, 2)
            if not base_ok:
                # κ^ℶ_j = ℶ_{j+1} also when 2 ≤ κ ≤ ℶ_{j+1}, e.g. κ = ℶ_i, i ≤ j+1
                bi = beth_of(e.base)
                base_ok = bi is not None and _index_le(bi, j)
            if base_ok:
                return j + 1
    return None


# ---------------------------------------------------------------------------
# comparison rules; each prover returns a reason string, or None if unproven


def prove_le(a, b, depth: int = 0):
    if depth > 12:
        return None
    if a == b:
        return "identical"
    if isinstance(a, Finite) and isinstance(b, Finite):
        return "finite" if a.n <= b.n else None
    if isinstance(a, Finite) and is_infinite(b):
        return "finite below infinite"
    ia, ib = beth_of(a), beth_of(b)
    if ia is not None and ib is not None and _index_le(ia, ib):
        return "beth monotonicity"
    if isinstance(a, Aleph) and isinstance(b, Aleph) and _index_le(a.i, b.i):
        return "aleph monotonicity"
    if isinstance(a, Aleph) and ib is not None and _index_le(a.i, ib):
        return "aleph below beth"  # ℵ_i ≤ ℶ_i
    if ia == 0 and is_infinite(b):
        return "aleph0 least infinite"
    if isinstance(a, Aleph) and isinstance(a.i, int) and a.i >= 1:
        if prove_lt(Aleph(a.i - 1), b, depth + 1):
            return "successor"  # κ > ℵ_i ⟹ κ ≥ ℵ_{i+1}
    if isinstance(b, Sum):
        for arg in b.args:
            if prove_le(a, arg, depth + 1):
                return "summand"
    if isinstance(b, Prod):
        if all(_ge_one(arg) for arg in b.args):
            for arg in b.args:
                if prove_le(a, arg, depth + 1):
                    return "factor"
    if isinstance(a, Sum):
        if all(prove_le(arg, b, depth + 1) for arg in a.args):
            return "sum is max"
    if isinstance(a, Prod) and is_infinite(b):
        if all(prove_le(arg, b, depth + 1) for arg in a.args):
            return "product is max"
    if isinstance(b, Power):
        if _ge_one(b.exp) and prove_le(a, b.base, depth + 1):
            return "base below power"
        if _ge_two(b.base) and prove_le(a, b.exp, depth + 1):
            return "Cantor bound"  # a ≤ μ < 2^μ ≤ κ^μ
        if isinstance(a, Power):
            if (prove_le(a.base, b.base, depth + 1)
                    and prove_le(a.exp, b.exp, depth + 1)):
                return "power monotonicity"
            if (_ge_two(b.base) and is_infinite(b.exp)
                    and prove_le(a.base, b, depth + 1)
                    and prove_le(a.exp, b.exp, depth + 1)):
                return "power below a power"  # κ^μ ≤ (λ^ν)^μ = λ^ν
    return None


def prove_lt(a, b, depth: int = 0):
    if depth > 12:
        return None
    if isinstance(a, Finite) and isinstance(b, Finite):
        return "finite" if a.n < b.n else None
    if isinstance(a, Finite) and is_infinite(b):
        return "finite below infinite"
    ia, ib = beth_of(a), beth_of(b)
    if ia is not None and ib is not None and _index_lt(ia, ib):
        return "beth strictly increasing"
    if isinstance(a, Aleph) and isinstance(b, Aleph) and _index_lt(a.i, b.i):
        return "aleph strictly increasing"
    if isinstance(a, Aleph) and ib is not None and _index_lt(a.i, ib):
        return "aleph below beth"
    if isinstance(b, Power) and _ge_two(b.base):
        if prove_le(a, b.exp, depth + 1):
            return "Cantor"  # a ≤ μ < 2^μ ≤ κ^μ
        if is_infinite(a) and prove_le(a, b.base, depth + 1):
            cf = cofinality(a)
            if cf is not None and prove_le(cf, b.exp, depth + 1):
                return "König"  # a < a^cf(a) ≤ κ^μ
    if isinstance(b, Sum):
        for arg in b.args:
            if prove_lt(a, arg, depth + 1):
                return "summand"
    if isinstance(a, Sum):
        if all(prove_lt(arg, b, depth + 1) for arg in a.args):
            return "sum is max"
    return None


def cofinality(e):
    """cf(e) for the decidable cases, else None (Unknown)."""
    e = normalize(e)
    if isinstance(e, Aleph):
        if e.i == 0:
            return ALEPH0
        if e.i == OMEGA:
            return ALEPH0  # countable supremum of the ℵ_n
        return e  # successor cardinals are regular
    if isinstance(e, Beth) and e.i == OMEGA:
        return ALEPH0  # countable supremum of the ℶ_n
    return None


# ---------------------------------------------------------------------------
# three-valued comparisons


def le(a, b):
    a, b = normalize(a), normalize(b)
    r = prove_le(a, b)
    if r:
        return TRUE, r
    r = prove_lt(b, a)
    if r:
        return FALSE, r
    return UNKNOWN, "no applicable rule"


def lt(a, b):
    a, b = normalize(a), normalize(b)
    r = prove_lt(a, b)
    if r:
        return TRUE, r
    r = prove_le(b, a)
    if r:
        return FALSE, r
    return UNKNOWN, "no applicable rule"


def eq(a, b):
    a, b = normalize(a), normalize(b)
    if a == b:
        return TRUE, "equal normal forms"
    r1, r2 = prove_le(a, b), prove_le(b, a)
    if r1 and r2:
        return TRUE, f"{r1}; {r2}"
    r = prove_lt(a, b) or prove_lt(b, a)
    if r:
        return FALSE, r
    return UNKNOWN, "no applicable rule"


def compare(a, b, relation: str):
    if relation in ("<", "lt"):
        return lt(a, b)
    if relation in ("<=", "le"):
        return le(a, b)
    if relation in ("=", "eq"):
        return eq(a, b)
    raise CardinalError(f"unknown relation {relation!r}")


def stability_predicate(lam):
    """λ^ℵ₀ = λ — True means K^Tor is λ-stable at λ."""
    lam = normalize(lam)
    if isinstance(lam, Finite):
        raise CardinalError("stability predicate requires an infinite cardinal")
    return eq(Power(lam, ALEPH0), lam)


# ---------------------------------------------------------------------------
# normalization (fixed rewrite system, children before their parent)


def _sort_key(e):
    if isinstance(e, Finite):
        return (0, e.n)
    if isinstance(e, Aleph):
        return (1, 99 if e.i == OMEGA else e.i)
    if isinstance(e, Beth):
        return (2, 99 if e.i == OMEGA else e.i)
    if isinstance(e, Var):
        return (3, e.name)
    if isinstance(e, Power):
        return (4, _sort_key(e.base), _sort_key(e.exp))
    if isinstance(e, Prod):
        return (5, tuple(_sort_key(a) for a in e.args))
    return (6, tuple(_sort_key(a) for a in e.args))


def normalize(e):
    """Normal form of e, in one pass from the leaves up.

    Each argument is normalized first, so a node's rules read only normal
    arguments; the one rule that builds a new term, (κ^μ)^ν = κ^(μ·ν),
    normalizes that term, μ·ν, again.
    """
    if isinstance(e, (Finite, Aleph, Var)):
        return e
    if isinstance(e, Beth):
        return ALEPH0 if e.i == 0 else e
    if isinstance(e, Sum):
        args = []
        for a in e.args:
            a = normalize(a)
            args.extend(a.args if isinstance(a, Sum) else [a])
        fin = sum(a.n for a in args if isinstance(a, Finite))
        args = [a for a in args if not isinstance(a, Finite)]
        if not args:
            return _finite(fin)
        if fin:
            args.append(_finite(fin))
        # infinite sum = max when a dominant summand is provable
        for cand in args:
            if is_infinite(cand) and all(
                a is cand or prove_le(a, cand) for a in args
            ):
                return cand
        args.sort(key=_sort_key)
        return args[0] if len(args) == 1 else Sum(tuple(args))
    if isinstance(e, Prod):
        args = []
        for a in e.args:
            a = normalize(a)
            args.extend(a.args if isinstance(a, Prod) else [a])
        fin = 1
        for a in args:
            if isinstance(a, Finite):
                fin *= a.n
        args = [a for a in args if not isinstance(a, Finite)]
        if fin == 0 or not args:
            return _finite(fin if not args else 0)
        if fin > 1:
            args.append(_finite(fin))
        for cand in args:
            if is_infinite(cand) and all(
                a is cand or (_ge_one(a) and prove_le(a, cand)) for a in args
            ):
                return cand
        args.sort(key=_sort_key)
        return args[0] if len(args) == 1 else Prod(tuple(args))
    if isinstance(e, Power):
        base, exp = normalize(e.base), normalize(e.exp)
        if isinstance(base, Power):  # (κ^μ)^ν = κ^(μ·ν), κ not a power
            base, exp = base.base, normalize(Prod((base.exp, exp)))
        if isinstance(exp, Finite):
            if exp.n == 0:
                return Finite(1)
            if exp.n == 1:
                return base
            if isinstance(base, Finite):
                return _finite(base.n, exp.n)
            if is_infinite(base):
                return base  # κ^n = κ for infinite κ, finite n ≥ 1
        if isinstance(base, Finite) and base.n <= 1:
            return base  # 0^κ = 0, 1^κ = 1 (κ ≥ 1 here)
        if is_infinite(exp) and _ge_two(base):
            # squeeze 2 ≤ κ ≤ 2^μ ⟹ κ^μ = 2^μ
            two_mu = Power(Finite(2), exp)
            if base == Finite(2):
                return Power(base, exp)
            if prove_le(base, two_mu):
                return two_mu
        return Power(base, exp)
    raise CardinalError(f"not a cardinal expression: {e!r}")


# ---------------------------------------------------------------------------
# parsing and printing


_GREEK = {"lambda": "λ", "kappa": "κ", "mu": "μ", "nu": "ν"}


def parse_cardinal(text: str):
    tokens = Cursor(text, "+*^()", _cardinal_error)
    peek, take = tokens.peek, tokens.take

    def parse_sum():
        out = [parse_prod()]
        while peek()[0] == "+":
            take()
            out.append(parse_prod())
        return out[0] if len(out) == 1 else Sum(tuple(out))

    def parse_prod():
        out = [parse_pow()]
        while peek()[0] == "*":
            take()
            out.append(parse_pow())
        return out[0] if len(out) == 1 else Prod(tuple(out))

    def parse_pow():
        base = parse_atom()
        if peek()[0] == "^":
            take()
            return Power(base, parse_pow())
        return base

    def parse_index():
        tok = take()
        if tok[0] == "int":
            return tok[1]
        if tok[0] == "ident" and tok[1] in ("w", "omega", "ω"):
            return OMEGA
        raise CardinalError(f"bad ordinal index {_shown(tok)}")

    def parse_atom():
        tok = peek()
        if tok[0] == "int":
            take()
            return Finite(tok[1])
        if tok[0] == "(":
            take()
            inner = parse_sum()
            take(")")
            return inner
        if tok[0] == "ident":
            take()
            name = tok[1]
            for fam, cls in (("aleph", Aleph), ("beth", Beth)):
                if name == fam:
                    take("(")
                    idx = parse_index()
                    take(")")
                    return cls(idx)
                if name.startswith(fam):
                    suffix = name[len(fam):]
                    index = _integer(suffix, _cardinal_error, *tok[2:])
                    if index is not None:
                        return cls(index)
                    if suffix in ("w", "omega", "ω"):
                        return cls(OMEGA)
            return Var(_GREEK.get(name, name))
        tokens.unexpected()

    out = parse_sum()
    if peek()[0] != "eof":
        raise CardinalError(f"unexpected trailing token {peek()[1]!r}")
    return out


def _cardinal_error(message: str, line: int, col: int) -> CardinalError:
    return CardinalError(f"{message} in cardinal expression")


def card_str(e, prec: int = 0) -> str:
    """Canonical rendering; reparses to the same expression."""
    if isinstance(e, Finite):
        return str(e.n)
    if isinstance(e, Aleph):
        return "aleph" + ("w" if e.i == OMEGA else str(e.i))
    if isinstance(e, Beth):
        return "beth(" + ("w" if e.i == OMEGA else str(e.i)) + ")"
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Sum):
        s = " + ".join(card_str(a, 1) for a in e.args)
        return f"({s})" if prec > 0 else s
    if isinstance(e, Prod):
        s = "*".join(card_str(a, 2) for a in e.args)
        return f"({s})" if prec > 1 else s
    if isinstance(e, Power):
        s = f"{card_str(e.base, 3)}^{card_str(e.exp, 3)}"
        return f"({s})" if prec > 2 else s
    raise CardinalError(f"not a cardinal expression: {e!r}")
