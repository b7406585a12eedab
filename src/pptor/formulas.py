"""Positive-primitive formulas over the integers: a small quantified
linear-equation DSL with parser, printer, matrix normal form, the lowness
test, and the sum / scalar-multiple closure constructions.

Grammar::

    formula := ["E" var+ "."] conj
    conj    := atom ("&" atom)*
    atom    := lincomb "=" lincomb | "(" conj ")"
    lincomb := term (("+"|"-") term)*
    term    := [int "*"] var | int

Free variables are exactly the identifiers not bound by "E".
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lexer import Cursor, _shown
from .intlinalg import congruence_lattice, solve_diophantine

# a linear combination is a tuple of (coefficient, variable-or-None) terms;
# variable None marks an integer constant
Term = tuple[int, str | None]
LinComb = tuple[Term, ...]


class FormulaError(ValueError):
    pass


class ParseError(FormulaError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class Equation:
    lhs: LinComb
    rhs: LinComb

    def constant(self) -> int:
        c = sum(k for k, v in self.lhs if v is None)
        c -= sum(k for k, v in self.rhs if v is None)
        return c

    def variables(self) -> set[str]:
        return {v for k, v in self.lhs + self.rhs if v is not None}


@dataclass(frozen=True)
class PpFormula:
    free_vars: tuple[str, ...]
    bound_vars: tuple[str, ...]
    equations: tuple[Equation, ...]

    def __post_init__(self):
        seen = set(self.free_vars) & set(self.bound_vars)
        if seen:
            raise FormulaError(f"variables both free and bound: {sorted(seen)}")
        if len(set(self.bound_vars)) != len(self.bound_vars):
            raise FormulaError("duplicate bound variable")
        declared = set(self.free_vars) | set(self.bound_vars)
        for eq in self.equations:
            undeclared = eq.variables() - declared
            if undeclared:
                raise FormulaError(f"undeclared variables: {sorted(undeclared)}")
            if eq.constant() != 0:
                raise FormulaError("equation is not homogeneous")

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class MatrixForm:
    """C·x̄ + D·ȳ = 0 presentation; rows are equations, columns variables."""

    C: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# parsing


class _Parser(Cursor):
    def __init__(self, text: str):
        super().__init__(text, "*+-=&().", ParseError)

    def _at_quantifier(self) -> bool:
        tok = self.peek()
        return (tok[0] == "ident" and tok[1] == "E"
                and self.peek(1)[0] == "ident")

    def parse_formula(self):
        # bound is a list of (var, index of first equation in its scope);
        # a quantifier may also open mid-conjunction (it then binds the rest
        # of the conjunction, which prenexes soundly — capture is rejected)
        bound, eqs = self.parse_conj()
        if self.peek()[0] != "eof":
            self.unexpected()
        for var, start in bound:
            for eq in eqs[:start]:
                if var in eq.variables():
                    self.fail(f"variable {var!r} is bound after occurring free")
        return [v for v, _ in bound], eqs

    def parse_conj(self):
        bound, eqs = self.parse_atom()
        while self.peek()[0] == "&":
            self.take()
            b2, e2 = self.parse_atom()
            bound += [(v, i + len(eqs)) for v, i in b2]
            eqs += e2
        return bound, eqs

    def parse_atom(self):
        if self._at_quantifier():
            self.take()
            names = []
            while self.peek()[0] == "ident":
                names.append(self.take()[1])
            self.take(".")
            bound, eqs = self.parse_conj()
            return [(v, 0) for v in names] + bound, eqs
        if self.peek()[0] == "(":
            self.take()
            bound, eqs = self.parse_conj()
            self.take(")")
            return bound, eqs
        lhs = self.parse_lincomb()
        self.take("=")
        rhs = self.parse_lincomb()
        return [], [Equation(lhs, rhs)]

    def parse_lincomb(self):
        terms = [self.parse_term(1)]
        while self.peek()[0] in ("+", "-"):
            sign = 1 if self.take()[0] == "+" else -1
            terms.append(self.parse_term(sign))
        return tuple(terms)

    def parse_term(self, sign):
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        tok = self.peek()
        if tok[0] == "int":
            self.take()
            coeff = -tok[1] if neg else tok[1]
            if self.peek()[0] == "*":
                self.take()
                var = self.take("ident")[1]
                return (sign * coeff, var)
            return (sign * coeff, None)
        if tok[0] == "ident":
            self.take()
            coeff = -1 if neg else 1
            return (sign * coeff, tok[1])
        self.fail(f"expected a term, got {_shown(tok)}")


def parse(text: str) -> PpFormula:
    """Parse formula text; free variables in order of first appearance."""
    bound, eqs = _Parser(text).parse_formula()
    bound_set = set(bound)
    free = []
    for eq in eqs:
        for k, v in eq.lhs + eq.rhs:
            if v is not None and v not in bound_set and v not in free:
                free.append(v)
    return PpFormula(tuple(free), tuple(bound), tuple(eqs))


# ---------------------------------------------------------------------------
# printing


def _render_lincomb(terms: LinComb, where: tuple[int, int], keep: set) -> str:
    # zero terms render as if absent, except those whose position
    # (equation, side, term) is in keep
    kept = [(c, v) for j, (c, v) in enumerate(terms)
            if c != 0 or (*where, j) in keep]
    if not kept:
        return "0"
    parts = []
    for idx, (c, v) in enumerate(kept):
        if v is None:
            body = str(abs(c))
        elif abs(c) == 1:
            body = v
        else:
            body = f"{abs(c)}*{v}"
        if idx == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def _kept_zero_terms(f: PpFormula) -> set[tuple[int, int, int]]:
    """Positions (equation, side, term) of the zero terms print_formula keeps.

    It keeps the first occurrence of a variable that appears nowhere with a
    nonzero coefficient, so the printed formula declares the same variables.
    parse orders the free variables by first appearance, so it also keeps
    the first occurrence of a free variable whose first nonzero term comes
    after the printed first appearance of the next free variable.
    """
    first, first_nonzero = {}, {}
    for i, eq in enumerate(f.equations):
        for s, side in enumerate((eq.lhs, eq.rhs)):
            for j, (c, v) in enumerate(side):
                if v is not None:
                    first.setdefault(v, (i, s, j))
                    if c != 0:
                        first_nonzero.setdefault(v, (i, s, j))
    keep = {pos for v, pos in first.items() if v not in first_nonzero}
    shown = None  # printed first appearance of the next free variable
    for v in reversed(f.free_vars):
        if v not in first:
            continue
        pos = first_nonzero.get(v, first[v])
        if shown is not None and pos > shown:
            pos = first[v]
            keep.add(pos)
        shown = pos
    return keep


def print_formula(f: PpFormula) -> str:
    keep = _kept_zero_terms(f)
    body = " & ".join(
        f"{_render_lincomb(eq.lhs, (i, 0), keep)} = "
        f"{_render_lincomb(eq.rhs, (i, 1), keep)}"
        for i, eq in enumerate(f.equations)
    )
    if len(f.equations) > 1 and f.bound_vars:
        body = f"({body})"
    if f.bound_vars:
        return f"E {' '.join(f.bound_vars)} . {body}"
    return body


# ---------------------------------------------------------------------------
# matrix normal form and lowness


def normalize(f: PpFormula) -> MatrixForm:
    """The matrix form C·x̄ + D·ȳ = 0 of f, in one pass over each equation.

    Every lhs term is added and every rhs term subtracted into one net
    coefficient per variable (the constant collects under None); C reads
    the free variables off it and D the bound ones, 0 where absent.
    """
    C, D = [], []
    for eq in f.equations:
        net = {}
        for k, v in eq.lhs:
            net[v] = net.get(v, 0) + k
        for k, v in eq.rhs:
            net[v] = net.get(v, 0) - k
        C.append(tuple([net.get(v, 0) for v in f.free_vars]))
        D.append(tuple([net.get(v, 0) for v in f.bound_vars]))
    return MatrixForm(tuple(C), tuple(D))


def solution_group_over_z(f: PpFormula) -> int:
    """d ≥ 0 with ψ[ℤ] = dℤ, for a one-free-variable formula.

    The solutions (a, ȳ) of C·a + D·ȳ = 0 form a lattice; its projection
    onto the free coordinate is the subgroup dℤ of ℤ.
    """
    if len(f.free_vars) != 1:
        raise FormulaError("lowness is defined for exactly one free variable")
    mf = normalize(f)
    A = [c + d for c, d in zip(mf.C, mf.D)]
    lattice = congruence_lattice(A, [0] * len(A), 1)
    return lattice[0][0] if lattice else 0


def is_low(f: PpFormula) -> bool:
    """True iff ψ[ℤ] = {0}."""
    return solution_group_over_z(f) == 0


def witness_over_z(f: PpFormula, a: int) -> list[int] | None:
    """Bound-variable witness ȳ with C·a + D·ȳ = 0 over ℤ, or None.

    Independent of the kernel-projection route: solves the inhomogeneous
    system directly, so the result is a checkable certificate.
    """
    if len(f.free_vars) != 1:
        raise FormulaError("witness search needs exactly one free variable")
    mf = normalize(f)
    D = [list(row) for row in mf.D]
    b = [-row[0] * a for row in mf.C]
    return solve_diophantine(D, b)


# ---------------------------------------------------------------------------
# closure operations on low formulas


def _fresh_names(count: int, used: set[str]) -> list[str]:
    names = []
    i = 0
    for cand in ("y", "z", "w", "u", "v", "s", "t"):
        if len(names) == count:
            break
        if cand not in used:
            names.append(cand)
            used.add(cand)
    while len(names) < count:
        i += 1
        cand = f"y{i}"
        if cand not in used:
            names.append(cand)
            used.add(cand)
    return names


def _substitute(eq: Equation, mapping: dict[str, str]) -> Equation:
    sub = lambda terms: tuple((k, mapping.get(v, v) if v else None) for k, v in terms)
    return Equation(sub(eq.lhs), sub(eq.rhs))


def _renamed_equations(f: PpFormula, free_to: str, used: set[str]):
    """Equations of f with its free variable sent to free_to and bound
    variables renamed fresh; returns (new bound names, equations)."""
    new_bound = _fresh_names(len(f.bound_vars), used)
    mapping = dict(zip(f.bound_vars, new_bound))
    mapping[f.free_vars[0]] = free_to
    return new_bound, [_substitute(eq, mapping) for eq in f.equations]


def _check_one_free(f: PpFormula):
    if len(f.free_vars) != 1:
        raise FormulaError("construction requires exactly one free variable")


def sum_formulas(f1: PpFormula, f2: PpFormula) -> PpFormula:
    """∃y∃z(ψ₁(y) ∧ ψ₂(z) ∧ x = y + z)."""
    _check_one_free(f1)
    _check_one_free(f2)
    x = f1.free_vars[0]
    used = {x}
    y, z = _fresh_names(2, used)
    b1, eqs1 = _renamed_equations(f1, y, used)
    b2, eqs2 = _renamed_equations(f2, z, used)
    link = Equation(((1, x),), ((1, y), (1, z)))
    return PpFormula(
        (x,), (y, z, *b1, *b2), (*eqs1, *eqs2, link)
    )


def scalar_formula(r: int, f: PpFormula) -> PpFormula:
    """∃y(ψ(y) ∧ x = r·y)."""
    _check_one_free(f)
    x = f.free_vars[0]
    used = {x}
    (y,) = _fresh_names(1, used)
    b, eqs = _renamed_equations(f, y, used)
    link = Equation(((1, x),), ((r, y),))
    return PpFormula((x,), (y, *b), (*eqs, link))
