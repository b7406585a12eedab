"""Low-pp descending chains: evaluation, stabilization detection, and the
strict-descent witness chain on truncations of B = ⊕_n ℤ(pⁿ)^k.

The witness chain is φ_n(x) := (p·x = 0 ∧ ∃y. x = pⁿ·y); φ₀ is low and on
the truncation B = ⊕_{m≤M0}(ℤ/p^m)^k the chain descends strictly with
index p^k per step until it hits 0 at n = M0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .formulas import Equation, PpFormula, is_low
from .groups import MAX_RANK, FgGroup, Subgroup, direct_sum
from .ppsolve import evaluate


@dataclass
class FormulaChain:
    """Closed-form chain n ↦ φ_n(x); low_head records is_low(template(0))."""

    template: Callable[[int], PpFormula]
    low_head: bool = field(init=False)

    def __post_init__(self):
        f0 = self.template(0)
        if len(f0.free_vars) != 1:
            raise ValueError("chain formulas must have one free variable")
        self.low_head = is_low(f0)

    def __call__(self, n: int) -> PpFormula:
        return self.template(n)


def evaluate_chain(c: FormulaChain, M: FgGroup, n_max: int) -> list[Subgroup]:
    """The levels φ_0[M], …, φ_{n_max}[M]."""
    return [evaluate(c(n), M) for n in range(n_max + 1)]


def stabilization_index(c: FormulaChain, M: FgGroup, n_max: int):
    """Least n₀ with φ_{n₀}[M] = … = φ_{n_max}[M], or None."""
    levels = evaluate_chain(c, M, n_max)
    if n_max >= 1 and levels[n_max - 1] != levels[n_max]:
        return None  # still moving at the end of the range
    n0 = n_max
    while n0 > 0 and levels[n0 - 1] == levels[n_max]:
        n0 -= 1
    return n0


def witness_formula(p: int, n: int) -> PpFormula:
    """φ_n(x) = (p·x = 0 ∧ ∃y. x = pⁿ·y)."""
    eq1 = Equation(((p, "x"),), ((0, "x"),))
    eq2 = Equation(((1, "x"),), ((p ** n, "y"),))
    return PpFormula(("x",), ("y",), (eq1, eq2))


def witness_chain(p: int, M0: int, k: int) -> tuple[FormulaChain, FgGroup]:
    """The Theorem-ss witness chain and its truncated group
    B = ⊕_{m≤M0} (ℤ/p^m)^k."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if M0 < 1 or k < 1:
        raise ValueError("M0 and k must be at least 1")
    if M0 * k > MAX_RANK:
        raise ValueError(
            f"rank M0·k = {M0 * k} of B exceeds the limit {MAX_RANK}")
    B = direct_sum(*[FgGroup((p ** m,) * k) for m in range(1, M0 + 1)])
    return FormulaChain(lambda n: witness_formula(p, n)), B
