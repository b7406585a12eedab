"""Low-pp descending chains: stabilization detection, and the strict-descent
witness chain on truncations of B = ⊕_n ℤ(pⁿ)^k.

A chain is its list of formulas φ_0, φ_1, …; its levels φ_n[M] are
evaluated once by the caller.  The witness chain is
φ_n(x) := (p·x = 0 ∧ ∃y. x = pⁿ·y); φ₀ is low and on the truncation
B = ⊕_{m≤M0}(ℤ/p^m)^k the chain descends strictly with index p^k per step
until it hits 0 at n = M0.
"""

from __future__ import annotations

from .formulas import Equation, PpFormula
from .groups import MAX_RANK, FgGroup, direct_sum


def stabilization_index(levels):
    """Least n₀ with levels[n₀] = … = levels[-1], or None when the last two
    levels differ (the chain is still moving at the end of the range)."""
    if len(levels) >= 2 and levels[-2] != levels[-1]:
        return None
    n0 = len(levels) - 1
    while n0 > 0 and levels[n0 - 1] == levels[-1]:
        n0 -= 1
    return n0


def witness_formula(p: int, n: int) -> PpFormula:
    """φ_n(x) = (p·x = 0 ∧ ∃y. x = pⁿ·y)."""
    eq1 = Equation(((p, "x"),), ((0, "x"),))
    eq2 = Equation(((1, "x"),), ((p ** n, "y"),))
    return PpFormula(("x",), ("y",), (eq1, eq2))


def witness_chain(p: int, M0: int, k: int) -> tuple[list[PpFormula], FgGroup]:
    """The Theorem-ss witness chain [φ_0, …, φ_{M0+1}], one step past its
    last strict descent, and its truncated group B = ⊕_{m≤M0} (ℤ/p^m)^k."""
    if p < 2:
        raise ValueError(f"p must be at least 2, got {p}")
    if M0 < 1 or k < 1:
        raise ValueError("M0 and k must be at least 1")
    if M0 * k > MAX_RANK:
        raise ValueError(
            f"rank M0·k = {M0 * k} of B exceeds the limit {MAX_RANK}")
    B = direct_sum(*[FgGroup((p ** m,) * k) for m in range(1, M0 + 1)])
    return [witness_formula(p, n) for n in range(M0 + 2)], B
