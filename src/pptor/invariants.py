"""Ulm-style invariants of finite abelian groups and the symbolic
limit-model decompositions.

α_{p,n} = dim_{F_p}((p^{n−1}G)[p] / (p^nG)[p]) is read off the moduli: for
G = ⊕ ℤ/m_j it is the number of j with v_p(m_j) = n.  γ_p (divisible part)
is zero for finite groups.
Symbolic groups are formal ⊕-sums of atoms Z(p^n), Z(p^inf), p-adic and
rational summands with cardinal multiplicities, plus the wrappers t(·),
PE(·), Prod_p(·), Sum_p(·), Sum_n(·) and ·^(card) used by the §-5-style
decompositions; rendering is canonical so golden tests are byte-exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from . import cardinals as C
from .groups import FgGroup, GroupError, direct_sum, factorize


@dataclass(frozen=True)
class UlmInvariants:
    alpha: tuple  # sorted ((p, n), multiplicity) pairs
    gamma: tuple  # sorted (p, multiplicity) pairs

    @classmethod
    def from_dicts(cls, alpha: dict, gamma: dict) -> "UlmInvariants":
        return cls(
            tuple(sorted((k, v) for k, v in alpha.items() if v)),
            tuple(sorted((k, v) for k, v in gamma.items() if v)),
        )

    def alpha_dict(self) -> dict:
        return dict(self.alpha)

    def __add__(self, other: "UlmInvariants") -> "UlmInvariants":
        """The invariants of the direct sum: multiplicities add."""
        return UlmInvariants.from_dicts(
            Counter(dict(self.alpha)) + Counter(dict(other.alpha)),
            Counter(dict(self.gamma)) + Counter(dict(other.gamma)))


def ulm_invariants(G: FgGroup) -> UlmInvariants:
    """α_{p,n} = #{j : v_p(m_j) = n} for G = ⊕ ℤ/m_j; γ = 0.

    ℤ/m_j is the sum of its primary parts ℤ/p^{v_p(m_j)}, and ℤ/p^e adds 1
    to α_{p,e} alone, so α_{p,n} = dim_{F_p}((p^{n−1}G)[p]/(p^nG)[p]) is a
    count over the moduli, each factored once per distinct value.
    """
    if not G.is_finite:
        raise GroupError("Ulm invariants are computed for finite groups")
    alpha: dict = {}
    for m, count in Counter(G.moduli).items():
        for p, e in factorize(m).items():
            alpha[(p, e)] = alpha.get((p, e), 0) + count
    return UlmInvariants.from_dicts(alpha, {})


def reconstruct(inv: UlmInvariants) -> FgGroup:
    """⊕_{p,n} (ℤ/pⁿ)^{α_{p,n}}; inverse of ulm_invariants up to ≅."""
    if inv.gamma:
        raise GroupError("cannot reconstruct with nonzero divisible part")
    parts = []
    for (p, n), mult in inv.alpha:
        if not isinstance(mult, int):
            raise GroupError("cannot reconstruct with infinite multiplicities")
        parts.extend([FgGroup((p ** n,))] * mult)
    return direct_sum(*parts) if parts else FgGroup(())


# ---------------------------------------------------------------------------
# symbolic groups


@dataclass(frozen=True)
class Cyclic:
    p: object  # prime or the symbol "p"
    n: object  # positive integer or the symbol "n"

    def render(self) -> str:
        return f"Z({self.p}^{self.n})"


@dataclass(frozen=True)
class Prufer:
    p: object

    def render(self) -> str:
        return f"Z({self.p}^inf)"


@dataclass(frozen=True)
class DirectPower:
    body: object
    card: object  # cardinals.CardinalExpr

    def render(self) -> str:
        return f"{self.body.render()}^({C.card_str(self.card)})"


@dataclass(frozen=True)
class TorsionOf:
    body: object

    def render(self) -> str:
        return f"t({self.body.render()})"


@dataclass(frozen=True)
class PEOf:
    body: object

    def render(self) -> str:
        return f"PE({self.body.render()})"


@dataclass(frozen=True)
class ProductOverPrimes:
    body: object  # body uses the symbol "p"

    def render(self) -> str:
        return f"Prod_p({self.body.render()})"


@dataclass(frozen=True)
class SumOverPrimes:
    body: object

    def render(self) -> str:
        return f"Sum_p({self.body.render()})"


@dataclass(frozen=True)
class SumOverN:
    body: object  # body uses the symbol "n"

    def render(self) -> str:
        return f"Sum_n({self.body.render()})"


@dataclass(frozen=True)
class SymbolicGroup:
    """Formal direct sum; summands render left to right joined by ⊕."""

    summands: tuple

    def render(self) -> str:
        if not self.summands:
            return "0"
        return " ⊕ ".join(s.render() for s in self.summands)

    def __str__(self):
        return self.render()


# ---------------------------------------------------------------------------
# limit-model templates


@dataclass(frozen=True)
class LimitModelTemplate:
    group: SymbolicGroup
    text: str
    warning: str | None = None


def limit_model_template(lam, cof_class: str, variant="Tor") -> LimitModelTemplate:
    """The §5 decompositions, symbolically.

    cof_class: "w1" (cofinality ≥ ω₁) or "w" (cofinality = ω); variant:
    "Tor" or a prime p for the p-group class.  Requires the stability
    predicate λ^ℵ₀ = λ to not be provably false; Unknown attaches a warning.
    The two cofinality classes differ exactly by a ^(aleph0) power on the
    torsion-of-pure-injective summand.
    """
    if cof_class not in ("w", "w1"):
        raise GroupError("cof_class must be 'w' or 'w1'")
    lam = C.normalize(lam)
    verdict, reason = C.stability_predicate(lam)
    if verdict == C.FALSE:
        raise GroupError(
            f"limit models exist only at stable cardinals; "
            f"λ^ℵ₀ = λ fails for {C.card_str(lam)} ({reason})"
        )
    warning = None
    if verdict == C.UNKNOWN:
        warning = (
            f"stability of {C.card_str(lam)} is not decided by the rule "
            f"system ({reason}); the template is conditional on λ^ℵ₀ = λ"
        )
    if variant == "Tor":
        core = TorsionOf(
            ProductOverPrimes(PEOf(SumOverN(DirectPower(Cyclic("p", "n"), lam))))
        )
        tail = SumOverPrimes(DirectPower(Prufer("p"), lam))
    else:
        p = variant
        if not isinstance(p, int) or p < 2:
            raise GroupError(f"variant must be 'Tor' or a prime, got {variant!r}")
        core = TorsionOf(PEOf(SumOverN(DirectPower(Cyclic(p, "n"), lam))))
        tail = DirectPower(Prufer(p), lam)
    if cof_class == "w":
        core = DirectPower(core, C.ALEPH0)
    grp = SymbolicGroup((core, tail))
    return LimitModelTemplate(grp, grp.render(), warning)
