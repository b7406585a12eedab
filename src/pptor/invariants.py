"""Ulm-style invariants of finite abelian groups and the symbolic
limit-model decompositions.

α_{p,n} = dim_{F_p}((p^{n−1}G)[p] / (p^nG)[p]) is read off the moduli: for
G = ⊕ ℤ/m_j it is the number of j with v_p(m_j) = n.  γ_p (divisible part)
is zero for finite groups.
The limit-model templates are texts: ⊕-sums of the atoms Z(p^n) and
Z(p^inf) with cardinal powers ·^(card) under the wrappers t(·), PE(·),
Prod_p(·), Sum_p(·) and Sum_n(·) of the §-5-style decompositions, written
canonically so golden tests are byte-exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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
# limit-model templates


@dataclass(frozen=True)
class LimitModelTemplate:
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
    from . import cardinals as C

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
    power = f"^({C.card_str(lam)})"
    if variant == "Tor":
        core = f"t(Prod_p(PE(Sum_n(Z(p^n){power}))))"
        tail = f"Sum_p(Z(p^inf){power})"
    else:
        p = variant
        if not isinstance(p, int) or p < 2 or factorize(p) != {p: 1}:
            raise GroupError(f"variant must be 'Tor' or a prime, got {variant!r}")
        core = f"t(PE(Sum_n(Z({p}^n){power})))"
        tail = f"Z({p}^inf){power}"
    if cof_class == "w":
        core += f"^({C.card_str(C.ALEPH0)})"
    return LimitModelTemplate(f"{core} ⊕ {tail}", warning)
