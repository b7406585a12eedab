"""Purity, torsion radical, primary components, complements, and the
bounded-order membership criterion for t(PE(B)).

H ≤ M is pure when n·M ∩ H = n·H for every n ≥ 1.  That holds for n iff it
holds for each prime power p^k exactly dividing n (Fuchs, Abelian Groups,
2015, ch. 5), so the least failing n is a prime power and only the prime
powers p^k > 1 dividing e need testing, in ascending order.  For finite M,
e = exp(M), which exp(M/H) divides; with a free part, e is the lcm of the
torsion exponents of M and M/H (beyond those, both sides stop changing on
torsion and agree on free parts).  e itself is never formed: its prime
powers come from factoring each distinct nonzero modulus of M, then those
of M/H, so a group whose moduli each factor is decided even when e does
not.

For finite M the top power n = p^K, K = v_p(e), cannot fail either: n kills
the p-part of M and is a unit on the rest, so n·M = M_{p′} and
n·M ∩ H = H_{p′} = n·H.  A finite M therefore tests only p^k with
1 ≤ k < K, and a prime with K = 1 none (ℤ/6 tests nothing).  With a free
part the top power is tested too, since n is no unit on a ℤ coordinate:
ℤ ⊇ 2ℤ fails first at n = 2 = e.

The test at n is one of indices, in any M = ℤ^f ⊕ ⊕ ℤ/m_j: n·H ⊆ n·M ∩ H
always, so the two are equal iff [H : n·H] = [H : n·M ∩ H].  Let L be H's
lattice, g_j = gcd(n, m_j) and h_j = m_j/g_j, so g_j = n and h_j = 0 on a ℤ
coordinate; then L + diag(g) is the lattice of H + n·M and L + diag(h)
that of H + M[n].  [H : n·M ∩ H] = [H + n·M : n·M] and
[H : n·H] = n^r·|H[n]| for the free rank r of H, with
|H[n]| = |M[n]|·[H + M[n] : H]⁻¹.  Written in pivot products pp of HNFs
(one hermite_row_basis each), the test reads
pp(L)·n^f = n^r·pp(L + diag(g))·pp(L + diag(h)), which for finite M is
|n·M ∩ H| = |n·H|.  The subgroups n·M ∩ H and n·H themselves are built
only for a witness, at the failing n.

Complements are decided by splitting instead: a finitely generated H ≤ M is
a direct summand iff the quotient map M → M/H has a section, and for finite
M that holds iff H is pure.  So the order criterion and the congruence solve
behind the section are two independent decisions of the same property.  The
section lifts each generator q_i of M/H = ⊕ ℤ/s_i, read off one Smith form of
H's lattice, to an x_i of order dividing s_i, and the complement is
K = ⟨x_i⟩, its image.  It is checked by orders and by the membership in H of
each e_j − Σ_i V[j][i]·x_i, with no second HNF.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groups import FgGroup, GroupError, Subgroup, factorize, quotient
from .intlinalg import (
    hermite_row_basis,
    in_lattice,
    lattice_coords,
    mat_mul,
    pivot_product,
    smith_normal_form,
    solve_congruence_columns,
)

# purity.kernel_basis stays importable: perfbench's tracer test checks that a
# wrapper installed on it here is removed again.
from .intlinalg import kernel_basis  # noqa: F401


def _prime_powers(moduli, with_top: bool) -> list[int]:
    """The prime powers p^k > 1 dividing e, the lcm of the nonzero moduli,
    ascending; each prime's top power p^{v_p(e)} only when `with_top`.  Each
    distinct modulus is factored once, after the primes of the moduli
    before it are divided out: an invariant factor p·q of M/H then factors
    when p and q are moduli of M."""
    top: dict[int, int] = {}
    for m in dict.fromkeys(moduli):
        if m < 2:
            continue
        for p in top:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            top[p] = max(top[p], k)
        if m > 1:
            top.update(factorize(m))
    return sorted(p ** k for p, v in top.items()
                  for k in range(1, v + 1 if with_top else v))


def _pure_at(n: int, H: Subgroup, M: FgGroup) -> bool:
    """n·M ∩ H = n·H, by indices (see the module docstring):
    pp(L)·n^f = n^r·pp(L + diag(g))·pp(L + diag(h)) for H's lattice L, with
    g_j = gcd(n, m_j) and h_j = m_j/g_j (so g_j = n and h_j = 0 on a ℤ
    coordinate), f the number of ℤ coordinates of M and r the free rank of
    H; pp is the pivot product of an HNF, hermite_row_basis(L, ·).
    """
    g = [gcd(n, m) for m in M.moduli]
    h = [m // d for m, d in zip(M.moduli, g)]
    f = M.moduli.count(0)
    r = len(H.basis) - (M.rank - f)
    return pivot_product(H.basis) * n ** f == n ** r * (
        pivot_product(hermite_row_basis(H.basis, g))
        * pivot_product(hermite_row_basis(H.basis, h)))


def _meet_and_multiple(n: int, H: Subgroup, M: FgGroup):
    """(n·M ∩ H, n·H); n·M is ⟨n·e_j⟩."""
    nM = M.diagonal_subgroup([n] * M.rank)
    return nM.intersection(H), Subgroup(M, [[n * v for v in row]
                                            for row in H.basis])


def _first_failure(H: Subgroup, M: FgGroup):
    """The least n with n·M ∩ H ≠ n·H, or None.  For finite M the prime
    powers tried are p^k with 1 ≤ k < v_p(exp M): at the top power the test
    cannot fail (see the module docstring).  With a free part they are every
    p^k dividing the lcm of the torsion exponents of M and M/H, the top
    power included: ℤ ⊇ 2ℤ fails first at 2."""
    if H.ambient != M:
        raise GroupError("subgroup of a different group")
    moduli = M.moduli
    free = 0 in moduli
    if free:
        moduli += quotient(M, H).moduli
    for n in _prime_powers(moduli, with_top=free):
        if not _pure_at(n, H, M):
            return n
    return None


def is_pure(H: Subgroup, M: FgGroup) -> bool:
    """n·M ∩ H = n·H for every n (pure ⟺ pp-preserving)."""
    return _first_failure(H, M) is None


def purity_witness(H: Subgroup, M: FgGroup):
    """(n, element) with element ∈ n·M ∩ H but ∉ n·H for the least such n,
    which is a prime power; None if H is pure.

    The element is the last generator of n·M ∩ H, in its abstract Smith
    form, that lies outside n·H: the first such element in the coordinate
    order of that form, found without enumerating.  One exists because the
    generators span n·M ∩ H, which contains n·H and differs from it.
    """
    n = _first_failure(H, M)
    if n is None:
        return None
    meet, nH = _meet_and_multiple(n, H, M)
    gens = map(M.element, meet.as_group_with_embedding()[1])
    return n, [a for a in gens if not nH.contains(a)][-1]


def _section(H: Subgroup, M: FgGroup):
    """(x, V) for a section of M → M/H, M finite, or None when none exists,
    i.e. when H is not a direct summand.

    With U·L·V = S the Smith form of H's lattice L (square, since L contains
    diag(m)), M/H = ⊕ ℤ/s_i over the s_i ≠ 1, generated by the rows q_i of
    V⁻¹.  A lift q_i + c·L of q_i has order dividing s_i in M iff
    s_i·q_i + s_i·c·L lies in the relation lattice, spanned by the rows
    m_j·e_j.  In the coordinates of L, with a_i those of s_i·q_i and R
    those of the m_j·e_j (Subgroup._relation_coords, so R·L = diag(m)),
    that is a_i + s_i·c = y·R for some y, i.e. y·R ≡ a_i (mod s_i), and
    then c = (y·R − a_i)/s_i.  The lift is
    x_i = q_i + c·L = q_i + (y·diag(m) − s_i·q_i)/s_i, whose coordinates
    are y_j·m_j/s_i.  One solve of Rᵀ·y ≡ a_i serves every i
    (intlinalg.solve_congruence_columns); when it has none, no lift of
    some q_i has order s_i, so M/H does not embed back in M.  x holds the
    lifts x_i and V its columns i, in the same order, so that
    e_j ≡ Σ_i V[j][i]·x_i modulo H.
    """
    L = H.basis
    _, S, V, Vi = smith_normal_form(L, ("V", "Vinv"))
    keep = [i for i in range(len(L)) if S[i][i] != 1]
    moduli = [S[i][i] for i in keep]
    rhs = []
    for i, s in zip(keep, moduli):
        a = lattice_coords(L, [s * v for v in Vi[i]])
        if a is None:
            raise GroupError(f"s_{i}·q_{i} outside H: not a Smith form of H")
        rhs.append(a)
    R = H._relation_coords()
    ys = solve_congruence_columns([list(c) for c in zip(*R)], rhs, moduli)
    if ys is None:
        return None
    x = [[c * m // s for c, m in zip(y, M.moduli)] for s, y in zip(moduli, ys)]
    return x, [[row[i] for i in keep] for row in V]


def torsion_radical(M: FgGroup) -> Subgroup:
    """t(M): the elements of finite order (= union of ψ[M], ψ low), spanned
    by the unit vectors of the coordinates ℤ/m."""
    return M.diagonal_subgroup([1 if m else 0 for m in M.moduli])


def primary_component(M: FgGroup, p: int) -> Subgroup:
    """The p-primary part of a torsion group M."""
    if p < 2 or factorize(p) != {p: 1}:
        raise GroupError(f"{p} is not prime")
    if any(m == 0 for m in M.moduli):
        raise GroupError("primary components require a torsion group")
    # ⟨q_j·e_j⟩, q_j = m_j with its p-part divided out
    parts = []
    for m in M.moduli:
        while m % p == 0:
            m //= p
        parts.append(m)
    return M.diagonal_subgroup(parts)


def complement(H: Subgroup, M: FgGroup):
    """K with H ⊕ K = M, or None when H is not a direct summand.

    Existence is decided by splitting alone: a section of M → M/H is sought
    by one congruence solve (_section), and None means none exists.  For
    finite M that happens exactly when H is not pure (Lemma mod (1)⇔(5) at
    finite scale), which is_pure decides independently by orders.  K is the
    image of the section, spanned by the lifts x_i.  The result is checked
    as H + K = M and |H|·|K| = |M|, which for finite M says H ∩ K = 0.  The
    first half is checked by membership, with no second HNF: V·V⁻¹ = I gives
    e_j = Σ_i V[j][i]·q_i over every i, and the q_i with s_i = 1 lie in H,
    so h_j = e_j − Σ_i V[j][i]·x_i lies in H when each x_i lifts q_i, and
    then e_j lies in H + K.
    """
    if H.ambient != M:
        raise GroupError("subgroup of a different group")
    if not M.is_finite:
        raise GroupError("complement search requires a finite group")
    section = _section(H, M)
    if section is None:
        return None
    x, V = section
    K = Subgroup(M, x)
    h = [[(1 if j == k else 0) - v for k, v in enumerate(row)]
         for j, row in enumerate(mat_mul(V, x, M.rank))]
    if (not all(in_lattice(H.basis, v) for v in h)
            or H.order() * K.order() != M.order()):
        raise GroupError("the image of the section is not a direct complement")
    return K


# ---------------------------------------------------------------------------
# Order patterns: membership in t(PE(B)) inside Π_n B_n


@dataclass(frozen=True)
class OrderPattern:
    """Order sequence of an element of Π_n B_n with B_n ℤ(pⁿ)-homogeneous.

    kind 'zero': the zero sequence; 'finite-support': all but finitely many
    components vanish (bound: the largest order); 'eventually-constant':
    orders equal p^exponent from some index on; 'strictly-increasing':
    component n has order p^{rate·n + offset} with rate ≥ 1.
    """

    kind: str
    p: int = 2
    exponent: int = 0
    rate: int = 1
    offset: int = 0

    def __post_init__(self):
        if self.kind not in ("zero", "finite-support", "eventually-constant",
                            "strictly-increasing"):
            raise GroupError(f"unrecognized order pattern {self.kind!r}")
        if self.kind == "strictly-increasing" and self.rate < 1:
            raise GroupError("strictly-increasing pattern needs rate >= 1")


def in_torsion_of_pe(pattern: OrderPattern) -> bool:
    """True iff the order sequence is bounded — the membership criterion
    for t(PE(B)) inside Π_n B_n (bounded orders ⟺ torsion element)."""
    if pattern.kind in ("zero", "finite-support", "eventually-constant"):
        return True
    return False
