"""pp-formula evaluation and pp-types over finitely generated abelian groups.

evaluate solves C·x̄ + D·ȳ = 0 coordinate by coordinate: in ℤ/m the free
solutions are the projection onto the x̄-block of the solutions of
C·x̄ + D·ȳ ≡ 0 mod m, a lattice cached per (C, D, m).

pp-types of elements over a parameter subgroup are decided two ways: a
canonical descriptor (memberships a − m ∈ p^k N + N[p^l]) and an exact
bidirectional homomorphism oracle, valid because finite abelian groups are
pure-injective.  The oracle is authoritative; the acceptance suite pins
their agreement.  In N = ⊕ ℤ/m_j the subgroup p^k N + N[p^l] is diagonal,
so the descriptor reads each membership from the p-valuations of the
coordinates of a − m, with no lattice algebra; the oracle passes its
constraints to find_constrained_hom as coordinate tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .formulas import PpFormula, normalize
from .groups import (
    MAX_RANK,
    Element,
    FgGroup,
    GroupError,
    Homomorphism,
    Subgroup,
    abelian_groups_upto,
    direct_sum,
    factorize,
)
from .intlinalg import congruence_lattice, in_lattice, solve_congruence_columns


class PpSolveError(ValueError):
    pass


# ---------------------------------------------------------------------------
# evaluation

@lru_cache(maxsize=4096)
def _coordinate_lattice(C, D, m: int):
    """HNF basis (in ℤ^nfree) of the solutions of C·x + D·y ≡ 0 mod m, as
    (pivot column, row) pairs.

    m = 0 means the coordinate is a copy of ℤ.
    """
    nfree = len(C[0]) if C else 0
    rows = congruence_lattice([c + d for c, d in zip(C, D)], [m] * len(C), nfree)
    return tuple((next(i for i, v in enumerate(r) if v), tuple(r))
                 for r in rows)


def power_group(M: FgGroup, n: int) -> FgGroup:
    return direct_sum(*([M] * n)) if n else FgGroup(())


def evaluate(f: PpFormula, M: FgGroup) -> Subgroup:
    """The solution set {ā ∈ M^n : M ⊨ f(ā)} as a Subgroup of M^n; M^n may
    have rank at most MAX_RANK."""
    n = len(f.free_vars)
    if n * M.rank > MAX_RANK:
        raise PpSolveError(
            f"rank {n}·{M.rank} = {n * M.rank} of M^{n} exceeds the limit "
            f"{MAX_RANK}")
    mf = normalize(f)
    rank = M.rank
    # Block c is the HNF of the coordinate lattice placed on the columns
    # i·rank + c, which no other block touches: a row with its pivot at i
    # in the block has it at i·rank + c and stays reduced, so the blocks'
    # rows in pivot-column order are the HNF of φ[M].
    placed = [None] * (n * rank)
    for c, m in enumerate(M.moduli):
        for pivot, r in _coordinate_lattice(mf.C, mf.D, m):
            row = [0] * (n * rank)
            row[c::rank] = r
            placed[pivot * rank + c] = row
    return Subgroup._from_hnf(power_group(M, n),
                              [row for row in placed if row is not None])


@dataclass
class InclusionFailure(PpSolveError):
    witness: tuple

    def __str__(self):
        return f"inclusion violated; witness {self.witness}"


def index(f: PpFormula, g: PpFormula, M: FgGroup):
    """[f[M] : g[M]], checking g[M] ⊆ f[M] first (witness on failure)."""
    if len(f.free_vars) != len(g.free_vars):
        raise PpSolveError("formulas have different free arities")
    Sf = evaluate(f, M)
    Sg = evaluate(g, M)
    try:
        return Sg.index_in(Sf)
    except GroupError:
        # the inclusion failed: name the first row of g[M] outside f[M]
        r = next(r for r in Sg.basis if not in_lattice(Sf.basis, r))
        raise InclusionFailure(Sf.ambient.element(r).coords) from None


# ---------------------------------------------------------------------------
# constrained homomorphisms (the pp-type oracle)


def _coords(x, G: FgGroup):
    """Coordinates of x, an Element of G or a sequence of G.rank integers."""
    if isinstance(x, Element):
        if x.group != G:
            raise GroupError(f"{x} of {x.group} is not an element of {G}")
        return x.coords
    x = tuple(x)
    if len(x) != G.rank:
        raise GroupError(f"expected {G.rank} coordinates of {G}, got {len(x)}")
    return x


def find_constrained_hom(source: FgGroup, target: FgGroup, constraints):
    """A Homomorphism source → target with f(a) = b for each (a, b) in
    constraints (elements, or coordinate sequences), or None.

    Entry j of f(v) is Σ_i v_i·x_{i,j} and is taken modulo target modulus
    t_j alone, so column j of the matrix solves A·x ≡ w_j (mod t_j) in r1
    unknowns.  The rows of A are the same for every column: d_i·e_i with
    w = 0 (so that f is well defined) and the source side of each
    constraint.  Only w_j and t_j change from column to column, so one
    Smith form of A solves them all (intlinalg.solve_congruence_columns).
    """
    r1, r2 = source.rank, target.rank
    pairs = [([d if k == i else 0 for k in range(r1)], [0] * r2)
             for i, d in enumerate(source.moduli) if d]
    pairs += [(_coords(a, source), _coords(b, target)) for a, b in constraints]
    if not pairs:  # no conditions at all: the zero map is one answer
        return Homomorphism(source, target, [[0] * r2 for _ in range(r1)])
    cols = solve_congruence_columns(
        [list(v) for v, _ in pairs],
        [[w[j] for _, w in pairs] for j in range(r2)], target.moduli)
    if cols is None:
        return None
    return Homomorphism(source, target, [[col[i] for col in cols]
                                         for i in range(r1)])


# ---------------------------------------------------------------------------
# pp-type descriptors


@dataclass(frozen=True)
class PpTypeDescriptor:
    """Canonical table of the conditions a − m ∈ p^k N + N[p^l] that a
    satisfies over M inside N.

    That family generates every pp-definable subgroup of a finite abelian
    group (the lattice generated by the two chains p^k N and N[p^l]), so the
    table pins the pp-type.  T(k, l) is the set of parameters m (abstract
    coordinates of the parameter group) meeting the condition: with
    e_j = v_p(m_j) and w_j the p-valuation of coordinate j of a − m, capped
    at e_j, those m for which every j has w_j ≥ k or w_j + l ≥ e_j.  Beyond
    K_p = v_p(exp N) the table repeats its K_p row and column.  Each prime
    keeps T only up to its least clamp K, the least K with
    T(k, l) = T(min(k, K), min(l, K)) for all k, l, and primes with K = 0
    (every entry full) are dropped.  So `==` and `hash` are pp-type
    equality over the same parameter group, whatever the exponents of the
    ambients.
    """

    m_moduli: tuple[int, ...]
    # (p, T) per kept prime, ascending p; T[k][l] for 0 ≤ k, l ≤ K
    tables: tuple[tuple[int, tuple[tuple[frozenset, ...], ...]], ...]


def _trimmed(T):
    """The square n × n table T cut to its least clamp K (K + 1 rows).

    T(k, l) = T(min(k, K), min(l, K)) for all k, l holds exactly when rows
    K, …, n − 1 all equal the last row and columns K, …, n − 1 all equal
    the last column, so K is the larger of the least such row index and
    the least such column index: O(n²) comparisons of entries.
    """
    last = len(T) - 1
    r = last
    while r and T[r - 1] == T[last]:
        r -= 1
    c = last
    while c and all(row[c - 1] == row[last] for row in T):
        c -= 1
    K = max(r, c)
    return tuple(row[:K + 1] for row in T[:K + 1])


def _capped_valuation(n: int, p: int, cap: int) -> int:
    """v_p(n) capped at cap; n = 0 reads as cap."""
    v = 0
    while v < cap and n % p == 0:
        n //= p
        v += 1
    return v


def _mixed_sum_levels(d, e, p: int, kmax: int) -> list[int]:
    """Entry k ≤ kmax is the least l with d ∈ p^k N + N[p^l], where d holds
    coordinates of N = ⊕ ℤ/m_j and e_j = v_p(m_j).

    p^k N + N[p^l] = ⊕_j p^{min(k, max(e_j − l, 0))}·ℤ/m_j, so with
    w_j = v_p(d_j) capped at e_j, d lies in it exactly when every j has
    w_j ≥ k or w_j + l ≥ e_j: l must reach e_j − w_j for each j with
    w_j < k.  So entry k is a running maximum: top[w] holds the largest
    e_j − w_j with w_j = w, and entry k the largest top[w] with w < k.
    """
    top = [0] * kmax
    for dj, ej in zip(d, e):
        wj = _capped_valuation(dj, p, ej)
        if wj < kmax and ej - wj > top[wj]:
            top[wj] = ej - wj
    levels = [0]
    for t in top:
        levels.append(max(levels[-1], t))
    return levels


def pp_type_descriptor(a: Element, M: Subgroup, N: FgGroup,
                       check_purity: bool = True,
                       identification=None) -> PpTypeDescriptor:
    """Descriptor of a over the parameter subgroup M inside N.

    By default parameters are indexed through M's canonical abstract form;
    identification=(Mg, emb) overrides this with an explicit reference group
    Mg and embedding rows emb (ambient coords per Mg coordinate), so types
    over differently embedded copies of the same group stay comparable.

    The parameters m run over Mg's coordinate tuples in the order of
    Mg.elements(), and each a − m is the one before it minus an embedding
    row.  For each prime the levels of every a − m are bucketed once per
    k, so each row T(k, ·) is a chain of prefix unions of the buckets.
    """
    if a.group != N or (isinstance(M, Subgroup) and M.ambient != N):
        raise PpSolveError("element/parameter group not inside the ambient group")
    if not N.is_finite:
        raise PpSolveError("pp-type descriptors require a finite ambient group")
    if check_purity:
        from .purity import is_pure

        if not is_pure(M, N):
            raise PpSolveError("parameter subgroup is not pure in the ambient group")
    if identification is None:
        Mg, emb = M.as_group_with_embedding()
    else:
        Mg, emb = identification
    params = list(Mg.element_coords())
    moduli = N.moduli
    # coordinates of a − m in N, m in the order of params: the last
    # coordinate of m runs fastest, so each step subtracts its row once more
    diffs = [[x % t for x, t in zip(a.coords, moduli)]]
    for row, count in zip(emb, Mg.moduli):
        steps = []
        for d in diffs:
            steps.append(d)
            for _ in range(count - 1):
                d = [(x - y) % t for x, y, t in zip(d, row, moduli)]
                steps.append(d)
        diffs = steps

    tables = []
    for p, K in factorize(N.exponent()).items():
        e = [_capped_valuation(t, p, K) for t in moduli]
        levels = [_mixed_sum_levels(d, e, p, K) for d in diffs]
        T = []
        for k in range(K + 1):
            buckets = [[] for _ in range(K + 1)]  # [l]: the m of level l at k
            for mc, lv in zip(params, levels):
                buckets[lv[k]].append(mc)
            row, members = [], set()
            for bucket in buckets:
                members.update(bucket)
                row.append(frozenset(members))
            T.append(tuple(row))
        T = _trimmed(tuple(T))
        if len(T) > 1:
            tables.append((p, T))
    return PpTypeDescriptor(Mg.moduli, tuple(tables))


def pp_type_equal(d1: PpTypeDescriptor, d2: PpTypeDescriptor) -> bool:
    """Whether two descriptors over the same parameter group give the same
    pp-type; descriptors are canonical, so this is value equality."""
    if d1.m_moduli != d2.m_moduli:
        raise PpSolveError("descriptors over different parameter groups")
    return d1 == d2


def hom_oracle_equal(a1: Element, M1: Subgroup, N1: FgGroup,
                     a2: Element, M2: Subgroup, N2: FgGroup) -> bool:
    """Authoritative pp-type equality: homomorphisms N1 → N2 and N2 → N1,
    each fixing the common parameter group pointwise and exchanging a1, a2.

    Valid because finite abelian groups are pure-injective: a type-preserving
    partial map extends to a homomorphism, and conversely homomorphisms
    preserve pp-formulas.

    The parameter group is identified through each side's abstract form,
    which depends only on the subgroup's ambient and basis; when M2 == M1
    one form serves both sides.
    """
    if M1.ambient != N1 or M2.ambient != N2:
        raise PpSolveError("parameter subgroup not inside its ambient group")
    M1g, emb1 = M1.as_group_with_embedding()
    if M2 == M1:
        M2g, emb2 = M1g, emb1
    else:
        M2g, emb2 = M2.as_group_with_embedding()
    if M1g.moduli != M2g.moduli:
        raise PpSolveError("parameter groups are not identified")
    return _oracle_equal_emb(a1, emb1, N1, a2, emb2, N2)


def _oracle_equal_emb(a1, emb1, N1, a2, emb2, N2) -> bool:
    """The oracle with the parameter group identified: row i of emb1 and of
    emb2 are the ambient coordinates of the same parameter generator.

    A generator that is zero on both sides (a coordinate ℤ/1 of the
    parameter group) asks only 0 ↦ 0, which every homomorphism meets, so
    its pair is dropped; a pair with one zero side still constrains."""
    cons12 = [(N1.reduce_coords(r1), N2.reduce_coords(r2))
              for r1, r2 in zip(emb1, emb2) if any(r1) or any(r2)]
    cons12.append((a1, a2))
    cons21 = [(b, a) for a, b in cons12]
    return (find_constrained_hom(N1, N2, cons12) is not None
            and find_constrained_hom(N2, N1, cons21) is not None)


# ---------------------------------------------------------------------------
# type counting


# count_types classifies every element of M ⊕ C for every C of order
# ≤ bound/|M|.  At bound 32 with the oracle, M = 0 takes 0.2 s and the
# slowest M, (ℤ/1)^64, 0.2–0.3 s in process (2 CPUs, Python 3.11); bound
# 200 ran for longer than 20 s.  Larger bounds are refused.
MAX_TYPES_BOUND = 32


def count_types(M: FgGroup, bound: int, use_oracle: bool = False) -> int:
    """Number of pp-types over M realized in pure torsion extensions of
    order ≤ bound (classes of triples (N, pure embedding M → N, a)).

    One embedding per extension is enough.  A pure subgroup of a bounded
    abelian group is a direct summand (Fuchs, Infinite Abelian Groups I,
    Thm. 27.5), and finite abelian groups cancel (Krull–Schmidt–Remak), so
    up to an automorphism of N fixing the parameters every pure embedding
    is the standard M → M ⊕ C.  Each N = M ⊕ C, with C of order
    ≤ bound/|M|, is built from the factors ≠ 1 of M followed by C; a
    coordinate ℤ/1 of M embeds as zero.

    With use_oracle, every descriptor match among these standard embeddings
    is confirmed by the homomorphism oracle, and a disagreement raises
    PpSolveError.
    """
    if not M.is_finite:
        raise PpSolveError("count_types requires a finite parameter group")
    if bound > MAX_TYPES_BOUND:
        raise PpSolveError(
            f"bound {bound} exceeds the limit {MAX_TYPES_BOUND} on the order "
            f"of the enumerated extensions")
    if bound < M.order():
        raise PpSolveError("bound must be at least |M|")
    factors = tuple(d for d in M.moduli if d != 1)
    reps = {}  # descriptor → (a, emb, N), the first triple of its class
    for C in abelian_groups_upto(bound // M.order()):
        N = FgGroup(factors + C.moduli)
        units = iter([[int(i == j) for j in range(N.rank)]
                      for i in range(len(factors))])
        emb = [next(units) if d != 1 else [0] * N.rank for d in M.moduli]
        S = Subgroup(N, emb)
        for a in N.elements():
            d = pp_type_descriptor(a, S, N, check_purity=False,
                                   identification=(M, emb))
            rep = reps.get(d)
            if rep is None:
                reps[d] = (a, emb, N)
            elif use_oracle and not _oracle_equal_emb(a, emb, N, *rep):
                ar, _, Nr = rep
                raise PpSolveError(
                    f"descriptor and hom oracle disagree on "
                    f"{a} in {N} against {ar} in {Nr}")
    return len(reps)
