"""Reference routes that only the tests use.

Each is an independent, slower way to compute what the library computes
another way: a formula's matrix form by one scan of each equation per
variable (`normalize_per_variable`), lattice indices by determinants
(`lattice_index`, `det`), the HNF by gcd elimination over ℤ with no moduli
(`hermite_by_elimination`) and lattice sums by it, a group's relation rows
(`relation_basis`), Smith diagonals by a Smith form, all homomorphisms by
enumeration, purity by splitting, the Ulm invariants by subgroup arithmetic
on the socle layers, a pp-type table's clamp by trying each K against
its definition (`trimmed_by_definition`), and a factorization by plain
trial division with no primality test (`factorize_by_trial_division`).

`witness_b_elements` is the one route here with no library counterpart:
it finds the proof's elements b_n of the witness chain by enumeration.
`brute_force_solutions` decodes the oracle's solution codes
(`kernels.brute_force_codes`) into tuples of element coordinates, which the
oracle itself never needs.

`gch_values` is the cardinal engine's oracle: the values of a cardinal
term in a model of GCH, where cardinal arithmetic is determined.
"""

from __future__ import annotations

import itertools
from math import gcd, prod

import numpy as np

from pptor.cardinals import OMEGA, Aleph, Beth, Finite, Power, Prod, Sum, Var
from pptor.chains import witness_chain
from pptor.formulas import Equation, MatrixForm, PpFormula
from pptor.groups import (
    Element,
    FgGroup,
    GroupError,
    Homomorphism,
    Subgroup,
    TRIAL_DIVISION_LIMIT,
    factorize,
    find_constrained_hom,
)
from pptor.intlinalg import (
    Matrix,
    lattice_coords,
    smith_normal_form,
)
from pptor.invariants import UlmInvariants
from pptor.kernels import brute_force_codes
from pptor.ppsolve import evaluate


def coefficient(eq: Equation, var: str) -> int:
    """Net coefficient of var after moving everything to the left."""
    c = sum(k for k, v in eq.lhs if v == var)
    c -= sum(k for k, v in eq.rhs if v == var)
    return c


def normalize_per_variable(f: PpFormula) -> MatrixForm:
    """C·x̄ + D·ȳ = 0, each entry from its own scan of the equation."""
    C = tuple(
        tuple(coefficient(eq, v) for v in f.free_vars) for eq in f.equations
    )
    D = tuple(
        tuple(coefficient(eq, v) for v in f.bound_vars) for eq in f.equations
    )
    return MatrixForm(C, D)


def det(A: Matrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    if n == 0:
        return 1
    M = [row[:] for row in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k] != 0:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def lattice_index(outer: list[list[int]], inner: list[list[int]]):
    """Index [outer : inner] for row lattices with inner ⊆ outer.

    Returns a positive int, or None when the index is infinite.
    """
    if len(inner) < len(outer):
        return None
    Q = []
    for row in inner:
        coeffs = lattice_coords(outer, row)
        if coeffs is None:
            raise ValueError("inner lattice not contained in outer lattice")
        Q.append(coeffs)
    d = det(Q)
    return abs(d) if d else None


def hermite_by_elimination(rows) -> list[list[int]]:
    """Unique row Hermite normal form of the lattice spanned by ``rows``.

    Echelon with positive pivots, entries above each pivot reduced into
    [0, pivot); zero rows dropped.  Two generating sets of the same lattice
    produce identical output.
    """
    work = [list(map(int, r)) for r in rows if any(r)]
    if not work:
        return []
    n = len(work[0])
    basis: list[list[int]] = []
    r = 0
    for j in range(n):
        # gcd-eliminate column j among work[r:]
        while True:
            nz = [i for i in range(r, len(work)) if work[i][j]]
            if len(nz) <= 1:
                break
            # smallest |entry| becomes the eliminator
            k = min(nz, key=lambda i: (abs(work[i][j]), i))
            work[r], work[k] = work[k], work[r]
            for i in range(r + 1, len(work)):
                if work[i][j]:
                    q = work[i][j] // work[r][j]
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
        nz = [i for i in range(r, len(work)) if work[i][j]]
        if not nz:
            continue
        work[r], work[nz[0]] = work[nz[0]], work[r]
        if work[r][j] < 0:
            work[r] = [-a for a in work[r]]
        basis.append(work[r])
        r += 1
    # reduce entries above pivots
    for idx in range(len(basis)):
        row = basis[idx]
        j = next(c for c, v in enumerate(row) if v)
        for k in range(idx):
            q = basis[k][j] // row[j]
            if q:
                basis[k] = [a - q * b for a, b in zip(basis[k], row)]
    return [row for row in basis if any(row)]


def relation_basis(M: FgGroup) -> list[list[int]]:
    """The rows m_i·e_i of M's relation lattice, one per nonzero modulus."""
    g = M.rank
    return [[m if j == i else 0 for j in range(g)]
            for i, m in enumerate(M.moduli) if m != 0]


def lattice_sum(*bases) -> list[list[int]]:
    rows = [row for b in bases for row in b]
    return hermite_by_elimination(rows)


def snf_diagonal(A: Matrix) -> list[int]:
    _, S, _, _ = smith_normal_form(A, ())
    return [S[i][i] for i in range(min(len(S), len(S[0]) if S else 0))]


def factorize_by_trial_division(n: int) -> dict[int, int]:
    """groups.factorize without Miller–Rabin: divisors up to
    TRIAL_DIVISION_LIMIT, and the same refusal past it."""
    if n < 1:
        raise GroupError(f"cannot factor {n}")
    out = {}
    d = 2
    while d * d <= n:
        if d > TRIAL_DIVISION_LIMIT:
            raise GroupError(
                f"cannot factor {n}: it has no prime factor up to the trial "
                f"division limit {TRIAL_DIVISION_LIMIT}")
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def trimmed_by_definition(T):
    """T cut to its least clamp: the least K with
    T(k, l) = T(min(k, K), min(l, K)) for all k, l, each K checked on every
    entry in turn."""
    n = len(T)
    for K in range(n):
        if all(T[k][l] == T[min(k, K)][min(l, K)]
               for k in range(n) for l in range(n)):
            return tuple(row[:K + 1] for row in T[:K + 1])


def annihilator_rows(G: FgGroup, n: int) -> list[list[int]]:
    """Rows d_j·e_j, d_j = m_j/gcd(m_j, n), spanning the coordinates of
    G[n] = {x : n·x = 0} with the relations, for n ≠ 0; written down
    directly, so that the routes here reach G[n] through the general HNF
    rather than through the library's diagonal constructor."""
    return [[m // gcd(m, n) if j == i else 0 for j in range(G.rank)]
            for i, m in enumerate(G.moduli)]


def enumerate_homs(source: FgGroup, target: FgGroup):
    """All homomorphisms source → target by DFS over generator images.

    Independent cross-check for find_constrained_hom; the target must be
    finite.  A generator of order d goes to each element of target[d], a ℤ
    generator to each element of the target.
    """
    if not target.is_finite:
        raise GroupError("hom enumeration requires a finite target")
    cand = []
    for d in source.moduli:
        if d == 0:
            cand.append([list(c) for c in target.element_coords()])
            continue
        opts = []
        seen = set()
        H = Subgroup(target, annihilator_rows(target, d))
        for e in H.elements():
            if e.coords not in seen:
                seen.add(e.coords)
                opts.append(list(e.coords))
        cand.append(sorted(opts))
    for combo in itertools.product(*cand):
        yield Homomorphism(source, target, combo)


def is_pure_via_splitting(H: Subgroup, M: FgGroup) -> bool:
    """Independent decision: H is pure in a f.g. group iff it is a direct
    summand, iff a retraction r: M → H exists, i.e. a homomorphism into H's
    abstract form that fixes each of its generators (find_constrained_hom).
    """
    if H.ambient != M:
        raise GroupError("subgroup of a different group")
    Hg, emb = H.as_group_with_embedding()
    cons = [(emb[i], [1 if j == i else 0 for j in range(Hg.rank)])
            for i in range(Hg.rank)]
    return find_constrained_hom(M, Hg, cons) is not None


def ulm_invariants(G: FgGroup) -> UlmInvariants:
    """α_{p,n} by the formula dim_{F_p}((p^{n−1}G)[p]/(p^nG)[p]); γ = 0."""
    if not G.is_finite:
        raise GroupError("Ulm invariants are computed for finite groups")
    alpha: dict = {}
    full = G.full_subgroup()
    for p, K in factorize(G.exponent()).items():
        socle = Subgroup(G, annihilator_rows(G, p))
        for n in range(1, K + 1):
            upper = _scaled(G, full, p ** (n - 1)).intersection(socle)
            lower = _scaled(G, full, p ** n).intersection(socle)
            idx = lower.index_in(upper)
            a = 0
            while idx > 1:
                if idx % p:
                    raise GroupError(
                        f"index {idx} of socle layers is not a power of {p}")
                idx //= p
                a += 1
            if a:
                alpha[(p, n)] = a
    return UlmInvariants.from_dicts(alpha, {})


def _scaled(G: FgGroup, H: Subgroup, n: int) -> Subgroup:
    return Subgroup(G, [[n * v for v in row] for row in H.basis])


def witness_b_elements(p: int, M0: int) -> list[Element]:
    """The proof's elements b_n = a_0 + a_1 + ⋯ + a_{n−1} (k = 1), where
    a_n ∈ φ_n[B] \\ φ_{n+1}[B]; existence of each a_n is verified."""
    chain, B = witness_chain(p, M0, 1)
    levels = [evaluate(f, B) for f in chain]
    a = []
    for n in range(M0):
        found = None
        for e in levels[n].elements():
            if not levels[n + 1].contains(e):
                found = e
                break
        if found is None:
            raise GroupError(f"strict descent fails at level {n}")
        a.append(found)
    out = [B.zero()]
    for n in range(1, M0 + 1):
        out.append(out[-1] + a[n - 1])
    return out


def brute_force_solutions(C, D, moduli) -> list[tuple[tuple[int, ...], ...]]:
    """All free-variable assignments satisfying C·x̄ + D·ȳ = 0 in ⊕ℤ/m_c.

    Returns, in deterministic order, tuples of element coordinate vectors
    (one per free variable).  Requires every modulus ≥ 1 (finite group).
    Decodes the codes of brute_force_codes through a table of all |M|
    elements.
    """
    sols, nfree, order = brute_force_codes(C, D, moduli)
    elem = _element_table([int(m) for m in moduli], order)
    return _decode_assignments(sols, elem, nfree, order)


def _decode_assignments(sols, elem, nfree, order):
    out = []
    for s in sols.tolist():
        assign = []
        for _ in range(nfree):
            assign.append(tuple(int(v) for v in elem[s % order]))
            s //= order
        out.append(tuple(assign))
    return out


def _element_table(moduli: list[int], order: int) -> np.ndarray:
    """(order, rank) array of all element coordinate vectors, index order
    matching mixed-radix encoding with the first coordinate fastest."""
    grid = np.indices(moduli[::-1], dtype=np.int64)
    return grid.reshape(len(moduli), order)[::-1].T


# Cardinals in a model of GCH: n finite is (0, n), and ℵ_{ω·c+k} is (1, c, k),
# so tuple order is cardinal order.  Each variable takes the values ℵ₀, ℵ₁,
# ℵ₂, ℵ_ω and ℵ_{ω+1}.
GCH_VAR_VALUES = ((1, 0, 0), (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1))


def _gch_power(k, m):
    """κ^μ under GCH (Jech, Set Theory, 3rd ed., ch. 5): for infinite μ,
    κ when μ < cf κ, κ⁺ when cf κ ≤ μ ≤ κ, μ⁺ when κ ≤ μ (so 2^μ = μ⁺).
    cf κ is ℵ₀ at a limit index, else κ (ℵ₀ and successors are regular)."""
    if m[0] == 0:
        if m[1] == 0:
            return (0, 1)
        return (0, k[1] ** m[1]) if k[0] == 0 else k
    if k[0] == 0:
        if k[1] <= 1:
            return k  # 0^μ = 0, 1^μ = 1
    elif m < ((1, 0, 0) if k[1] and not k[2] else k):  # μ < cf κ
        return k
    top = max(k, m)
    return (1, top[1], top[2] + 1)


def gch_values(e, envs):
    """Values of the cardinal term e in a model of GCH, where ℶ_α = ℵ_α: one
    for each assignment in envs of values to the variables."""
    if isinstance(e, Finite):
        return [(0, e.n)] * len(envs)
    if isinstance(e, (Aleph, Beth)):  # ℶ_α = ℵ_α
        value = (1, 1, 0) if e.i == OMEGA else (1, 0, e.i)
        return [value] * len(envs)
    if isinstance(e, Var):
        return [env[e.name] for env in envs]
    if isinstance(e, Power):
        return list(map(_gch_power, gch_values(e.base, envs),
                        gch_values(e.exp, envs)))
    combine = _gch_sum if isinstance(e, Sum) else _gch_product
    return [combine(vs) for vs in zip(*(gch_values(a, envs) for a in e.args))]


def _gch_sum(values):
    if any(v[0] for v in values):
        return max(values)  # κ + μ = max(κ, μ) when one is infinite
    return (0, sum(v[1] for v in values))


def _gch_product(values):
    if (0, 0) in values:
        return (0, 0)
    if any(v[0] for v in values):
        return max(values)  # κ·μ = max(κ, μ) when one is infinite, μ ≥ 1
    return (0, prod(v[1] for v in values))


def gch_assignments(*terms):
    """Every assignment of GCH_VAR_VALUES to the variables of the terms."""
    names = sorted(set().union(*(_variables(t) for t in terms)))
    return [dict(zip(names, values))
            for values in itertools.product(GCH_VAR_VALUES, repeat=len(names))]


def _variables(e):
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Power):
        return _variables(e.base) | _variables(e.exp)
    if isinstance(e, (Sum, Prod)):
        return set().union(*(_variables(a) for a in e.args))
    return set()
