import random
import re
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from reference import (
    annihilator_rows,
    brute_force_solutions,
    enumerate_homs,
    hermite_by_elimination,
    lattice_sum,
    relation_basis,
    trimmed_by_definition,
)

from pptor import corpus, ppsolve
from pptor.formulas import Equation, PpFormula, normalize, parse
from pptor.groups import (
    FgGroup,
    GroupError,
    Subgroup,
    abelian_groups_upto,
    all_subgroups,
    constrained_hom_exists,
    factorize,
)
from pptor.intlinalg import hermite_row_basis, in_lattice, lattice_intersection
from pptor.purity import is_pure


def test_evaluate_socle_in_z8_z2():
    M = FgGroup((8, 2))
    S = ppsolve.evaluate(parse("2*x = 0"), M)
    assert S.order() == 4


def test_evaluate_divisible_layer():
    M = FgGroup((8, 2))
    S = ppsolve.evaluate(parse("2*x = 0 & E y. x = 4*y"), M)
    assert S.order() == 2
    assert S.contains(M.element([4, 0]))
    assert not S.contains(M.element([0, 1]))


def test_evaluate_two_free_vars():
    M = FgGroup((4,))
    S = ppsolve.evaluate(parse("x1 = 2*x2"), M)
    # pairs (2b mod 4, b): 4 solutions in M^2
    assert S.order() == 4
    assert S.contains(ppsolve.power_group(M, 2).element([2, 1]))


def test_evaluate_against_brute_force_random():
    rng = random.Random(12)
    for _ in range(150):
        f = corpus.random_formula(rng)
        M = corpus.random_group(rng, moduli_pool=(2, 3, 4, 8),
                                max_rank=2, free_ok=False)
        m = normalize(f)
        S = ppsolve.evaluate(f, M)
        want = brute_force_solutions(m.C, m.D, M.moduli)
        assert S.order() == len(want)
        for assign in want:
            flat = [c for x in assign for c in x]
            assert S.contains(S.ambient.element(flat))


def test_evaluate_free_group():
    M = FgGroup((0,))
    S = ppsolve.evaluate(parse("E y. x = 2*y"), M)
    assert S.contains(M.element([2]))
    assert not S.contains(M.element([1]))


@st.composite
def _formulas_and_mixed_groups(draw):
    """A formula in one or two free variables and a group of rank ≤ 3 with
    free, trivial and unsorted cyclic factors."""
    moduli = tuple(draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 9)),
                                 min_size=1, max_size=3)))
    fv = tuple(f"x{i}" for i in range(draw(st.integers(1, 2))))
    bv = tuple(f"y{i}" for i in range(draw(st.integers(0, 2))))
    coeffs = st.lists(st.integers(-6, 6), min_size=len(fv + bv),
                      max_size=len(fv + bv))
    rows = draw(st.lists(coeffs, min_size=1, max_size=3))
    eqs = tuple(Equation(tuple(zip(row, fv + bv)), ()) for row in rows)
    return PpFormula(fv, bv, eqs), FgGroup(moduli)


@given(_formulas_and_mixed_groups())
def test_evaluate_basis_is_the_hermite_form(case):
    # M^n gets its basis assembled from the coordinate blocks, in any
    # ambient; it must be the HNF that Subgroup computes from the same rows
    f, M = case
    S = ppsolve.evaluate(f, M)
    assert S.basis == Subgroup(S.ambient, S.basis).basis


def test_known_hermite_bases_need_no_second_hnf():
    """The two facts that let evaluate and Subgroup.intersection skip an
    HNF, on seeded corpus groups with a ℤ factor: the coordinate blocks of
    φ[M], placed in M^n, have the basis that Subgroup computes from them,
    and the rows of lattice_intersection are their own HNF over the moduli."""
    rng = random.Random(2511)
    pairs = 0
    while pairs < 400:
        M = corpus.random_group(rng, max_rank=3)
        if M.is_finite:
            continue
        f = corpus.random_formula(rng)
        mf = normalize(f)
        rows = []
        for c, m in enumerate(M.moduli):
            for _, r in ppsolve._coordinate_lattice(mf.C, mf.D, m):
                row = [0] * (len(r) * M.rank)
                row[c::M.rank] = r
                rows.append(row)
        S = ppsolve.evaluate(f, M)
        assert S.basis == Subgroup(S.ambient, rows).basis, (f, M)
        H, K = corpus.random_subgroup(rng, M), corpus.random_subgroup(rng, M)
        meet = lattice_intersection(H.basis, K.basis, M.moduli)
        assert H.intersection(K).basis == \
            tuple(map(tuple, hermite_row_basis(meet, M.moduli))), (H, K)
        pairs += 1


def test_index():
    B = FgGroup((8,))
    f = parse("E y. x = 2*y")
    g = parse("E y. x = 4*y")
    assert ppsolve.index(f, g, B) == 2
    with pytest.raises(ppsolve.InclusionFailure):
        ppsolve.index(g, f, B)


def test_find_constrained_hom():
    M, N = FgGroup((4,)), FgGroup((8,))
    h = ppsolve.find_constrained_hom(M, N, [(M.element([1]), N.element([2]))])
    assert h is not None
    assert h(M.element([1])) == N.element([2])
    assert ppsolve.find_constrained_hom(
        M, N, [(M.element([1]), N.element([1]))]) is None
    assert not constrained_hom_exists(M, N, [(M.element([1]), N.element([1]))])
    # gcd(s, t) | c although s ∤ c: 4 ↦ 2 from ℤ to ℤ/6 asks 4x ≡ 2 (mod 6)
    M, N = FgGroup((0,)), FgGroup((6,))
    h = ppsolve.find_constrained_hom(M, N, [((4,), (2,))])
    assert h is not None and h(M.element([4])) == N.element([2])
    assert constrained_hom_exists(M, N, [((4,), (2,))])


def test_find_constrained_hom_without_rows():
    # no torsion in the source and no constraints: the system has no rows
    for M, N in ((FgGroup((0,)), FgGroup((2,))),
                 (FgGroup((0, 0)), FgGroup((2, 3)))):
        h = ppsolve.find_constrained_hom(M, N, [])
        assert h is not None and constrained_hom_exists(M, N, [])
        assert all(h(M.element(e)) == N.zero()
                   for e in ([1] * M.rank, [3] + [0] * (M.rank - 1)))


def test_find_constrained_hom_rejects_foreign_constraints():
    M, N = FgGroup((4,)), FgGroup((8,))
    for a, b in ((FgGroup((3,)).element([1]), N.element([2])),
                 ((1, 0), (2,)),
                 ((), (2,)),
                 (M.element([1]), FgGroup((4,)).element([2])),
                 ((1,), (2, 0))):
        with pytest.raises(GroupError) as solver:
            ppsolve.find_constrained_hom(M, N, [(a, b)])
        with pytest.raises(GroupError, match=re.escape(str(solver.value))):
            constrained_hom_exists(M, N, [(a, b)])


def test_find_constrained_hom_free_target_coordinate():
    M, N = FgGroup((4, 0)), FgGroup((0, 4))
    cons = [(M.element([1, 0]), N.element([0, 2])),
            (M.element([0, 1]), N.element([3, 1])),
            (M.element([1, 2]), N.element([6, 0]))]
    h = ppsolve.find_constrained_hom(M, N, cons)
    assert h is not None and constrained_hom_exists(M, N, cons)
    assert all(h(a) == b for a, b in cons)
    # an element of order 4 has no nonzero image in the free coordinate
    bad = [(M.element([1, 0]), N.element([1, 0]))]
    assert ppsolve.find_constrained_hom(M, N, bad) is None
    assert not constrained_hom_exists(M, N, bad)


_small_moduli = st.lists(st.sampled_from((1, 2, 3, 4, 6, 8)),
                         min_size=1, max_size=2)


@st.composite
def _constrained_hom_problems(draw):
    M, N = FgGroup(tuple(draw(_small_moduli))), FgGroup(tuple(draw(_small_moduli)))

    def element(G):
        return G.element(draw(st.lists(st.integers(-9, 9), min_size=G.rank,
                                       max_size=G.rank)))

    cons = [(element(M), element(N)) for _ in range(draw(st.integers(0, 2)))]
    return M, N, cons


@given(_constrained_hom_problems())
def test_find_constrained_hom_matches_enumeration(problem):
    M, N, cons = problem
    h = ppsolve.find_constrained_hom(M, N, cons)
    exists = any(all(g(a) == b for a, b in cons)
                 for g in enumerate_homs(M, N))
    assert (h is not None) == exists == constrained_hom_exists(M, N, cons)
    if h is not None:
        assert all(h(a) == b for a, b in cons)


@st.composite
def _triple_pairs(draw):
    """Two triples over the same parameter group: S pure in N1, and its copy
    in N2 = N1 ⊕ ℤ/k, where it stays pure as N1 is a direct summand."""
    N1 = FgGroup(tuple(draw(_small_moduli)))
    gens = draw(st.lists(st.lists(st.integers(0, 7), min_size=N1.rank,
                                  max_size=N1.rank), max_size=2))
    S1 = Subgroup.from_generators(N1, [N1.element(g) for g in gens])
    assume(is_pure(S1, N1))
    N2 = FgGroup(N1.moduli + (draw(st.sampled_from((1, 2, 3, 4))),))
    S2 = Subgroup.from_generators(
        N2, [N2.element(list(g) + [0]) for g in gens])
    a1 = N1.element(draw(st.lists(st.integers(0, 7), min_size=N1.rank,
                                  max_size=N1.rank)))
    a2 = N2.element(draw(st.lists(st.integers(0, 7), min_size=N2.rank,
                                  max_size=N2.rank)))
    return a1, S1, N1, a2, S2, N2


@given(_triple_pairs())
def test_descriptor_equality_matches_oracle(case):
    a1, S1, N1, a2, S2, N2 = case
    d1 = ppsolve.pp_type_descriptor(a1, S1, N1, check_purity=False)
    d2 = ppsolve.pp_type_descriptor(a2, S2, N2, check_purity=False)
    assert (d1 == d2) == ppsolve.hom_oracle_equal(a1, S1, N1, a2, S2, N2)


def _pure_subgroups(N):
    return [S for S in all_subgroups(N) if is_pure(S, N)]


def test_descriptor_equals_oracle_small():
    records = []
    for N in abelian_groups_upto(6):
        for S in _pure_subgroups(N):
            key = S.as_group().moduli
            for a in N.elements():
                d = ppsolve.pp_type_descriptor(a, S, N, check_purity=False)
                records.append((key, d, a, S, N))
    for i, (k1, d1, a1, S1, N1) in enumerate(records):
        for k2, d2, a2, S2, N2 in records[i:]:
            if k1 != k2:
                continue
            assert ppsolve.pp_type_equal(d1, d2) == \
                ppsolve.hom_oracle_equal(a1, S1, N1, a2, S2, N2)


def test_descriptor_is_canonical_across_exponents():
    N1, N2 = FgGroup((2,)), FgGroup((2, 4))
    a1, a2, b = N1.element([1]), N2.element([1, 0]), N2.element([0, 2])
    d1 = ppsolve.pp_type_descriptor(a1, N1.zero_subgroup(), N1)
    d2 = ppsolve.pp_type_descriptor(a2, N2.zero_subgroup(), N2)
    db = ppsolve.pp_type_descriptor(b, N2.zero_subgroup(), N2)
    assert d1 == d2 and hash(d1) == hash(d2)
    assert ppsolve.hom_oracle_equal(a1, N1.zero_subgroup(), N1,
                                    a2, N2.zero_subgroup(), N2)
    assert db != d1 and db != d2


def _mixed_sum_lattice(N, p, k, l):
    """HNF coordinate lattice of p^k N + N[p^l], summed as lattices."""
    pkN = [[p ** k if j == i else 0 for j in range(N.rank)]
           for i in range(N.rank)]
    return lattice_sum(pkN, annihilator_rows(N, p ** l), relation_basis(N))


def _lattice_descriptor(a, Mg, emb, N, members):
    """Reference descriptor over the parameters Mg embedded by emb: a − m
    looked up in the elements of each lattice p^k N + N[p^l], listed by
    in_lattice (cached in members by (p, k, l)), each table cut by the
    definition of its clamp."""
    diffs = [(x.coords, (a - N.element(
        [sum(c * emb[i][j] for i, c in enumerate(x.coords))
         for j in range(N.rank)])).coords) for x in Mg.elements()]
    tables = []
    for p, K in factorize(N.exponent()).items():
        T = []
        for k in range(K + 1):
            row = []
            for l in range(K + 1):
                if (p, k, l) not in members:
                    lat = _mixed_sum_lattice(N, p, k, l)
                    members[p, k, l] = {x.coords for x in N.elements()
                                        if in_lattice(lat, x.coords)}
                row.append(frozenset(mc for mc, d in diffs
                                     if d in members[p, k, l]))
            T.append(tuple(row))
        T = trimmed_by_definition(T)
        if len(T) > 1:
            tables.append((p, T))
    return ppsolve.PpTypeDescriptor(Mg.moduli, tuple(tables))


def test_descriptor_matches_lattice_route():
    # every subgroup, pure or not, of every group of order ≤ 32, with N's
    # factors as listed, shuffled, and with a Z/1 factor inserted; two
    # seeded elements a per subgroup
    rng = random.Random(1501)
    count = 0
    for G in abelian_groups_upto(32):
        shuffled = rng.sample(G.moduli, len(G.moduli))
        padded = list(shuffled)
        padded.insert(rng.randrange(len(padded) + 1), 1)
        for moduli in (G.moduli, tuple(shuffled), tuple(padded)):
            N = FgGroup(moduli)
            elements = list(N.elements())
            members = {}
            for S in all_subgroups(N):
                Mg, emb = S.as_group_with_embedding()
                for a in rng.sample(elements, min(2, len(elements))):
                    d = ppsolve.pp_type_descriptor(
                        a, S, N, check_purity=False, identification=(Mg, emb))
                    assert d == _lattice_descriptor(a, Mg, emb, N, members), \
                        (moduli, S.basis, a.coords)
                    count += 1
    assert count > 5000


def _valuation(n, p):
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


@st.composite
def _mixed_sum_cases(draw):
    moduli = tuple(draw(st.lists(
        st.sampled_from((1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 25, 27)),
        min_size=1, max_size=3)))
    p = draw(st.sampled_from((2, 3, 5)))
    ds = draw(st.lists(st.lists(st.integers(-30, 30), min_size=len(moduli),
                                max_size=len(moduli)), min_size=1, max_size=4))
    return FgGroup(moduli), p, ds, draw(st.integers(0, 4))


@given(_mixed_sum_cases())
def test_mixed_sum_is_diagonal(case):
    # p^k N + N[p^l] = ⊕_j p^{min(k, max(e_j − l, 0))}·ℤ/m_j, and
    # _mixed_sum_levels reads membership in it from p-valuations.  Its e
    # is capped at kmax, as in the descriptor; the capped e_j are the
    # p-valuations of Ncap, N with each p-part p^{e_j} cut to
    # p^{min(e_j, kmax)} (the descriptor's kmax = v_p(exp N) cuts nothing)
    N, p, ds, kmax = case
    full = [_valuation(m, p) for m in N.moduli]
    e = [min(ej, kmax) for ej in full]
    Ncap = FgGroup([m // p ** (fj - ej) for m, fj, ej in zip(N.moduli, full, e)])
    levels = [ppsolve._mixed_sum_levels([x % m for x, m in zip(d, N.moduli)],
                                        e, p, kmax) for d in ds]
    assert all(len(lv) == kmax + 1 for lv in levels)
    for k in range(kmax + 1):
        for l in range(5):
            lat = _mixed_sum_lattice(Ncap, p, k, l)
            diag = [[p ** min(k, max(ej - l, 0)) if j == i else 0
                     for j in range(N.rank)] for i, ej in enumerate(e)]
            assert lat == hermite_by_elimination(diag + relation_basis(Ncap))
            for d, lv in zip(ds, levels):
                assert (lv[k] <= l) == in_lattice(lat, d)


def test_descriptor_rejects_impure_base():
    N = FgGroup((4,))
    S = Subgroup.from_generators(N, [N.element([2])])
    with pytest.raises(ppsolve.PpSolveError):
        ppsolve.pp_type_descriptor(N.element([1]), S, N)


def _pure_embeddings(M: FgGroup, N: FgGroup):
    """All pure embeddings M → N as (image Subgroup, emb) with emb a row of
    ambient coordinates per coordinate of M."""
    for h in enumerate_homs(M, N):
        S = h.image()
        if S.order() == M.order() and is_pure(S, N):
            yield S, h.matrix


def _count_types_all_embeddings(M: FgGroup, bound: int) -> int:
    """Reference for count_types: classify every element of every group N
    of order ≤ bound over every pure embedding of M into N."""
    types = set()
    for N in abelian_groups_upto(bound):
        for S, emb in _pure_embeddings(M, N):
            for a in N.elements():
                types.add(ppsolve.pp_type_descriptor(
                    a, S, N, check_purity=False, identification=(M, emb)))
    return len(types)


def test_pure_embedding_counts():
    cases = [((2,), (4, 2), 2), ((2,), (2, 2), 3), ((4,), (8, 4), 8),
             ((2, 2), (4, 2, 2), 24), ((3,), (9, 3), 6), ((1,), (4,), 1),
             ((), (6,), 1)]
    for m, n, count in cases:
        M, N = FgGroup(m), FgGroup(n)
        embs = list(_pure_embeddings(M, N))
        assert len(embs) == count
        for S, emb in embs:
            assert S.order() == M.order() and is_pure(S, N)
            assert S == Subgroup.from_generators(N, emb)


def test_count_types_frozen_values():
    zero = FgGroup(())
    assert ppsolve.count_types(zero, 1) == 1
    assert ppsolve.count_types(zero, 2) == 2
    assert ppsolve.count_types(zero, 4) == 5
    assert ppsolve.count_types(zero, 16) == 25
    assert ppsolve.count_types(FgGroup((2,)), 16) == 18
    assert ppsolve.count_types(FgGroup((4,)), 16) == 13


def test_count_types_oracle_agreement():
    zero = FgGroup(())
    for bound in (1, 2, 3, 4):
        assert ppsolve.count_types(zero, bound) == \
            ppsolve.count_types(zero, bound, use_oracle=True)
    M = FgGroup((2,))
    assert ppsolve.count_types(M, 4) == ppsolve.count_types(M, 4, use_oracle=True)
    assert ppsolve.count_types(FgGroup((4,)), 16, use_oracle=True) == 13


def test_count_types_bound_limit():
    with pytest.raises(ppsolve.PpSolveError, match=str(ppsolve.MAX_TYPES_BOUND)):
        ppsolve.count_types(FgGroup(()), ppsolve.MAX_TYPES_BOUND + 1)


@pytest.mark.parametrize("M", abelian_groups_upto(8), ids=str)
def test_count_types_matches_all_embeddings(M):
    for bound in (8, 12, 16):
        if M.moduli == (2, 2, 2) and bound == 16:
            continue  # the reference alone takes about 13 s here
        assert ppsolve.count_types(M, bound) == \
            _count_types_all_embeddings(M, bound)


def test_count_types_large_inputs():
    # the all-embeddings reference takes 1 s on the first input and 4 s to
    # over a minute on each of the others
    cases = [((2, 2), 31, 23), ((2, 2, 2), 32, 26), ((3, 3), 32, 19),
             ((5, 5), 32, 25), ((2,) * 5, 32, 32), ((4, 2), 32, 23),
             ((2, 2), 32, 32)]
    for m, bound, count in cases:
        assert ppsolve.count_types(FgGroup(m), bound, use_oracle=True) == count


def test_count_types_trivial_factors():
    # a coordinate ℤ/1 of M is a parameter 0 and adds no coordinate to N
    assert ppsolve.count_types(FgGroup((2, 1, 2)), 31) == 23
    start = time.perf_counter()
    assert ppsolve.count_types(FgGroup((1,) * 64), 32) == 55
    assert time.perf_counter() - start < 5


def test_count_types_oracle_disagreement_raises(monkeypatch):
    monkeypatch.setattr(ppsolve, "_oracle_equal_emb", lambda *args: False)
    with pytest.raises(ppsolve.PpSolveError, match="disagree"):
        ppsolve.count_types(FgGroup(()), 4, use_oracle=True)


def test_oracle_drops_only_parameters_zero_on_both_sides(monkeypatch):
    N = FgGroup((2,))
    zero, one = N.zero(), N.element([1])
    # a parameter that is 0 on one side only still constrains: no
    # homomorphism sends 0 to 1
    assert not ppsolve._oracle_equal_emb(zero, [[0]], N, zero, [[1]], N)
    assert not ppsolve._oracle_equal_emb(zero, [[1]], N, zero, [[0]], N)
    counts = []
    real = ppsolve.constrained_hom_exists

    def spy(source, target, constraints):
        counts.append(len(constraints))
        return real(source, target, constraints)

    monkeypatch.setattr(ppsolve, "constrained_hom_exists", spy)
    emb = [[0], [1], [0]]  # parameters ℤ/1 + ℤ/2 + ℤ/1
    assert ppsolve._oracle_equal_emb(one, emb, N, one, emb, N)
    assert not ppsolve._oracle_equal_emb(zero, emb, N, one, emb, N)
    # each call gets the nonzero parameter and (a1, a2); the second oracle
    # stops after its first direction fails
    assert counts == [2, 2, 2]


def test_hom_oracle_builds_one_abstract_form_for_one_subgroup(monkeypatch):
    """With one parameter subgroup on both sides the oracle builds one
    abstract form; on every triple of the parameter group its verdicts are
    those from two forms built separately, and an equal copy of the
    subgroup gets the same verdicts."""
    N = FgGroup((4, 2, 2))
    S = Subgroup(N, [[2, 1, 0]])
    copy = Subgroup(N, S.basis)
    assert copy == S and copy is not S and is_pure(S, N)
    real = Subgroup.as_group_with_embedding
    emb, emb_copy = real(S)[1], real(copy)[1]
    calls = []

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Subgroup, "as_group_with_embedding", spy)
    verdicts = set()
    for a1 in N.elements():
        for a2 in N.elements():
            calls.clear()
            same = ppsolve.hom_oracle_equal(a1, S, N, a2, S, N)
            assert len(calls) == 1
            assert same == ppsolve._oracle_equal_emb(
                a1, emb, N, a2, emb_copy, N)
            assert ppsolve.hom_oracle_equal(a1, S, N, a2, copy, N) == same
            verdicts.add(same)
    assert verdicts == {False, True}


def test_trimmed_matches_its_definition():
    """_trimmed against the definition of the least clamp on seeded tables
    of frozensets: n = 1, constant tables, tables whose clamp is set only
    by their rows or only by their columns, and random tables with rows
    from r and columns from c on made equal."""
    a, b = frozenset(), frozenset({(1,)})
    tables = [((a,),), ((a, a), (a, a)), ((b,) * 3,) * 3,
              ((a, b), (a, b)),   # rows clamp at 0, columns at 1
              ((a, a), (b, b)),   # columns clamp at 0, rows at 1
              ((a, b, b), (a, b, b), (b, a, a)),
              ((a, b, a), (b, a, b), (b, a, b))]
    rng = random.Random(2002)
    pool = [frozenset(s) for s in ((), ((0,),), ((1,),), ((0,), (1,)))]
    for _ in range(400):
        n = rng.randint(1, 5)
        T = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
        r, c = rng.randrange(n), rng.randrange(n)
        for k in range(r + 1, n):
            T[k] = list(T[r])
        for row in T:
            row[c + 1:] = [row[c]] * (n - c - 1)
        tables.append(tuple(map(tuple, T)))
    for T in tables:
        assert ppsolve._trimmed(T) == trimmed_by_definition(T), T


def test_hom_oracle_rejects_parameters_of_another_group():
    Z2, Z4, Z6 = FgGroup((2,)), FgGroup((4,)), FgGroup((6,))
    foreign = (Z2.element([1]), Subgroup(Z4, [[2]]), Z2)
    own = (Z6.element([3]), Subgroup(Z6, [[3]]), Z6)
    for args in (foreign + own, own + foreign):
        with pytest.raises(ppsolve.PpSolveError):
            ppsolve.hom_oracle_equal(*args)
