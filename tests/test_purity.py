import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference import is_pure_via_splitting

from pptor import corpus, purity
from pptor.groups import (
    FgGroup,
    GroupError,
    Subgroup,
    abelian_groups_upto,
    all_subgroups,
    factorize,
    is_isomorphic,
    quotient,
)


def test_socle_of_z4_not_pure():
    M = FgGroup((4,))
    H = Subgroup.from_generators(M, [M.element([2])])
    assert not purity.is_pure(H, M)
    n, a = purity.purity_witness(H, M)
    assert n == 2 and a.coords == (2,)
    # the witness is the first element outside 2H in the coordinate order
    # of 2M ∩ H's abstract form, not its first Hermite row (2, 0)
    M = FgGroup((4, 3))
    H = Subgroup.from_generators(M, [M.element([2, 0]), M.element([0, 1])])
    n, a = purity.purity_witness(H, M)
    assert n == 2 and a.coords == (2, 1)
    M = FgGroup((4, 4))
    H = Subgroup.from_generators(M, [M.element([2, 0]), M.element([0, 2])])
    n, a = purity.purity_witness(H, M)
    assert n == 2 and a.coords == (0, 2)


def test_direct_summand_is_pure():
    M = FgGroup((4, 2))
    H = Subgroup.from_generators(M, [M.element([0, 1])])
    assert purity.is_pure(H, M)
    assert purity.purity_witness(H, M) is None


def test_2z_in_z_not_pure():
    # with a ℤ factor the top power of the lcm e of the torsion exponents
    # of M and M/H is tested too, and can be the least failure: e = 2 for
    # 2ℤ ≤ ℤ, and e = 4 for ⟨(2, 1)⟩ ≤ ℤ ⊕ ℤ/2, pure at 2 but not at 4
    for moduli, gen, witness in (((0,), [2], (2, (2,))),
                                 ((0, 2), [2, 1], (4, (4, 0)))):
        M = FgGroup(moduli)
        H = Subgroup.from_generators(M, [M.element(gen)])
        assert not purity.is_pure(H, M)
        n, a = purity.purity_witness(H, M)
        assert (n, a.coords) == witness
        assert n == max(purity._prime_powers(
            M.moduli + quotient(M, H).moduli, with_top=True))


def test_top_prime_power_never_fails_in_a_finite_group():
    """n·M ∩ H = n·H at n = p^K, K = v_p(exp M), for every prime p of
    exp M, on every subgroup of every group of order ≤ 64, factors as
    listed and reversed: n·M = M_{p′} there, so both sides are H_{p′}.
    That is why a finite M does not test that power."""
    pairs = 0
    for G in abelian_groups_upto(64):
        for M in (G, FgGroup(G.moduli[::-1])):
            tops = [p ** k for p, k in factorize(M.exponent()).items()]
            for H in all_subgroups(M):
                assert all(purity._pure_at(n, H, M) for n in tops)
                pairs += 1
    assert pairs == 12044


# Subgroups of Z + Z/p + Z/q for primes 3 ≤ p < q, each with its
# purity witness (n, coordinates) or None, both written in p and q.
_TWO_PRIME_CASES = [
    lambda p, q: ([(0, 1, 1)], None),
    lambda p, q: ([(1, 1, 0)], None),
    lambda p, q: ([(1, 1, 1)], None),
    lambda p, q: ([(q, 0, 0)], (q, (q, 0, 0))),
    lambda p, q: ([(0, 0, 1), (2, 0, 0)], (2, (2, 0, 0))),
    lambda p, q: ([(p * q, 0, 0), (0, 1, 0)], (p, (p * q, 0, 0))),
    lambda p, q: ([(p, 1, 0)], (p * p, (p * p, 0, 0))),
]


def test_purity_with_free_part_and_primes_near_10_12():
    # 999999999959 · 999999999989 has no prime factor up to the trial
    # division limit; the small primes 3 and 5 give the same answers
    for p, q in ((3, 5), (999999999959, 999999999989)):
        M = FgGroup((0, p, q))
        for case in _TWO_PRIME_CASES:
            gens, witness = case(p, q)
            H = Subgroup(M, [list(g) for g in gens])
            assert purity.is_pure(H, M) == (witness is None)
            w = purity.purity_witness(H, M)
            assert (w and (w[0], w[1].coords)) == witness


def _scaled(M, n, S):
    return Subgroup(M, [[n * v for v in row] for row in S.basis])


def _least_failure_by_intersection(H, M):
    """The reference: the least n with n·M ∩ H ≠ n·H, by building both
    subgroups for every n up to the lcm of the torsion exponents of M and
    M/H (exp(M) for finite M), or None."""
    e = math.lcm(*(m for m in M.moduli + quotient(M, H).moduli if m))
    for n in range(1, e + 1):
        meet = _scaled(M, n, M.full_subgroup()).intersection(H)
        if meet != _scaled(M, n, H):
            return n
    return None


def _shuffled_with_trivial_factors(rng, moduli):
    """moduli in a seeded order, with up to two Z/1 factors inserted."""
    moduli = list(moduli)
    rng.shuffle(moduli)
    for _ in range(rng.randint(0, 2)):
        moduli.insert(rng.randint(0, len(moduli)), 1)
    return FgGroup(moduli)


def test_purity_by_orders_matches_intersection_criterion():
    """is_pure and purity_witness, which decide by orders, against the
    intersection criterion on every subgroup of every group of order ≤ 32,
    each with its factors in a seeded order and with Z/1 factors."""
    rng = random.Random(1332)
    pairs = impure = 0
    for G in abelian_groups_upto(32):
        for M in (G, _shuffled_with_trivial_factors(rng, G.moduli)):
            for H in all_subgroups(M):
                n = _least_failure_by_intersection(H, M)
                assert purity.is_pure(H, M) == (n is None)
                w = purity.purity_witness(H, M)
                assert (None if w is None else w[0]) == n
                if w is not None:
                    a = w[1]
                    assert H.contains(a)
                    assert _scaled(M, n, M.full_subgroup()).contains(a)
                    assert not _scaled(M, n, H).contains(a)
                    impure += 1
                pairs += 1
    assert (pairs, impure) == (2060, 246)


def test_purity_with_free_parts_matches_intersection_criterion():
    """is_pure and purity_witness, which decide by indices, against the
    intersection criterion on 1,500 seeded (M, H), each M of rank ≤ 4 with
    at least one ℤ factor and H spanned by 1–2 rows with entries in −6..6."""
    rng = random.Random(1718)
    impure = 0
    for _ in range(1500):
        rank = rng.randint(1, 4)
        moduli = [rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(rank)]
        moduli[rng.randrange(rank)] = 0
        M = FgGroup(moduli)
        H = Subgroup(M, [[rng.randint(-6, 6) for _ in range(rank)]
                         for _ in range(rng.randint(1, 2))])
        n = _least_failure_by_intersection(H, M)
        assert purity.is_pure(H, M) == (n is None)
        w = purity.purity_witness(H, M)
        assert (None if w is None else w[0]) == n
        if w is not None:
            a = w[1]
            assert H.contains(a) and not _scaled(M, n, H).contains(a)
            assert _scaled(M, n, M.full_subgroup()).contains(a)
            impure += 1
    assert impure == 949


def test_pure_iff_splitting_random_with_free_parts():
    rng = random.Random(33)
    infinite = 0
    for _ in range(300):
        M = corpus.random_group(rng)
        H = corpus.random_subgroup(rng, M)
        infinite += not M.is_finite
        pure = purity.is_pure(H, M)
        assert pure == is_pure_via_splitting(H, M)
        w = purity.purity_witness(H, M)
        assert (w is None) == pure
        if w is not None:
            n, a = w
            assert H.contains(a) and _scaled(M, n, M.full_subgroup()).contains(a)
            assert not _scaled(M, n, H).contains(a)
    assert infinite >= 50


@st.composite
def _subgroups_with_free_parts(draw):
    M = FgGroup(tuple(draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 8, 9)),
                                    min_size=1, max_size=3))))
    gens = draw(st.lists(st.lists(st.integers(-12, 12), min_size=M.rank,
                                  max_size=M.rank), max_size=3))
    return Subgroup.from_generators(M, [M.element(g) for g in gens]), M


@given(_subgroups_with_free_parts())
def test_pure_iff_splitting_property(case):
    H, M = case
    assert purity.is_pure(H, M) == is_pure_via_splitting(H, M)


def test_pure_iff_splitting_exhaustive_small():
    for M in abelian_groups_upto(16):
        for H in all_subgroups(M):
            assert purity.is_pure(H, M) == is_pure_via_splitting(H, M)


def test_splitting_rejects_subgroup_of_another_group():
    H = Subgroup(FgGroup((4,)), [[2]])
    with pytest.raises(GroupError, match="different group"):
        is_pure_via_splitting(H, FgGroup((2,)))


def _checked_complement(H, M):
    """complement(H, M), checked: it exists iff H is pure, and then
    H + K = M, H ∩ K = 0 and K ≅ M/H."""
    K = purity.complement(H, M)
    assert (K is not None) == purity.is_pure(H, M)
    if K is not None:
        assert H.sum(K) == M.full_subgroup()
        assert H.intersection(K).order() == 1
        assert is_isomorphic(K.as_group(), quotient(M, H))
    return K


def test_complement_properties():
    """Every subgroup of every group of order ≤ 32, with the factors as
    listed and again in a seeded order with a Z/1 coordinate inserted."""
    rng = random.Random(3202)
    pairs = summands = 0
    for G in abelian_groups_upto(32):
        moduli = list(G.moduli)
        rng.shuffle(moduli)
        moduli.insert(rng.randint(0, len(moduli)), 1)
        for M in (G, FgGroup(moduli)):
            for H in all_subgroups(M):
                summands += _checked_complement(H, M) is not None
                pairs += 1
    assert (pairs, summands) == (2060, 1814)


def test_complement_in_rank_64():
    """(Z/2)^64 with a seeded H of rank 1 and one of rank 63: the cost of a
    complement grows with the rank of M/H, so these are the two ends.
    Correctness only, with no time bound."""
    rng = random.Random(6401)
    M = FgGroup((2,) * 64)
    for r in (1, 63):
        H = M.zero_subgroup()
        while H.order() < 2 ** r:  # add seeded rows until H has rank r
            H = H.sum(Subgroup(M, [[rng.randrange(2) for _ in range(64)]]))
        assert _checked_complement(H, M).order() == 2 ** (64 - r)


def test_purity_refusals():
    M, N = FgGroup((4, 2)), FgGroup((2, 4))
    H = Subgroup(N, [[1, 0]])
    for call in (purity.is_pure, purity.purity_witness, purity.complement):
        with pytest.raises(GroupError, match="^subgroup of a different group$"):
            call(H, M)
    Z = FgGroup((0, 2))
    with pytest.raises(GroupError,
                       match="^complement search requires a finite group$"):
        purity.complement(Z.zero_subgroup(), Z)
    for p in (1, 4, 6):
        with pytest.raises(GroupError, match=f"^{p} is not prime$"):
            purity.primary_component(M, p)
    with pytest.raises(GroupError,
                       match="^primary components require a torsion group$"):
        purity.primary_component(Z, 2)


def test_complement_rejects_a_zero_section(monkeypatch):
    """complement checks its result: with every lift x_i = 0 in place of
    the section, K = 0, and H + K = H ≠ M."""
    real = purity._section

    def zero_section(H, M):
        x, V = real(H, M)
        return [[0] * M.rank for _ in x], V

    monkeypatch.setattr(purity, "_section", zero_section)
    M = FgGroup((4, 2))
    H = Subgroup.from_generators(M, [M.element([0, 1])])
    with pytest.raises(GroupError, match="not a direct complement"):
        purity.complement(H, M)
    # for H = M, M/H = 0 has no generator to lift, and K = 0
    assert purity.complement(M.full_subgroup(), M) == M.zero_subgroup()


def test_complement_rejects_the_section_of_another_subgroup(monkeypatch):
    """complement checks H + K = M, not only |H|·|K| = |M|: with the
    section of M → M/L for L = ⟨(0, 1)⟩ in place of that for H = ⟨(1, 0)⟩
    in (ℤ/2)², K = ⟨(1, 0)⟩ = H, of the right order but with H + K = H."""
    real = purity._section
    M = FgGroup((2, 2))
    L = Subgroup(M, [[0, 1]])
    monkeypatch.setattr(purity, "_section", lambda H, M: real(L, M))
    H = Subgroup(M, [[1, 0]])
    with pytest.raises(GroupError, match="not a direct complement"):
        purity.complement(H, M)


def test_section_refuses_a_smith_form_whose_p_is_not_integral(monkeypatch):
    """P = diag(m)·V·S⁻¹ is integral for every Smith form U·L·V = S of H's
    lattice; with each s_k doubled it is not, since column 1 of
    diag(m)·V·S⁻¹ is (1, 0) for H = ⟨(0, 1)⟩ in ℤ/4 ⊕ ℤ/2, and _section
    refuses it by a GroupError, which python -O keeps."""
    real = purity.smith_normal_form

    def doubled(A, transforms, carry=None):
        U, S, V, Vi = real(A, transforms, carry)
        return U, [[2 * v for v in row] for row in S], V, Vi

    monkeypatch.setattr(purity, "smith_normal_form", doubled)
    M = FgGroup((4, 2))
    H = Subgroup.from_generators(M, [M.element([0, 1])])
    with pytest.raises(GroupError) as exc:
        purity.complement(H, M)
    assert str(exc.value) == ("diag(m)·V·S⁻¹ is not integral: "
                              "not a Smith form of H's lattice")


def test_purity_and_complement_with_trivial_coordinates():
    M = FgGroup((1, 4, 1, 2))
    H = Subgroup.from_generators(M, [M.element([0, 0, 0, 1])])
    assert purity.is_pure(H, M) and purity.purity_witness(H, M) is None
    K = purity.complement(H, M)
    assert H.sum(K) == M.full_subgroup() and K.order() == 4
    assert H.intersection(K).order() == 1
    H = Subgroup.from_generators(M, [M.element([0, 2, 0, 0])])
    assert not purity.is_pure(H, M)
    n, a = purity.purity_witness(H, M)
    assert n == 2 and a.coords == (0, 2, 0, 0)
    assert purity.complement(H, M) is None
    M = FgGroup((1, 1))
    assert purity.is_pure(M.zero_subgroup(), M)
    assert purity.complement(M.zero_subgroup(), M) == M.full_subgroup()


def test_torsion_radical():
    M = FgGroup((0, 6, 4))
    T = purity.torsion_radical(M)
    assert T.order() == 24
    assert is_isomorphic(T.as_group(), FgGroup((6, 4)))
    assert purity.is_pure(T, M)
    assert purity.torsion_radical(quotient(M, T)).order() == 1


def _diagonal_rows(entries):
    return [[d if j == i else 0 for j in range(len(entries))]
            for i, d in enumerate(entries)]


def test_diagonal_subgroups_match_hermite_route():
    # the diagonal subgroups are built from their known HNF
    # (FgGroup.diagonal_subgroup), in any ambient; each basis must equal the
    # one Subgroup computes from the diagonal rows
    groups = abelian_groups_upto(64) + [FgGroup(m) for m in (
        (1,), (1, 1), (2, 1, 6), (9, 1, 3), (0,), (0, 0), (0, 6, 4),
        (4, 0, 1, 0), (1, 0, 12))]
    for M in groups:
        identity = _diagonal_rows([1] * M.rank)
        assert M.full_subgroup().basis == Subgroup(M, identity).basis
        assert M.zero_subgroup().basis == Subgroup(M, []).basis
        assert purity.torsion_radical(M).basis == Subgroup(
            M, _diagonal_rows([1 if m else 0 for m in M.moduli])).basis
        if M.is_finite:
            for p in (2, 3, 5, 7):
                parts = [m // math.gcd(m, p ** 6) for m in M.moduli]
                assert purity.primary_component(M, p).basis == \
                    Subgroup(M, _diagonal_rows(parts)).basis
        full = M.full_subgroup()
        for n in range(1, (M.exponent() if M.is_finite else 12) + 1):
            nM = purity._meet_and_multiple(n, full, M)[0]
            assert nM.basis == Subgroup(M, _diagonal_rows([n] * M.rank)).basis
    M = FgGroup((0, 6, 4))
    assert purity.torsion_radical(M).basis == ((0, 1, 0), (0, 0, 1))
    assert purity._meet_and_multiple(4, M.full_subgroup(), M)[0].basis \
        == ((4, 0, 0), (0, 2, 0), (0, 0, 4))


def test_torsion_functorial_random():
    rng = random.Random(14)
    for _ in range(60):
        M = corpus.random_group(rng)
        N = corpus.random_group(rng)
        f = corpus.random_homomorphism(rng, M, N)
        assert f.image_of_subgroup(purity.torsion_radical(M)) <= \
            purity.torsion_radical(N)


def test_primary_component():
    M = FgGroup((12, 18))
    P2 = purity.primary_component(M, 2)
    P3 = purity.primary_component(M, 3)
    assert P2.order() == 8
    assert P3.order() == 27
    assert P2.sum(P3) == M.full_subgroup()
    assert is_isomorphic(P2.as_group(), FgGroup((4, 2)))


def test_order_patterns():
    op = purity.OrderPattern
    assert purity.in_torsion_of_pe(op("zero"))
    assert purity.in_torsion_of_pe(op("finite-support", p=2, exponent=3))
    assert purity.in_torsion_of_pe(op("eventually-constant", p=3, exponent=2))
    assert not purity.in_torsion_of_pe(op("strictly-increasing", p=2))
