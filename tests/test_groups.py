import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pptor import corpus
from pptor.groups import (
    MAX_RANK,
    MAX_SUBGROUPS_ORDER,
    TRIAL_DIVISION_LIMIT,
    FgGroup,
    GroupError,
    Homomorphism,
    Subgroup,
    abelian_groups_of_order,
    abelian_groups_upto,
    all_subgroups,
    direct_sum,
    factorize,
    is_isomorphic,
    parse_group,
    quotient,
)


def test_invariant_factors():
    assert FgGroup((4, 2)).invariant_factors == (2, 4)
    assert FgGroup((2, 3)).invariant_factors == (6,)
    assert FgGroup((0, 6, 4)).invariant_factors == (2, 12)
    assert FgGroup((0, 6, 4)).free_rank == 1


def test_parse_group_dsl():
    assert parse_group("Z/4 + Z/2").moduli == (4, 2)
    assert parse_group("Z^2 + Z/3").moduli == (0, 0, 3)
    assert parse_group("(Z/2)^3").moduli == (2, 2, 2)
    assert parse_group("0").moduli == ()
    with pytest.raises(GroupError):
        parse_group("Z/")
    assert parse_group("(Z/2)^40 + Z^24").rank == MAX_RANK == 64
    assert parse_group("0^1000000000000").moduli == ()
    for text in ("(Z/2)^40 + Z^25", "(Z/2 + Z)^33", "(Z/2)^1000000000000"):
        with pytest.raises(GroupError, match="limit 64"):
            parse_group(text)


@given(st.lists(st.one_of(st.just(0), st.integers(1, 10**12)),
                max_size=MAX_RANK))
def test_parse_group_roundtrip(moduli):
    G = FgGroup(tuple(moduli))
    assert parse_group(str(G)).moduli == G.moduli


def test_element_arithmetic():
    M = FgGroup((4, 2))
    a = M.element([3, 1])
    b = M.element([2, 1])
    assert (a + b).coords == (1, 0)
    assert (-a).coords == (1, 1)
    assert (2 * a).coords == (2, 0)
    assert M.zero().coords == (0, 0)


def test_order_and_exponent():
    M = FgGroup((4, 6))
    assert M.order() == 24
    assert M.exponent() == 12
    assert FgGroup((0, 2)).order() == float("inf")
    with pytest.raises(GroupError, match="finite groups only"):
        FgGroup((0, 2)).exponent()


@given(st.lists(st.integers(1, 60), max_size=5))
@example([])
@example([1, 1])
def test_order_and_exponent_match_invariant_factors(moduli):
    """order() and exponent() come from the moduli; the invariant factors
    (a Smith form) give the same values, with Z/1 factors and M = 0."""
    M = FgGroup(moduli)
    inv = M.invariant_factors
    assert M.order() == math.prod(inv)
    assert M.exponent() == (inv[-1] if inv else 1)


def test_subgroup_canonical_under_generator_shuffle():
    rng = random.Random(6)
    for _ in range(100):
        M = corpus.random_group(rng)
        gens = [corpus.random_element(rng, M) for _ in range(3)]
        S1 = Subgroup.from_generators(M, gens)
        rng.shuffle(gens)
        gens.append(gens[0] + gens[-1])
        S2 = Subgroup.from_generators(M, gens)
        assert S1 == S2


def test_full_subgroup_is_built_once():
    for M in (FgGroup((4, 6)), FgGroup((0, 2)), FgGroup(())):
        full = M.full_subgroup()
        assert full is M.full_subgroup()
        assert full == Subgroup(M, [[1 if j == i else 0 for j in range(M.rank)]
                                    for i in range(M.rank)])
        assert full.order() == M.order()


def test_lagrange_and_quotient():
    rng = random.Random(7)
    for _ in range(100):
        M = corpus.random_group(rng, free_ok=False)
        H = corpus.random_subgroup(rng, M)
        Q = quotient(M, H)
        assert M.order() == H.order() * Q.order()


def test_as_group_with_embedding():
    M = FgGroup((8, 2))
    S = Subgroup.from_generators(M, [M.element([2, 1])])
    G, emb = S.as_group_with_embedding()
    assert G.order() == S.order() == 4
    gen_images = [M.element(r) for r in emb]
    T = Subgroup.from_generators(M, gen_images)
    assert T == S
    rng = random.Random(12)
    for _ in range(100):
        M = corpus.random_group(rng)
        S = corpus.random_subgroup(rng, M)
        G, emb = S.as_group_with_embedding()
        # Homomorphism checks that each generator's order divides its modulus
        assert Homomorphism(G, M, emb).image() == S
        if M.is_finite:
            assert G.order() == S.order()


def _closure(M, gens):
    """The subgroup generated by gens, by closing {0} under adding them."""
    span = {M.zero()}
    frontier = list(span)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                b = a + M.element(g)
                if b not in span:
                    span.add(b)
                    new.append(b)
        frontier = new
    return span


@st.composite
def _group_and_torsion_gens(draw):
    """A group of rank ≤ 3, free coordinates included, and two lists of
    generators that are 0 on the free coordinates, so they span finite
    subgroups."""
    moduli = draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6)), min_size=1,
                           max_size=3))
    gen = st.tuples(*(st.just(0) if m == 0 else st.integers(-7, 7)
                      for m in moduli))
    gens = st.lists(gen, max_size=3)
    return FgGroup(moduli), draw(gens), draw(gens)


@given(_group_and_torsion_gens())
@example((FgGroup((4, 2, 3)), [(2, 1, 0), (0, 0, 1)], [(1, 0, 0)]))
def test_subgroup_elements_match_order(case):
    M, g1, g2 = case
    S, T = Subgroup.from_generators(M, g1), Subgroup.from_generators(M, g2)
    span_s, span_t = _closure(M, g1), _closure(M, g2)
    els = list(S.elements())
    assert S.order() == len(els) == len(span_s) and set(els) == span_s
    meet = S.intersection(T)
    assert set(meet.elements()) == span_s & span_t
    assert S.sum(T).order() == len(_closure(M, g1 + g2))
    assert meet.index_in(S) == len(span_s) // len(span_s & span_t)


def test_subgroup_rejects_rows_of_the_wrong_length():
    for moduli in ((4, 6), (0, 6)):
        M = FgGroup(moduli)
        for row in ([1, 2, 3], [1]):
            with pytest.raises(GroupError, match="need 2 coordinates"):
                Subgroup(M, [row])


def test_classification_counts():
    assert len(abelian_groups_of_order(16)) == 5
    assert len(abelian_groups_of_order(36)) == 4
    assert len(abelian_groups_of_order(1)) == 1
    assert len(abelian_groups_upto(8)) == 1 + 1 + 1 + 2 + 1 + 1 + 1 + 3


def test_all_subgroups_counts():
    assert len(all_subgroups(FgGroup((4, 2)))) == 8
    assert len(all_subgroups(FgGroup((2, 2, 2)))) == 16  # 1+7+7+1
    assert len(all_subgroups(FgGroup((9,)))) == 3


def test_all_subgroups_order_limit():
    assert MAX_SUBGROUPS_ORDER == 64
    assert len(all_subgroups(FgGroup((2,) * 6))) == 2825  # at the limit
    for moduli in ((65,), (2,) * 7):
        with pytest.raises(GroupError, match="limit 64"):
            all_subgroups(FgGroup(moduli))


def _subgroups_by_closure(M):
    """Reference for all_subgroups: close {0} under adding elements, one
    hermite_mod per (subgroup, element) pair, sorted by (order, basis)."""
    elems = list(M.elements())
    zero = M.zero_subgroup()
    seen = {zero.basis: zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for H in frontier:
            for a in elems:
                if H.contains(a):
                    continue
                H2 = Subgroup(M, list(H.basis) + [list(a.coords)])
                if H2.basis not in seen:
                    seen[H2.basis] = H2
                    nxt.append(H2)
        frontier = nxt
    return sorted(seen.values(), key=lambda H: (H.order(), H.basis))


def _assert_same_subgroups(moduli):
    M = FgGroup(moduli)
    # the order matters too: the benchmark shuffles this list with a seed
    assert [H.basis for H in all_subgroups(M)] == \
        [H.basis for H in _subgroups_by_closure(M)], moduli


def test_all_subgroups_match_closure():
    tuples = {p for G in abelian_groups_upto(32)
              for p in itertools.permutations(G.moduli)}
    tuples |= {(1,), (1, 1), (1, 2), (2, 1, 3), (4, 1, 2, 1), (1, 8, 1, 4)}
    for moduli in sorted(tuples):
        _assert_same_subgroups(moduli)


def test_all_subgroups_match_closure_order_64():
    for moduli in ((4, 4, 4), (2, 2, 4, 4), (4, 2, 4, 2), (16, 4)):
        _assert_same_subgroups(moduli)


def test_from_hnf_checks_its_basis():
    M = FgGroup((4, 2))
    assert Subgroup._from_hnf(M, [[2, 1], [0, 2]]) == Subgroup(M, [[2, 1]])
    bad = [
        ([[2, 1]], "2 × 2"),                      # not square
        ([[2, 1], [1, 1]], "left of its pivot"),  # not upper triangular
        ([[3, 0], [0, 1]], "does not divide"),    # pivot 3 ∤ 4
        ([[0, 0], [0, 1]], "does not divide"),    # pivot 0
        ([[2, 2], [0, 2]], "not reduced"),        # 2 ∉ [0, 2)
        ([[2, -1], [0, 2]], "not reduced"),
    ]
    for basis, message in bad:
        with pytest.raises(GroupError, match=message):
            Subgroup._from_hnf(M, basis)
    # in (ℤ/2)², the lattice of (2, 1) and (0, 2) misses 2·e_0
    with pytest.raises(GroupError, match="not in the lattice"):
        Subgroup._from_hnf(FgGroup((2, 2)), [[2, 1], [0, 2]])
    with pytest.raises(GroupError, match="infinite"):
        Subgroup._from_hnf(FgGroup((0,)), [[1]])


def test_is_isomorphic():
    assert is_isomorphic(FgGroup((2, 3)), FgGroup((6,)))
    assert not is_isomorphic(FgGroup((4,)), FgGroup((2, 2)))
    assert is_isomorphic(direct_sum(FgGroup((2,)), FgGroup((3,))), FgGroup((6,)))


def test_homomorphism_validation():
    M, N = FgGroup((4,)), FgGroup((2,))
    Homomorphism(M, N, [[1]])  # 4·1 = 0 in Z/2
    M2, N2 = FgGroup((2,)), FgGroup((4,))
    with pytest.raises(GroupError):
        Homomorphism(M2, N2, [[1]])  # 2·1 ≠ 0 in Z/4


def test_homomorphism_image():
    M, N = FgGroup((4, 2)), FgGroup((8,))
    h = Homomorphism(M, N, [[2], [4]])
    assert h(M.element([1, 1])).coords == (6,)
    assert h.image().order() == 4


def test_factorize():
    for n in range(1, 2000):
        f = factorize(n)
        assert list(f) == sorted(f)
        prod = 1
        for p, v in f.items():
            assert v >= 1 and all(p % d for d in range(2, p))
            prod *= p ** v
        assert prod == n
    assert factorize(1000000007) == {1000000007: 1}
    assert factorize(2 ** 40 * 999983) == {2: 40, 999983: 1}
    big = 1000003 * 1000033  # both prime, beyond the trial division limit
    with pytest.raises(GroupError, match=str(TRIAL_DIVISION_LIMIT)):
        factorize(big)
    with pytest.raises(GroupError):
        factorize(0)
