import random

import pytest

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


def test_subgroup_elements_match_order():
    M = FgGroup((4, 2, 3))
    S = Subgroup.from_generators(M, [M.element([2, 1, 0]), M.element([0, 0, 1])])
    els = list(S.elements())
    assert len(els) == S.order() == len(set(e.coords for e in els))


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
    assert MAX_SUBGROUPS_ORDER == 32
    assert len(all_subgroups(FgGroup((32,)))) == 6  # at the limit
    for moduli in ((33,), (2,) * 6):
        with pytest.raises(GroupError, match="limit 32"):
            all_subgroups(FgGroup(moduli))


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
