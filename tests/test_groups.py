import itertools
import math
import random
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import (
    factorize_by_trial_division,
    hermite_by_elimination,
    lattice_index,
    relation_basis,
    snf_diagonal,
)

from pptor import corpus
from pptor._lexer import int_digit_limit
from pptor.groups import (
    MAX_RANK,
    MAX_SUBGROUPS_ORDER,
    MILLER_RABIN_BOUND,
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
from pptor.intlinalg import hermite_row_basis, lattice_coords, smith_normal_form


def test_invariant_factors():
    assert FgGroup((4, 2)).invariant_factors == (2, 4)
    assert FgGroup((2, 3)).invariant_factors == (6,)
    assert FgGroup((0, 6, 4)).invariant_factors == (2, 12)
    assert FgGroup((0, 6, 4)).free_rank == 1


@given(st.lists(st.one_of(st.just(0), st.integers(1, 10**4),
                          st.sampled_from((1, 12, 1000036000099))),
                max_size=6))
@example([])
@example([0])
@example([1, 1])
@example([1000036000099, 6, 0])
def test_invariant_factors_match_smith_form(moduli):
    # the gcd/lcm pass over the moduli against the Smith form of diag(m)
    M = FgGroup(moduli)
    rel = relation_basis(M)
    diag = [d for d in (snf_diagonal(rel) if rel else []) if d]
    assert M.invariant_factors == tuple(d for d in diag if d != 1)
    assert M.free_rank == M.rank - len(diag)


@given(st.lists(st.tuples(st.sampled_from((0, 1, 2, 3, 4, 6, 12)),
                          st.integers(-12, 12)), max_size=5))
@example([(0, 0), (0, -3), (4, 0), (6, 4), (1, 5)])
def test_diagonal_lattices_are_hermite(pairs):
    # diagonal_subgroup writes its basis down: it must be the elimination
    # HNF of the rows d_j·e_j together with the relations m_j·e_j
    M = FgGroup([m for m, _ in pairs])
    entries = [d for _, d in pairs]
    rows = [[d if j == i else 0 for j in range(M.rank)]
            for i, d in enumerate(entries)]
    assert [list(r) for r in M.diagonal_subgroup(entries).basis] == \
        hermite_by_elimination(rows + relation_basis(M))


def test_parse_group_dsl():
    assert parse_group("Z/4 + Z/2").moduli == (4, 2)
    assert parse_group("Z^2 + Z/3").moduli == (0, 0, 3)
    assert parse_group("(Z/2)^3").moduli == (2, 2, 2)
    assert parse_group("0").moduli == ()
    for text, message in (
            ("Z/", "expected 'int', got end of input in group expression"),
            ("Z/4+", "unexpected end of input in group expression"),
            ("(Z/4", "expected ')', got end of input in group expression")):
        with pytest.raises(GroupError) as exc:
            parse_group(text)
        assert str(exc.value) == message
    assert parse_group("(Z/2)^40 + Z^24").rank == MAX_RANK == 64
    assert parse_group("0^1000000000000").moduli == ()
    for text in ("(Z/2)^40 + Z^25", "(Z/2 + Z)^33", "(Z/2)^1000000000000"):
        with pytest.raises(GroupError, match="limit 64"):
            parse_group(text)


def test_parse_group_reads_ascii_digits_up_to_the_literal_limit():
    limit = int_digit_limit()
    cases = [("Z/²", "unexpected character '²' in group expression"),
             ("Z/٣", "unexpected character '٣' in group expression"),
             ("(Z/4)^٣", "unexpected character '٣' in group expression")]
    if 0 < limit < 5000:  # a limit of 0 means none
        cases.append(("Z/" + "7" * 5000,
                      f"integer literal of 5000 digits exceeds the limit of "
                      f"{limit} digits in group expression"))
    for text, message in cases:
        with pytest.raises(GroupError) as exc:
            parse_group(text)
        assert str(exc.value) == message
    if limit:
        assert parse_group("Z/" + "7" * limit).moduli == (int("7" * limit),)


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
        assert G.order() == S.order()


def _abstract_form_by_general_route(H):
    """Reference for as_group_with_embedding: the coordinates of each
    m_i·e_i in H's basis, their HNF by gcd elimination, the full Smith
    form with V⁻¹, and the generators times the basis as a dense product."""
    L = [list(r) for r in H.basis]
    rel = hermite_by_elimination(
        [lattice_coords(L, r) for r in relation_basis(H.ambient)])
    _, S, _, Vi = smith_normal_form(rel)
    keep = [i for i in range(len(L)) if S[i][i] != 1]
    emb = [[sum(Vi[i][k] * L[k][j] for k in range(len(L)))
            for j in range(len(L[0]))] for i in keep]
    return tuple(S[i][i] for i in keep), emb


def _shuffled_with_trivial_factors(rng, moduli):
    """moduli in a seeded order, with up to two Z/1 factors inserted."""
    moduli = list(moduli)
    rng.shuffle(moduli)
    for _ in range(rng.randint(0, 2)):
        moduli.insert(rng.randint(0, len(moduli)), 1)
    return FgGroup(moduli)


def test_abstract_form_matches_general_route():
    """The abstract form of a finite subgroup, built from its square HNF,
    equals the general route's on every subgroup of every group of order
    ≤ 32 as listed and with its factors shuffled and Z/1 factors inserted,
    and on a few order-64 groups."""
    rng = random.Random(1414)
    groups = [M for G in abelian_groups_upto(32)
              for M in (G, _shuffled_with_trivial_factors(rng, G.moduli))]
    groups += [FgGroup(m) for m in ((4, 1, 4, 4), (2, 4, 2, 4), (16, 1, 4))]
    pairs = 0
    for M in groups:
        for H in all_subgroups(M):
            G, emb = H.as_group_with_embedding()
            assert (G.moduli, emb) == _abstract_form_by_general_route(H), \
                (M.moduli, H.basis)
            pairs += 1
    assert pairs == 2060 + 129 + 249 + 29


def test_abstract_form_rejects_a_basis_missing_a_relation():
    """A basis whose lattice misses some m_i·e_i is refused by a GroupError,
    which python -O keeps."""
    M = FgGroup((2, 2))
    H = Subgroup.__new__(Subgroup)
    H.ambient, H.basis = M, ((4, 0), (0, 1))  # misses 2·e_0
    with pytest.raises(GroupError, match="relation row outside"):
        H.as_group_with_embedding()
    H.basis = ((1, 1), (0, 4))  # misses 2·e_1
    with pytest.raises(GroupError, match="relation row outside"):
        H.as_group_with_embedding()
    # 2·e_0 − 2·(row 0) = (0, 0, −2): the remainder fails pivot 4 two
    # columns right of the diagonal
    H.ambient = FgGroup((2, 2, 2))
    H.basis = ((1, 0, 1), (0, 1, 0), (0, 0, 4))
    with pytest.raises(GroupError, match="relation row outside"):
        H.as_group_with_embedding()


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


@st.composite
def _nested_subgroups(draw):
    """S ⊆ T in a group of rank ≤ 4 with free and trivial coordinates: T
    from drawn generators, S from integer combinations of T's rows."""
    M = FgGroup(draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 9, 12)),
                              max_size=4)))
    row = st.lists(st.integers(-12, 12), min_size=M.rank, max_size=M.rank)
    T = Subgroup(M, draw(st.lists(row, max_size=3)))
    combo = st.lists(st.integers(-3, 3), min_size=len(T.basis),
                     max_size=len(T.basis))
    S = Subgroup(M, [[sum(c * r[j] for c, r in zip(cs, T.basis))
                      for j in range(M.rank)]
                     for cs in draw(st.lists(combo, max_size=3))])
    return M, S, T


@given(_nested_subgroups())
@example((FgGroup((0, 6)), Subgroup(FgGroup((0, 6)), [[2, 2]]),
          Subgroup(FgGroup((0, 6)), [[1, 1]])))
@example((FgGroup((0, 6)), FgGroup((0, 6)).zero_subgroup(),
          Subgroup(FgGroup((0, 6)), [[1, 1]])))
def test_order_and_index_match_determinant_reference(case):
    """order() and index_in(), read off the Hermite pivots, against indices
    of lattices by determinants (None: infinite)."""
    M, S, T = case
    assert S <= T
    for H in (S, T):
        idx = lattice_index(H.basis, relation_basis(M))
        assert H.order() == (math.inf if idx is None else idx)
    idx = lattice_index(T.basis, S.basis)
    assert S.index_in(T) == (math.inf if idx is None else idx)


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
    Subgroup per (subgroup, element) pair, sorted by (order, basis)."""
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
        ([[2, 1]], "column 1 of modulus 2 has no pivot"),
        ([[2, 1], [1, 1]], "left of its pivot"),  # not echelon
        ([[3, 0], [0, 1]], "not a positive divisor"),  # pivot 3 ∤ 4
        ([[0, 0], [0, 1]], "column 0 of modulus 4 has no pivot"),
        ([[2, 2], [0, 2]], "not reduced"),        # 2 ∉ [0, 2)
        ([[2, -1], [0, 2]], "not reduced"),
        ([[2, 1, 0], [0, 2, 0]], "needs 2 entries"),
    ]
    for basis, message in bad:
        with pytest.raises(GroupError, match=message):
            Subgroup._from_hnf(M, basis)
    # in (ℤ/2)², the lattice of (2, 1) and (0, 2) misses 2·e_0
    with pytest.raises(GroupError, match="not in the lattice"):
        Subgroup._from_hnf(FgGroup((2, 2)), [[2, 1], [0, 2]])
    # a column ℤ takes any positive pivot, or none, and then its entries
    # are free; an entry above a ℤ pivot is reduced like any other
    ZZ4 = FgGroup((0, 0, 4))
    for basis in ([[3, 7, 1], [0, 0, 2]], [[0, 5, 3], [0, 0, 4]],
                  [[0, 0, 1]], [[2, -9, 0], [0, 0, 4]]):
        assert Subgroup._from_hnf(ZZ4, basis) == Subgroup(ZZ4, basis)
    for basis, message in (
            ([[-3, 7, 1], [0, 0, 2]], "pivot -3 in column 0 is not a positive"),
            ([[0, -5, 3], [0, 0, 4]], "pivot -5 in column 1 is not a positive"),
            ([[1, 3, 0], [0, 2, 0], [0, 0, 4]], "entry 3 of row 0 is not reduced"),
            ([[1, -1, 0], [0, 2, 0], [0, 0, 4]], "entry -1 of row 0 is not reduced"),
            ([[1, 0, 0], [0, 0, 0], [0, 0, 4]], "column 2 of modulus 4 has no"),
            ([[0, 1, 0], [1, 0, 0], [0, 0, 4]], "left of its pivot")):
        with pytest.raises(GroupError, match=message):
            Subgroup._from_hnf(ZZ4, basis)
    with pytest.raises(GroupError, match="row 1 is zero"):
        Subgroup._from_hnf(FgGroup((0, 0)), [[1, 0], [0, 0]])


def _moved_bases(M, H):
    """Each basis of H with one entry moved by ±1."""
    for i, j, delta in itertools.product(
            range(len(H.basis)), range(M.rank), (1, -1)):
        B = [list(row) for row in H.basis]
        B[i][j] += delta
        yield B


def _accepted_exactly_when_hermite(M, B) -> bool:
    """_from_hnf accepts B exactly when B is the HNF of its own rows over
    the ambient's moduli, and refuses it by a GroupError otherwise."""
    hermite = hermite_row_basis(B, M.moduli) == B
    try:
        K = Subgroup._from_hnf(M, B)
    except GroupError:
        assert not hermite, (M.moduli, B)
        return False
    assert hermite, (M.moduli, B)
    assert K == Subgroup(M, B)
    return True


def test_from_hnf_accepts_exactly_the_hermite_forms():
    """Every basis entry of every subgroup of every group of order ≤ 32,
    and of seeded subgroups of groups with ℤ factors, moved by ±1."""
    subgroups = accepted = 0
    for M in abelian_groups_upto(32):
        for H in all_subgroups(M):
            subgroups += 1
            accepted += sum(_accepted_exactly_when_hermite(M, B)
                            for B in _moved_bases(M, H))
    assert (subgroups, accepted) == (1030, 4170)
    rng = random.Random(2510)
    subgroups = accepted = 0
    for moduli in ((0,), (0, 4), (4, 0), (0, 0, 6), (6, 0, 0), (0, 12, 0),
                   (2, 0, 3, 0)):
        M = FgGroup(moduli)
        for H in [M.full_subgroup(), M.zero_subgroup()] + [
                corpus.random_subgroup(rng, M) for _ in range(40)]:
            subgroups += 1
            accepted += sum(_accepted_exactly_when_hermite(M, B)
                            for B in _moved_bases(M, H))
    assert (subgroups, accepted) == (294, 709)


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


def test_homomorphism_rejects_ill_defined_rows():
    # the message shows the image row reduced as an element of the target
    Z3, Z6 = FgGroup((3,)), FgGroup((6,))
    ZZ4 = FgGroup((0, 4))
    Homomorphism(Z6, ZZ4, [[0, 2]])  # 6·2 ≡ 0 (mod 4), 6·0 = 0 in Z
    Homomorphism(Z3, FgGroup((0, 6)), [[0, -10]])  # 3·(−10) ≡ 0 (mod 6)
    Homomorphism(FgGroup((0,)), ZZ4, [[5, 1]])  # a free source row is free
    for source, row, text in (
            (Z3, [0, 5], "3·(0, 1) ≠ 0 in target"),  # 3·5 ≢ 0 (mod 4)
            (Z6, [1, 0], "6·(1, 0) ≠ 0 in target"),  # 6·1 ≠ 0 in Z
            (Z6, [-2, 6], "6·(-2, 2) ≠ 0 in target")):
        with pytest.raises(GroupError, match=re.escape(
                f"incompatible homomorphism: {text}")):
            Homomorphism(source, ZZ4, [row])


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


def test_factorize_agrees_with_trial_division():
    """Miller–Rabin only ends the search early: every n ≤ 20,000, every n
    around the trial division limit and seeded n < 10^12 factor as plain
    trial division factors them.  (Every n ≤ 10^6 agrees too; that check
    takes about 30 s.)"""
    rng = random.Random(27)
    ns = [*range(1, 20_001),
          *range(TRIAL_DIVISION_LIMIT - 1000, TRIAL_DIVISION_LIMIT + 1000),
          *(rng.randrange(1, 10**12) for _ in range(100)),
          # a small factor times a cofactor above the limit, prime or not
          *(rng.randrange(1, 1000) * rng.randrange(TRIAL_DIVISION_LIMIT, 10**9)
            for _ in range(100)),
          3215031751]  # 151·751·28351, a strong pseudoprime to bases 2–7
    assert [factorize(n) for n in ns] == \
        [factorize_by_trial_division(n) for n in ns]


def test_factorize_certifies_a_prime_cofactor():
    m61 = 2**61 - 1  # a Mersenne prime, past the reach of trial division
    assert factorize(m61) == {m61: 1}
    assert factorize(3 * 5**2 * m61) == {3: 1, 5: 2, m61: 1}
    # strong pseudoprime to the bases 2–23; base 29 shows it composite
    assert factorize(3825123056546413051) == \
        {149491: 1, 747451: 1, 34233211: 1}
    refused = "cannot factor {}: it has no prime factor up to the trial " \
              "division limit 1000000"
    for n in (
        1000003 * 1000033,  # composite
        318665857834031151167461,  # strong pseudoprime to the bases 2–37
        MILLER_RABIN_BOUND,  # the least one to the bases 2–41
        2**89 - 1,  # prime, but past MILLER_RABIN_BOUND
    ):
        with pytest.raises(GroupError) as exc:
            factorize(n)
        assert str(exc.value) == refused.format(n)
