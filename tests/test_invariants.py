import random

import pytest
from reference import ulm_invariants as ulm_by_socle_layers

from pptor import cardinals as C
from pptor import corpus, invariants
from pptor.groups import (
    FgGroup,
    GroupError,
    abelian_groups_upto,
    direct_sum,
    is_isomorphic,
)


def test_ulm_of_cyclic():
    inv = invariants.ulm_invariants(FgGroup((8,)))
    assert inv.alpha_dict() == {(2, 3): 1}
    assert inv.gamma == ()


def test_ulm_of_mixed_primary():
    G = FgGroup((2, 4, 4, 9))
    inv = invariants.ulm_invariants(G)
    assert inv.alpha_dict() == {(2, 1): 1, (2, 2): 2, (3, 2): 1}


def test_ulm_additivity_random():
    rng = random.Random(16)
    for _ in range(60):
        G = corpus.random_group(rng, moduli_pool=(2, 3, 4, 8, 9), free_ok=False)
        H = corpus.random_group(rng, moduli_pool=(2, 3, 4, 8, 9), free_ok=False)
        assert invariants.ulm_invariants(direct_sum(G, H)) == \
            invariants.ulm_invariants(G) + invariants.ulm_invariants(H)


def test_reconstruct_round_trip():
    rng = random.Random(17)
    for _ in range(60):
        G = corpus.random_group(rng, moduli_pool=(2, 3, 4, 8, 9), free_ok=False)
        assert is_isomorphic(
            invariants.reconstruct(invariants.ulm_invariants(G)), G)


def test_ulm_matches_socle_layers():
    """The count over the moduli against dim((p^{n−1}G)[p]/(p^nG)[p]) by
    subgroup arithmetic, on every group of order ≤ 256 as listed, with its
    factors shuffled, and with a Z/1 factor inserted."""
    rng = random.Random(1616)
    groups = 0
    for G in abelian_groups_upto(256):
        moduli = list(G.moduli)
        rng.shuffle(moduli)
        trivial = list(moduli)
        trivial.insert(rng.randint(0, len(trivial)), 1)
        for M in (G, FgGroup(moduli), FgGroup(trivial)):
            assert invariants.ulm_invariants(M) == ulm_by_socle_layers(M), M
            groups += 1
    assert groups == 3 * 516


def test_ulm_factors_each_modulus():
    # both moduli are primes below 10^12; their product, the exponent, has
    # no prime factor up to the trial division limit
    inv = invariants.ulm_invariants(FgGroup((999999999989, 999999999959)))
    assert inv.alpha_dict() == {(999999999959, 1): 1, (999999999989, 1): 1}


def test_ulm_rejects_infinite_group():
    with pytest.raises(GroupError):
        invariants.ulm_invariants(FgGroup((0, 2)))


def test_limit_model_tor_w1():
    tpl = invariants.limit_model_template(C.Var("λ"), "w1", "Tor")
    assert tpl.text == \
        "t(Prod_p(PE(Sum_n(Z(p^n)^(λ))))) ⊕ Sum_p(Z(p^inf)^(λ))"
    assert tpl.warning is not None  # λ-stability is open for a bare variable


def test_limit_model_cofinality_w_adds_power():
    w1 = invariants.limit_model_template(C.Var("λ"), "w1", 2).text
    w = invariants.limit_model_template(C.Var("λ"), "w", 2).text
    head1, tail1 = w1.split(" ⊕ ", 1)
    headw, tailw = w.split(" ⊕ ", 1)
    assert tail1 == tailw
    assert headw == head1 + "^(aleph0)"


def test_limit_model_no_warning_for_provably_stable():
    lam = C.parse_cardinal("2^aleph0")
    tpl = invariants.limit_model_template(lam, "w1", "Tor")
    assert tpl.warning is None


def test_limit_model_rejects_unstable():
    with pytest.raises(GroupError):
        invariants.limit_model_template(C.parse_cardinal("beth(w)"), "w1", "Tor")


def test_limit_model_rejects_bad_variant():
    with pytest.raises(GroupError):
        invariants.limit_model_template(C.Var("λ"), "w1", "nope")
    for p in (4, 1, 0, -3, 91):  # 91 = 7 · 13
        with pytest.raises(GroupError, match=f"a prime, got {p}$"):
            invariants.limit_model_template(C.Var("λ"), "w1", p)
    with pytest.raises(GroupError):
        invariants.limit_model_template(C.Var("λ"), "up", "Tor")
