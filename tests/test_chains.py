import pytest
import reference

from pptor import chains, ppsolve
from pptor.formulas import is_low, parse
from pptor.groups import FgGroup, GroupError, is_isomorphic


def test_witness_formula_shape():
    f = chains.witness_formula(2, 3)
    assert f.free_vars == ("x",)
    assert is_low(f)
    # over Z/16: elements of order ≤ 2 divisible by 8
    M = FgGroup((16,))
    S = ppsolve.evaluate(f, M)
    assert S.order() == 2
    assert S.contains(M.element([8]))


def test_witness_chain_group():
    chain, B = chains.witness_chain(2, 3, 2)
    assert is_isomorphic(B, FgGroup((2, 2, 4, 4, 8, 8)))
    assert chain == [chains.witness_formula(2, n) for n in range(5)]
    assert is_low(chain[0])


def test_witness_chain_rejects_bad_parameters():
    # p = 0 would build B = Z^3 and p = 1 the trivial group, each with a
    # stabilization index that means nothing
    for p, M0, k in ((0, 3, 1), (1, 3, 1), (-2, 3, 1)):
        with pytest.raises(ValueError, match="p must be at least 2"):
            chains.witness_chain(p, M0, k)
    for M0, k in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="M0 and k"):
            chains.witness_chain(2, M0, k)


def test_chain_descent_and_stabilization():
    chain, B = chains.witness_chain(2, 3, 1)
    levels = [ppsolve.evaluate(f, B) for f in chain]
    orders = [S.order() for S in levels]
    assert orders == [8, 4, 2, 1, 1]
    for a, b in zip(levels, levels[1:]):
        assert b <= a
    assert chains.stabilization_index(levels) == 3


def test_chain_indices_are_p_to_k():
    for p, k in ((2, 1), (2, 3), (3, 2)):
        chain, B = chains.witness_chain(p, 2, k)
        for n in range(2):
            assert ppsolve.index(chain[n], chain[n + 1], B) == p ** k


def test_stabilization_not_found_when_still_moving():
    chain, B = chains.witness_chain(2, 5, 1)
    # range ends while the chain is still strictly descending
    levels = [ppsolve.evaluate(f, B) for f in chain[:4]]
    assert chains.stabilization_index(levels) is None
    assert chains.stabilization_index(levels[:1]) == 0


def test_witness_b_elements():
    bs = reference.witness_b_elements(2, 4)
    chain, B = chains.witness_chain(2, 4, 1)
    assert len(bs) == 5  # partial sums b_0 = 0 through b_4
    for n in range(4):
        a = bs[n + 1] + (-bs[n])
        assert ppsolve.evaluate(chain[n], B).contains(a)
        assert not ppsolve.evaluate(chain[n + 1], B).contains(a)


def test_witness_b_elements_reports_failed_descent(monkeypatch):
    # every level the same subgroup: no a_0 ∈ φ_0[B] \ φ_1[B] exists
    monkeypatch.setattr(reference, "evaluate", lambda f, M: M.full_subgroup())
    with pytest.raises(GroupError, match="strict descent fails at level 0"):
        reference.witness_b_elements(2, 3)


def test_generic_formula_chain():
    chain = [parse("3*x = 0")] + [parse(f"3*x = 0 & E y. x = {3 ** n}*y")
                                  for n in range(1, 4)]
    B = FgGroup((27,))
    levels = [ppsolve.evaluate(f, B) for f in chain]
    assert [S.order() for S in levels] == [3, 3, 3, 1]
    assert chains.stabilization_index(levels) is None
    assert chains.stabilization_index(levels[:3]) == 0
