import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import brute_force_solutions

from pptor import corpus, kernels
from pptor.formulas import Equation, PpFormula, normalize
from pptor.groups import FgGroup
from pptor.kernels import (
    EnumerationLimit,
    brute_force_codes,
    encode_assignment,
)
from pptor.ppsolve import evaluate


def naive_solutions(C, D, moduli):
    """Triple-loop reference, independent of the kernel implementation."""
    ranges = [range(m) for m in moduli]
    elements = list(itertools.product(*ranges)) or [()]
    nfree = len(C[0]) if C else 0
    nbound = len(D[0]) if C else 0
    out = []
    for xs in itertools.product(elements, repeat=nfree):
        ok = False
        for ys in itertools.product(elements, repeat=nbound):
            if all(
                all(
                    (sum(C[e][f] * xs[f][c] for f in range(nfree))
                     + sum(D[e][b] * ys[b][c] for b in range(nbound))) % m == 0
                    for c, m in enumerate(moduli)
                )
                for e in range(len(C))
            ):
                ok = True
                break
        if ok:
            out.append(xs)
    return out


def _assert_matches_naive(f, M):
    m = normalize(f)
    got = brute_force_solutions(m.C, m.D, M.moduli)
    want = naive_solutions(m.C, m.D, M.moduli)
    assert sorted(got) == sorted(want)


def test_against_naive_reference():
    rng = random.Random(8)
    for _ in range(60):
        f = corpus.random_formula(rng, max_free=2, max_bound=2)
        M = corpus.random_group(rng, max_rank=2,
                                moduli_pool=(2, 3, 4), free_ok=False)
        _assert_matches_naive(f, M)
    # three bound variables reach the third widening of the reachable set
    # by cyclic shifts; cyclic groups keep the triple loop fast
    rng = random.Random(18)
    cases = 0
    while cases < 20:
        f = corpus.random_formula(rng, max_free=2, max_bound=3)
        if len(f.bound_vars) != 3:
            continue
        M = corpus.random_group(rng, max_rank=1,
                                moduli_pool=(2, 3, 4), free_ok=False)
        _assert_matches_naive(f, M)
        cases += 1
    # rank 2 and 3: the per-factor codes are combined by a Cartesian sum,
    # and a repeated modulus reuses one factor's codes at two strides.
    # (2, 4, 3), the one group of order > 16, gets at most two variables.
    rng = random.Random(28)
    named = [FgGroup((2, 2, 3)), FgGroup((2, 4, 3)), FgGroup((4, 2))]
    cases = 0
    while cases < 40:
        f = corpus.random_formula(rng, max_free=2, max_bound=2)
        M = named[cases % 3] if cases < 15 else corpus.random_group(
            rng, max_rank=3, moduli_pool=(2, 3, 4), free_ok=False)
        nvars = len(f.free_vars) + len(f.bound_vars)
        if M.rank < 2 or M.order() ** nvars > 4096 \
                or (M.order() > 16 and M not in named):
            continue
        _assert_matches_naive(f, M)
        cases += 1
    # the reachable set grows by doubling its shift of each bound column d
    # until it covers the k = m / gcd(m, d) multiples of d; moduli 5-9 make
    # k other than a power of two
    rng = random.Random(38)
    cases = 0
    while cases < 30:
        f = corpus.random_formula(rng, max_free=2, max_bound=3)
        m = rng.randint(5, 9)
        nvars = len(f.free_vars) + len(f.bound_vars)
        if len(f.bound_vars) < 2 or m ** nvars > 10_000:
            continue
        _assert_matches_naive(f, FgGroup((m,)))
        cases += 1


def test_returned_codes_are_not_shared():
    # per-factor digit rows are cached; a caller's array must be its own,
    # and the cached rows read-only and left as they were.  Rank 1 returns
    # one factor's product, rank ≥ 2 a Cartesian sum, nfree = 0 the (1, 0)
    # rows of the empty assignment; (6, 2, 6) reuses ℤ/6 at two strides.
    cases = [([[1, 2]], [[3]], (6,)), ([[1, 2]], [[3]], (6, 2, 6)),
             ([[1], [2]], [[0], [1]], (4, 3)), ([[]], [[2]], (6,)),
             ([[], []], [[1], [3]], (2, 4))]
    for C, D, moduli in cases:
        key = tuple(map(tuple, C)), tuple(map(tuple, D))
        want = brute_force_codes(C, D, moduli)[0].copy()
        rows = {m: kernels._cyclic_solutions(*key, m) for m in moduli}
        kept = {m: r.copy() for m, r in rows.items()}
        got = brute_force_codes(C, D, moduli)[0]
        got[:] = -1
        assert np.array_equal(brute_force_codes(C, D, moduli)[0], want)
        for m, r in rows.items():
            assert not r.flags.writeable
            with pytest.raises(ValueError):
                r[...] = 0
            assert r.dtype == np.int32 and r.shape[1] == len(C[0])
            # rows in ascending order of the code Σ_v x_v·m^v
            assert np.all(np.diff(r @ m ** np.arange(r.shape[1])) > 0)
            assert np.array_equal(kernels._cyclic_solutions(*key, m), kept[m])
    assert kernels._cyclic_solutions(((),), ((1,),), 5).shape == (1, 0)


def test_cached_codes_depend_on_every_input():
    # C, D and m each change the answer of the per-factor kernel
    cases = [([[1]], [[0]], (4,)), ([[1]], [[2]], (4,)),
             ([[1]], [[0]], (5,)), ([[2]], [[0]], (4,))]
    for _ in range(2):
        for C, D, moduli in cases:
            assert brute_force_solutions(C, D, moduli) \
                == naive_solutions(C, D, moduli)


def test_codes_strictly_ascending():
    # criterion 01 looks codes up with searchsorted
    rng = random.Random(29)
    for _ in range(60):
        f = corpus.random_formula(rng)
        M = corpus.random_group(rng, moduli_pool=(2, 3, 4, 6), free_ok=False)
        m = normalize(f)
        sols = brute_force_codes(m.C, m.D, M.moduli)[0]
        assert sols.dtype == np.int64
        assert np.all(np.diff(sols) > 0)


@st.composite
def _systems(draw):
    """(C, D, moduli) for the naive triple loop: rank 0-3 with repeated
    moduli and ℤ/1 factors, 0-2 free and 0-3 bound variables, at most
    1024 assignments of all variables."""
    moduli = draw(st.lists(st.sampled_from((1, 2, 3, 4, 6)), max_size=3))
    nfree = draw(st.integers(0, 2))
    while math.prod(moduli) ** nfree > 1024:
        moduli.pop()
    order = math.prod(moduli)
    nbound = draw(st.integers(0, max(k for k in range(4)
                                     if order ** (nfree + k) <= 1024)))
    neq = draw(st.integers(1, 3))
    coeff = st.integers(-7, 7)
    C = draw(st.lists(st.lists(coeff, min_size=nfree, max_size=nfree),
                      min_size=neq, max_size=neq))
    D = draw(st.lists(st.lists(coeff, min_size=nbound, max_size=nbound),
                      min_size=neq, max_size=neq))
    return C, D, tuple(moduli)


@settings(max_examples=200)
@given(_systems())
def test_codes_match_naive_reference(case):
    C, D, moduli = case
    sols, nfree, order = brute_force_codes(C, D, moduli)
    assert (nfree, order) == (len(C[0]), math.prod(moduli))
    assert sols.dtype == np.int64
    want = sorted(encode_assignment(a, moduli)
                  for a in naive_solutions(C, D, moduli))
    assert sols.tolist() == want


@st.composite
def _formulas_and_groups(draw):
    moduli = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    fv = tuple(f"x{i}" for i in range(draw(st.integers(1, 2))))
    bv = tuple(f"y{i}" for i in range(draw(st.integers(0, 2))))
    coeffs = st.lists(st.integers(-6, 6), min_size=len(fv + bv),
                      max_size=len(fv + bv))
    rows = draw(st.lists(coeffs, min_size=1, max_size=3))
    eqs = tuple(Equation(tuple(zip(row, fv + bv)), ()) for row in rows)
    return PpFormula(fv, bv, eqs), FgGroup(moduli)


@settings(max_examples=150)
@given(_formulas_and_groups())
def test_evaluate_order_equals_oracle_count(case):
    f, M = case
    m = normalize(f)
    assert evaluate(f, M).order() == len(brute_force_codes(m.C, m.D, M.moduli)[0])


def test_codes_consistent_with_solutions():
    rng = random.Random(9)
    for _ in range(60):
        f = corpus.random_formula(rng)
        M = corpus.random_group(rng, moduli_pool=(2, 3, 4), free_ok=False)
        m = normalize(f)
        sols, _, _ = brute_force_codes(m.C, m.D, M.moduli)
        decoded = brute_force_solutions(m.C, m.D, M.moduli)
        assert len(sols) == len(decoded)
        assert sorted(sols.tolist()) == sorted(
            encode_assignment(a, M.moduli) for a in decoded)


def test_solution_set_is_subgroup():
    rng = random.Random(10)
    for _ in range(30):
        f = corpus.random_formula(rng, max_free=1)
        M = corpus.random_group(rng, max_rank=2,
                                moduli_pool=(2, 3, 4), free_ok=False)
        m = normalize(f)
        sols = set(brute_force_solutions(m.C, m.D, M.moduli))
        for a in sols:
            for b in sols:
                s = tuple(
                    tuple((x + y) % mm for x, y, mm in zip(ac, bc, M.moduli))
                    for ac, bc in zip(a, b)
                )
                assert s in sols


def test_huge_coefficients_no_overflow():
    big = 10 ** 30
    sols = brute_force_solutions([[big + 1]], [[0]], (5,))
    # (10^30 + 1)·x ≡ x (mod 5)
    assert sols == [((0,),)]


def test_rejects_infinite_group():
    with pytest.raises(ValueError):
        brute_force_solutions([[1]], [[1]], (0,))


def test_table_size_guard():
    with pytest.raises(EnumerationLimit):
        brute_force_solutions([[1, 1]], [[1, 1]],
                              (2,) * 30)
