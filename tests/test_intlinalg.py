import itertools
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from reference import (
    det,
    hermite_by_elimination,
    lattice_index,
    lattice_sum,
    snf_diagonal,
)

from pptor.intlinalg import (
    _with_slack,
    congruence_columns_solvable,
    congruence_lattice,
    hermite_row_basis,
    identity_matrix,
    in_lattice,
    kernel_basis,
    lattice_coords,
    lattice_intersection,
    mat_mul,
    smith_normal_form,
    solve_congruence_columns,
    solve_diophantine,
)


def rand_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_small():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, S, V, _ = smith_normal_form(A, ("V",), carry=identity_matrix(3))
    assert mat_mul(mat_mul(U, A), V) == S
    assert snf_diagonal(A) == [2, 2, 156]


def test_snf_random_properties():
    rng = random.Random(1)
    for _ in range(150):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(rng, r, c)
        U, S, V, Vi = smith_normal_form(A, carry=identity_matrix(r))
        assert mat_mul(mat_mul(U, A), V) == S
        assert abs(det(U)) == 1 and abs(det(V)) == 1
        assert mat_mul(V, Vi) == identity_matrix(c)
        diag = [S[i][i] for i in range(min(r, c))]
        for a, b in zip(diag, diag[1:]):
            if b:
                assert a >= 0 and b % max(a, 1) == 0 if a else True
            if a == 0:
                assert b == 0
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert S[i][j] == 0


def _matrix(rows, cols, entries=st.integers(-9, 9)):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


_SNF_SUBSETS = [set(c) for k in range(3)
                for c in itertools.combinations(("V", "Vinv"), k)]


@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda shape: _matrix(*shape)))
@example([])                              # 0 × 0 (0 × n reads as 0 × 0)
@example([[], [], []])                    # 3 × 0
@example([[0, 0, 0], [0, 0, 0]])
@example([[0, 3, -6], [0, 0, 0], [4, -2, 0]])
@example([[-4, 6], [6, -9], [0, 0], [10, 15]])
def test_snf_builds_only_the_named_transforms(A):
    """Every subset of the transforms gives the full call's S and the full
    call's value of each transform it names, None for the others and for U;
    carrying the identity, it gives the full call's U besides.  The full
    call, carrying the identity, has U·A·V = S and V·V⁻¹ = I.  U is not a
    transform: it is only ever carried."""
    identity = identity_matrix(len(A))
    U, S, V, Vi = full = smith_normal_form(A, carry=identity)
    assert mat_mul(mat_mul(U, A), V) == S
    assert mat_mul(V, Vi) == identity_matrix(len(V))
    for names in _SNF_SUBSETS:
        part = smith_normal_form(A, names)
        assert part[0] is None and part[1] == S
        for k, name in ((2, "V"), (3, "Vinv")):
            assert part[k] == (full[k] if name in names else None), names
        carried = smith_normal_form(A, names, carry=identity)
        assert carried[0] == U and carried[1:] == part[1:], names
    for names in (("V", "W"), ("U",), ("U", "V")):
        with pytest.raises(ValueError, match="unknown"):
            smith_normal_form(A, names)


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 3))
       .flatmap(lambda d: st.tuples(_matrix(d[0], d[1]), _matrix(d[0], d[2]))))
@example(([[2]], [[1]]))                  # a carried unit beside no unit of A
@example(([[2, 0], [0, 4]], [[0], [1]]))  # only the carried column breaks 2 | ·
def test_snf_carried_columns(case):
    """Columns carried through the Smith form of A end as U·B, with U the
    carried identity, and leave S, V and V⁻¹ as the call without them
    gives: the pivot search, the column operations and the divisibility
    test never read them."""
    A, B = case
    U, S, V, Vi = smith_normal_form(A, carry=identity_matrix(len(A)))
    UB, *rest = smith_normal_form(A, ("V", "Vinv"), carry=B)
    assert UB == mat_mul(U, B)
    assert rest == [S, V, Vi]
    with pytest.raises(ValueError, match="rows"):
        smith_normal_form(A, (), carry=[*B, []])


@given(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
       .flatmap(lambda d: st.tuples(_matrix(d[0], d[1]), _matrix(d[1], d[2]))))
@example(([], []))
@example(([[], []], []))                  # 2 × 0 times 0 × 0
@example(([[0, 0], [0, 0]], [[1, -2, 3], [4, 5, -6]]))
@example(([[1, -2], [0, 3]], [[0, 0, 0], [0, 0, 0]]))
def test_mat_mul_matches_dense_product(case):
    A, B = case
    n = len(B[0]) if B else 0
    assert mat_mul(A, B) == [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(n)]
        for i in range(len(A))]


def test_mat_mul_takes_the_width_of_a_factor_with_no_rows():
    assert mat_mul([[], []], [], 3) == [[0, 0, 0], [0, 0, 0]]
    assert mat_mul([()], (), 2) == [[0, 0]]
    assert mat_mul([[1, 2]], [[3], [4]], 5) == [[11]]  # B's rows decide


def test_hermite_canonical():
    rng = random.Random(2)
    for _ in range(150):
        rows = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 4))
        free = [0] * len(rows[0])
        H = hermite_row_basis(rows, free)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        shuffled.append([sum(cs) for cs in zip(*rows)])
        assert hermite_row_basis(shuffled, free) == H
        for v in rows:
            assert in_lattice(H, v)


def test_lattice_coords_and_reduce():
    H = hermite_row_basis([[2, 0], [0, 3]], (0, 0))
    assert lattice_coords(H, [4, -3]) == [2, -1]
    assert lattice_coords(H, [1, 0]) is None


def test_lattice_coords_matches_hermite_membership():
    """On HNF bases over random moduli (0 marking a free column),
    lattice_coords(B, v) is None exactly when adding v changes the HNF of
    B's rows; otherwise its coefficients c give c·B = v.  The caller's v is
    left as it was."""
    rng = random.Random(2424)
    found = missed = 0
    for _ in range(600):
        n = rng.randint(1, 5)
        moduli = [rng.choice((0, 0, 1, 2, 3, 4, 6, 8, 9, 12)) for _ in range(n)]
        B = hermite_row_basis(rand_matrix(rng, rng.randint(0, 4), n), moduli)
        free = (0,) * n
        assert hermite_row_basis(B, free) == B
        for _ in range(4):
            if B and rng.random() < 0.5:
                v = [sum(rng.randint(-3, 3) * row[k] for row in B)
                     for k in range(n)]
            else:
                v = [rng.randint(-12, 12) for _ in range(n)]
            given = list(v)
            c = lattice_coords(B, v)
            assert v == given
            assert (c is None) == (hermite_row_basis(B + [v], free) != B)
            if c is None:
                missed += 1
            else:
                found += 1
                assert len(c) == len(B)
                assert [sum(a * row[k] for a, row in zip(c, B))
                        for k in range(n)] == v
    assert (found, missed) == (1389, 1011)


def test_kernel_and_solve():
    rng = random.Random(3)
    for _ in range(150):
        A = rand_matrix(rng, rng.randint(1, 3), rng.randint(1, 4))
        K = kernel_basis(A)
        for row in K:
            assert all(sum(a * x for a, x in zip(ar, row)) == 0 for ar in A)
        x = [rng.randint(-3, 3) for _ in range(len(A[0]))]
        b = [sum(a * v for a, v in zip(ar, x)) for ar in A]
        s = solve_diophantine(A, b)
        assert s is not None
        assert [sum(a * v for a, v in zip(ar, s)) for ar in A] == b
    assert solve_diophantine([[2]], [1]) is None


def _solves(A, x, b, moduli):
    return all((sum(a * v for a, v in zip(row, x)) - c) % m == 0 if m
               else sum(a * v for a, v in zip(row, x)) == c
               for row, c, m in zip(A, b, moduli))


def _solve_rows(A, b, moduli):
    """One x with A·x ≡ b, row i modulo moduli[i], or None: the exact
    system [A | diag(nonzero moduli)]·(x, slack) = b, solved as one column
    of modulus 0."""
    cols = solve_congruence_columns(_with_slack(A, moduli), [b], [0])
    return None if cols is None else cols[0][:len(A[0])]


def test_congruence_systems_against_enumeration():
    rng = random.Random(5)
    for trial in range(150):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        A = rand_matrix(rng, nrows, ncols, bound=6)
        moduli = [rng.choice((0, 2, 3, 4, 6)) for _ in range(nrows)]
        if trial % 3 == 0:
            moduli[0] = 0
        keep = rng.randint(1, ncols)
        # without an exact row the solutions are periodic mod P, so the box
        # [0, P)^ncols holds every solution up to P·ℤ^ncols
        P = math.lcm(*(m for m in moduli if m))
        periodic = 0 not in moduli
        box = range(P) if periodic else range(-8, 9)
        L = congruence_lattice(A, moduli, keep)
        assert L == hermite_by_elimination(L)
        sols = [x for x in itertools.product(box, repeat=ncols)
                if _solves(A, x, [0] * nrows, moduli)]
        assert all(in_lattice(L, x[:keep]) for x in sols)
        if periodic:
            scaled = [[P if j == i else 0 for j in range(keep)]
                      for i in range(keep)]
            assert hermite_by_elimination(
                [x[:keep] for x in sols] + scaled) == L
        rest = [row[keep:] for row in A]
        for r in L:  # each basis row extends to a solution
            b = [-sum(a * v for a, v in zip(row, r)) for row in A]
            y = _solve_rows(rest, b, moduli)
            assert y is not None and _solves(A, list(r) + y, [0] * nrows, moduli)
        b = [rng.randint(-6, 6) for _ in range(nrows)]
        x = _solve_rows(A, b, moduli)
        if x is None:
            assert not any(_solves(A, y, b, moduli)
                           for y in itertools.product(box, repeat=ncols))
        else:
            assert len(x) == ncols and _solves(A, x, b, moduli)
    # a system with no rows
    assert congruence_lattice([], [], 2) == identity_matrix(2)
    assert solve_congruence_columns([], [[], []], [2, 0]) == [[], []]


@st.composite
def _congruence_columns(draw):
    """A (0–3 rows, 1–3 columns, entries up to ±6, some rows zero) and 1–3
    right-hand sides, each with its own modulus."""
    ncols = draw(st.integers(1, 3))
    row = st.lists(st.integers(-6, 6), min_size=ncols, max_size=ncols)
    A = draw(st.lists(st.one_of(st.just([0] * ncols), row), max_size=3))
    moduli = draw(st.lists(st.sampled_from((0, 1, 2, 3, 4, 6, 8)),
                           min_size=1, max_size=3))
    rhs = [draw(st.lists(st.integers(-6, 6), min_size=len(A),
                         max_size=len(A))) for _ in moduli]
    return A, rhs, moduli


@given(_congruence_columns())
@example(([[2], [0], [0]], [[2, 0, 1]], [4]))
@example(([[4, 2], [6, 0]], [[2, 0], [1, 1]], [6, 8]))
@example(([[4]], [[2]], [6]))             # gcd(4, 6) | 2 although 4 ∤ 2
def test_congruence_columns_against_enumeration(case):
    A, rhs, moduli = case
    n = len(A[0]) if A else 0
    cols = []
    for b, t in zip(rhs, moduli):
        col = solve_congruence_columns(A, [b], [t])
        assert congruence_columns_solvable(A, [b], [t]) == (col is not None)
        if col is None:
            box = range(t) if t else range(-8, 9)
            assert not any(_solves(A, x, b, [t] * len(A))
                           for x in itertools.product(box, repeat=n))
        else:
            (x,) = col
            assert len(x) == n and _solves(A, x, b, [t] * len(A))
        cols.append(col)
    # all columns at once: the same columns, or None when one has none
    together = solve_congruence_columns(A, rhs, moduli)
    assert congruence_columns_solvable(A, rhs, moduli) == (together is not None)
    if None in cols:
        assert together is None
    else:
        assert together == [x for (x,) in cols]


def test_sum_intersection_index():
    four = [[4]]
    six = [[6]]
    assert lattice_sum(four, six) == [[2]]
    assert lattice_intersection(four, six, (0,)) == [[12]]
    assert lattice_index([[2]], [[6]]) == 3
    assert lattice_index([[1, 0], [0, 1]], [[2, 0], [0, 3]]) == 6
    assert lattice_index([[1, 0], [0, 1]], [[2, 0]]) is None


def test_modular_distributivity_random():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 3)
        A, B, Cm = (hermite_by_elimination(rand_matrix(rng, n, n))
                     for _ in range(3))
        if not (A and B and Cm):
            continue
        free = (0,) * n
        left = lattice_intersection(lattice_sum(A, B), lattice_sum(A, Cm), free)
        right = lattice_sum(A, lattice_intersection(lattice_sum(A, B), Cm, free))
        # modular law holds since A ≤ A + B
        assert left == right


def _diag(moduli):
    return [[m if j == i else 0 for j in range(len(moduli))]
            for i, m in enumerate(moduli) if m]


_entries = st.one_of(st.integers(-20, 20), st.integers(-10**7, 10**7))
_modulus = st.one_of(st.integers(1, 12), st.integers(10**6, 10**6 + 7))
# modulus 0 marks a free (ℤ) column
_modulus_or_free = st.one_of(st.just(0), _modulus)


def _moduli(n, modulus=_modulus_or_free):
    return st.lists(modulus, min_size=n, max_size=n)


def _rows(n, max_rows=5, entries=_entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), max_size=max_rows)


@given(st.integers(0, 4).flatmap(lambda n: st.tuples(_moduli(n), _rows(n))))
@example(([1, 10**6, 4], [[-3, 999_999, 7], [5, -2 * 10**6 - 1, -4]]))
@example(([1, 1], [[-1, 5]]))
@example(([], [[]]))
@example(([0, 4, 0], [[0, 3, -5], [0, -1, 7]]))  # a free column with no pivot
@example(([0, 6], [[-4, 3], [6, -1]]))  # a negative entry on a free pivot
def test_hermite_mod_is_hermite_with_relations(case):
    """The one HNF against gcd elimination over ℤ of the rows with
    m_j·e_j for each nonzero modulus; a finite ambient gives a square form
    with each pivot dividing its modulus."""
    moduli, rows = case
    H = hermite_row_basis(rows, moduli)
    assert H == hermite_by_elimination(rows + _diag(moduli))
    if 0 not in moduli:
        assert len(H) == len(moduli)
        assert all(H[i][i] > 0 and moduli[i] % H[i][i] == 0
                   for i in range(len(H)))


def test_hermite_mod_rejects_bad_input():
    for row in ([1, 2, 3], [1]):
        with pytest.raises(ValueError, match="length"):
            hermite_row_basis([row], (4, 6))
    with pytest.raises(ValueError, match="moduli"):
        hermite_row_basis([[1, 2]], (4, -3))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    _rows(n).filter(bool), _moduli(n))), st.data())
def test_hermite_invariant_under_unimodular_change(case, data):
    """Shuffling the generators, adding a multiple of one to another and
    negating one leave the lattice, hence its HNF, unchanged."""
    rows, moduli = case
    k = len(rows)
    new = [rows[i][:] for i in data.draw(st.permutations(range(k)))]
    steps = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                      st.integers(-3, 3))
    for i, j, c in data.draw(st.lists(steps, max_size=6)):
        if i == j:
            new[i] = [-a for a in new[i]]
        else:
            new[j] = [a + c * b for a, b in zip(new[j], new[i])]
    assert hermite_by_elimination(new) == hermite_by_elimination(rows)
    assert hermite_row_basis(new, moduli) == hermite_row_basis(rows, moduli)
    assert hermite_row_basis(rows, moduli) == \
        hermite_by_elimination(rows + _diag(moduli))


def _intersection_reference(b1, b2):
    """L1 ∩ L2 from the integer kernel of [b1^T | -b2^T]: x·b1 = y·b2."""
    if not (b1 and b2):
        return []
    n, k1 = len(b1[0]), len(b1)
    A = [[b1[i][c] for i in range(k1)] + [-r[c] for r in b2] for c in range(n)]
    return hermite_by_elimination(
        [[sum(x[i] * b1[i][c] for i in range(k1)) for c in range(n)]
         for x in kernel_basis(A)])


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    *[_rows(n, 3, st.integers(-6, 6)).filter(bool)] * 2)))
@example(([[1, 0, 0]], [[0, 1, 0]]))  # intersection {0}
@example(([[2, 4, 0], [0, 0, 0]], [[3, 6, 0]]))
def test_zassenhaus_intersection_matches_kernel_reference(case):
    b1, b2 = case
    meet = lattice_intersection(b1, b2, (0,) * len(b1[0]))
    assert meet == _intersection_reference(b1, b2)
    assert all(in_lattice(hermite_by_elimination(b), v)
               for b in case for v in meet)


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(_moduli(n), _rows(n, 3), _rows(n, 3))))
@example(([0, 4], [[2, 1]], [[3, 0]]))
@example(([0, 0], [], [[1, 1]]))
def test_intersection_mod_matches_lattice_intersection(case):
    """Intersections of lattices that contain m_j·e_j for each nonzero
    modulus, some columns free, against the kernel reference."""
    moduli, r1, r2 = case
    L1, L2 = hermite_row_basis(r1, moduli), hermite_row_basis(r2, moduli)
    assert lattice_intersection(L1, L2, moduli) == \
        _intersection_reference(L1, L2)
