import itertools
import math
import random

from pptor.intlinalg import (
    congruence_lattice,
    det,
    hermite_row_basis,
    identity_matrix,
    in_lattice,
    kernel_basis,
    lattice_coords,
    lattice_index,
    lattice_intersection,
    lattice_sum,
    mat_mul,
    smith_normal_form,
    snf_diagonal,
    solve_congruences,
    solve_diophantine,
)


def rand_matrix(rng, rows, cols, bound=9):
    return [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]


def test_snf_small():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, S, V = smith_normal_form(A)
    assert mat_mul(mat_mul(U, A), V) == S
    assert snf_diagonal(A) == [2, 2, 156]


def test_snf_random_properties():
    rng = random.Random(1)
    for _ in range(150):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        A = rand_matrix(rng, r, c)
        U, S, V, Vi = smith_normal_form(A, inverses=True)
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


def test_hermite_canonical():
    rng = random.Random(2)
    for _ in range(150):
        rows = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 4))
        H = hermite_row_basis(rows)
        shuffled = rows[:]
        rng.shuffle(shuffled)
        shuffled.append([sum(cs) for cs in zip(*rows)])
        assert hermite_row_basis(shuffled) == H
        for v in rows:
            assert in_lattice(H, v)


def test_lattice_coords_and_reduce():
    H = hermite_row_basis([[2, 0], [0, 3]])
    assert lattice_coords(H, [4, -3]) == [2, -1]
    assert lattice_coords(H, [1, 0]) is None


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
        assert L == hermite_row_basis(L)
        sols = [x for x in itertools.product(box, repeat=ncols)
                if _solves(A, x, [0] * nrows, moduli)]
        assert all(in_lattice(L, x[:keep]) for x in sols)
        if periodic:
            scaled = [[P if j == i else 0 for j in range(keep)]
                      for i in range(keep)]
            assert hermite_row_basis([x[:keep] for x in sols] + scaled) == L
        rest = [row[keep:] for row in A]
        for r in L:  # each basis row extends to a solution
            b = [-sum(a * v for a, v in zip(row, r)) for row in A]
            y = solve_congruences(rest, b, moduli)
            assert y is not None and _solves(A, list(r) + y, [0] * nrows, moduli)
        b = [rng.randint(-6, 6) for _ in range(nrows)]
        x = solve_congruences(A, b, moduli)
        if x is None:
            assert not any(_solves(A, y, b, moduli)
                           for y in itertools.product(box, repeat=ncols))
        else:
            assert len(x) == ncols and _solves(A, x, b, moduli)
    # a system with no rows
    assert congruence_lattice([], [], 2) == identity_matrix(2)
    assert solve_congruences([], [], []) == []


def test_sum_intersection_index():
    four = [[4]]
    six = [[6]]
    assert lattice_sum(four, six) == [[2]]
    assert lattice_intersection(four, six) == [[12]]
    assert lattice_index([[2]], [[6]]) == 3
    assert lattice_index([[1, 0], [0, 1]], [[2, 0], [0, 3]]) == 6
    assert lattice_index([[1, 0], [0, 1]], [[2, 0]]) is None


def test_modular_distributivity_random():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(1, 3)
        A, B, Cm = (hermite_row_basis(rand_matrix(rng, n, n)) for _ in range(3))
        if not (A and B and Cm):
            continue
        left = lattice_intersection(lattice_sum(A, B), lattice_sum(A, Cm))
        right = lattice_sum(A, lattice_intersection(lattice_sum(A, B), Cm))
        # modular law holds since A ≤ A + B
        assert hermite_row_basis(right) == hermite_row_basis(right)
        for row in right:
            assert in_lattice(left, row)
