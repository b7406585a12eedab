"""Exact integer matrix algebra: Smith and Hermite normal forms, kernels,
Diophantine solving, systems of congruences, and row-lattice arithmetic
(membership, intersection, and indices read off Hermite pivots).

Everything here works on plain Python ints (arbitrary precision); matrices
are lists of lists.  Pivoting is deterministic (smallest absolute value,
ties broken by lowest index) so all outputs are reproducible.
``smith_normal_form`` builds only the transforms its caller names (V,
V⁻¹), and the pivots do not depend on which.  Its row side is carried, not
built: right-hand sides ride along as extra columns that only the row
operations touch, so they end as U·B, and U itself is the identity carried
the same way.  ``mat_mul`` combines the rows of its right factor and skips
the zero entries of its left one.

``hermite_row_basis(rows, moduli)`` is the one HNF: of the rows together
with m_j·e_j for each nonzero modulus, modulus 0 marking a free (ℤ)
column.  Entries of a column with a nonzero modulus stay reduced modulo it,
so the subgroups of a finite group keep small entries; free columns are
never reduced.  ``lattice_intersection`` intersects two lattices by
Zassenhaus through it, and every order and index is a quotient of two
``pivot_product``s, in any ambient.

Congruence systems come in two shapes.  ``congruence_lattice`` solves
A·x ≡ 0 with a modulus per row, through one slack column per nonzero
modulus.  ``solve_congruence_columns`` solves A·x ≡ b_j (mod t_j) for many
right-hand sides of one A, each with its own modulus: one Smith form of A
carries every column, and each is then read off row by row.
``congruence_columns_solvable`` asks only whether it has an answer: the
same per-row tests on a Smith form that builds no transform.
``solve_diophantine`` is its one-column, modulus-0 case.
"""

from __future__ import annotations

from math import gcd

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    I = [[0] * n for _ in range(n)]
    for i, row in enumerate(I):
        row[i] = 1
    return I


def mat_mul(A: Matrix, B: Matrix, ncols: int = 0) -> Matrix:
    """A·B as a combination of B's rows per row of A, skipping A's zero
    entries: the products here are mostly zero.  ``ncols`` is the number
    of columns of a B with no rows, which B itself cannot tell."""
    n = len(B[0]) if B else ncols
    out = []
    for row in A:
        acc = [0] * n
        for a, b in zip(row, B):
            if a:
                acc = [x + a * y for x, y in zip(acc, b)]
        out.append(acc)
    return out


def mat_vec(A: Matrix, v: list[int]) -> list[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in A]


SNF_TRANSFORMS = frozenset({"V", "Vinv"})


def smith_normal_form(A: Matrix, transforms=SNF_TRANSFORMS, carry=None):
    """Return (U, S, V, Vinv) with U*A*V = S, U and V unimodular, V*Vinv = I,
    S diagonal and S[0][0] | S[1][1] | ... with nonnegative diagonal.

    Only the transforms named in ``transforms`` (a subset of SNF_TRANSFORMS)
    are built; the others come back as None.  The pivots do not depend on
    which are built.

    U is never built.  ``carry`` (len(A) rows) rides along as extra
    columns of A: every row operation acts on them, while the pivot search,
    the column operations and the divisibility test never read them, so at
    the end they hold U·carry, which comes back in U's place (None without
    ``carry``; carrying the identity gives U itself).  V rides along the
    same way as extra rows, which only the column operations touch.
    """
    if not SNF_TRANSFORMS.issuperset(transforms):
        unknown = sorted(set(transforms) - SNF_TRANSFORMS)
        raise ValueError(f"unknown Smith form transforms {unknown}")
    m = len(A)
    if carry is not None and len(carry) != m:
        raise ValueError(f"carry has {len(carry)} rows, A has {m}")
    n = len(A[0]) if m else 0
    if carry is None:
        S = [list(map(int, row)) for row in A]
    else:
        S = [list(map(int, row)) + list(map(int, c)) for row, c in zip(A, carry)]
    if "V" in transforms:
        S += identity_matrix(n)  # rows m.. hold V
    Vi = identity_matrix(n) if "Vinv" in transforms else None

    t, rank_bound = 0, min(m, n)
    while t < rank_bound:
        done = False
        while True:
            # deterministic pivot: smallest |entry| in the block, row-major
            # ties; no entry is smaller than 1, so the scan stops there
            piv = None
            best = 0
            for i in range(t, m):
                row = S[i]
                for j in range(t, n):
                    v = row[j]
                    if v:
                        if v < 0:
                            v = -v
                        if v < best or not best:
                            best = v
                            piv = (i, j)
                            if v == 1:
                                break
                if best == 1:
                    break
            if piv is None:
                done = True
                break
            i, k = piv
            if i != t:  # swap rows t and i
                S[t], S[i] = S[i], S[t]
            if k != t:  # swap columns t and k
                for row in S:
                    row[t], row[k] = row[k], row[t]
                if Vi is not None:
                    Vi[t], Vi[k] = Vi[k], Vi[t]
            pivot_row = S[t]
            if pivot_row[t] < 0:
                S[t] = pivot_row = [-a for a in pivot_row]
            d = pivot_row[t]
            changed = False
            for i in range(t + 1, m):  # row_i -= (x // d) * row_t
                x = S[i][t]
                if x:
                    q = -(x // d)
                    S[i] = [a + q * b for a, b in zip(S[i], pivot_row)]
                    if x % d:
                        changed = True
            for j in range(t + 1, n):  # col_j -= (x // d) * col_t
                x = pivot_row[j]
                if x:
                    q = -(x // d)
                    for row in S:
                        b = row[t]
                        if b:
                            row[j] += q * b
                    if Vi is not None:
                        Vi[t] = [a - q * b for a, b in zip(Vi[t], Vi[j])]
                    if x % d:
                        changed = True
            if changed:
                continue  # smaller remainders appeared; re-select pivot
            # divisibility: pivot must divide the remaining block; the first
            # row (top down) with an entry it does not divide, i.e. whose
            # entries have a gcd it does not divide, is added to row t
            bad = None
            if d != 1:
                for i in range(t + 1, m):
                    if gcd(*S[i][t + 1:n]) % d:
                        bad = i
                        break
            if bad is None:
                break
            S[t] = [a + b for a, b in zip(pivot_row, S[bad])]  # row_t += row_bad
        if done:
            break
        t += 1
    V = S[m:] if "V" in transforms else None
    del S[m:]
    if carry is None:
        return None, S, V, Vi
    return [row[n:] for row in S], [row[:n] for row in S], V, Vi


def _xgcd(a: int, b: int):
    """(g, s, t) with s·a + t·b = g = gcd(a, b), for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def hermite_row_basis(rows, moduli) -> list[list[int]]:
    """Unique row Hermite normal form (positive pivots, entries above each
    reduced into [0, pivot)) of the lattice spanned by ``rows`` and m_j·e_j
    for each nonzero modulus; modulus 0 marks a free (ℤ) column.

    B[j], the pivot row of column j, starts as m·e_j for m ≥ 1 and missing
    for a free column.  Each row is inserted by 2×2 extended-gcd steps
    against the pivot rows of its nonzero columns, or becomes the missing
    pivot row of a free column, sign made positive.  Entries of a column k
    with m_k ≥ 1 stay reduced mod m_k, i.e. by rows with pivot ≥ k; free
    columns are never reduced.  A last pass reduces above the pivots
    (Domich–Kannan–Trotter 1987; Cohen, GTM 138, Alg. 2.4.8).
    """
    moduli = tuple(moduli)
    if moduli and min(moduli) < 0:
        raise ValueError(f"moduli must be ≥ 0, got {moduli}")
    n = len(moduli)
    B = [[m if k == j else 0 for k in range(n)] if m else None
         for j, m in enumerate(moduli)]
    for row in rows:
        if len(row) != n:
            raise ValueError(f"row of length {len(row)} in a lattice of rank {n}")
        r = [int(a) % m if m else int(a) for a, m in zip(row, moduli)]
        for j in range(n):
            a = r[j]
            if not a:
                continue
            p = B[j]
            if p is None:
                B[j] = r if a > 0 else [-x % m if m else -x
                                        for x, m in zip(r, moduli)]
                break
            d = p[j]
            if a % d == 0:
                q = a // d
                r = [(x - q * y) % m if m else x - q * y
                     for x, y, m in zip(r, p, moduli)]
                continue
            # [p; r] ← [s t; a/g −d/g]·[p; r] has determinant −1; the new
            # pivot g = gcd(d, |a|) < d divides m_j, so reducing keeps it
            g, s, t = _xgcd(d, abs(a))
            if a < 0:
                t = -t
            u, w = a // g, d // g
            B[j] = [(s * y + t * x) % m if m else s * y + t * x
                    for x, y, m in zip(r, p, moduli)]
            r = [(u * y - w * x) % m if m else u * y - w * x
                 for x, y, m in zip(r, p, moduli)]
    B = [p for p in B if p is not None]
    reduce_above_pivots(B)
    return B


def reduce_above_pivots(B: Matrix) -> None:
    """Reduce each entry above a pivot of the echelon rows B, whose pivots
    (first nonzero entries) are positive, into [0, pivot), in place, from
    the top row down: the last pass of hermite_row_basis, which is all it
    does to such rows."""
    j = 0
    for i, p in enumerate(B):
        while not p[j]:  # pivot columns increase down the rows
            j += 1
        d = p[j]
        for k in range(i):
            q = B[k][j] // d
            if q:
                B[k] = [x - q * y for x, y in zip(B[k], p)]


def pivot_product(basis) -> int:
    """Product of the pivots of an echelon basis: the first nonzero entry of
    each row.

    HNF lattices L' ⊆ L of equal rank span the same ℚ-space, so they share
    their pivot columns and [L : L'] is pivot_product(L') / pivot_product(L);
    when the ranks differ the index is infinite (Cohen, GTM 138, §2.4)."""
    product = 1
    for row in basis:
        for v in row:
            if v:
                product *= v
                break
    return product


def lattice_coords(basis: list[list[int]], v) -> list[int] | None:
    """Coefficients c with c·basis = v for an echelon (HNF) basis and a
    vector v of ints, or None.

    The one walk down an echelon basis: v is copied once, and at each row's
    pivot column j the quotient q is taken and q·row subtracted in place from
    column j + 1 on, skipping zero entries of the row.
    """
    v = list(v)
    n = len(v)
    coeffs = []
    j = 0
    for row in basis:
        while not row[j]:  # pivot columns increase down the rows
            j += 1
        a = v[j]
        if not a:
            coeffs.append(0)
            continue
        d = row[j]
        if a % d:
            return None
        q = a // d
        coeffs.append(q)
        v[j] = 0
        for k in range(j + 1, n):
            b = row[k]
            if b:
                v[k] -= q * b
    if any(v):
        return None
    return coeffs


def in_lattice(basis: list[list[int]], v) -> bool:
    return lattice_coords(basis, v) is not None


def kernel_basis(A: Matrix) -> list[list[int]]:
    """Basis of the integer kernel {x : A x = 0}."""
    m = len(A)
    n = len(A[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return identity_matrix(n)
    _, S, V, _ = smith_normal_form(A, ("V",))
    diag = [S[i][i] for i in range(min(m, n))]
    cols = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    return [[V[r][j] for r in range(n)] for j in cols]


def solve_diophantine(A: Matrix, b: list[int]) -> list[int] | None:
    """One integer solution x of A x = b, or None if unsolvable."""
    cols = solve_congruence_columns(A, [b], [0])
    return None if cols is None else cols[0]


def _with_slack(A: Matrix, moduli) -> Matrix:
    """A with one slack column per nonzero modulus, in row order: row i of
    A·x + (slack) = b then says A·x ≡ b modulo moduli[i]."""
    nslack = sum(1 for m in moduli if m)
    out = []
    k = 0
    for row, m in zip(A, moduli):
        slack = [0] * nslack
        if m:
            slack[k] = m
            k += 1
        out.append(list(row) + slack)
    return out


def congruence_lattice(A: Matrix, moduli, keep: int) -> list[list[int]]:
    """HNF basis of the first ``keep`` coordinates of the solutions x of
    A·x ≡ 0, row i holding modulo moduli[i] (modulus 0: exactly).

    A system with no rows is solved by every x."""
    if not A:
        return identity_matrix(keep)
    return hermite_row_basis(
        [vec[:keep] for vec in kernel_basis(_with_slack(A, moduli))],
        (0,) * keep)


def _carried_smith(A: Matrix, rhs, transforms):
    """(C, diag, V) for the Smith form U·A·V = S of A that carries the
    right-hand sides rhs (column j of B is rhs[j]): C = U·B, diag the s_i
    with s_i = 0 past the rank (one per row of A), and V when named."""
    n = len(A[0]) if A else 0
    C, S, V, _ = smith_normal_form(
        A, transforms, carry=list(zip(*rhs)) if rhs else [()] * len(A))
    return C, [S[i][i] if i < n else 0 for i in range(len(A))], V


def _columns_solvable(C, diag, moduli) -> bool:
    """Whether s_i·y_i ≡ C[i][j] (mod t_j) has a solution for every row i
    and column j: a row with s_i ≠ 0 needs gcd(s_i, t_j) | C[i][j], a row
    past the rank C[i][j] ≡ 0 (mod t_j)."""
    for j, t in enumerate(moduli):
        for row, s in zip(C, diag):
            c = row[j]
            if s:
                if c % gcd(s, t):
                    return False
            elif c % t if t else c:
                return False
    return True


def congruence_columns_solvable(A: Matrix, rhs, moduli) -> bool:
    """Whether solve_congruence_columns(A, rhs, moduli) has an answer,
    decided from one Smith form of A that builds no transform."""
    C, diag, _ = _carried_smith(A, rhs, ())
    return _columns_solvable(C, diag, moduli)


def solve_congruence_columns(A: Matrix, rhs, moduli) -> list[list[int]] | None:
    """Column j of the answer is one x with A·x ≡ rhs[j] modulo moduli[j]
    (modulus 0: exactly); None when some column has no solution.  A system
    with no rows is solved by the empty vector.

    All columns share one Smith form U·A·V = S = diag(s_i), which carries
    the right-hand sides as extra columns and so hands back C = U·B, the
    column j of B being rhs[j], without building U.  U is unimodular, so
    A·x ≡ b_j (mod t) ⟺ s_i·y_i ≡ C[i][j] (mod t) for every row i, with
    x = V·y.  A row with s_i ≠ 0 is solvable iff g = gcd(s_i, t) divides
    c = C[i][j], and then y_i = (c/g)·(s_i/g)⁻¹ mod t/g (for t = 0,
    y_i = c/s_i exactly); a row past the rank needs c ≡ 0 (mod t).
    (Cohen, GTM 138, §2.4.3.)
    """
    C, diag, V = _carried_smith(A, rhs, ("V",))
    if not _columns_solvable(C, diag, moduli):
        return None
    n = len(V)
    cols = []
    for j, t in enumerate(moduli):
        y = [0] * n
        for i, (row, s) in enumerate(zip(C, diag)):
            if not s:
                continue
            c = row[j]
            if t:
                g = gcd(s, t)
                tg = t // g
                y[i] = c // g * pow(s // g, -1, tg) % tg
            else:
                y[i] = c // s
        cols.append(mat_vec(V, y))
    return cols


def lattice_intersection(b1, b2, moduli) -> list[list[int]]:
    """HNF basis of L1 ∩ L2 for row lattices that contain m_j·e_j for each
    nonzero modulus (Zassenhaus): (0, v) lies in the span of
    [b1 | b1 ; b2 | 0] + diag(m, m) iff v ∈ L1 ∩ L2, and those vectors are
    spanned by the rows of its HNF with zero left half.
    """
    n = len(moduli)
    rows = [list(r) + list(r) for r in b1] + [list(r) + [0] * n for r in b2]
    return [row[n:] for row in hermite_row_basis(rows, tuple(moduli) * 2)
            if not any(row[:n])]
