"""Brute-force pp-formula solution enumeration.

Independent oracle for ppsolve.evaluate: builds the set of reachable values
of D·ȳ as a table of flags, then tests each free assignment directly.  No
Smith or Hermite normal forms, and nothing shared with intlinalg or ppsolve.

M = ⊕ ℤ/m_c adds coordinatewise, so C·x̄ + D·ȳ = 0 holds in M exactly when
it holds in every coordinate, and coordinate c of D·ȳ depends only on
coordinate c of each y.  The solution set is therefore the product of the
solution sets over the cyclic factors ℤ/m_c.  The rank-1 kernel
_cyclic_solutions solves one modulus on a table of m^neq flags instead of
|M|^neq and keeps the solving assignments as rows of base-m digits.  Those
rows depend only on (C, D, m), so they are cached across calls and shared
by every group with a factor ℤ/m.  brute_force_codes reweights each
factor's rows to mixed-radix codes of M with one product, and combines the
factors by a Cartesian sum.  Everything runs in numpy.  The oracle answers
in those codes (encode_assignment gives the code of an assignment) and
decodes none of them.
"""

from __future__ import annotations

import functools
import math

import numpy as np


# _check_sizes caps |M|^neq, |M|^nfree and |M|^nbound at this: a factor's
# flag table has m^neq ≤ |M|^neq cells and the solution codes number at
# most |M|^nfree, so tables and codes stay in memory; every code is below
# |M|^nfree ≤ 2^26 < 2^31, so digits, weights and codes are exact in int32;
# the cap on |M|^nbound keeps the inputs the oracle accepts as they were
_MAX_TABLE = 1 << 26


class EnumerationLimit(RuntimeError):
    pass


def _check_sizes(order, neq, nfree, nbound):
    for power in (neq, nfree, nbound):
        if order ** max(power, 1) > _MAX_TABLE:
            raise EnumerationLimit(
                f"brute-force table too large: {order}^{power}"
            )


@functools.lru_cache(maxsize=4096)
def _cyclic_solutions(C, D, m: int) -> np.ndarray:
    """The x̄ ∈ (ℤ/m)^nfree with C·x̄ + D·ȳ = 0 for some ȳ ∈ (ℤ/m)^nbound,
    as a read-only int32 array of k rows of nfree digits (row[v] = x_v),
    in ascending order of the code Σ_v x_v·m^v; (1, 0) when nfree = 0.

    C and D are tuples of integer rows; the answer depends on nothing but
    (C, D, m), so it is cached.  The rows are int32 (exact: see _MAX_TABLE)
    so that a cached factor of nfree = 2 takes half the memory of int64
    rows, and brute_force_codes multiplies them by int32 weights without a
    mixed-type product.  A value vector u ∈ (ℤ/m)^neq has the code
    Σ_e u_e·m^e: the flag table has shape (m,)*neq with axis a holding
    coordinate neq−1−a, so a cell's flat index is its code.  The reachable
    set R of D·ȳ starts as {0} and takes one bound variable at a time,
    R ← R + ⟨d⟩ with d = D[:, b].  R is a subgroup, so a step with d ∈ R
    leaves it as it is.  Otherwise, with k = m / gcd(m, d), the step ORs
    the table with its cyclic shift by g·d for g = 1, 2, 4, … while g < k:
    R + {0..2g−1}·d is (R + {0..g−1}·d) + {0, g·d}, and k·d = 0, so the
    last shift leaves R + ⟨d⟩.  Then every free assignment, one digit row
    per code in ascending order, is tested for −C·x̄ ∈ R.
    """
    neq = len(C)
    nfree, nbound = len(C[0]), len(D[0])
    weights = m ** np.arange(neq, dtype=np.int64)
    table = np.zeros((m,) * neq, dtype=np.bool_)
    flat = table.reshape(-1)
    flat[0] = True
    axes = tuple(range(neq))
    for b in range(nbound):
        d = np.asarray([row[b] % m for row in D], dtype=np.int64)
        if flat[d @ weights]:
            continue
        k = m // math.gcd(m, *d.tolist())
        g = 1
        while g < k:
            table |= np.roll(table, tuple(g * d[::-1] % m), axis=axes)
            g *= 2
    digits = np.arange(m ** nfree, dtype=np.int32)[:, None] \
        // m ** np.arange(nfree, dtype=np.int32) % m
    # the int64 coefficients make the product int64: m^2 may pass 2^31
    Cm = np.asarray([[c % m for c in row] for row in C], dtype=np.int64)
    target = -(digits @ Cm.T) % m
    rows = digits[flat[target @ weights]]
    rows.setflags(write=False)
    return rows


def encode_assignment(assign, moduli) -> int:
    """Mixed-radix code of a free-variable assignment (tuple of coordinate
    tuples), matching the code order of brute_force_codes."""
    order = 1
    for m in moduli:
        order *= int(m)
    code = 0
    for v, coords in enumerate(reversed(assign)):
        idx = 0
        for c, m in zip(reversed(coords), reversed(list(moduli))):
            idx = idx * int(m) + int(c) % int(m)
        code = code * order + idx
    return code


def brute_force_codes(C, D, moduli):
    """All free-variable assignments satisfying C·x̄ + D·ȳ = 0 in ⊕ℤ/m_c,
    as codes; every modulus must be ≥ 1 (finite group).

    Returns (sols, nfree, order): sols is a strictly ascending int64
    array of mixed-radix codes (encode_assignment) of the solution
    assignments.  Coordinate c of free variable v is the digit of weight
    order^v·stride_c, stride_c = m_0⋯m_{c−1}, so each factor's cached
    digit rows become codes of M by one product with those weights, and
    the solution set of M is the Cartesian sum of the per-factor codes.
    """
    C = tuple(tuple(map(int, r)) for r in C)
    D = tuple(tuple(map(int, r)) for r in D)
    moduli = list(map(int, moduli))
    if any(m < 1 for m in moduli):
        raise ValueError("brute force requires a finite group (moduli >= 1)")
    rank = len(moduli)
    neq = len(C)
    nfree = len(C[0]) if neq else 0
    nbound = len(D[0]) if neq else 0
    order = math.prod(moduli)
    _check_sizes(order, neq, nfree, nbound)

    if neq == 0 or rank == 0:
        # no constraints (or trivial group): everything is a solution
        return np.arange(order ** nfree, dtype=np.int64), nfree, order

    # codes stay below order^nfree ≤ _MAX_TABLE < 2^31, so the int32
    # weights and sums are exact; each product builds a fresh array, so no
    # caller ever holds a cached per-factor array
    weights = order ** np.arange(nfree, dtype=np.int32)
    sols = None
    stride = 1
    for m in moduli:
        codes = _cyclic_solutions(C, D, m) @ (weights * stride)
        sols = codes if sols is None else (sols[:, None] + codes).ravel()
        stride *= m
    sols.sort()
    return sols.astype(np.int64), nfree, order


def using_numba() -> bool:
    """Always False: the oracle has only the numpy path.  Kept because
    perfbench/worker.py records it in its environment block."""
    return False
