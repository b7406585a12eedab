"""Brute-force pp-formula solution enumeration.

Independent oracle for ppsolve.evaluate: enumerates every assignment of the
bound variables to group elements, records the reachable values of D·ȳ, and
then tests each free assignment directly.  No Smith-normal-form shortcuts.

The reachable set is built one bound variable at a time,
R ← R + {D[:, b]·g : g ∈ M}, removing duplicates after each step, so it
enumerates at most |R|·|M| sums per step instead of all |M|^nbound
assignments at once.  Everything runs in numpy.
"""

from __future__ import annotations

import numpy as np


# table sizes are |M|^eqs and |M|^nvars; keep them in int64/memory range
_MAX_TABLE = 1 << 26


class EnumerationLimit(RuntimeError):
    pass


def _check_sizes(order, neq, nfree, nbound):
    for power in (neq, nfree, nbound):
        if order ** max(power, 1) > _MAX_TABLE:
            raise EnumerationLimit(
                f"brute-force table too large: {order}^{power}"
            )


def _element_table(moduli: np.ndarray) -> np.ndarray:
    """(order, rank) array of all element coordinate vectors, index order
    matching mixed-radix encoding with the first coordinate fastest."""
    rank = len(moduli)
    order = int(np.prod(moduli)) if rank else 1
    table = np.zeros((order, rank), dtype=np.int64)
    idx = np.arange(order, dtype=np.int64)
    for c in range(rank):
        table[:, c] = idx % moduli[c]
        idx = idx // moduli[c]
    return table


def _encode_values(vals: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Encode (..., neq, rank) residue arrays into flat mixed-radix codes."""
    neq, rank = vals.shape[-2], vals.shape[-1]
    code = np.zeros(vals.shape[:-2], dtype=np.int64)
    stride = 1
    for e in range(neq):
        for c in range(rank):
            code = code + vals[..., e, c] * stride
            stride *= int(moduli[c])
    return code


def _assignment_values(coeffs, elem, nvars, moduli):
    """Vectorized −(coeffs·assignment) for all assignments.

    Returns codes array of length n_elem**nvars.
    """
    n_elem = elem.shape[0]
    total = n_elem ** nvars
    neq, _ = coeffs.shape
    rank = len(moduli)
    vals = np.zeros((total, neq, rank), dtype=np.int64)
    idx = np.arange(total, dtype=np.int64)
    for v in range(nvars):
        ei = (idx // (n_elem ** v)) % n_elem
        # (total, rank) coordinates of variable v's value
        coords = elem[ei]
        vals -= coeffs[:, v][None, :, None] * coords[:, None, :]
        vals %= np.asarray(moduli)[None, None, :]
    return _encode_values(vals, moduli)


def _mark_reachable(D, elem, moduli, strides, table):
    """Set table[code] for every value of D·ȳ over all ȳ ∈ M^nbound.

    Adds one bound variable at a time: R ← R + {D[:, b]·g : g ∈ M}.  Both
    summands contain 0, so each R contains the previous one and the table,
    which accumulates every step, holds exactly the current R.  Every sum is
    still enumerated; a step forms |R|·|M| ≤ |M|^nbound of them.
    """
    neq, nbound = D.shape
    digit_strides = strides.reshape(neq, len(moduli))
    table[0] = True
    reach = np.zeros((1, neq, len(moduli)), dtype=np.int64)
    for b in range(nbound):
        step = D[:, b][None, :, None] * elem[:, None, :] % moduli
        _, first = np.unique(_encode_values(step, moduli), return_index=True)
        sums = (reach[:, None] + step[first][None, :]) % moduli
        table[_encode_values(sums, moduli)] = True
        if b + 1 < nbound:
            codes = np.flatnonzero(table)
            reach = codes[:, None, None] // digit_strides % moduli


def brute_force_solutions(C, D, moduli) -> list[tuple[tuple[int, ...], ...]]:
    """All free-variable assignments satisfying C·x̄ + D·ȳ = 0 in ⊕ℤ/m_c.

    Returns, in deterministic order, tuples of element coordinate vectors
    (one per free variable).  Requires every modulus ≥ 1 (finite group).
    """
    sols, elem, nfree, order = brute_force_codes(C, D, moduli)
    return _decode_assignments(sols, elem, nfree, order)


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
    """Like brute_force_solutions but stops at the encoded solution array.

    Returns (sols, elem, nfree, order): sols is a sorted int64 array of
    mixed-radix codes (encode_assignment) of the solution assignments.
    """
    C = np.asarray([list(r) for r in C], dtype=object)
    D = np.asarray([list(r) for r in D], dtype=object)
    moduli_np = np.asarray([int(m) for m in moduli], dtype=np.int64)
    if np.any(moduli_np < 1):
        raise ValueError("brute force requires a finite group (moduli >= 1)")
    rank = len(moduli_np)
    neq = len(C)
    nfree = len(C[0]) if neq else 0
    nbound = len(D[0]) if neq else 0
    order = int(np.prod(moduli_np)) if rank else 1
    _check_sizes(order, neq, nfree, nbound)

    elem = _element_table(moduli_np)
    if neq == 0 or rank == 0:
        # no constraints (or trivial group): everything is a solution
        total = order ** nfree
        return np.arange(total, dtype=np.int64), elem, nfree, order

    # reduce coefficients into [0, m) per use; safe because each coordinate
    # is computed mod its own modulus and exp(M) bounds every modulus
    exp = int(np.lcm.reduce(moduli_np))
    C_red = np.asarray([[int(c) % exp for c in row] for row in C], dtype=np.int64)
    D_red = np.asarray([[int(c) % exp for c in row] for row in D], dtype=np.int64)

    strides = np.zeros(neq * rank, dtype=np.int64)
    s = 1
    for e in range(neq):
        for c in range(rank):
            strides[e * rank + c] = s
            s *= int(moduli_np[c])
    table = np.zeros(order ** neq, dtype=np.bool_)

    _mark_reachable(D_red, elem, moduli_np, strides, table)
    target = _assignment_values(C_red, elem, nfree, moduli_np) \
        if nfree else np.zeros(1, dtype=np.int64)
    sols = np.nonzero(table[target])[0]
    return sols, elem, nfree, order


def _decode_assignments(sols, elem, nfree, order):
    out = []
    for s in sols.tolist():
        assign = []
        for _ in range(nfree):
            assign.append(tuple(int(v) for v in elem[s % order]))
            s //= order
        out.append(tuple(assign))
    return out


def using_numba() -> bool:
    """Always False: the oracle has only the numpy path.  Kept because
    perfbench/worker.py records it in its environment block."""
    return False
