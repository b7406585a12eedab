"""Seeded random corpora: formulas, low formulas, groups, homomorphisms.

Every generator takes a random.Random so tests and the acceptance suite are
reproducible bit for bit.
"""

from __future__ import annotations

import random
from math import gcd

from .formulas import Equation, PpFormula, is_low
from .groups import Element, FgGroup, Homomorphism, Subgroup
from .intlinalg import mat_mul


def random_formula(rng: random.Random, max_free: int = 2, max_bound: int = 3,
                   coeff: int = 5, max_eqs: int = 3) -> PpFormula:
    nfree = rng.randint(1, max_free)
    nbound = rng.randint(0, max_bound)
    fv = tuple(f"x{i}" for i in range(nfree))
    bv = tuple(f"y{i}" for i in range(nbound))
    eqs = []
    for _ in range(rng.randint(1, max_eqs)):
        lhs = tuple(
            (rng.randint(-coeff, coeff), v) for v in fv + bv
        )
        eqs.append(Equation(lhs, ((0, fv[0]),)))
    return PpFormula(fv, bv, tuple(eqs))


def random_low_formula(rng: random.Random, coeff: int = 5,
                       max_tries: int = 200) -> PpFormula:
    """A random pp-formula ψ(x) with ψ[ℤ] = 0.

    Rejection sampling over one-free-variable formulas; a torsion equation
    c·x + ... = 0 with c ≠ 0 is forced into the system so the search
    terminates quickly.
    """
    for _ in range(max_tries):
        f = random_formula(rng, max_free=1, coeff=coeff)
        c = rng.randint(1, coeff)
        x = f.free_vars[0]
        anchor = Equation(
            tuple((rng.randint(-coeff, coeff) if v != x else c, v)
                  for v in f.free_vars + f.bound_vars),
            ((0, x),),
        )
        f = PpFormula(f.free_vars, f.bound_vars, f.equations + (anchor,))
        if is_low(f):
            return f
    raise RuntimeError("could not sample a low formula")


def random_group(rng: random.Random, max_rank: int = 3,
                 moduli_pool=(2, 3, 4, 5, 8, 9, 12), free_ok: bool = True) -> FgGroup:
    pool = list(moduli_pool) + ([0] if free_ok else [])
    rank = rng.randint(1, max_rank)
    return FgGroup(tuple(rng.choice(pool) for _ in range(rank)))


def random_element(rng: random.Random, M: FgGroup) -> Element:
    return M.element([
        rng.randrange(m) if m else rng.randint(-10, 10) for m in M.moduli
    ])


def random_subgroup(rng: random.Random, M: FgGroup, max_gens: int = 3) -> Subgroup:
    gens = [random_element(rng, M) for _ in range(rng.randint(0, max_gens))]
    return Subgroup.from_generators(M, gens)


def random_homomorphism(rng: random.Random, M: FgGroup, N: FgGroup) -> Homomorphism:
    """A random homomorphism M → N: generator i maps into N[d_i], which is
    ⟨(t_j/gcd(t_j, d_i))·e_j⟩ for the moduli t_j of N, all of N for d_i = 0."""
    rows = []
    for d in M.moduli:
        H = N.diagonal_subgroup([t // gcd(t, d) if d else 1 for t in N.moduli])
        # random lattice point of the annihilator, reduced into the group
        combo = [rng.randint(-5, 5) for _ in H.basis]
        coords = mat_mul([combo], H.basis, N.rank)[0]
        rows.append(list(N.element(coords).coords))
    return Homomorphism(M, N, rows)
