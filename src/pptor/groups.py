"""Finitely generated abelian groups with exact integer arithmetic.

A group is stored as a tuple of coordinate moduli: modulus 0 means an
infinite cyclic coordinate, modulus m ≥ 1 a ℤ/m coordinate.  Subgroups are
row lattices R ⊆ L ⊆ ℤ^g (R the relation lattice) kept in canonical
Hermite form, so equality of subgroups is equality of matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, inf, lcm, prod

from ._lexer import Cursor
from .intlinalg import (
    congruence_columns_solvable,
    hermite_row_basis,
    identity_matrix,
    in_lattice,
    lattice_coords,
    lattice_intersection,
    mat_mul,
    pivot_product,
    reduce_above_pivots,
    smith_normal_form,
    solve_congruence_columns,
)


class GroupError(ValueError):
    pass


# Trial division tries divisors up to this bound, so every n < 10^12 factors
# completely.  A cofactor above the bound is first tested by Miller–Rabin,
# which certifies a prime below MILLER_RABIN_BOUND; a composite cofactor with
# no divisor up to the bound is refused rather than searched, as is a prime
# one at or past MILLER_RABIN_BOUND.
TRIAL_DIVISION_LIMIT = 10**6

# Miller–Rabin with the first 13 primes as bases decides primality of every
# n below this bound, the least strong pseudoprime to all of them
# (Sorenson and Webster, Math. Comp. 86 (2017); Cohen, GTM 138, §8.2).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981

# Largest rank (number of cyclic coordinates) of a group the parser builds
# and evaluate works in.  HNF and Smith form cost grows steeply with the
# rank: at rank 64 `chain --witness 2 64 1 --indices` takes 0.8–0.9 s, and
# with the limit lifted `complement 0 "(Z/2)^300"` 1.1–1.2 s (1.1–1.3 s with
# H of rank 299) and `chain --witness 2 60 6` (rank 360) 0.9–1.1 s.  `ulm`
# builds no lattice: `ulm "(Z/2)^600"` takes 0.02–0.03 s in process (2 CPUs,
# Python 3.11).
MAX_RANK = 64


def _certified_prime(n: int) -> bool:
    """Whether n lies above TRIAL_DIVISION_LIMIT and below
    MILLER_RABIN_BOUND and is prime: a strong probable prime to every base
    in MILLER_RABIN_BASES.  Smaller n are left to trial division."""
    if not TRIAL_DIVISION_LIMIT < n < MILLER_RABIN_BOUND or n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """{p: v_p(n)} for n ≥ 1, primes ascending; GroupError past the limit.

    Trial division, except that n and the cofactor left after each prime
    divided out are first tested by _certified_prime: a prime cofactor
    above TRIAL_DIVISION_LIMIT ends the search at once."""
    if n < 1:
        raise GroupError(f"cannot factor {n}")
    out = {}
    d = 2
    prime = _certified_prime(n)
    while not prime and d * d <= n:
        if d > TRIAL_DIVISION_LIMIT:
            raise GroupError(
                f"cannot factor {n}: it has no prime factor up to the trial "
                f"division limit {TRIAL_DIVISION_LIMIT}")
        if n % d == 0:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            prime = _certified_prime(n)
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


class FgGroup:
    """ℤ^g modulo the lattice spanned by m_i·e_i for each nonzero modulus."""

    def __init__(self, moduli=()):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 0 for m in moduli):
            raise GroupError("moduli must be nonnegative")
        self.moduli = moduli
        self._canonical = None
        self._full = None

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def _canonical_form(self):
        """(invariant factors d_1 | d_2 | …, all ≠ 1, free rank).

        ℤ/a ⊕ ℤ/b ≅ ℤ/gcd(a, b) ⊕ ℤ/lcm(a, b), so one pass over the pairs
        i < j of the nonzero moduli, replacing (a_i, a_j) by their gcd and
        lcm, leaves a divisor chain: a_i divides every later entry once
        row i is done.  O(rank²) gcds, and no modulus is factored.
        """
        if self._canonical is None:
            a = sorted(m for m in self.moduli if m)
            for i in range(len(a)):
                for j in range(i + 1, len(a)):
                    g = gcd(a[i], a[j])
                    a[i], a[j] = g, a[i] // g * a[j]
            self._canonical = (tuple(d for d in a if d != 1),
                               self.rank - len(a))
        return self._canonical

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self._canonical_form()[0]

    @property
    def free_rank(self) -> int:
        return self._canonical_form()[1]

    @property
    def is_finite(self) -> bool:
        return 0 not in self.moduli

    def order(self):
        return prod(self.moduli) if self.is_finite else inf

    def exponent(self) -> int:
        if not self.is_finite:
            raise GroupError("exponent is defined for finite groups only")
        return lcm(*self.moduli)

    def reduce_coords(self, coords) -> tuple[int, ...]:
        """The coordinates of the element with these coordinates, reduced:
        c % m on a coordinate ℤ/m, c itself on a coordinate ℤ."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise GroupError(f"expected {self.rank} coordinates, got {len(coords)}")
        return tuple(c % m if m else c for c, m in zip(coords, self.moduli))

    def element(self, coords) -> "Element":
        return Element(self, self.reduce_coords(coords))

    def zero(self) -> "Element":
        return self.element((0,) * self.rank)

    def elements(self):
        """All elements; finite groups only."""
        for coords in self.element_coords():
            yield Element(self, coords)

    def element_coords(self):
        """The coordinate tuples of elements(), in the same order: the last
        coordinate runs fastest.  Finite groups only."""
        if not self.is_finite:
            raise GroupError("cannot enumerate an infinite group")
        return itertools.product(*(range(m) for m in self.moduli))

    def diagonal_subgroup(self, entries) -> "Subgroup":
        """⟨d_j·e_j⟩, one entry d_j per coordinate, built from its known
        HNF: the row gcd(d_j, m_j)·e_j for each coordinate, none where that
        gcd is 0.  On ℤ/m_j, d_j = 0 gives m_j·e_j; on ℤ the gcd is |d_j|."""
        g = self.rank
        basis = []
        for j, (d, m) in enumerate(zip(entries, self.moduli, strict=True)):
            d = gcd(d, m)
            if d:
                basis.append((0,) * j + (d,) + (0,) * (g - j - 1))
        return Subgroup._from_hnf(self, basis)

    def full_subgroup(self) -> "Subgroup":
        if self._full is None:
            self._full = self.diagonal_subgroup([1] * self.rank)
        return self._full

    def zero_subgroup(self) -> "Subgroup":
        return self.diagonal_subgroup([0] * self.rank)

    def __eq__(self, other):
        return isinstance(other, FgGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __str__(self):
        if not self.moduli:
            return "0"
        parts = []
        for m in self.moduli:
            parts.append("Z" if m == 0 else f"Z/{m}")
        return " + ".join(parts)

    def __repr__(self):
        return f"FgGroup({self.moduli})"


@dataclass(frozen=True)
class Element:
    group: FgGroup
    coords: tuple[int, ...]

    def __add__(self, other: "Element") -> "Element":
        self._check(other)
        return self.group.element(
            [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __sub__(self, other: "Element") -> "Element":
        self._check(other)
        return self.group.element(
            [a - b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self) -> "Element":
        return self.group.element([-a for a in self.coords])

    def __rmul__(self, n: int) -> "Element":
        return self.group.element([n * a for a in self.coords])

    def _check(self, other):
        if self.group != other.group:
            raise GroupError("elements of different groups")

    def is_zero(self) -> bool:
        return not any(self.coords)

    def __str__(self):
        return "(" + ", ".join(map(str, self.coords)) + ")"


class Subgroup:
    """A subgroup of an FgGroup, canonically a row lattice R ⊆ L ⊆ ℤ^g.

    The basis is the HNF of the generator rows together with R, the rows
    m_j·e_j of the nonzero moduli: one hermite_row_basis over the ambient's
    moduli, with entries reduced modulo m_j on each ℤ/m_j coordinate.  Where
    that HNF is already known (diagonal subgroups, intersections, evaluate,
    all_subgroups), _from_hnf checks it instead, in any ambient.  Orders
    and indices are read off the pivots of the HNFs
    (intlinalg.pivot_product).
    """

    def __init__(self, ambient: FgGroup, lattice_rows):
        self.ambient = ambient
        rows = [list(map(int, r)) for r in lattice_rows]
        if any(len(r) != ambient.rank for r in rows):
            raise GroupError(
                f"generator rows of {ambient} need {ambient.rank} coordinates")
        self.basis = tuple(map(tuple, hermite_row_basis(rows, ambient.moduli)))

    @classmethod
    def _from_hnf(cls, ambient: FgGroup, basis) -> "Subgroup":
        """The subgroup whose canonical basis B, the HNF (rows of ints) of a
        lattice that contains m_j·e_j for each nonzero modulus, is known.

        B is checked instead of recomputed: its rows are echelon with
        positive pivots; each column ℤ/m_j is a pivot column whose pivot
        divides m_j, while a column ℤ takes any pivot or none (its entries
        are then free); each entry above a pivot d lies in [0, d); and
        m_j·e_j lies in the lattice of the rows from its pivot row down.
        That last check runs from the bottom row up, so the rows below
        already contain their part of the relations.  These are exactly the
        B with hermite_row_basis(B, moduli) == B (Cohen, GTM 138, §2.4).
        """
        moduli = ambient.moduli
        n = len(moduli)
        B = tuple(map(tuple, basis))
        cols = []  # the pivot column of each row
        j = 0
        for i, row in enumerate(B):
            if len(row) != n:
                raise GroupError(
                    f"row {i} of a Hermite basis in {ambient} needs {n} entries")
            if any(row[:j]):
                raise GroupError(f"row {i} has an entry left of its pivot")
            while j < n and not row[j] and not moduli[j]:
                j += 1  # a column ℤ without a pivot
            if j == n:
                raise GroupError(f"row {i} is zero")
            d = row[j]
            if not d:
                break  # a column ℤ/m without a pivot
            if d < 0 or moduli[j] % d:
                raise GroupError(f"pivot {d} in column {j} is not a positive "
                                 f"divisor of its modulus {moduli[j]}")
            cols.append(j)
            j += 1
        missing = next((k for k in range(j, n) if moduli[k]), None)
        if missing is not None:
            raise GroupError(f"column {missing} of modulus {moduli[missing]} "
                             f"has no pivot")
        for i in reversed(range(len(B))):
            row, j = B[i], cols[i]
            if not any(row[j + 1:]):
                continue
            for below, k in zip(B[i + 1:], cols[i + 1:]):
                if not 0 <= row[k] < below[k]:
                    raise GroupError(f"entry {row[k]} of row {i} is not "
                                     f"reduced modulo pivot {below[k]}")
            s = moduli[j] // row[j]
            if s:
                # m_j·e_j is in the lattice iff s·row − m_j·e_j is in the
                # lattice of the rows below
                v = [s * x for x in row]
                v[j] = 0
                if not in_lattice(B[i + 1:], v):
                    raise GroupError(
                        f"{moduli[j]}·e_{j} is not in the lattice of the rows")
        H = cls.__new__(cls)
        H.ambient = ambient
        H.basis = B
        return H

    @classmethod
    def from_generators(cls, ambient: FgGroup, gens) -> "Subgroup":
        rows = []
        for g in gens:
            if isinstance(g, Element):
                if g.group != ambient:
                    raise GroupError("generator not in the ambient group")
                rows.append(list(g.coords))
            else:
                rows.append(list(map(int, g)))
                if len(rows[-1]) != ambient.rank:
                    raise GroupError("generator has wrong length")
        return cls(ambient, rows)

    def contains(self, a: Element) -> bool:
        if a.group != self.ambient:
            raise GroupError("element not in the ambient group")
        return in_lattice(self.basis, a.coords)

    def __le__(self, other: "Subgroup") -> bool:
        if self.ambient != other.ambient:
            raise GroupError("subgroups of different groups")
        return all(in_lattice(other.basis, r) for r in self.basis)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and self.ambient == other.ambient
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def order(self):
        """|L/R|, i.e. the number of elements, or inf.

        R is spanned by m_i·e_i for the nonzero moduli, so L/R is finite iff
        L has as many rows, and then |L/R| = Π m_i over L's pivot product.
        """
        nonzero = [m for m in self.ambient.moduli if m]
        if len(self.basis) != len(nonzero):
            return inf
        return prod(nonzero) // pivot_product(self.basis)

    def sum(self, other: "Subgroup") -> "Subgroup":
        if self.ambient != other.ambient:
            raise GroupError("subgroups of different groups")
        return Subgroup(self.ambient, self.basis + other.basis)

    __add__ = sum

    def intersection(self, other: "Subgroup") -> "Subgroup":
        if self.ambient != other.ambient:
            raise GroupError("subgroups of different groups")
        # lattice_intersection's rows already are the HNF over the moduli
        return Subgroup._from_hnf(self.ambient, lattice_intersection(
            self.basis, other.basis, self.ambient.moduli))

    def index_in(self, other: "Subgroup"):
        """[other : self]; self ⊆ other required."""
        if not self <= other:
            raise GroupError("not a sub-subgroup")
        if len(self.basis) != len(other.basis):
            return inf
        return pivot_product(self.basis) // pivot_product(other.basis)

    def elements(self):
        """Elements of the subgroup as ambient Elements; finite only."""
        grp, emb = self.as_group_with_embedding()
        for x in grp.element_coords():
            yield self.ambient.element(mat_mul([x], emb, self.ambient.rank)[0])

    def _relation_coords(self):
        """The relations of H = L/R in the coordinates of the basis rows of
        L: the coordinates in L of each row m_i·e_i of R, in column order
        (intlinalg.lattice_coords), so that their product with L is R's
        rows.  L is an echelon HNF that contains R, so each column i with
        m_i ≠ 0 is one of its pivot columns, with pivot d_i | m_i: those
        coordinates are zero before that row of L and m_i/d_i at it.  The
        coordinate rows are thus echelon with positive leading entries, so
        their HNF needs only the entries above its pivots reduced.
        """
        L = self.basis
        g = len(self.ambient.moduli)
        rel = []
        for i, m in enumerate(self.ambient.moduli):
            if m:
                e = [0] * g
                e[i] = m
                coords = lattice_coords(L, e)
                if coords is None:
                    raise GroupError(
                        "relation row outside the subgroup lattice")
                rel.append(coords)
        return rel

    def as_group_with_embedding(self):
        """(H as an abstract FgGroup, rows = ambient coords of its generators):
        the Smith form of H's relations in the coordinates of its basis rows
        (_relation_coords), reduced above their pivots."""
        L = self.basis
        if not L:
            return FgGroup(()), []
        rel = self._relation_coords()
        reduce_above_pivots(rel)
        grp, gens = _group_from_lattice(len(L), rel)
        return grp, mat_mul(gens, L)

    def as_group(self) -> FgGroup:
        return self.as_group_with_embedding()[0]

    def __str__(self):
        return f"<{len(self.basis)} basis rows in {self.ambient}>"

    __repr__ = __str__


def _group_from_lattice(ngens: int, lattice):
    """(ℤ^ngens / lattice, rows of ℤ^ngens that map to its generators).

    With U·lattice·V = S in Smith form, the quotient has one coordinate of
    modulus s_i per diagonal entry s_i ≠ 1 (0 past the rank of the lattice),
    and its generator is row i of V⁻¹.
    """
    if not lattice:
        return FgGroup((0,) * ngens), identity_matrix(ngens)
    _, S, _, Vi = smith_normal_form(lattice, ("Vinv",))
    moduli = [S[i][i] if i < len(lattice) else 0 for i in range(ngens)]
    keep = [i for i, m in enumerate(moduli) if m != 1]
    return FgGroup(tuple(moduli[i] for i in keep)), [Vi[i] for i in keep]


def quotient(M: FgGroup, H: Subgroup) -> FgGroup:
    if H.ambient != M:
        raise GroupError("subgroup of a different group")
    return _group_from_lattice(M.rank, H.basis)[0]


def is_isomorphic(M: FgGroup, N: FgGroup) -> bool:
    return (M.invariant_factors == N.invariant_factors
            and M.free_rank == N.free_rank)


def direct_sum(*groups: FgGroup) -> FgGroup:
    moduli = tuple(m for G in groups for m in G.moduli)
    return FgGroup(moduli)


class Homomorphism:
    """Given by a matrix: row i is the image of source generator e_i."""

    def __init__(self, source: FgGroup, target: FgGroup, matrix):
        self.source = source
        self.target = target
        self.matrix = tuple(tuple(int(c) for c in row) for row in matrix)
        if len(self.matrix) != source.rank:
            raise GroupError("one image row per source generator required")
        for row, m in zip(self.matrix, source.moduli):
            if len(row) != target.rank:
                raise GroupError("image row has wrong length")
            # m·e_i = 0 needs m·c ≡ 0 (mod t) per coordinate, c = 0 on ℤ
            if m != 0 and any(m * c % t if t else c
                              for c, t in zip(row, target.moduli)):
                raise GroupError(
                    f"incompatible homomorphism: {m}·{target.element(row)} "
                    f"≠ 0 in target")

    def __call__(self, a: Element) -> Element:
        if a.group != self.source:
            raise GroupError("element not in the source group")
        return self.target.element(
            mat_mul([a.coords], self.matrix, self.target.rank)[0])

    def image_of_subgroup(self, H: Subgroup) -> Subgroup:
        if H.ambient != self.source:
            raise GroupError("subgroup of a different group")
        return Subgroup(self.target,
                        mat_mul(H.basis, self.matrix, self.target.rank))

    def image(self) -> Subgroup:
        return self.image_of_subgroup(self.source.full_subgroup())


# ---------------------------------------------------------------------------
# constrained homomorphisms, built (find_constrained_hom) or only decided
# (constrained_hom_exists, the pp-type oracle), solved one target modulus at
# a time, with no well-definedness rows


def _coords(x, G: FgGroup):
    """Coordinates of x, an Element of G or a sequence of G.rank integers."""
    if isinstance(x, Element):
        if x.group != G:
            raise GroupError(f"{x} of {x.group} is not an element of {G}")
        return x.coords
    x = tuple(x)
    if len(x) != G.rank:
        raise GroupError(f"expected {G.rank} coordinates of {G}, got {len(x)}")
    return x


def _modulus_systems(source: FgGroup, target: FgGroup, constraints):
    """The homomorphisms source → target with f(a) = b for each (a, b) in
    constraints, as one congruence system per distinct target modulus t:
    a list of (t, js, live, A, rhs), or None when a modulus with no system
    already refuses.

    Entry j of f(v) is Σ_i v_i·x_{i,j}, taken modulo t_j alone.  f is well
    defined iff d_i·x_{i,j} ≡ 0 (mod t_j) for source modulus d_i, i.e.
    Hom(ℤ/d_i, ℤ/t) = u_i·ℤ/t with u_i = t/gcd(d_i, t) (u_i = 1 when
    d_i = t = 0).  Writing x_{i,j} = u_i·y_{i,j} meets that condition, and
    x_{i,j} is forced to 0 when u_i = t (for t = 0: when d_i ≠ 0).  The
    other source coordinates are live: live holds their (i, u_i), and
    A·y ≡ rhs[c] (mod t) is the system of target column js[c], with one
    row (v_i·u_i for each live i) per constraint v ↦ w.  A modulus with no live unknown, or no
    constraint, has no system: its columns are 0, which answers iff every
    right-hand side is ≡ 0 (mod t).
    """
    pairs = [(_coords(a, source), _coords(b, target)) for a, b in constraints]
    columns: dict[int, list[int]] = {}
    for j, t in enumerate(target.moduli):
        columns.setdefault(t, []).append(j)
    systems = []
    for t, js in columns.items():
        live = []
        for i, d in enumerate(source.moduli):
            u = t // gcd(d, t) if d or t else 1
            if u != t:
                live.append((i, u))
        rhs = [[w[j] for _, w in pairs] for j in js]
        if live and pairs:
            systems.append((t, js, live,
                            [[v[i] * u for i, u in live] for v, _ in pairs],
                            rhs))
        elif any(c % t if t else c for col in rhs for c in col):
            return None
    return systems


def find_constrained_hom(source: FgGroup, target: FgGroup, constraints):
    """A Homomorphism source → target with f(a) = b for each (a, b) in
    constraints (elements, or coordinate sequences), or None.

    Each target modulus has its own small system (_modulus_systems), whose
    columns share one Smith form (intlinalg.solve_congruence_columns).
    """
    systems = _modulus_systems(source, target, constraints)
    if systems is None:
        return None
    matrix = [[0] * target.rank for _ in range(source.rank)]
    for t, js, live, A, rhs in systems:
        cols = solve_congruence_columns(A, rhs, [t] * len(js))
        if cols is None:
            return None
        for j, y in zip(js, cols):
            for (i, u), c in zip(live, y):
                matrix[i][j] = u * c
    return Homomorphism(source, target, matrix)


def constrained_hom_exists(source: FgGroup, target: FgGroup,
                           constraints) -> bool:
    """Whether find_constrained_hom(source, target, constraints) finds a
    homomorphism, decided on the same systems without building it
    (intlinalg.congruence_columns_solvable)."""
    systems = _modulus_systems(source, target, constraints)
    return systems is not None and all(
        congruence_columns_solvable(A, rhs, [t] * len(js))
        for t, js, _, A, rhs in systems)


# ---------------------------------------------------------------------------
# group DSL: Z, Z/n, +, ^, parentheses


def _check_rank(rank: int) -> None:
    if rank > MAX_RANK:
        raise GroupError(f"group rank {rank} exceeds the limit {MAX_RANK}")


def parse_group(text: str) -> FgGroup:
    """Parse e.g. '(Z/4)^3 + Z/2 + Z^2' into an FgGroup of rank ≤ MAX_RANK."""
    tokens = Cursor(text, "Z+^/()", _group_error, names=False)
    peek, take = tokens.peek, tokens.take

    def parse_expr():
        parts = [parse_power()]
        while peek()[0] == "+":
            take()
            parts.append(parse_power())
        _check_rank(sum(G.rank for G in parts))
        return direct_sum(*parts)

    def parse_power():
        base = parse_base()
        if peek()[0] == "^":
            take()
            n = take("int")[1]
            _check_rank(base.rank * n)
            return direct_sum(*([base] * n)) if base.rank else base
        return base

    def parse_base():
        tok = peek()
        if tok[0] == "(":
            take()
            g = parse_expr()
            take(")")
            return g
        if tok[0] == "Z":
            take()
            if peek()[0] == "/":
                take()
                n = take("int")[1]
                if n < 1:
                    raise GroupError("Z/n requires n >= 1")
                return FgGroup((n,))
            return FgGroup((0,))
        if tok[0] == "int" and tok[1] == 0:
            take()
            return FgGroup(())
        tokens.unexpected()

    g = parse_expr()
    if peek()[0] != "eof":
        raise GroupError(f"unexpected trailing token {peek()[1]!r}")
    return g


def _group_error(message: str, line: int, col: int) -> GroupError:
    return GroupError(f"{message} in group expression")


# ---------------------------------------------------------------------------
# enumeration helpers


def _partitions(n: int):
    """Partitions of n as non-increasing tuples."""
    def rec(n, maxpart):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maxpart), 0, -1):
            for rest in rec(n - first, first):
                yield (first,) + rest
    yield from rec(n, n)


def abelian_groups_of_order(n: int) -> list[FgGroup]:
    """All abelian groups of order n, one per isomorphism class."""
    if n < 1:
        raise GroupError("order must be positive")
    factors = factorize(n)
    per_prime = []
    for p, e in sorted(factors.items()):
        per_prime.append([tuple(p ** a for a in part) for part in _partitions(e)])
    out = []
    for combo in itertools.product(*per_prime) if per_prime else [()]:
        moduli = tuple(m for part in combo for m in part)
        out.append(FgGroup(moduli))
    return out


def abelian_groups_upto(n: int) -> list[FgGroup]:
    return [G for k in range(1, n + 1) for G in abelian_groups_of_order(k)]


# all_subgroups lists the square HNFs that contain diag(m): (Z/2)^6, the
# order-64 group with the most subgroups (2,825), takes about 0.1 s.  Larger
# groups are refused.
MAX_SUBGROUPS_ORDER = 64


def all_subgroups(M: FgGroup) -> list[Subgroup]:
    """All subgroups of a finite group of order ≤ MAX_SUBGROUPS_ORDER, sorted
    by (order, basis).

    A subgroup of M = ⊕ ℤ/m_j is one square HNF B whose lattice contains
    diag(m): pivot d_j divides m_j and each entry above it lies in [0, d_j)
    (Cohen, GTM 138, §2.4.2).  The forms are listed from the bottom row up;
    row j = (d_j, t) is kept when (m_j/d_j)·t lies in the lattice of the
    rows below it, i.e. when m_j·e_j lies in the lattice.
    """
    if not M.is_finite:
        raise GroupError("subgroup enumeration requires a finite group")
    if M.order() > MAX_SUBGROUPS_ORDER:
        raise GroupError(
            f"order {M.order()} exceeds the limit {MAX_SUBGROUPS_ORDER} "
            f"on subgroup enumeration")
    moduli = M.moduli
    forms = [()]  # the rows with pivots j + 1, ..., n − 1 of each HNF
    for j in reversed(range(M.rank)):
        m = moduli[j]
        grown = []
        for low in forms:
            # the entries right of the pivot, each in [0, pivot of its column)
            tails = list(itertools.product(
                *(range(row[k]) for k, row in enumerate(low, j + 1))))
            for d in (d for d in range(1, m + 1) if m % d == 0):
                for t in tails:
                    v = [0] * (j + 1) + [m // d * x for x in t]
                    if in_lattice(low, v):
                        grown.append(((0,) * j + (d,) + t,) + low)
        forms = grown
    subs = [Subgroup._from_hnf(M, B) for B in forms]
    return sorted(subs, key=lambda H: (H.order(), H.basis))
