"""Independent checks of the benchmark's outputs.

Nothing here calls into pptor.  Each answer is checked against element-set
arithmetic over coordinate tuples, a naive enumeration, a brute-force search
or a closed form computed here.  Every check raises ``CheckError`` on a wrong
answer and returns ``None`` otherwise.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter


class CheckError(Exception):
    pass


def _fail(msg: str):
    raise CheckError(msg)


# ---------------------------------------------------------------------------
# number theory and element sets over ⊕ Z/m_i (every m_i ≥ 1)


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_power(q: int) -> tuple[int, int]:
    """(p, e) with q = p^e; q must be a prime power > 1."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    if q != 1:
        _fail(f"{q} is not a prime power")
    return p, e


def _reduce(v, moduli) -> tuple[int, ...]:
    return tuple(int(c) % m for c, m in zip(v, moduli))


def _add(x, y, moduli) -> tuple[int, ...]:
    return tuple((a + b) % m for a, b, m in zip(x, y, moduli))


def all_elements(moduli) -> frozenset:
    return frozenset(itertools.product(*(range(m) for m in moduli)))


def element_set(moduli, gens) -> frozenset:
    """The subgroup generated by ``gens``, by closure under addition."""
    gens = [_reduce(g, moduli) for g in gens]
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _add(x, g, moduli)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def scaled(n: int, elems, moduli) -> frozenset:
    return frozenset(tuple(n * c % m for c, m in zip(x, moduli)) for x in elems)


# ---------------------------------------------------------------------------
# eval-oracle: criterion 01's property, and the oracle against naive enumeration


def assignment_code(row, moduli, nfree: int) -> int:
    """Mixed-radix code of a free assignment given as one row of M^nfree:
    coordinate 0 fastest within an element, variable 0 fastest overall."""
    rank = len(moduli)
    order = math.prod(moduli)
    code = 0
    for v in reversed(range(nfree)):
        idx = 0
        for c in reversed(range(rank)):
            idx = idx * moduli[c] + int(row[v * rank + c]) % moduli[c]
        code = code * order + idx
    return code


def check_eval(order, basis, sols, moduli, nfree: int) -> None:
    """|evaluate(f, M)| equals the oracle's solution count, and every basis
    row of evaluate(f, M) is an oracle solution."""
    if order != len(sols):
        _fail(f"evaluate order {order} != {len(sols)} oracle solutions on {moduli}")
    solset = set(sols)
    for row in basis:
        if assignment_code(row, moduli, nfree) not in solset:
            _fail(f"generator {row} of evaluate is not an oracle solution on {moduli}")


def naive_solution_codes(C, D, moduli) -> set[int]:
    """Codes of all free assignments x̄ with ∃ȳ: C·x̄ + D·ȳ = 0, by trying
    every assignment of every variable."""
    nfree = len(C[0]) if C else 0
    nbound = len(D[0]) if D else 0
    elems = sorted(all_elements(moduli))
    out = set()
    for xs in itertools.product(elems, repeat=nfree):
        for ys in itertools.product(elems, repeat=nbound):
            if all(
                (sum(C[e][v] * xs[v][c] for v in range(nfree))
                 + sum(D[e][b] * ys[b][c] for b in range(nbound))) % m == 0
                for e in range(len(C)) for c, m in enumerate(moduli)
            ):
                out.add(assignment_code([t for x in xs for t in x], moduli, nfree))
                break
    return out


def check_oracle_naive(C, D, moduli, sols) -> None:
    naive = naive_solution_codes(C, D, moduli)
    if set(sols) != naive:
        _fail(f"oracle found {len(sols)} solutions, naive enumeration "
              f"{len(naive)}, for C={C} D={D} on {moduli}")


# ---------------------------------------------------------------------------
# purity-sweep: purity by definition, complements by element sets


class GroupSets:
    """Element sets of one finite group M = ⊕ Z/m_i, and n·M for each n
    dividing exp(M)."""

    def __init__(self, moduli):
        self.moduli = tuple(moduli)
        self.elements = all_elements(self.moduli)
        self.zero = (0,) * len(self.moduli)
        self.divisors = divisors(math.lcm(*self.moduli))
        self.multiples = {n: scaled(n, self.elements, self.moduli)
                          for n in self.divisors}


def check_purity(gs: GroupSets, h_rows, pure: bool, k_rows) -> None:
    """pure ⟺ n·M ∩ H = n·H for every n | exp(M); a complement K exists
    exactly when H is pure; H + K = M and H ∩ K = 0."""
    H = element_set(gs.moduli, h_rows)
    by_definition = all(gs.multiples[n] & H == scaled(n, H, gs.moduli)
                        for n in gs.divisors)
    if pure != by_definition:
        _fail(f"is_pure says {pure}, the definition says {by_definition} "
              f"for H = <{h_rows}> in {gs.moduli}")
    if (k_rows is not None) != pure:
        _fail(f"complement {'found' if k_rows is not None else 'missing'} "
              f"but pure = {pure} for H = <{h_rows}> in {gs.moduli}")
    if k_rows is None:
        return
    K = element_set(gs.moduli, k_rows)
    if H & K != {gs.zero}:
        _fail(f"H ∩ K ≠ 0 for H = <{h_rows}>, K = <{k_rows}> in {gs.moduli}")
    if {_add(h, k, gs.moduli) for h in H for k in K} != gs.elements:
        _fail(f"H + K ≠ M for H = <{h_rows}>, K = <{k_rows}> in {gs.moduli}")


# ---------------------------------------------------------------------------
# pp-types: the homomorphism oracle against a search over generator images


def hom_exists(src, tgt, constraints) -> bool:
    """Is there a homomorphism ⊕Z/src_i → ⊕Z/tgt_j with f(c) = d for every
    (c, d) in constraints?  Tries every image of every generator."""
    tgt_elems = sorted(all_elements(tgt))
    options = [[y for y in tgt_elems
                if all(m * c % t == 0 for c, t in zip(y, tgt))] for m in src]
    want = [(tuple(c), _reduce(d, tgt)) for c, d in constraints]
    for images in itertools.product(*options):
        if all(tuple(sum(ci * img[j] for ci, img in zip(c, images)) % t
                     for j, t in enumerate(tgt)) == d
               for c, d in want):
            return True
    return False


def brute_type_equal(a1, emb1, n1, a2, emb2, n2) -> bool:
    """Types of a1 in n1 and a2 in n2 over the parameter group whose i-th
    generator sits at emb1[i] and emb2[i]: maps both ways that fix the
    parameters and exchange a1 and a2."""
    cons = list(zip(emb1, emb2)) + [(a1, a2)]
    return (hom_exists(n1, n2, cons)
            and hom_exists(n2, n1, [(d, c) for c, d in cons]))


def check_type_verdict(verdict: bool, want: bool, what: str) -> None:
    if verdict != want:
        _fail(f"hom_oracle_equal is {verdict} for {what}, expected {want}")


# ---------------------------------------------------------------------------
# cli-tour: schema validation and answers known apart from the program


class CliChecker:
    def __init__(self, schema_path):
        import jsonschema

        schema = json.loads(open(schema_path, encoding="utf-8").read())
        cls = jsonschema.validators.validator_for(schema)
        self._doc = cls(schema)
        self._result = {
            name: cls({"$defs": schema["$defs"], "$ref": f"#/$defs/{name}"})
            for name in schema["$defs"]
        }

    def check(self, spec: dict, stdout: str) -> None:
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            _fail(f"{spec['argv']}: output is not JSON ({exc})")
        errors = list(self._doc.iter_errors(doc))
        defname = doc.get("command", "").replace(" ", "-")
        if "result" in doc and defname in self._result:
            errors += self._result[defname].iter_errors(doc["result"])
        if errors:
            _fail(f"{spec['argv']}: schema violation: {errors[0].message}")
        if "result" not in doc:
            _fail(f"{spec['argv']}: error {doc.get('error')!r}")
        check_answer(spec, doc["result"], doc.get("trace"))


def _check_subgroup(sub: dict, moduli, gens, order: int, what: str) -> None:
    if tuple(sub["ambient"]["moduli"]) != tuple(moduli):
        _fail(f"{what}: ambient {sub['ambient']['moduli']} != {list(moduli)}")
    if sub["order"] != order:
        _fail(f"{what}: order {sub['order']} != {order}")
    if element_set(moduli, sub["generators"]) != element_set(moduli, gens):
        _fail(f"{what}: generators {sub['generators']} do not span <{gens}>")


def check_answer(spec: dict, result, trace) -> None:
    """Compare one CLI result with the value the spec derives on its own."""
    kind, what = spec["kind"], spec["argv"]
    if kind == "low":
        if result["low"] != spec["low"]:
            _fail(f"{what}: low = {result['low']}, expected {spec['low']}")
    elif kind == "eval-tour":
        _check_subgroup(result["subgroup"], (8, 2), [(4, 0)], 2, str(what))
    elif kind == "pure-tour":
        moduli = (8, 2)
        w = (trace or {}).get("witness", {})
        n, elem = w.get("n"), tuple(w.get("element", ()))
        H = element_set(moduli, [(2, 0)])
        if result["pure"] or (n, elem) != (2, (2, 0)):
            _fail(f"{what}: pure = {result['pure']}, witness {w}")
        if elem not in scaled(n, all_elements(moduli), moduli) & H \
                or elem in scaled(n, H, moduli):
            _fail(f"{what}: {elem} is not in {n}M ∩ H minus {n}H")
    elif kind == "complement-tour":
        _check_subgroup(result["complement"], (8, 2), [(1, 0)], 8, str(what))
    elif kind == "chain":
        p, M0, k = spec["p"], spec["M0"], spec["k"]
        orders = [p ** (k * (M0 - n)) for n in range(M0 + 1)] + [1]
        indices = [p ** k] * M0 + [1]
        factors = sorted(p ** m for m in range(1, M0 + 1) for _ in range(k))
        got = (result["orders"], result["indices"],
               result["stabilization_index"], result["group"]["invariant_factors"])
        if got != (orders, indices, M0, factors):
            _fail(f"{what}: got {got}, expected {(orders, indices, M0, factors)}")
    elif kind == "types":
        if result["count"] != spec["count"]:
            _fail(f"{what}: count {result['count']} != {spec['count']}")
    elif kind == "ulm":
        want = Counter(prime_power(q) for q in spec["parts"])
        got = {(a["p"], a["n"]): a["value"] for a in result["alpha"]}
        if got != dict(want) or result["gamma"]:
            _fail(f"{what}: alpha {got}, expected {dict(want)}")
    elif kind == "double":
        # E y. x = 2*y on ⊕Z/m_i is ⊕ gcd(2, m_i)·Z/m_i, whose canonical
        # Hermite basis is the diagonal of gcd(2, m_i)
        moduli = spec["parts"]
        g = len(moduli)
        gens = [[math.gcd(2, m) if j == i else 0 for j in range(g)]
                for i, m in enumerate(moduli)]
        order = math.prod(m // math.gcd(2, m) for m in moduli)
        sub = result["subgroup"]
        if (sub["generators"], sub["order"], result["free_variables"]) \
                != (gens, order, ["x"]):
            _fail(f"{what}: order {sub['order']}, generators {sub['generators']}")
    elif kind == "card":
        if result["verdict"] != spec["verdict"] \
                or spec["reason"] not in (trace or {}).get("reason", ""):
            _fail(f"{what}: {result['verdict']} ({trace})")
    elif kind == "limit-model":
        if result["model"] != spec["model"]:
            _fail(f"{what}: model {result['model']!r}")
    elif kind == "pure-true":
        if result["pure"] is not True:
            _fail(f"{what}: pure = {result['pure']}, expected true")
    else:
        _fail(f"unknown check kind {kind!r}")
