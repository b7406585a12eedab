"""Acceptance suite: ten criteria, each an independent runner.

Every runner uses fixed seeds and deterministic iteration order, returns a
CriterionResult, and never games its oracle: the reference side is always
computed by an independent method (brute-force enumeration, splitting
decisions, the homomorphism oracle, the curated soundness list, golden
files).
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import resources
from itertools import combinations

from . import cardinals as C
from . import chains, corpus, invariants, ppsolve, purity
from .formulas import is_low, normalize, scalar_formula, sum_formulas
from .groups import (
    FgGroup,
    Subgroup,
    abelian_groups_upto,
    all_subgroups,
    is_isomorphic,
    quotient,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(fn):
    def wrapper() -> CriterionResult:
        t0 = time.perf_counter()
        passed, detail = fn()
        return CriterionResult(fn.__name__.removeprefix("check_"),
                               passed, detail, time.perf_counter() - t0)
    wrapper.__name__ = fn.__name__
    return wrapper


@_timed
def check_evaluation_oracle():
    """1. evaluate(φ, M) = exhaustive enumeration; ≥500 formulas, |M| ≤ 64."""
    # imported here so that the CLI starts without numpy
    from . import kernels

    rng = random.Random(20260826)
    formulas = [corpus.random_formula(rng) for _ in range(500)]
    groups = abelian_groups_upto(64)
    pairs = 0
    before = kernels._cyclic_solutions.cache_info()
    for f in formulas:
        mf = normalize(f)
        nfree = len(f.free_vars)
        for M in groups:
            S = ppsolve.evaluate(f, M)
            sols, _, _ = kernels.brute_force_codes(mf.C, mf.D, M.moduli)
            if S.order() != len(sols):
                return False, f"cardinality mismatch for {f} on {M}"
            # generators of S all solve φ, and |S| = #solutions, so the
            # subgroup S equals the solution set
            r = M.rank
            for row in S.basis:
                assign = tuple(row[i * r:(i + 1) * r] for i in range(nfree))
                code = kernels.encode_assignment(assign, M.moduli)
                j = int(sols.searchsorted(code))
                if j >= len(sols) or sols[j] != code:
                    return False, f"extra generator {assign} for {f} on {M}"
            pairs += 1
    after = kernels._cyclic_solutions.cache_info()
    return True, (f"{len(formulas)} formulas × {len(groups)} groups = {pairs} "
                  f"pairs; oracle tables: {after.misses - before.misses} built, "
                  f"{after.hits - before.hits} reused")


@_timed
def check_complement_iff_pure():
    """2. complement(H,M) succeeds ⟺ is_pure(H,M), exhaustive |M| ≤ 32."""
    count = 0
    for M in abelian_groups_upto(32):
        for H in all_subgroups(M):
            pure = purity.is_pure(H, M)
            K = purity.complement(H, M)
            if (K is not None) != pure:
                return False, f"mismatch at H ≤ {M}, basis {H.basis}"
            if K is not None:
                if H.sum(K) != M.full_subgroup() or H.intersection(K).order() != 1:
                    return False, f"bad complement at H ≤ {M}"
            count += 1
    return True, f"{count} (M, H) pairs checked"


@_timed
def check_radical_laws():
    """3. f(t(M)) ⊆ t(N); t(M/t(M)) = 0; t(t(M)) = t(M); is_pure(t(M), M)."""
    rng = random.Random(3)
    for i in range(200):
        M = corpus.random_group(rng)
        N = corpus.random_group(rng)
        f = corpus.random_homomorphism(rng, M, N)
        tM, tN = purity.torsion_radical(M), purity.torsion_radical(N)
        if not (f.image_of_subgroup(tM) <= tN):
            return False, f"f(t(M)) ⊄ t(N) at trial {i}"
        Q = quotient(M, tM)
        if purity.torsion_radical(Q).order() != 1:
            return False, f"t(M/t(M)) ≠ 0 at trial {i}"
        T = tM.as_group()
        tT = purity.torsion_radical(T)
        if tT != T.full_subgroup():
            return False, f"t(t(M)) ≠ t(M) at trial {i}"
    for i in range(200):
        M = corpus.random_group(rng)
        if not purity.is_pure(purity.torsion_radical(M), M):
            return False, f"t(M) not pure at trial {i}"
    return True, "200 homomorphisms + 200 purity checks"


@_timed
def check_low_closure():
    """4. lowness preserved by sum_formulas and scalar_formula, 500 pairs."""
    rng = random.Random(4)
    for i in range(500):
        f1 = corpus.random_low_formula(rng)
        f2 = corpus.random_low_formula(rng)
        if not is_low(sum_formulas(f1, f2)):
            return False, f"sum not low at trial {i}: {f1} | {f2}"
        r = rng.randint(-5, 5)
        if not is_low(scalar_formula(r, f1)):
            return False, f"scalar {r} not low at trial {i}: {f1}"
    return True, "500 sum and scalar closures"


@_timed
def check_witness_chain():
    """5. φ₀ low; strict descent; index p^k ≥ 2; stabilization at M0."""
    cases = 0
    for p in (2, 3):
        for M0 in range(1, 9):
            for k in range(1, 4):
                chain, B = chains.witness_chain(p, M0, k)
                if not is_low(chain[0]):
                    return False, f"φ₀ not low at (p={p})"
                levels = [ppsolve.evaluate(f, B) for f in chain]
                orders = [s.order() for s in levels]
                want = [p ** (k * (M0 - n)) for n in range(M0 + 1)] + [1]
                if orders != want:
                    return False, f"orders {orders} ≠ {want} at {(p, M0, k)}"
                for n in range(M0):
                    idx = ppsolve.index(chain[n], chain[n + 1], B)
                    if idx != p ** k or idx < 2:
                        return False, f"index {idx} at {(p, M0, k)}, level {n}"
                if chains.stabilization_index(levels) != M0:
                    return False, f"stabilization not at M0 for {(p, M0, k)}"
                cases += 1
    return True, f"{cases} (p, M0, k) cases"


@_timed
def check_pp_type_oracle():
    """6. descriptor equality = hom oracle on all triples with |N| ≤ 16.

    Within each descriptor class every member is oracle-checked against the
    class representative, and representatives of distinct classes are
    oracle-checked pairwise unequal; the oracle is an equivalence relation
    (homomorphisms compose), so this certifies agreement on all pairs.
    """
    records = defaultdict(list)
    for N in abelian_groups_upto(16):
        for S in all_subgroups(N):
            if not purity.is_pure(S, N):
                continue
            key = S.as_group().moduli
            for a in N.elements():
                d = ppsolve.pp_type_descriptor(a, S, N, check_purity=False)
                records[key].append((d, a, S, N))
    triples = member_checks = rep_pairs = 0
    for key, recs in sorted(records.items()):
        triples += len(recs)
        classes = defaultdict(list)
        for d, a, S, N in recs:
            classes[d].append((a, S, N))
        for (a0, S0, N0), *members in classes.values():
            for a, S, N in members:
                member_checks += 1
                if not ppsolve.hom_oracle_equal(a, S, N, a0, S0, N0):
                    return False, (f"descriptor merged oracle-distinct types: "
                                   f"{a} in {N} and {a0} in {N0}")
        reps = [cls[0] for cls in classes.values()]
        for r1, r2 in combinations(reps, 2):
            rep_pairs += 1
            if ppsolve.hom_oracle_equal(*r1, *r2):
                return False, "descriptor split an oracle-equal type"
    return True, (f"{triples} triples, {member_checks} member checks, "
                  f"{rep_pairs} representative pairs")


@_timed
def check_ulm():
    """7. reconstruct∘ulm ≅ id for |G| ≤ 256; equality ⟺ ≅ for |G| ≤ 128."""
    big = abelian_groups_upto(256)
    for G in big:
        if not is_isomorphic(invariants.reconstruct(invariants.ulm_invariants(G)), G):
            return False, f"round trip failed at {G}"
    small = abelian_groups_upto(128)
    inv = [invariants.ulm_invariants(G) for G in small]
    for i, j in combinations(range(len(small)), 2):
        if (inv[i] == inv[j]) != is_isomorphic(small[i], small[j]):
            return False, f"completeness failed at {small[i]} vs {small[j]}"
    return True, f"{len(big)} round trips, {len(small)} groups pairwise"


SOUNDNESS_LIST = [
    # (relation, a, b, expected verdict) — ZFC theorems and independences
    ("lt", "aleph0", "2^aleph0", C.TRUE),          # Cantor
    ("lt", "aleph1", "2^aleph1", C.TRUE),          # Cantor
    ("lt", "beth(w)", "2^beth(w)", C.TRUE),        # Cantor
    ("lt", "beth(w)", "beth(w)^aleph0", C.TRUE),   # König at ℶ_ω
    ("lt", "alephw", "alephw^aleph0", C.TRUE),     # König at ℵ_ω
    ("le", "aleph1", "2^aleph0", C.TRUE),
    ("le", "aleph0", "beth(w)", C.TRUE),
    ("lt", "aleph0", "aleph1", C.TRUE),
    ("lt", "beth(1)", "beth(2)", C.TRUE),
    ("le", "alephw", "beth(w)", C.TRUE),
    ("lt", "aleph2", "alephw", C.TRUE),
    ("eq", "(2^aleph0)^aleph0", "2^aleph0", C.TRUE),
    ("eq", "aleph0+aleph0", "aleph0", C.TRUE),
    ("eq", "aleph0*aleph0", "aleph0", C.TRUE),
    ("eq", "3^aleph0", "2^aleph0", C.TRUE),
    ("eq", "aleph0^aleph0", "2^aleph0", C.TRUE),
    ("le", "2^aleph0", "2^aleph1", C.TRUE),
    ("lt", "17", "aleph0", C.TRUE),
    ("eq", "beth(0)", "aleph0", C.TRUE),
    ("lt", "aleph1", "beth(w)", C.TRUE),
    ("eq", "aleph0", "aleph1", C.FALSE),
    ("lt", "aleph1", "aleph0", C.FALSE),
    ("eq", "beth(w)^aleph0", "beth(w)", C.FALSE),  # Theorem-sta case 2
    ("lt", "2^aleph0", "aleph0", C.FALSE),
    ("eq", "aleph1", "2^aleph0", C.UNKNOWN),       # CH
    ("eq", "aleph2", "2^aleph0", C.UNKNOWN),
    ("lt", "2^aleph0", "aleph2", C.UNKNOWN),
    ("eq", "aleph1^aleph0", "aleph1", C.UNKNOWN),
    ("le", "beth(1)", "aleph1", C.UNKNOWN),        # CH direction
    ("eq", "alephw", "beth(w)", C.UNKNOWN),
]


@_timed
def check_stability():
    """8. Theorem-sta verdicts + 30-item soundness list, zero unsound."""
    v, reason = C.stability_predicate(C.parse_cardinal("beth(w)"))
    if v != C.FALSE or "König" not in reason:
        return False, f"ℶ_ω verdict {v} ({reason})"
    for mu in ("aleph0", "aleph1", "beth(w)", "2^aleph0", "lambda"):
        lam = C.normalize(C.Power(C.parse_cardinal(mu), C.ALEPH0))
        v, reason = C.stability_predicate(lam)
        if v != C.TRUE:
            return False, f"μ^ℵ₀ not stable for μ = {mu}: {v} ({reason})"
    v, _ = C.stability_predicate(C.parse_cardinal("aleph1"))
    if v != C.UNKNOWN:
        return False, f"ℵ₁ verdict {v}, expected Unknown"
    if len(SOUNDNESS_LIST) != 30:
        return False, "soundness list must have 30 items"
    for rel, a, b, want in SOUNDNESS_LIST:
        got, reason = C.compare(C.parse_cardinal(a), C.parse_cardinal(b), rel)
        if got != want:
            return False, f"{a} {rel} {b}: got {got} ({reason}), want {want}"
    return True, "ℶ_ω/μ^ℵ₀/ℵ₁ verdicts + 30-item list"


GOLDEN_TEMPLATES = {
    ("Tor", "w1"): "limit_model_tor_w1.txt",
    ("Tor", "w"): "limit_model_tor_w.txt",
    ("p", "w1"): "limit_model_p2_w1.txt",
    ("p", "w"): "limit_model_p2_w.txt",
}


def _golden(name: str) -> str:
    return (resources.files("pptor") / "golden" / name).read_text(encoding="utf-8")


@_timed
def check_limit_model_golden():
    """9. Template strings match the golden files byte-exactly; the two
    cofinality classes differ exactly by a ^(aleph0) wrapper."""
    lam = C.Var("λ")
    outs = {}
    for (variant, cof), fname in GOLDEN_TEMPLATES.items():
        arg = "Tor" if variant == "Tor" else 2
        text = invariants.limit_model_template(lam, cof, arg).text
        want = _golden(fname).rstrip("\n")
        if text != want:
            return False, f"{fname}: {text!r} != {want!r}"
        outs[(variant, cof)] = text
    for variant in ("Tor", "p"):
        w1, w = outs[(variant, "w1")], outs[(variant, "w")]
        head1, tail1 = w1.split(" ⊕ ", 1)
        headw, tailw = w.split(" ⊕ ", 1)
        if tail1 != tailw or headw != head1 + "^(aleph0)":
            return False, f"cofinality classes differ wrongly for {variant}"
    return True, "4 golden templates, ^(aleph0) difference verified"


REM_AB_TABLE = [
    # (pattern, expected bounded verdict) — 20 cases
    (purity.OrderPattern("zero"), True),
    (purity.OrderPattern("zero", p=3), True),
    (purity.OrderPattern("finite-support", p=2, exponent=1), True),
    (purity.OrderPattern("finite-support", p=2, exponent=7), True),
    (purity.OrderPattern("finite-support", p=5, exponent=2), True),
    (purity.OrderPattern("eventually-constant", p=2, exponent=0), True),
    (purity.OrderPattern("eventually-constant", p=2, exponent=1), True),
    (purity.OrderPattern("eventually-constant", p=2, exponent=3), True),
    (purity.OrderPattern("eventually-constant", p=3, exponent=3), True),
    (purity.OrderPattern("eventually-constant", p=7, exponent=10), True),
    (purity.OrderPattern("strictly-increasing", p=2), False),
    (purity.OrderPattern("strictly-increasing", p=2, rate=1, offset=0), False),
    (purity.OrderPattern("strictly-increasing", p=2, rate=1, offset=5), False),
    (purity.OrderPattern("strictly-increasing", p=2, rate=2), False),
    (purity.OrderPattern("strictly-increasing", p=3), False),
    (purity.OrderPattern("strictly-increasing", p=3, rate=3, offset=1), False),
    (purity.OrderPattern("strictly-increasing", p=5, rate=1), False),
    (purity.OrderPattern("strictly-increasing", p=7, rate=2, offset=2), False),
    (purity.OrderPattern("finite-support", p=3, exponent=100), True),
    (purity.OrderPattern("eventually-constant", p=5, exponent=100), True),
]


@_timed
def check_rem_ab():
    """10. Bounded-order membership criterion on the 20-case table."""
    if len(REM_AB_TABLE) != 20:
        return False, "table must have 20 cases"
    for pattern, want in REM_AB_TABLE:
        if purity.in_torsion_of_pe(pattern) != want:
            return False, f"wrong verdict for {pattern}"
    return True, "20 order patterns"


SUITES = {
    "evaluation": check_evaluation_oracle,
    "complement": check_complement_iff_pure,
    "radical": check_radical_laws,
    "closure": check_low_closure,
    "chain": check_witness_chain,
    "types": check_pp_type_oracle,
    "ulm": check_ulm,
    "stability": check_stability,
    "limit-model": check_limit_model_golden,
    "rem-ab": check_rem_ab,
}


def run_suite(name: str) -> list[CriterionResult]:
    if name == "all":
        return [fn() for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(list(SUITES) + ['all'])}")
    return [SUITES[name]()]
