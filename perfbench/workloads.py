"""The four workloads: seeded inputs, the timed operations, and their checks.

A workload is built from (seed, small) and hands out rounds.  A round is a
list of batches; a batch is a sequence of operations (zero-argument callables
whose return value is the output) plus a check that receives the outputs, with
``FAILED`` in place of an operation that raised.  Only the operations are
timed.  Every run executes whole rounds, so a run attempts the same mix of
operations whatever its length.

pptor functions are reached through their modules (``ppsolve.evaluate``, not a
name imported here), so the span tracer sees every call.
"""

from __future__ import annotations

import contextlib
import functools
import io
import random
import signal
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable, Iterable

import checks

FAILED = object()


class OpFailed(Exception):
    """An operation that did not produce an answer (error exit, time limit)."""


@dataclass
class Batch:
    ops: Iterable[Callable[[], object]]
    check: Callable[[list], None]


def present(moduli, rng: random.Random) -> tuple[int, ...]:
    """The same group with its cyclic factors in seeded random order.  The
    rank is kept, so every seed asks for about the same work."""
    factors = list(moduli)
    rng.shuffle(factors)
    return tuple(factors)


# ---------------------------------------------------------------------------


class EvalOracle:
    """One operation is one (formula, group) pair: evaluate, its order, and the
    brute-force oracle on the normalized formula.  A batch is one formula over
    every group of order ≤ MAX_ORDER; a round is one formula of each of the 24
    shapes (free, bound, equation counts) that corpus.random_formula draws,
    so every round carries the same mix of oracle table sizes.  The oracle's
    cost depends on the coefficients, so the formulas are the same for every
    seed, drawn from FORMULA_SEED; the seed orders the formulas and the
    groups and picks the pairs checked naively.  Every round repeats them."""

    name = "eval-oracle"
    MAX_ORDER = 40
    SHAPES = [(nf, nb, ne) for nf in (1, 2) for nb in range(4) for ne in (1, 2, 3)]
    FORMULA_SEED = "eval-oracle formulas"
    # naive enumeration checks one seeded pair per formula with at most this
    # many assignments of all variables
    NAIVE_MAX = 1024

    def __init__(self, seed: int, small: bool):
        from pptor import corpus, formulas, groups, kernels, ppsolve

        self.corpus, self.formulas = corpus, formulas
        self.kernels, self.ppsolve = kernels, ppsolve
        draw = random.Random(self.FORMULA_SEED)
        rng = random.Random(seed)
        fs = []
        for shape in self.SHAPES:
            while True:
                f = corpus.random_formula(draw)
                if (len(f.free_vars), len(f.bound_vars), len(f.equations)) == shape:
                    fs.append(f)
                    break
        rng.shuffle(fs)
        self.groups = groups.abelian_groups_upto(8 if small else self.MAX_ORDER)
        rng.shuffle(self.groups)
        orders = [G.order() for G in self.groups]
        self.cases = []  # (formula, index of the group checked naively)
        for f in fs:
            nvars = len(f.free_vars) + len(f.bound_vars)
            small_groups = [i for i, n in enumerate(orders)
                            if 2 <= n and n ** nvars <= self.NAIVE_MAX]
            self.cases.append((f, rng.choice(small_groups)))
        # hashes of the outputs already checked, per (formula, group) position
        self.verified: dict = {}

    def round(self) -> list[Batch]:
        return [self._batch(k, f, naive) for k, (f, naive) in enumerate(self.cases)]

    def _batch(self, k, f, naive) -> Batch:
        nfree = len(f.free_vars)

        def check(outs):
            for i, (M, out) in enumerate(zip(self.groups, outs)):
                if out is FAILED:
                    continue
                order, basis, sols, mf = out
                key = (order, basis, sols.shape, hash(sols.tobytes()))
                if self.verified.get((k, i)) == key:
                    continue
                sols = sols.tolist()
                checks.check_eval(order, basis, sols, M.moduli, nfree)
                if i == naive:
                    checks.check_oracle_naive(mf.C, mf.D, M.moduli, sols)
                self.verified[(k, i)] = key

        return Batch([functools.partial(self._op, f, M) for M in self.groups], check)

    def _op(self, f, M):
        S = self.ppsolve.evaluate(f, M)
        order = S.order()
        mf = self.formulas.normalize(f)
        sols = self.kernels.brute_force_codes(mf.C, mf.D, M.moduli)[0]
        return order, S.basis, sols, mf


class PuritySweep:
    """One operation is one (M, H) pair: is_pure and complement.  A batch is
    every subgroup H of one group M; a round sweeps every abelian group of
    order ≤ MAX_ORDER, each with its factors in seeded order and its
    subgroups in seeded order."""

    name = "purity-sweep"
    MAX_ORDER = 24

    def __init__(self, seed: int, small: bool):
        from pptor import groups, purity

        self.purity = purity
        rng = random.Random(seed)
        self.cases = []
        for G in groups.abelian_groups_upto(8 if small else self.MAX_ORDER):
            M = groups.FgGroup(present(G.moduli, rng))
            subs = groups.all_subgroups(M)
            rng.shuffle(subs)
            self.cases.append((M, subs))
        rng.shuffle(self.cases)
        self.verified: set = set()

    def round(self) -> list[Batch]:
        return [Batch([functools.partial(self._op, H, M) for H in subs],
                      functools.partial(self._check, M, subs))
                for M, subs in self.cases]

    def _op(self, H, M):
        pure = self.purity.is_pure(H, M)
        K = self.purity.complement(H, M)
        return pure, None if K is None else K.basis

    def _check(self, M, subs, outs):
        gs = None
        for H, out in zip(subs, outs):
            key = (M.moduli, H.basis, out)
            if out is FAILED or key in self.verified:
                continue
            gs = gs or checks.GroupSets(M.moduli)
            checks.check_purity(gs, H.basis, *out)
            self.verified.add(key)


class PpTypes:
    """All triples (a, S, N) with S pure in N and |N| ≤ MAX_ORDER, grouped by
    the parameter group S ≅ Mg (criterion 06's method).  A batch is one
    parameter group: classify each triple (descriptor, placement among the
    classes found so far, oracle against the class representative), then check
    every pair of class representatives with the oracle.  A round is every
    parameter group.  N has its factors in seeded order; the triples of each
    parameter group are in seeded order."""

    name = "pp-types"
    MAX_ORDER = 12
    BRUTE_MAX = 8

    def __init__(self, seed: int, small: bool):
        from pptor import groups, ppsolve, purity

        self.ppsolve = ppsolve
        rng = random.Random(seed)
        records = defaultdict(list)
        for G in groups.abelian_groups_upto(6 if small else self.MAX_ORDER):
            N = groups.FgGroup(present(G.moduli, rng))
            for S in groups.all_subgroups(N):
                if not purity.is_pure(S, N):
                    continue
                Mg, emb = S.as_group_with_embedding()
                for a in N.elements():
                    records[Mg.moduli].append((a, S, N, emb))
        self.params = []
        for key in sorted(records):
            rng.shuffle(records[key])
            self.params.append(records[key])
        self.brute: dict = {}

    def round(self) -> list[Batch]:
        return [self._batch(trips) for trips in self.params]

    def _batch(self, trips) -> Batch:
        classes: list = []  # (descriptor, index of the representative)

        def ops():
            for i in range(len(trips)):
                yield functools.partial(self._classify, trips, classes, i)
            for (_, x), (_, y) in combinations(list(classes), 2):
                yield functools.partial(self._pair, trips, x, y)

        return Batch(ops(), functools.partial(self._check, trips))

    def _classify(self, trips, classes, i):
        a, S, N, _ = trips[i]
        d = self.ppsolve.pp_type_descriptor(a, S, N, check_purity=False)
        for dr, r in classes:
            if self.ppsolve.pp_type_equal(d, dr):
                b, T, P, _ = trips[r]
                return "member", i, r, self.ppsolve.hom_oracle_equal(a, S, N, b, T, P)
        classes.append((d, i))
        return "new", i, None, None

    def _pair(self, trips, x, y):
        a, S, N, _ = trips[x]
        b, T, P, _ = trips[y]
        return "pair", x, y, self.ppsolve.hom_oracle_equal(a, S, N, b, T, P)

    def _check(self, trips, outs):
        for out in outs:
            if out is FAILED or out[0] == "new":
                continue
            kind, i, j, verdict = out
            what = f"triples {i} and {j} over {trips[i][2].moduli} / {trips[j][2].moduli}"
            # members share a descriptor class, representatives do not
            checks.check_type_verdict(verdict, kind == "member", what)
            (a, _, N, e1), (b, _, P, e2) = trips[i], trips[j]
            if N.order() > self.BRUTE_MAX or P.order() > self.BRUTE_MAX:
                continue
            key = (id(trips), i, j)
            if key not in self.brute:
                self.brute[key] = checks.brute_type_equal(
                    a.coords, e1, N.moduli, b.coords, e2, P.moduli)
            checks.check_type_verdict(verdict, self.brute[key], what + " (brute force)")


# ---------------------------------------------------------------------------


README_TOUR = [
    {"argv": ["low", "E y. x = 2*y"], "kind": "low", "low": False},
    {"argv": ["low", "2*x = 0 & E y. x = 4*y"], "kind": "low", "low": True},
    {"argv": ["eval", "2*x = 0 & E y. x = 4*y", "Z/8 + Z/2"], "kind": "eval-tour"},
    {"argv": ["pure", "2,0", "Z/8 + Z/2"], "kind": "pure-tour"},
    {"argv": ["complement", "0,1", "Z/8 + Z/2"], "kind": "complement-tour"},
    {"argv": ["chain", "--witness", "2", "3", "1", "--indices"],
     "kind": "chain", "p": 2, "M0": 3, "k": 1},
    {"argv": ["types", "0", "--bound", "4"], "kind": "types", "count": 5},
    {"argv": ["ulm", "Z/8 + Z/2"], "kind": "ulm", "parts": [8, 2]},
    {"argv": ["card", "stable", "beth(ω)"], "kind": "card",
     "verdict": "false", "reason": "König"},
    {"argv": ["limit-model", "lambda", "--cof", "w1"], "kind": "limit-model",
     "model": "t(Prod_p(PE(Sum_n(Z(p^n)^(λ))))) ⊕ Sum_p(Z(p^inf)^(λ))"},
]

# correct answer true; today it runs into the per-command time limit because
# purity._divisors finds the divisors of 1000000007 by trial division
SLOW_PURE = {"argv": ["pure", "1", "Z/1000000007"], "kind": "pure-true"}


class _TimeLimit(Exception):
    pass


def _raise_time_limit(signum, frame):
    raise _TimeLimit


class CliTour:
    """One operation is one ``python -m pptor.cli --json ...`` process, timed
    from launch to exit with a per-command time limit.  A round is one pass
    over the command list: the README tour, heavier commands whose answers
    have closed forms, and SLOW_PURE, in batches of BATCH commands.  The
    heavier commands are the same for every seed, drawn from COMMAND_SEED;
    the seed orders the list.  ``inproc`` runs the same list through
    ``cli.main`` in this process instead (used by the traced run)."""

    name = "cli-tour"
    HEAVY_EACH = 5  # chain, ulm and eval commands per pass
    COMMAND_SEED = "cli-tour commands"
    LIMIT_S = 2.0
    MIN_ROUNDS = 3  # every command's best time is a best of three or more
    BATCH = 7  # commands per batch: outputs are checked after each batch

    def __init__(self, seed: int, small: bool, root: Path, inproc: bool = False):
        draw = random.Random(self.COMMAND_SEED)
        n = 1 if small else self.HEAVY_EACH
        self.specs = (README_TOUR + [_chain_spec(draw) for _ in range(n)]
                      + [_ulm_spec(draw) for _ in range(n)]
                      + [_double_spec(draw) for _ in range(n)] + [SLOW_PURE])
        random.Random(seed).shuffle(self.specs)
        self.limit = 1.0 if small else self.LIMIT_S
        self.root = root
        self.inproc = inproc
        self.checker = checks.CliChecker(root / "src/pptor/schemas/cli-result-1.json")
        if inproc:
            from pptor import cli

            self.cli = cli
        self.min_rounds = self.MIN_ROUNDS

    def command(self, argv) -> list[str]:
        return [sys.executable, "-m", "pptor.cli", "--json", *argv]

    def run_process(self, argv) -> str:
        try:
            proc = subprocess.run(self.command(argv), capture_output=True, text=True,
                                  timeout=self.limit, cwd=self.root)
        except subprocess.TimeoutExpired:
            raise OpFailed(f"{argv}: time limit {self.limit} s") from None
        if proc.returncode != 0:
            raise OpFailed(f"{argv}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.stdout

    def run_inproc(self, argv) -> str:
        buf = io.StringIO()
        old = signal.signal(signal.SIGALRM, _raise_time_limit)
        signal.setitimer(signal.ITIMER_REAL, self.limit)
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(["--json", *argv])
        except _TimeLimit:
            raise OpFailed(f"{argv}: time limit {self.limit} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        if code != 0:
            raise OpFailed(f"{argv}: exit {code}")
        return buf.getvalue()

    def round(self) -> list[Batch]:
        run = self.run_inproc if self.inproc else self.run_process
        return [Batch([functools.partial(run, s["argv"]) for s in specs],
                      functools.partial(self._check, specs))
                for specs in (self.specs[i:i + self.BATCH]
                              for i in range(0, len(self.specs), self.BATCH))]

    def _check(self, specs, outs):
        for spec, out in zip(specs, outs):
            if out is not FAILED:
                self.checker.check(spec, out)


def _chain_spec(rng):
    p = rng.choice((2, 3, 5))
    k = rng.randint(2, 3)
    M0 = rng.randint(4, 8)
    return {"argv": ["chain", "--witness", str(p), str(M0), str(k), "--indices"],
            "kind": "chain", "p": p, "M0": M0, "k": k}


def _prime_powers(rng, count, max_exp):
    return [rng.choice((2, 3, 5, 7)) ** rng.randint(1, max_exp) for _ in range(count)]


def _ulm_spec(rng):
    parts = _prime_powers(rng, rng.randint(6, 16), 4)
    return {"argv": ["ulm", " + ".join(f"Z/{q}" for q in parts)],
            "kind": "ulm", "parts": parts}


def _double_spec(rng):
    parts = _prime_powers(rng, rng.randint(12, 24), 3)
    return {"argv": ["eval", "E y. x = 2*y", " + ".join(f"Z/{q}" for q in parts)],
            "kind": "double", "parts": parts}


WORKLOADS = {w.name: w for w in (EvalOracle, PuritySweep, PpTypes, CliTour)}
