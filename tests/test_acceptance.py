"""Acceptance gate: one test per criterion, at the stated scales.

The heavy lifting lives in pptor.verify so the CLI (`pptor verify`) and this
gate run exactly the same checks.  Time limits are asserted here.
"""

import dataclasses
import re

import pytest

from pptor import cardinals, chains, invariants, ppsolve, purity, verify
from pptor.formulas import parse
from pptor.groups import FgGroup, Subgroup, direct_sum


def _run(name, limit_seconds):
    result = verify.run_suite(name)[0]
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.seconds <= limit_seconds, (
        f"{result.name} took {result.seconds:.0f}s, limit {limit_seconds}s")
    return result


def test_criterion_01_evaluation_oracle():
    # ≥500 formulas × every abelian group of order ≤ 64, within 5 minutes
    _run("evaluation", 300)


def test_criterion_02_complement_iff_pure():
    # exhaustive over |M| ≤ 32 and all subgroups, each group as listed and
    # shuffled with a Z/1 inserted, within 5 minutes
    result = _run("complement", 300)
    assert result.detail == "2060 (M, H) pairs checked"


def test_criterion_03_radical_laws():
    # 200 random homomorphisms + 200 random groups
    _run("radical", 300)


def test_criterion_04_low_closure():
    # 500 random low pairs closed under sum and scalar
    _run("closure", 300)


def test_criterion_05_witness_chain():
    # p ∈ {2,3}, M0 ≤ 8, k ≤ 3: descent with index p^k, stabilization at M0
    _run("chain", 300)


def test_criterion_06_pp_type_oracle():
    # descriptor equality = homomorphism oracle on all triples, |N| ≤ 16,
    # within 10 minutes
    result = _run("types", 600)
    assert result.detail == ("2403 triples, 2063 member checks, "
                             "2299 representative pairs")


def test_criterion_07_ulm():
    # round trip |G| ≤ 256; completeness |G|, |H| ≤ 128
    _run("ulm", 300)


def test_criterion_08_stability():
    # ℶ_ω unstable via König, μ^ℵ₀ stable, ℵ₁ unknown; 30-item soundness list
    _run("stability", 300)


def test_criterion_08_fails_when_compare_decides_ch(monkeypatch):
    """A prover that proves ℶ₁ ≤ ℵ₁, which ZFC leaves open, fails
    criterion 08 on that item."""
    compare = cardinals.compare

    def decides_ch(a, b, relation):
        if (a, relation, b) == (cardinals.Beth(1), "le", cardinals.Aleph(1)):
            return cardinals.TRUE, "CH"
        return compare(a, b, relation)

    monkeypatch.setattr(cardinals, "compare", decides_ch)
    result = verify.check_stability()
    assert not result.passed
    assert result.detail == "beth(1) le aleph1: got true (CH), want unknown"


def test_criterion_06_fails_when_the_descriptor_splits_a_type(monkeypatch):
    """A descriptor that also keys the ambient group's moduli merges no two
    types but splits one type across ambients, which the representative
    pairs of criterion 06 catch."""
    real = ppsolve.pp_type_descriptor

    def keys_the_ambient(a, M, N, **kwargs):
        d = real(a, M, N, **kwargs)
        return dataclasses.replace(d, tables=d.tables + ((0, N.moduli),))

    monkeypatch.setattr(ppsolve, "pp_type_descriptor", keys_the_ambient)
    result = verify.check_pp_type_oracle()
    assert not result.passed
    assert result.detail == "descriptor split an oracle-equal type"


# One injected fault per criterion (08 has its own test above, and 06 a second
# one): the suite name, a function that installs the fault on the name the
# criterion calls, and the pattern its failure detail must match in full,
# which names the case.


def _drop_a_row_on_z8(mp):
    real = ppsolve.evaluate

    def fault(f, M):
        S = real(f, M)
        if 8 not in M.moduli:
            return S
        return Subgroup(S.ambient, S.basis[:-1])

    mp.setattr(ppsolve, "evaluate", fault)


_SUMMAND = Subgroup(FgGroup((4, 2)), [[0, 1]])  # pure: Z/4 + Z/2 = Z/4 ⊕ it


def _refuse_a_pure_summand(mp):
    real = purity.complement
    mp.setattr(purity, "complement",
               lambda H, M: None if H == _SUMMAND else real(H, M))


def test_criterion_02_reports_a_bad_complement(monkeypatch):
    """Criterion 02 checks each complement it gets, not only that one
    exists: M itself, returned for the pure _SUMMAND, meets it."""
    real = purity.complement
    monkeypatch.setattr(purity, "complement", lambda H, M: (
        M.full_subgroup() if H == _SUMMAND else real(H, M)))
    result = verify.run_suite("complement")[0]
    assert result.passed is False
    assert result.detail == "bad complement at H ≤ Z/4 + Z/2"


def _no_torsion_when_infinite(mp):
    real = purity.torsion_radical
    mp.setattr(purity, "torsion_radical",
               lambda M: real(M) if M.is_finite else M.zero_subgroup())


def _scalar_minus_3_not_low(mp):
    real = verify.scalar_formula
    mp.setattr(verify, "scalar_formula",
               lambda r, f: parse("E y. x = 2*y") if r == -3 else real(r, f))


def _index_wrong_at_27(mp):
    real = ppsolve.index

    def fault(f, g, M):
        idx = real(f, g, M)
        return idx + 1 if idx == 27 else idx

    mp.setattr(ppsolve, "index", fault)


def _descriptor_drops_3(mp):
    real = ppsolve.pp_type_descriptor

    def fault(*args, **kwargs):
        d = real(*args, **kwargs)
        return dataclasses.replace(
            d, tables=tuple(t for t in d.tables if t[0] != 3))

    mp.setattr(ppsolve, "pp_type_descriptor", fault)


def _ulm_reads_16_as_8(mp):
    real = invariants.ulm_invariants
    mp.setattr(invariants, "ulm_invariants", lambda G: real(
        FgGroup(tuple(8 if m == 16 else m for m in G.moduli))))


def _omega_template_loses_a_space(mp):
    real = invariants.limit_model_template

    def fault(lam, cof_class, variant="Tor"):
        tpl = real(lam, cof_class, variant)
        if cof_class != "w":
            return tpl
        return dataclasses.replace(tpl, text=tpl.text.replace(" ", "", 1))

    mp.setattr(invariants, "limit_model_template", fault)


def _rate_2_bounded(mp):
    real = purity.in_torsion_of_pe
    mp.setattr(purity, "in_torsion_of_pe", lambda pattern: (
        pattern.kind == "strictly-increasing" and pattern.rate == 2
        or real(pattern)))


FAULTS = {
    "evaluation": (_drop_a_row_on_z8,
                   r"cardinality mismatch for .* on .*Z/8.*"),
    "complement": (_refuse_a_pure_summand, re.escape(
        f"mismatch at H ≤ Z/4 + Z/2, basis {_SUMMAND.basis}")),
    "radical": (_no_torsion_when_infinite, r"f\(t\(M\)\) ⊄ t\(N\) at trial \d+"),
    "closure": (_scalar_minus_3_not_low, r"scalar -3 not low at trial \d+: .*"),
    "chain": (_index_wrong_at_27, re.escape("index 28 at (3, 1, 3), level 0")),
    "types": (_descriptor_drops_3,
              r"descriptor merged oracle-distinct types: \(.*\) in .*Z/3.*"
              r" and \(.*\) in .*"),
    "ulm": (_ulm_reads_16_as_8, r"round trip failed at .*Z/16.*"),
    "limit-model": (_omega_template_loses_a_space,
                    r"limit_model_tor_w\.txt: .* != .*"),
    "rem-ab": (_rate_2_bounded,
               r"wrong verdict for OrderPattern\(kind='strictly-increasing', "
               r".*rate=2.*\)"),
}


@pytest.mark.parametrize("suite", FAULTS)
def test_every_criterion_fails_on_its_injected_fault(suite, monkeypatch):
    """A criterion that cannot fail checks nothing: each one reports
    passed=False, naming the failing case, once its library call is broken."""
    inject, detail = FAULTS[suite]
    inject(monkeypatch)
    result = verify.run_suite(suite)[0]
    assert result.passed is False
    assert re.fullmatch(detail, result.detail), result.detail


# One more fault for each other failure branch of criteria 03 and 05, in the
# same style: the suite, the fault, and its failure detail in full.


def _quotient_ignores_h(mp):
    mp.setattr(verify, "quotient", lambda M, H: M)


def _as_group_gains_a_z(mp):
    real = Subgroup.as_group
    mp.setattr(Subgroup, "as_group",
               lambda self: direct_sum(real(self), FgGroup((0,))))


def _not_pure_when_infinite(mp):
    real = purity.is_pure
    mp.setattr(purity, "is_pure", lambda H, M: M.is_finite and real(H, M))


def _bound_variables_not_low(mp):
    real = verify.is_low
    mp.setattr(verify, "is_low", lambda f: not f.bound_vars and real(f))


def _stabilization_one_level_short(mp):
    real = chains.stabilization_index
    mp.setattr(chains, "stabilization_index", lambda levels: real(levels[:-1]))


BRANCH_FAULTS = {
    "radical-quotient": ("radical", _quotient_ignores_h,
                         "t(M/t(M)) ≠ 0 at trial 0"),
    "radical-idempotent": ("radical", _as_group_gains_a_z,
                           "t(t(M)) ≠ t(M) at trial 0"),
    "radical-pure": ("radical", _not_pure_when_infinite,
                     "t(M) not pure at trial 0"),
    "chain-low": ("chain", _bound_variables_not_low, "φ₀ not low at (p=2)"),
    "chain-orders": ("chain", _drop_a_row_on_z8,
                     "orders [4, 2, 1, 1, 1] ≠ [8, 4, 2, 1, 1] at (2, 3, 1)"),
    "chain-stabilization": ("chain", _stabilization_one_level_short,
                            "stabilization not at M0 for (2, 1, 1)"),
}


@pytest.mark.parametrize("branch", BRANCH_FAULTS)
def test_every_failure_branch_of_criteria_03_and_05_runs(branch, monkeypatch):
    """Each check of criteria 03 and 05 fails on a fault of its own; FAULTS
    reaches one check of each."""
    suite, inject, detail = BRANCH_FAULTS[branch]
    inject(monkeypatch)
    result = verify.run_suite(suite)[0]
    assert result.passed is False
    assert result.detail == detail


def test_criterion_09_limit_model_golden():
    # byte-exact golden templates; cofinality classes differ by ^(aleph0)
    _run("limit-model", 300)


def test_criterion_10_rem_ab():
    # 20-case bounded-order membership table
    _run("rem-ab", 300)
