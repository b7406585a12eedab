"""Acceptance gate: one test per criterion, at the stated scales.

The heavy lifting lives in pptor.verify so the CLI (`pptor verify`) and this
gate run exactly the same checks.  Time limits are asserted here.
"""

import pytest

from pptor import cardinals, verify


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
    # exhaustive over |M| ≤ 32 and all subgroups, within 5 minutes
    _run("complement", 300)


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


def test_criterion_09_limit_model_golden():
    # byte-exact golden templates; cofinality classes differ by ^(aleph0)
    _run("limit-model", 300)


def test_criterion_10_rem_ab():
    # 20-case bounded-order membership table
    _run("rem-ab", 300)
