"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]]
                         + ["cli-tour"])
def test_small_mode_runs_every_workload_and_check(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--small", "--trace", trace)
    assert out.returncode == 0, out.stderr
    line = last_json(out.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["attempted"] >= 1
    # the one operation that fails today: pure 1 Z/1000000007 at its time limit
    assert line["failed"] == (1 if workload == "cli-tour" else 0)
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == \
        {k: v["unit"] for k, v in line["metrics"].items()}
    if trace == "0":
        assert all(v["value"] > 0 for v in line["metrics"].values())
    assert json.loads(out.stdout.strip().splitlines()[-2])["env"]["seed"] == 3


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = run_bench("--workload", "eval-oracle", "--seed", "1", "--seconds", "1",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_setup_worker_reports_its_own_build_time():
    out = subprocess.run([sys.executable, "perfbench/worker.py", "--workload",
                          "purity-sweep", "--seed", "1", "--small", "--mode", "setup"],
                         cwd=ROOT, capture_output=True, text=True, timeout=60,
                         env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert out.returncode == 0, out.stderr
    word, seconds = out.stdout.split()
    assert word == "ready" and 0 < float(seconds) < 30


def test_run_deadline_follows_seconds():
    import run

    assert run.run_timeout(SPEC["run_seconds"]) <= 170  # a run ends within 180 s
    for seconds in (1, 20, 60):  # two cli-tour passes and checks fit
        assert run.run_timeout(seconds) >= 2 * seconds + 100


def test_runner_keeps_each_operations_best_time():
    import worker

    def op(i):
        if i == 2:
            raise workloads.OpFailed("fails every round")
        return sum(range(1000 * (i + 1)))

    def batches():
        return [workloads.Batch([functools.partial(op, i) for i in range(2)],
                                lambda outs: None),
                workloads.Batch([functools.partial(op, i) for i in range(2, 4)],
                                lambda outs: None)]

    runner = worker.Runner()
    for _ in range(3):
        runner.run_round(batches())
    assert runner.attempted == 12 and runner.summary()["failed"] == 3
    assert sorted(runner.best) == [0, 1, 3]  # the failing position has no time
    for k, pos in enumerate((0, 1, 3)):
        assert runner.best[pos] == min(runner.durations[k::3])
    timings = runner.timings()
    assert timings["ops_per_s"] == 3 / sum(runner.best.values())
    assert timings["all_ops"]["ops_per_s"] == 9 / runner.wall


def test_every_per_layer_metric_is_measured():
    measured = {"kernels.table_bytes", "kernels.free_assignments", "cli.interpreter_ms",
                "cli.import_ms", "cli.main_ms", "trace.overhead_pct"}
    for target, (_, _, fields) in tracing.TARGETS.items():
        measured |= {f"{target}.calls"} | {f"{target}.{f}" for f in fields}
    assert {m["name"] for m in SPEC["per_layer"]} <= measured


# ---------------------------------------------------------------------------
# each check rejects a deliberately wrong answer


def test_eval_checks_reject_wrong_answers():
    from pptor import kernels

    moduli, nfree = (4, 2), 1
    C, D = ((2,),), ((0,),)  # 2x = 0
    sols = kernels.brute_force_codes(C, D, moduli)[0].tolist()
    basis = [(2, 0), (0, 1)]
    checks.check_eval(4, basis, sols, moduli, nfree)
    checks.check_oracle_naive(C, D, moduli, sols)
    with pytest.raises(CheckError):
        checks.check_eval(5, basis, sols, moduli, nfree)  # order off by one
    with pytest.raises(CheckError):
        checks.check_eval(4, [(1, 0)], sols, moduli, nfree)  # not a solution
    with pytest.raises(CheckError):
        checks.check_oracle_naive(C, D, moduli, sols[:-1])  # a solution missing


def test_purity_check_rejects_wrong_answers():
    gs = checks.GroupSets((8, 2))
    pure_h, impure_h = [(0, 1)], [(2, 0)]
    checks.check_purity(gs, pure_h, True, [(1, 0)])
    checks.check_purity(gs, impure_h, False, None)
    with pytest.raises(CheckError):
        checks.check_purity(gs, impure_h, True, [(1, 1)])  # wrong purity
    with pytest.raises(CheckError):
        checks.check_purity(gs, pure_h, True, None)  # pure but no complement
    with pytest.raises(CheckError):
        checks.check_purity(gs, pure_h, True, [(2, 0)])  # H + K ≠ M
    with pytest.raises(CheckError):
        checks.check_purity(gs, pure_h, True, [(1, 0), (0, 1)])  # H ∩ K ≠ 0


def test_type_checks_reject_wrong_verdicts():
    # over the zero parameter group: 1 and 3 in Z/4 share a type, 1 and 2 do not
    assert checks.brute_type_equal((1,), [], (4,), (3,), [], (4,))
    assert not checks.brute_type_equal((1,), [], (4,), (2,), [], (4,))
    # 1 in Z/2 and 2 in Z/4 differ: 2 is divisible by 2 in Z/4
    assert not checks.brute_type_equal((1,), [], (2,), (2,), [], (4,))
    with pytest.raises(CheckError):
        checks.check_type_verdict(True, False, "1 vs 2 in Z/4")


@pytest.fixture(scope="module")
def cli_checker():
    return checks.CliChecker(ROOT / "src/pptor/schemas/cli-result-1.json")


def _cli_json(argv) -> str:
    import contextlib
    import io

    from pptor import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["--json", *argv]) == 0
    return buf.getvalue()


def test_cli_checks_accept_the_readme_tour(cli_checker):
    for spec in workloads.README_TOUR:
        cli_checker.check(spec, _cli_json(spec["argv"]))


@pytest.mark.parametrize("index, path, wrong", [
    (0, ("result", "low"), True),
    (2, ("result", "subgroup", "order"), 3),
    (3, ("trace", "witness", "n"), 4),
    (4, ("result", "complement", "generators"), [[2, 0], [0, 2]]),
    (5, ("result", "orders"), [8, 4, 2, 2, 1]),
    (6, ("result", "count"), 6),
    (7, ("result", "alpha"), [{"p": 2, "n": 3, "value": 2}]),
    (8, ("result", "verdict"), "true"),
    (9, ("result", "model"), "t(Prod_p(PE(Sum_n(Z(p^n)^(λ)))))"),
    (9, ("result", "class"), 7),  # schema: class is a string
])
def test_cli_checks_reject_wrong_values(cli_checker, index, path, wrong):
    spec = workloads.README_TOUR[index]
    doc = json.loads(_cli_json(spec["argv"]))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = wrong
    with pytest.raises(CheckError):
        cli_checker.check(spec, json.dumps(doc))


def test_cli_checks_closed_forms(cli_checker):
    chain = {"argv": ["chain", "--witness", "3", "2", "2", "--indices"],
             "kind": "chain", "p": 3, "M0": 2, "k": 2}
    doc = json.loads(_cli_json(chain["argv"]))
    cli_checker.check(chain, json.dumps(doc))
    doc["result"]["indices"] = [9, 3, 1]
    with pytest.raises(CheckError):
        cli_checker.check(chain, json.dumps(doc))
    double = {"argv": ["eval", "E y. x = 2*y", "Z/4 + Z/3 + Z/2"],
              "kind": "double", "parts": [4, 3, 2]}
    doc = json.loads(_cli_json(double["argv"]))
    cli_checker.check(double, json.dumps(doc))
    doc["result"]["subgroup"]["order"] = 12
    with pytest.raises(CheckError):
        cli_checker.check(double, json.dumps(doc))
    slow = {"argv": ["pure", "1", "Z/7"], "kind": "pure-true"}
    doc = json.loads(_cli_json(slow["argv"]))
    cli_checker.check(slow, json.dumps(doc))
    doc["result"]["pure"] = False
    with pytest.raises(CheckError):
        cli_checker.check(slow, json.dumps(doc))


# ---------------------------------------------------------------------------


def test_tracer_records_nested_spans_and_restores_functions():
    from pptor import formulas, groups, intlinalg, ppsolve, purity

    orig = (intlinalg.hermite_row_basis, groups.hermite_row_basis,
            purity.kernel_basis, groups.Subgroup.__init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert groups.hermite_row_basis is intlinalg.hermite_row_basis
        assert groups.hermite_row_basis is not orig[0]
        M = groups.FgGroup((8, 2))
        H = groups.Subgroup(M, [[2, 0]])
        assert purity.is_pure(H, M) is False
        ppsolve.evaluate(formulas.parse("E y. x = 2*y"), M)
    finally:
        tracer.uninstall()
    assert (intlinalg.hermite_row_basis, groups.hermite_row_basis,
            purity.kernel_basis, groups.Subgroup.__init__) == orig
    layers = tracer.aggregate()
    assert layers["purity.is_pure.calls"] == 1
    assert layers["ppsolve.evaluate.calls"] == 1
    assert layers["groups.Subgroup.calls"] >= 2
    assert 0 <= layers["ppsolve.evaluate.self_s"] <= layers["ppsolve.evaluate.total_s"]
    ids = {span[0] for span in tracer.spans}
    assert all(parent == -1 or parent in ids for _, parent, *_ in tracer.spans)
