"""pptor benchmark: run one workload (or all), check every output, print metrics.

    python3 perfbench/run.py --workload eval-oracle --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes (perfbench/worker.py) on the pptor sources under src/, one
operation at a time.  With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with every end-to-end metric of BENCHMARK.json; with --trace 1 it carries
every per-layer metric instead, from a fixed amount of work run once untraced
and once traced (the difference is the tracing overhead).  The line before it
records the environment.  Full results go to perfbench/out/.

--workload all runs the workloads of BENCHMARK.json.  cli-tour is not among
them (its timings are too unsteady on a shared machine; see README.md) and
runs only when named.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"
WORKLOADS = ("eval-oracle", "purity-sweep", "pp-types", "cli-tour")


def run_timeout(seconds: float) -> float:
    """Deadline for all of one workload's workers together: 162.5 s at the
    default 25 s, more for longer runs (checks and set-up come on top)."""
    return 100.0 + 2.5 * seconds


class BenchError(RuntimeError):
    pass


def _read_line(proc, deadline: float) -> str:
    remaining = deadline - time.perf_counter()
    if remaining <= 0 or not select.select([proc.stdout], [], [], remaining)[0]:
        raise BenchError("worker timed out")
    line = proc.stdout.readline()
    if not line:
        raise BenchError(f"worker exited early with code {proc.wait()}")
    return line.strip()


def run_worker(args: list[str], deadline: float) -> dict:
    """Start a worker; return its result line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # its own process group, so that a worker stopped early takes the
    # processes it started (set-up samples, CLI commands) with it
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        if not _read_line(proc, deadline).startswith("ready "):
            raise BenchError("worker did not report ready")
        out = json.loads(_read_line(proc, deadline))
        code = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return out
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        proc.stdout.close()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def end_to_end(common: list[str], seconds: float, deadline: float) -> tuple[dict, dict]:
    res = run_worker([*common, "--mode", "timed", "--seconds", str(seconds)], deadline)
    if "op_p50_ms" not in res:
        raise BenchError(f"too few operations completed: {res['failures']}")
    setup = res.pop("setup_samples")
    metrics = {"setup_s": statistics.median(setup),
               **{k: res[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms",
                                      "op_p99_ms", "peak_rss_mb")}}
    res["setup_samples_s"] = setup
    return metrics, res


def per_layer(common: list[str], deadline: float) -> tuple[dict, dict]:
    plain = run_worker([*common, "--mode", "fixed"], deadline)
    traced = run_worker([*common, "--mode", "fixed", "--traced"], deadline)
    metrics = dict(traced.pop("layers"))
    for key in ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms"):
        metrics[key] = plain.get(key, 0.0)
    metrics["trace.overhead_pct"] = (traced["wall_s"] / plain["wall_s"] - 1) * 100
    traced["untraced_wall_s"] = plain["wall_s"]
    traced["correct"] = traced["correct"] and plain["correct"]
    return metrics, traced


def run_one(name: str, seed: int, seconds: float, trace: bool, small: bool,
            spec: dict) -> dict:
    common = ["--workload", name, "--seed", str(seed)] + (["--small"] if small else [])
    deadline = time.perf_counter() + run_timeout(seconds)
    if trace:
        metrics, res = per_layer(common, deadline)
    else:
        metrics, res = end_to_end(common, seconds, deadline)
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    env = dict(res.pop("env"), git_sha=git_sha(), seed=seed, workload=name)
    line = {"correct": res["correct"], "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted}}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({"env": env, "seconds": seconds, "run": res,
                                "measured": metrics, **line},
                               indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(json.dumps({"env": env}, ensure_ascii=False), flush=True)
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs and one round: every workload and check in seconds")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that running workers are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "pptor" / "__init__.py").is_file():
        print(f"error: no pptor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else (args.workload,))
    lines = {}
    try:
        for name in names:
            lines[name] = run_one(name, args.seed, args.seconds, bool(args.trace),
                                  args.small, spec)
            if len(names) > 1:
                print(json.dumps({"workload": name, **lines[name]}), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {f"{w}.{k}": m for w, v in lines.items()
                        for k, m in v["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
