"""One workload in one fresh process; started by run.py, not by hand.

Modes:
  setup  build the workload (import pptor, generate the inputs), print
         "ready <seconds the build took>" and exit.  A timed run starts
         such workers between its batches to sample set-up time.
  timed  build, print "ready <seconds>", then run whole rounds until the timed
         operations have taken --seconds (and at least the workload's
         minimum number of rounds; one round with --small); check every
         output; print one JSON result line.  Its timings come from each
         operation's best time over the rounds.
  fixed  run FIXED_ROUNDS rounds, with --traced wrapping pptor's public
         functions in spans; print one JSON result line with the timed wall
         time and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from checks import CheckError

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# rounds of the fixed-work runs behind the per-layer metrics
FIXED_ROUNDS = {"eval-oracle": 6, "purity-sweep": 10, "pp-types": 4, "cli-tour": 1}
SETUP_SAMPLES = 13  # set-up samples per timed run, spread over the run
PROBES = 5  # cli-tour, per-layer run: fresh interpreters and imports


class Runner:
    """Runs batches, timing each operation; checks outputs after each batch.

    Every round holds the same operations in the same order, so an
    operation is known by its position in the round.  ``best`` keeps each
    position's fastest successful time over the rounds run so far."""

    def __init__(self, between=None):
        self.between = between  # called with the timed seconds after each batch
        self.durations: list[float] = []
        self.best: dict[int, float] = {}
        self.wall = 0.0
        self.attempted = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []

    def run_round(self, batches) -> None:
        clock = time.perf_counter
        pos = 0
        for batch in batches:
            outs = []
            start = clock()
            for op in batch.ops:
                t0 = clock()
                try:
                    out = op()
                except workloads.OpFailed as exc:
                    out = exc
                except Exception:  # any other raise is a failed operation too
                    out = workloads.OpFailed(traceback.format_exc(limit=3))
                t1 = clock()
                self.attempted += 1
                if isinstance(out, workloads.OpFailed):
                    self.failures.append(str(out))
                    out = workloads.FAILED
                else:
                    self.durations.append(t1 - t0)
                    if t1 - t0 < self.best.get(pos, math.inf):
                        self.best[pos] = t1 - t0
                pos += 1
                outs.append(out)
            self.wall += clock() - start
            try:
                batch.check(outs)
            except CheckError as exc:
                self.check_errors.append(str(exc))
            if self.between is not None:
                self.between(self.wall)

    def summary(self) -> dict:
        return {"attempted": self.attempted, "failed": len(self.failures),
                "completed": len(self.durations), "wall_s": self.wall,
                "failures": sorted(set(self.failures))[:5],
                "check_errors": self.check_errors[:5],
                "correct": not self.check_errors}

    def timings(self) -> dict:
        """The end-to-end timings, from each operation's best time; and the
        same figures over every timed operation, kept as ``all_ops``."""
        best = list(self.best.values())
        return {**latency_ms(best), "ops_per_s": len(best) / sum(best),
                "all_ops": {**latency_ms(self.durations),
                            "ops_per_s": len(self.durations) / self.wall}}


def latency_ms(durations) -> dict:
    q = statistics.quantiles(durations, n=100)
    return {"op_p50_ms": q[49] * 1e3, "op_p90_ms": q[89] * 1e3,
            "op_p99_ms": q[98] * 1e3}


def build(name: str, seed: int, small: bool, inproc: bool = False):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliTour:
        return cls(seed, small, ROOT, inproc=inproc)
    return cls(seed, small)


def timed_fresh(argv) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, check=True, capture_output=True, cwd=ROOT, timeout=60)
    return time.perf_counter() - t0


class SetupSamples:
    """Set-up time, sampled SETUP_SAMPLES times at even steps of a timed run:
    the k-th sample falls due once k/SETUP_SAMPLES of --seconds has been
    timed.  In-process workloads: the run's own build, then fresh workers
    that only build the workload.  cli-tour: the untimed warm-up command, in
    a fresh process each time."""

    def __init__(self, args, wl, own_build: float):
        self.args, self.wl = args, wl
        self.cli = args.workload == "cli-tour"
        self.samples = [] if self.cli else [own_build]

    def take(self) -> float:
        if self.cli:
            return timed_fresh(self.wl.command(workloads.README_TOUR[0]["argv"]))
        argv = [sys.executable, __file__, "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--mode", "setup"]
        out = subprocess.run(argv + (["--small"] if self.args.small else []),
                             check=True, capture_output=True, text=True, cwd=ROOT,
                             timeout=60).stdout.split()
        if len(out) != 2 or out[0] != "ready":
            raise RuntimeError(f"set-up worker printed {out}")
        return float(out[1])

    def due(self, timed: float) -> None:
        while (len(self.samples) < SETUP_SAMPLES
               and timed >= self.args.seconds * len(self.samples) / SETUP_SAMPLES):
            self.samples.append(self.take())

    def finish(self) -> list[float]:
        self.due(math.inf)
        return self.samples


def cli_probes() -> dict:
    """Fresh-process costs a CLI user pays before any command runs."""
    interp = [timed_fresh([sys.executable, "-c", "pass"]) for _ in range(PROBES)]
    code = ("import time; t = time.perf_counter(); import pptor.cli; "
            "print(time.perf_counter() - t)")
    imports = [float(subprocess.run([sys.executable, "-c", code], check=True,
                                    capture_output=True, text=True, cwd=ROOT,
                                    timeout=60).stdout)
               for _ in range(PROBES)]
    return {"cli.interpreter_ms": statistics.median(interp) * 1e3,
            "cli.import_ms": statistics.median(imports) * 1e3}


def env_info() -> dict:
    import numpy
    import pptor
    from pptor import kernels

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "numba": kernels.using_numba(), "nproc": os.cpu_count(),
            "pptor": str(Path(pptor.__file__).resolve().parent.relative_to(ROOT))}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--mode", choices=("setup", "timed", "fixed"), required=True)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args()
    cli = args.workload == "cli-tour"

    tracer = None
    if args.traced:
        import pptor.cli  # noqa: F401 - load every pptor module before wrapping
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    t0 = time.perf_counter()
    wl = build(args.workload, args.seed, args.small, inproc=args.mode == "fixed")
    own_build = time.perf_counter() - t0
    print(f"ready {own_build!r}", flush=True)
    if args.mode == "setup":
        return 0

    result: dict = {}
    setup = None
    if args.mode == "timed":
        setup = SetupSamples(args, wl, own_build)
        setup.due(0.0)
    runner = Runner(setup.due if setup else None)
    rounds = 0
    if args.mode == "timed" and not args.small:
        min_rounds = getattr(wl, "min_rounds", 1)
        while runner.wall < args.seconds or rounds < min_rounds:
            runner.run_round(wl.round())
            rounds += 1
    else:
        for _ in range(1 if args.small else FIXED_ROUNDS[args.workload]):
            runner.run_round(wl.round())
            rounds += 1
    if setup is not None:
        result["setup_samples"] = setup.finish()
    if args.mode == "timed":  # before env_info(), which imports numpy
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    result.update(runner.summary(), rounds=rounds, env=env_info())
    if args.mode == "timed":
        if len(runner.best) >= 2:  # else run.py reports the run as broken
            result.update(runner.timings())
    elif cli and not args.traced:
        result["cli.main_ms"] = statistics.median(runner.durations) * 1e3
        result.update(cli_probes())
    if tracer is not None:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        result["spans"] = tracer.write(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        result["layers"] = tracer.aggregate()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
