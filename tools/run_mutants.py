"""Apply each mutant of tools/mutants.json to a temporary copy of the
library and its tests, run the tests it names, and list the survivors.

    python tools/run_mutants.py              # every mutant
    python tools/run_mutants.py hnf-free-pivot-sign diagonal-row-without-gcd

Run it from anywhere; it reads the repository it lives in.  A mutant is an
exact text replacement, ``old`` → ``new``, in one file; ``old`` must occur
in that file exactly once, so a mutant whose code has changed is reported
as stale instead of silently testing nothing.  Each mutant lists the tests
expected to fail (pytest node ids).  It is killed when every one of them
fails; it survives when none does, and is partly killed when only some do
(the list is then out of date).  The unmutated copy must pass all the
listed tests first, or no verdict means anything.

The exit status is 0 when every mutant is killed, 1 otherwise.  The runner
is kept out of tier-1: pytest collects only ``tests/``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MUTANTS = Path(__file__).with_name("mutants.json")
# what the tests read: tests/test_source.py also reads the tracer's targets
COPIED = ("src", "tests", "pyproject.toml", "perfbench/tracing.py")


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def _apply(tree: Path, mutant: dict) -> None:
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise ValueError(f"stale mutant {mutant['id']}: its old text occurs "
                         f"{count} times in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]),
                    encoding="utf-8")


def _failed_tests(tree: Path, tests: list[str]) -> set[str]:
    """The node ids among tests that fail or error in tree; a test file
    that cannot be collected fails every test named in it."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-rfE", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1, 2):  # 2: a collection error
        raise RuntimeError(f"pytest exited with {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    failed = set()
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            node = line.split(" ", 1)[1].split(" - ", 1)[0].split("[", 1)[0]
            if "::" in node:
                failed.add(node)
            else:
                failed.update(t for t in tests if t.split("::")[0] == node)
    return failed


def run(mutants: list[dict]) -> int:
    with tempfile.TemporaryDirectory(prefix="pptor-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        listed = sorted({t for m in mutants for t in m["tests"]})
        broken = _failed_tests(clean, listed)
        if broken:
            print("the unmutated tree fails:", *sorted(broken), sep="\n  ")
            return 1
        bad = []
        for i, mutant in enumerate(mutants):
            tree = Path(tmp) / f"mutant-{i}"
            _copy_tree(tree)
            try:
                _apply(tree, mutant)
            except ValueError as exc:
                print(f"STALE     {exc}")
                bad.append(mutant["id"])
                continue
            failed = _failed_tests(tree, mutant["tests"])
            passed = [t for t in mutant["tests"] if t not in failed]
            if not passed:
                verdict = "killed"
            elif len(passed) == len(mutant["tests"]):
                verdict = "SURVIVED"
            else:
                verdict = "PARTLY"
            print(f"{verdict:9} {mutant['id']}"
                  + (f" (passed: {', '.join(passed)})" if passed else ""))
            if passed:
                bad.append(mutant["id"])
            shutil.rmtree(tree)
    print(f"{len(mutants) - len(bad)} of {len(mutants)} mutants killed")
    if bad:
        print("not killed:", *bad, sep="\n  ")
    return 1 if bad else 0


def main(argv: list[str]) -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    if argv:
        unknown = set(argv) - {m["id"] for m in mutants}
        if unknown:
            print("unknown mutants:", *sorted(unknown))
            return 2
        mutants = [m for m in mutants if m["id"] in argv]
    return run(mutants)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
