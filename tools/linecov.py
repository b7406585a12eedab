"""Run tier-1 under a line tracer and list the executable lines of
src/pptor/*.py that no test runs, by module.

    python tools/linecov.py

Run it from anywhere; it reads the repository it lives in.  It takes a few
minutes (every test runs under a sys.settrace hook), so like
tools/run_mutants.py it is kept out of tier-1.  It needs only the standard
library and the test suite's own runner, pytest.

The executable lines of a module are the line starts of its compiled code
objects (dis.findlinestarts).  The tests run in this process under the
hook; the tests that start a fresh interpreter (the CLI and import checks)
are traced there too, through a sitecustomize module placed first on
PYTHONPATH, and the lines that only those processes reach are listed
apart.

A line that no test runs must be named in tools/linecov_allow.json, a list
of {"file", "reason", "lines"} entries: "lines" holds the text of each
allowed line, stripped, and each occurrence of a text allows one unrun line
with that text in that file, so entries are keyed by file and text, not by
line number, and survive edits elsewhere in the file.  The exit status is 0
when the tests pass, every unrun line is allowed and every allowance is
used; it is 1 otherwise, so that the allowlist stays exact.
"""

from __future__ import annotations

import atexit
import dis
import json
import os
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "pptor"
ALLOW = Path(__file__).with_name("linecov_allow.json")
OUT_ENV = "PPTOR_LINECOV_OUT"

# what a traced child process runs at start-up: it loads this file by path
# and installs the hook, so the child's sys.path is left as it was
SITECUSTOMIZE = """\
import importlib.util
spec = importlib.util.spec_from_file_location("_pptor_linecov", {tool!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
module.trace_child()
"""


def _tracer(hits: set):
    """A sys.settrace function that adds (file name, line) to hits for each
    line run in a module under PACKAGE, and traces no other frame."""
    prefix = str(PACKAGE) + os.sep
    wanted: dict[str, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        keep = wanted.get(name)
        if keep is None:
            keep = wanted[name] = os.path.realpath(name).startswith(prefix)
        if not keep:
            return None
        hits.add((name, frame.f_lineno))
        return local

    return call


def _install(hits: set) -> None:
    tracer = _tracer(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)


def trace_child() -> None:
    """Trace this process and write its lines to a file in the directory
    named by OUT_ENV when it exits."""
    out = os.environ.get(OUT_ENV)
    if not out:
        return
    hits: set = set()
    _install(hits)

    def dump():
        sys.settrace(None)
        fd, path = tempfile.mkstemp(prefix="child-", suffix=".json", dir=out)
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            json.dump(sorted(hits), f)

    atexit.register(dump)


def _by_module(hits) -> dict[str, set[int]]:
    """{path relative to ROOT: lines} for the hits under PACKAGE."""
    out: dict[str, set[int]] = {}
    for name, line in hits:
        path = Path(os.path.realpath(name))
        out.setdefault(path.relative_to(ROOT).as_posix(), set()).add(line)
    return out


def _executable(path: Path) -> set[int]:
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        c = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(c)
                     if line is not None)
        stack.extend(k for k in c.co_consts if isinstance(k, type(code)))
    return lines


def _print_lines(title: str, table: dict[str, list[int]], texts) -> None:
    print(f"{title}: {sum(map(len, table.values()))}")
    for rel, lines in sorted(table.items()):
        if lines:
            print(f"  {rel}")
            for line in lines:
                print(f"    {line:5}: {texts[rel][line - 1].strip()}")


def run() -> int:
    import pytest

    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="pptor-linecov-") as tmp:
        Path(tmp, "sitecustomize.py").write_text(
            SITECUSTOMIZE.format(tool=str(Path(__file__).resolve())),
            encoding="utf-8")
        os.environ[OUT_ENV] = tmp
        os.environ["PYTHONPATH"] = os.pathsep.join(
            filter(None, [tmp, str(SRC), os.environ.get("PYTHONPATH")]))
        hits: set = set()
        _install(hits)
        try:
            status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
        finally:
            sys.settrace(None)
            threading.settrace(None)
        child: set = set()
        for path in Path(tmp).glob("child-*.json"):
            child.update(map(tuple, json.loads(path.read_text("utf-8"))))
    here, there = _by_module(hits), _by_module(child)

    allow: dict[str, Counter] = {}
    for entry in json.loads(ALLOW.read_text(encoding="utf-8")):
        allow.setdefault(entry["file"], Counter()).update(
            line.strip() for line in entry["lines"])
    texts, unrun, allowed, child_only = {}, {}, {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        texts[rel] = path.read_text(encoding="utf-8").splitlines()
        run_here = here.get(rel, set())
        run_there = there.get(rel, set()) - run_here
        child_only[rel] = sorted(run_there)
        left = allow.get(rel, Counter())
        unrun[rel], allowed[rel] = [], []
        for line in sorted(_executable(path) - run_here - run_there):
            text = texts[rel][line - 1].strip()
            if left[text]:
                left[text] -= 1
                allowed[rel].append(line)
            else:
                unrun[rel].append(line)
    stale = [(rel, text) for rel, left in allow.items()
             for text, k in left.items() for _ in range(k)]

    _print_lines("lines only the subprocess tests run", child_only, texts)
    _print_lines("unrun lines in the allowlist", allowed, texts)
    _print_lines("unrun lines missing from the allowlist", unrun, texts)
    if stale:
        print(f"allowances that match no unrun line: {len(stale)}")
        for rel, text in stale:
            print(f"  {rel}: {text}")
    if status != 0:
        print(f"the tests failed under the tracer (pytest exit {status})")
    return int(status != 0 or bool(stale)
               or any(unrun.values()))


if __name__ == "__main__":
    sys.exit(run())
