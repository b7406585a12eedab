"""Checks on the source text of the library, of the benchmark tracer and of
the mutants."""

import ast
import importlib
import json
from pathlib import Path

import pptor


def test_library_has_no_assert_statements():
    """Invariants are checked by explicit exceptions: python -O strips
    assert statements, so none may guard the library's code."""
    files = sorted(Path(pptor.__file__).parent.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_tracer_targets_resolve():
    """Every (module, attribute path) that the benchmark's span tracer wraps
    (TARGETS in perfbench/tracing.py, read as text, not imported) names a
    function the library still has; a missing one would otherwise show up
    only as a failed traced benchmark run."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(tracing.read_text(encoding="utf-8"))
    targets = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    assert targets
    missing = []
    for module, path, _ in targets.values():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}:{path}")
    assert missing == []


def test_mutants_are_not_stale():
    """Each mutant of tools/mutants.json names text that occurs exactly once
    in its file, as the mutation runner requires, so an edit to the library
    that moves a mutant's code shows here and not only when the runner is
    next run."""
    root = Path(__file__).resolve().parents[1]
    mutants = json.loads((root / "tools" / "mutants.json").read_text(
        encoding="utf-8"))
    assert mutants
    stale = [mutant["id"] for mutant in mutants
             if (root / mutant["file"]).read_text(encoding="utf-8")
             .count(mutant["old"]) != 1]
    assert stale == []
