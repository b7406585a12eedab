"""Each process loads only the modules it uses.

Every check starts a fresh interpreter, since this test process has already
imported the whole package, and reads the modules that one import or one
CLI command left in sys.modules.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import pptor

SRC = str(Path(pptor.__file__).resolve().parent.parent)

# what a group command needs none of; `ulm` reaches `invariants`, which
# loads `cardinals` only for the limit-model templates
HEAVY = {"pptor.formulas", "pptor.ppsolve", "pptor.verify", "pptor.chains",
         "pptor.corpus", "pptor.kernels", "pptor.cardinals", "numpy"}


def loaded_after(code: str) -> set[str]:
    """The pptor modules and numpy loaded once ``code`` has run in a fresh
    interpreter; the code's own stdout is dropped."""
    script = "\n".join([
        "import contextlib, io, json, sys",
        "with contextlib.redirect_stdout(io.StringIO()):",
        textwrap.indent(textwrap.dedent(code), "    "),
        "print(json.dumps([m for m in sys.modules",
        "                  if m.startswith('pptor') or m == 'numpy']))"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout))


def after_command(*argv) -> set[str]:
    return loaded_after(f"from pptor import cli; cli.main({list(argv)!r})")


def test_purity_loads_neither_formulas_nor_ppsolve():
    loaded = loaded_after("import pptor.purity")
    assert "pptor.purity" in loaded
    assert not loaded & {"pptor.formulas", "pptor.ppsolve"}


def test_low_builds_no_group():
    loaded = after_command("low", "E y. x = 2*y")
    assert "pptor.formulas" in loaded
    assert "pptor.groups" not in loaded


@pytest.mark.parametrize("argv", [
    ("pure", "2,0", "Z/8 + Z/2"),
    ("complement", "0,1", "Z/8 + Z/2"),
    ("ulm", "Z/8 + Z/2"),
])
def test_group_commands_load_no_formula_layer_and_no_numpy(argv):
    loaded = after_command(*argv)
    assert "pptor.groups" in loaded
    assert not loaded & HEAVY


def test_card_stable_loads_no_lattice_algebra():
    loaded = after_command("card", "stable", "beth(w)")
    assert "pptor.cardinals" in loaded
    assert not loaded & {"pptor.groups", "pptor.intlinalg"}


def test_package_exports_resolve_lazily():
    assert pptor.__all__ == ["FgGroup", "Subgroup", "evaluate", "is_low",
                             "parse", "parse_group", "print_formula",
                             "__version__"]
    assert loaded_after("import pptor") == {"pptor"}
    loaded = loaded_after("""
        import pptor
        from pptor import FgGroup
        values = {name: getattr(pptor, name) for name in pptor.__all__}
        assert FgGroup is values["FgGroup"] is pptor.groups.FgGroup
        assert values["evaluate"] is pptor.ppsolve.evaluate
        assert values["__version__"] == "0.1.0"
        """)
    assert {"pptor.groups", "pptor.ppsolve", "pptor.formulas"} <= loaded
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        pptor.nothing
