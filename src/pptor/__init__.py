"""Exact-arithmetic toolkit for pp-definable subgroups of abelian groups.

The names below are loaded on first access (PEP 562), so a process that
imports one submodule compiles only the modules that submodule needs.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "FgGroup": "groups",
    "Subgroup": "groups",
    "evaluate": "ppsolve",
    "is_low": "formulas",
    "parse": "formulas",
    "parse_group": "groups",
    "print_formula": "formulas",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
