"""Span tracer that wraps pptor's public functions from the benchmark's side.

Nothing under ``src/`` is edited: ``Tracer.install`` replaces each function in
``TARGETS`` by a wrapper, in its own module and in every ``pptor`` module that
imported it by name (``purity.kernel_basis``, ``groups.hermite_row_basis``,
``chains.evaluate``, ...).  ``groups.Subgroup`` is traced through its
constructor, ``as_group_with_embedding`` through the class attribute.

Each call records one span (name, start, end, parent span) in an in-memory
list; ``write`` dumps them when the run ends.  ``aggregate`` gives per name
the call count, the inclusive time (``total_s``) and the self time
(``self_s``: duration minus the time covered by wrapped child spans).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import time

# metric prefix -> (module, attribute path, time metrics reported besides .calls)
TARGETS = {
    "kernels.brute_force_codes": ("pptor.kernels", "brute_force_codes", ("total_s",)),
    "ppsolve.evaluate": ("pptor.ppsolve", "evaluate", ("self_s", "total_s")),
    "ppsolve.index": ("pptor.ppsolve", "index", ("total_s",)),
    "formulas.normalize": ("pptor.formulas", "normalize", ("self_s",)),
    "formulas.parse": ("pptor.formulas", "parse", ("total_s",)),
    "groups.Subgroup": ("pptor.groups", "Subgroup.__init__", ("self_s",)),
    "groups.as_group_with_embedding":
        ("pptor.groups", "Subgroup.as_group_with_embedding", ("total_s",)),
    "groups.all_subgroups": ("pptor.groups", "all_subgroups", ("total_s",)),
    "intlinalg.hermite_row_basis": ("pptor.intlinalg", "hermite_row_basis", ("self_s",)),
    "intlinalg.lattice_coords": ("pptor.intlinalg", "lattice_coords", ("self_s",)),
    "intlinalg.lattice_intersection":
        ("pptor.intlinalg", "lattice_intersection", ("total_s",)),
    "intlinalg.smith_normal_form": ("pptor.intlinalg", "smith_normal_form", ("self_s",)),
    "intlinalg.solve_diophantine": ("pptor.intlinalg", "solve_diophantine", ("total_s",)),
    "intlinalg.kernel_basis": ("pptor.intlinalg", "kernel_basis", ("total_s",)),
    "purity.is_pure": ("pptor.purity", "is_pure", ("total_s",)),
    "purity.purity_witness": ("pptor.purity", "purity_witness", ("total_s",)),
    "purity.complement": ("pptor.purity", "complement", ("total_s",)),
    "ppsolve.pp_type_descriptor":
        ("pptor.ppsolve", "pp_type_descriptor", ("total_s",)),
    "ppsolve.pp_type_equal": ("pptor.ppsolve", "pp_type_equal", ("total_s",)),
    "ppsolve.hom_oracle_equal": ("pptor.ppsolve", "hom_oracle_equal", ("total_s",)),
    "ppsolve.find_constrained_hom":
        ("pptor.ppsolve", "find_constrained_hom", ("total_s",)),
}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # finished spans: (id, parent id or -1, name index, start, end)
        self.spans: list[tuple[int, int, int, float, float]] = []
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        # oracle sizes, computed from the inputs of brute_force_codes
        self.table_bytes = 0
        self.free_assignments = 0

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((sid, parent, idx, t0, clock()))
                stack.pop()

        return wrapper

    def _count_oracle(self, fn):
        @functools.wraps(fn)
        def wrapper(C, D, moduli, *args, **kwargs):
            order = 1
            for m in moduli:
                order *= int(m)
            neq = len(C)
            nfree = len(C[0]) if neq else 0
            self.table_bytes += order ** neq
            self.free_assignments += order ** nfree
            return fn(C, D, moduli, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, (module, path, _) in TARGETS.items():
            owner, attr = _resolve(module, path)
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            if name == "kernels.brute_force_codes":
                wrapped = self._count_oracle(wrapped)
            if "." in path:  # a method: patch the class once
                self._patch(owner, attr, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not mod_name.startswith("pptor"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics: <name>.calls, .total_s, .self_s, oracle sizes."""
        child: dict[int, float] = {}
        for _, parent, _, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_t = [0.0] * len(self.names)
        for sid, _, k, t0, t1 in self.spans:
            calls[k] += 1
            total[k] += t1 - t0
            self_t[k] += t1 - t0 - child.get(sid, 0.0)
        out: dict[str, float] = {}
        for k, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[k]
            for field in TARGETS[name][2]:
                out[f"{name}.{field}"] = total[k] if field == "total_s" else self_t[k]
        out["kernels.table_bytes"] = self.table_bytes
        out["kernels.free_assignments"] = self.free_assignments
        return out

    def write(self, path) -> int:
        """Write the spans as gzipped TSV (id, parent, name, start, end)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, k, t0, t1 in self.spans:
                fh.write(f"{sid}\t{parent}\t{self.names[k]}\t{t0!r}\t{t1!r}\n")
        return len(self.spans)
