"""Command-line interface.

Exit codes: 0 success, 1 domain error (parse failure, non-pure subgroup,
unstable cardinal, failed verification), 2 usage error.  With --json every
command emits one object {"command", "input", "result"[, "trace"]}; domain
errors emit {"command", "input", "error"} on stdout and still exit 1.  The
schema ships as pptor/schemas/cli-result-1.json.

Each subcommand imports the modules it uses when it runs, so a command
loads only those: `card stable` builds no group, and `pure` loads neither
the formula layer nor numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import inf
from typing import TYPE_CHECKING

from ._lexer import _integer

if TYPE_CHECKING:
    from .groups import FgGroup, Subgroup

# the names of verify.SUITES, kept here so that building the parser does not
# import the acceptance suite
VERIFY_SUITES = ("evaluation", "complement", "radical", "closure", "chain",
                 "types", "ulm", "stability", "limit-model", "rem-ab")


class CliError(ValueError):
    pass


def _coordinate_error(message: str, generator: int, coordinate: int):
    """The lexer's error(message, line, column) for one coordinate."""
    return CliError(f"coordinate {coordinate} of generator {generator}: {message}")


def _parse_subgroup(text: str, M: FgGroup) -> Subgroup:
    """Generators separated by ';', coordinates by ',': e.g. '2,0; 0,1'."""
    from .groups import Subgroup

    text = text.strip()
    if text in ("", "0"):
        return Subgroup.from_generators(M, [])
    gens = []
    for g, part in enumerate(text.split(";"), 1):
        if not part.strip():
            raise CliError(f"empty generator in subgroup {text!r}")
        coords = []
        for k, tok in enumerate(part.split(","), 1):
            coord = _integer(tok, _coordinate_error, g, k)
            if coord is None:
                raise CliError(
                    f"coordinate {tok.strip()!r} of generator "
                    f"{part.strip()!r} is not an integer")
            coords.append(coord)
        if len(coords) != M.rank:
            raise CliError(
                f"generator {part.strip()!r} has {len(coords)} coordinates, "
                f"ambient group has rank {M.rank}"
            )
        gens.append(M.element(coords))
    return Subgroup.from_generators(M, gens)


def _group_desc(G: FgGroup) -> dict:
    return {"moduli": list(G.moduli),
            "invariant_factors": list(G.invariant_factors),
            "free_rank": G.free_rank}


def _subgroup_desc(S: Subgroup, G: FgGroup) -> dict:
    """JSON description of S with its abstract form G = S.as_group()."""
    order = S.order()
    return {"ambient": _group_desc(S.ambient),
            "generators": [list(r) for r in S.basis],
            "order": None if order == inf else order,
            "group": _group_desc(G)}


def _generator_lines(S: Subgroup) -> list[str]:
    """Text lines for the basis rows of S, leaving out relation rows (rows
    that are the zero element of the ambient group)."""
    return [f"generator: {', '.join(map(str, r))}" for r in S.basis
            if not S.ambient.element(r).is_zero()]


# ---------------------------------------------------------------------------
# subcommands: each returns (result, trace-or-None, text lines)


def cmd_low(args):
    from .formulas import (
        is_low,
        parse,
        print_formula,
        solution_group_over_z,
        witness_over_z,
    )

    f = parse(args.formula)
    low = is_low(f)
    result = {"formula": print_formula(f), "low": low}
    trace = None
    if not low:
        d = solution_group_over_z(f)
        trace = {"solution_group_over_Z": f"{d}Z",
                 "witness_assignment": witness_over_z(f, d)}
    return result, trace, [str(low).lower()]


def cmd_eval(args):
    from . import ppsolve
    from .formulas import parse, print_formula
    from .groups import parse_group

    f = parse(args.formula)
    M = parse_group(args.group)
    S = ppsolve.evaluate(f, M)
    G = S.as_group()
    result = {"formula": print_formula(f), "group": _group_desc(M),
              "free_variables": list(f.free_vars),
              "subgroup": _subgroup_desc(S, G)}
    lines = [f"φ[M] ≤ M^{len(f.free_vars)}",
             f"order: {S.order()}",
             f"isomorphism type: {_type_str(G)}"]
    return result, None, lines + _generator_lines(S)


def cmd_pure(args):
    from . import purity
    from .groups import parse_group

    M = parse_group(args.group)
    H = _parse_subgroup(args.subgroup, M)
    w = purity.purity_witness(H, M)
    result = {"group": _group_desc(M),
              "subgroup": _subgroup_desc(H, H.as_group()), "pure": w is None}
    trace = None
    lines = [str(w is None).lower()]
    if w is not None:
        n, a = w
        trace = {"witness": {"n": n, "element": list(a.coords)}}
        lines.append(f"witness: {list(a.coords)} ∈ {n}M ∩ H but ∉ {n}H")
    return result, trace, lines


def cmd_torsion(args):
    from . import purity
    from .groups import parse_group

    M = parse_group(args.group)
    T = purity.torsion_radical(M)
    G = T.as_group()
    result = {"group": _group_desc(M), "torsion": _subgroup_desc(T, G)}
    lines = [f"t(M) has order {T.order()}, type {_type_str(G)}"]
    return result, None, lines + _generator_lines(T)


def cmd_complement(args):
    from . import purity
    from .groups import parse_group

    M = parse_group(args.group)
    H = _parse_subgroup(args.subgroup, M)
    K = purity.complement(H, M)
    if K is None:
        raise CliError("no direct complement: the subgroup is not pure")
    G = K.as_group()
    result = {"group": _group_desc(M),
              "subgroup": _subgroup_desc(H, H.as_group()),
              "complement": _subgroup_desc(K, G)}
    lines = [f"complement of order {K.order()}, type {_type_str(G)}"]
    return result, None, lines + _generator_lines(K)


def cmd_chain(args):
    from . import chains, ppsolve
    from .formulas import is_low, print_formula

    p, M0, k = args.witness
    if p < 2 or M0 < 1 or k < 1:
        raise CliError("need p >= 2, M0 >= 1, k >= 1")
    chain, B = chains.witness_chain(p, M0, k)
    levels = [ppsolve.evaluate(f, B) for f in chain]
    orders = [S.order() for S in levels]
    stab = chains.stabilization_index(levels)
    result = {"p": p, "M0": M0, "k": k, "group": _group_desc(B),
              "formula": print_formula(chain[0]),
              "orders": orders, "stabilization_index": stab}
    lines = [f"B = {_type_str(B)}",
             f"φ_0 = {print_formula(chain[0])}  (low: {is_low(chain[0])})",
             "orders: " + " ≥ ".join(map(str, orders)),
             f"stabilization index: {stab if stab is not None else 'not found'}"]
    if args.indices:
        idx = [b.index_in(a) for a, b in zip(levels, levels[1:])]
        result["indices"] = idx
        lines.append("indices [φ_n[B] : φ_{n+1}[B]]: " + ", ".join(map(str, idx)))
    return result, None, lines


def cmd_types(args):
    from . import ppsolve
    from .groups import parse_group

    M = parse_group(args.group)
    n = ppsolve.count_types(M, args.bound, use_oracle=args.oracle)
    result = {"group": _group_desc(M), "bound": args.bound, "count": n,
              "method": "hom-oracle" if args.oracle else "descriptor"}
    return result, None, [str(n)]


def cmd_ulm(args):
    from . import invariants
    from .groups import parse_group

    G = parse_group(args.group)
    inv = invariants.ulm_invariants(G)
    result = {"group": _group_desc(G),
              "alpha": [{"p": p, "n": n, "value": a}
                        for (p, n), a in inv.alpha],
              "gamma": [{"p": p, "value": g} for p, g in inv.gamma]}
    lines = [f"α_{{{p},{n}}} = {a}" for (p, n), a in inv.alpha]
    lines.append("γ (divisible ranks): " + (
        ", ".join(f"p={p}: {g}" for p, g in inv.gamma) if inv.gamma else "none"))
    return result, None, lines


def cmd_limit_model(args):
    from . import cardinals as C
    from . import invariants

    lam = C.parse_cardinal(args.cardinal)
    variant = args.p if args.p is not None else "Tor"
    tpl = invariants.limit_model_template(lam, args.cof, variant)
    result = {"cardinal": C.card_str(C.normalize(lam)), "cofinality": args.cof,
              "class": f"p={args.p}" if args.p else "Tor", "model": tpl.text}
    trace = {"warning": tpl.warning} if tpl.warning else None
    lines = [tpl.text]
    if tpl.warning:
        lines.append(f"warning: {tpl.warning}")
    return result, trace, lines


def cmd_card(args):
    from . import cardinals as C

    lam = C.parse_cardinal(args.cardinal)
    verdict, reason = C.stability_predicate(lam)
    result = {"cardinal": C.card_str(C.normalize(lam)),
              "predicate": "λ^aleph0 = λ", "verdict": str(verdict)}
    return result, {"reason": reason}, [f"{verdict} ({reason})"]


def cmd_verify(args):
    from . import verify

    results = verify.run_suite(args.suite)
    result = [{"criterion": r.name, "passed": r.passed, "detail": r.detail,
               "seconds": round(r.seconds, 2)} for r in results]
    lines = [f"{r.name:22} {'PASS' if r.passed else 'FAIL':4} "
             f"{r.seconds:8.2f}s  {r.detail}" for r in results]
    if not all(r.passed for r in results):
        lines.append("FAILED")
        return result, None, lines, 1
    return result, None, lines


def _type_str(G: FgGroup) -> str:
    parts = [f"Z/{d}" for d in G.invariant_factors] + ["Z"] * G.free_rank
    return " + ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pptor",
        description="pp-definable subgroups of abelian groups, exactly.")
    ap.add_argument("--json", action="store_true",
                    help="emit one JSON object (schemas/cli-result-1.json)")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("low", help="is ψ[Z] = 0?")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_low)

    p = sub.add_parser("eval", help="compute φ[M] as a subgroup of M^n")
    p.add_argument("formula")
    p.add_argument("group", help="group DSL, e.g. 'Z/4 + Z/2' or 'Z^2 + Z/3'")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("pure", help="is the subgroup pure in the group?")
    p.add_argument("subgroup", help="generators 'a,b,...; c,d,...'")
    p.add_argument("group")
    p.set_defaults(fn=cmd_pure)

    p = sub.add_parser("torsion", help="torsion radical t(M)")
    p.add_argument("group")
    p.set_defaults(fn=cmd_torsion)

    p = sub.add_parser("complement", help="direct complement of a pure subgroup")
    p.add_argument("subgroup", help="generators 'a,b,...; c,d,...'")
    p.add_argument("group")
    p.set_defaults(fn=cmd_complement)

    p = sub.add_parser("chain", help="descending witness chain φ_n")
    p.add_argument("--witness", nargs=3, type=int, required=True,
                   metavar=("P", "M0", "K"))
    p.add_argument("--indices", action="store_true",
                   help="also print each index [φ_n[B] : φ_{n+1}[B]]")
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("types", help="count pp-types over M realized in N, |N| ≤ bound")
    p.add_argument("group")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="also confirm every descriptor match with the "
                        "homomorphism oracle (an error if they disagree); "
                        "matches are among the standard embeddings "
                        "M → M ⊕ C, one per extension, since a pure "
                        "subgroup of a finite group is a direct summand")
    p.set_defaults(fn=cmd_types)

    p = sub.add_parser("ulm", help="Ulm invariants α_{p,n} and rank γ")
    p.add_argument("group")
    p.set_defaults(fn=cmd_ulm)

    p = sub.add_parser("limit-model", help="limit model template at a cardinal")
    p.add_argument("cardinal", help="e.g. 'lambda', 'aleph1', '2^aleph0'")
    p.add_argument("--cof", choices=("w", "w1"), required=True)
    p.add_argument("--p", type=int, default=None,
                   help="p-group class instead of Tor")
    p.set_defaults(fn=cmd_limit_model)

    p = sub.add_parser("card", help="cardinal arithmetic predicates")
    csub = p.add_subparsers(dest="predicate", required=True)
    ps = csub.add_parser("stable", help="decide λ^aleph0 = λ")
    ps.add_argument("cardinal")
    ps.set_defaults(fn=cmd_card)

    p = sub.add_parser("verify", help="run acceptance criteria")
    p.add_argument("--suite", default="all",
                   choices=sorted(VERIFY_SUITES) + ["all"])
    p.set_defaults(fn=cmd_verify)

    return ap


def _input_dict(args) -> dict:
    skip = {"json", "command", "fn", "predicate"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command if args.command != "card" else "card stable"
    try:
        out = args.fn(args)
    except ValueError as exc:  # every domain error is a ValueError
        if args.json:
            print(json.dumps({"command": command,
                              "input": _input_dict(args),
                              "error": str(exc)}, ensure_ascii=False))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    result, trace, lines, *rest = out
    code = rest[0] if rest else 0
    if args.json:
        doc = {"command": command, "input": _input_dict(args), "result": result}
        if trace is not None:
            doc["trace"] = trace
        print(json.dumps(doc, ensure_ascii=False))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
