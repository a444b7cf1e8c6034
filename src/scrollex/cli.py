"""Command-line front end.

    scrollex validate  FILE
    scrollex order     FILE
    scrollex groebner  FILE
    scrollex cycles    FILE [--kind minimal|virtual] [--cap N]
    scrollex betti     FILE [--ideal gamma|initial] [--field q|P] [--max-vertices N]
    scrollex p2        FILE [--mode lower|upper|exact|auto]
    scrollex poligon   N S
    scrollex gen-chordal   --seed S [--vertices N]
    scrollex gen-cycle-ext --seed S [--length N]

Reports are canonical JSON on stdout (sorted keys, exact integers, infinite
values as the string "infinity"); diagnostics go to stderr.  Exit codes:
0 success, 1 input or validation error (a Betti table over more vertices
than --max-vertices is one, and so is a usage error such as an unknown
option, a missing argument or a value of the wrong type; argparse's message
goes to stderr), 2 method not applicable, 3 a cycle census
exceeded its cap, 4 internal error: any other exception, reported on one
stderr line as "error: internal error: <Type>: <message>", never as a
traceback.
A cycle census has no limit on cycle length; only its cap on the number of
cycles (--cap, default 10^6) stops it.

Every p2 mode reads one report.  "lower" is p2 of the initial complex, a
certified lower bound; "lower_substitution" is the replacement-length value
of the virtual minimal cycles, a lower bound only when the "block_sizes"
hypothesis holds; "upper" is the first-block expansion bound.  --mode lower
prints "lower", "lower_substitution" and the latter's witness cycle;
--mode upper prints "upper" and its witness cycle; auto and exact print the
whole report.  A mode exits 2 when its value is not applicable, and exact
also when p2 is only boxed in an interval.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import __version__
from .graphs import DEFAULT_CYCLE_CAP, CycleCapExceeded, chordless_cycles
from .instance import instance_digest, parse_instance


def _json_default(x):
    if isinstance(x, frozenset):
        return sorted(x)
    to_json = getattr(x, "to_json", None)
    if to_json is None:
        raise TypeError(f"{type(x).__name__} is not JSON serializable")
    return to_json()


def _emit(report):
    text = json.dumps(report, sort_keys=True, indent=2, default=_json_default)
    sys.stdout.write(text + "\n")


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    ext, canonical = parse_instance(text)
    return ext, instance_digest(canonical)


def _envelope(command, digest, payload):
    doc = {"command": command, "version": __version__, "instance_digest": digest}
    doc.update(payload)
    return doc


def _cycle_payload(vc, gbar_rank):
    ecs = []
    for e in sorted(vc.edge_classes, key=lambda e: (gbar_rank[e[0]], gbar_rank[e[1]])):
        ec = vc.edge_classes[e]
        entry = {"edge": list(e), "kind": ec.kind, "t": ec.t}
        if ec.eta is not None:
            entry["eta"] = ec.eta
        if ec.jls is not None:
            entry["blocks"] = list(ec.jls)
        ecs.append(entry)
    return {"cycle": list(vc.cycle), "edges": ecs, "expandable": vc.expandable}


def cmd_validate(ext, digest, args):
    payload = {
        "valid": True,
        "vertices": len(ext.skeleton_bar.vertices),
        "base_vertices": len(ext.base.skeleton.vertices),
        "facets": len(ext.base.facets),
        "matrices": len(ext.matrices),
    }
    return _envelope("validate", digest, payload), 0


def cmd_order(ext, digest, args):
    from .ordering import NotOrderableError, find_admissible_order

    try:
        matrices = find_admissible_order(ext.matrices)
    except NotOrderableError as e:
        payload = {"orderable": False, "witness": [sorted(f) for f in e.facets]}
    else:
        payload = {"orderable": True, "order": [sorted(m.facet) for m in matrices]}
    return _envelope("order", digest, payload), 0


def cmd_groebner(ext, digest, args):
    from .groebner import buchberger_is_groebner, encode_system, lead_deletions
    from .ordering import NotOrderableError, initial_complex

    try:
        ic = initial_complex(ext)
    except NotOrderableError as e:
        witness = [sorted(f) for f in e.facets]
        payload = {"not_applicable": "no admissible order", "witness": witness}
        return _envelope("groebner", digest, payload), 2
    encoded = encode_system(ext, ic.order)
    check = buchberger_is_groebner(encoded, ic.order)
    groebner_route = lead_deletions(encoded, ic.order)
    payload = {
        "groebner_basis": check.ok,
        "variable_order": list(ic.order.variables),
        "deletions": [list(e) for e in sorted(ic.deleted)],
        "routes_agree": groebner_route == {frozenset(e) for e in ic.deleted},
    }
    return _envelope("groebner", digest, payload), 0


def cmd_cycles(ext, digest, args):
    g = ext.base.skeleton
    if args.kind == "minimal":
        cycles = chordless_cycles(g, cap=args.cap)
        payload = {"kind": "minimal", "cycles": [list(c) for c in cycles]}
    else:
        from .bounds import virtual_minimal_cycles

        vcs = virtual_minimal_cycles(ext, cap=args.cap)
        payload = {
            "kind": "virtual",
            "cycles": [_cycle_payload(vc, g.rank) for vc in vcs],
        }
    return _envelope("cycles", digest, payload), 0


def cmd_betti(ext, digest, args):
    from .homology import QQ, FieldSpec, betti_table, p2_from_table

    if args.field == "q":
        field = QQ
    elif args.field.isdecimal() and int(args.field):
        field = FieldSpec(int(args.field))
    else:
        raise ValueError(f"--field must be q or a prime, got {args.field!r}")
    if args.ideal == "gamma":
        graph = ext.base.skeleton
    else:
        from .ordering import NotOrderableError, initial_complex

        try:
            graph = initial_complex(ext).graph
        except NotOrderableError:
            return _envelope("betti", digest, {"not_applicable": "no admissible order"}), 2
    table = betti_table(graph, field, max_vertices=args.max_vertices)
    p2 = p2_from_table(table)
    payload = {
        "ideal": args.ideal,
        "field": repr(field),
        "entries": [[i, j, r] for (i, j), r in sorted(table.graded.items())],
        "two_linear": table.is_two_linear(),
        "p2": p2.p2,
        "witnesses": p2.witness_count,
    }
    return _envelope("betti", digest, payload), 0


def cmd_p2(ext, digest, args):
    from .bounds import Interval, NotApplicable, p2_report

    report = p2_report(ext)
    rank = ext.base.skeleton.rank
    if args.mode in ("lower", "upper"):
        value = getattr(report, args.mode)
        if isinstance(value, NotApplicable):
            return _envelope("p2", digest, {"not_applicable": value.reason}), 2
        payload = {"mode": args.mode, args.mode: value}
        if args.mode == "lower":
            payload["lower_substitution"] = report.lower_substitution
        witness = getattr(report, f"{args.mode}_witness")
        if witness is not None:
            payload["witness"] = _cycle_payload(witness, rank)
        return _envelope("p2", digest, payload), 0

    payload = {
        "mode": args.mode,
        "two_linear": report.two_linear,
        "lower": report.lower,
        "lower_substitution": report.lower_substitution,
        "upper": report.upper,
        "exact": report.exact,
        "hypotheses": report.hypotheses,
        "toricity": {"ok": report.toricity.ok, "reason": report.toricity.reason},
    }
    if report.lower_witness is not None:
        payload["lower_witness"] = _cycle_payload(report.lower_witness, rank)
    if report.upper_witness is not None:
        payload["upper_witness"] = _cycle_payload(report.upper_witness, rank)
    code = 2 if args.mode == "exact" and isinstance(report.exact, Interval) else 0
    return _envelope("p2", digest, payload), code


def cmd_poligon(args):
    from .homology import cycle_betti_table

    table = cycle_betti_table(args.n, args.s)
    params = {"n": args.n, "s": args.s}
    digest = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode("utf-8")
    ).hexdigest()
    payload = {
        "n": args.n,
        "s": args.s,
        "entries": [[i, j, r] for (i, j), r in sorted(table.graded.items())],
        "p2": args.n + args.s - 3,
    }
    return _envelope("poligon", digest, payload), 0


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit 1 (an input error), not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def main(argv=None):
    parser = _Parser(prog="scrollex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("validate", "order", "groebner"):
        p = sub.add_parser(name)
        p.add_argument("file")
    p = sub.add_parser("cycles")
    p.add_argument("file")
    p.add_argument("--kind", choices=("minimal", "virtual"), default="minimal")
    p.add_argument("--cap", type=int, default=DEFAULT_CYCLE_CAP)
    p = sub.add_parser("betti")
    p.add_argument("file")
    p.add_argument("--ideal", choices=("gamma", "initial"), default="gamma")
    p.add_argument("--field", default="q")
    p.add_argument("--max-vertices", type=int, default=20)
    p = sub.add_parser("p2")
    p.add_argument("file")
    p.add_argument("--mode", choices=("lower", "upper", "exact", "auto"), default="auto")
    p = sub.add_parser("poligon")
    p.add_argument("n", type=int)
    p.add_argument("s", type=int)
    p = sub.add_parser("gen-chordal")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--vertices", type=int, default=6)
    p = sub.add_parser("gen-cycle-ext")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--length", type=int, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "poligon":
            report, code = cmd_poligon(args)
        elif args.command == "gen-chordal":
            from .fixtures import chordal_instance

            report, code = chordal_instance(args.seed, args.vertices), 0
        elif args.command == "gen-cycle-ext":
            from .fixtures import random_cycle_extension_instance

            report, code = random_cycle_extension_instance(args.seed, args.length), 0
        else:
            ext, digest = _load(args.file)
            handler = {
                "validate": cmd_validate,
                "order": cmd_order,
                "groebner": cmd_groebner,
                "cycles": cmd_cycles,
                "betti": cmd_betti,
                "p2": cmd_p2,
            }[args.command]
            report, code = handler(ext, digest, args)
        _emit(report)
    except CycleCapExceeded as e:
        sys.stderr.write(f"error: {e}\n")
        return 3
    except (ValueError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1
    except Exception as e:
        message = " ".join(str(e).split())
        sys.stderr.write(f"error: internal error: {type(e).__name__}: {message}\n")
        return 4
    return code


if __name__ == "__main__":
    sys.exit(main())
