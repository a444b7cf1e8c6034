"""Answer extraction, closed forms and the per-job correctness verdict.

Answers are compared field by field, in the member's original names, so a
report that gains a field or a renamed input still matches.
"""

from __future__ import annotations

import hashlib
import json
import math


def _canonical_cycle(seq):
    """Rotation and direction of a cyclic name sequence that sorts first."""
    k = len(seq)
    i = min(range(k), key=lambda t: seq[t])
    fwd = [seq[(i + t) % k] for t in range(k)]
    bwd = [seq[(i - t) % k] for t in range(k)]
    return min(fwd, bwd)


def _comparable(value):
    # not-applicable reasons quote vertex names, which the seed renames
    if isinstance(value, dict) and "not_applicable" in value:
        return "not_applicable"
    if isinstance(value, dict):
        return {k: _comparable(v) for k, v in value.items()}
    return value


def answer(command, report, names):
    """The checked fields of a CLI report, with names mapped through ``names``."""
    if command == "betti":
        return {"entries": report["entries"], "p2": report["p2"]}
    if command == "p2":
        return {f: _comparable(report[f]) for f in ("lower", "upper", "exact")}
    if command == "groebner":
        return {
            "groebner_basis": report["groebner_basis"],
            "routes_agree": report["routes_agree"],
            "deletions": sorted(sorted(names[v] for v in e) for e in report["deletions"]),
        }
    if report["kind"] == "minimal":
        cycles = [_canonical_cycle([names[v] for v in c]) for c in report["cycles"]]
    else:
        cycles = [
            [
                _canonical_cycle([names[v] for v in c["cycle"]]),
                c["expandable"],
                sorted([sorted(names[v] for v in e["edge"]), e["kind"], e["t"]] for e in c["edges"]),
            ]
            for c in report["cycles"]
        ]
    return _cycle_digest(cycles)


def _cycle_digest(cycles):
    # censuses run to thousands of cycles: keep the reference file small
    text = json.dumps(sorted(cycles), separators=(",", ":"))
    return {"cycles": len(cycles), "cycles_sha256": hashlib.sha256(text.encode()).hexdigest()}


def verdict(command, expected, code, stdout, stderr, names):
    """("ok" | "failed" | "wrong", detail) for one finished job.

    "wrong" is a claimed answer that contradicts the reference: exit 0 where
    the reference exits otherwise, or a field that differs.  Everything else
    that misses the reference (a crash, a traceback, another exit code) is
    "failed".
    """
    if code == 0 and expected["exit"] == 0:
        try:
            got = answer(command, json.loads(stdout), names)
        except (ValueError, KeyError, TypeError) as e:
            return "wrong", f"unreadable report: {e!r}"
        diff = sorted(k for k in expected["answer"] if got.get(k) != expected["answer"][k])
        return ("wrong", f"fields differ: {', '.join(diff)}") if diff else ("ok", "")
    if code == expected["exit"]:
        return "ok", ""
    if code == 0:
        return "wrong", f"exit 0, expected {expected['exit']}"
    lines = stderr.strip().splitlines()
    last = lines[-1][:160] if lines else ""
    if "Traceback (most recent call last)" in stderr:
        return "failed", f"crash: {last}"
    return "failed", f"exit {code}, expected {expected['exit']}: {last}"


# ---------------------------------------------------------------------------
# closed forms, computed without scrollex
# ---------------------------------------------------------------------------


def polygon_table(n):
    """Betti table {(i, j): r} of the non-edge ideal of the n-gon.

    Entry (i-1, i+1) is n*i/(n-i-1) * C(n-2, i+1) for 1 <= i <= n-3, and
    the top entry (n-3, n) is 1.  Index i counts from 0 at the generators.
    """
    table = {(i - 1, i + 1): n * i * math.comb(n - 2, i + 1) // (n - i - 1) for i in range(1, n - 2)}
    table[(n - 3, n)] = 1
    return table


def join_table(factors):
    """Betti table of a graph join: the tensor product of the factors' resolutions."""
    total = {(0, 0): 1}
    for table in factors:
        poly = {(0, 0): 1}
        poly.update({(i + 1, j): r for (i, j), r in table.items()})
        product = {}
        for (a, b), r in total.items():
            for (c, d), s in poly.items():
                product[(a + c, b + d)] = product.get((a + c, b + d), 0) + r * s
        total = product
    return {(i - 1, j): r for (i, j), r in total.items() if i > 0 and r}


def betti_answer(table):
    bad = [i for (i, j) in table if j > i + 2]
    return {
        "entries": [[i, j, r] for (i, j), r in sorted(table.items())],
        "p2": min(bad) if bad else "infinity",
    }


def closed_form(spec, variant):
    """The reference a closed form fixes for ``variant`` on ``spec``, or None.

    - an extended n-gon has p2 = n + sum(s) - 3, and its initial complex is
      the (n + sum(s))-gon;
    - the cross-polytope on 2k vertices has beta_{i-1, 2i} = C(k, i), the
      Koszul complex on k disjoint quadrics;
    - a join's table is the tensor product of its factors' tables;
    - the triangle ring has no admissible order, so groebner exits 2.
    """
    family = spec[0]
    if family == "polygon":
        n, sizes = spec[1], spec[2]
        big = n + sum(sizes)
        if variant == "p2":
            return {"exit": 0, "answer": {"lower": big - 3, "upper": big - 3, "exact": big - 3}}
        if variant in ("init-q", "init-p"):
            return {"exit": 0, "answer": betti_answer(polygon_table(big))}
        if variant == "cycles-min":
            cycle = _canonical_cycle([f"x{i + 1}" for i in range(n)])
            return {"exit": 0, "answer": _cycle_digest([cycle])}
    if family == "cross_polytope" and variant in ("betti-q", "betti-p"):
        k = spec[1]
        table = {(i - 1, 2 * i): math.comb(k, i) for i in range(1, k + 1)}
        return {"exit": 0, "answer": betti_answer(table)}
    if family == "cycle_join" and variant in ("betti-q", "betti-p"):
        return {"exit": 0, "answer": betti_answer(join_table([polygon_table(m) for m in spec[1]]))}
    if family == "triangle_ring" and variant == "groebner":
        return {"exit": 2, "answer": {}}
    return None
