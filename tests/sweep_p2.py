"""The p2 sweep: ``p2_report`` against the full-census oracle, with counts.

    python tests/sweep_p2.py

The sweep set is 812 reports: ``oracles.random_extension_instance`` seeds
0-399, each with and without ``require_orderable``, and the cycle extensions
``fixtures.random_cycle_extension_instance`` 0-11.  Every report is
compared with ``oracles.census_p2_report`` field by field; the script prints
how the reports fall into chordal, exact and interval cases, the hypotheses
that fail where the interval collapses, and every mismatch.  It exits 1 on any
mismatch.  All work runs under ``__main__``, since ``--doctest-modules``
imports every file under ``tests/``.
"""

import sys
from collections import Counter
from pathlib import Path


def sweep_set():
    from oracles import random_extension_instance
    from scrollex import fixtures

    for seed in range(400):
        for require_orderable in (True, False):
            yield f"random {seed} {require_orderable}", random_extension_instance(
                seed, require_orderable
            )
    for seed in range(12):
        yield f"cycle {seed}", fixtures.random_cycle_extension_instance(seed)


def classify(rep):
    """The counters one report adds to."""
    from scrollex.bounds import Interval, NotApplicable

    if rep.two_linear:
        return ["chordal base"]
    if not isinstance(rep.exact, Interval):
        return ["numeric exact"]
    keys = ["interval"]
    if isinstance(rep.lower, NotApplicable):
        return keys + ["interval: no admissible order"]
    if isinstance(rep.upper, NotApplicable):
        gate = "toricity gate" if not rep.hypotheses["toric_gate"] else "no expandable cycle"
        return keys + [f"interval: numeric lower, no upper ({gate})"]
    if rep.lower != rep.upper:
        return keys + ["interval: two numeric bounds, open"]
    failed = [k for k in ("expandable_family_complete", "block_sizes") if not rep.hypotheses[k]]
    keys.append("interval: two numeric bounds, collapsed")
    keys.append(f"collapsed, failing: {' and '.join(failed)}")
    if rep.hypotheses["toric_gate"]:
        keys.append("collapsed, toricity gate passes")
    return keys


def main():
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from oracles import census_p2_report
    from scrollex.bounds import P2Report, p2_report
    from scrollex.instance import parse_instance

    fields = list(P2Report.__annotations__)
    counts, mismatches = Counter(), []
    for name, doc in sweep_set():
        ext = parse_instance(doc)[0]
        got, want = p2_report(ext), census_p2_report(ext)
        counts["reports"] += 1
        counts.update(classify(want))
        for f in fields:
            if getattr(got, f) != getattr(want, f):
                mismatches.append(f"{name}: {f}: {getattr(got, f)!r} != {getattr(want, f)!r}")
    for key in sorted(counts, key=lambda k: (k != "reports", k)):
        print(f"{counts[key]:5d}  {key}")
    print(f"{len(mismatches):5d}  fields that differ from the oracle")
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
