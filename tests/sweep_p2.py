"""The p2 sweep: ``p2_report`` against the full-census oracle, with counts.

    python tests/sweep_p2.py

The sweep set is 812 reports: ``oracles.random_extension_instance`` seeds
0-399, each with and without ``require_orderable``, and the cycle extensions
``fixtures.random_cycle_extension_instance`` 0-11.  Every report is
compared with ``oracles.census_p2_report`` key by key, over the keys of
both, so a key that one of them lacks is a mismatch; the script prints how
the reports fall into chordal, exact and interval cases, the hypotheses that
fail where the interval collapses, and every mismatch.  It exits 1 on any
mismatch, and when the counts differ from ``EXPECTED``: the library and its
oracle could drift together, and the table pins what both said when they
were last changed.  All work runs under ``__main__``, since
``--doctest-modules`` imports every file under ``tests/``.
"""

import sys
from collections import Counter
from pathlib import Path


EXPECTED = {
    "reports": 812,
    "chordal base": 425,
    "numeric exact": 158,
    "interval": 229,
    "interval: no admissible order": 1,
    "interval: numeric lower, no upper (toricity gate)": 42,
    "interval: numeric lower, no upper (no expandable cycle)": 6,
    "interval: two numeric bounds, open": 8,
    "interval: two numeric bounds, collapsed": 172,
    "collapsed, failing: block_sizes": 152,
    "collapsed, failing: expandable_family_complete": 8,
    "collapsed, failing: expandable_family_complete and block_sizes": 12,
    "collapsed, toricity gate passes": 172,
}


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

    hypotheses = rep["hypotheses"]
    if rep["two_linear"]:
        return ["chordal base"]
    if not isinstance(rep["exact"], Interval):
        return ["numeric exact"]
    keys = ["interval"]
    if isinstance(rep["lower"], NotApplicable):
        return keys + ["interval: no admissible order"]
    if isinstance(rep["upper"], NotApplicable):
        gate = "toricity gate" if not hypotheses["toric_gate"] else "no expandable cycle"
        return keys + [f"interval: numeric lower, no upper ({gate})"]
    if rep["lower"] != rep["upper"]:
        return keys + ["interval: two numeric bounds, open"]
    failed = [k for k in ("expandable_family_complete", "block_sizes") if not hypotheses[k]]
    keys.append("interval: two numeric bounds, collapsed")
    keys.append(f"collapsed, failing: {' and '.join(failed)}")
    if hypotheses["toric_gate"]:
        keys.append("collapsed, toricity gate passes")
    return keys


def main():
    here = Path(__file__).resolve().parent
    sys.path[:0] = [str(here.parent / "src"), str(here)]
    from oracles import census_p2_report
    from scrollex.bounds import p2_report
    from scrollex.instance import parse_instance

    counts, mismatches = Counter(), []
    for name, doc in sweep_set():
        ext = parse_instance(doc)[0]
        got, want = p2_report(ext), census_p2_report(ext)
        counts["reports"] += 1
        counts.update(classify(want))
        for key in sorted(got.keys() | want.keys()):
            if key not in got or key not in want or got[key] != want[key]:
                mismatches.append(f"{name}: {key}: {got.get(key)!r} != {want.get(key)!r}")
    for key in sorted(counts, key=lambda k: (k != "reports", k)):
        print(f"{counts[key]:5d}  {key}")
    print(f"{len(mismatches):5d}  fields that differ from the oracle")
    for line in mismatches:
        print(line)
    if counts != EXPECTED:
        print("the counts differ from the pinned table:")
        for key in sorted(counts.keys() | EXPECTED.keys()):
            if counts[key] != EXPECTED.get(key, 0):
                print(f"  {key}: {counts[key]}, pinned {EXPECTED.get(key, 0)}")
    return 1 if mismatches or counts != EXPECTED else 0


if __name__ == "__main__":
    sys.exit(main())
