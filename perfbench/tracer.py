"""Run one ``scrollex`` CLI call with a span around every public function.

    python3 perfbench/tracer.py SPANS_FILE CLI_ARG...

Wraps, from outside, each public function that a ``scrollex`` module
defines, in every module namespace that binds it, so calls through a module
global reach the wrapper.  Spans stay in memory and are written to
SPANS_FILE when the call ends, with per-function totals: calls, self time
(duration minus the time child spans cover) and the counts in ``COUNTS``.
Only the traced run executes this file; stdout and the exit code are the
CLI's own.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

import scrollex.cli

# Leaf helpers called per monomial comparison or per cycle; a wrapper would
# cost more than their body and distort their callers' self time.
HOT = {"lex_compare", "monomial", "canonical_cycle", "cycle_edges"}


def _rank_cells(args, result):
    rows = args[0]
    return {"cells": len(rows) * (len(rows[0]) if rows else 0)}


COUNTS = {
    "graphs.chordless_cycles": lambda args, result: {"cycles": len(result)},
    "bounds.virtual_minimal_cycles": lambda args, result: {"cycles": len(result)},
    "homology.rank_int": _rank_cells,
    "homology.rank_mod": _rank_cells,
    "extension.generator_system": lambda args, result: {
        "nf": len(result.nf),
        "minors": sum(len(m) for _, m in result.minors),
    },
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start_ns, end_ns, self_ns, counts]
        self.stack = []  # indices of open spans
        self.child_ns = []  # time covered by children of each open span

    def wrap(self, name, fn):
        count = COUNTS.get(name)
        spans, stack, child_ns = self.spans, self.stack, self.child_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            child_ns.append(0)
            counts = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    counts = count(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                covered = child_ns.pop()
                if child_ns:
                    child_ns[-1] += end - start
                spans[sid] = [name, parent, start, end, end - start - covered, counts]

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "scrollex" or n.startswith("scrollex.")]
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, fn in list(vars(mod).items()):
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in HOT
                ):
                    wrapped = self.wrap(f"{short}.{attr}", fn)
                    for other in modules:
                        if vars(other).get(attr) is fn:
                            setattr(other, attr, wrapped)

    def totals(self):
        out = {}
        for name, _, _, _, self_ns, counts in self.spans:
            t = out.setdefault(name, {"calls": 0, "self_ns": 0})
            t["calls"] += 1
            t["self_ns"] += self_ns
            for k, v in (counts or {}).items():
                t[k] = t.get(k, 0) + v
        return out


def main():
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return scrollex.cli.main(argv)
    finally:
        with open(spans_file, "w", encoding="utf-8") as fh:
            doc = {"job": Path(spans_file).stem, "totals": tracer.totals(), "spans": tracer.spans}
            json.dump(doc, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
