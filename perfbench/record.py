"""Record the reference answers in ``perfbench/references.json``.

    python3 perfbench/record.py

Runs every job the workloads can draw once, on the original (not
renamed) member, through the CLI of the checkout's ``src``, and stores
the exit code and answer fields.  A job whose answer a closed form fixes
must agree with it; a job that crashes takes the closed form instead.
Run it only on a commit whose answers are trusted: every later run is
checked against this file.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import check
import gen
from run import CLI
from workloads import MEMBERS, SMALL_POOL, VARIANTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def pairs():
    seen = []
    for spec in WORKLOADS.values():
        seen += [p for p in spec["fixed"] if p not in seen]
        for variant, _ in spec.get("sampled", ()):
            seen += [(m, variant) for m in SMALL_POOL]
    return seen


def main():
    work = HERE / "out" / "record"
    work.mkdir(parents=True, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "SCROLLEX_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    refs = {}
    digests = {}
    for member, variant in pairs():
        doc = gen.build(MEMBERS[member])
        digests[member] = gen.sha256(doc)
        path = work / f"{member}.json"
        path.write_bytes(gen.canonical_bytes(doc))
        argv = [a.replace("{file}", str(path)) for a in VARIANTS[variant]]
        proc = subprocess.run(
            [sys.executable, "-c", CLI, *argv],
            capture_output=True, text=True, env=env, timeout=600,
        )
        form = check.closed_form(MEMBERS[member], variant)
        key = f"{member}/{variant}"
        if proc.returncode in (0, 2) and "Traceback" not in proc.stderr:
            names = {v: v for v in gen.names(doc)}
            ans = check.answer(argv[0], json.loads(proc.stdout), names) if proc.returncode == 0 else {}
            ref = {"exit": proc.returncode, "answer": ans, "source": "recorded"}
            if form is not None and (form["exit"], form["answer"]) != (ref["exit"], ref["answer"]):
                sys.exit(f"{key}: the recorded answer disagrees with the closed form")
        elif form is not None:
            ref = dict(form, source=f"closed form; the recording commit exits {proc.returncode}")
        else:
            sys.exit(f"{key}: exit {proc.returncode} and no closed form\n{proc.stderr}")
        refs[key] = ref
        print(f"{key:28s} exit {proc.returncode}  {ref['source']}", flush=True)
    out = {"sha256": digests, "jobs": refs}
    (HERE / "references.json").write_text(json.dumps(out, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    main()
