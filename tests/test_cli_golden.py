"""CLI output stays byte-identical to recorded digests.

Every instance in ``tests/fixtures/`` runs under every file-taking CLI
variant below.  The sha256 of stdout and the exit code must equal the entry
in ``tests/fixtures/cli_digests.json``.  After a deliberate change of the
output (or of ``scrollex.__version__``, which every report embeds),
re-record with

    python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

FIXTURES = Path(__file__).parent / "fixtures"
DIGESTS = FIXTURES / "cli_digests.json"

VARIANTS = {
    "validate": ["validate"],
    "order": ["order"],
    "groebner": ["groebner"],
    "cycles-minimal": ["cycles", "--kind", "minimal"],
    "cycles-virtual": ["cycles", "--kind", "virtual"],
    "betti-gamma": ["betti", "--ideal", "gamma"],
    "betti-initial": ["betti", "--ideal", "initial"],
    "p2-auto": ["p2", "--mode", "auto"],
    "p2-lower": ["p2", "--mode", "lower"],
    "p2-upper": ["p2", "--mode", "upper"],
    "p2-exact": ["p2", "--mode", "exact"],
}


def instances():
    return sorted(p for p in FIXTURES.glob("*.json") if p != DIGESTS)


def digests():
    from scrollex.cli import main

    out = {}
    for inst in instances():
        for name, argv in VARIANTS.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([argv[0], str(inst)] + argv[1:])
            sha = hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()
            out[f"{inst.name} {name}"] = {"exit": code, "stdout_sha256": sha}
    return out


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    current = digests()
    assert sorted(current) == sorted(recorded)
    changed = [k for k in current if current[k] != recorded[k]]
    assert changed == []


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    DIGESTS.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
