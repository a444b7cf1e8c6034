"""CLI output stays byte-identical to recorded digests.

Every instance in ``tests/fixtures/`` runs under every file-taking CLI
variant below.  The sha256 of stdout and the exit code must equal the entry
in ``tests/fixtures/cli_digests.json``.  After a deliberate change of the
output (or of ``scrollex.__version__``, which every report embeds),
re-record with

    python tests/test_cli_golden.py

The generator subcommands take no file; ``GENERATOR_DIGESTS`` pins the
sha256 of their stdout for seeds 0 to 2.
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

GENERATOR_DIGESTS = {
    "gen-chordal --seed 0": "5edcee8c0993ea2102cb7e9fec2dd0225bf6c6396e0f80edfd935c2f42290c07",
    "gen-chordal --seed 1": "dde60a63fb54aec02bad833660bd6099d897ae49a94bde59016112811de421b6",
    "gen-chordal --seed 2": "c3c1273e204886ccc1a5ac530f435a8fbe7700698bcff64893a5bd9eb998ff33",
    "gen-cycle-ext --seed 0": "415ec499ff038878e46dc0f9c7f0421e53ebe539bb93dace54498571240a55bd",
    "gen-cycle-ext --seed 1": "0dcb2f86bd63eed197266b32619f0225adaccb8e4daa29aad8e263facfcf186e",
    "gen-cycle-ext --seed 2": "ee2594fe50a911c4283f619fb5b98b832c2a3ed20d38257d76ecedc0bbf557f8",
}


def run(argv):
    """Exit code and stdout sha256 of one in-process CLI call."""
    from scrollex.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return code, hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest()


def instances():
    return sorted(p for p in FIXTURES.glob("*.json") if p != DIGESTS)


def digests():
    out = {}
    for inst in instances():
        for name, argv in VARIANTS.items():
            code, sha = run([argv[0], str(inst)] + argv[1:])
            out[f"{inst.name} {name}"] = {"exit": code, "stdout_sha256": sha}
    return out


def test_cli_output_matches_recorded_digests():
    recorded = json.loads(DIGESTS.read_text())
    current = digests()
    assert sorted(current) == sorted(recorded)
    changed = [k for k in current if current[k] != recorded[k]]
    assert changed == []


def test_generator_output_matches_recorded_digests():
    current = {argv: run(argv.split()) for argv in GENERATOR_DIGESTS}
    assert current == {argv: (0, sha) for argv, sha in GENERATOR_DIGESTS.items()}


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))
    DIGESTS.write_text(json.dumps(digests(), indent=2, sort_keys=True) + "\n")
