"""Stdout of the exact subcommands (`report` included), pinned by sha256.

These outputs come from exact rational arithmetic only, so their bytes do
not depend on the platform.  `tests/golden_stdout.json` maps each command
line to the sha256 of its stdout; to check one by hand, run
`bianchi <command> | sha256sum`.
"""

import hashlib
import json
from pathlib import Path

from bianchi_integrals.cli import main

GOLDEN = json.loads((Path(__file__).parent / "golden_stdout.json").read_text())


def test_exact_stdout_matches_golden_hashes(capsys):
    differing = []
    for command, digest in GOLDEN.items():
        assert main(command.split()) == 0, command
        out, _ = capsys.readouterr()
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            differing.append(command)
    assert not differing, "stdout differs from its golden hash: %s" % "; ".join(differing)
