"""Byte-identical outputs: sha256 of two CLI streams, pinned.

The digests were recorded before the half-range moment kernel replaced the
full-range sums, so a change to any per-prime kernel that alters one byte of
these reports or hit lists fails here.
"""

import hashlib

import pytest

from wlab.cli import main

GOLDEN = {
    ("--format", "jsonl", "verify", "--p", "11..200", "--check", "all"):
        "a6a8e1cd05754e7bac2da61131982202c393261cbcfda110b983b73e57c9b011",
    ("--format", "csv", "search", "mod-p8", "--min", "5", "--max", "3000"):
        "1201423da8c91346cafc3b405555c4597463ae7a782bf2a62b25bedbd28ebb32",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_output_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
