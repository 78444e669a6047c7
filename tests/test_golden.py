"""Byte-identical outputs: sha256 of four CLI streams, pinned.

The first two digests were recorded before the half-range moment kernel
replaced the full-range sums, the last two (p = 3..60 and p = 7 at e = 6)
while p = 5 and 7 still took an exact-rational path of their own.  A change
to any per-prime kernel that alters one byte of these reports or hit lists
fails here.
"""

import hashlib

import pytest

from wlab.cli import main

GOLDEN = {
    ("--format", "jsonl", "verify", "--p", "11..200", "--check", "all"):
        "a6a8e1cd05754e7bac2da61131982202c393261cbcfda110b983b73e57c9b011",
    ("--format", "csv", "search", "mod-p8", "--min", "5", "--max", "3000"):
        "1201423da8c91346cafc3b405555c4597463ae7a782bf2a62b25bedbd28ebb32",
    ("--format", "jsonl", "verify", "--p", "3..60", "--check", "all"):
        "a807b4b9b8723e4bdf7a4c7f0635affcd9f6ae8bf7538e977704f8fd403ef018",
    ("--format", "jsonl", "verify", "--p", "7", "--check", "thm1.1", "--exp", "6"):
        "10067a0a297b2cdf382f1b7549a4be601ffd80f0ad7b84e76104e86753df1f9a",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_output_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
