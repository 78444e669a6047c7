"""Byte-identical outputs: sha256 of eight CLI streams, pinned.

The first two digests were recorded before the half-range moment kernel
replaced the full-range sums, the next two (p = 3..60 and p = 7 at e = 6)
while p = 5 and 7 still took an exact-rational path of their own, the fifth
(p = 503..1009, whose kummer3.3 indices reach 1996, near the exact cap)
while exact B_n still came from the tangent-number table, and the sixth
(p = 2003..2111, above the exact cap, where nothing checks Bernoulli
extraction against exact values) while each power sum P_n still took its
own pass over k.  The seventh (eq1.2 and thm1.1 over p = 2003..2111) was
recorded while eq1.2-bernoulli still extracted B_{p-3} from a power-sum
table of its own, and thm1.1 at p = 3, 5 still took math.comb and exact
rationals.  The eighth (the jsonl Wolstenholme hit stream over
14000..18400, which holds 16843) was recorded while the search's hit writer
still passed json.dumps its default separators; until then only the csv
search stream was pinned.  The two ``--check all`` streams (p = 11..200
and 3..60) were re-recorded when the recorded-only row rem1.5-data became
the gating row rem1.5: against the earlier streams only the rem1.5 lines
differ.  A change to any per-prime kernel that alters one byte of these
reports or hit lists fails here.

An extended digest pins ``--check all`` at 2124679, the second Wolstenholme
prime (10–13 s on a shared 2-vCPU VM), recorded with rem1.5 already gating.
"""

import hashlib
import json
import os

import pytest

from wlab.cli import main

EXTENDED = os.environ.get("WLAB_EXTENDED") == "1"

GOLDEN = {
    ("--format", "jsonl", "verify", "--p", "11..200", "--check", "all"):
        "582604f361df46d2fcea2a1d1441658e245ffd54f7d11f15d22b35685df612de",
    ("--format", "csv", "search", "mod-p8", "--min", "5", "--max", "3000"):
        "1201423da8c91346cafc3b405555c4597463ae7a782bf2a62b25bedbd28ebb32",
    ("--format", "jsonl", "verify", "--p", "3..60", "--check", "all"):
        "ab914df9b9fb5bbbb4b47f7de04be7fda464c971223a6c682a0a0d4297e6f9de",
    ("--format", "jsonl", "verify", "--p", "7", "--check", "thm1.1", "--exp", "6"):
        "10067a0a297b2cdf382f1b7549a4be601ffd80f0ad7b84e76104e86753df1f9a",
    ("--format", "jsonl", "verify", "--p", "503..1009", "--check", "kummer3.3",
     "--check", "eq1.2"):
        "481c8025918280fe9d3b275c3fde3c6a7a4affca21abc44f800a859d948eae47",
    ("--format", "jsonl", "verify", "--p", "2003..2111", "--check", "eq1.3",
     "--check", "eq1.5", "--check", "lemma3.5"):
        "b66541aca5ad0777af2c9e6c9e4f0164e2d34d281b7db9a4dd7d52e417aea15b",
    ("--format", "jsonl", "verify", "--p", "2003..2111", "--check", "eq1.2",
     "--check", "thm1.1"):
        "54205a1650bebd3667ffb88eeac9f8fbb8dd41441d741a038fda4d043503a8f4",
    ("--format", "jsonl", "search", "wolstenholme", "--min", "14000", "--max", "18400"):
        "30c81a2cd4ad43e4da30c7f2ad0cd6e7aa2d5a92635378233c87205f28c88beb",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_output_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for --check all at 2124679")
def test_every_row_at_second_wolstenholme_prime(capsys):
    assert main(["--format", "jsonl", "verify", "--p", "2124679", "--check", "all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "49dd25f737cde9b6005efa768b77527a010a5ff133af9270ce0d4c39517b8b66")
    rows = {row["check"]: row for row in map(json.loads, out.splitlines())}
    assert all(rows[name]["status"] == "pass" for name in ("eq1.6-r2", "eq1.6-r3", "rem1.5"))
    # Tauraso's two forms hold exactly at p^7 there, as at 16843
    assert rows["eq1.6-r2"]["residual_valuation"] == rows["eq1.6-r3"]["residual_valuation"] == 7
