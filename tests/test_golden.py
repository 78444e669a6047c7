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
search stream was pinned.  A change to any per-prime kernel that alters one
byte of these reports or hit lists fails here.
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
