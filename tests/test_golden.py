"""Byte-identical outputs: sha256 of fourteen CLI streams, pinned.

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
differ.  The next four (the csv and human forms of ``verify --p 3..60 --check
all`` and of the Wolstenholme search over 14000..18400, which holds 16843)
and the two ``report`` digests (csv and the default table, re-rendering the
jsonl ``--check all`` stream over 3..60) were recorded before one row writer
took over every command's stdout, from the separate csv, table and hit
writers of ``verify``, ``report`` and ``search``.  ``report`` prints exactly
``verify``'s csv and human streams, so its two digests are theirs.
A change to any per-prime kernel that alters one byte of these
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
    ("--format", "csv", "verify", "--p", "3..60", "--check", "all"):
        "0a0cbe9d4a20b2ebaa3c0f324ef982965eae2ec24dd3f861db3edcf1948bd4f2",
    ("--format", "human", "verify", "--p", "3..60", "--check", "all"):
        "5399eebfa8d3a839e26d0ea9731a527fd4df558fad0eef58eef003a39aa9d5bb",
    ("--format", "csv", "search", "wolstenholme", "--min", "14000", "--max", "18400"):
        "705d3eb5cde2168fed752faedfd2b7b4c6b2e1ca0faa548786460ae5e5ad169a",
    ("--format", "human", "search", "wolstenholme", "--min", "14000", "--max", "18400"):
        "dbfcc7bbd7ebb388a116b42f3fb5f9525e9a7e62a5e4906bacc8c1932fbb9ec6",
}
# report re-renders a stream as verify's own csv and human forms: the same digests
REPORTED = {("--format", "csv"): GOLDEN[("--format", "csv", "verify", "--p", "3..60", "--check", "all")],
            (): GOLDEN[("--format", "human", "verify", "--p", "3..60", "--check", "all")]}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=lambda argv: " ".join(argv))
def test_output_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]


@pytest.mark.parametrize("flags", list(REPORTED), ids=lambda flags: " ".join(flags) or "default")
def test_report_digest(capsys, tmp_path, flags):
    assert main(["verify", "--p", "3..60", "--check", "all"]) == 0
    path = tmp_path / "stream.jsonl"
    path.write_text(capsys.readouterr().out)
    assert main([*flags, "report", str(path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORTED[flags]


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
