"""Acceptance suite: one test per numbered criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The two full-range
searches are opt-in: set WLAB_EXTENDED=1 (hours of compute).
"""

import json
import math
import os
import sys
import time

import pytest

from wlab.bernoulli import bernoulli_mod, exact_bernoulli, fraction_mod, kummer_reduce, power_sum_table
from wlab.cli import main as cli_main
from wlab.congruence import (
    CheckContext,
    binom_central_int,
    check_theorem_main,
    run_suite,
)
from wlab.search import SearchTask, primes_in, resume, run_search

EXTENDED = os.environ.get("WLAB_EXTENDED") == "1"

LEMMA_GROUPS = ["lemma2.1", "lemma2.2", "lemma2.3", "lemma2.4", "chain", "hsum", "lemma3.5", "kummer3.3"]


def conclude(num: int, desc: str, ok: bool, detail: str = ""):
    # written to the real stdout so the line survives pytest's capture
    status = "PASS" if ok else "FAIL"
    tail = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num:>2}: {status} - {desc}{tail}", file=sys.__stdout__)
    assert ok, f"criterion {num} failed: {desc} {tail}"


def test_criterion_01_identity_cases():
    t0 = time.perf_counter()
    r3 = check_theorem_main(3)
    r5 = check_theorem_main(5)
    ok = (
        r3.status == "identity" and r3.lhs == r3.rhs == 10
        and r5.status == "identity" and r5.lhs == r5.rhs == 126
    )
    conclude(1, "p=3 and p=5 reduce to exact identities (10 and 126)", ok,
             f"{(time.perf_counter() - t0) * 1e3:.1f} ms")


def test_criterion_02_p7_boundary():
    t0 = time.perf_counter()
    at6 = check_theorem_main(7, 6)
    at7 = check_theorem_main(7, 7)
    ok = at6.holds and not at7.holds and at7.residual_valuation == 6
    conclude(2, "p=7 holds mod 7^6 and fails mod 7^7 (residual exactly 6)", ok,
             f"{(time.perf_counter() - t0) * 1e3:.1f} ms")


def test_criterion_03_theorem_sweep(sweep_contexts):
    t0 = time.perf_counter()
    bad = []
    exactly7 = 0
    for p, ctx in sweep_contexts.items():
        r = check_theorem_main(p, 7, ctx)
        if not (r.holds and r.residual_valuation >= 7):
            bad.append(p)
        if r.residual_valuation == 7:
            exactly7 += 1
    n = len(sweep_contexts)
    ok = not bad and n == 1225 and exactly7 == n
    conclude(3, "main congruence holds mod p^7 for every prime 11..10^4", ok,
             f"{n} primes, residual exactly 7 at all, {time.perf_counter() - t0:.1f}s")


def test_criterion_04_oracle_equivalence(sweep_contexts):
    t0 = time.perf_counter()
    bad = [p for p in (2, 3, 5, 7) if binom_central_int(p, p**8) != math.comb(2 * p - 1, p - 1) % p**8]
    for p, ctx in sweep_contexts.items():
        if ctx.binom() != math.comb(2 * p - 1, p - 1) % p**8:
            bad.append(p)
    ok = not bad
    conclude(4, "unit-product binomial equals exact oracle mod p^8 for all p <= 10^4", ok,
             f"{len(sweep_contexts) + 4} primes, {time.perf_counter() - t0:.1f}s")


def test_criterion_05_corollary_chain(sweep_contexts):
    t0 = time.perf_counter()
    bad = []
    ctx7 = CheckContext(7, 8, harmonic_order=3)
    for p, ctx in [(7, ctx7)] + list(sweep_contexts.items()):
        cor14 = run_suite(p, ["cor1.4"], ctx)
        cor15 = run_suite(p, ["cor1.5"], ctx)
        (eq12h,) = run_suite(p, ["eq1.2-harmonic"], ctx)
        (eq11,) = run_suite(p, ["eq1.1"], ctx)
        if not all(r.holds for r in (*cor14, *cor15, eq12h, eq11)):
            bad.append(p)
            continue
        if p >= 11:
            thm = check_theorem_main(p, 7, ctx)
            levels = [thm.holds, cor14[0].holds and cor14[1].holds,
                      cor15[0].holds and cor15[1].holds, eq12h.holds, eq11.holds]
            if any(strong and not weak for strong, weak in zip(levels, levels[1:])):
                bad.append(p)
    ok = not bad
    conclude(5, "corollary pairs hold for p >= 7 over the sweep; implication chain intact", ok,
             f"{len(sweep_contexts) + 1} primes, {time.perf_counter() - t0:.1f}s")


def test_criterion_06_bernoulli_forms():
    t0 = time.perf_counter()
    bad = []
    for p in primes_in(11, 2000):
        eq13, eq15 = run_suite(p, ["eq1.3", "eq1.5"])
        if not (eq13.holds and eq15.holds):
            bad.append((p, eq13.residual_valuation, eq15.residual_valuation))
    ok = not bad
    conclude(6, "Bernoulli forms hold (mod p^6 and p^7) via the extraction pipeline, 11..2000", ok,
             f"{len(primes_in(11, 2000))} primes, {time.perf_counter() - t0:.1f}s; bad={bad[:4]}")


def test_criterion_07_lemma_suite():
    t0 = time.perf_counter()
    bad = []
    for p in primes_in(11, 500):
        for r in run_suite(p, LEMMA_GROUPS):
            if r.status != "pass":
                bad.append((p, r.name, r.status, r.residual_valuation))
    ok = not bad
    conclude(7, "lemma and proof-chain congruence suite passes for 11 <= p <= 500", ok,
             f"{len(primes_in(11, 500))} primes, {time.perf_counter() - t0:.1f}s; bad={bad[:4]}")


def test_criterion_08_wolstenholme_search(capsys):
    t0 = time.perf_counter()
    code = cli_main(["search", "wolstenholme", "--max", "100000"])
    captured = capsys.readouterr()
    hits = [json.loads(line) for line in captured.out.splitlines()]
    ok = code == 0 and [h["p"] for h in hits] == [16843]
    conclude(8, "search wolstenholme --max 100000 reports exactly {16843}", ok,
             f"{time.perf_counter() - t0:.1f}s")


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for the 2.2e6 range")
def test_criterion_08_extended_wolstenholme():
    t0 = time.perf_counter()
    hits = run_search(SearchTask("wolstenholme", 5, 2_200_000))
    ok = [h.p for h in hits] == [16843, 2124679]
    conclude(8, "extended: both Wolstenholme primes below 2.2e6", ok,
             f"{time.perf_counter() - t0:.0f}s")


def test_criterion_09_mod_p8_search(capsys):
    t0 = time.perf_counter()
    code = cli_main(["search", "mod-p8", "--max", "10000"])
    captured = capsys.readouterr()
    ok = code == 0 and captured.out == ""
    conclude(9, "search mod-p8 --max 10000 reports zero hits", ok,
             f"{time.perf_counter() - t0:.1f}s")


@pytest.mark.extended
@pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for the full 5e5 range")
def test_criterion_09_extended_mod_p8():
    t0 = time.perf_counter()
    hits = run_search(SearchTask("mod_p8", 7, 500_000))
    conclude(9, "extended: no prime below 5e5 reaches exponent 8", hits == [],
             f"{time.perf_counter() - t0:.0f}s")


def test_criterion_10_wolstenholme_prime_facts():
    t0 = time.perf_counter()
    p = 16843
    ctx = CheckContext(p, 9, harmonic_order=3)
    pair = run_suite(p, ["eq1.6"], ctx)
    at8 = check_theorem_main(p, 8, ctx)
    ok = (
        all(r.holds and r.residual_valuation >= 7 for r in pair)
        and not at8.holds
        and at8.residual_valuation == 7
    )
    conclude(10, "p=16843: conditional mod-p^7 forms hold, main congruence fails mod p^8", ok,
             f"{time.perf_counter() - t0:.1f}s (target < 5s)")


def test_criterion_11_bernoulli_oracle_equivalence():
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for p in primes_in(11, 97):
        for n in range(2, 61, 2):
            if n % (p - 1) == 0:
                continue
            for r in (1, 2, 3):
                want = fraction_mod(exact_bernoulli(n), p**r)
                if bernoulli_mod(n, p, r, sums=power_sum_table(kummer_reduce(n, p, r), p, r)) != want:
                    bad.append((n, p, r))
                checked += 1
    ok = not bad
    conclude(11, "power-sum extraction equals exact Bernoulli numbers (n <= 60, p <= 97, r <= 3)", ok,
             f"{checked} triples, {time.perf_counter() - t0:.1f}s")


def test_criterion_12_determinism(tmp_path, capsys):
    t0 = time.perf_counter()

    # search hit lists across worker counts, a window containing the hit
    search_streams = set()
    for workers in (1, 4, 16):
        hits = run_search(SearchTask("wolstenholme", 16000, 17000, chunk=16), workers=workers)
        search_streams.add(json.dumps([h.to_json_dict() for h in hits]))

    # verify report streams across worker counts
    verify_streams = set()
    for workers in (1, 4, 16):
        code = cli_main(["verify", "--p", "11..300", "--check", "thm1.1", "--check", "cor1.4",
                         "--workers", str(workers)])
        assert code == 0
        verify_streams.add(capsys.readouterr().out)

    # kill-and-resume equals the uninterrupted run
    ck = str(tmp_path / "ck.json")
    task = SearchTask("wolstenholme", 5, 30000, chunk=150, checkpoint_path=ck)

    def bomb(done, total, last):
        if done == 5:
            raise KeyboardInterrupt

    try:
        run_search(task, progress=bomb)
        interrupted = False
    except KeyboardInterrupt:
        interrupted = True
    resumed = [h.p for h in resume(ck)]
    uninterrupted = [h.p for h in run_search(SearchTask("wolstenholme", 5, 30000, chunk=150))]

    ok = (
        len(search_streams) == 1
        and len(verify_streams) == 1
        and interrupted
        and resumed == uninterrupted == [16843]
    )
    conclude(12, "hit lists and report streams identical across 1/4/16 workers; resume == uninterrupted",
             ok, f"{time.perf_counter() - t0:.1f}s")
