"""Prime generation, indicators, parallel search, checkpoint/resume."""

import io
import json
import math
import os
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wlab.search as search_mod
from wlab import modring
from wlab.bernoulli import bernoulli_mod
from wlab.congruence import REGISTRY, binom_central_int
from wlab.errors import CheckpointCorrupt, InternalInconsistency, InvalidInput, TaskMismatch, WlabError
from wlab.modring import PRIME_BOUND, residual_valuation
from wlab.search import (
    SearchTask,
    lehmer_walk,
    load_checkpoint,
    mod_p8_indicator,
    primes_in,
    run_search,
    save_checkpoint,
    wolstenholme_indicator,
)
from wlab.sums import half_range_moments, inverse_power_sums_ints, newton_elementary_ints

from oracles import batch_inv_ints, binom_central_per_k, half_range_s1_per_k, lehmer_sum


EXTENDED = os.environ.get("WLAB_EXTENDED") == "1"


def trial_division_primes(lo: int, hi: int) -> list[int]:
    out = []
    for n in range(max(lo, 2), hi + 1):
        d = 2
        while d * d <= n:
            if n % d == 0:
                break
            d += 1
        else:
            out.append(n)
    return out


class TestPrimesIn:
    def test_examples(self):
        assert primes_in(10, 20) == [11, 13, 17, 19]
        assert primes_in(2, 2) == [2]
        assert primes_in(16840, 16850) == [16843]

    def test_empty_windows(self):
        assert primes_in(24, 28) == []
        assert primes_in(20, 10) == []

    def test_random_windows_against_trial_division(self):
        rng = random.Random(3)
        for _ in range(20):
            lo = rng.randrange(2, 200000)
            hi = lo + rng.randrange(0, 300)
            assert primes_in(lo, hi) == trial_division_primes(lo, hi), (lo, hi)

    def test_segment_boundaries(self, monkeypatch):
        # windows straddling segment edges; at SEGMENT 64 the base primes'
        # own sieve crosses them too
        for seg in (1 << 17, 64):
            monkeypatch.setattr(modring, "SEGMENT", seg)
            assert primes_in(seg - 50, seg + 50) == trial_division_primes(seg - 50, seg + 50), seg
        assert primes_in(2, 5000) == trial_division_primes(2, 5000)


class TestIndicators:
    def test_wolstenholme_baseline(self):
        assert wolstenholme_indicator(5) == 2
        assert wolstenholme_indicator(11) == 2

    def test_wolstenholme_prime(self):
        assert wolstenholme_indicator(16843) >= 3

    def test_matches_r1_valuation(self):
        from wlab.congruence import CheckContext

        for p in (7, 11, 13, 101, 16843):
            ctx = CheckContext(p, 8)
            assert wolstenholme_indicator(p) == residual_valuation(ctx.R(1), p, 4), p

    def test_mod_p8_values(self):
        assert mod_p8_indicator(7) == 6
        assert mod_p8_indicator(11) == 7
        assert mod_p8_indicator(13) == 7
        assert mod_p8_indicator(16843) == 7

    def test_preconditions(self):
        with pytest.raises(InvalidInput):
            wolstenholme_indicator(3)
        with pytest.raises(InvalidInput):
            mod_p8_indicator(5)

    def test_second_wolstenholme_prime(self):
        # point-check at extended-search scale: 2124679 is the other known hit
        from wlab.congruence import binom_central_int
        from wlab.modring import residual_valuation

        p = 2124679
        assert wolstenholme_indicator(p) >= 3
        assert residual_valuation(binom_central_int(p, p**5) - 1, p, 5) >= 4

    def test_mod_p8_at_top_of_range(self):
        # largest prime below 5e5: floor of the proven exponent, no hit
        assert mod_p8_indicator(499979) == 7

    def test_indicator_agrees_with_binomial_criterion(self):
        # v_p(R_1) >= 3 exactly when C(2p-1, p-1) = 1 mod p^4
        from wlab.congruence import binom_central_int
        from wlab.modring import residual_valuation

        for p in primes_in(5, 2500) + [16381, 16843, 9973]:
            harmonic_hit = wolstenholme_indicator(p) >= 3
            binom_hit = residual_valuation(binom_central_int(p, p**5) - 1, p, 5) >= 4
            assert harmonic_hit == binom_hit, p

    def test_indicator_is_the_s1_valuation_every_prime_to_1e4(self):
        for p in primes_in(5, 10_000) + [16843]:
            assert wolstenholme_indicator(p) == s1_indicator(p), p

    @pytest.mark.extended
    @pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for the indicator at 2124679")
    def test_indicator_is_the_s1_valuation_at_2124679(self):
        assert wolstenholme_indicator(2124679) == s1_indicator(2124679) == 3


def s1_indicator(p: int) -> int:
    """v_p(R_1) in Z/p^4, saturated at 4, as 1 + v_p(S_1) in Z/p^3 from the
    j = 1 route of half_range_moments, since R_1 = p*S_1."""
    _, s = half_range_moments(p, p**3, 1)
    return 1 + residual_valuation(s[1], p, 3)


def assert_blocked_kernels_match_per_k(p: int) -> None:
    """The confirmation's two full-range kernels, which multiply a block of
    exact factors and reduce once a block, against the per-k loops that
    reduce at every factor: the binomial product at p^5 and p^9, and the
    binomial with S_1 at p^3 and p^9."""
    for e in (3, 5, 9):
        m = p**e
        assert binom_central_int(p, m) == binom_central_per_k(p, m), (p, e)
        binom, s = half_range_moments(p, m, 1)
        assert (binom, s[1]) == half_range_s1_per_k(p, m), (p, e)


class TestBlockedConfirmationKernels:
    def test_every_prime_to_2000(self):
        # small p fit in one partial block; larger p span several blocks
        for p in primes_in(3, 2000):
            assert_blocked_kernels_match_per_k(p)

    def test_first_wolstenholme_prime(self):
        assert_blocked_kernels_match_per_k(16843)

    @pytest.mark.extended
    @pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for the kernels at 2124679")
    def test_second_wolstenholme_prime(self):
        assert_blocked_kernels_match_per_k(2124679)


def slow_mod_p8_residual(p: int) -> int:
    """Residual valuation of C(2p-1, p-1) - (1 - 2p*H_1 + 4p^2*H_2) in Z/p^9,
    from the full-range oracles: the binomial product, R_1 and R_2 over all
    p-1 terms, and H_2 by Newton's identities."""
    m = p**9
    r = inverse_power_sums_ints(p, m, 2)
    h2 = newton_elementary_ints(r, 2, m, p)[2]
    return residual_valuation(binom_central_int(p, m) - (1 - 2 * p * r[1] + 4 * p * p * h2), p, 9)


def assert_mod_p8_matches_oracles(lo: int, hi: int) -> None:
    """At every prime in [lo, hi]: the indicator equals the slow residual and,
    for p >= 11, never falls below the proven exponent 7 (the scan checks that
    only where the filter sends a prime on); the filter sum is 1005 * B_{p-7}
    mod p for p >= 11, and is 0 exactly where the indicator reaches 8.  At 67,
    a divisor of 1005, the sum is 0 but the indicator is 7, so the scan routes
    67 round the filter."""
    for p in primes_in(lo, hi):
        v = mod_p8_indicator(p)
        assert v == slow_mod_p8_residual(p), p
        s = lehmer_sum(p, 7, p // 4, p // 3)
        if p != 67:
            assert (s == 0) == (v >= 8), p
        if p >= 11:
            assert v >= 7, p
            assert s == 1005 * bernoulli_mod(p - 7, p, 1) % p, p


class TestModP8Differential:
    def test_every_prime_7_to_6000(self):
        # covers the benchmark's mod-p8 window near 5000
        assert_mod_p8_matches_oracles(7, 6000)

    @pytest.mark.extended
    @pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for the 6000..5e4 sweep")
    def test_every_prime_6000_to_5e4(self):
        assert_mod_p8_matches_oracles(6000, 50_000)


def assert_lehmer_matches_oracles(lo: int, hi: int) -> None:
    """At every prime in [lo, hi]: the filter sum over p/4 < k <= p/3 is
    -5/2 * (half-range cube sum) mod p, and it is 0 exactly where the
    half-range filter mod p^2 fires."""
    for p in primes_in(lo, hi):
        half = sum(x * x * x for x in batch_inv_ints(range(1, (p - 1) // 2 + 1), p, p)) % p
        s = lehmer_sum(p, 3, p // 4, p // 3)
        assert 2 * s % p == -5 * half % p, p
        assert (s == 0) == (half_range_moments(p, p * p, 1)[1][1] == 0), p


class TestLehmerFilter:
    def test_differential_every_prime_to_2e4(self):
        assert_lehmer_matches_oracles(7, 20_000)

    @pytest.mark.extended
    @pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for the 2e4..1e5 sweep")
    def test_differential_every_prime_2e4_to_1e5(self):
        assert_lehmer_matches_oracles(20_000, 100_000)

    def test_p5_is_no_hit(self):
        # the Lehmer sum is empty at p = 5, so the scan must not treat it as a zero
        assert lehmer_sum(5, 3, 5 // 4, 5 // 3) == 0
        assert run_search(SearchTask("wolstenholme", 5, 5)) == []

    def test_p67_is_no_hit(self):
        # 67 | 1005, so the mod-p8 filter sum vanishes at 67 whatever B_60 is
        assert lehmer_sum(67, 7, 67 // 4, 67 // 3) == 0
        assert run_search(SearchTask("mod_p8", 67, 67)) == []

    @pytest.mark.parametrize("kind, routed", [("wolstenholme", [5]), ("mod_p8", [7, 67])])
    def test_only_degenerate_primes_reach_confirmation(self, monkeypatch, kind, routed):
        # no hit below 2000, so the filter passes no other prime on
        seen = []
        confirm = search_mod._confirm
        monkeypatch.setattr(search_mod, "_confirm", lambda kind, p: seen.append(p) or confirm(kind, p))
        assert run_search(SearchTask(kind, 5, 2000)) == []
        assert seen == routed

    @pytest.mark.parametrize("kind", ["wolstenholme", "mod_p8"])
    def test_filter_zero_failing_confirmation_raises(self, monkeypatch, kind):
        monkeypatch.setattr(search_mod, "lehmer_walk", lambda chunks, n: ([0] * len(c) for c in chunks))
        with pytest.raises(InternalInconsistency, match="p=101 "):
            run_search(SearchTask(kind, 101, 101))
        # a chunk that walks on its own, as a pool task does
        with pytest.raises(InternalInconsistency, match="p=101 "):
            search_mod._scan_chunk(kind, [101])

    def test_second_wolstenholme_prime_through_the_scan(self):
        hits = run_search(SearchTask("wolstenholme", 2124600, 2124700))
        assert [h["p"] for h in hits] == [2124679]


def assert_walk_matches_lehmer_sum(n: int, lo: int, hi: int) -> None:
    """At every prime in [lo, hi], the walk equals lehmer_sum over the whole
    interval p/4 < k <= p/3, in chunks of 1, 2, 3, 17, 32 and 256 primes and
    in one chunk of the whole range, each chunk's list of the chunk's length.
    Most of these chunkings end on a ragged chunk.  From the first prime and
    from a start mid-range, as a resume re-chunks what is left, one walk
    serves every chunk, and every chunk also walks alone, as a pool task
    does."""
    primes = primes_in(lo, hi)
    oracle = [lehmer_sum(p, n, p // 4, p // 3) for p in primes]
    for chunk in (1, 2, 3, 17, 32, 256, len(primes)):
        for start in (0, len(primes) // 3 + 1):
            chunks = [primes[i : i + chunk] for i in range(start, len(primes), chunk)]
            sums = list(lehmer_walk(chunks, n))
            assert [len(s) for s in sums] == [len(c) for c in chunks], (chunk, start)
            assert [s for c in sums for s in c] == oracle[start:], (chunk, start)
            alone = [s for c in chunks for s in next(lehmer_walk([c], n))]
            assert alone == oracle[start:], (chunk, start)


def batches_per_chunk(primes: list[int], chunk: int) -> list[list[list[int]]]:
    return [list(search_mod._batches(primes[i : i + chunk])) for i in range(0, len(primes), chunk)]


class TestLehmerBatch:
    def test_every_prime_to_2e4(self):
        assert_walk_matches_lehmer_sum(3, 5, 20_000)
        assert_walk_matches_lehmer_sum(7, 11, 20_000)

    @pytest.mark.extended
    @pytest.mark.skipif(not EXTENDED, reason="set WLAB_EXTENDED=1 for the 2e4..1e5 sweep")
    def test_every_prime_2e4_to_1e5(self):
        assert_walk_matches_lehmer_sum(3, 20_000, 100_000)
        assert_walk_matches_lehmer_sum(7, 20_000, 100_000)

    @pytest.mark.parametrize("chunk", [256, 2260])  # 2260: the primes in 5..2e4, one chunk
    def test_a_batch_is_the_run_below_three_times_its_first(self, chunk):
        # the cut is for speed: test_an_uncut_chunk_gives_the_same_sums
        primes = primes_in(5, 20_000)
        assert len(primes) == 2260
        for c, batches in zip(range(0, len(primes), chunk), batches_per_chunk(primes, chunk)):
            assert [p for b in batches for p in b] == primes[c : c + chunk]
            for b, after in zip(batches, batches[1:]):
                assert b[-1] < 3 * b[0] <= after[0]
            assert batches[-1][-1] < 3 * batches[-1][0]
        # the batch holding 5, whose interval 5//4 < k <= 5//3 is empty, is walked
        # with its neighbours: its two readings are taken at the same k
        assert batches_per_chunk(primes, chunk)[0][0] == [5, 7, 11, 13]

    @pytest.mark.parametrize("chunk", [1, 3, 256, 2260])
    def test_one_prime_batches_end_their_chunk(self, chunk):
        # the next prime after p_1 is below 2*p_1 (Bertrand), so only a chunk's
        # last prime can be cut off alone; chunks of 1 are all lone primes, and
        # chunks of 3 leave 19997 alone at the end of the range
        primes = primes_in(5, 20_000)
        per_chunk = batches_per_chunk(primes, chunk)
        lone = [b[0] for bs in per_chunk for b in bs if len(b) == 1]
        assert lone == [bs[-1][0] for bs in per_chunk if len(bs[-1]) == 1]
        assert lone == {1: primes, 3: [19997], 256: [], 2260: []}[chunk]

    @pytest.mark.parametrize("n, lo", [(3, 5), (7, 11)])
    def test_an_uncut_chunk_gives_the_same_sums(self, n, lo, monkeypatch):
        # one batch for the whole chunk, p_B about 4000*p_1: a prime reads the
        # batch only at its stops, where every k folded in is <= p//3 < p, a
        # unit mod p, so the 3*p_1 cut is not needed for correctness
        primes = primes_in(lo, 20_000)
        monkeypatch.setattr(search_mod, "_batches", lambda chunk: iter([chunk]))
        assert next(lehmer_walk([primes], n)) == [lehmer_sum(p, n, p // 4, p // 3) for p in primes]

    def test_the_cut_can_leave_a_chunks_last_prime_alone(self):
        primes = primes_in(5, 17)
        assert list(search_mod._batches(primes)) == [[5, 7, 11, 13], [17]]
        assert next(lehmer_walk([primes], 3)) == [lehmer_sum(p, 3, p // 4, p // 3) for p in primes]

    def test_walk_memory_is_a_multiple_of_the_modulus(self):
        # One batch of 2055 primes near 1e6: m has 5125 bytes, so 2B residues
        # mod m would hold 2B*|m|, about 21 MB.  The walk holds m, num, den and
        # one block's product, a few |m|, and O(B) ints below p: each prime's
        # (N_4, D_4) until its p//3 stop, and its sum.  Those cost about
        # 100 bytes a prime, while a 20-bit prime adds 2.5 bytes to m, so the
        # peak is about 44*|m| (tracemalloc); the bound 64*|m| is 1/32 of B*|m|.
        primes = primes_in(10**6, 10**6 + 28_000)
        assert len(primes) == 2055 and list(search_mod._batches(primes)) == [primes]
        size_m = (math.prod(primes).bit_length() + 7) // 8
        tracemalloc.start()
        try:
            sums = next(lehmer_walk([primes], 3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * size_m, (peak, size_m)
        assert [sums[i] for i in (0, 1027, 2054)] == [lehmer_sum(p, 3, p // 4, p // 3) for p in primes[::1027]]

    def test_multi_chunk_walk_memory_is_a_multiple_of_the_moduli(self):
        # The same 2055 primes in chunks of 256, the last ragged, in one walk.
        # Every p//4 there comes before every p//3, so all nine batches are
        # active together: the walk holds each one's m, num and den, together
        # |M| for M the product of all the primes, and two ints below p per
        # prime between its stops.  The stops stream from the chunks; a list
        # of all 4110 stops would add about 70 bytes a stop, near 60*|M|.
        primes = primes_in(10**6, 10**6 + 28_000)
        chunks = [primes[i : i + 256] for i in range(0, len(primes), 256)]
        assert len(chunks) == 9 and len(chunks[-1]) == 7
        size_m = (math.prod(primes).bit_length() + 7) // 8
        seen = []
        tracemalloc.start()
        try:
            for c, sums in zip(chunks, lehmer_walk(chunks, 3)):
                seen.append((c[-1], sums[-1]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * size_m, (peak, size_m)
        assert seen == [(c[-1], lehmer_sum(c[-1], 3, c[-1] // 4, c[-1] // 3)) for c in chunks]


class TestRunSearch:
    def test_wolstenholme_small_range_empty(self):
        assert run_search(SearchTask("wolstenholme", 5, 100)) == []

    def test_wolstenholme_hit_window(self):
        hits = run_search(SearchTask("wolstenholme", 16000, 17000))
        assert [h["p"] for h in hits] == [16843]
        (hit,) = hits
        assert hit["witness"]["r1_valuation"] >= 3
        assert hit["witness"]["binom_residual_valuation"] >= 4

    def test_mod_p8_empty(self):
        assert run_search(SearchTask("mod_p8", 7, 2000)) == []

    def test_determinism_across_workers_and_chunks(self):
        base = None
        for workers, chunk in ((1, 64), (2, 17), (4, 200)):
            task = SearchTask("wolstenholme", 16500, 17500, chunk=chunk)
            got = json.dumps(run_search(task, workers=workers))
            if base is None:
                base = got
            assert got == base

    def test_task_validation(self):
        with pytest.raises(InvalidInput):
            SearchTask("nope", 5, 10)
        with pytest.raises(InvalidInput):
            SearchTask("wolstenholme", 10, 9)
        with pytest.raises(InvalidInput):
            SearchTask("wolstenholme", 5, 10, chunk=0)
        # the top of the range is the bound of the deterministic primality test
        with pytest.raises(InvalidInput, match="hi < "):
            SearchTask("wolstenholme", 5, PRIME_BOUND)
        assert SearchTask("wolstenholme", 5, PRIME_BOUND - 1).hi == PRIME_BOUND - 1

    @pytest.mark.parametrize("record", [
        SearchTask("wolstenholme", 5, 10),
        REGISTRY["eq1.1"],
    ], ids=lambda r: type(r).__name__)
    def test_records_are_immutable(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    def test_single_prime_scan(self):
        assert [h["p"] for h in run_search(SearchTask("wolstenholme", 16843, 16843))] == [16843]
        assert run_search(SearchTask("wolstenholme", 16844, 16844)) == []

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        # Executor.map submits every task at once, and a spawn pool starts a
        # process per submit while none is idle; a fake pool starts none
        import concurrent.futures
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, max_workers, mp_context):
                sizes.append(max_workers)

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        task = SearchTask("wolstenholme", 16000, 17000, chunk=8)
        assert run_search(task, workers=10**6) == run_search(task)
        assert list(search_mod.ordered_map(abs, [-1, -2, -3], 10**6)) == [1, 2, 3]
        assert sizes == [min(10**6, os.cpu_count() or 1)] * 2 and sizes[0] <= (os.cpu_count() or 1)
        assert multiprocessing.active_children() == []


class TestCheckpointing:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        cp = {"schema_version": 1, "kind": "wolstenholme", "lo": 5, "hi": 1000, "last_completed_prime": 499,
              "hits": [{"p": 7, "witness": {"x": 1}}], "updated_at": "2020-01-01T00:00:00Z"}
        save_checkpoint(path, cp)
        back = load_checkpoint(path)
        assert back == cp

    def test_one_write_of_the_bytes_json_dump_streams(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.json"
        cp = {"schema_version": 1, "kind": "wolstenholme", "lo": 14000, "hi": 18400, "last_completed_prime": 17000,
              "hits": [{"p": 16843, "witness": WITNESS_16843}], "updated_at": "2020-01-01T00:00:00Z"}
        writes = []

        def counting_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            write = fh.write
            fh.write = lambda text: writes.append(text) or write(text)
            return fh

        monkeypatch.setattr(search_mod, "open", counting_open, raising=False)
        save_checkpoint(str(path), cp)
        streamed = io.StringIO()
        json.dump(cp, streamed, indent=1)
        assert path.read_bytes() == streamed.getvalue().encode()
        assert writes == [streamed.getvalue()]

    def test_load_returns_the_seven_fields_in_file_order(self, tmp_path):
        # a key outside the schema, here in the middle of the file, is dropped
        path = tmp_path / "ck.json"
        path.write_text('{"schema_version": 1, "kind": "wolstenholme", "lo": 5, "extra": [1], "hi": 1000, '
                        '"last_completed_prime": 499, "hits": [], "updated_at": "x"}')
        cp = load_checkpoint(str(path))
        assert list(cp) == ["schema_version", "kind", "lo", "hi", "last_completed_prime", "hits", "updated_at"]
        assert cp == {"schema_version": 1, "kind": "wolstenholme", "lo": 5, "hi": 1000,
                      "last_completed_prime": 499, "hits": [], "updated_at": "x"}

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "ck.json"
        cp = {"schema_version": 1, "kind": "wolstenholme", "lo": 5, "hi": 1000, "last_completed_prime": 499,
              "hits": [], "updated_at": "2020-01-01T00:00:00Z"}
        save_checkpoint(str(path), cp)
        with pytest.raises(TypeError):  # not JSON: the old checkpoint stays, the temp file goes
            save_checkpoint(str(path), {**cp, "hits": [{"p": 7, "witness": object()}]})
        assert [f.name for f in tmp_path.iterdir()] == ["ck.json"]
        assert load_checkpoint(str(path)) == cp

    def test_unwritable_path_fails_before_any_chunk(self, tmp_path, monkeypatch):
        scanned, writes = [], []
        monkeypatch.setattr(search_mod, "_scan_chunk", lambda kind, primes, sums=None: scanned.append(primes) or [])
        save = search_mod.save_checkpoint
        monkeypatch.setattr(search_mod, "save_checkpoint", lambda path, cp: writes.append(path) or save(path, cp))
        path = str(tmp_path / "missing" / "ck.json")
        with pytest.raises(WlabError, match="cannot write checkpoint"):
            run_search(SearchTask("mod_p8", 20000, 40000, checkpoint_path=path))
        assert scanned == []
        assert writes == [path]

    def test_written_during_run(self, tmp_path):
        path = str(tmp_path / "ck.json")
        run_search(SearchTask("wolstenholme", 5, 2000, chunk=50, checkpoint_path=path))
        cp = load_checkpoint(path)
        assert cp["last_completed_prime"] == 2000
        assert cp["hits"] == []

    def test_resume_completed_returns_stored_hits(self, tmp_path):
        path = str(tmp_path / "ck.json")
        task = SearchTask("wolstenholme", 16000, 17000, chunk=10, checkpoint_path=path)
        full = run_search(task)
        again = run_search(task, resume_from=load_checkpoint(path))
        assert again == full and [h["p"] for h in full] == [16843]

    def test_resume_mismatched_bounds(self, tmp_path):
        path = str(tmp_path / "ck.json")
        run_search(SearchTask("wolstenholme", 5, 500, chunk=50, checkpoint_path=path))
        cp = load_checkpoint(path)
        with pytest.raises(TaskMismatch):
            run_search(SearchTask("wolstenholme", 5, 600, checkpoint_path=path), resume_from=cp)
        with pytest.raises(TaskMismatch):
            run_search(SearchTask("mod_p8", 5, 500, checkpoint_path=path), resume_from=cp)

    def test_missing_file(self):
        with pytest.raises(CheckpointCorrupt, match="does not exist"):
            load_checkpoint("/nonexistent/checkpoint.json")

    def test_task_without_checkpoint_path_refused(self):
        cp = {"schema_version": 1, "kind": "wolstenholme", "lo": 5, "hi": 500, "last_completed_prime": 4,
              "hits": [], "updated_at": "x"}
        with pytest.raises(InvalidInput, match="checkpoint path"):
            run_search(SearchTask("wolstenholme", 5, 500), resume_from=cp)

    def test_returned_seen_and_stored_hits_are_equal(self, tmp_path):
        path = str(tmp_path / "ck.json")
        seen = []
        hits = run_search(SearchTask("wolstenholme", 16000, 17000, chunk=50, checkpoint_path=path),
                          on_chunk=hits_seen(seen))
        assert hits == seen == load_checkpoint(path)["hits"] == [{"p": 16843, "witness": WITNESS_16843}]

    def test_corrupt_json(self, tmp_path):
        path = tmp_path / "ck.json"
        for content in (b"{ not json", b"\xff\xfe{"):  # the second is not UTF-8
            path.write_bytes(content)
            with pytest.raises(CheckpointCorrupt):
                load_checkpoint(str(path))

    def test_missing_field(self, tmp_path):
        path = tmp_path / "ck.json"
        path.write_text(json.dumps({"schema_version": 1, "kind": "wolstenholme"}))
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(str(path))

    def test_wrong_schema_version(self, tmp_path):
        path = tmp_path / "ck.json"
        good = {
            "schema_version": 2, "kind": "wolstenholme", "lo": 5, "hi": 100,
            "last_completed_prime": 50, "hits": [], "updated_at": "x",
        }
        path.write_text(json.dumps(good))
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(str(path))


WITNESS_16843 = {"r1_valuation": 3, "binom_residual_valuation": 4}


def hits_seen(seen: list):
    """An ``on_chunk`` that collects each hit it is handed into ``seen``."""
    return lambda found, done, total, last_prime: seen.extend(found)


def write_checkpoint(tmp_path, **fields) -> str:
    raw = {"schema_version": 1, "kind": "wolstenholme", "lo": 16000, "hi": 17000,
           "last_completed_prime": 16900, "hits": [], "updated_at": "x"}
    raw.update(fields)
    path = tmp_path / "ck.json"
    path.write_text(json.dumps(raw))
    return str(path)


def task_for(path: str) -> SearchTask:
    """A task with the kind and bounds of the checkpoint file at ``path``."""
    with open(path) as fh:
        raw = json.load(fh)
    return SearchTask(raw["kind"], raw["lo"], raw["hi"], checkpoint_path=path)


# a string the file's text replaces by an integer past int()'s digit limit, which
# json.load refuses to read
PAST_LIMIT = "<an int of more than 4300 digits>"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False) | st.text()
    | st.just(PAST_LIMIT),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=12,
)
# at or above the primality bound, yet within int()'s digit limit
HUGE_INTS = st.integers(PRIME_BOUND - 10, 10**4000) | st.integers(-(10**4000), -(10**30))
# near-valid checkpoints, so that the semantic checks behind the schema are reached
NEAR_CHECKPOINTS = st.fixed_dictionaries({
    "schema_version": st.just(1) | JSON_VALUES | HUGE_INTS,
    "kind": st.sampled_from(["wolstenholme", "mod_p8"]) | JSON_VALUES,
    "lo": st.integers(-10, 20000) | JSON_VALUES | HUGE_INTS,
    "hi": st.integers(-10, 20000) | JSON_VALUES | HUGE_INTS,
    "last_completed_prime": st.integers(-10, 20000) | JSON_VALUES | HUGE_INTS,
    "hits": st.lists(st.fixed_dictionaries({"p": st.integers(-10, 20000) | JSON_VALUES | HUGE_INTS,
                                            "witness": JSON_VALUES})) | JSON_VALUES,
    "updated_at": st.text() | JSON_VALUES,
})


class TestCheckpointSemantics:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(JSON_VALUES, NEAR_CHECKPOINTS), st.integers(4301, 6000))
    def test_arbitrary_json_raises_only_checkpoint_corrupt(self, tmp_path_factory, raw, digits):
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        path.write_text(json.dumps(raw).replace(json.dumps(PAST_LIMIT), "9" * digits))
        try:
            cp = load_checkpoint(str(path))
        except CheckpointCorrupt:
            return
        assert cp["lo"] - 1 <= cp["last_completed_prime"] <= cp["hi"]


    @pytest.mark.parametrize("last", [15998, 17001])
    def test_last_completed_prime_outside_range(self, tmp_path, last):
        with pytest.raises(CheckpointCorrupt, match="last_completed_prime"):
            load_checkpoint(write_checkpoint(tmp_path, last_completed_prime=last))

    def test_last_completed_prime_bounds_inclusive(self, tmp_path):
        for last in (15999, 17000):
            assert load_checkpoint(write_checkpoint(tmp_path, last_completed_prime=last))["last_completed_prime"] == last

    def test_invalid_range(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(write_checkpoint(tmp_path, lo=17000, hi=16000, last_completed_prime=16500))

    def test_range_at_or_above_primality_bound(self, tmp_path):
        big = PRIME_BOUND
        for fields in ({"hi": big, "last_completed_prime": 16900},  # no hit: the bound alone
                       {"hi": big + 10, "last_completed_prime": big + 10,
                        "hits": [{"p": big + 2, "witness": WITNESS_16843}]},
                       {"lo": big, "hi": big + 10, "last_completed_prime": big - 1}):
            with pytest.raises(CheckpointCorrupt):
                load_checkpoint(write_checkpoint(tmp_path, **fields))

    def test_composite_hit(self, tmp_path):
        path = write_checkpoint(tmp_path, lo=5, hi=100, last_completed_prime=50,
                                hits=[{"p": 9, "witness": WITNESS_16843}])
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_non_integer_hit(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(write_checkpoint(tmp_path, hits=[{"p": "16843", "witness": WITNESS_16843}]))

    def test_hits_not_ascending(self, tmp_path):
        hits = [{"p": 16843, "witness": WITNESS_16843}, {"p": 16843, "witness": WITNESS_16843}]
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(write_checkpoint(tmp_path, hits=hits))
        hits = [{"p": 16843, "witness": {}}, {"p": 16831, "witness": {}}]
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(write_checkpoint(tmp_path, hits=hits))

    def test_hit_outside_range(self, tmp_path):
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(write_checkpoint(tmp_path, hits=[{"p": 15991, "witness": {}}]))

    def test_hit_beyond_last_completed_prime(self, tmp_path):
        path = write_checkpoint(tmp_path, last_completed_prime=16829,
                                hits=[{"p": 16843, "witness": WITNESS_16843}])
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_hit_below_kind_minimum(self, tmp_path):
        path = write_checkpoint(tmp_path, kind="mod_p8", lo=5, hi=100, last_completed_prime=50,
                                hits=[{"p": 5, "witness": {"residual_valuation": 8}}])
        with pytest.raises(CheckpointCorrupt):
            load_checkpoint(path)

    def test_unverified_hit_rejected_before_on_chunk(self, tmp_path):
        # 16829 is prime and inside the range, but no Wolstenholme prime
        path = write_checkpoint(tmp_path, hits=[{"p": 16829, "witness": WITNESS_16843}])
        assert load_checkpoint(path)["hits"][0]["p"] == 16829
        calls = []
        with pytest.raises(CheckpointCorrupt, match="re-verification"):
            run_search(task_for(path), on_chunk=lambda *call: calls.append(call), resume_from=load_checkpoint(path))
        assert calls == []

    def test_wrong_witness_rejected(self, tmp_path):
        path = write_checkpoint(tmp_path, hits=[{"p": 16843, "witness": {"r1_valuation": 4,
                                                                         "binom_residual_valuation": 4}}])
        with pytest.raises(CheckpointCorrupt, match="re-verification"):
            run_search(task_for(path), resume_from=load_checkpoint(path))

    def test_verified_hit_carried_over(self, tmp_path):
        path = write_checkpoint(tmp_path, hits=[{"p": 16843, "witness": WITNESS_16843}])
        seen = []
        hits = run_search(task_for(path), on_chunk=hits_seen(seen), resume_from=load_checkpoint(path))
        assert hits == seen == [{"p": 16843, "witness": WITNESS_16843}]

    def test_carried_hit_is_the_reverified_dict(self, tmp_path):
        # the stored witness keys in another order: the hit is still the same
        # dict, but it prints and is stored as an uninterrupted run has it
        stored = {"witness": dict(reversed(WITNESS_16843.items())), "p": 16843}
        path = write_checkpoint(tmp_path, hits=[stored])
        seen = []
        hits = run_search(task_for(path), on_chunk=hits_seen(seen), resume_from=load_checkpoint(path))
        fresh = run_search(SearchTask("wolstenholme", 16000, 17000))
        assert json.dumps(stored) != json.dumps(fresh[0])
        assert json.dumps(hits) == json.dumps(seen) == json.dumps(load_checkpoint(path)["hits"]) == json.dumps(fresh)

    def test_resume_with_nothing_left_rewrites_checkpoint(self, tmp_path):
        # the whole range is done; the stored witness keys are in another order
        stored = {"witness": dict(reversed(WITNESS_16843.items())), "p": 16843}
        path = write_checkpoint(tmp_path, last_completed_prime=17000, hits=[stored])
        hits = run_search(task_for(path), resume_from=load_checkpoint(path))
        fresh = run_search(SearchTask("wolstenholme", 16000, 17000))
        cp = load_checkpoint(path)
        assert json.dumps(cp["hits"]) == json.dumps(hits) == json.dumps(fresh) != json.dumps([stored])
        assert cp["last_completed_prime"] == 17000 and cp["updated_at"] != "x"


class TestOnChunk:
    """run_search's one callback, on_chunk(found, done, total, last_prime),
    called after each checkpoint write."""

    def test_calls_follow_the_checkpoint_writes(self, tmp_path):
        path = str(tmp_path / "ck.json")
        calls, stored = [], []

        def on_chunk(*call):
            calls.append(call)
            stored.append(load_checkpoint(path)["last_completed_prime"])

        hits = run_search(SearchTask("wolstenholme", 5, 20000, chunk=200, checkpoint_path=path), on_chunk=on_chunk)
        primes = primes_in(5, 20000)
        chunks = [primes[i : i + 200] for i in range(0, len(primes), 200)]
        assert calls[0] == ([], 0, len(chunks), 4)  # lo - 1
        assert [call[1:3] for call in calls] == [(done, len(chunks)) for done in range(len(chunks) + 1)]
        assert [call[3] for call in calls] == stored == [4] + [c[-1] for c in chunks[:-1]] + [20000]
        assert [h for call in calls for h in call[0]] == hits == [{"p": 16843, "witness": WITNESS_16843}]

    def test_first_call_hands_on_the_carried_hits(self, tmp_path):
        path = write_checkpoint(tmp_path, hits=[{"p": 16843, "witness": WITNESS_16843}])
        calls = []
        hits = run_search(task_for(path), on_chunk=lambda *call: calls.append(call), resume_from=load_checkpoint(path))
        assert calls == [(hits, 0, 1, 16900), ([], 1, 1, 17000)]  # the checkpoint's last_completed_prime

    def test_nothing_to_scan(self, tmp_path):
        # a fresh empty range records its top as done; a resume its own prime
        calls = []
        run_search(SearchTask("wolstenholme", 24, 28), on_chunk=lambda *call: calls.append(call))
        path = write_checkpoint(tmp_path, last_completed_prime=17000)
        run_search(task_for(path), on_chunk=lambda *call: calls.append(call), resume_from=load_checkpoint(path))
        assert calls == [([], 0, 0, 28), ([], 0, 0, 17000)]

    def test_found_lists_are_the_hits_in_ascending_order(self, monkeypatch):
        # every chunk's first prime passed on as a hit: one per chunk
        monkeypatch.setattr(search_mod, "_scan_chunk", lambda kind, primes, sums=None: [{"p": primes[0]}])
        found = []
        hits = run_search(SearchTask("mod_p8", 5000, 6000, chunk=16),
                          on_chunk=lambda f, done, total, last: found.append(f))
        chunks = primes_in(5000, 6000)[::16]
        assert found == [[]] + [[{"p": p}] for p in chunks]
        assert [h for f in found for h in f] == hits and [h["p"] for h in hits] == chunks

    def test_no_call_for_a_refused_task(self, tmp_path):
        path = write_checkpoint(tmp_path)
        calls = []
        with pytest.raises(TaskMismatch):
            run_search(SearchTask("mod_p8", 16000, 17000, checkpoint_path=path),
                       on_chunk=lambda *call: calls.append(call), resume_from=load_checkpoint(path))
        with pytest.raises(WlabError, match="cannot write checkpoint"):
            run_search(SearchTask("wolstenholme", 5, 100, checkpoint_path=str(tmp_path / "missing" / "x.json")),
                       on_chunk=lambda *call: calls.append(call))
        assert calls == []


class TestKillAndResume:
    def test_interrupt_then_resume_equals_uninterrupted(self, tmp_path):
        path = str(tmp_path / "ck.json")
        task = SearchTask("wolstenholme", 5, 20000, chunk=200, checkpoint_path=path)

        def bomb(found, done, total, last):
            if done == 4:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_search(task, on_chunk=bomb)
        cp = load_checkpoint(path)
        assert 5 <= cp["last_completed_prime"] < 20000

        resumed = run_search(task, resume_from=load_checkpoint(path))
        uninterrupted = run_search(SearchTask("wolstenholme", 5, 20000, chunk=200))
        assert resumed == uninterrupted and [h["p"] for h in resumed] == [16843]

    def test_zero_progress_interrupt_never_regresses_checkpoint(self, tmp_path, monkeypatch):
        import wlab.search as search_mod

        path = str(tmp_path / "ck.json")
        task = SearchTask("wolstenholme", 5, 40000, chunk=100, checkpoint_path=path)

        def bomb(found, done, total, last):
            if done == 20:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_search(task, on_chunk=bomb)
        first = load_checkpoint(path)["last_completed_prime"]

        def explode(kind, primes, sums=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(search_mod, "_scan_chunk", explode)
        with pytest.raises(KeyboardInterrupt):
            run_search(task, resume_from=load_checkpoint(path))
        after = load_checkpoint(path)
        assert after["last_completed_prime"] == first
        assert [h["p"] for h in after["hits"]] == [16843]

    def test_interrupt_with_two_workers(self, tmp_path):
        path = str(tmp_path / "ck.json")
        task = SearchTask("wolstenholme", 16000, 17500, chunk=40, checkpoint_path=path)

        def bomb(found, done, total, last):
            if done == 1:  # the first merged chunk
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_search(task, workers=2, on_chunk=bomb)
        first_chunk = primes_in(16000, 17500)[:40]
        assert load_checkpoint(path)["last_completed_prime"] == first_chunk[-1]

        resumed = run_search(task, workers=2, resume_from=load_checkpoint(path))
        uninterrupted = run_search(SearchTask("wolstenholme", 16000, 17500, chunk=40))
        assert resumed == uninterrupted and [h["p"] for h in resumed] == [16843]

    def test_workers_below_one_rejected_before_any_work(self, tmp_path):
        path = tmp_path / "ck.json"
        with pytest.raises(InvalidInput, match="workers"):
            run_search(SearchTask("wolstenholme", 24, 28, checkpoint_path=str(path)), workers=0)
        assert not path.exists()  # an empty range is not even flushed
        task = SearchTask("wolstenholme", 16800, 16900, checkpoint_path=str(path))
        run_search(task)
        calls = []
        with pytest.raises(InvalidInput, match="workers"):
            # nothing left to scan
            run_search(task, workers=-3, on_chunk=lambda *call: calls.append(call),
                       resume_from=load_checkpoint(str(path)))
        assert calls == []

    def test_resume_does_not_rescan_completed_prefix(self, tmp_path):
        path = str(tmp_path / "ck.json")
        cp = {"schema_version": 1, "kind": "wolstenholme", "lo": 16000, "hi": 17000, "last_completed_prime": 16900,
              "hits": [{"p": 16843, "witness": {"r1_valuation": 3, "binom_residual_valuation": 4}}],
              "updated_at": "x"}
        save_checkpoint(path, cp)
        hits = run_search(SearchTask("wolstenholme", 16000, 17000, checkpoint_path=path),
                          resume_from=load_checkpoint(path))
        assert [h["p"] for h in hits] == [16843]
