"""Exact work counts of fixed in-process workloads, as one table.

Timings on a shared machine cannot resolve a change under about a quarter,
but extra work is exact as a count: a second half-range pass per prime, a
primality test per Bernoulli read, a checkpoint loaded twice, one walk per
chunk.  Each kernel below is wrapped by name in every module that imports it,
as the benchmark's traced spans patch them, and each workload's counts must
equal its row.  A change that moves a count updates the row and says why.

A count is every call, a recursive one included (``primes_in`` sieves its
base primes with a call of its own).  ``half_range_moments`` is recorded as
its (p, j_max) pairs and ``PowerSums`` as its (p, precision map) pairs, in
call order, and every ``CheckContext`` built as its (w_max, bernoulli_reads
sorted, harmonic_order), in build order.
"""

import json
from fractions import Fraction

import pytest

from wlab import bernoulli, cli, congruence, modring, search, sums
from wlab.congruence import run_suite
from wlab.search import SearchTask, primes_in, run_search

MODULES = (modring, sums, bernoulli, congruence, search, cli)
KERNELS = ("half_range_moments", "PowerSums", "bernoulli_mod", "exact_bernoulli", "is_prime", "primes_in",
           "_confirm", "save_checkpoint", "load_checkpoint", "lehmer_walk", "binom_central_int")
P_11_200 = primes_in(11, 200)


def _verify_all(tmp_path):
    for p in P_11_200:
        run_suite(p)


def _search(kind, lo, hi):
    def run(tmp_path):
        run_search(SearchTask(kind, lo, hi, 32, str(tmp_path / "ck.json")))
    return run


def _resume(tmp_path):
    # mid-scan, with the hit at 16843 already found: re-verified, then the rest scanned
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps({
        "schema_version": 1, "kind": "wolstenholme", "lo": 14000, "hi": 18400, "last_completed_prime": 17000,
        "hits": [{"p": 16843, "witness": {"r1_valuation": 3, "binom_residual_valuation": 4}}], "updated_at": "x",
    }))
    assert cli.main(["search", "wolstenholme", "--resume", str(ck), "--chunk", "32"]) == 0


WORKLOADS = {
    "verify-all-11..200": _verify_all,
    "thm1.1-10007": lambda tmp_path: run_suite(10007, ["thm1.1"]),
    "eq1.1-eq1.2-10007": lambda tmp_path: run_suite(10007, ["eq1.1", "eq1.2"]),
    "wolstenholme-14000..18400": _search("wolstenholme", 14000, 18400),
    "mod_p8-5000..5800": _search("mod_p8", 5000, 5800),
    "resume-wolstenholme-at-17000": _resume,
}

COLUMNS = KERNELS[2:]
# per workload: its half_range_moments pairs, its CheckContext sizes, its
# PowerSums tables, then the calls of each kernel of COLUMNS: bernoulli_mod,
# exact_bernoulli, is_prime, primes_in, _confirm, save_checkpoint,
# load_checkpoint, lehmer_walk, binom_central_int
ALL_READS = ((-4, 2), (-4, 3), (-2, 2), (-2, 4), (-2, 5))  # every Bernoulli read of --check all
TABLE = {
    # exact_bernoulli: 219 reads at the primes and 3 by kummer3.3's row_reads
    # probe (B_4, B_14, B_24 at p = 11), once per process
    "verify-all-11..200": ([(p, 7) for p in P_11_200], [(8, ALL_READS, 7)] * len(P_11_200),
                           [(p, {p - 3: 6, p - 5: 4, p - 7: 2}) for p in P_11_200],
                           252, 225, 42, 129, 0, 0, 0, 0, 0),
    "thm1.1-10007": ([(10007, 2)], [(8, (), 2)], [], 0, 0, 1, 0, 0, 0, 0, 0, 0),
    "eq1.1-eq1.2-10007": ([(10007, 1)], [(5, ((-2, 2),), 1)], [(10007, {10004: 3})], 1, 0, 1, 4, 0, 0, 0, 0, 0),
    "wolstenholme-14000..18400": ([(16843, 1)], [(4, (), 1)], [], 0, 0, 1, 5, 1, 16, 0, 1, 1),
    "mod_p8-5000..5800": ([], [], [], 0, 0, 0, 5, 0, 4, 0, 1, 0),
    "resume-wolstenholme-at-17000": ([(16843, 1)], [(4, (), 1)], [], 0, 0, 2, 5, 1, 6, 1, 1, 1),
}
EXPECTED = {w: {"half_range_moments": pairs, "CheckContext": sizes, "PowerSums": tables, **dict(zip(COLUMNS, counts))}
            for w, (pairs, sizes, tables, *counts) in TABLE.items()}


def count_calls(monkeypatch) -> dict[str, list]:
    """Wrap every kernel of KERNELS wherever a module of MODULES holds it;
    the returned lists fill with each call's positional arguments."""
    calls: dict[str, list] = {name: [] for name in KERNELS}
    for name in KERNELS:
        fn = next(getattr(m, name) for m in MODULES if hasattr(m, name))

        def counted(*args, _fn=fn, _log=calls[name], **kwargs):
            _log.append(args)
            return _fn(*args, **kwargs)

        for m in MODULES:
            if getattr(m, name, None) is fn:
                monkeypatch.setattr(m, name, counted)
    # the caches of a fresh process, as a CLI user has them: a warm one would
    # hide a primality test, or the sieve exact B_n builds on first use
    modring.is_odd_prime.cache_clear()
    monkeypatch.setattr(bernoulli, "_bern_cache", {0: Fraction(1), 1: Fraction(-1, 2)})
    monkeypatch.setattr(bernoulli, "_sieve", bytearray())
    congruence.row_reads.cache_clear()
    sizes = calls["CheckContext"] = []
    init = congruence.CheckContext.__init__

    def sized(self, *args, **kwargs):
        init(self, *args, **kwargs)
        sizes.append((self.w_max, tuple(sorted(self.bernoulli_reads)), self.harmonic_order))

    monkeypatch.setattr(congruence.CheckContext, "__init__", sized)
    return calls


def measure(workload: str, tmp_path, monkeypatch) -> dict:
    calls = count_calls(monkeypatch)
    WORKLOADS[workload](tmp_path)
    counts = {name: len(args) for name, args in calls.items()}
    counts["half_range_moments"] = [(a[0], a[2]) for a in calls["half_range_moments"]]
    counts["PowerSums"] = calls["PowerSums"]
    counts["CheckContext"] = calls["CheckContext"]
    return counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_work_counts(workload, tmp_path, monkeypatch, capsys):
    assert measure(workload, tmp_path, monkeypatch) == EXPECTED[workload]
