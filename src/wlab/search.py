"""Checkpointed, parallel range searches.

Both search kinds filter each prime with the Lehmer interval sum
sum_{p/4 < k <= p/3} 1/k^n mod p, about p/12 terms (D. H. Lehmer, Ann. of
Math. 1938).  ``lehmer_walk`` shares it across neighbouring primes, as Costa,
Gerbicz and Harvey (Math. Comp. 83, 2014) share work: a batch is a run of
primes below 3*p_1 inside one chunk (a cut made for speed, see ``_batches``),
with its own running fraction modulo their product, and one walk over k
serves every batch of every chunk a process scans, each exact block of k^n
taken once and folded into every batch that is active there.  Only a zero
of the filter, or a prime where the filter degenerates, goes on to the full
check; a filter zero that fails it raises ``InternalInconsistency``.  The
tests keep the one-prime sum (``lehmer_sum``, ``tests/oracles.py``) as the
walk's slow oracle.

* ``wolstenholme``: primes with C(2p-1, p-1) = 1 mod p^4, equivalently
  p | B_{p-3}.  With n = 3 the sum is 5 * B_{p-3} (mod p), so for p >= 7 a
  hit is exactly a filter zero; 5 (where 5 = 0 mod p) skips the filter.
  The full check is v_p(R_1) >= 3 (R_1 = p*S_1, S_1 the half-range moment
  sum_{k <= (p-1)/2} 1/(k(p-k))) in Z/p^4, read from a ``CheckContext`` of
  harmonic order 1, against the full-range binomial product.
* ``mod_p8``: primes whose central-binomial congruence residual reaches
  exponent 8 (one above the proven level).  That residual is
  -(8/7) * p^7 * B_{p-7} mod p^8, and with n = 7 the sum is
  1005 * B_{p-7} (mod p); 7 (the 8/7) and 67 (67 | 1005) skip the filter.
  The full check is ``check_theorem_main(p, 8)``, judged from a context at
  p^9 whose one pass over (p-1)/2 terms gives C(2p-1, p-1) and the moments
  S_1, S_2 that R_1 and H_2 are built from.

Each kind is one row of ``KINDS``.  ``run_search`` is the one entry point: it
scans a ``SearchTask``, or continues one from the checkpoint its caller
loaded.  A checkpoint is the file's dict, its keys those of
``_CHECKPOINT_FIELDS`` in that order: ``load_checkpoint`` returns it and
``save_checkpoint`` writes it.  A hit is the dict {"p", "witness"} that
``_confirm`` returns; the checkpoint stores it, and ``run_search`` returns
the list of them.  Scans are embarrassingly parallel over primes: in one
process one walk serves every chunk, and ``workers > 1`` imports the process
pool on first use, each task walking its own chunk.  Either way every chunk
passes through ``_scan_chunk``.  A coordinator merges chunk results in
ascending order and checkpoints before the first chunk and after each
completed one, so hit lists are a pure function of (kind, lo, hi).  After
each of those writes it makes its one callback, ``on_chunk``, with the hits
the write added: the CLI writes them and prints its progress line there.
"""

from __future__ import annotations

import bisect
import collections
import functools
import heapq
import json
import math
import os
import time
from typing import Callable, Iterator, NamedTuple, Sequence

from .congruence import CheckContext, binom_central_int, check_theorem_main
from .errors import CheckpointCorrupt, InternalInconsistency, InvalidInput, TaskMismatch, WlabError
from .modring import PRIME_BOUND, is_prime, primes_in, residual_valuation
from .report import parse_int

SCHEMA_VERSION = 1
# per kind: the least p it scans, the filter's exponent n, and the primes where
# the filter's multiple of B_{p-n} degenerates mod p, which skip the filter
KINDS = {"wolstenholme": (5, 3, (5,)), "mod_p8": (7, 7, (7, 67))}
DEFAULT_CHUNK = 256
BATCH_BLOCK = 16  # exact k^n folded into one step of every active batch's running fraction


def _batches(primes: list[int]) -> Iterator[list[int]]:
    """Runs of the ascending ``primes`` below three times their first, p_B < 3*p_1:
    a cut for speed, since a batch carries the product of its primes from its
    p_1//4 to its p_B//3.  Any grouping gives the same sums (see lehmer_walk)."""
    i = 0
    while i < len(primes):
        j = bisect.bisect_left(primes, 3 * primes[i], i)
        yield primes[i:j]
        i = j


def lehmer_walk(chunks: Sequence[list[int]], n: int) -> Iterator[list[int]]:
    """The Lehmer sum over p//4 < k <= p//3 of 1/k^n mod p at every prime of
    each chunk of ascending primes: one list a chunk, yielded as soon as the
    walk passes the chunk's last stop.

    Each batch of a chunk (``_batches``) keeps a running fraction num/den mod
    m = p_1 * ... * p_B; it joins from (0, 1) at the block holding its p_1//4
    and leaves after its p_B//3.  The terms it gains below a prime's p//4
    cancel, and every k folded in before a prime's p//3 stop is below p, a
    unit mod p, whatever the batch's span.
    Each block of BATCH_BLOCK exact k^n is taken once, as A/C = sum 1/k^n,
    and folded into every active batch: (num, den) -> (num*C + den*A, den*C).
    A stop k = p//4 or p//3 reads the batch's state before its block with the
    block's partial fraction through k, mod p: (N_4, D_4) and (N_3, D_3), and
    the sum is (N_3*D_4 - N_4*D_3) / (D_3*D_4) mod p.  The stops stream as a
    merge of the ascending p//4 and p//3, so besides the list of batches,
    slices of the chunks, the walk holds one m and two fractions per active
    batch and two ints below p per prime between its stops, never a list of
    all stops.
    """
    batches = [b for c in chunks for b in _batches(c)]
    # both stop sequences ascend with p; at a shared k a p//4 stop comes first
    stops = heapq.merge(((p // 4, 0, p, i) for i, b in enumerate(batches) for p in b),
                        ((p // 3, 1, p, i) for i, b in enumerate(batches) for p in b))
    joins = enumerate(batches)
    join = next(joins, None)
    state: dict[int, list[int]] = {}  # per active batch: num, den, m, its last prime
    # (N_4, D_4) of each prime between its two stops, first in first out; two
    # queues of ints, not one of pairs, spare a tuple per open prime
    fours_n: collections.deque[int] = collections.deque()
    fours_d: collections.deque[int] = collections.deque()
    sizes = map(len, chunks)
    size, out = next(sizes, 0), []
    stop = next(stops, None)
    k = 0
    while stop is not None:
        if not state:  # nothing to fold: start at the next batch's first stop
            k = max(k, join[1][0] // 4)
        end = k + BATCH_BLOCK
        while join is not None and join[1][0] // 4 < end:
            i, b = join
            state[i] = [0, 1, math.prod(b), b[-1]]
            join = next(joins, None)
        a, c = 0, 1
        for j in range(k, end):
            jn = j**n
            a, c = a * jn + c, c * jn
            while stop is not None and stop[0] == j:
                _, third, p, i = stop
                stop = next(stops, None)
                num, den, _, last = state[i]
                cp, dp = c % p, den % p
                rn, rd = (num % p * cp + dp * (a % p)) % p, dp * cp % p
                if not third:
                    fours_n.append(rn)
                    fours_d.append(rd)
                    continue
                n4, d4 = fours_n.popleft(), fours_d.popleft()
                out.append((rn * d4 - n4 * rd) * pow(rd * d4, -1, p) % p)
                if p == last:
                    del state[i]
                if len(out) == size:
                    yield out
                    size, out = next(sizes, 0), []
        for st in state.values():
            num, den, m, _ = st
            st[0], st[1] = (num * c + den * a) % m, den * c % m
        k = end


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def wolstenholme_indicator(p: int) -> int:
    """v_p(R_1(p)) seen in Z/p^4, saturated at 4; a hit means >= 3."""
    if p < 5:
        raise InvalidInput("requires p >= 5")
    return residual_valuation(CheckContext(p, 4, harmonic_order=1).R(1), p, 4)


def mod_p8_indicator(p: int) -> int:
    """Residual valuation of the central congruence at exponent 8, in Z/p^9."""
    if p < 7:
        raise InvalidInput("requires p >= 7")
    return check_theorem_main(p, 8)["residual_valuation"]


# ---------------------------------------------------------------------------
# tasks, hits, checkpoints
# ---------------------------------------------------------------------------

class _TaskFields(NamedTuple):
    kind: str
    lo: int
    hi: int
    chunk: int = DEFAULT_CHUNK
    checkpoint_path: str | None = None


class SearchTask(_TaskFields):
    """A scan of the primes in [lo, hi], checked when it is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.kind not in KINDS:
            raise InvalidInput(f"unknown search kind {self.kind!r}")
        if not 5 <= self.lo <= self.hi < PRIME_BOUND:
            raise InvalidInput(f"need 5 <= lo <= hi < {PRIME_BOUND}, got [{self.lo}, {self.hi}]")
        if self.chunk < 1:
            raise InvalidInput("chunk must be >= 1")
        return self


# a checkpoint is the file's dict: these fields, in the order they are written,
# with their types
_CHECKPOINT_FIELDS = {
    "schema_version": int,
    "kind": str,
    "lo": int,
    "hi": int,
    "last_completed_prime": int,
    "hits": list,
    "updated_at": str,
}


def save_checkpoint(path: str, cp: dict) -> None:
    """Write the checkpoint dict ``cp`` as it is given, as one string in one
    write.  Atomic: a temp file beside ``path``, named by this process's id,
    then a rename.

    A path that cannot be written (a missing directory, say) raises
    ``WlabError`` naming it.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".ckpt-{name}.{os.getpid()}")
    text = json.dumps(cp, indent=1)
    try:
        try:
            with open(tmp, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise WlabError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from exc


def load_checkpoint(path: str) -> dict:
    """The checkpoint file's dict, checked for its schema and for what it
    means; a key outside ``_CHECKPOINT_FIELDS`` is dropped."""
    if not os.path.exists(path):
        raise CheckpointCorrupt(f"checkpoint {path} does not exist")
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_int=parse_int)
    except (OSError, ValueError) as exc:  # bad JSON, bad UTF-8, an int past int()'s digit limit
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise CheckpointCorrupt("checkpoint root must be an object")
    for key, typ in _CHECKPOINT_FIELDS.items():
        if key not in raw:
            raise CheckpointCorrupt(f"checkpoint missing field {key!r}")
        if not isinstance(raw[key], typ):
            raise CheckpointCorrupt(f"checkpoint field {key!r} has wrong type")
    if raw["schema_version"] != SCHEMA_VERSION:
        raise CheckpointCorrupt(f"unsupported schema_version {raw['schema_version']}")
    try:
        SearchTask(raw["kind"], raw["lo"], raw["hi"])
    except InvalidInput as exc:
        raise CheckpointCorrupt(f"checkpoint names no valid scan: {exc}") from exc
    lo, hi, last = raw["lo"], raw["hi"], raw["last_completed_prime"]
    if not lo - 1 <= last <= hi:
        raise CheckpointCorrupt(f"last_completed_prime {last} outside [{lo - 1}, {hi}]")
    prev = max(lo, KINDS[raw["kind"]][0]) - 1
    for h in raw["hits"]:
        if not isinstance(h, dict) or not isinstance(h.get("p"), int) or "witness" not in h:
            raise CheckpointCorrupt("malformed hit entry")
        p = h["p"]
        if not prev < p <= last or not is_prime(p):
            raise CheckpointCorrupt(
                f"hit p={p} is not a prime in ascending order inside [{lo}, {last}]"
            )
        prev = p
    return {key: raw[key] for key in _CHECKPOINT_FIELDS}


# ---------------------------------------------------------------------------
# scanning
# ---------------------------------------------------------------------------

def _confirm(kind: str, p: int) -> dict | None:
    """Full-precision indicator at one prime: its hit dict, or None."""
    if kind == "wolstenholme":
        v = wolstenholme_indicator(p)
        u = residual_valuation(binom_central_int(p, p**5) - 1, p, 5)
        if (v >= 3) != (u >= 4):
            raise InternalInconsistency(f"at p={p} indicator v={v} but binomial u={u}")
        return {"p": p, "witness": {"r1_valuation": v, "binom_residual_valuation": u}} if v >= 3 else None
    v = mod_p8_indicator(p)
    if p >= 11 and v < 7:
        raise InternalInconsistency(f"residual below proven floor at p={p}: {v}")
    return {"p": p, "witness": {"residual_valuation": v}} if v >= 8 else None


def _scan_chunk(kind: str, primes: list[int], sums: list[int] | None = None) -> list[dict]:
    """Confirm what passes a chunk's filter; returns hit dicts only.  ``sums``
    are the chunk's filter values from a walk shared with other chunks; a
    chunk given none walks on its own."""
    _, n, unfiltered = KINDS[kind]
    if sums is None:
        sums = next(lehmer_walk([primes], n))
    out: list[dict] = []
    for p, s in zip(primes, sums):
        filtered = p not in unfiltered
        if filtered and s != 0:
            continue
        hit = _confirm(kind, p)
        if hit is not None:
            out.append(hit)
        elif filtered:
            raise InternalInconsistency(f"filter zero at p={p} fails full re-verification")
    return out


def _flush(task: SearchTask, last_prime: int, hits: list[dict]) -> None:
    if task.checkpoint_path is None:
        return
    save_checkpoint(task.checkpoint_path, {
        "schema_version": SCHEMA_VERSION,
        "kind": task.kind,
        "lo": task.lo,
        "hi": task.hi,
        "last_completed_prime": last_prime,
        "hits": hits,
        "updated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    })


def ordered_map(fn: Callable, items: Sequence, workers: int, chunksize: int = 1) -> Iterator:
    """Lazily apply ``fn`` to each item; results come in submission order.

    With ``workers == 1`` (or fewer than two items) the calls run in this
    process, otherwise in a pool of min(workers, CPU count) spawned
    processes.  A worker count below 1 is rejected here, before any call
    runs.  An exception inside the pool, or closing the iterator early,
    cancels the calls still queued.
    """
    if _in_process(workers, len(items)):
        return (fn(item) for item in items)
    return _pool_map(fn, items, workers, chunksize)


def _in_process(workers: int, items: int) -> bool:
    """Whether ``ordered_map`` makes its ``items`` calls in this process."""
    if workers < 1:
        raise InvalidInput("workers must be >= 1")
    return workers == 1 or items < 2


def _pool_map(fn: Callable, items: Sequence, workers: int, chunksize: int) -> Iterator:
    import multiprocessing  # imported on first use: a one-process run never loads the pool
    from concurrent.futures import ProcessPoolExecutor

    # Executor.map submits every item at once, and a spawn pool starts a process
    # per submit while none is idle, so the cap is what bounds the processes
    pool = ProcessPoolExecutor(max_workers=min(workers, os.cpu_count() or 1),
                               mp_context=multiprocessing.get_context("spawn"))
    try:
        yield from pool.map(fn, items, chunksize=chunksize)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def run_search(task: SearchTask, workers: int = 1, on_chunk=None, resume_from: dict | None = None) -> list[dict]:
    """Scan the task range; the deterministic ascending list of its hit dicts.

    Work is partitioned into chunks of ``task.chunk`` primes; with
    ``workers > 1`` chunks run in separate processes, but results are merged
    in range order so output never depends on scheduling.  A checkpoint (if
    configured) is written before the first chunk and rewritten after each
    merged chunk, so an exception (KeyboardInterrupt included) that stops the
    scan leaves it at the last merged chunk.

    ``on_chunk(found, done, total, last_prime)`` is called after each of
    those writes, with the hits the write added, in ascending order: first
    with the carried hits (below), ``done = 0`` and the last prime the
    checkpoint records, then once per merged chunk, ``done`` of ``total``,
    with the last prime that chunk covers.  A task refused here, or whose
    checkpoint cannot be written, gets no call.  So the ``found`` lists,
    concatenated, are the returned list.

    ``resume_from`` is the checkpoint the caller loaded from
    ``task.checkpoint_path`` (a task without one raises ``InvalidInput``); its
    (kind, lo, hi) must be the task's, or ``TaskMismatch``.  The scan then
    starts after its ``last_completed_prime``.  Its hits are re-verified
    first, and one that fails, witness included, raises ``CheckpointCorrupt``.
    The carried hits are the re-verified dicts, so they print and are stored
    as an uninterrupted run would have them, even when nothing is left to
    scan.
    """
    lo = max(task.lo, KINDS[task.kind][0])
    # the last prime already covered; a resume never regresses its checkpoint
    base_last = lo - 1
    if resume_from is not None:
        cp = resume_from
        if task.checkpoint_path is None:
            raise InvalidInput("resume needs a task with a checkpoint path")
        if (task.kind, task.lo, task.hi) != (cp["kind"], cp["lo"], cp["hi"]):
            # the kinds as the CLI spells them (mod-p8, not mod_p8)
            raise TaskMismatch(
                f"checkpoint is for {cp['kind'].replace('_', '-')} [{cp['lo']}, {cp['hi']}], "
                f"requested {task.kind.replace('_', '-')} [{task.lo}, {task.hi}]"
            )
        base_last = cp["last_completed_prime"]
    primes = primes_in(max(lo, base_last + 1), task.hi)
    chunks = [primes[i : i + task.chunk] for i in range(0, len(primes), task.chunk)]
    if _in_process(workers, len(chunks)):
        # one walk serves every chunk, each chunk's values as soon as it passes them
        walk = lehmer_walk(chunks, KINDS[task.kind][1])
        results = (_scan_chunk(task.kind, c, s) for c, s in zip(chunks, walk))
    else:  # each pool task walks its own chunk
        results = ordered_map(functools.partial(_scan_chunk, task.kind), chunks, workers)
    on_chunk = on_chunk or (lambda found, done, total, last_prime: None)

    hits = []
    for h in resume_from["hits"] if resume_from is not None else ():
        hit = _confirm(task.kind, h["p"])
        if hit != h:
            raise CheckpointCorrupt(f"checkpoint hit p={h['p']} fails re-verification")
        hits.append(hit)
    # written before the first chunk and before any hit is passed on, so an
    # unwritable path costs no scan and gets no call; a resume with nothing
    # left to scan still stores its re-verified hits
    last = base_last if chunks or resume_from is not None else task.hi
    _flush(task, last, hits)
    on_chunk(list(hits), 0, len(chunks), last)

    try:
        # each write covers every merged chunk, so an exception needs no final write
        for done, found in enumerate(results, 1):
            last = chunks[done - 1][-1] if done < len(chunks) else task.hi
            hits += found
            _flush(task, last, hits)
            on_chunk(found, done, len(chunks), last)
    finally:
        results.close()
    return hits
