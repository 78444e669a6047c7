"""Checkpointed, parallel range searches.

Both search kinds filter each prime with the Lehmer interval sum
sum_{p/4 < k <= p/3} 1/k^n mod p, about p/12 terms (D. H. Lehmer, Ann. of
Math. 1938).  ``lehmer_batch`` shares it across neighbouring primes, as Costa,
Gerbicz and Harvey (Math. Comp. 83, 2014) share work: a batch is a run of
primes below 3*p_1, and one running fraction modulo their product walks
p_1//4 < k <= p_B//3 once, each prime reading it at its own p//4 and p//3.
A lone prime runs ``lehmer_sum`` instead.  Only a zero of the filter, or a
prime where the filter degenerates, goes on to the full check; a filter zero
that fails it raises ``InternalInconsistency``.

* ``wolstenholme``: primes with C(2p-1, p-1) = 1 mod p^4, equivalently
  p | B_{p-3}.  With n = 3 the sum is 5 * B_{p-3} (mod p), so for p >= 7 a
  hit is exactly a filter zero; 5 (where 5 = 0 mod p) skips the filter.
  The full check is v_p(R_1) from the half-range moment
  S_1 = sum_{k <= (p-1)/2} 1/(k(p-k)) mod p^3 (R_1 = p*S_1 exactly),
  against the binomial product.
* ``mod_p8``: primes whose central-binomial congruence residual reaches
  exponent 8 (one above the proven level).  That residual is
  -(8/7) * p^7 * B_{p-7} mod p^8, and with n = 7 the sum is
  1005 * B_{p-7} (mod p); 7 (the 8/7) and 67 (67 | 1005) skip the filter.
  The full check is one pass of ``sums.half_range_moments`` over (p-1)/2
  terms mod p^9, which gives C(2p-1, p-1) and the moments S_1, S_2 that
  R_1 and H_2 are built from.

Scans are embarrassingly parallel over primes: ``workers > 1`` imports the
process pool on first use.  A coordinator merges chunk results in ascending
order and checkpoints before the first chunk and after each completed one,
so hit lists are a pure function of (kind, lo, hi).
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

from .congruence import binom_central_int, check_theorem_main
from .errors import CheckpointCorrupt, InternalInconsistency, InvalidInput, TaskMismatch, WlabError
from .modring import PRIME_BOUND, is_prime, primes_in, residual_valuation
from .sums import half_range_moments

SCHEMA_VERSION = 1
KIND_MIN = {"wolstenholme": 5, "mod_p8": 7}
# per kind: the filter's exponent n, and the primes where the filter's multiple
# of B_{p-n} degenerates mod p, which skip the filter
FILTERS = {"wolstenholme": (3, (5,)), "mod_p8": (7, (7, 67))}
DEFAULT_CHUNK = 256
BATCH_BLOCK = 16  # exact k^n folded into one step of a batch's running fraction


def lehmer_sum(p: int, n: int, lo: int, hi: int) -> int:
    """sum_{lo < k <= hi} 1/k^n mod p, as a running fraction in O(1) memory.

    Needs 0 <= lo and hi < p, so that no k is a multiple of p.  The search
    filters take the interval p/4 < k <= p/3, where the sum is
    5 * B_{p-3} (n = 3, p >= 7) and 1005 * B_{p-7} (n = 7, p >= 11) mod p.
    ``lehmer_batch`` uses it for a batch of one prime, and the tests use it
    as the batch's slow oracle.
    """
    num, den = 0, 1
    for k in range(lo + 1, hi + 1):
        c = pow(k, n, p)
        num = (num * c + den) % p
        den = den * c % p
    return num * pow(den, -1, p) % p


def _batches(primes: list[int]) -> Iterator[list[int]]:
    """Runs of the ascending ``primes`` below three times their first, p_B < 3*p_1,
    so that every k <= p_B // 3 < p_1 is a unit mod every prime of the run."""
    i = 0
    while i < len(primes):
        j = bisect.bisect_left(primes, 3 * primes[i], i)
        yield primes[i:j]
        i = j


def lehmer_batch(primes: list[int], n: int) -> list[int]:
    """``lehmer_sum(p, n, p//4, p//3)`` at each of the ascending ``primes``.

    A batch walks one running fraction num/den = sum 1/k^n modulo
    m = p_1 * ... * p_B over p_1//4 < k <= p_B//3, taking each BATCH_BLOCK
    exact k^n as one map (num, den) -> (num*C + den*A, den*C), A/C = sum 1/k^n.
    A block breaks only at the stops k = p//4 and k = p//3.  At p//4 a prime
    keeps (N_4, D_4) = (num, den) mod p, at p//3 it reads (N_3, D_3) and its
    sum is (N_3*D_4 - N_4*D_3) / (D_3*D_4) mod p.  Both readings are reduced
    mod p when taken, so the walk holds O(B) ints below p besides m.
    """
    out: list[int] = []
    for batch in _batches(primes):
        if len(batch) == 1:  # for a lone prime, k^n mod p is cheaper than exact
            p = batch[0]
            out.append(lehmer_sum(p, n, p // 4, p // 3))
            continue
        m = math.prod(batch)
        # both stop sequences ascend with p; at a shared k a p//4 stop comes first
        stops = heapq.merge(((p // 4, 0, p) for p in batch), ((p // 3, 1, p) for p in batch))
        fours: collections.deque[tuple[int, int]] = collections.deque()
        num, den, k = 0, 1, batch[0] // 4
        for stop, third, p in stops:
            for start in range(k + 1, stop + 1, BATCH_BLOCK):
                a, c = 0, 1
                for j in range(start, min(start + BATCH_BLOCK, stop + 1)):
                    jn = j**n
                    a, c = a * jn + c, c * jn
                num, den = (num * c + den * a) % m, den * c % m
            k = stop
            if not third:
                fours.append((num % p, den % p))
                continue
            n4, d4 = fours.popleft()
            n3, d3 = num % p, den % p
            out.append((n3 * d4 - n4 * d3) * pow(d3 * d4, -1, p) % p)
    return out


# ---------------------------------------------------------------------------
# indicators
# ---------------------------------------------------------------------------

def wolstenholme_indicator(p: int) -> int:
    """v_p(R_1(p)) seen in Z/p^4, saturated at 4; a hit means >= 3."""
    if p < 5:
        raise InvalidInput("requires p >= 5")
    _, s = half_range_moments(p, p**3, 1)
    return 1 + residual_valuation(s[1], p, 3)


def mod_p8_indicator(p: int) -> int:
    """Residual valuation of the central congruence at exponent 8, in Z/p^9."""
    if p < 7:
        raise InvalidInput("requires p >= 7")
    return check_theorem_main(p, 8).residual_valuation


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
        if self.kind not in KIND_MIN:
            raise InvalidInput(f"unknown search kind {self.kind!r}")
        if not 5 <= self.lo <= self.hi:
            raise InvalidInput(f"need 5 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.chunk < 1:
            raise InvalidInput("chunk must be >= 1")
        return self


class SearchHit(NamedTuple):
    p: int
    kind: str
    witness: dict

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "witness": self.witness}


class Checkpoint(NamedTuple):
    kind: str
    lo: int
    hi: int
    last_completed_prime: int
    hits: list[dict]
    updated_at: str
    schema_version: int = SCHEMA_VERSION


# the checkpoint file's fields, in the order they are written, with their types
_CHECKPOINT_FIELDS = {
    "schema_version": int,
    "kind": str,
    "lo": int,
    "hi": int,
    "last_completed_prime": int,
    "hits": list,
    "updated_at": str,
}


def save_checkpoint(path: str, cp: Checkpoint) -> None:
    """Atomic write: a temp file beside ``path``, named by this process's id,
    then a rename.

    A path that cannot be written (a missing directory, say) raises
    ``WlabError`` naming it.
    """
    payload = {key: getattr(cp, key) for key in _CHECKPOINT_FIELDS}
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".ckpt-{name}.{os.getpid()}")
    try:
        try:
            with open(tmp, "w") as fh:
                json.dump(payload, fh, indent=1)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise WlabError(f"cannot write checkpoint {path}: {exc.strerror or exc}") from exc


def load_checkpoint(path: str) -> Checkpoint:
    if not os.path.exists(path):
        raise CheckpointCorrupt(f"checkpoint {path} does not exist")
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
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
    if raw["kind"] not in KIND_MIN:
        raise CheckpointCorrupt(f"unknown kind {raw['kind']!r}")
    lo, hi, last = raw["lo"], raw["hi"], raw["last_completed_prime"]
    if not 5 <= lo <= hi < PRIME_BOUND:
        raise CheckpointCorrupt(f"checkpoint range [{lo}, {hi}] is not a valid scan range")
    if not lo - 1 <= last <= hi:
        raise CheckpointCorrupt(f"last_completed_prime {last} outside [{lo - 1}, {hi}]")
    prev = max(lo, KIND_MIN[raw["kind"]]) - 1
    for h in raw["hits"]:
        if not isinstance(h, dict) or not isinstance(h.get("p"), int) or "witness" not in h:
            raise CheckpointCorrupt("malformed hit entry")
        p = h["p"]
        if not prev < p <= last or not is_prime(p):
            raise CheckpointCorrupt(
                f"hit p={p} is not a prime in ascending order inside [{lo}, {last}]"
            )
        prev = p
    return Checkpoint(**{key: raw[key] for key in _CHECKPOINT_FIELDS})


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


def _scan_chunk(kind: str, primes: list[int]) -> list[dict]:
    """Filter a chunk and confirm what passes; returns hit dicts only."""
    n, unfiltered = FILTERS[kind]
    out: list[dict] = []
    for p, s in zip(primes, lehmer_batch(primes, n)):
        filtered = p not in unfiltered
        if filtered and s != 0:
            continue
        hit = _confirm(kind, p)
        if hit is not None:
            out.append(hit)
        elif filtered:
            raise InternalInconsistency(f"filter zero at p={p} fails full re-verification")
    return out


def _flush(task: SearchTask, last_prime: int, hits: list[SearchHit]) -> None:
    if task.checkpoint_path is None:
        return
    cp = Checkpoint(
        kind=task.kind,
        lo=task.lo,
        hi=task.hi,
        last_completed_prime=last_prime,
        hits=[{"p": h.p, "witness": h.witness} for h in hits],
        updated_at=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    )
    save_checkpoint(task.checkpoint_path, cp)


def run_search(task: SearchTask, workers: int = 1, progress=None, on_hit=None) -> list[SearchHit]:
    """Scan the task range; deterministic ascending hit list.

    Work is partitioned into chunks of ``task.chunk`` primes; with
    ``workers > 1`` chunks run in separate processes, but results are merged
    in range order so output never depends on scheduling.  A checkpoint (if
    configured) is written before the first chunk and rewritten after each
    merged chunk, so an exception (KeyboardInterrupt included) that stops the
    scan leaves it at the last merged chunk.  ``on_hit`` is called once per
    hit, in ascending order, as soon as the hit's chunk is merged.
    """
    return _execute(task, workers, progress, on_hit, resume_from=None)


def resume(task: SearchTask, workers: int = 1, progress=None, on_hit=None,
           checkpoint: Checkpoint | None = None) -> list[SearchHit]:
    """Continue the checkpointed search ``task`` to completion.

    The checkpoint is read from ``task.checkpoint_path`` (a task without one
    raises ``InvalidInput``), unless the caller passes the ``checkpoint`` it
    has already loaded from that path, and its (kind, lo, hi) must be the task's.
    Hits carried over from the checkpoint are re-verified first; one that
    fails, witness included, raises ``CheckpointCorrupt``.  A checkpoint
    that already covers the range returns its stored hits.  ``on_hit`` also
    fires for hits carried over from the checkpoint.
    """
    if task.checkpoint_path is None:
        raise InvalidInput("resume needs a task with a checkpoint path")
    cp = load_checkpoint(task.checkpoint_path) if checkpoint is None else checkpoint
    if (task.kind, task.lo, task.hi) != (cp.kind, cp.lo, cp.hi):
        # the kinds as the CLI spells them (mod-p8, not mod_p8)
        raise TaskMismatch(
            f"checkpoint is for {cp.kind.replace('_', '-')} [{cp.lo}, {cp.hi}], "
            f"requested {task.kind.replace('_', '-')} [{task.lo}, {task.hi}]"
        )
    return _execute(task, workers, progress, on_hit, resume_from=cp)


def ordered_map(fn: Callable, items: Sequence, workers: int, chunksize: int = 1) -> Iterator:
    """Lazily apply ``fn`` to each item; results come in submission order.

    With ``workers == 1`` (or fewer than two items) the calls run in this
    process, otherwise in a pool of ``workers`` spawned processes.  A worker
    count below 1 is rejected here, before any call runs.  An exception
    inside the pool, or closing the iterator early, cancels the calls still
    queued.
    """
    if workers < 1:
        raise InvalidInput("workers must be >= 1")
    if workers == 1 or len(items) < 2:
        return (fn(item) for item in items)
    return _pool_map(fn, items, workers, chunksize)


def _pool_map(fn: Callable, items: Sequence, workers: int, chunksize: int) -> Iterator:
    import multiprocessing  # imported on first use: a one-process run never loads the pool
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield from pool.map(fn, items, chunksize=chunksize)
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)


def _execute(task: SearchTask, workers: int, progress, on_hit,
             resume_from: Checkpoint | None) -> list[SearchHit]:
    lo = max(task.lo, KIND_MIN[task.kind])
    # the last prime already covered; a resume never regresses its checkpoint
    base_last = lo - 1 if resume_from is None else resume_from.last_completed_prime
    primes = primes_in(max(lo, base_last + 1), task.hi)
    chunks = [primes[i : i + task.chunk] for i in range(0, len(primes), task.chunk)]
    results = ordered_map(functools.partial(_scan_chunk, task.kind), chunks, workers)
    hits: list[SearchHit] = []

    def absorb(found: list[SearchHit]) -> None:
        hits.extend(found)
        if on_hit is not None:
            for h in found:
                on_hit(h)

    if resume_from is not None:
        carried = []
        for h in resume_from.hits:
            if _confirm(task.kind, h["p"]) != h:
                raise CheckpointCorrupt(f"checkpoint hit p={h['p']} fails re-verification")
            carried.append(SearchHit(p=h["p"], kind=task.kind, witness=h["witness"]))
        absorb(carried)
        if not chunks:
            return hits
    elif not chunks:
        _flush(task, task.hi, hits)
        return hits

    try:
        # written before the first chunk, so an unwritable path costs no scan; each
        # later write covers every merged chunk, so an exception needs no final write
        _flush(task, base_last, hits)
        for done, found in enumerate(results, 1):
            new = [SearchHit(p=h["p"], kind=task.kind, witness=h["witness"]) for h in found]
            last = chunks[done - 1][-1] if done < len(chunks) else task.hi
            _flush(task, last, hits + new)
            absorb(new)
            if progress is not None:
                progress(done, len(chunks), last)
    finally:
        results.close()
    return hits
