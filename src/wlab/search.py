"""Segmented prime generation and checkpointed, parallel range searches.

Two search kinds:

* ``wolstenholme``: primes with C(2p-1, p-1) = 1 mod p^4, equivalently
  p | B_{p-3}.  The scan filters each prime with Lehmer's cube sum
  S(p) = sum_{k <= p/6} 1/k^3 mod p: S(p) = 15 * sum_{k <= (p-1)/2} 1/k^3
  = -30 * B_{p-3} (mod p) (D. H. Lehmer, Ann. of Math. 1938), so for p >= 7
  a hit is exactly S(p) = 0.  That is p/6 steps mod p per prime.  At p = 5
  the range is empty and 15 = 0 mod 5, so 5 is excluded explicitly (it is
  not a Wolstenholme prime).  Every filter hit is re-verified at full
  precision, through v_p(R_1) from the half-range moment
  S_1 = sum_{k <= (p-1)/2} 1/(k(p-k)) mod p^3 (R_1 = p*S_1 exactly) and
  against the binomial product.
* ``mod_p8``: primes whose central-binomial congruence residual reaches
  exponent 8 (one above the proven level).  Each prime costs one pass of
  ``sums.half_range_moments`` over (p-1)/2 terms mod p^9, which gives
  C(2p-1, p-1) and the moments S_1, S_2 that R_1 and H_2 are built from.

Scans are embarrassingly parallel over primes; a coordinator merges chunk
results in ascending order and checkpoints after each completed chunk, so
hit lists are a pure function of (kind, lo, hi).
"""

from __future__ import annotations

import functools
import json
import math
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .congruence import CheckContext, binom_central_int, check_theorem_main
from .errors import CheckpointCorrupt, InternalInconsistency, InvalidInput, TaskMismatch, WlabError
from .modring import is_prime, residual_valuation
from .sums import half_range_moments

SCHEMA_VERSION = 1
KIND_MIN = {"wolstenholme": 5, "mod_p8": 7}
DEFAULT_CHUNK = 256


# ---------------------------------------------------------------------------
# prime generation
# ---------------------------------------------------------------------------

def _simple_sieve(n: int) -> list[int]:
    if n < 2:
        return []
    flags = bytearray(b"\x01") * (n + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, math.isqrt(n) + 1):
        if flags[q]:
            start = q * q
            flags[start :: q] = b"\x00" * ((n - start) // q + 1)
    return [i for i, f in enumerate(flags) if f]


def primes_in(lo: int, hi: int, segment: int = 1 << 17) -> list[int]:
    """All primes in [lo, hi], inclusive, by segmented sieve."""
    if lo < 2:
        lo = 2
    if hi < lo:
        return []
    base = _simple_sieve(math.isqrt(hi))
    out: list[int] = []
    start = lo
    while start <= hi:
        end = min(start + segment - 1, hi)
        size = end - start + 1
        flags = bytearray(b"\x01") * size
        for q in base:
            first = max(q * q, (start + q - 1) // q * q)
            if first > end:
                continue
            flags[first - start :: q] = b"\x00" * ((end - first) // q + 1)
        for i, f in enumerate(flags):
            if f:
                out.append(start + i)
        start = end + 1
    return out


def lehmer_cube_sum(p: int) -> int:
    """S(p) = sum_{k <= p/6} 1/k^3 mod p, as a running fraction.

    For p >= 7, S(p) = 15 * sum_{k <= (p-1)/2} 1/k^3 = -30 * B_{p-3} (mod p),
    so S(p) = 0 exactly when p is a Wolstenholme prime.  At p = 5 the sum
    is empty and the congruence degenerates (15 = 0 mod 5).
    """
    num, den = 0, 1
    for k in range(1, p // 6 + 1):
        c = k * k * k % p
        num = (num * c + den) % p
        den = den * c % p
    return num * pow(den, -1, p) % p


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
    report = check_theorem_main(p, 8, CheckContext(p, 9))
    return report.residual_valuation


# ---------------------------------------------------------------------------
# tasks, hits, checkpoints
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchTask:
    kind: str
    lo: int
    hi: int
    chunk: int = DEFAULT_CHUNK
    checkpoint_path: str | None = None

    def __post_init__(self):
        if self.kind not in KIND_MIN:
            raise InvalidInput(f"unknown search kind {self.kind!r}")
        if not 5 <= self.lo <= self.hi:
            raise InvalidInput(f"need 5 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if self.chunk < 1:
            raise InvalidInput("chunk must be >= 1")


@dataclass(frozen=True)
class SearchHit:
    p: int
    kind: str
    witness: dict

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p, "witness": self.witness}


@dataclass
class Checkpoint:
    kind: str
    lo: int
    hi: int
    last_completed_prime: int
    hits: list[dict]
    updated_at: str
    schema_version: int = SCHEMA_VERSION


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
    """Atomic write: temp file in the same directory, then rename.

    A path that cannot be written (a missing directory, say) raises
    ``WlabError`` naming it.
    """
    payload = {
        "schema_version": cp.schema_version,
        "kind": cp.kind,
        "lo": cp.lo,
        "hi": cp.hi,
        "last_completed_prime": cp.last_completed_prime,
        "hits": cp.hits,
        "updated_at": cp.updated_at,
    }
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(prefix=".ckpt-", dir=directory)
        try:
            with os.fdopen(fd, "w") as fh:
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
    if not 5 <= lo <= hi:
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
    return Checkpoint(
        kind=raw["kind"],
        lo=lo,
        hi=hi,
        last_completed_prime=last,
        hits=raw["hits"],
        updated_at=raw["updated_at"],
    )


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
    """Evaluate the indicator over a chunk; returns hit dicts only."""
    out: list[dict] = []
    for p in primes:
        # the Lehmer filter; p = 5 is no Wolstenholme prime, and its sum is empty
        if kind == "wolstenholme" and (p == 5 or lehmer_cube_sum(p) != 0):
            continue
        hit = _confirm(kind, p)
        if hit is not None:
            out.append(hit)
        elif kind == "wolstenholme":
            raise InternalInconsistency(f"filter hit at p={p} fails full re-verification")
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
    configured) is rewritten after each merged chunk and flushed once more,
    up to the last merged chunk, when an exception (KeyboardInterrupt
    included) stops the scan.  ``on_hit`` is called once per hit, in
    ascending order, as soon as the hit's chunk is merged.
    """
    return _execute(task, workers, progress, on_hit, resume_from=None)


def resume(checkpoint_path: str, task: SearchTask | None = None, workers: int = 1,
           progress=None, on_hit=None) -> list[SearchHit]:
    """Continue a checkpointed search to completion.

    If ``task`` is given its (kind, lo, hi) must match the checkpoint.
    Hits carried over from the checkpoint are re-verified first; one that
    fails, witness included, raises ``CheckpointCorrupt``.  A checkpoint
    that already covers the range returns its stored hits.  ``on_hit`` also
    fires for hits carried over from the checkpoint.
    """
    cp = load_checkpoint(checkpoint_path)
    if task is not None:
        if (task.kind, task.lo, task.hi) != (cp.kind, cp.lo, cp.hi):
            raise TaskMismatch(
                f"checkpoint is for {cp.kind} [{cp.lo}, {cp.hi}], "
                f"requested {task.kind} [{task.lo}, {task.hi}]"
            )
        merged = SearchTask(cp.kind, cp.lo, cp.hi, task.chunk, checkpoint_path)
    else:
        merged = SearchTask(cp.kind, cp.lo, cp.hi, DEFAULT_CHUNK, checkpoint_path)
    return _execute(merged, workers, progress, on_hit, resume_from=cp)


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
    # floor for interrupt flushes; never regress a resume
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

    merged = base_last
    try:
        for done, found in enumerate(results, 1):
            new = [SearchHit(p=h["p"], kind=task.kind, witness=h["witness"]) for h in found]
            last = chunks[done - 1][-1] if done < len(chunks) else task.hi
            _flush(task, last, hits + new)
            merged = last
            absorb(new)
            if progress is not None:
                progress(done, len(chunks), last)
    except BaseException:
        _flush(task, merged, hits)
        raise
    finally:
        results.close()
    return hits
