"""Benchmark of the `wlab` CLI: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload wolstenholme --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One client runs a closed loop: each invocation is a fresh `wlab` process
(`--workers 1`, jsonl output), started only after the previous one has exited,
until --seconds have passed.  A fresh process keeps the package's in-process
caches cold, as they are for a CLI user.  Every invocation's output passes
through a correctness gate; one that fails it counts in `failed`.

The last stdout line is one JSON object {correct, attempted, failed, metrics}.
With --trace 0 the metrics are the end-to-end ones named in BENCHMARK.json,
medians over the invocations.  With --trace 1 traced invocations alternate
with untraced ones and the metrics are the per-layer ones, medians over the
traced invocations.  The line before it records the window, the Python
version, the core count, the load average and each metric's quartiles.
bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
WORKLOADS = ("wolstenholme", "modp8", "verify-all")
# Search windows: lo = base + (seed-chosen offset below band), hi = lo + width.
# Per-prime cost grows with p, so the band is narrow.  The Wolstenholme window
# has lo <= 14400 and hi >= 18000, so it always contains 16843.
SEARCH_WINDOWS = {"wolstenholme": (14000, 401, 4000), "modp8": (5000, 101, 800)}
# verify-all covers 11..N with N = base + (seed-chosen offset below band).
VERIFY_TOP = (500, 10)
SMOKE_WINDOWS = {"wolstenholme": (16800, 16900), "modp8": (5000, 5060), "verify-all": (11, 40)}
SEARCH_CHUNK = 32  # several chunks per run, so checkpoint writes are exercised
WOLSTENHOLME_PRIMES = (16843, 2124679)
CHECKS_PER_PRIME = 42
INVOCATION_BUDGET_S = 170  # a run ends within 180 s even if the program hangs


@dataclass(frozen=True)
class Workload:
    name: str
    lo: int
    hi: int
    primes: tuple[int, ...]

    @property
    def kind(self) -> str:
        """The search kind, as the CLI's hit rows name it."""
        return "wolstenholme" if self.name == "wolstenholme" else "mod_p8"

    def argv(self, checkpoint: Path) -> list[str]:
        common = ["--workers", "1", "--format", "jsonl"]
        if self.name == "verify-all":
            return common + ["verify", "--p", f"{self.lo}..{self.hi}", "--check", "all"]
        return common + ["search", self.kind.replace("_", "-"), "--min", str(self.lo), "--max", str(self.hi),
                         "--chunk", str(SEARCH_CHUNK), "--checkpoint", str(checkpoint)]


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    if smoke:
        lo, hi = SMOKE_WINDOWS[name]
    elif name == "verify-all":
        lo, hi = 11, VERIFY_TOP[0] + rng.randrange(VERIFY_TOP[1])
    else:
        base, band, width = SEARCH_WINDOWS[name]
        lo = base + rng.randrange(band)
        hi = lo + width
    return Workload(name, lo, hi, tuple(_primes(lo, hi)))


def _primes(lo: int, hi: int) -> list[int]:
    flags = bytearray([1]) * (hi + 1)
    flags[:2] = b"\x00\x00"
    for q in range(2, math.isqrt(hi) + 1):
        if flags[q]:
            flags[q * q :: q] = bytes(len(range(q * q, hi + 1, q)))
    return [n for n in range(lo, hi + 1) if flags[n]]


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _central_binomial(p: int) -> int:
    return math.comb(2 * p - 1, p - 1)


def gate(wl: Workload, stdout: str, checkpoint: str | None) -> str | None:
    """None if the invocation's output is correct, else the reason it is not."""
    try:
        rows = [json.loads(line) for line in stdout.splitlines() if line.strip()]
        if wl.name == "verify-all":
            return _gate_verify(wl, rows)
        return _gate_search(wl, rows, checkpoint)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed output: {exc!r}"


def _gate_search(wl: Workload, rows: list[dict], checkpoint: str | None) -> str | None:
    expected = [p for p in WOLSTENHOLME_PRIMES if wl.lo <= p <= wl.hi] if wl.kind == "wolstenholme" else []
    hits = [row.get("p") for row in rows]
    if hits != expected or any(row.get("kind") != wl.kind for row in rows):
        return f"reported hits {hits}, expected {expected}"
    for p in hits:
        if _central_binomial(p) % p**4 != 1:
            return f"reported hit {p} is not a Wolstenholme prime"
    if checkpoint is None:
        return "no checkpoint written"
    cp = json.loads(checkpoint)
    cp_hits = [h["p"] for h in cp["hits"]]
    last = cp["last_completed_prime"]
    if cp_hits != expected or last != wl.hi:
        return f"checkpoint holds hits {cp_hits} up to {last}, expected {expected} up to {wl.hi}"
    return None


def _gate_verify(wl: Workload, rows: list[dict]) -> str | None:
    per_prime = Counter(row.get("p") for row in rows)
    if set(per_prime) != set(wl.primes):
        return f"rows cover {len(per_prime)} primes, expected the {len(wl.primes)} in {wl.lo}..{wl.hi}"
    short = [p for p, n in per_prime.items() if n != CHECKS_PER_PRIME]
    if short:
        return f"expected {CHECKS_PER_PRIME} rows per prime, p={short[0]} has {per_prime[short[0]]}"
    for row in rows:
        if row.get("status") == "fail":
            return f"check {row.get('check')} fails at p={row.get('p')}"
        if row.get("check") in ("eq1.1", "thm1.1"):
            p, w = row["p"], row["required_exp"] + 1
            if row.get("lhs") != str(_central_binomial(p) % p**w):
                return f"{row['check']} lhs at p={p} is not C(2p-1, p-1) mod p^{w}"
    return None


# ---------------------------------------------------------------------------
# invocations
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    failure: str | None
    wall_s: float
    stdout: str = ""
    record: dict | None = None


def invoke(wl: Workload, trace: bool, deadline: float) -> Sample:
    """Run one fresh `wlab` process on the workload and gate its output."""
    out, err = WORK / "stdout.txt", WORK / "stderr.txt"
    result, checkpoint = WORK / "child.json", WORK / "checkpoint.json"
    for path in (result, checkpoint):
        path.unlink(missing_ok=True)
    with open(out, "w") as fout, open(err, "w") as ferr:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-I", str(BENCH / "child.py"), str(SRC), str(result), repr(t_spawn),
             "1" if trace else "0", "--", *wl.argv(checkpoint)],
            stdout=fout, stderr=ferr, cwd=WORK,
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            rc = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        wall_s = time.perf_counter() - t_spawn
    if rc is None:
        return Sample("timed out", wall_s)
    stdout, stderr = out.read_text(), err.read_text()
    if rc != 0:
        return Sample(f"exit code {rc}: {stderr.strip()[-300:]}", wall_s, stdout)
    if "Traceback" in stderr:
        return Sample(f"traceback on stderr: {stderr.strip()[-300:]}", wall_s, stdout)
    if not result.exists():
        return Sample("child wrote no timing record", wall_s, stdout)
    cp_text = checkpoint.read_text() if checkpoint.exists() else None
    return Sample(gate(wl, stdout, cp_text), wall_s, stdout, json.loads(result.read_text()))


def measure(wl: Workload, trace: bool, seconds: float) -> tuple[dict, dict]:
    """Closed loop for `seconds`; returns (result line, info line)."""
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    load_before = os.getloadavg()[0]
    start = time.perf_counter()
    stop, deadline = start + seconds, start + INVOCATION_BUDGET_S
    plain: list[Sample] = []
    traced: list[Sample] = []
    while True:
        batch = traced if trace and len(traced) < len(plain) else plain
        batch.append(invoke(wl, batch is traced, deadline))
        if time.perf_counter() >= stop and (traced or not trace):
            break
    samples = plain + traced
    failures = [s.failure for s in samples if s.failure]
    for reason in failures[:5]:
        print(f"{wl.name}: invocation failed: {reason}", file=sys.stderr)
    ok = [s for s in plain if not s.failure]
    ok_traced = [s for s in traced if not s.failure]

    if trace:
        series = {m["name"]: [s.record["layers"].get(m["name"]) for s in ok_traced] for m in wanted}
        series["trace.overhead_s"] = [
            statistics.median(s.wall_s for s in ok_traced) - statistics.median(s.wall_s for s in ok)
        ] if ok and ok_traced else []
    else:
        series = {
            "setup_s": [s.record["setup_s"] for s in ok],
            "wall_s": [s.wall_s for s in ok],
            "primes_per_s": [len(wl.primes) / s.record["main_s"] for s in ok],
            "peak_rss_mb": [s.record["peak_rss_kb"] / 1024 for s in ok],
            "ok_frac": [1 - len(failures) / len(samples)],
        }
    metrics = {}
    for m in wanted:
        values = series.get(m["name"], [])
        value = None if not values or None in values else statistics.median(values)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if value is None:
            metrics[m["name"]]["missing"] = True
    info = {
        "workload": wl.name, "window": [wl.lo, wl.hi], "primes": len(wl.primes),
        "invocations": {"untraced": len(plain), "traced": len(traced)},
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)),
        "load1_before": load_before, "load1_after": os.getloadavg()[0],
        "quartiles": {name: _quartiles(v) for name, v in series.items() if v and None not in v},
    }
    result = {"correct": not failures, "attempted": len(samples), "failed": len(failures),
              "metrics": metrics}
    return result, info


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


# ---------------------------------------------------------------------------
# smoke mode
# ---------------------------------------------------------------------------

def smoke() -> list[str]:
    """Tiny windows: every named metric appears with its unit, and the gate
    accepts real output and rejects tampered output.  Returns the problems."""
    spec = json.loads(SPEC.read_text())
    problems = []
    for name in WORKLOADS:
        wl = make_workload(name, DEFAULT_SEED, smoke=True)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result, _ = measure(wl, trace, 0)
            if not result["correct"]:
                problems.append(f"{name}: gate rejected real output (trace={int(trace)})")
            for m in spec[section]:
                got = result["metrics"].get(m["name"])
                if not got or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name}: metric {m['name']} missing or without unit: {got}")
        sample = invoke(wl, False, time.perf_counter() + INVOCATION_BUDGET_S)
        if sample.failure:
            problems.append(f"{name}: {sample.failure}")
            continue
        if gate(wl, _tamper(wl, sample.stdout), None if name == "verify-all" else "{}") is None:
            problems.append(f"{name}: gate accepted tampered output")
    return problems


def _tamper(wl: Workload, stdout: str) -> str:
    if wl.name != "verify-all":
        return stdout + json.dumps({"kind": wl.kind, "p": wl.primes[0], "witness": {}}) + "\n"
    rows = [json.loads(line) for line in stdout.splitlines()]
    row = next(r for r in rows if r["check"] == "thm1.1")
    row["lhs"] = str(int(row["lhs"]) + 1)
    return "\n".join(json.dumps(r) for r in rows)


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny windows; check metric names and the gate")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required unless --smoke is given")
    if not (SRC / "wlab" / "cli.py").is_file() or not SPEC.is_file():
        print(f"error: {SRC / 'wlab'} or {SPEC} is missing; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    # Users run an installed package, whose bytecode is already compiled.
    compileall.compile_dir(str(SRC / "wlab"), quiet=1)
    if args.smoke:
        problems = smoke()
        for problem in problems:
            print(f"smoke: {problem}", file=sys.stderr)
        print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
        return 1 if problems else 0
    result, info = measure(make_workload(args.workload, args.seed), bool(args.trace), args.seconds)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
