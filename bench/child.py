"""One timed `wlab` CLI invocation, run in a fresh interpreter by run.py.

    python3 -I child.py SRC RESULT T_SPAWN TRACE -- WLAB_ARGS...

Imports `wlab.cli` from SRC, calls `wlab.cli.main(WLAB_ARGS)` exactly as the
`wlab` console script does, and writes a JSON record to RESULT:

* `setup_s`: from T_SPAWN (the parent's `time.perf_counter()` just before it
  spawned this process; CLOCK_MONOTONIC, so comparable across processes)
  until `wlab.cli` is imported;
* `main_s`: the time `cli.main` runs;
* `peak_rss_kb`: this address space's high-water RSS (VmHWM);
* with TRACE=1, `layers`: per-layer metrics from spans recorded around the
  calls between the package's modules (see SPANS).

Stdout and stderr are the CLI's own; the exit code is `main`'s.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict

# Span name -> the (module, attribute) sites through which callers reach the
# function.  Callers import most functions by name, so each is patched in the
# caller's namespace, not only where it is defined.  The span name's first
# component is the layer (module) the function belongs to.
SPANS = {
    "search.run_search": [("wlab.search", "run_search")],
    "search.primes_in": [("wlab.search", "primes_in")],
    "search.scan": [("wlab.search", "_scan_chunk")],
    "search.save_checkpoint": [("wlab.search", "save_checkpoint")],
    "search.mod_p8_indicator": [("wlab.search", "mod_p8_indicator")],
    "search.wolstenholme_indicator": [("wlab.search", "wolstenholme_indicator")],
    "congruence.run_suite": [("wlab.congruence", "run_suite")],
    "congruence.check_theorem_main": [("wlab.search", "check_theorem_main")],
    "congruence.binom_central_int": [("wlab.search", "binom_central_int")],
    "modring.range_inverses": [("wlab.congruence", "range_inverses"), ("wlab.sums", "range_inverses")],
    "sums.inverse_power_sums_ints": [("wlab.congruence", "inverse_power_sums_ints")],
    "sums.newton_elementary_ints": [("wlab.congruence", "newton_elementary_ints")],
    "sums.power_sum_int": [("wlab.bernoulli", "power_sum_int")],
    "bernoulli.bernoulli_mod": [("wlab.bernoulli", "bernoulli_mod")],
    "bernoulli.kummer_alternating_check": [("wlab.bernoulli", "kummer_alternating_check")],
    "report.make_report": [("wlab.congruence", "make_report"), ("wlab.bernoulli", "make_report")],
}
ROOT_SPAN = "cli.main"
LAYERS = ("cli", "search", "congruence", "modring", "sums", "bernoulli", "report")
# Spans whose call count and total seconds are reported.
TIMED = (
    "search.primes_in", "search.save_checkpoint", "search.mod_p8_indicator",
    "congruence.run_suite", "congruence.binom_central_int", "modring.range_inverses",
    "sums.inverse_power_sums_ints", "sums.newton_elementary_ints", "sums.power_sum_int",
    "bernoulli.bernoulli_mod", "report.make_report",
)
# Spans whose calls per distinct prime (their first argument) are reported.
PER_PRIME = ("modring.range_inverses", "sums.inverse_power_sums_ints", "sums.power_sum_int")
# Spans whose arguments are kept, to count the distinct work they were asked for.
KEEP_ARGS = ("modring.range_inverses", "sums.inverse_power_sums_ints", "sums.power_sum_int",
             "bernoulli.bernoulli_mod")
# Spans that record one number about their call once it has returned.
AFTER = {
    "search.scan": lambda args, result: len(result),
    "search.save_checkpoint": lambda args, result: os.path.getsize(args[0]),
}


class Tracer:
    """Spans kept in memory as [name, parent index, start, end, (args, kwargs), extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = name in KEEP_ARGS
        after = AFTER.get(name)

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0,
                    (args, tuple(sorted(kwargs.items()))) if keep else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                span[5] = after(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, sites in SPANS.items():
            modules = [importlib.import_module(mod) for mod, _ in sites]
            if not all(hasattr(m, attr) for m, (_, attr) in zip(modules, sites)):
                self.missing.append(name)
                continue
            for m, (_, attr) in zip(modules, sites):
                setattr(m, attr, self.wrap(name, getattr(m, attr)))

    def metrics(self) -> dict[str, float | None]:
        """Per-layer figures; a layer's self time excludes its child spans."""
        covered = [0.0] * len(self.spans)
        for _, parent, t0, t1, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        by_name: dict[str, list[list]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            name, _, t0, t1 = span[:4]
            calls[name] += 1
            total[name] += t1 - t0
            self_s[name] += t1 - t0 - covered[i]
            by_name[name].append(span)

        out: dict[str, float | None] = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
        for name in PER_PRIME:
            primes = {s[4][0][0] for s in by_name[name]}
            out[f"{name}.per_prime"] = calls[name] / len(primes) if primes else 0.0
        psum = by_name["sums.power_sum_int"]
        out["sums.power_sum_int.pow_ops"] = sum(s[4][0][0] - 1 for s in psum)
        out["sums.power_sum_int.distinct_ratio"] = _distinct_ratio(psum)
        out["bernoulli.bernoulli_mod.distinct_ratio"] = _distinct_ratio(by_name["bernoulli.bernoulli_mod"])
        out["search.chunks"] = calls["search.scan"]
        out["search.hits"] = sum(s[5] for s in by_name["search.scan"] if s[5] is not None)
        out["search.checkpoint_bytes"] = sum(s[5] for s in by_name["search.save_checkpoint"] if s[5] is not None)
        out["search.scan.self_s"] = self_s["search.scan"]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum((v for k, v in self_s.items() if k.split(".", 1)[0] == layer), 0.0)
        out["trace.main_s"] = total[ROOT_SPAN]

        # A renamed or deleted function leaves its own figures, and every self
        # time (which can no longer subtract it), unmeasured rather than 0.
        derived = {"search.scan": ("search.chunks", "search.hits"),
                   "search.save_checkpoint": ("search.checkpoint_bytes",)}
        for name in self.missing:
            for key in out:
                if key.startswith(name + ".") or key.endswith(".self_s") or key in derived.get(name, ()):
                    out[key] = None
        return out


def _distinct_ratio(spans: list[list]) -> float:
    return len({s[4] for s in spans}) / len(spans) if spans else 0.0


def _peak_rss_kb() -> int:
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    src, result_path, t_spawn, trace = sys.argv[1], sys.argv[2], float(sys.argv[3]), sys.argv[4] == "1"
    if sys.argv[5] != "--":
        raise SystemExit("usage: child.py SRC RESULT T_SPAWN TRACE -- WLAB_ARGS...")
    argv = sys.argv[6:]
    sys.path.insert(0, src)
    import wlab.cli

    t_ready = time.perf_counter()
    if not os.path.abspath(wlab.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"wlab was imported from {wlab.cli.__file__}, not from {src}")

    entry = wlab.cli.main
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap(ROOT_SPAN, entry)

    t0 = time.perf_counter()
    rc = entry(argv)
    main_s = time.perf_counter() - t0
    sys.stdout.flush()
    record = {"setup_s": t_ready - t_spawn, "main_s": main_s, "rc": rc, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        record["layers"] = tracer.metrics()
    with open(result_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
