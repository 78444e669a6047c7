"""Command-line front end: verify, search, bernoulli, report.

Exit codes: 0 success, 1 usage or runtime error (a reader that closes the
output pipe early included), 2 at least one violated congruence (a
mathematical event worth a loud failure), 130 on Ctrl-C.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import locale  # noqa: F401  argparse's gettext imports it on first use; load it here, not inside main
import os
import re
import sys
from typing import Iterable

from . import congruence, search
from .bernoulli import bernoulli_mod, exact_bernoulli, fraction_mod
from .errors import WlabError
from .modring import is_prime

FORMATS = ("jsonl", "csv", "human")
REPORT_COLUMNS = ("check", "p", "required_exp", "residual_valuation", "holds", "status", "lhs", "rhs")
REPORT_KEYS = ("check", "p", "required_exp", "status")  # the keys the human table reads
# the fields the human table pads to a width, with the types that accept it
PADDED_FIELDS = {"check": str, "p": int, "residual_valuation": (int, type(None))}


def _add_global_flags(ap: argparse.ArgumentParser, suppress: bool) -> None:
    # Defined on the main parser with real defaults and on each subparser
    # with SUPPRESS, so the flags are accepted on either side of the command.
    d = argparse.SUPPRESS if suppress else None
    ap.add_argument("--format", choices=FORMATS,
                    default=d if suppress else "jsonl", help="output format (default jsonl)")
    ap.add_argument("--workers", type=int,
                    default=d if suppress else 1, help="parallel worker processes (default 1)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wlab",
        description="Verify prime-power congruences for C(2p-1, p-1) and run the associated prime searches.",
    )
    _add_global_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", parents=[common], help="run congruence checks over a prime or prime range")
    v.add_argument("--p", metavar="RANGE", help="a prime, or an inclusive range lo..hi (required unless --list-checks)")
    v.add_argument("--check", action="append", default=None, metavar="NAME",
                   help="check name or group (repeatable; default all); see --list-checks")
    v.add_argument("--exp", type=int, default=None,
                   help="override the required exponent (only with --check thm1.1)")
    v.add_argument("--list-checks", action="store_true", help="print registry names and exit")

    s = sub.add_parser("search", parents=[common], help="scan a prime range for rare congruence events")
    s.add_argument("kind", choices=("wolstenholme", "mod-p8"))
    s.add_argument("--max", type=int, default=None, help="upper bound of the scan (inclusive)")
    s.add_argument("--min", type=int, default=None, help="lower bound (default: smallest valid prime)")
    s.add_argument("--chunk", type=int, default=search.DEFAULT_CHUNK, help="primes per work unit")
    s.add_argument("--checkpoint", default=None, help="checkpoint file path")
    s.add_argument("--resume", default=None, metavar="PATH", help="resume from a checkpoint file")

    b = sub.add_parser("bernoulli", parents=[common], help="Bernoulli number modulo a prime power")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--index", required=True,
                   help="index expression: an integer, or sums of p-power terms like p-3, p^4-p^3-2")
    b.add_argument("--prec", type=int, required=True, help="precision exponent r (value mod p^r)")

    r = sub.add_parser("report", parents=[common], help="re-render a JSONL report stream")
    r.add_argument("file", nargs="?", default="-", help="JSONL file (default stdin)")
    return ap


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _parse_prime_range(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)(?:\.\.(\d+))?", text.strip())
    if not m:
        raise WlabError(f"cannot parse prime range {text!r} (expected N or LO..HI)")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise WlabError(f"empty range {text!r}")
    return lo, hi


_TERM_RE = re.compile(r"([+-]?)\s*(p(?:\^(\d+))?|\d+)\s*")


def parse_index_expr(expr: str, p: int) -> int:
    """Evaluate expressions like '13308', 'p-3', 'p^4-p^3-2' to an integer."""
    pos = 0
    total = 0
    expr = expr.strip()
    if not expr:
        raise WlabError("empty index expression")
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if not m or (pos > 0 and m.group(1) == ""):
            raise WlabError(f"cannot parse index expression {expr!r}")
        sign = -1 if m.group(1) == "-" else 1
        term = m.group(2)
        if term.startswith("p"):
            value = p ** int(m.group(3)) if m.group(3) else p
        else:
            value = int(term)
        total += sign * value
        pos = m.end()
    return total


def _emit_reports(rows: Iterable[dict], fmt: str, out) -> int:
    """Write each row as it comes; returns how many have status fail."""
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
    failed = 0
    for row in rows:
        failed += row.get("status") == "fail"
        if fmt == "jsonl":
            out.write(json.dumps(row) + "\n")
        elif fmt == "csv":
            writer.writerow(["" if row.get(c) is None else row.get(c) for c in REPORT_COLUMNS])
        else:
            v = row.get("residual_valuation")
            out.write(
                f"{row['check']:<16} p={row['p']:<10} req={row['required_exp']} "
                f"v={'-' if v is None else v:<3} {row['status']}\n"
            )
    return failed


def _verify_prime(p: int, checks: tuple[str, ...] | None, exp: int | None) -> list[dict]:
    if exp is not None:
        return [congruence.check_theorem_main(p, exp).to_json_dict()]
    selection = None if checks is None else list(checks)
    return [r.to_json_dict() for r in congruence.run_suite(p, selection)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    if args.list_checks:
        for name in congruence.REGISTRY:
            print(name)
        return 0
    checks = tuple(args.check) if args.check else None
    if args.exp is not None and (checks is None or set(checks) != {"thm1.1"}):
        print("error: --exp applies only to --check thm1.1", file=sys.stderr)
        return 1
    if checks:
        congruence.expand_selection(checks)  # fail fast on unknown names
    if args.p is None:
        print("error: verify needs --p (or --list-checks)", file=sys.stderr)
        return 1
    lo, hi = _parse_prime_range(args.p)
    if lo == hi:
        if not is_prime(lo):
            print(f"error: {lo} is not a prime", file=sys.stderr)
            return 1
        primes = [lo]
    else:
        primes = search.primes_in(max(lo, 3), hi)  # a range starts at the least odd prime

    verify = functools.partial(_verify_prime, checks=checks, exp=args.exp)
    results = search.ordered_map(verify, primes, args.workers, chunksize=16)
    try:
        # each prime's rows are written as they come; closing cancels queued calls
        failed = _emit_reports((row for result in results for row in result), args.format, sys.stdout)
    finally:
        results.close()
    return 2 if failed else 0


def _progress_printer(kind: str):
    def progress(done: int, total: int, last_prime: int) -> None:
        if done == total or done % 10 == 0:
            print(f"{kind}: scanned up to {last_prime} ({done}/{total} chunks)", file=sys.stderr)

    return progress


def cmd_search(args) -> int:
    kind = args.kind.replace("-", "_")
    if args.resume is not None and args.checkpoint not in (None, args.resume):
        print("error: --resume rewrites the checkpoint it resumes; drop --checkpoint", file=sys.stderr)
        return 1
    checkpoint = args.checkpoint
    if checkpoint is None and args.max is not None and os.environ.get("WLAB_CHECKPOINT_DIR"):
        checkpoint = os.path.join(os.environ["WLAB_CHECKPOINT_DIR"], f"{kind}-{args.max}.json")

    csv_writer = None
    if args.format == "csv":
        csv_writer = csv.writer(sys.stdout, lineterminator="\n")
        csv_writer.writerow(("kind", "p", "witness"))

    def emit(hit) -> None:
        # stream hits as the ordered merge advances; long scans are rare-hit
        row = hit.to_json_dict()
        if args.format == "jsonl":
            print(json.dumps(row), flush=True)
        elif args.format == "csv":
            csv_writer.writerow((row["kind"], row["p"], json.dumps(row["witness"])))
            sys.stdout.flush()
        else:
            print(f"{row['kind']}: p={row['p']} witness={row['witness']}", flush=True)

    if args.resume is not None:
        # a bound not given is the checkpoint's; search.resume refuses a task
        # whose kind or bounds are not the checkpoint's
        cp = search.load_checkpoint(args.resume)
        lo = cp.lo if args.min is None else args.min
        hi = cp.hi if args.max is None else args.max
        task = search.SearchTask(kind, lo, hi, args.chunk, args.resume)
        search.resume(args.resume, task=task, workers=args.workers,
                      progress=_progress_printer(args.kind), on_hit=emit)
    else:
        if args.max is None:
            print("error: search needs --max (or --resume)", file=sys.stderr)
            return 1
        lo = args.min if args.min is not None else search.KIND_MIN[kind]
        task = search.SearchTask(kind, lo, args.max, args.chunk, checkpoint)
        search.run_search(task, workers=args.workers,
                          progress=_progress_printer(args.kind), on_hit=emit)
    return 0


def cmd_bernoulli(args) -> int:
    p = args.p
    if not is_prime(p) or p < 3:
        print(f"error: {p} is not an odd prime", file=sys.stderr)
        return 1
    if args.prec < 1:
        print("error: --prec must be >= 1", file=sys.stderr)
        return 1
    index = parse_index_expr(args.index, p)
    if index < 0:
        print(f"error: index {index} is negative", file=sys.stderr)
        return 1
    if index < 2 or index % 2:
        value = fraction_mod(exact_bernoulli(index), p**args.prec)
    else:
        value = bernoulli_mod(index, p, args.prec)
    print(value)
    return 0


def _read_reports(fh, name: str) -> list[dict]:
    rows = []
    for lineno, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:
            raise WlabError(f"{name}:{lineno}: not valid JSON ({exc})") from exc
        missing = [k for k in REPORT_KEYS if not isinstance(row, dict) or k not in row]
        if missing:
            raise WlabError(f"{name}:{lineno}: not a report row (missing {', '.join(missing)})")
        for key, types in PADDED_FIELDS.items():
            if not isinstance(row.get(key), types):
                raise WlabError(f"{name}:{lineno}: field {key!r} has wrong type ({type(row.get(key)).__name__})")
        rows.append(row)
    return rows


def cmd_report(args) -> int:
    try:
        if args.file == "-":
            rows = _read_reports(sys.stdin, "<stdin>")
        else:
            with open(args.file) as fh:
                rows = _read_reports(fh, args.file)
    except (OSError, UnicodeDecodeError) as exc:
        raise WlabError(f"cannot read {args.file}: {exc}") from exc
    fmt = args.format if args.format != "jsonl" else "human"
    failed = _emit_reports(rows, fmt, sys.stdout)
    print(f"{len(rows)} reports, {failed} failed", file=sys.stderr)
    return 2 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.command == "verify":
            code = cmd_verify(args)
        elif args.command == "search":
            code = cmd_search(args)
        elif args.command == "bernoulli":
            code = cmd_bernoulli(args)
        else:
            code = cmd_report(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader is gone (`wlab ... | head`); a search has already flushed
        # its checkpoint.  Point fd 1 at /dev/null so the interpreter's own
        # flush of what is still buffered cannot raise again at exit.
        try:
            fd = sys.stdout.fileno()
        except (OSError, ValueError):
            return 1  # stdout has no file descriptor (replaced in-process)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return 1
    except WlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # a sieve or table too large for this machine (a huge --max or --p range)
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
