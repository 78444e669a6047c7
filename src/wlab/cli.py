"""Command-line front end: verify, search, bernoulli, report.

Every row a command prints on stdout (a report row, a hit) goes through one
writer, ``_writer``, in the ``--format`` asked for; progress and errors go
to stderr.

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
from typing import Callable

from . import congruence, search
from .bernoulli import bernoulli_mod, exact_bernoulli, fraction_mod
from .errors import TaskMismatch, WlabError
from .modring import PRIME_BOUND, is_prime, primes_in
from .report import decimal, parse_int

FORMATS = ("jsonl", "csv", "human")
REPORT_COLUMNS = ("check", "p", "required_exp", "residual_valuation", "holds", "status", "lhs", "rhs")
REPORT_KEYS = ("check", "p", "required_exp", "status")  # the keys the human table reads
# the fields the human table pads to a width, with the types that accept it
PADDED_FIELDS = {"check": str, "p": int, "residual_valuation": (int, type(None))}
# The largest power of p a command builds: about 19,700 digits.  --prec r builds
# p^r, --exp e builds p^(e+1) and an index term p^N builds p^N.
MAX_POWER_BITS = 1 << 16


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

def _check_power(p: int, e: int, what: str) -> None:
    """Refuse p^e before it is built if e * bitlen(p), its bound, passes MAX_POWER_BITS."""
    if e * p.bit_length() > MAX_POWER_BITS:
        raise WlabError(f"{what} is too large: p^{e} needs up to {e * p.bit_length():,} bits, past {MAX_POWER_BITS:,}")


def _parse_prime_range(text: str) -> tuple[int, int]:
    """(lo, hi) of --p, refused at or above the primality bound before any
    prime is tested or sieved."""
    m = re.fullmatch(r"0*(\d+)(?:\.\.0*(\d+))?", text.strip())
    if not m:
        raise WlabError(f"cannot parse prime range {text!r} (expected N or LO..HI)")
    try:
        lo, hi = int(m.group(1)), int(m.group(2) or m.group(1))
    except ValueError:  # past int()'s digit limit (4,300 by default), so past the bound
        lo, hi = 0, PRIME_BOUND
    if hi < lo:
        raise WlabError(f"empty range {text!r}")
    if hi >= PRIME_BOUND:
        raise WlabError(f"the top of --p is at or above the primality bound {PRIME_BOUND}")
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
        try:
            n = int(m.group(3) or 1) if term.startswith("p") else int(term)
        except ValueError:  # past int()'s digit limit (4,300 by default)
            raise WlabError("a number in the index expression has too many digits") from None
        if term.startswith("p"):
            _check_power(p, n, "an --index term")
            n = p**n
        total += sign * n
        pos = m.end()
    return total


def _writer(fmt: str, columns: tuple[str, ...], human: Callable[[dict], str]) -> Callable[[list[dict]], int]:
    """The one writer of a command's stdout rows: a function that writes a
    list of row dicts as jsonl, as csv ``columns`` or as ``human(row)`` lines,
    and returns how many have status fail.  Its first call, even with no
    rows, writes the csv header.  A csv dict cell (a hit's witness) is JSON."""
    out = sys.stdout
    table = csv.writer(out, lineterminator="\n")
    header_due = fmt == "csv"

    def write(rows: list[dict]) -> int:
        nonlocal header_due
        if header_due:
            header_due = False
            table.writerow(columns)
        for row in rows:
            if fmt == "jsonl":
                out.write(json.dumps(row) + "\n")
            elif fmt == "csv":
                table.writerow([_cell(row.get(c)) for c in columns])
            else:
                out.write(human(row) + "\n")
        return sum(row.get("status") == "fail" for row in rows)

    return write


def _cell(value):
    return "" if value is None else json.dumps(value) if isinstance(value, dict) else value


def _human_report(row: dict) -> str:
    v = row.get("residual_valuation")
    return (f"{row['check']:<16} p={row['p']:<10} req={row['required_exp']} "
            f"v={'-' if v is None else v:<3} {row['status']}")


def _verify_prime(p: int, checks: tuple[str, ...] | None, exp: int | None) -> list[dict]:
    if exp is not None:
        return [congruence.check_theorem_main(p, exp)]
    return congruence.run_suite(p, checks)


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
        raise WlabError("--exp applies only to --check thm1.1")
    if checks:
        congruence.expand_selection(checks)  # fail fast on unknown names
    if args.p is None:
        raise WlabError("verify needs --p (or --list-checks)")
    lo, hi = _parse_prime_range(args.p)
    if args.exp is not None:  # before the sieve; no prime of the range is above hi
        _check_power(hi, args.exp + 1, f"--exp {args.exp}")
    if lo == hi:
        if not is_prime(lo):
            raise WlabError(f"{lo} is not a prime")
        primes = [lo]
    else:
        primes = primes_in(max(lo, 3), hi)  # a range starts at the least odd prime

    verify = functools.partial(_verify_prime, checks=checks, exp=args.exp)
    results = search.ordered_map(verify, primes, args.workers, chunksize=16)
    write = _writer(args.format, REPORT_COLUMNS, _human_report)
    try:
        write([])  # the csv header comes before any prime is verified
        # each prime's rows are written as they come; closing cancels queued calls
        failed = sum(map(write, results))
    finally:
        results.close()
    return 2 if failed else 0


def cmd_search(args) -> int:
    kind = args.kind.replace("-", "_")
    if args.resume is not None and args.checkpoint not in (None, args.resume):
        raise WlabError("--resume rewrites the checkpoint it resumes; drop --checkpoint")
    checkpoint = args.checkpoint if args.resume is None else args.resume
    if checkpoint is None and args.max is not None and os.environ.get("WLAB_CHECKPOINT_DIR"):
        checkpoint = os.path.join(os.environ["WLAB_CHECKPOINT_DIR"], f"{kind}-{args.max}.json")

    stored = None
    if args.resume is not None:
        # a bound not given is the checkpoint's
        stored = search.load_checkpoint(args.resume)
        lo = stored["lo"] if args.min is None else args.min
        hi = stored["hi"] if args.max is None else args.max
    elif args.max is None:
        raise WlabError("search needs --max (or --resume)")
    else:
        lo = search.KINDS[kind][0] if args.min is None else args.min
        hi = args.max
    scan = search.new_scan(kind, lo, hi)  # a bad kind or bounds are refused first
    if stored is not None and (kind, lo, hi) != (stored["kind"], stored["lo"], stored["hi"]):
        # flags can disagree with a checkpoint only here; the kinds as typed
        raise TaskMismatch(f"checkpoint is for {stored['kind'].replace('_', '-')} "
                           f"[{stored['lo']}, {stored['hi']}], requested {args.kind} [{lo}, {hi}]")
    scan = stored or scan
    write = _writer(args.format, ("kind", "p", "witness"),
                    lambda row: f"{row['kind']}: p={row['p']} witness={row['witness']}")

    def on_chunk(found: list[dict], done: int, total: int, last_prime: int) -> None:
        # the first call comes once run_search has accepted the scan, so a
        # refused scan prints nothing, not even the csv header
        write([{"kind": kind, "p": h["p"], "witness": h["witness"]} for h in found])
        if found:
            sys.stdout.flush()  # hits stream as the ordered merge advances; long scans are rare-hit
        if done and (done == total or done % 10 == 0):
            print(f"{args.kind}: scanned up to {last_prime} ({done}/{total} chunks)", file=sys.stderr)

    search.run_search(scan, args.chunk, checkpoint, workers=args.workers, on_chunk=on_chunk)
    return 0


def cmd_bernoulli(args) -> int:
    p = args.p
    if not is_prime(p) or p < 3:
        raise WlabError(f"{p} is not an odd prime")
    if args.prec < 1:
        raise WlabError("--prec must be >= 1")
    _check_power(p, args.prec, f"--prec {args.prec}")
    index = parse_index_expr(args.index, p)
    if index < 0:
        raise WlabError("--index is negative")
    if index < 2 or index % 2:
        value = fraction_mod(exact_bernoulli(index), p**args.prec)
    else:
        value = bernoulli_mod(index, p, args.prec)
    print(decimal(value))
    return 0


def _read_reports(fh, name: str) -> list[dict]:
    rows = []
    for lineno, line in enumerate(fh, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line, parse_int=parse_int)
        except ValueError as exc:  # bad JSON, an int past int()'s digit limit
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
    failed = _writer(fmt, REPORT_COLUMNS, _human_report)(rows)
    print(f"{len(rows)} reports, {failed} failed", file=sys.stderr)
    return 2 if failed else 0


COMMANDS = {"verify": cmd_verify, "search": cmd_search, "bernoulli": cmd_bernoulli, "report": cmd_report}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.workers < 1:
            raise WlabError("workers must be >= 1")
        code = COMMANDS[args.command](args)
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
