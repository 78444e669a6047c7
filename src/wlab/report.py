"""Check outcomes: one judged congruence is one row dict, the JSON line
``verify`` prints, with its residual p-adic valuation.  ``make_report``
builds every row, the n/a ones included.

A row's keys, in the order they print: ``check``, ``p``, ``required_exp``,
``residual_valuation``, ``holds``, ``lhs``, ``rhs``, ``status``.  ``lhs`` and
``rhs`` are decimal strings mod p^(required_exp + 1), the working exponent
make_report applies.  ``status`` is one of:

* ``pass`` / ``fail``: the congruence computed and judged against required_exp;
* ``identity``: both sides the same integer (thm1.1 at p = 3, 5);
* ``n/a``: preconditions exclude this prime and nothing was computed
  (make_report given no sides); the valuation, ``holds``, ``lhs`` and ``rhs``
  are None.

``decimal`` writes an int at any size; ``parse_int`` reads one, and refuses
one past the interpreter's digit limit in a reader's terms.
"""

from __future__ import annotations

import sys

from .modring import residual_valuation


def make_report(name: str, p: int, required: int, lhs: int | None = None, rhs: int | None = None,
                *, identity: bool = False) -> dict:
    """Judge lhs against rhs in Z/p^w, w = required + 1: the row dict.
    Given no sides, the check's preconditions exclude p: the n/a row.

    The residual valuation saturates at the working exponent w, one above the
    required one, so a report can distinguish 'holds exactly at the required
    exponent' from 'holds one level higher'.  lhs and rhs may be given mod
    any higher power of p; they are reduced here.
    """
    if lhs is None:
        v = holds = None
        status = "n/a"
    else:
        working = required + 1
        m = p**working
        v = residual_valuation(lhs - rhs, p, working)
        holds = v >= required
        lhs, rhs = decimal(lhs % m), decimal(rhs % m)
        status = "identity" if identity else "pass" if holds else "fail"
    return {"check": name, "p": p, "required_exp": required, "residual_valuation": v,
            "holds": holds, "lhs": lhs, "rhs": rhs, "status": status}


def decimal(n: int) -> str:
    """str(n) at any size.  CPython (3.10.7 on) refuses to convert an int of
    more than 4,300 digits by default; a residue that was asked for is
    written whole, so the limit is lifted for this one conversion."""
    try:
        return str(n)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return str(n)
        finally:
            sys.set_int_max_str_digits(limit)


def parse_int(text: str) -> int:
    """int(text) for ``json.load``'s ``parse_int``: an int past the digit
    limit is refused in a reader's terms, not with CPython's advice to call
    ``sys.set_int_max_str_digits()``, which a CLI user cannot make."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"an integer in it has more than {sys.get_int_max_str_digits():,} digits") from None
