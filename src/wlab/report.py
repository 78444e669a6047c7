"""Check outcomes: one judged congruence is one row dict, the JSON line
``verify`` prints, with its residual p-adic valuation.

A row's keys, in the order they print: ``check``, ``p``, ``required_exp``,
``residual_valuation``, ``holds``, ``lhs``, ``rhs``, ``status``.  ``lhs`` and
``rhs`` are decimal strings mod p^(required_exp + 1), the working exponent
make_report applies; where the check is n/a they and the valuation and
``holds`` are None.
"""

from __future__ import annotations

import sys

from .modring import residual_valuation

# A report's status:
#   pass / fail  - congruence computed and judged against required_exp
#   identity     - both sides equal as exact integers (small-prime cases)
#   n/a          - preconditions exclude this prime; nothing computed
STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_IDENTITY = "identity"
STATUS_NA = "n/a"


def make_report(
    name: str,
    p: int,
    required: int,
    lhs: int,
    rhs: int,
    *,
    identity: bool = False,
) -> dict:
    """Judge lhs against rhs in Z/p^w, w = required + 1: the row dict.

    The residual valuation saturates at the working exponent w, one above the
    required one, so a report can distinguish 'holds exactly at the required
    exponent' from 'holds one level higher'.  lhs and rhs may be given mod
    any higher power of p; they are reduced here.
    """
    working = required + 1
    m = p**working
    v = residual_valuation(lhs - rhs, p, working)
    holds = v >= required
    return {
        "check": name,
        "p": p,
        "required_exp": required,
        "residual_valuation": v,
        "holds": holds,
        "lhs": decimal(lhs % m),
        "rhs": decimal(rhs % m),
        "status": STATUS_IDENTITY if identity else STATUS_PASS if holds else STATUS_FAIL,
    }


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


def not_applicable(name: str, p: int, required: int) -> dict:
    return {
        "check": name,
        "p": p,
        "required_exp": required,
        "residual_valuation": None,
        "holds": None,
        "lhs": None,
        "rhs": None,
        "status": STATUS_NA,
    }
