"""Check outcomes: named congruence reports with residual p-adic valuation."""

from __future__ import annotations

from typing import NamedTuple

from .modring import residual_valuation

# A report's status:
#   pass / fail  - congruence computed and judged against required_exponent
#   identity     - both sides equal as exact integers (small-prime cases)
#   n/a          - preconditions exclude this prime; nothing computed
#   data         - value recorded for inspection, never gates an exit code
STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_IDENTITY = "identity"
STATUS_NA = "n/a"
STATUS_DATA = "data"


class CongruenceReport(NamedTuple):
    name: str
    p: int
    required_exponent: int
    working_exponent: int
    lhs: int | None
    rhs: int | None
    residual_valuation: int | None
    holds: bool | None
    status: str

    def to_json_dict(self) -> dict:
        return {
            "check": self.name,
            "p": self.p,
            "required_exp": self.required_exponent,
            "residual_valuation": self.residual_valuation,
            "holds": self.holds,
            "lhs": None if self.lhs is None else str(self.lhs),
            "rhs": None if self.rhs is None else str(self.rhs),
            "status": self.status,
        }


def make_report(
    name: str,
    p: int,
    required: int,
    lhs: int,
    rhs: int,
    *,
    identity: bool = False,
    data_only: bool = False,
) -> CongruenceReport:
    """Judge lhs against rhs in Z/p^w, w = required + 1, and package the outcome.

    The residual valuation saturates at the working exponent w, one above the
    required one, so a report can distinguish 'holds exactly at the required
    exponent' from 'holds one level higher'.  lhs and rhs may be given mod
    any higher power of p; they are reduced here.
    """
    working = required + 1
    m = p**working
    v = residual_valuation(lhs - rhs, p, working)
    holds = v >= required
    if identity:
        status = STATUS_IDENTITY
    elif data_only:
        status = STATUS_DATA
    else:
        status = STATUS_PASS if holds else STATUS_FAIL
    return CongruenceReport(
        name=name,
        p=p,
        required_exponent=required,
        working_exponent=working,
        lhs=lhs % m,
        rhs=rhs % m,
        residual_valuation=v,
        holds=holds,
        status=status,
    )


def not_applicable(name: str, p: int, required: int) -> CongruenceReport:
    return CongruenceReport(
        name=name,
        p=p,
        required_exponent=required,
        working_exponent=required + 1,
        lhs=None,
        rhs=None,
        residual_valuation=None,
        holds=None,
        status=STATUS_NA,
    )
