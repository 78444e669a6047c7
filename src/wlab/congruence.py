"""Named verifiers for the congruence family around C(2p-1, p-1).

Each check is one row of REGISTRY, all of one kind: a name, the required
exponent, an applicability test and a ``sides`` function giving two
independently computed sides.  run_suite walks the rows in a fixed order, and
``_judge``, which ``check_theorem_main`` shares, hands each to
``report.make_report`` at the working exponent w = required + 1, so every
report can tell "holds exactly at the required level" apart from "holds one
level higher".  That rule lives in make_report alone: the sides come mod
p^w_max, the precision of the context, and make_report reduces them once.
At a row's identity primes (thm1.1 at p = 3, 5) both sides are the same
integer and the report says ``identity``; a difference there is a bug.
A report is the row dict make_report builds, an n/a row (make_report given
no sides) included, so run_suite and check_theorem_main return exactly the
rows ``verify`` prints.

A per-prime CheckContext holds every value the rows share, as plain ints
mod p^w_max, for every odd prime: the binomial, the R_n, the H_k and the
Bernoulli residues (and their power-sum table).  It is sized by what the
selected rows read, which no row declares: ``row_reads`` runs each row once
per process on a stand-in context and records the largest R_n or H_k
(``harmonic_order``) and the largest Bernoulli precision (``bernoulli_prec``)
it reads.  The context fills the first three as it is built, from one pass
of ``sums.half_range_moments`` over k <= (p-1)/2: C(2p-1, p-1) and S_1..S_j,
j = max(1, harmonic_order), so S_1..S_7 for every row, S_1, S_2 for thm1.1
alone and S_1 alone for rows that read at most R_1.  Each R_n follows
from the S_j by Dickson's identity and H_k from the R_n by Newton's
identities; a read above j is refused.  One rule sizes every context:
p^(e+1), e the largest required exponent it judges (p^9 for the mod-p^8
search's check_theorem_main(p, 8), p^4 for the Wolstenholme search's R_1).

``binom_central_int`` (the unit product (1 + p/1)...(1 + p/(p-1)) over all
p-1 terms, one deferred inversion) is the full-range route to the binomial
that the search re-verifies hits with and the tests compare the kernel to.
"""

from __future__ import annotations

import functools
import math
import types
from typing import Callable, Iterable, NamedTuple

from . import bernoulli as bn
from .errors import InternalInconsistency, InvalidInput, NotInvertible, UnknownCheckName
from .modring import inv_int, is_odd_prime, range_inverses, residual_valuation
from .report import make_report
from .sums import half_range_moments, inverse_power_sum_from_moments, inverse_power_sums_ints, newton_elementary_ints

# The benchmark's traced spans (bench/child.py SPANS) patch range_inverses and
# inverse_power_sums_ints in this namespace.  No check calls them any more;
# they stay importable here so those spans install and count 0 calls.


# Consecutive factors of binom_central_int multiplied exactly before one
# reduction mod m.  Timed from 4 to 64 at p = 16843 and 499979 (m = p^5, p^9),
# 16 to 64 were within noise of each other and 4 and 8 slower.
BINOM_BLOCK = 16


def binom_central_int(p: int, m: int) -> int:
    """prod_{k=1}^{p-1} (p+k)/k mod m: numerator and denominator accumulated
    separately, each ``BINOM_BLOCK`` consecutive factors as one exact product
    and one reduction, and one extended gcd at the end."""
    num = den = 1
    for lo in range(1, p, BINOM_BLOCK):
        hi = min(lo + BINOM_BLOCK, p)
        num = num * math.prod(range(p + lo, p + hi)) % m
        den = den * math.prod(range(lo, hi)) % m
    return num * inv_int(den, m) % m


class CheckContext:
    """Per-prime cache of every value the checks share.

    Each value is computed once and returned mod m = p^w_max, w_max one
    above the largest required exponent the context judges; ``_judge``
    refuses a check judged at w > w_max.  The binomial, R_1..R_j and
    H_1..H_j come from one half-range pass at j = max(1, harmonic_order),
    made here, at every odd prime: they are p-integral at any p, and
    Newton's identities divide by 1..k, so H_k needs k < p (no row reads H_3
    or beyond below p = 11).  A read of R_n or H_k above j raises
    InternalInconsistency.  Bernoulli residues B(index, r) come from one
    power-sum table by extraction at p >= 11, and from exact B_n at p = 5, 7;
    ``bernoulli_prec`` is the largest r the rows may read, and sizes that
    table.
    """

    def __init__(self, p: int, w_max: int, bernoulli_prec: int = 5, harmonic_order: int = 2):
        if not is_odd_prime(p):
            raise InvalidInput(f"{p} is not an odd prime")
        self.p = p
        self.w_max = w_max
        self.bernoulli_prec = bernoulli_prec
        self.harmonic_order = j = max(harmonic_order, 1)
        self.m = m = p**w_max
        self._binom, s = half_range_moments(p, m, j)
        self._r = {n: inverse_power_sum_from_moments(s, p, m, n) for n in range(1, j + 1)}
        self._h = newton_elementary_ints(self._r, min(j, p - 1), m, p)
        self._b: dict[tuple[int, int], int] = {}
        self._sums: bn.PowerSums | None = None

    def binom(self) -> int:
        return self._binom

    def R(self, n: int) -> int:
        if n not in self._r:
            raise InternalInconsistency(f"R_{n} read from a context sized for R_{self.harmonic_order}")
        return self._r[n]

    def H(self, k: int) -> int:
        if k not in self._h:
            if self.p <= k <= self.harmonic_order:
                raise NotInvertible(f"p={self.p} too small to divide by 1..{k}")
            raise InternalInconsistency(f"H_{k} read from a context sized for H_{self.harmonic_order}")
        return self._h[k]

    def B(self, index: int, r: int) -> int:
        """B_index mod p^r, for r up to ``bernoulli_prec``.  At p >= 11
        extracted from the context's one table, even within the exact cap,
        where bernoulli_mod checks it against the exact value: every index a
        row reads is p^j(p-1) - 2 or - 4, and a row that reads - 4 at r
        also reads some B at r + 2 or more, so index p-3's table at
        ``bernoulli_prec`` serves all.  Below 11, where only eq1.2-bernoulli
        reads B_{p-3}, no table is built, so bernoulli_mod takes exact B_n."""
        if r > self.bernoulli_prec:
            raise InternalInconsistency(f"B mod p^{r} read from a context sized for p^{self.bernoulli_prec}")
        if (index, r) not in self._b:
            if self.p >= 11 and self._sums is None:
                self._sums = bn.power_sum_table(self.p - 3, self.p, self.bernoulli_prec)
            self._b[index, r] = bn.bernoulli_mod(index, self.p, r, sums=self._sums)
        return self._b[index, r]


def _eq13(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    # every p^k * B term gets B at precision w - k, w = 7 the working exponent
    rhs = (1 - p**3 * c.B(p**3 - p**2 - 2, 4) + inv_int(3, m) * p**5 * c.B(p - 3, 2)
           - 6 * inv_int(5, m) * p**5 * c.B(p - 5, 2))
    return c.binom(), rhs


def _eq15(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    # the p^6 coefficient carries +B_{p-3}/3: the -1/3 variant is off by
    # exactly one exponent for every prime (see the R_2 note at _lemma35iii)
    b3, b5 = c.B(p - 3, 2), c.B(p - 5, 2)
    rhs = (1 - p**3 * c.B(p**4 - p**3 - 2, 5)
           + p**5 * (inv_int(2, m) * c.B(p**2 - p - 4, 3) - 2 * c.B(p**4 - p**3 - 4, 3))
           + p**6 * (2 * inv_int(9, m) * b3 * b3 + inv_int(3, m) * b3 - inv_int(10, m) * b5))
    return c.binom(), rhs


def _chain29(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    r1, r2, r3, r4 = (c.R(n) for n in (1, 2, 3, 4))
    rhs = (1 + p * r1 + inv_int(2, m) * p**2 * (r1 * r1 - r2) + inv_int(6, m) * p**3 * (2 * r3 - 3 * r1 * r2)
           + inv_int(8, m) * p**4 * (r2 * r2 - 2 * r4))
    return c.binom(), rhs


def _chain212(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    r1, r2, r3 = (c.R(n) for n in (1, 2, 3))
    rhs = (1 + p * r1 + inv_int(2, m) * p**2 * (r1 * r1 - r2) - 3 * inv_int(4, m) * p**3 * r1 * r2
           + inv_int(2, m) * p**3 * r3)
    return c.binom(), rhs


def _lemma35i(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    rhs = (-inv_int(2, m) * p**2 * c.B(p**4 - p**3 - 2, 5) - inv_int(4, m) * p**4 * c.B(p**2 - p - 4, 3)
           + inv_int(6, m) * p**5 * c.B(p - 3, 2) + inv_int(20, m) * p**5 * c.B(p - 5, 2))
    return c.R(1), rhs


def _lemma35iii(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    # R_2 = p*B_{p^4-p^3-2} + p^3*B_{p^4-p^3-4} - (p^4/3)*B_{p-3}  (mod p^5).
    # The last term arises because R_2 = P_{p^5-p^4-2} mod p^5 and reducing
    # that Bernoulli index to p^4-p^3-2 rescales by 1 - p^3/2 * ... ; the
    # two-term variant without it only ever reaches valuation 4.
    rhs = (p * c.B(p**4 - p**3 - 2, 5) + p**3 * c.B(p**4 - p**3 - 4, 3)
           - inv_int(3, m) * p**4 * c.B(p - 3, 2))
    return c.R(2), rhs


def _tauraso_r2(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    return c.binom(), 1 - 2 * p * c.R(1) - 2 * p * p * c.R(2)


def _tauraso_r3(c: CheckContext, p: int, m: int) -> tuple[int, int]:
    return c.binom(), 1 + 2 * p * c.R(1) + 2 * inv_int(3, m) * p**3 * c.R(3)


class CheckDef(NamedTuple):
    """One registry row: ``sides(ctx, p, m)`` gives (lhs, rhs), each mod
    m = ctx.m, and ``_judge`` compares them at w = required + 1.  At each of
    ``identity_primes`` the two sides are one integer, reported as identity.
    What the row reads from ctx is not declared: ``row_reads`` finds it."""

    name: str
    required: int
    applicable: Callable[[int, CheckContext], bool]
    sides: Callable[[CheckContext, int, int], tuple[int, int]]
    identity_primes: tuple[int, ...] = ()


@functools.cache
def row_reads(d: CheckDef) -> tuple[int, int]:
    """(harmonic_order, bernoulli_prec) of row d: the largest n of the R(n)
    and H(n) and the largest r of the B(index, r) it reads, its applicability
    test included, 0 for none.  Found by running the row once at p = 11, where
    every row's sides compute, on a stand-in context whose every value is 1;
    no row's reads depend on p."""
    orders, precs = [0], [0]
    c = types.SimpleNamespace(binom=lambda: 1, R=lambda n: orders.append(n) or 1,
                              H=lambda n: orders.append(n) or 1, B=lambda index, r: precs.append(r) or 1)
    d.applicable(11, c)
    d.sides(c, 11, 11**8)
    return max(orders), max(precs)


def _min_p(bound: int) -> Callable[[int, CheckContext], bool]:
    return lambda p, c: p >= bound


P5, P7, P11 = _min_p(5), _min_p(7), _min_p(11)


def _is_wolstenholme(p: int, c: CheckContext) -> bool:
    return p >= 5 and residual_valuation(c.R(1), p, 4) >= 3


REGISTRY: dict[str, CheckDef] = {d.name: d for d in [
    CheckDef("eq1.1", 3, P5, lambda c, p, m: (c.binom(), 1)),
    # Glaisher's mod-p^4 forms.  The harmonic side takes the +2p sign, matching
    # the mod-p^5 form it weakens to; with -2p the difference is 4p^2*H_2,
    # which has valuation exactly 3 at a generic prime.
    CheckDef("eq1.2-harmonic", 4, P5, lambda c, p, m: (c.binom(), 1 + 2 * p * c.R(1))),
    CheckDef("eq1.2-bernoulli", 4, P5, lambda c, p, m: (
        c.binom(), 1 - 2 * inv_int(3, m) * p**3 * c.B(p - 3, 2))),
    # the paper's Theorem 1.1; at p = 3, 5 both sides are the same integer
    CheckDef("thm1.1", 7, lambda p, c: p in (3, 5) or p >= 11, lambda c, p, m: (
        c.binom(), 1 - 2 * p * c.R(1) + 4 * p * p * c.H(2)), identity_primes=(3, 5)),
    CheckDef("eq1.3", 6, P11, _eq13),
    CheckDef("eq1.5", 7, P11, _eq15),
    CheckDef("cor1.4-r2", 6, P7, _tauraso_r2),
    CheckDef("cor1.4-r3", 6, P7, _tauraso_r3),
    CheckDef("cor1.5-r1", 5, P7, lambda c, p, m: (c.binom(), 1 + 2 * p * c.R(1))),
    CheckDef("cor1.5-r2", 5, P7, lambda c, p, m: (c.binom(), 1 - p * p * c.R(2))),
    # Tauraso's two forms hold one level higher at Wolstenholme primes
    CheckDef("eq1.6-r2", 7, _is_wolstenholme, _tauraso_r2),
    CheckDef("eq1.6-r3", 7, _is_wolstenholme, _tauraso_r3),
    # E = 2R_1 - p*R_1^2 + p*R_2 + (p^2/3)*R_3 = -(1/9)p^5*B_{p-3}^2 (derived in
    # README), so E = 0 mod p^6 exactly at Wolstenholme primes; B at w - 5, w = 7
    CheckDef("rem1.5", 6, P11, lambda c, p, m: (
        2 * c.R(1) - p * c.R(1) ** 2 + p * c.R(2) + inv_int(3, m) * p * p * c.R(3),
        -inv_int(9, m) * p**5 * c.B(p - 3, 2) ** 2)),
    *[CheckDef(f"lemma2.1-n{n}", 2 if n % 2 else 1, P11, lambda c, p, m, n=n: (c.R(n), 0))
      for n in range(1, 7)],
    CheckDef("lemma2.2-h3", 6, P11, lambda c, p, m: (
        c.H(3), inv_int(3, m) * c.R(3) - inv_int(2, m) * c.R(1) * c.R(2))),
    CheckDef("lemma2.2-h4", 4, P11, lambda c, p, m: (
        c.H(4), -inv_int(4, m) * c.R(4) + inv_int(8, m) * c.R(2) ** 2)),
    # 2*R_1 = -sum_{i=1}^{r} p^i * R_{i+1}  (mod p^(r+1))
    *[CheckDef(f"lemma2.3-r{r}", r + 1, P11, lambda c, p, m, r=r: (
        2 * c.R(1), -sum(p**i * c.R(i + 1) for i in range(1, r + 1))))
      for r in range(1, 7)],
    CheckDef("lemma2.4-a", 4, P11, lambda c, p, m: (2 * c.R(1), -p * c.R(2))),
    CheckDef("lemma2.4-b", 4, P11, lambda c, p, m: (2 * c.R(3), -3 * p * c.R(4))),
    CheckDef("chain2.8", 7, P11, lambda c, p, m: (
        c.binom(), 1 + sum(p**k * c.H(k) for k in range(1, 5)))),
    CheckDef("chain2.9", 7, P11, _chain29),
    CheckDef("chain2.12", 7, P11, _chain212),
    CheckDef("chain2.13", 6, P11, lambda c, p, m: (
        2 * c.R(1), -p * c.R(2) - p**2 * c.R(3) - p**3 * c.R(4))),
    CheckDef("chain2.14", 7, P11, lambda c, p, m: (
        p**3 * c.R(3), -6 * p * c.R(1) - 3 * p * p * c.R(2))),
    CheckDef("chain2.15", 7, P11, lambda c, p, m: (c.binom(), (
        1 - 2 * p * c.R(1) - 2 * p * p * c.R(2)
        + inv_int(4, m) * p * p * c.R(1) * (2 * c.R(1) - 3 * p * c.R(2))))),
    CheckDef("chain2.16", 7, P11, lambda c, p, m: (
        c.binom(), 1 - 2 * p * c.R(1) + 2 * p * p * (c.R(1) ** 2 - c.R(2)))),
    CheckDef("hsum-h5", 2, P11, lambda c, p, m: (c.H(5), 0)),
    CheckDef("hsum-h6", 1, P11, lambda c, p, m: (c.H(6), 0)),
    CheckDef("lemma3.5i", 6, P11, _lemma35i),
    CheckDef("lemma3.5ii", 5, P11, lambda c, p, m: (
        c.R(1) ** 2, inv_int(9, m) * p**4 * c.B(p - 3, 2) ** 2)),
    CheckDef("lemma3.5iii", 5, P11, _lemma35iii),
    CheckDef("kummer3.3", 2, lambda p, c: 7 <= p and 4 + 2 * (p - 1) <= bn.DEFAULT_EXACT_CAP,
             lambda c, p, m: (bn.kummer_alternating_sum(4, p, 2), 0)),
]}

GROUP_ALIASES = {
    "eq1.2": ["eq1.2-harmonic", "eq1.2-bernoulli"],
    "cor1.4": ["cor1.4-r2", "cor1.4-r3"],
    "cor1.5": ["cor1.5-r1", "cor1.5-r2"],
    "eq1.6": ["eq1.6-r2", "eq1.6-r3"],
    "lemma2.1": [f"lemma2.1-n{n}" for n in range(1, 7)],
    "lemma2.2": ["lemma2.2-h3", "lemma2.2-h4"],
    "lemma2.3": [f"lemma2.3-r{r}" for r in range(1, 7)],
    "lemma2.4": ["lemma2.4-a", "lemma2.4-b"],
    "chain": ["chain2.8", "chain2.9", "chain2.12", "chain2.13", "chain2.14", "chain2.15", "chain2.16"],
    "hsum": ["hsum-h5", "hsum-h6"],
    "lemma3.5": ["lemma3.5i", "lemma3.5ii", "lemma3.5iii"],
}


def expand_selection(selection: Iterable[str] | None) -> list[str]:
    """Resolve names and group aliases into registry order; None means all."""
    if selection is None:
        return list(REGISTRY)
    wanted: set[str] = set()
    for name in selection:
        if name == "all":
            return list(REGISTRY)
        if name in GROUP_ALIASES:
            wanted.update(GROUP_ALIASES[name])
        elif name in REGISTRY:
            wanted.add(name)
        else:
            raise UnknownCheckName(f"unknown check {name!r}")
    return [n for n in REGISTRY if n in wanted]


def _context(p: int, rows: list[CheckDef], e: int) -> CheckContext:
    """A context at p^(e+1) for the largest R_n, H_k and Bernoulli precision
    that ``rows`` read (``row_reads``), and no more."""
    orders, precs = zip((0, 0), *map(row_reads, rows))
    return CheckContext(p, e + 1, bernoulli_prec=max(precs), harmonic_order=max(orders))


def _judge(d: CheckDef, p: int, ctx: CheckContext, required: int) -> dict:
    """Row d's sides at p, judged by make_report at w = required + 1."""
    if required + 1 > ctx.w_max:
        raise InvalidInput(f"context built at exponent {ctx.w_max}, asked for {required + 1}")
    lhs, rhs = d.sides(ctx, p, ctx.m)
    identity = p in d.identity_primes
    if identity and (lhs - rhs) % ctx.m:
        raise InternalInconsistency(f"identity case failed at p={p}: {rhs % ctx.m} vs {lhs % ctx.m}")
    return make_report(d.name, p, required, lhs, rhs, identity=identity)


def run_suite(p: int, selection: Iterable[str] | None = None, ctx: CheckContext | None = None) -> list[dict]:
    """Run the selected checks for one prime, in registry order.

    Checks whose preconditions exclude the prime yield make_report's n/a
    row rather than pass/fail.  A context built here is sized by the
    selected rows (``_context``).
    """
    names = expand_selection(selection)
    if ctx is None:
        rows = [REGISTRY[n] for n in names]
        ctx = _context(p, rows, max((d.required for d in rows), default=0))
    out = []
    for name in names:
        d = REGISTRY[name]
        out.append(_judge(d, p, ctx, d.required) if d.applicable(p, ctx) else make_report(name, p, d.required))
    return out


def check_theorem_main(p: int, e: int = 7) -> dict:
    """The central congruence C(2p-1, p-1) = 1 - 2p*H_1 + 4p^2*H_2 mod p^e:
    the thm1.1 row judged at required exponent e, from a context of its own
    at p^(e+1).

    Unlike run_suite it ignores the row's applicability, so p = 7 can be
    judged too: it is expected to hold at e = 6 only.  At p = 3, 5 the report
    is an identity.
    """
    if p < 3:
        raise InvalidInput("requires p >= 3")
    if e < 1:
        raise InvalidInput("exponent must be >= 1")
    d = REGISTRY["thm1.1"]
    return _judge(d, p, _context(p, [d], e), e)
