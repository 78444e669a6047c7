"""Named verifiers for the congruence family around C(2p-1, p-1).

Each check is one row of REGISTRY: a name, the required exponent, an
applicability test and a ``sides`` function giving two independently
computed sides.  run_suite walks the rows in a fixed order and judges each
in Z/p^w at the working exponent w = required + 1, so every report can tell
"holds exactly at the required level" apart from "holds one level higher".
A per-prime CheckContext caches the sums and products the rows share, as
plain ints mod p^w_max, for every odd prime.  It fills them from
``sums.half_range_moments``: one pass over k <= (p-1)/2 gives C(2p-1, p-1)
and the moments S_1, S_2, enough for the binomial, R_1, R_2 and H_2; a row
that reads R_3 or beyond costs one more pass for S_1..S_7, and each R_n
follows from the S_j by Dickson's identity.  H_k follows from the R_n by
Newton's identities.  No row reads above w = 8, so run_suite builds its
context at p^8.

``binom_central_int`` (the unit product (1 + p/1)...(1 + p/(p-1)) over all
p-1 terms, one deferred inversion) is the full-range route to the binomial
that the search re-verifies hits with and the tests compare the kernel to.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable

from . import bernoulli as bn
from .errors import InternalInconsistency, InvalidInput, UnknownCheckName
from .modring import inv_int, is_prime, range_inverses, residual_valuation
from .report import CongruenceReport, make_report, not_applicable
from .sums import half_range_moments, inverse_power_sum_from_moments, inverse_power_sums_ints, newton_elementary_ints

# The benchmark's traced spans (bench/child.py SPANS) patch range_inverses and
# inverse_power_sums_ints in this namespace.  No check calls them any more;
# they stay importable here so those spans install and count 0 calls.


def binom_central_int(p: int, m: int) -> int:
    """prod_{k=1}^{p-1} (p+k)/k mod m: numerator and denominator accumulated
    separately, one extended gcd at the end."""
    num = 1
    den = 1
    for k in range(1, p):
        num = num * (p + k) % m
        den = den * k % m
    return num * inv_int(den, m) % m


class CheckContext:
    """Per-prime cache of the sums and products the checks share.

    Everything is computed once, mod p^w_max, from the half-range kernel and
    reduced to p^w per check; asking for w above w_max raises.  The same path
    serves every odd prime: the binomial and the R_n are p-integral at any p,
    and Newton's identities divide by 1..k_max, so H_3..H_6 need p >= 7 (no
    row reads them below p = 11).
    """

    def __init__(self, p: int, w_max: int = 8):
        if p < 3 or not is_prime(p):
            raise InvalidInput(f"{p} is not an odd prime")
        self.p = p
        self.w_max = w_max
        self.m = p**w_max
        self._binom = 0
        self._s: list[int] = []
        self._r: dict[int, int] = {}
        self._h: dict[int, int] = {}

    def _ensure_s(self, j: int) -> None:
        """The binomial and S_1..S_j from one half-range pass.  The first
        pass takes S_1, S_2 (all that binom, R_1, R_2 and H_2 need); a
        request beyond that takes every moment R_1..R_7 need in one more."""
        if len(self._s) > j:
            return
        j_max = 2 if j <= 2 else max(j, 7)
        self._binom, self._s = half_range_moments(self.p, self.m, j_max)

    def _ensure_r(self, n_max: int) -> None:
        self._ensure_s(n_max)
        for n in range(1, n_max + 1):
            if n not in self._r:
                self._r[n] = inverse_power_sum_from_moments(self._s, self.p, self.m, n)

    def _ensure_h(self, k: int) -> None:
        """H_1..H_k by Newton's identities, in the same two steps as the
        moments: H_1, H_2 first (the main congruence's), then every H a row
        reads, H_1..H_6, in one more run."""
        if k in self._h:
            return
        k_max = 2 if k <= 2 else max(k, 6)
        self._ensure_r(k_max)
        self._h = newton_elementary_ints(self._r, k_max, self.m, self.p)

    def _check_w(self, w: int) -> int:
        if w > self.w_max:
            raise InvalidInput(f"context built at exponent {self.w_max}, asked for {w}")
        return self.p**w

    def binom(self, w: int) -> int:
        mw = self._check_w(w)
        self._ensure_s(2)
        return self._binom % mw

    def R(self, n: int, w: int) -> int:
        mw = self._check_w(w)
        self._ensure_r(n)
        return self._r[n] % mw

    def H(self, k: int, w: int) -> int:
        mw = self._check_w(w)
        self._ensure_h(k)
        return self._h[k] % mw

    def wolstenholme_valuation(self) -> int:
        """v_p(R_1) seen in Z/p^4, saturated at 4."""
        return residual_valuation(self.R(1, 4), self.p, 4)


def check_theorem_main(p: int, e: int = 7, ctx: CheckContext | None = None) -> CongruenceReport:
    """The central congruence: C(2p-1, p-1) = 1 - 2p*H_1 + 4p^2*H_2 mod p^e.

    For p in {3, 5} both sides coincide as exact integers; p = 7 is expected
    to hold at e = 6 only.
    """
    if p < 3:
        raise InvalidInput("requires p >= 3")
    if e < 1:
        raise InvalidInput("exponent must be >= 1")
    w = e + 1
    if ctx is None:
        ctx = CheckContext(p, max(w, 8))
    if p in (3, 5):
        lhs = math.comb(2 * p - 1, p - 1)
        invs = [Fraction(1, k) for k in range(1, p)]
        h1 = sum(invs)
        h2 = (h1 * h1 - sum(x * x for x in invs)) / 2
        rhs_fr = 1 - 2 * p * h1 + 4 * p * p * h2
        if rhs_fr.denominator != 1 or rhs_fr != lhs:
            raise InternalInconsistency(f"identity case failed at p={p}: {rhs_fr} vs {lhs}")
        return make_report("thm1.1", p, e, lhs % p**w, int(rhs_fr) % p**w, w, identity=True)
    rhs = 1 - 2 * p * ctx.R(1, w) + 4 * p * p * ctx.H(2, w)
    return make_report("thm1.1", p, e, ctx.binom(w), rhs, w)


@functools.lru_cache(maxsize=4096)
def _bmod(index: int, p: int, r: int) -> int:
    """Bernoulli residue through the reduction + extraction pipeline."""
    return bn.bernoulli_mod(index, p, r, use_exact_oracle=False)


def _eq13(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    # every p^k * B term gets B at precision w - k
    rhs = (1 - p**3 * _bmod(p**3 - p**2 - 2, p, 4) + inv_int(3, m) * p**5 * _bmod(p - 3, p, 2)
           - 6 * inv_int(5, m) * p**5 * _bmod(p - 5, p, 2))
    return c.binom(w), rhs


def _eq15(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    # the p^6 coefficient carries +B_{p-3}/3: the -1/3 variant is off by
    # exactly one exponent for every prime (see the R_2 note at _lemma35iii)
    b3, b5 = _bmod(p - 3, p, 2), _bmod(p - 5, p, 2)
    rhs = (1 - p**3 * _bmod(p**4 - p**3 - 2, p, 5)
           + p**5 * (inv_int(2, m) * _bmod(p**2 - p - 4, p, 3) - 2 * _bmod(p**4 - p**3 - 4, p, 3))
           + p**6 * (2 * inv_int(9, m) * b3 * b3 + inv_int(3, m) * b3 - inv_int(10, m) * b5))
    return c.binom(w), rhs


def _chain29(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    r1, r2, r3, r4 = (c.R(n, w) for n in (1, 2, 3, 4))
    rhs = (1 + p * r1 + inv_int(2, m) * p**2 * (r1 * r1 - r2) + inv_int(6, m) * p**3 * (2 * r3 - 3 * r1 * r2)
           + inv_int(8, m) * p**4 * (r2 * r2 - 2 * r4))
    return c.binom(w), rhs


def _chain212(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    r1, r2, r3 = (c.R(n, w) for n in (1, 2, 3))
    rhs = (1 + p * r1 + inv_int(2, m) * p**2 * (r1 * r1 - r2) - 3 * inv_int(4, m) * p**3 * r1 * r2
           + inv_int(2, m) * p**3 * r3)
    return c.binom(w), rhs


def _lemma35i(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    rhs = (-inv_int(2, m) * p**2 * _bmod(p**4 - p**3 - 2, p, 5) - inv_int(4, m) * p**4 * _bmod(p**2 - p - 4, p, 3)
           + inv_int(6, m) * p**5 * _bmod(p - 3, p, 2) + inv_int(20, m) * p**5 * _bmod(p - 5, p, 2))
    return c.R(1, w), rhs


def _lemma35iii(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    # R_2 = p*B_{p^4-p^3-2} + p^3*B_{p^4-p^3-4} - (p^4/3)*B_{p-3}  (mod p^5).
    # The last term arises because R_2 = P_{p^5-p^4-2} mod p^5 and reducing
    # that Bernoulli index to p^4-p^3-2 rescales by 1 - p^3/2 * ... ; the
    # two-term variant without it only ever reaches valuation 4.
    rhs = (p * _bmod(p**4 - p**3 - 2, p, 5) + p**3 * _bmod(p**4 - p**3 - 4, p, 3)
           - inv_int(3, m) * p**4 * _bmod(p - 3, p, 2))
    return c.R(2, w), rhs


def _tauraso_r2(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    return c.binom(w), 1 - 2 * p * c.R(1, w) - 2 * p * p * c.R(2, w)


def _tauraso_r3(c: CheckContext, p: int, w: int, m: int) -> tuple[int, int]:
    return c.binom(w), 1 + 2 * p * c.R(1, w) + 2 * inv_int(3, m) * p**3 * c.R(3, w)


@dataclass(frozen=True)
class CheckDef:
    """One registry row, judged at working exponent w = required + 1.

    ``sides(ctx, p, w, m)`` gives (lhs, rhs) to compare mod m = p^w; a row
    with ``report`` instead builds its whole report.
    """

    name: str
    required: int
    applicable: Callable[[int, CheckContext], bool]
    sides: Callable[[CheckContext, int, int, int], tuple[int, int]] | None = None
    report: Callable[[int, CheckContext], CongruenceReport] | None = None
    data_only: bool = False


def _min_p(bound: int) -> Callable[[int, CheckContext], bool]:
    return lambda p, c: p >= bound


P5, P7, P11 = _min_p(5), _min_p(7), _min_p(11)


def _is_wolstenholme(p: int, c: CheckContext) -> bool:
    return p >= 5 and c.wolstenholme_valuation() >= 3


REGISTRY: dict[str, CheckDef] = {d.name: d for d in [
    CheckDef("eq1.1", 3, P5, lambda c, p, w, m: (c.binom(w), 1)),
    # Glaisher's mod-p^4 forms.  The harmonic side takes the +2p sign, matching
    # the mod-p^5 form it weakens to; with -2p the difference is 4p^2*H_2,
    # which has valuation exactly 3 at a generic prime.
    CheckDef("eq1.2-harmonic", 4, P5, lambda c, p, w, m: (c.binom(w), 1 + 2 * p * c.R(1, w))),
    CheckDef("eq1.2-bernoulli", 4, P5, lambda c, p, w, m: (
        c.binom(w), 1 - 2 * inv_int(3, m) * p**3 * bn.bernoulli_mod(p - 3, p, 2))),
    CheckDef("thm1.1", 7, lambda p, c: p in (3, 5) or p >= 11,
             report=lambda p, c: check_theorem_main(p, 7, c)),
    CheckDef("eq1.3", 6, P11, _eq13),
    CheckDef("eq1.5", 7, P11, _eq15),
    CheckDef("cor1.4-r2", 6, P7, _tauraso_r2),
    CheckDef("cor1.4-r3", 6, P7, _tauraso_r3),
    CheckDef("cor1.5-r1", 5, P7, lambda c, p, w, m: (c.binom(w), 1 + 2 * p * c.R(1, w))),
    CheckDef("cor1.5-r2", 5, P7, lambda c, p, w, m: (c.binom(w), 1 - p * p * c.R(2, w))),
    # Tauraso's two forms hold one level higher at Wolstenholme primes
    CheckDef("eq1.6-r2", 7, _is_wolstenholme, _tauraso_r2),
    CheckDef("eq1.6-r3", 7, _is_wolstenholme, _tauraso_r3),
    # 2R_1 - p*R_1^2 + p*R_2 + (p^2/3)*R_3 against 0, recorded for inspection
    # only: no prime is expected to satisfy it short of being a Wolstenholme
    # prime, and the converse is open.
    CheckDef("rem1.5-data", 6, P11, lambda c, p, w, m: (
        2 * c.R(1, w) - p * c.R(1, w) ** 2 + p * c.R(2, w) + inv_int(3, m) * p * p * c.R(3, w), 0),
        data_only=True),
    *[CheckDef(f"lemma2.1-n{n}", 2 if n % 2 else 1, P11, lambda c, p, w, m, n=n: (c.R(n, w), 0))
      for n in range(1, 7)],
    CheckDef("lemma2.2-h3", 6, P11, lambda c, p, w, m: (
        c.H(3, w), inv_int(3, m) * c.R(3, w) - inv_int(2, m) * c.R(1, w) * c.R(2, w))),
    CheckDef("lemma2.2-h4", 4, P11, lambda c, p, w, m: (
        c.H(4, w), -inv_int(4, m) * c.R(4, w) + inv_int(8, m) * c.R(2, w) ** 2)),
    # 2*R_1 = -sum_{i=1}^{r} p^i * R_{i+1}  (mod p^(r+1))
    *[CheckDef(f"lemma2.3-r{r}", r + 1, P11, lambda c, p, w, m, r=r: (
        2 * c.R(1, w), -sum(p**i * c.R(i + 1, w) for i in range(1, r + 1)))) for r in range(1, 7)],
    CheckDef("lemma2.4-a", 4, P11, lambda c, p, w, m: (2 * c.R(1, w), -p * c.R(2, w))),
    CheckDef("lemma2.4-b", 4, P11, lambda c, p, w, m: (2 * c.R(3, w), -3 * p * c.R(4, w))),
    CheckDef("chain2.8", 7, P11, lambda c, p, w, m: (c.binom(w), 1 + sum(p**k * c.H(k, w) for k in range(1, 5)))),
    CheckDef("chain2.9", 7, P11, _chain29),
    CheckDef("chain2.12", 7, P11, _chain212),
    CheckDef("chain2.13", 6, P11, lambda c, p, w, m: (
        2 * c.R(1, w), -p * c.R(2, w) - p**2 * c.R(3, w) - p**3 * c.R(4, w))),
    CheckDef("chain2.14", 7, P11, lambda c, p, w, m: (p**3 * c.R(3, w), -6 * p * c.R(1, w) - 3 * p * p * c.R(2, w))),
    CheckDef("chain2.15", 7, P11, lambda c, p, w, m: (c.binom(w), (
        1 - 2 * p * c.R(1, w) - 2 * p * p * c.R(2, w)
        + inv_int(4, m) * p * p * c.R(1, w) * (2 * c.R(1, w) - 3 * p * c.R(2, w))))),
    CheckDef("chain2.16", 7, P11, lambda c, p, w, m: (
        c.binom(w), 1 - 2 * p * c.R(1, w) + 2 * p * p * (c.R(1, w) ** 2 - c.R(2, w)))),
    CheckDef("hsum-h5", 2, P11, lambda c, p, w, m: (c.H(5, w), 0)),
    CheckDef("hsum-h6", 1, P11, lambda c, p, w, m: (c.H(6, w), 0)),
    CheckDef("lemma3.5i", 6, P11, _lemma35i),
    CheckDef("lemma3.5ii", 5, P11, lambda c, p, w, m: (
        c.R(1, w) ** 2, inv_int(9, m) * p**4 * _bmod(p - 3, p, 2) ** 2)),
    CheckDef("lemma3.5iii", 5, P11, _lemma35iii),
    CheckDef("kummer3.3", 2, lambda p, c: 7 <= p and 4 + 2 * (p - 1) <= bn.DEFAULT_EXACT_CAP,
             report=lambda p, c: replace(bn.kummer_alternating_check(4, p, 2), name="kummer3.3")),
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


def registry_names() -> list[str]:
    return list(REGISTRY)


def expand_selection(selection: Iterable[str] | None) -> list[str]:
    """Resolve names and group aliases into registry order; None means all."""
    if selection is None:
        return registry_names()
    wanted: set[str] = set()
    for name in selection:
        if name == "all":
            return registry_names()
        if name in GROUP_ALIASES:
            wanted.update(GROUP_ALIASES[name])
        elif name in REGISTRY:
            wanted.add(name)
        else:
            raise UnknownCheckName(f"unknown check {name!r}")
    return [n for n in registry_names() if n in wanted]


def run_suite(p: int, selection: Iterable[str] | None = None, ctx: CheckContext | None = None) -> list[CongruenceReport]:
    """Run the selected checks for one prime, in registry order.

    Checks whose preconditions exclude the prime yield not-applicable
    reports rather than pass/fail.
    """
    names = expand_selection(selection)
    if ctx is None:
        ctx = CheckContext(p)
    out = []
    for name in names:
        d = REGISTRY[name]
        if not d.applicable(p, ctx):
            out.append(not_applicable(name, p, d.required))
        elif d.report is not None:
            out.append(d.report(p, ctx))
        else:
            w = d.required + 1
            lhs, rhs = d.sides(ctx, p, w, p**w)
            out.append(make_report(name, p, d.required, lhs, rhs, w, data_only=d.data_only))
    return out
