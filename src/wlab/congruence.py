"""Named verifiers for the congruence family around C(2p-1, p-1).

Each check is one row of REGISTRY: a name, the required exponent, an
applicability test and a ``sides`` function giving two independently
computed sides.  run_suite walks the rows in a fixed order and judges each
in Z/p^w at the working exponent w = required + 1, so every report can tell
"holds exactly at the required level" apart from "holds one level higher".
A per-prime CheckContext caches the sums and products the rows share.

The two routes to the central binomial coefficient:

* ``binom_central``: the unit product (1 + p/1)(1 + p/2)...(1 + p/(p-1))
  taken in Z/p^e with one deferred inversion, O(p) multiplications;
* ``binom_exact_oracle``: the exact integer binomial, reduced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable

from . import bernoulli as bn
from .errors import CapExceeded, InternalInconsistency, InvalidInput, UnknownCheckName
from .modring import Residue, inv_int, is_prime, range_inverses, residual_valuation, ring_new
from .report import CongruenceReport, make_report, not_applicable
from .sums import inverse_power_sums_ints, newton_elementary_ints

BINOM_ORACLE_CAP = 10**4


def binom_central_int(p: int, m: int) -> int:
    """prod_{k=1}^{p-1} (p+k)/k mod m: numerator and denominator accumulated
    separately, one extended gcd at the end."""
    num = 1
    den = 1
    for k in range(1, p):
        num = num * (p + k) % m
        den = den * k % m
    return num * inv_int(den, m) % m


def binom_central(p: int, e: int) -> Residue:
    """C(2p-1, p-1) mod p^e via the unit product; O(p) time."""
    ring = ring_new(p, e)
    return ring.residue(binom_central_int(p, ring.modulus))


def binom_exact_oracle(p: int, e: int, cap: int = BINOM_ORACLE_CAP) -> Residue:
    """C(2p-1, p-1) as an exact big integer, reduced mod p^e."""
    if p > cap:
        raise CapExceeded(f"p={p} above oracle cap {cap}")
    ring = ring_new(p, e)
    return ring.residue(math.comb(2 * p - 1, p - 1))


class CheckContext:
    """Per-prime cache of the sums and products the checks share.

    For p >= 11 everything is computed modularly at a single ceiling
    exponent and reduced per check.  For p < 11 the harmonic quantities are
    exact rationals (no division hazards at tiny primes), reduced on demand.
    """

    def __init__(self, p: int, w_max: int = 8):
        if p < 3 or not is_prime(p):
            raise InvalidInput(f"{p} is not an odd prime")
        self.p = p
        self.w_max = w_max
        self.m = p**w_max
        self.exact = p < 11
        self._binom: int | None = None
        self._r: dict[int, int] = {}
        self._h: dict[int, int] = {}
        self._fr_r: dict[int, Fraction] = {}
        self._fr_h: dict[int, Fraction] = {}

    # -- modular core ------------------------------------------------------

    def _ensure_core(self) -> None:
        if self._binom is not None or self.exact:
            return
        p, m = self.p, self.m
        invs = range_inverses(p, m)
        acc = 1
        r1 = r2 = r3 = 0
        for k in range(1, p):
            v = invs[k]
            acc = acc * (1 + p * v) % m
            v2 = v * v % m
            r1 += v
            r2 += v2
            r3 += v2 * v % m
        self._binom = acc
        self._r[1] = r1 % m
        self._r[2] = r2 % m
        self._r[3] = r3 % m

    def _ensure_r(self, n_max: int) -> None:
        if self.exact or all(n in self._r for n in range(1, n_max + 1)):
            return
        self._ensure_core()
        if n_max <= 3:
            return
        self._r.update(inverse_power_sums_ints(self.p, self.m, n_max))

    def _ensure_h(self, k_max: int) -> None:
        if self.exact or all(k in self._h for k in range(1, k_max + 1)):
            return
        self._ensure_r(max(k_max, 3))
        self._h = newton_elementary_ints(self._r, k_max, self.m, self.p)

    # -- exact-rational path for tiny primes --------------------------------

    def _frac_r(self, n: int) -> Fraction:
        if n not in self._fr_r:
            self._fr_r[n] = sum(Fraction(1, k**n) for k in range(1, self.p))
        return self._fr_r[n]

    def _frac_h(self, k: int) -> Fraction:
        if not self._fr_h:
            coeffs = [Fraction(1)]
            for i in range(1, self.p):
                nxt = coeffs + [Fraction(0)]
                for j in range(len(coeffs), 0, -1):
                    nxt[j] += coeffs[j - 1] / i
                coeffs = nxt
            for j, c in enumerate(coeffs):
                self._fr_h[j] = c
        return self._fr_h.get(k, Fraction(0))

    # -- accessors -----------------------------------------------------------

    def _check_w(self, w: int) -> int:
        if not self.exact and w > self.w_max:
            raise InvalidInput(f"context built at exponent {self.w_max}, asked for {w}")
        return self.p**w

    def binom(self, w: int) -> int:
        mw = self._check_w(w)
        if self.exact:
            return math.comb(2 * self.p - 1, self.p - 1) % mw
        self._ensure_core()
        return self._binom % mw

    def R(self, n: int, w: int) -> int:
        mw = self._check_w(w)
        if self.exact:
            return bn.fraction_mod(self._frac_r(n), mw)
        self._ensure_r(n)
        return self._r[n] % mw

    def H(self, k: int, w: int) -> int:
        mw = self._check_w(w)
        if self.exact:
            return bn.fraction_mod(self._frac_h(k), mw)
        if k == 2 and 2 not in self._h:
            self._ensure_core()
            r1, r2 = self._r[1], self._r[2]
            return (r1 * r1 - r2) * inv_int(2, self.m) % self.m % mw
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
        rhs_fr = 1 - 2 * p * ctx._frac_h(1) + 4 * p * p * ctx._frac_h(2)
        if rhs_fr.denominator != 1 or rhs_fr != lhs:
            raise InternalInconsistency(f"identity case failed at p={p}: {rhs_fr} vs {lhs}")
        return make_report("thm1.1", p, e, lhs % p**w, int(rhs_fr) % p**w, w, identity=True)
    rhs = 1 - 2 * p * ctx.R(1, w) + 4 * p * p * ctx.H(2, w)
    return make_report("thm1.1", p, e, ctx.binom(w), rhs, w)


@functools.lru_cache(maxsize=4096)
def _bmod(index: int, p: int, r: int) -> int:
    """Bernoulli residue through the reduction + extraction pipeline."""
    return bn.bernoulli_mod(index, p, r, use_exact_oracle=False).value


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
        c.binom(w), 1 - 2 * inv_int(3, m) * p**3 * bn.bernoulli_mod(p - 3, p, 2).value)),
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
        ctx = CheckContext(p, 9)
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
