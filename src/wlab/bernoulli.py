"""Bernoulli-number arithmetic.

Four layers:

* exact rationals for small indices (the oracle all modular paths are
  checked against),
* von Staudt-Clausen denominators,
* index reduction modulo p^(r-1)*(p-1), which shrinks astronomically
  large indices to workable representatives while preserving B_n/n mod p^r,
* extraction of B_n mod p^r from the power sums P_n(p), valid for p >= 11
  and r <= 5.

Extraction rests on the expansion of P_n(p) in Bernoulli numbers

    P_n(p) = sum over s >= 1 of  C(n, s-1)/s * p^s * B_{n+1-s},

truncatable at s = 6 when working mod p^6 with p >= 11.  The s = 1 term is
p*B_n; subtracting the s >= 2 tail and dividing by p yields B_n.  When a
tail index lands on a multiple of p-1 its Bernoulli number has p in the
denominator (exactly once, by von Staudt-Clausen), so the code extracts
the p-integral product p*B instead of B for those terms.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import (
    CapExceeded,
    IndexDivisible,
    InternalInconsistency,
    InvalidInput,
    KummerInapplicable,
    NotInvertible,
    PrecisionUnderflow,
)
from .modring import inv_int, is_prime
from .report import CongruenceReport, make_report
from .sums import power_sum_int

DEFAULT_EXACT_CAP = 2000

# ---------------------------------------------------------------------------
# exact values via tangent numbers
# ---------------------------------------------------------------------------

# The memo table is the only shared state in this module: lookups are
# GIL-atomic, extensions take the lock (idempotent double-checked fill).
_bern_cache: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
_bern_lock = threading.Lock()
_tangent_upto = 0


def _tangent_numbers(n: int) -> list[int]:
    """T_1..T_n (tan x = sum T_k x^(2k-1)/(2k-1)!), integer triangle scheme."""
    t = [0] * (n + 1)
    acc = 1
    t[1] = 1
    for k in range(2, n + 1):
        acc *= k - 1
        t[k] = acc
    for k in range(1, n):
        for j in range(k + 1, n + 1):
            t[j] = (j - k - 1) * t[j - 1] + (j - k + 1) * t[j]
    return t


def _fill_bernoulli(n_max: int) -> None:
    """Populate the cache with B_0..B_{n_max} exactly."""
    global _tangent_upto
    with _bern_lock:
        half = n_max // 2
        if half <= _tangent_upto:
            return
        half = max(half, 2 * _tangent_upto, 32)
        t = _tangent_numbers(half)
        for k in range(1, half + 1):
            num = 2 * k * t[k]
            den = (1 << (2 * k)) * ((1 << (2 * k)) - 1)
            b = Fraction(num, den)
            _bern_cache[2 * k] = b if k % 2 == 1 else -b
        _tangent_upto = half


def _bern(n: int) -> Fraction:
    if n < 0:
        raise InvalidInput("Bernoulli index must be non-negative")
    if n % 2 == 1:
        return Fraction(0) if n > 1 else Fraction(-1, 2)
    if n not in _bern_cache:
        _fill_bernoulli(n)
    return _bern_cache[n]


def exact_bernoulli(n: int, cap: int = DEFAULT_EXACT_CAP) -> Fraction:
    """Exact rational B_n; memoized; indices above the cap are refused."""
    if n < 0:
        raise InvalidInput("index must be non-negative")
    if n > cap:
        raise CapExceeded(f"index {n} above exact cap {cap}")
    return _bern(n)


def vsc_denominator(n: int) -> int:
    """Denominator of B_n for even n: the product of primes q with (q-1) | n."""
    if n < 2 or n % 2:
        raise InvalidInput("n must be even and >= 2")
    qs = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            for cand in (d + 1, n // d + 1):
                if is_prime(cand):
                    qs.add(cand)
        d += 1
    out = 1
    for q in sorted(qs):
        out *= q
    return out


def fraction_mod(fr: Fraction, m: int) -> int:
    """Reduce a rational with denominator coprime to m into Z/m."""
    if math.gcd(fr.denominator, m) != 1:
        raise NotInvertible(f"denominator {fr.denominator} shares a factor with {m}")
    return fr.numerator * inv_int(fr.denominator, m) % m


# ---------------------------------------------------------------------------
# index reduction
# ---------------------------------------------------------------------------

def kummer_reduce(index: int, p: int, r: int) -> int:
    """Least even n >= r+1 with n = index mod p^(r-1)*(p-1).

    B_index/index and B_n/n agree mod p^r; inputs the congruence does not
    cover raise instead.
    """
    if r < 1:
        raise InvalidInput("precision r must be >= 1")
    if p < 3 or not is_prime(p):
        raise InvalidInput(f"{p} is not an odd prime")
    if index < 2 or index % 2:
        raise InvalidInput("index must be even and >= 2")
    if index % (p - 1) == 0:
        raise IndexDivisible(f"index = 0 mod (p-1) for p={p}; reduction inapplicable")
    period = p ** (r - 1) * (p - 1)
    n = index % period
    while n < r + 1:
        n += period
    return n


# ---------------------------------------------------------------------------
# extraction from power sums
# ---------------------------------------------------------------------------

def _comb_mod(n: int, k: int, m: int) -> int:
    """C(n, k) mod m for tiny k and arbitrarily large n."""
    num = 1
    for i in range(k):
        num = num * ((n - i) % m) % m
    return num * inv_int(math.factorial(k), m) % m


def _extract(n: int, p: int, j: int, memo: dict) -> int:
    """B_n mod p^j for even n with (p-1) not dividing n; p >= 11, j <= 5."""
    if j <= 0:
        return 0
    key = ("b", n, j)
    if key in memo:
        return memo[key]
    w = j + 1
    if w > 6:
        raise PrecisionUnderflow(f"extraction valid only to p^5, asked for p^{j}")
    m = p**w
    total = power_sum_int(p, w, n)
    total = (total - _tail_terms(n, p, w, m, memo)) % m
    if total % p:
        raise InternalInconsistency(f"P_n tail not divisible by p at n={n}, p={p}")
    val = (total // p) % p**j
    memo[key] = val
    return val


def _extract_times_p(n: int, p: int, j: int, memo: dict) -> int:
    """p*B_n mod p^j for even n with (p-1) | n (B_n has denominator p)."""
    if j <= 0:
        return 0
    key = ("pb", n, j)
    if key in memo:
        return memo[key]
    if j > 6:
        raise PrecisionUnderflow(f"extraction valid only mod p^6, asked for p^{j}")
    m = p**j
    total = (power_sum_int(p, j, n) - _tail_terms(n, p, j, m, memo)) % m
    memo[key] = total
    return total


def _tail_terms(n: int, p: int, w: int, m: int, memo: dict) -> int:
    """Sum over s=2..min(n+1, w) of C(n, s-1)/s * p^s * B_{n+1-s}, mod m = p^w."""
    total = 0
    for s in range(2, min(n + 1, w) + 1):
        idx = n + 1 - s
        coef = _comb_mod(n, s - 1, m) * inv_int(s, m) % m
        if idx == 0:
            term = coef * pow(p, s, m) % m
        elif idx == 1:
            term = coef * pow(p, s, m) % m * (m - inv_int(2, m)) % m
        elif idx % 2 == 1:
            continue
        elif idx % (p - 1) == 0:
            t = _extract_times_p(idx, p, w - s + 1, memo)
            term = coef * pow(p, s - 1, m) % m * t % m
        else:
            b = _extract(idx, p, w - s, memo)
            term = coef * pow(p, s, m) % m * b % m
        total = (total + term) % m
    return total


def bernoulli_mod_small(n: int, p: int, r: int) -> int:
    """B_n mod p^r extracted from power sums; p >= 11, r <= 5.

    Whenever n is within the exact cap the result is verified against the
    exact rational oracle; a mismatch means an implementation bug.
    """
    if r < 1:
        raise InvalidInput("precision r must be >= 1")
    if r > 5:
        raise PrecisionUnderflow("power-sum extraction supports r <= 5")
    if p < 11 or not is_prime(p):
        raise InvalidInput("extraction requires a prime p >= 11")
    if n < 2 or n % 2:
        raise InvalidInput("index must be even and >= 2")
    if n % (p - 1) == 0:
        raise KummerInapplicable(f"B_{n} is not p-integral for p={p}")
    val = _extract(n, p, r, {})
    if n <= DEFAULT_EXACT_CAP:
        expected = fraction_mod(_bern(n), p**r)
        if expected != val:
            raise InternalInconsistency(
                f"extraction B_{n} mod {p}^{r} = {val}, exact oracle gives {expected}"
            )
    return val


def bernoulli_mod(index: int, p: int, r: int, *, use_exact_oracle: bool = True) -> int:
    """B_index mod p^r for an arbitrarily large even index.

    Reduces the index to a representative n, extracts B_n mod p^r, then
    scales by index/n (the B/m ratio preserved by the reduction).  With
    ``use_exact_oracle`` (default) indices within the exact cap skip the
    modular pipeline; pass False to force extraction end to end.
    """
    if r < 1:
        raise InvalidInput("precision r must be >= 1")
    if p < 3 or not is_prime(p):
        raise InvalidInput(f"{p} is not an odd prime")
    if index < 2 or index % 2:
        raise InvalidInput("index must be even and >= 2")
    if index % (p - 1) == 0:
        raise IndexDivisible(f"index = 0 mod (p-1) for p={p}")
    mr = p**r
    if use_exact_oracle and index <= DEFAULT_EXACT_CAP:
        return fraction_mod(_bern(index), mr)
    n = kummer_reduce(index, p, r)
    if use_exact_oracle and n <= DEFAULT_EXACT_CAP:
        bn = fraction_mod(_bern(n), mr)
    elif r <= 5 and p >= 11:
        bn = bernoulli_mod_small(n, p, r)
    else:
        raise KummerInapplicable(
            f"modular extraction needs p >= 11 and r <= 5 (got p={p}, r={r})"
        )
    if n == index:
        return bn
    if n % p == 0:
        raise KummerInapplicable(
            f"representative {n} shares a factor with p={p}; cannot rescale"
        )
    return index % mr * inv_int(n % mr, mr) % mr * bn % mr


# ---------------------------------------------------------------------------
# alternating-sum identity check
# ---------------------------------------------------------------------------

def kummer_alternating_check(m: int, p: int, r: int) -> CongruenceReport:
    """Check sum_{k=0}^{r} (-1)^k C(r,k) B_{m+k(p-1)}/(m+k(p-1)) = 0 mod p^r.

    The r-th finite difference of B_n/n along the progression n = m + k(p-1);
    evaluated with exact rationals (indices must stay within the exact cap),
    reporting the p-adic valuation of the residual.
    """
    if m < 2 or m % 2:
        raise InvalidInput("m must be even and >= 2")
    if r < 0 or r > m - 1:
        raise InvalidInput("need 0 <= r <= m-1")
    if p < 3 or not is_prime(p):
        raise InvalidInput(f"{p} is not an odd prime")
    if m % (p - 1) == 0:
        raise InvalidInput("m must not be divisible by p-1")
    top = m + r * (p - 1)
    if top > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"index {top} above exact cap {DEFAULT_EXACT_CAP}")
    total = Fraction(0)
    for k in range(r + 1):
        idx = m + k * (p - 1)
        term = Fraction(math.comb(r, k)) * _bern(idx) / idx
        total += term if k % 2 == 0 else -term
    working = r + 1
    name = f"kummer-alt-m{m}"
    if total != 0 and total.denominator % p == 0:
        # A term index divisible by p leaked into the reduced denominator;
        # judge the valuation directly on the exact rational.
        v = _frac_valuation(total, p)
        return CongruenceReport(
            name=name,
            p=p,
            required_exponent=r,
            working_exponent=working,
            lhs=None,
            rhs=0,
            residual_valuation=v,
            holds=v >= r,
            status="pass" if v >= r else "fail",
        )
    lhs = fraction_mod(total, p**working)
    return make_report(name, p, r, lhs, 0, working)


def _frac_valuation(fr: Fraction, p: int) -> int:
    def vp(x: int) -> int:
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    return vp(fr.numerator) - vp(fr.denominator)
