"""Bernoulli-number arithmetic.

Three layers:

* exact rationals B_n for n <= 2000, each index on its own from
  |B_n| = 2*n!*zeta(n)/(2pi)^n (the oracle all modular paths are checked
  against),
* index reduction modulo p^(r-1)*(p-1), which shrinks astronomically
  large indices to workable representatives while preserving B_n/n mod p^r,
* extraction of B_n mod p^r from the power sums P_n(p), valid for p >= 11
  and r <= 5.

Extraction rests on the expansion of P_n(p) in Bernoulli numbers

    P_n(p) = sum over s >= 1 of  C(n, s-1)/s * p^s * B_{n+1-s},

truncatable at s = 6 when working mod p^6 with p >= 11.  The s = 1 term is
p*B_n; subtracting the s >= 2 tail and dividing by p yields B_n.  When an
index is a multiple of p-1 its Bernoulli number has p in the denominator
(exactly once, by von Staudt-Clausen), so one recursion, ``_extract``,
returns the p-integral p^d*B_n, with d = 1 at those indices and 0 elsewhere.

Extraction reads P_n at n, n-2 and n-4 only.  With n = q(p-1) + r and
x_k = (k^(p-1) - 1)/p, k^n = k^r*(1 + p*x_k)^q, so one pass over k gives every
P_n of those residues (``power_sum_table``), and a caller extracting many
indices of one prime builds it once.  ``sums.power_sum_int``, one pass per
P_n, is the slow oracle the tests compare it with.
"""

from __future__ import annotations

import itertools
import math
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
from .sums import PowerSums, power_sum_int

# power_sum_int is unused here: the benchmark's sums.power_sum_int span patches it here.

DEFAULT_EXACT_CAP = 2000

# ---------------------------------------------------------------------------
# exact values, one index at a time
# ---------------------------------------------------------------------------

# One entry per index asked for; a racing thread can only store a value twice.
_bern_cache: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
_pi = (0, 3)  # (bits, pi * 2^bits), computed on first use


def _chudnovsky(a: int, b: int) -> tuple[int, int, int]:
    """Binary splitting of Chudnovsky's series over terms a..b-1: (P, Q, T)."""
    if b - a == 1:
        p = 1 if a == 0 else (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
        q = 1 if a == 0 else a**3 * 10939058860032000  # 640320^3 / 24
        t = p * (13591409 + 545140134 * a)
        return p, q, -t if a % 2 else t
    mid = (a + b) // 2
    p1, q1, t1 = _chudnovsky(a, mid)
    p2, q2, t2 = _chudnovsky(mid, b)
    return p1 * p2, q1 * q2, q2 * t1 + p1 * t2


def _pi_fixed(bits: int) -> int:
    """pi * 2^bits within 2 units, by Chudnovsky: pi = 426880 sqrt(10005) Q / T.
    At about 47.1 bits a term, w // 47 + 2 terms leave a tail below 2^-(w+40);
    with 32 guard bits the floors of isqrt and // cost under a unit."""
    global _pi
    if bits > _pi[0]:
        w = 1 << (bits - 1).bit_length()  # powers of two: a rising n recomputes rarely
        _, q, t = _chudnovsky(0, w // 47 + 2)
        _pi = (w, 426880 * math.isqrt(10005 << (2 * w + 64)) * q // t >> 32)
    return _pi[1] >> (_pi[0] - bits)


def exact_bernoulli(n: int) -> Fraction:
    """Exact rational B_n; memoized; even indices above the cap are refused.

    For even n >= 2, D_n = prod{q prime : (q-1) | n} is the denominator of B_n
    (von Staudt-Clausen), and N_n = B_n*D_n = (-1)^(n/2+1)*2*n!*D_n*zeta(n)/(2pi)^n
    is an integer with |N_n| < 2^(t-3), t read off bit lengths ((2pi)^n > 6^n).
    The Euler product for zeta(n) stops at the first prime X with
    X^(n-1)*(n-1) >= 2^(t+1); its tail, at most 2^-(t+1) relatively, is worth
    under 1/16 in N_n.  All else runs in ints truncated to t + 64 bits and
    adds below 2^-(t+40) relatively, so the estimate rounds to N_n.
    """
    if n < 0:
        raise InvalidInput("index must be non-negative")
    if n % 2 == 1:
        return Fraction(0) if n > 1 else Fraction(-1, 2)
    if n > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"index {n} above exact cap {DEFAULT_EXACT_CAP}")
    if n in _bern_cache:
        return _bern_cache[n]
    d = math.prod(k + 1 for k in range(1, n + 1) if n % k == 0 and is_prime(k + 1))
    a = 2 * math.factorial(n) * d
    t = max((2 * a).bit_length() - (6**n).bit_length() + 1, 0) + 3
    prec = t + 64
    inv_zeta = 1 << prec  # 2^prec / zeta(n)
    for q in filter(is_prime, itertools.count(2)):
        inv_zeta -= inv_zeta // (qn := q**n)
        if qn * (n - 1) >= q << (t + 1):
            break
    x = _pi_fixed(prec) << 1  # 2*pi * 2^prec, and (2*pi)^n ~ m * 2^e
    m, e = x, -prec
    for bit in bin(n)[3:]:
        m, e = (m * m * x, 2 * e - prec) if bit == "1" else (m * m, 2 * e)
        s = max(m.bit_length() - prec, 0)
        m, e = m >> s, e + s
    # |N_n| * 2^64 = a * 2^(prec + 64 - e) / (inv_zeta * m), rounded
    num = ((a << (prec + 64 - e)) // (inv_zeta * m) + (1 << 63)) >> 64
    _bern_cache[n] = b = Fraction(num if n % 4 == 2 else -num, d)
    return b


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
        raise IndexDivisible(f"index = 0 mod (p-1) for p={p}")
    period = p ** (r - 1) * (p - 1)
    n = index % period
    while n < r + 1:
        n += period
    return n


# ---------------------------------------------------------------------------
# extraction from power sums
# ---------------------------------------------------------------------------

def power_sum_table(n: int, p: int, r: int) -> PowerSums:
    """The power sums extraction of B_n mod p^r reads (p >= 11): P_n to p^(r+1),
    P_(n-2) to p^(r-1) and P_(n-4) to p^(r-3)."""
    return PowerSums(p, {(n - i) % (p - 1): r + 1 - i for i in (0, 2, 4) if i <= r})


def _extract(n: int, p: int, j: int, sums: PowerSums) -> int:
    """p^d * B_n mod p^j for even n, with d = 1 if (p-1) | n and d = 0 otherwise.

    Needs p >= 11 and j + 1 - d <= 6, the precision the truncated expansion
    of P_n(p) is valid to, and the power sums ``power_sum_table`` gives for
    (n, j - d).  P_n less its s >= 2 tail, sum of C(n, s-1)/s * p^s * B_{n+1-s},
    is p*B_n.  The recursion makes at most four calls (n, n-2, and n-4 twice),
    each reading one P_n off the table, so nothing is memoized.
    """
    if j <= 0:
        return 0
    d = 1 if n % (p - 1) == 0 else 0
    w = j + 1 - d
    if w > 6:
        raise PrecisionUnderflow(f"extraction valid only mod p^6, asked for p^{w}")
    m = p**w
    total = sums(n, w)
    for s in range(2, min(n + 1, w) + 1):
        idx = n + 1 - s
        if idx > 1 and idx % 2:
            continue
        coef = math.comb(n, s - 1) * inv_int(s, m) % m
        if idx <= 1:
            total -= coef * pow(p, s, m) * fraction_mod(exact_bernoulli(idx), m)
        else:
            di = 1 if idx % (p - 1) == 0 else 0
            total -= coef * pow(p, s - di, m) * _extract(idx, p, w - s + di, sums)
    total %= m
    if d == 0:
        if total % p:
            raise InternalInconsistency(f"P_n tail not divisible by p at n={n}, p={p}")
        total //= p
    return total


def bernoulli_mod_small(n: int, p: int, r: int, sums: PowerSums | None = None) -> int:
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
    val = _extract(n, p, r, power_sum_table(n, p, r) if sums is None else sums)
    if n <= DEFAULT_EXACT_CAP:
        expected = fraction_mod(exact_bernoulli(n), p**r)
        if expected != val:
            raise InternalInconsistency(
                f"extraction B_{n} mod {p}^{r} = {val}, exact oracle gives {expected}"
            )
    return val


def bernoulli_mod(index: int, p: int, r: int, *, use_exact_oracle: bool = True, sums: PowerSums | None = None) -> int:
    """B_index mod p^r for an arbitrarily large even index.

    Reduces the index to a representative n, extracts B_n mod p^r, then
    scales by index/n (the B/m ratio preserved by the reduction).  With
    ``use_exact_oracle`` (default) indices within the exact cap skip the
    modular pipeline; pass False to force extraction end to end.
    """
    n = kummer_reduce(index, p, r)
    mr = p**r
    if use_exact_oracle and index <= DEFAULT_EXACT_CAP:
        return fraction_mod(exact_bernoulli(index), mr)
    if use_exact_oracle and n <= DEFAULT_EXACT_CAP:
        bn = fraction_mod(exact_bernoulli(n), mr)
    elif r <= 5 and p >= 11:
        bn = bernoulli_mod_small(n, p, r, sums)
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

def kummer_alternating_sum(m: int, p: int, r: int) -> int:
    """sum_{k=0}^{r} (-1)^k C(r,k) B_{m+k(p-1)}/(m+k(p-1)) mod p^(r+1).

    The r-th finite difference of B_n/n along the progression n = m + k(p-1),
    which Kummer's congruence makes 0 mod p^r; evaluated with exact rationals
    (indices above the exact cap raise).
    """
    if m < 2 or m % 2:
        raise InvalidInput("m must be even and >= 2")
    if r < 0 or r > m - 1:
        raise InvalidInput("need 0 <= r <= m-1")
    if p < 3 or not is_prime(p):
        raise InvalidInput(f"{p} is not an odd prime")
    if m % (p - 1) == 0:
        raise InvalidInput("m must not be divisible by p-1")
    total = Fraction(0)
    for k in range(r + 1):
        idx = m + k * (p - 1)
        term = Fraction(math.comb(r, k)) * exact_bernoulli(idx) / idx
        total += term if k % 2 == 0 else -term
    # Every index is = m (mod p-1) with (p-1) not dividing m, so each B_n/n is
    # p-integral (von Staudt-Clausen and Adams' theorem) and so is the sum.
    return fraction_mod(total, p ** (r + 1))


def kummer_alternating_check(m: int, p: int, r: int) -> CongruenceReport:
    """``kummer_alternating_sum`` judged against 0 mod p^r by make_report."""
    return make_report(f"kummer-alt-m{m}", p, r, kummer_alternating_sum(m, p, r), 0)
