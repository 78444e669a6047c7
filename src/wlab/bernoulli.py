"""Bernoulli-number arithmetic.

Three layers:

* exact rationals B_n for n <= 2000, each index on its own from
  |B_n| = 2*n!*zeta(n)/(2pi)^n (the oracle all modular paths are checked
  against), with pi computed by Chudnovsky's series where the table of
  (2pi)^(2^i) is built (``_two_pi_pow``),
* index reduction modulo p^(r-1)*(p-1), which shrinks astronomically
  large indices to workable representatives while preserving
  (1 - p^(n-1))*B_n/n mod p^r, that is B_n/n for n > r,
* extraction of B_n mod p^r from the power sums P_n(p), valid for p >= 11
  and r <= 5.

``bernoulli_mod`` is the one entry point to the last two.  It checks every
extraction within the exact cap against the exact value.  Every residue this
module returns is an int; ``kummer_alternating_sum`` (the paper's (3.3)) too
reduces each exact B_n/n mod p^(r+1) and sums residues.

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
)
from .modring import inv_int, is_odd_prime, primes_in
from .report import make_report
from .sums import PowerSums, power_sum_int

# power_sum_int is unused here: the benchmark's sums.power_sum_int span patches it here.

DEFAULT_EXACT_CAP = 2000

# ---------------------------------------------------------------------------
# exact values, one index at a time
# ---------------------------------------------------------------------------

# One entry per index asked for; a racing thread can only store a value twice.
_bern_cache: dict[int, Fraction] = {0: Fraction(1), 1: Fraction(-1, 2)}
# (bits, [(m_i, e_i)]) with (2pi)^(2^i) ~ m_i * 2^e_i for 2^i <= DEFAULT_EXACT_CAP,
# each m_i of `bits` bits; built on first use, rebuilt when more bits are asked for
_two_pi_powers: tuple[int, list[tuple[int, int]]] = (0, [])
_sieve = bytearray()  # _sieve[k] = 1 for the primes k <= DEFAULT_EXACT_CAP + 1, built on first use


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


def _two_pi_pow(n: int, bits: int) -> tuple[int, int]:
    """(m, e) with (2pi)^n ~ m * 2^e, m of `bits` bits, relative error below
    (5n + 4 popcount(n)) * 2^-bits, for 1 <= n <= DEFAULT_EXACT_CAP.

    The product of the table's (2pi)^(2^i) over the bits i of n.  The table
    is built at a power of two w >= bits (so a rising n rebuilds it rarely)
    from pi * 2^w within 2 units by Chudnovsky, pi = 426880 sqrt(10005) Q / T:
    at about 47.1 bits a term, w // 47 + 2 terms leave a tail below
    2^-(w+40), and with 32 guard bits the floors of isqrt and // cost under a
    unit.  So 2pi * 2^(w-3) is within 1.5 units (3 * 2^-w relatively), and
    squaring gives (2pi)^(2^i) within 5 * 2^i * 2^-w: each squaring doubles
    the error and its truncation to w bits adds under 2^-(w-1).  Cutting an
    entry to `bits` bits, and the product back to `bits` bits after each
    factor, add under 2^-(bits-1) each."""
    global _two_pi_powers
    if bits > _two_pi_powers[0]:
        w = 1 << (bits - 1).bit_length()
        _, q, t = _chudnovsky(0, w // 47 + 2)
        pi = 426880 * math.isqrt(10005 << (2 * w + 64)) * q // t >> 32
        table = [(pi >> 2, 3 - w)]
        while 1 << len(table) <= DEFAULT_EXACT_CAP:
            m, e = table[-1]
            m *= m
            s = m.bit_length() - w
            table.append((m >> s, 2 * e + s))
        _two_pi_powers = (w, table)
    w, table = _two_pi_powers
    m, e = 1, 0
    for i in range(n.bit_length()):
        if n >> i & 1:
            mi, ei = table[i]
            m *= mi >> (w - bits)
            s = max(m.bit_length() - bits, 0)
            m, e = m >> s, e + ei + w - bits + s
    return m, e


def _prime_sieve() -> bytearray:
    """The primes up to DEFAULT_EXACT_CAP + 1, every one that divides a
    denominator D_n in the exact domain or that an Euler product reaches."""
    global _sieve
    if not _sieve:
        sieve = bytearray(DEFAULT_EXACT_CAP + 2)
        for q in primes_in(2, DEFAULT_EXACT_CAP + 1):
            sieve[q] = 1
        _sieve = sieve
    return _sieve


def exact_bernoulli(n: int) -> Fraction:
    """Exact rational B_n; memoized; even indices above the cap are refused.

    For even n >= 2, D_n = prod{q prime : (q-1) | n} is the denominator of B_n
    (von Staudt-Clausen), read off the divisor pairs (k, n/k), k <= sqrt(n),
    and N_n = B_n*D_n = (-1)^(n/2+1)*a*zeta(n)/(2pi)^n, a = 2*n!*D_n, is an
    integer with |N_n| < 2^(t-3), t read off bit lengths ((2pi)^n > 6^n).
    Everything below runs at prec = t + 64 bits, in units of 2^-prec:

    * 2^prec/zeta(n) is v, the Euler product over the primes q up to the first
      X with X^(n-1)*(n-1) >= 2^(t+1).  Its tail sum over k > X of k^-n is at
      most X^(1-n)/(n-1) <= 2^-(t+1) relatively.  Each step v -= v // q^n
      divides with both sides cut by s bits, so that q^n keeps 32 bits more
      than the quotient can have; that and the floor cost under 2 units a
      step, under 62 units in all (X <= 127, 31 primes), and v > 2^prec/2.
    * (2pi)^n = M*2^e within 2^-(prec-14) relatively (``_two_pi_pow``).
    * |N_n|*2^64 = a*2^(prec + 64 - e) / (v*M); the divisor v*M is cut to the
      quotient's t + 64 bits plus 32, worth under a unit of the quotient.

    So the estimate of |N_n| is off by under 2^(t-3) * 2^-(t+1) = 1/16 from
    the tail and by under 2^-50 from the rest, and rounding gives N_n.
    """
    if n < 0:
        raise InvalidInput("index must be non-negative")
    if n % 2 == 1:
        return Fraction(0) if n > 1 else Fraction(-1, 2)
    if n > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"index {n} above exact cap {DEFAULT_EXACT_CAP}")
    if n in _bern_cache:
        return _bern_cache[n]
    sieve = _prime_sieve()
    divisors = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    d = math.prod(k + 1 for k in {*divisors, *(n // k for k in divisors)} if sieve[k + 1])
    a = 2 * math.factorial(n) * d
    t = max((2 * a).bit_length() - (6**n).bit_length() + 1, 0) + 3
    prec = t + 64
    v = 1 << prec  # 2^prec / zeta(n)
    for q in itertools.compress(itertools.count(), sieve):
        qn = q**n
        # q^n keeps 32 bits more than the quotient; s <= prec, so a q^n past
        # 2^(prec+32), where the quotient is 0, keeps its top 32 bits
        s = min(max(2 * qn.bit_length() - prec - 33, 0), prec)
        v -= (v >> s) // (qn >> s)
        if qn * (n - 1) >= q << (t + 1):
            break
    else:
        raise InternalInconsistency(f"the Euler product for zeta({n}) ran out of primes")
    m, e = _two_pi_pow(n, prec)
    div = v * m
    s = max(div.bit_length() - (t + 96), 0)
    # |N_n| * 2^64 = a * 2^(prec + 64 - e) / (v * m), rounded
    num = ((a << (prec + 64 - e - s)) // (div >> s) + (1 << 63)) >> 64
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

    Kummer's congruence makes (1 - p^(m-1))*B_m/m agree mod p^r across such
    m, and the factor is 1 mod p^r for m >= r + 1.  So B_index/index and
    B_n/n agree mod p^r when index >= r + 1; a smaller index keeps its factor
    (``bernoulli_mod`` divides by it).  Inputs the congruence does not cover
    raise instead.
    """
    if r < 1:
        raise InvalidInput("precision r must be >= 1")
    if not is_odd_prime(p):
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
    P_(n-2) to p^(r-1) and P_(n-4) to p^(r-3), each only at an exponent of 2
    or more, but for P_(n-r) to p^1 when (p-1) | (n-r): ``_extract`` returns
    at j <= 0 before any other read at p^1."""
    return PowerSums(p, {(n - i) % (p - 1): r + 1 - i for i in (0, 2, 4)
                         if i < r or i == r and (n - i) % (p - 1) == 0})


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


def bernoulli_mod(index: int, p: int, r: int, *, sums: PowerSums | None = None) -> int:
    """B_index mod p^r for an arbitrarily large even index.

    Reduces the index to a representative n >= r + 1 (``kummer_reduce``),
    takes B_n mod p^r, then scales by index/n, and for index <= r also by
    1/(1 - p^(index-1)), Kummer's factor, which is 1 mod p^r past r.  ``sums``
    picks the route.  With a table (``power_sum_table`` of n at r, or one that
    holds its sums) B_n is extracted from it, at p >= 11 and r <= 5, and
    checked against the exact value when n is within the exact cap.  Without
    one, an index or representative within the cap takes the exact value, and
    any other n is extracted from a table built here.
    """
    n = kummer_reduce(index, p, r)
    mr = p**r
    if sums is None and index <= DEFAULT_EXACT_CAP:
        return fraction_mod(exact_bernoulli(index), mr)
    if sums is None and n <= DEFAULT_EXACT_CAP:
        bn = fraction_mod(exact_bernoulli(n), mr)
    elif r <= 5 and p >= 11:
        bn = _extract(n, p, r, power_sum_table(n, p, r) if sums is None else sums)
        if n <= DEFAULT_EXACT_CAP and bn != (want := fraction_mod(exact_bernoulli(n), mr)):
            raise InternalInconsistency(f"extraction B_{n} mod {p}^{r} = {bn}, exact oracle gives {want}")
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
    scale = index % mr * inv_int(n % mr, mr)
    if index <= r:
        scale *= inv_int(1 - p ** (index - 1), mr)
    return scale % mr * bn % mr


# ---------------------------------------------------------------------------
# alternating-sum identity check
# ---------------------------------------------------------------------------

def kummer_alternating_sum(m: int, p: int, r: int) -> int:
    """sum_{k=0}^{r} (-1)^k C(r,k) B_{m+k(p-1)}/(m+k(p-1)) mod p^(r+1).

    The r-th finite difference of B_n/n along the progression n = m + k(p-1),
    which Kummer's congruence makes 0 mod p^r; each term's exact B_n/n is
    reduced mod p^(r+1) and the sum taken in ints (indices above the exact
    cap raise).
    """
    if m < 2 or m % 2:
        raise InvalidInput("m must be even and >= 2")
    if r < 0 or r > m - 1:
        raise InvalidInput("need 0 <= r <= m-1")
    if not is_odd_prime(p):
        raise InvalidInput(f"{p} is not an odd prime")
    if m % (p - 1) == 0:
        raise InvalidInput("m must not be divisible by p-1")
    mod = p ** (r + 1)
    total = 0
    for k in range(r + 1):
        idx = m + k * (p - 1)
        # Every index is = m (mod p-1) with (p-1) not dividing m, so each B_n/n
        # is p-integral (von Staudt-Clausen and Adams' theorem) and reduces alone.
        term = math.comb(r, k) * fraction_mod(exact_bernoulli(idx) / idx, mod)
        total += -term if k % 2 else term
    return total % mod


def kummer_alternating_check(m: int, p: int, r: int) -> dict:
    """``kummer_alternating_sum`` judged against 0 mod p^r by make_report: its row dict."""
    return make_report(f"kummer-alt-m{m}", p, r, kummer_alternating_sum(m, p, r), 0)
