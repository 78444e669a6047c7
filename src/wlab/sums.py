"""Inverse power sums R_n, power sums P_n, and elementary symmetric sums H_k.

R_n(p) = sum of 1/k^n over k=1..p-1, H_k(p) = k-th elementary symmetric sum
of the inverses, both taken in Z/p^e as plain ints.  H_1 = R_1 by
convention.  H_k follows from the R_n by Newton's identities
(``newton_elementary_ints``); the tests compare it against the truncated
product of (1 + x/k) over k = 1..p-1 (``tests/oracles.py``).

The fast path pairs k with p-k.  With u_k = 1/(k(p-k)), 1/k + 1/(p-k) = p*u_k
and 1/k * 1/(p-k) = u_k, so every R_n is a polynomial in the half-range
moments S_j = sum of u_k^j over k=1..(p-1)/2 (``half_range_moments``,
``inverse_power_sum_from_moments``), and (1 + p/k)(1 + p/(p-k)) = 1 + 2p^2*u_k
puts C(2p-1, p-1) on the same (p-1)/2 terms.  Past S_1 the moments are
taken by columns, one list per power of a block of u_k; the tests compare
them with one k at a time (``tests/oracles.py``).  ``inverse_power_sums_ints``
walks all p-1 terms and stays as the slow oracle.

The power sums P_n = sum of k^n share one pass too.  With n = q(p-1) + r,
0 <= r < p-1, and x_k = (k^(p-1) - 1)/p, k^n = k^r*(1 + p*x_k)^q, so by the
binomial theorem P_n = sum over i < e of C(q, i)*p^i*A_{r,i} (mod p^e), with
A_{r,i} = sum of k^r*x_k^i (``PowerSums``), for every q >= 0.  Per k that
pass makes one pow if k is prime and one product of two earlier powers if k
is composite, steps to the next residue by k*k, and takes the moments by
columns, one list per block of k.  ``power_sum_int``, p-1 modular powers per
P_n, stays as the slow oracle.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Mapping

from .errors import InternalInconsistency, InvalidInput, NotInvertible
from .modring import inv_int, primes_in, range_inverses


def inverse_power_sums_ints(p: int, m: int, n_max: int) -> dict[int, int]:
    """R_1..R_{n_max} mod m from one batch inversion of 1..p-1."""
    invs = range_inverses(p, m)
    sums = [0] * (n_max + 1)
    for k in range(1, p):
        v = invs[k]
        w = v
        sums[1] += w
        for n in range(2, n_max + 1):
            w = w * v % m
            sums[n] += w
    return {n: sums[n] % m for n in range(1, n_max + 1)}


# Width of the blocks of k that PowerSums and half_range_moments walk by
# columns.  A block's columns, one list per power and per moment, are alive
# together; PowerSums takes a prime below 512 in one block.
BLOCK = 512


def half_range_moments(p: int, m: int, j_max: int) -> tuple[int, list[int]]:
    """C(2p-1, p-1) and S_1..S_{j_max} mod m from one pass over k <= (p-1)/2.

    m is a power of the odd prime p.  The binomial is
    prod (k(p-k) + 2p^2) / prod k(p-k), with one inversion of the denominator.
    S_1 alone is a running fraction over that denominator.  Past S_1 the
    prefix products of the denominator are kept, so the inversion also yields
    every u_k = 1/(k(p-k)) on the way back down, ``BLOCK`` values at a time;
    each block is a column whose powers are lists, each S_j a ``sum`` of one
    list a block, reduced mod m at the end.  Returns (binom, s) with s[j] = S_j
    and s[0] unused.
    """
    if j_max < 1:
        raise InvalidInput("j_max must be >= 1")
    h = (p - 1) // 2
    two_p2 = 2 * p * p
    den = num = 1
    if j_max == 1:
        s1 = 0
        for k in range(1, h + 1):
            a = k * (p - k)
            s1 = (s1 * a + den) % m
            den = den * a % m
            num = num * (a + two_p2) % m
        inv = inv_int(den, m)
        return num * inv % m, [0, s1 * inv % m]
    prefix = [0] * (h + 1)
    for k in range(1, h + 1):
        a = k * (p - k)
        prefix[k] = den
        den = den * a % m
        num = num * (a + two_p2) % m
    inv = inv_int(den, m)
    binom = num * inv % m
    # prefix is cut behind the backward loop, so no second whole-range list is
    # alive; the products are unreduced, as in PowerSums
    s = [0] * (j_max + 1)
    for top in range(h, 0, -BLOCK):
        block = []
        for k in range(top, max(top - BLOCK, 0), -1):
            block.append(prefix[k] * inv % m)
            inv = inv * (k * (p - k)) % m
        del prefix[top - len(block) + 1:]
        col = block
        s[1] += sum(col)
        for j in range(2, j_max + 1):
            col = list(map(mul, col, block))
            s[j] += sum(col)
    return binom, [v % m for v in s]


def inverse_power_sum_from_moments(s: list[int], p: int, m: int, n: int) -> int:
    """R_n mod m from the half-range moments, by Dickson's identity

        R_n = sum_i (-1)^i * n/(n-i) * C(n-i, i) * p^(n-2i) * S_(n-i),  i <= n/2,

    so R_1 = p*S_1, R_2 = p^2*S_2 - 2*S_1, R_3 = p^3*S_3 - 3p*S_2.  Needs
    s[1..n]; every coefficient is an integer, so nothing is divided mod m.
    """
    total = 0
    for i in range(n // 2 + 1):
        term = n * math.comb(n - i, i) // (n - i) * p ** (n - 2 * i) * s[n - i]
        total += -term if i % 2 else term
    return total % m


def power_sum_int(p: int, e: int, n: int) -> int:
    """P_n = sum of k^n over k=1..p-1 mod p^e, exponent reduced by Euler."""
    m = p**e
    phi = p ** (e - 1) * (p - 1)
    r = n % phi
    if r == 0:
        r = phi
    total = 0
    for k in range(1, p):
        total += pow(k, r, m)
    return total % m


def _base_powers(base: list[int], primes: list[int], r: int, m: int, lo: int, hi: int) -> list[int]:
    """k^r mod m for lo <= k < hi: one pow at each prime k, and at each
    composite k = q*(k/q), with q the prime a segmented sieve marks, one
    product of two entries of ``base`` (base[j] = j^r for j < lo, j <= (p-1)/2).
    Both factors are at most k/2, so ``base`` need not pass half of p."""
    fac = [0] * (hi - lo)
    for q in primes:
        if q * q >= hi:
            break
        start = max(q * q, -(-lo // q) * q)
        fac[start - lo::q] = [q] * len(range(start, hi, q))
    return [pow(k, r, m) if q == 0 else base[q] * base[k // q] % m for k, q in zip(range(lo, hi), fac)]


class PowerSums:
    """P_n mod p^e for every n of the residues r -> e in ``precision``, from
    one pass over k keeping A_{r,i} mod p^max(e), i < e.

    Per k: k^(r_0), the least residue's power, costs one pow at a prime k and
    one product at a composite k (``_base_powers``); each step k^r -> k^(r+2)
    is one multiplication by k*k, any other step one pow; and every residue
    costs e - 1 multiplications by x_k.  The pass runs by columns: in each
    block of ``BLOCK`` values of k every power k^r, and every product
    k^r*x_k^i, is one list, and each moment A_{r,i} gains its ``sum``."""

    def __init__(self, p: int, precision: Mapping[int, int]):
        if not precision:
            raise InvalidInput("a power-sum table needs at least one residue")
        rs = sorted(precision)  # each 0 <= r < p-1, each e >= 1
        m = p ** max(precision.values())
        h = (p - 1) // 2
        steps = [b - a for a, b in zip(rs, rs[1:] + [p - 1])]
        primes = primes_in(2, math.isqrt(p - 1))
        base = [0, 1]  # base[k] = k^(r_0) for k <= h, built in doubling ranges
        while len(base) <= h:
            base += _base_powers(base, primes, rs[0], m, len(base), min(2 * len(base), h + 1))
        acc = [[0] * precision[r] for r in rs]
        for lo in range(1, p, BLOCK):
            hi = min(lo + BLOCK, p)
            ks = range(lo, hi)
            col = base[lo:min(hi, h + 1)] + _base_powers(base, primes, rs[0], m, max(lo, h + 1), hi)
            cols = [col]
            squares = [k * k for k in ks] if 2 in steps else []
            # The products by k*k and by x_k are not reduced mod m: a product
            # grows by one factor below m a step, which costs less than a
            # division by m, and each sum is reduced once, at the end.
            for step in steps:
                if step == 2:
                    col = list(map(mul, col, squares))
                else:
                    col = [t * pow(k, step, m) % m for t, k in zip(col, ks)]
                cols.append(col)
            xs = [(t % m - 1) // p for t in cols.pop()]  # k^(p-1) = 1 + p*x_k mod p^max(e)
            for a, col in zip(acc, cols):
                a[0] += sum(col)
                for i in range(1, len(a)):
                    col = list(map(mul, col, xs))
                    a[i] += sum(col)
        self.p = p
        self.moments = {r: [v % m for v in a] for r, a in zip(rs, acc)}

    def __call__(self, n: int, e: int) -> int:
        q, r = divmod(n, self.p - 1)
        if e > len(self.moments.get(r, ())):
            raise InternalInconsistency(f"no power-sum moments for n = {r} mod {self.p - 1} at p^{e}")
        return sum(math.comb(q, i) * self.p**i * self.moments[r][i] for i in range(e)) % self.p**e


def newton_elementary_ints(power: Mapping[int, int], k_max: int, m: int, p: int) -> dict[int, int]:
    """H_1..H_{k_max} from power sums via k*H_k = sum (-1)^(i-1) H_{k-i} R_i."""
    if p <= k_max:
        raise NotInvertible(f"p={p} too small to divide by 1..{k_max}")
    h = {0: 1}
    for k in range(1, k_max + 1):
        acc = 0
        for i in range(1, k + 1):
            term = h[k - i] * power[i] % m
            acc = acc - term if i % 2 == 0 else acc + term
        h[k] = acc * inv_int(k, m) % m
    del h[0]
    return h

