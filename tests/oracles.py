"""Slow reference kernels that only the tests use.

Each one computes a quantity the package computes faster another way, so
the tests can compare the two at every prime of a range.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from wlab.bernoulli import exact_bernoulli, fraction_mod
from wlab.errors import NotInvertible
from wlab.modring import inv_int, range_inverses


def lehmer_sum(p: int, n: int, lo: int, hi: int) -> int:
    """sum_{lo < k <= hi} 1/k^n mod p, one k at a time as a running fraction.

    Needs 0 <= lo and hi < p, so that no k is a multiple of p.  Over
    p/4 < k <= p/3 it is the search filter that ``search.lehmer_walk``
    computes for many primes in one walk.
    """
    num, den = 0, 1
    for k in range(lo + 1, hi + 1):
        c = pow(k, n, p)
        num = (num * c + den) % p
        den = den * c % p
    return num * pow(den, -1, p) % p


def binom_central_per_k(p: int, m: int) -> int:
    """prod_{k=1}^{p-1} (p+k)/k mod m, one factor at a time, each product
    reduced mod m: ``congruence.binom_central_int`` multiplies blocks."""
    num = den = 1
    for k in range(1, p):
        num = num * (p + k) % m
        den = den * k % m
    return num * inv_int(den, m) % m


def half_range_s1_per_k(p: int, m: int) -> tuple[int, int]:
    """(C(2p-1, p-1), S_1) mod m over k <= (p-1)/2, one k at a time, each step
    reduced mod m: ``sums.half_range_moments(p, m, 1)`` folds blocks."""
    two_p2 = 2 * p * p
    s1, den, num = 0, 1, 1
    for k in range(1, (p - 1) // 2 + 1):
        a = k * (p - k)
        s1 = (s1 * a + den) % m
        den = den * a % m
        num = num * (a + two_p2) % m
    inv = inv_int(den, m)
    return num * inv % m, s1 * inv % m


def batch_inv_ints(vals: Sequence[int], m: int, p: int) -> list[int]:
    """Invert every element with one extended gcd and 3(n-1) multiplications.

    Prefix products: pref[i] = v_0 * ... * v_i.  One inversion of the full
    product, then a backward sweep peels off individual inverses.  Output
    order matches input order.
    """
    n = len(vals)
    if n == 0:
        return []
    for i, v in enumerate(vals):
        if v % p == 0:
            err = NotInvertible(f"element {v} at index {i} divisible by {p}")
            err.index = i  # the first offending element, for the caller
            raise err
    pref = [0] * n
    acc = 1
    for i, v in enumerate(vals):
        acc = acc * v % m
        pref[i] = acc
    running = inv_int(acc, m)
    out = [0] * n
    for i in range(n - 1, 0, -1):
        out[i] = running * pref[i - 1] % m
        running = running * vals[i] % m
    out[0] = running
    return out


def symmetric_coeffs_ints(p: int, m: int, d: int) -> list[int]:
    """Coefficients of prod_{i=1}^{p-1} (1 + x/i) mod (m, x^(d+1)).

    Slot k is the k-th elementary symmetric sum of the inverses of 1..p-1.
    Runs in O(p*d) multiplications on top of one batch inversion.
    """
    invs = range_inverses(p, m)
    c = [0] * (d + 1)
    c[0] = 1
    top = 0
    for k in range(1, p):
        v = invs[k]
        if top < d:
            top += 1
        for j in range(top, 0, -1):
            c[j] = (c[j] + c[j - 1] * v) % m
    return c


def tangent_numbers(n: int) -> list[int]:
    """T_1..T_n (tan x = sum T_k x^(2k-1)/(2k-1)!), integer triangle scheme.

    O(n^2) big-int operations (Brent and Harvey, 2013); B_2k follows as
    (-1)^(k+1) * 2k * T_k / (4^k * (4^k - 1)).
    """
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


def machin_pi(bits: int) -> int:
    """pi * 2^bits within 2 units, by Machin: pi = 16 atan(1/5) - 4 atan(1/239).

    About 4.6 bits a term; ``bernoulli._two_pi_pow`` takes Chudnovsky's series.
    """
    one, acc = 1 << (bits + 32), 0
    for c, x in ((16, 5), (-4, 239)):
        term, k = one // x, 1
        while term:
            acc += c * (term // k)
            c, term, k = -c, term // (x * x), k + 2
    return acc >> 32


def half_range_moments_per_k(p: int, m: int, j_max: int) -> list[int]:
    """[0, S_1, ..., S_{j_max}] mod m, S_j = sum of u_k^j over k <= (p-1)/2
    with u_k = 1/(k(p-k)), one k at a time with every power reduced mod m:
    ``sums.half_range_moments`` takes every j_max >= 2 by columns."""
    us = batch_inv_ints([k * (p - k) for k in range(1, (p - 1) // 2 + 1)], m, p)
    s = [0] * (j_max + 1)
    for u in us:
        w = 1
        for j in range(1, j_max + 1):
            w = w * u % m
            s[j] += w
    return [v % m for v in s]


def kummer_alternating_sum_exact(m: int, p: int, r: int) -> int:
    """sum_{k=0}^{r} (-1)^k C(r,k) B_{m+k(p-1)}/(m+k(p-1)) mod p^(r+1), summed
    as exact fractions and reduced once: ``bernoulli.kummer_alternating_sum``
    reduces each term first.  Takes the inputs that function accepts."""
    total = Fraction(0)
    for k in range(r + 1):
        idx = m + k * (p - 1)
        term = Fraction(math.comb(r, k)) * exact_bernoulli(idx) / idx
        total += term if k % 2 == 0 else -term
    return fraction_mod(total, p ** (r + 1))
