"""Slow reference kernels that only the tests use.

Each one computes a quantity the package computes faster another way, so
the tests can compare the two at every prime of a range.
"""

from __future__ import annotations

from typing import Sequence

from wlab.errors import NotInvertible
from wlab.modring import inv_int, range_inverses


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

    About 4.6 bits a term; ``bernoulli._pi_fixed`` takes Chudnovsky's series.
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
