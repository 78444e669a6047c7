"""Exact arithmetic in Z/p^e: primality, prime lists, valuations, inversion.

Every other module builds on the primitives here.  Residues are plain ints
in [0, p^e) and the modulus travels beside them as an int: ``inv_int`` and
``range_inverses`` take it as an argument, and ``residual_valuation`` reads
v_p of a residue.  ``primes_in`` is the package's one sieve: the searches,
``verify`` ranges, the power-sum pass and the exact B_n oracle all take
their primes from it.

``is_prime`` is Miller-Rabin with the first twelve prime bases, which is
deterministic below PRIME_BOUND (about 3.3e24), and it raises InvalidInput
at or above the bound.  Every kernel in the package is O(p), so no path can
reach a prime that large; a probabilistic test beyond the bound would be
code that nothing runs.
"""

from __future__ import annotations

import functools
import itertools
import math

from .errors import InvalidInput, NotInvertible

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# Miller-Rabin with these bases is deterministic below PRIME_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
SEGMENT = 1 << 17  # numbers primes_in sieves at a time


def _miller_rabin(n: int, base: int) -> bool:
    """One strong-probable-prime round; True means 'probably prime'."""
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base % n, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_BOUND; larger n raise InvalidInput."""
    if n >= PRIME_BOUND:
        raise InvalidInput(f"primality is decided only below the bound {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    return all(_miller_rabin(n, b) for b in _MR_BASES)


@functools.lru_cache(maxsize=1)
def is_odd_prime(p: int) -> bool:
    """p >= 3 and prime.  The last answer is kept: a verify run asks it about
    one p for every Bernoulli residue the rows read."""
    return p >= 3 and is_prime(p)


def primes_in(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], inclusive, by segmented sieve: SEGMENT numbers
    at a time, crossed off by the primes up to isqrt(hi), which come from a
    call of its own."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    base = primes_in(2, math.isqrt(hi))
    out: list[int] = []
    for start in range(lo, hi + 1, SEGMENT):
        end = min(start + SEGMENT - 1, hi)
        flags = bytearray(b"\x01") * (end - start + 1)
        for q in base:
            first = max(q * q, (start + q - 1) // q * q)
            if first <= end:
                flags[first - start :: q] = b"\x00" * ((end - first) // q + 1)
        out.extend(itertools.compress(range(start, end + 1), flags))
    return out


def residual_valuation(x: int, p: int, e: int) -> int:
    """v_p of x seen in Z/p^e, saturated at e (a zero residue reports e)."""
    x %= p**e
    if x == 0:
        return e
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# inversion kernels
# ---------------------------------------------------------------------------

def inv_int(a: int, m: int) -> int:
    """Inverse of a mod m via extended gcd; raises NotInvertible."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {m}") from None


def range_inverses(p: int, m: int) -> list[int]:
    """Inverses of 1..p-1 mod m; slot k holds inv(k), slot 0 is unused."""
    n = p - 1
    pref = [1] * (n + 1)
    acc = 1
    for k in range(2, n + 1):
        acc = acc * k % m
        pref[k] = acc
    running = inv_int(acc, m)
    out = [0] * (n + 1)
    for k in range(n, 0, -1):
        out[k] = running * pref[k - 1] % m
        running = running * k % m
    return out
