"""Exact arithmetic in Z/p^e: primality, valuations, inversion.

Every other module builds on the primitives here.  Residues are plain ints
in [0, p^e) and the modulus travels beside them as an int: ``inv_int`` and
``range_inverses`` take it as an argument, and ``residual_valuation`` reads
v_p of a residue.

``is_prime`` is Miller-Rabin with the first twelve prime bases, which is
deterministic below PRIME_BOUND (about 3.3e24), and it raises InvalidInput
at or above the bound.  Every kernel in the package is O(p), so no path can
reach a prime that large; a probabilistic test beyond the bound would be
code that nothing runs.
"""

from __future__ import annotations

from .errors import InvalidInput, NotInvertible

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# Miller-Rabin with these bases is deterministic below PRIME_BOUND.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


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
        raise InvalidInput(f"{n} is at or above the primality bound {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    return all(_miller_rabin(n, b) for b in _MR_BASES)


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
