"""Exact arithmetic in Z/p^e: primality, rings, residues, batch inversion.

Every other module builds on the primitives here.  The computation runs on
plain-int kernels (``range_inverses``, ``batch_inv_ints``,
``symmetric_coeffs_ints``, ...); a thin object API (``ring_new``, ``inv``,
``Residue`` with its ``valuation``) labels results with their ring at the
library's interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    CompositeModulusBase,
    ExponentOutOfRange,
    InvalidInput,
    NotInvertible,
    RingMismatch,
)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97,
)

# Miller-Rabin with these bases is deterministic below 3,317,044,064,679,887,385,961,981.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981


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


def _jacobi(a: int, n: int) -> int:
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_prp(n: int) -> bool:
    """Strong Lucas test with Selfridge's parameter choice."""
    if math.isqrt(n) ** 2 == n:
        return False
    d = 5
    while _jacobi(d, n) != -1:
        d = -(d + 2) if d > 0 else -(d - 2)
    q = (1 - d) // 4
    # Lucas sequences U_k, V_k for P=1, Q=q.
    k = n + 1
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    u, v, qk = 1, 1, q
    bits = bin(k)[3:]
    for bit in bits:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (v + d * u) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u, v = u // 2 % n, v // 2 % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality for n below ~3.3e24; BPSW beyond that."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return all(_miller_rabin(n, b) for b in _MR_BASES)
    return _miller_rabin(n, 2) and _strong_lucas_prp(n)


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


@dataclass(frozen=True)
class PrimePowerRing:
    """The modulus p^e with p prime."""

    p: int
    e: int
    modulus: int

    def __post_init__(self):
        if self.e < 1:
            raise ExponentOutOfRange(f"exponent must be >= 1, got {self.e}")
        if self.p < 2 or not is_prime(self.p):
            raise CompositeModulusBase(f"{self.p} is not prime")
        if self.modulus != self.p**self.e:
            raise InvalidInput("modulus must equal p**e")

    def residue(self, x: int) -> "Residue":
        return Residue(x % self.modulus, self)

    def __repr__(self) -> str:
        return f"Z/{self.p}^{self.e}"


def ring_new(p: int, e: int) -> PrimePowerRing:
    """Construct Z/p^e, rejecting composite p and e < 1."""
    if e < 1:
        raise ExponentOutOfRange(f"exponent must be >= 1, got {e}")
    return PrimePowerRing(p, e, p**e)


@dataclass(frozen=True)
class Residue:
    """Canonical least non-negative representative of a class in Z/p^e."""

    value: int
    ring: PrimePowerRing

    def __post_init__(self):
        if not 0 <= self.value < self.ring.modulus:
            raise InvalidInput(f"residue {self.value} outside [0, {self.ring.modulus})")

    def valuation(self) -> int:
        """v_p of this residue, saturated at the ring exponent."""
        return residual_valuation(self.value, self.ring.p, self.ring.e)


# ---------------------------------------------------------------------------
# int-level kernels
# ---------------------------------------------------------------------------

def inv_int(a: int, m: int) -> int:
    """Inverse of a mod m via extended gcd; raises NotInvertible."""
    try:
        return pow(a, -1, m)
    except ValueError:
        raise NotInvertible(f"{a} is not invertible mod {m}") from None


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
            raise NotInvertible(f"element {v} at index {i} divisible by {p}", index=i)
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


# ---------------------------------------------------------------------------
# object-level operations
# ---------------------------------------------------------------------------

def inv(ring: PrimePowerRing, a: Residue | int) -> Residue:
    if isinstance(a, Residue):
        if a.ring != ring:
            raise RingMismatch(f"{ring} vs {a.ring}")
        a = a.value
    if a % ring.p == 0:
        raise NotInvertible(f"{a} divisible by {ring.p} in {ring}")
    return Residue(inv_int(a % ring.modulus, ring.modulus), ring)
