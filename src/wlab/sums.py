"""Inverse power sums R_n, power sums P_n, and elementary symmetric sums H_k.

R_n(p) = sum of 1/k^n over k=1..p-1, H_k(p) = k-th elementary symmetric sum
of the inverses, both taken in Z/p^e.  H_1 = R_1 by convention.  Two
independent routes to H are provided (truncated-product coefficients and
Newton's identities from the R_n) and cross-checked when tables are built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InternalInconsistency, InvalidInput, NotInvertible
from .modring import Residue, inv_int, range_inverses, ring_new, symmetric_coeffs_ints

# ---------------------------------------------------------------------------
# int-level kernels
# ---------------------------------------------------------------------------

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


@dataclass(frozen=True)
class SumTable:
    """Per-prime bundle of R_n and H_k at a working exponent."""

    p: int
    e: int
    R: dict[int, Residue]
    H: dict[int, Residue]

    def r_valuation(self, n: int) -> int:
        return self.R[n].valuation()

    def h_valuation(self, k: int) -> int:
        return self.H[k].valuation()


def build_sum_table(p: int, e: int = 7, n_max: int = 6) -> SumTable:
    """Populate R_1..R_{n_max} and H_1..H_{n_max}, cross-checking both H routes.

    A disagreement between the truncated-product and Newton routes indicates
    an implementation bug, not bad input.
    """
    if not 1 <= n_max <= 8:
        raise InvalidInput("n_max must be in 1..8")
    if p < n_max + 2:
        raise InvalidInput(f"need p >= n_max + 2, got p={p}")
    ring = ring_new(p, e)
    m = ring.modulus
    r_ints = inverse_power_sums_ints(p, m, n_max)
    h_product = symmetric_coeffs_ints(p, m, n_max)
    h_newton = newton_elementary_ints(r_ints, n_max, m, p)
    for k in range(1, n_max + 1):
        if h_product[k] != h_newton[k]:
            raise InternalInconsistency(
                f"H_{k}({p}) mod {p}^{e}: product route {h_product[k]} "
                f"!= Newton route {h_newton[k]}"
            )
    R = {n: ring.residue(v) for n, v in r_ints.items()}
    H = {k: ring.residue(h_product[k]) for k in range(1, n_max + 1)}
    return SumTable(p=p, e=e, R=R, H=H)
