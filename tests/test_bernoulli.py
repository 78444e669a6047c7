"""Exact Bernoulli numbers, index reduction, and power-sum extraction."""

from fractions import Fraction
from functools import lru_cache

import pytest

from oracles import kummer_alternating_sum_exact, machin_pi, tangent_numbers
from wlab import bernoulli
from wlab.bernoulli import (
    DEFAULT_EXACT_CAP,
    _extract,
    bernoulli_mod,
    exact_bernoulli,
    fraction_mod,
    kummer_alternating_check,
    kummer_reduce,
    power_sum_table,
)
from wlab.errors import (
    CapExceeded,
    IndexDivisible,
    InternalInconsistency,
    InvalidInput,
    KummerInapplicable,
)
from wlab.modring import inv_int
from wlab.search import primes_in
from wlab.sums import PowerSums, power_sum_int


def extracted(n: int, p: int, r: int) -> int:
    """B_n mod p^r by bernoulli_mod's extraction route, from the table of n's
    representative."""
    return bernoulli_mod(n, p, r, sums=PowerSums(p, power_sum_table(kummer_reduce(n, p, r), p, r)))


def bernoulli_mod_two_term(n: int, p: int, r: int) -> int:
    """Cross-check oracle: B_n mod p^r (r <= 3, even n >= 4, p >= 11) from the
    two-term expansion P_n = p*B_n + p^3/6 * n(n-1) * B_{n-2} (valid mod p^5)."""
    m = p ** (r + 1)
    total = power_sum_int(p, r + 1, n)
    coef = n * (n - 1) * inv_int(6, m) % m
    if (n - 2) % (p - 1) == 0:
        total -= coef * p * p * _extract(n - 2, p, r - 1, PowerSums(p, power_sum_table(n - 2, p, r - 1)))
    elif r >= 3:
        total -= coef * p**3 * _extract(n - 2, p, r - 2, PowerSums(p, power_sum_table(n - 2, p, r - 2)))
    total %= m
    assert total % p == 0, (n, p)
    return total // p % p**r


@lru_cache(maxsize=None)
def recurrence_bernoulli(n: int) -> Fraction:
    """Independent oracle: sum_{k=0}^{n} C(n+1, k) B_k = 0."""
    from math import comb

    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += comb(n + 1, k) * recurrence_bernoulli(k)
    return -acc / (n + 1)


class TestExactBernoulli:
    def test_textbook_values(self):
        assert exact_bernoulli(0) == 1
        assert exact_bernoulli(1) == Fraction(-1, 2)
        assert exact_bernoulli(2) == Fraction(1, 6)
        assert exact_bernoulli(3) == 0
        assert exact_bernoulli(8) == Fraction(-1, 30)
        assert exact_bernoulli(12) == Fraction(-691, 2730)
        assert exact_bernoulli(16) == Fraction(-3617, 510)

    def test_odd_indices_vanish(self):
        for n in range(3, 31, 2):
            assert exact_bernoulli(n) == 0

    def test_against_defining_recurrence(self):
        for n in range(61):
            assert exact_bernoulli(n) == recurrence_bernoulli(n), n

    def test_cap(self):
        with pytest.raises(CapExceeded):
            exact_bernoulli(DEFAULT_EXACT_CAP + 2)

    def test_tangent_oracle_on_whole_domain(self):
        # every index the zeta formula serves, so its rounding bound is proven
        t = tangent_numbers(DEFAULT_EXACT_CAP // 2)
        want = {0: Fraction(1), 1: Fraction(-1, 2)}
        for k in range(1, DEFAULT_EXACT_CAP // 2 + 1):
            b = Fraction(2 * k * t[k], 4**k * (4**k - 1))
            want[2 * k] = b if k % 2 else -b
        for n in range(DEFAULT_EXACT_CAP + 1):
            assert exact_bernoulli(n) == want.get(n, 0), n

    def test_euler_primes_cover_exact_domain(self, monkeypatch):
        # from an empty cache every even n <= cap stops its Euler product on a
        # prime of the sieved list; with the primes above 113 taken out, n = 2000
        # (whose product stops at 127) runs out of primes and says so
        monkeypatch.setattr(bernoulli, "_bern_cache", {0: Fraction(1), 1: Fraction(-1, 2)})
        for n in range(2, DEFAULT_EXACT_CAP + 1, 2):
            exact_bernoulli(n)
        cut = bytearray(bernoulli._prime_sieve())
        cut[114:] = bytes(len(cut) - 114)
        monkeypatch.setattr(bernoulli, "_sieve", cut)
        monkeypatch.setattr(bernoulli, "_bern_cache", {})
        with pytest.raises(InternalInconsistency, match="ran out of primes"):
            exact_bernoulli(DEFAULT_EXACT_CAP)

    @pytest.mark.parametrize("bits", [64, 700, 2048])
    def test_two_pi_powers_within_bound(self, monkeypatch, bits):
        # (2pi)^n from the squared table against Machin's pi raised exactly,
        # within the (5n + 4 popcount(n)) * 2^-bits relative bound
        monkeypatch.setattr(bernoulli, "_two_pi_powers", (0, []))
        two_pi = machin_pi(bits + 64) << 1  # 2pi * 2^(bits+64), within 4 units
        for n in (1, 2, 3, 255, 1024, 1366, 2000):
            m, e = bernoulli._two_pi_pow(n, bits)
            assert m.bit_length() == bits
            # exact: two_pi^n * 2^-(bits+64)n, so compare m * 2^e with it
            shift = e + (bits + 64) * n
            got = m << shift if shift >= 0 else m
            want = two_pi**n if shift >= 0 else two_pi**n << -shift
            bound = (5 * n + 4 * bin(n).count("1") + 1) * want >> bits
            assert abs(got - want) <= bound, n

    def test_one_index_per_call(self, monkeypatch):
        monkeypatch.setattr(bernoulli, "_bern_cache", {0: Fraction(1), 1: Fraction(-1, 2)})
        exact_bernoulli(1802)
        assert sorted(bernoulli._bern_cache) == [0, 1, 1802]

    @pytest.mark.parametrize("bits", [64, 1024, 8192, 16384])
    def test_pi_against_machin(self, monkeypatch, bits):
        # an empty table, so the series runs at this width; its first entry is
        # pi * 2^(bits-2), and Machin 64 bits wider is within a unit
        monkeypatch.setattr(bernoulli, "_two_pi_powers", (0, []))
        bernoulli._two_pi_pow(1, bits)
        assert bernoulli._two_pi_powers[0] == bits
        assert abs(bernoulli._two_pi_powers[1][0][0] - (machin_pi(bits + 64) >> 66)) <= 2


class TestKummerReduce:
    def test_reduction_mod_p_minus_one(self):
        assert kummer_reduce(13308, 11, 1) == 8

    def test_fixed_point(self):
        assert kummer_reduce(10, 13, 1) == 10

    def test_higher_precision(self):
        n = kummer_reduce(11**6 - 11**5 - 2, 11, 4)
        assert n == 13308  # = index mod 11^3 * 10, minimal even >= 5
        assert n % 2 == 0 and n >= 5
        assert (11**6 - 11**5 - 2 - n) % (11**3 * 10) == 0

    def test_divisible_index_rejected(self):
        with pytest.raises(IndexDivisible):
            kummer_reduce(20, 11, 2)

    def test_representative_at_least_r_plus_one(self):
        n = kummer_reduce(2, 13, 3)
        assert n >= 4 and n % 2 == 0 and (n - 2) % (13**2 * 12) == 0


class TestExtraction:
    def test_b10_mod_13(self):
        # B_10 = 5/66 and 66 = 1 mod 13
        assert extracted(10, 13, 1) == 5

    def test_b2_mod_11(self):
        assert extracted(2, 11, 1) == inv_int(6, 11)

    def test_oracle_equivalence_sweep(self):
        # even n <= 60, primes 11..97, r <= 3; n = 2 at r = 2, 3 rescales
        # from a representative past r by Kummer's factor
        for p in primes_in(11, 97):
            for n in range(2, 61, 2):
                if n % (p - 1) == 0:
                    continue
                for r in (1, 2, 3):
                    got = extracted(n, p, r)
                    want = fraction_mod(exact_bernoulli(n), p**r)
                    assert got == want, (n, p, r)

    def test_oracle_equivalence_high_precision(self):
        # r = 4 and 5 exercise the deepest recursion (these are the
        # precisions the mod-p^7 Bernoulli form needs), and n = 2, 4 <= r
        # rescale from a representative past r by Kummer's factor
        for p in primes_in(11, 97):
            for n in range(2, 61, 2):
                if n % (p - 1) == 0:
                    continue
                for r in (4, 5):
                    got = extracted(n, p, r)
                    want = fraction_mod(exact_bernoulli(n), p**r)
                    assert got == want, (n, p, r)

    def test_two_term_path_agrees(self):
        for p in (11, 13, 37):
            for n in (4, 6, 8, 14, 22):
                if n % (p - 1) == 0:
                    continue
                for r in (1, 2, 3):
                    assert bernoulli_mod_two_term(n, p, r) == extracted(n, p, r), (p, n, r)

    @pytest.mark.parametrize("p", [11, 13])
    def test_divisible_index_extracts_p_times_b(self, p):
        # (p-1) | n: B_n has p once in its denominator, so _extract gives p*B_n
        for n in (p - 1, 2 * (p - 1)):
            for j in range(1, 7):
                got = _extract(n, p, j, PowerSums(p, power_sum_table(n, p, j - 1)))
                assert got == fraction_mod(p * exact_bernoulli(n), p**j), (n, j)

    @pytest.mark.parametrize("p", [11, 13, 101])
    def test_table_holds_exactly_what_extraction_reads(self, p, monkeypatch):
        # the largest precision read per residue is the table's precision map:
        # no entry goes unread (the i = r entry at p^1 of an even r is read
        # only when (p-1) | (n-r): p+1 and p+3 here) and no read is refused
        reads = {}
        call = PowerSums.__call__

        def record(self, n, e):
            reads[n % (p - 1)] = max(reads.get(n % (p - 1), 0), e)
            return call(self, n, e)

        monkeypatch.setattr(PowerSums, "__call__", record)
        for index in (p - 3, p - 5, p**2 - p - 4, p**4 - p**3 - 2, p + 1, p + 3):
            for r in range(1, 6):
                precision = power_sum_table(kummer_reduce(index, p, r), p, r)
                reads.clear()
                bernoulli_mod(index, p, r, sums=PowerSums(p, precision))
                assert reads == precision, (index, r)

    def test_precision_cap(self):
        with pytest.raises(KummerInapplicable):
            extracted(14, 11, 6)

    def test_small_prime_rejected(self):
        with pytest.raises(KummerInapplicable):
            extracted(4, 7, 1)


class TestBernoulliMod:
    def test_huge_index_reduces_to_two_thirds_b_p_minus_3(self):
        for p in (11, 13, 37, 97):
            got = bernoulli_mod(p**4 - p**3 - 2, p, 1)
            want = fraction_mod(Fraction(2, 3) * exact_bernoulli(p - 3), p)
            assert got == want, p

    def test_p2_p_4_reduces_to_four_fifths_b_p_minus_5(self):
        p = 13
        got = bernoulli_mod(p**2 - p - 4, p, 1)
        want = fraction_mod(Fraction(4, 5) * exact_bernoulli(p - 5), p)
        assert got == want

    def test_small_index_direct(self):
        assert bernoulli_mod(10, 13, 1) == 5

    def test_extraction_path_matches_exact_path(self):
        for p in (11, 13, 97, 199):
            for expr in (p**4 - p**3 - 2, p**4 - p**3 - 4, p**3 - p**2 - 2, p**2 - p - 4):
                for r in (1, 2):
                    exact = bernoulli_mod(expr, p, r)
                    table = PowerSums(p, power_sum_table(kummer_reduce(expr, p, r), p, r))
                    extracted = bernoulli_mod(expr, p, r, sums=table)
                    assert exact == extracted, (p, expr, r)

    def test_kummer_invariance_property(self):
        # same p, r; indices congruent mod phi(p^r) have matching B/m ratios
        for p, r in ((11, 1), (13, 2), (17, 2)):
            phi = p ** (r - 1) * (p - 1)
            for m in (4, 6, 10):
                if m % (p - 1) == 0:
                    continue
                n = m + 2 * phi
                if n > DEFAULT_EXACT_CAP:
                    continue
                mr = p**r
                bm = bernoulli_mod(m, p, r)
                bn = bernoulli_mod(n, p, r)
                assert bm * inv_int(m, mr) % mr == bn * inv_int(n % mr, mr) % mr, (p, r, m)

    def test_divisible_index(self):
        with pytest.raises(IndexDivisible):
            bernoulli_mod(30, 11, 3)

    def test_odd_index_rejected(self):
        with pytest.raises(InvalidInput):
            bernoulli_mod(9, 11, 1)

    @pytest.mark.parametrize("p", [15, 121, 561])
    def test_composite_p_rejected(self, p):
        # bernoulli_mod tests p once, in kummer_reduce, and its extraction
        # trusts that; every public entry point still refuses a composite p
        table = PowerSums(p, power_sum_table(p - 3, p, 2))
        calls = [
            lambda: kummer_reduce(p - 3, p, 2),
            lambda: bernoulli_mod(p - 3, p, 2),
            lambda: bernoulli_mod(p**4 - p**3 - 2, p, 2),
            lambda: bernoulli_mod(p - 3, p, 2, sums=table),
            lambda: bernoulli.kummer_alternating_sum(4, p, 1),
        ]
        for call in calls:
            with pytest.raises(InvalidInput, match="prime"):
                call()


class TestAlternatingSum:
    def test_m4_p7_r2(self):
        # exact sum is -45*49*19/89760: valuation exactly 2
        report = kummer_alternating_check(4, 7, 2)
        assert report["holds"] and report["residual_valuation"] == 2

    def test_m2_p5_r1(self):
        # B_2/2 - B_6/6 = 5/63: valuation exactly 1
        report = kummer_alternating_check(2, 5, 1)
        assert report["holds"] and report["residual_valuation"] == 1

    def test_r0_trivial(self):
        report = kummer_alternating_check(6, 11, 0)
        assert report["holds"] and report["residual_valuation"] >= 0

    def test_small_sweep(self):
        for p in (7, 11, 13, 23):
            for m in (4, 6, 8):
                if m % (p - 1) == 0:
                    continue
                for r in range(1, min(4, m)):
                    report = kummer_alternating_check(m, p, r)
                    assert report["holds"], (m, p, r)
                    assert bernoulli.kummer_alternating_sum(m, p, r) == kummer_alternating_sum_exact(m, p, r)

    # the cases above, and three where p divides an index: 10 at (6, 5),
    # 14 at (8, 7), and 50 = 2 * 5^2 at (14, 5, 9)
    @pytest.mark.parametrize("m, p, r", [(4, 7, 2), (2, 5, 1), (6, 11, 0), (6, 5, 2), (8, 7, 3), (14, 5, 9)])
    def test_residue_sum_is_the_exact_sum_at_each_case(self, m, p, r):
        assert bernoulli.kummer_alternating_sum(m, p, r) == kummer_alternating_sum_exact(m, p, r)

    def test_residue_sum_is_the_exact_sum_every_prime_to_999(self):
        # kummer3.3's (m, r) = (4, 2); at p = 997 its indices reach 1996, near the exact cap
        for p in primes_in(7, 999):
            assert bernoulli.kummer_alternating_sum(4, p, 2) == kummer_alternating_sum_exact(4, p, 2), p

    def test_cap_guard(self):
        with pytest.raises(CapExceeded):
            kummer_alternating_check(4, 2003, 2)

    def test_precondition_m_divisible(self):
        with pytest.raises(InvalidInput):
            kummer_alternating_check(10, 11, 2)

    def test_terms_are_p_integral(self):
        # why the check needs no branch for p in the denominator of its sum:
        # B_n/n is p-integral whenever (p-1) does not divide n
        primes = primes_in(5, 1009)
        for n in range(2, DEFAULT_EXACT_CAP + 1, 2):
            den = (exact_bernoulli(n) / n).denominator
            assert [p for p in primes if n % (p - 1) and den % p == 0] == [], n
