"""Inverse power sums, power sums, symmetric sums, and their identities."""

from fractions import Fraction

import pytest

from wlab.errors import InvalidInput, NotInvertible
from wlab.modring import symmetric_coeffs_ints
from wlab.sums import (
    SumTable,
    build_sum_table,
    inverse_power_sums_ints,
    newton_elementary_ints,
    power_sum_int,
)


def frac_mod(fr: Fraction, m: int) -> int:
    return fr.numerator * pow(fr.denominator, -1, m) % m


def exact_r(p: int, n: int) -> Fraction:
    return sum(Fraction(1, k**n) for k in range(1, p))


def r_sum(p: int, e: int, n: int) -> int:
    """R_n(p) mod p^e through the batch kernel."""
    return inverse_power_sums_ints(p, p**e, n)[n]


class TestInversePowerSum:
    def test_p5_vanishes_mod_25(self):
        assert r_sum(5, 2, 1) == 0

    def test_p7_vanishes_mod_49(self):
        # hand inversion table mod 49: 1+25+33+37+10+41 = 147 = 3*49
        assert r_sum(7, 2, 1) == 0

    def test_p3_squares(self):
        assert r_sum(3, 1, 2) == 2

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_exact_rationals(self, p, n):
        for e in (1, 3, 5):
            assert r_sum(p, e, n) == frac_mod(exact_r(p, n), p**e)

    def test_batch_kernel_matches(self):
        sums = inverse_power_sums_ints(13, 13**5, 6)
        for n in range(1, 7):
            assert sums[n] == frac_mod(exact_r(13, n), 13**5)


class TestPowerSum:
    def test_exponent_multiple_of_p_minus_one(self):
        assert power_sum_int(5, 1, 4) == 4  # 354 mod 5

    def test_linear(self):
        assert power_sum_int(5, 1, 1) == 0

    def test_exact_small(self):
        for p in (5, 7, 11):
            for n in (1, 2, 3, 7, 12):
                assert power_sum_int(p, 3, n) == sum(k**n for k in range(1, p)) % p**3

    def test_euler_pairing_with_inverse_sum(self):
        # phi(11^6) - 1-type exponent pairs P_n with R_1
        n = 11**5 * 10 - 1
        assert power_sum_int(11, 2, n) == r_sum(11, 2, 1)

    def test_huge_exponent(self):
        n = 13**9 * 12 + 2
        assert power_sum_int(13, 4, n) == power_sum_int(13, 4, 2)


class TestSymmetricSums:
    def test_p5_h2_is_35_over_24(self):
        m = 5**7
        assert symmetric_coeffs_ints(5, m, 2)[2] == frac_mod(Fraction(35, 24), m)

    def test_p3_single_pair(self):
        # only one pair (1, 2), so H_2(3) = 1/2
        for e in (1, 2, 4):
            assert symmetric_coeffs_ints(3, 3**e, 2)[2] == frac_mod(Fraction(1, 2), 3**e)

    def test_h1_is_r1(self):
        for p in (11, 31, 97):
            assert symmetric_coeffs_ints(p, p**4, 1)[1] == r_sum(p, 4, 1)

    def test_exact_elementary_sums_p7(self):
        # brute-force elementary symmetric sums of {1, 1/2, ..., 1/6}
        from itertools import combinations

        m = 7**5
        h = symmetric_coeffs_ints(7, m, 4)
        invs = [Fraction(1, k) for k in range(1, 7)]
        for k in range(1, 5):
            exact = Fraction(0)
            for combo in combinations(invs, k):
                term = Fraction(1)
                for f in combo:
                    term *= f
                exact += term
            assert h[k] == frac_mod(exact, m)


class TestNewtonSymmetric:
    @pytest.mark.parametrize("p", [11, 13, 101])
    def test_agrees_with_product_route(self, p):
        m = p**7
        newton = newton_elementary_ints(inverse_power_sums_ints(p, m, 6), 6, m, p)
        product = symmetric_coeffs_ints(p, m, 6)
        assert newton == {k: product[k] for k in range(1, 7)}

    def test_k1_is_r1(self):
        r = inverse_power_sums_ints(11, 11**3, 1)
        assert newton_elementary_ints(r, 1, 11**3, 11)[1] == r[1]

    def test_k2_shuffle(self):
        m = 13**5
        r = inverse_power_sums_ints(13, m, 2)
        h2 = newton_elementary_ints(r, 2, m, 13)[2]
        assert h2 == (r[1] ** 2 - r[2]) * pow(2, -1, m) % m

    def test_small_p_rejected(self):
        r = inverse_power_sums_ints(5, 25, 6)
        with pytest.raises(NotInvertible):
            newton_elementary_ints(r, 6, 25, 5)


class TestSumTable:
    def test_p11_wolstenholme_floor(self):
        table = build_sum_table(11, 7)
        assert table.r_valuation(1) >= 2

    def test_p13_h3_valuation(self):
        table = build_sum_table(13, 7)
        assert table.h_valuation(3) >= 2

    def test_wolstenholme_prime_r1(self):
        table = build_sum_table(16843, 4)
        assert table.r_valuation(1) >= 3

    def test_lemma_21_floors(self):
        for p in (11, 37, 101):
            table = build_sum_table(p, 7)
            for n in (1, 3, 5):
                assert table.r_valuation(n) >= 2, (p, n)
            for n in (2, 4, 6):
                assert table.r_valuation(n) >= 1, (p, n)

    def test_h5_h6_floors(self):
        for p in (11, 37, 101):
            table = build_sum_table(p, 7)
            assert table.h_valuation(5) >= 2
            assert table.h_valuation(6) >= 1

    def test_small_p_rejected(self):
        with pytest.raises(InvalidInput):
            build_sum_table(5, 7)

    def test_is_frozen_record(self):
        table = build_sum_table(11, 4)
        assert isinstance(table, SumTable)
        assert table.p == 11 and table.e == 4
        assert set(table.R) == set(table.H) == set(range(1, 7))
