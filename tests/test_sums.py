"""Inverse power sums, power sums, symmetric sums, and their identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wlab import sums
from wlab.congruence import CheckContext, binom_central_int
from wlab.errors import InternalInconsistency, InvalidInput, NotInvertible
from wlab.modring import residual_valuation
from wlab.search import primes_in
from wlab.sums import (
    PowerSums,
    half_range_moments,
    inverse_power_sum_from_moments,
    inverse_power_sums_ints,
    newton_elementary_ints,
    power_sum_int,
)

from oracles import half_range_moments_per_k, symmetric_coeffs_ints


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


class TestHalfRangeMoments:
    def test_moments_against_exact_rationals(self):
        p, e = 13, 4
        _, s = half_range_moments(p, p**e, 4)
        for j in range(1, 5):
            exact = sum(Fraction(1, (k * (p - k)) ** j) for k in range(1, (p - 1) // 2 + 1))
            assert s[j] == frac_mod(exact, p**e), j

    def test_short_loops_match_general_loop(self):
        for p in (3, 5, 7, 11, 101, 16843):
            m = p**9
            binom, s = half_range_moments(p, m, 7)
            assert half_range_moments(p, m, 2) == (binom, s[:3])
            assert half_range_moments(p, m, 1) == (binom, s[:2])

    def test_columns_match_per_k_loop_every_prime_3_to_2000(self, monkeypatch):
        # every j >= 2 by columns against one k at a time; blocks of 7 make
        # every p >= 17 span several blocks and end on a partial one
        monkeypatch.setattr(sums, "BLOCK", 7)
        for p in primes_in(3, 2000):
            m = p**8
            for j in (2, 3, 7):
                assert half_range_moments(p, m, j)[1] == half_range_moments_per_k(p, m, j), (p, j)

    @pytest.mark.parametrize("p", [5003, 16843])
    def test_columns_match_per_k_loop_mod_p9(self, p):
        m = p**9
        assert half_range_moments(p, m, 7) == (binom_central_int(p, m), half_range_moments_per_k(p, m, 7))

    def test_j_max_validated(self):
        with pytest.raises(InvalidInput):
            half_range_moments(11, 11**3, 0)

    def test_differential_every_prime_5_to_3000(self):
        # binom and R_1..R_7 mod p^9 against the full-range oracles, at every
        # prime; p = 5 and 7 take the same kernel in CheckContext as the rest
        for p in primes_in(5, 3000):
            m = p**9
            binom, s = half_range_moments(p, m, 7)
            assert binom == binom_central_int(p, m), p
            r = inverse_power_sums_ints(p, m, 7)
            for n in range(1, 8):
                assert inverse_power_sum_from_moments(s, p, m, n) == r[n], (p, n)


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


class TestPowerSums:
    def test_differential_every_prime_3_to_2000(self, monkeypatch):
        # every index Bernoulli extraction reads on the verify path,
        # n = p^j(p-1) - m, at every e <= 6, against one power_sum_int pass per
        # n at p^6; the kernel's sum at p^e is its own truncation, so it is
        # evaluated at each e, while the oracle's P_n mod p^e is its p^6 value
        # reduced.  At p = 3, 5 and 7 some of these n share a residue or have r = 0.
        # Blocks of 7 make every p >= 11 span several blocks and end on a
        # partial one, with composite k > (p-1)/2 read from the bounded table.
        monkeypatch.setattr(sums, "BLOCK", 7)
        for p in primes_in(3, 2000):
            ns = [p**j * (p - 1) - m for j in range(4) for m in (2, 4, 6) if p**j * (p - 1) > m]
            table = PowerSums(p, {n % (p - 1): 6 for n in ns})
            for n in ns:
                want = power_sum_int(p, 6, n)
                for e in range(1, 7):
                    assert table(n, e) == want % p**e, (p, n, e)

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(primes_in(3, 600)), st.integers(1, 6), st.data())
    def test_matches_oracle_any_index(self, p, e, data):
        n = data.draw(st.one_of(
            st.integers(0, p - 2),  # q = 0
            st.integers(0, p**5).map(lambda q: q * (p - 1)),  # r = 0
            st.integers(0, p**5 * (p - 1)),
        ))
        assert PowerSums(p, {n % (p - 1): e})(n, e) == power_sum_int(p, e, n)

    def test_precision_per_residue(self):
        # P_n is served only at residues the pass took, to their own exponent
        p = 11
        sums = PowerSums(p, {8: 6, 6: 4, 4: 2})
        assert [len(sums.moments[r]) for r in (4, 6, 8)] == [2, 4, 6]
        assert sums(6, 4) == power_sum_int(p, 4, 6)
        with pytest.raises(InternalInconsistency):
            sums(6, 5)
        with pytest.raises(InternalInconsistency):
            sums(2, 1)


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
    """Valuation floors of the per-prime sums: R_n from the full-range kernel,
    H_k from the truncated product, read with residual_valuation."""

    @staticmethod
    def r_valuation(p: int, e: int, n: int) -> int:
        return residual_valuation(r_sum(p, e, n), p, e)

    @staticmethod
    def h_valuation(p: int, e: int, k: int) -> int:
        return residual_valuation(symmetric_coeffs_ints(p, p**e, k)[k], p, e)

    def test_p11_wolstenholme_floor(self):
        assert self.r_valuation(11, 7, 1) >= 2

    def test_p13_h3_valuation(self):
        assert self.h_valuation(13, 7, 3) >= 2

    def test_wolstenholme_prime_r1(self):
        assert self.r_valuation(16843, 4, 1) >= 3

    def test_lemma_21_floors(self):
        for p in (11, 37, 101):
            for n in (1, 3, 5):
                assert self.r_valuation(p, 7, n) >= 2, (p, n)
            for n in (2, 4, 6):
                assert self.r_valuation(p, 7, n) >= 1, (p, n)

    def test_h5_h6_floors(self):
        for p in (11, 37, 101):
            assert self.h_valuation(p, 7, 5) >= 2
            assert self.h_valuation(p, 7, 6) >= 1

    def test_small_p_rejected(self):
        # Newton's identities divide by 1..k, so a context sized for H_6 refuses
        # H_5 and H_6 at p = 5, and still serves H_4 and the binomial there
        ctx = CheckContext(5, 8, harmonic_order=6)
        assert ctx.binom() == 126 % 5**8
        assert ctx.H(4) == symmetric_coeffs_ints(5, 5**8, 4)[4]
        for k in (5, 6):
            with pytest.raises(NotInvertible):
                ctx.H(k)
        with pytest.raises(InternalInconsistency):
            ctx.H(7)
