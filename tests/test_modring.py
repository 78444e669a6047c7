"""Primality, input validation, inversion and the plain-int kernels."""

import math
import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from wlab.congruence import CheckContext, check_theorem_main
from wlab.errors import InvalidInput, NotInvertible
from wlab.modring import PRIME_BOUND, inv_int, is_prime, range_inverses, residual_valuation
from wlab.search import primes_in
from wlab.sums import inverse_power_sums_ints, newton_elementary_ints

from oracles import batch_inv_ints, symmetric_coeffs_ints


def trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def xgcd_inv(a: int, m: int) -> int:
    # independent extended-gcd oracle
    old_r, r = a % m, m
    old_s, s = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
    assert old_r == 1
    return old_s % m


class TestPrimality:
    def test_small_range_against_trial_division(self):
        for n in range(51000):
            assert is_prime(n) == trial_division(n), n

    def test_known_primes(self):
        for p in (16843, 2124679, 10**9 + 7, 2**61 - 1):
            assert is_prime(p)

    def test_strong_pseudoprimes_and_carmichael(self):
        for n in (561, 1105, 1729, 3215031751, 3825123056546413051):
            assert not is_prime(n)

    def test_at_or_above_bound_refused(self):
        # the bound itself is the least strong pseudoprime to the 12 bases
        for n in (2**89 - 1, 3317044064679887385961981, PRIME_BOUND * 2):
            with pytest.raises(InvalidInput):
                is_prime(n)

    def test_perfect_squares(self):
        for n in (4, 25, 16843**2, (10**9 + 7) ** 2):
            assert not is_prime(n)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**7), st.integers(0, 2000))
    def test_agrees_with_sieve(self, lo, width):
        assert [n for n in range(lo, lo + width + 1) if is_prime(n)] == primes_in(lo, lo + width)


class TestRingNew:
    """The modulus p^e where the library takes one: a prime base, e >= 1."""

    def test_composite_base_rejected(self):
        for n in (4, 9, 561):
            with pytest.raises(InvalidInput):
                CheckContext(n, 2, bernoulli_reads=(), harmonic_order=1)

    def test_exponent_out_of_range(self):
        with pytest.raises(InvalidInput):
            check_theorem_main(7, 0)


class TestInv:
    def test_two_in_seven_seven(self):
        assert inv_int(2, 7**7) == 411772

    def test_identity(self):
        for m in (3**2, 7**7, 16843**2):
            assert inv_int(1, m) == 1

    def test_three_mod_25(self):
        assert inv_int(3, 25) == 17

    def test_not_invertible(self):
        with pytest.raises(NotInvertible):
            inv_int(10, 25)

    def test_involution_property(self):
        rng = random.Random(0)
        m = 13**5
        for _ in range(200):
            a = rng.randrange(1, m)
            if a % 13 == 0:
                continue
            assert inv_int(inv_int(a, m), m) == a
            assert a * inv_int(a, m) % m == 1


class TestBatchInv:
    def test_small_vector_against_xgcd(self):
        assert batch_inv_ints([1, 2, 3, 4], 25, 5) == [1, 13, 17, 19]
        assert [xgcd_inv(v, 25) for v in (1, 2, 3, 4)] == [1, 13, 17, 19]

    def test_empty(self):
        assert batch_inv_ints([], 25, 5) == []

    def test_singleton_identity(self):
        assert batch_inv_ints([1], 7**7, 7) == [1]

    def test_matches_map_inv_random(self):
        rng = random.Random(1)
        m = 11**4
        for size in (1, 2, 7, 40):
            vals = []
            while len(vals) < size:
                a = rng.randrange(1, m)
                if a % 11:
                    vals.append(a)
            got = batch_inv_ints(vals, m, 11)
            assert got == [xgcd_inv(v, m) for v in vals]

    def test_offending_index_reported(self):
        with pytest.raises(NotInvertible) as exc:
            batch_inv_ints([1, 2, 25, 3], 5**3, 5)
        assert exc.value.index == 2

    def test_range_inverses(self):
        m = 13**3
        out = range_inverses(13, m)
        for k in range(1, 13):
            assert out[k] * k % m == 1

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([3, 5, 7, 11, 13, 101]), st.integers(1, 8), st.data())
    def test_property_against_pow(self, p, e, data):
        m = p**e
        vals = data.draw(st.lists(st.integers(1, m - 1).filter(lambda a: a % p), max_size=30))
        assert batch_inv_ints(vals, m, p) == [pow(a, -1, m) for a in vals]
        assert range_inverses(p, m)[1:] == [pow(k, -1, m) for k in range(1, p)]


class TestResidueArithmetic:
    def test_valuation(self):
        assert residual_valuation(50, 5, 4) == 2
        assert residual_valuation(0, 5, 4) == 4
        assert residual_valuation(5**4, 5, 4) == 4
        assert residual_valuation(-25, 5, 4) == 2


class TestSeries:
    def test_truncation_drops_high_terms(self):
        # the product kernel truncated at degree d keeps the low coefficients exactly
        for p in (5, 11, 13):
            m = p**4
            assert symmetric_coeffs_ints(p, m, 2) == symmetric_coeffs_ints(p, m, 6)[:3]


class TestSymmetricProduct:
    def test_constant_coefficient_is_one(self):
        for p in (3, 5, 11, 97):
            assert symmetric_coeffs_ints(p, p**3, 2)[0] == 1

    def test_p3_first_coefficient(self):
        assert symmetric_coeffs_ints(3, 9, 1)[1] == 6  # 1 + inv(2) = 1 + 5 mod 9

    def test_shuffle_relation_p5(self):
        # 2*H_2 = R_1^2 - R_2 with both sides derived from exact rationals
        m = 5**7
        c = symmetric_coeffs_ints(5, m, 2)
        r1 = Fraction(25, 12)
        r2 = Fraction(205, 144)
        h2 = (r1 * r1 - r2) / 2
        assert h2 == Fraction(35, 24)
        assert c[1] == r1.numerator * pow(r1.denominator, -1, m) % m
        assert c[2] == h2.numerator * pow(h2.denominator, -1, m) % m

    def test_evaluation_at_p_recovers_binomial(self):
        # sum_k p^k H_k from the truncated product matches C(2p-1, p-1)
        for p, e in ((11, 5), (13, 5), (97, 5)):
            m = p**e
            got = 0
            for c in reversed(symmetric_coeffs_ints(p, m, min(e + 2, 8))):
                got = (got * p + c) % m
            assert got == math.comb(2 * p - 1, p - 1) % m

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 97]), st.integers(1, 8), st.integers(1, 8))
    def test_agrees_with_newton_route(self, p, e, d):
        m = p**e
        newton = newton_elementary_ints(inverse_power_sums_ints(p, m, d), d, m, p)
        assert symmetric_coeffs_ints(p, m, d)[1:] == [newton[k] for k in range(1, d + 1)]
