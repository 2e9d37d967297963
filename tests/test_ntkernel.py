import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatsym.ntkernel import (
    _MR_BOUNDS,
    FactorizationError,
    factor_small,
    is_prime,
    jacobi,
    primes_in,
    squarefree_part,
    valuation,
)

from helpers import factored_str, factored_value


def squares_mod(m):
    """Brute-force oracle: nonzero quadratic residues mod m."""
    return {x * x % m for x in range(1, m)} - {0}


FIRST_13_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_r, the least strong pseudoprime to the first r prime bases, for every r
# up to 13 (psi_8 = psi_7, psi_10 = psi_11 = psi_9)
PSI = {
    1: 2047,
    2: 1_373_653,
    3: 25_326_001,
    4: 3_215_031_751,
    5: 2_152_302_898_747,
    6: 3_474_749_660_383,
    7: 341_550_071_728_321,
    9: 3_825_123_056_546_413_051,
    12: 318_665_857_834_031_151_167_461,
    13: 3_317_044_064_679_887_385_961_981,
}


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def reference_is_prime(n):
    """Miller-Rabin with every one of the first 13 prime bases: proven below psi_13."""
    if n < 2:
        return False
    for p in FIRST_13_PRIMES:
        if n % p == 0:
            return n == p
    return all(strong_probable_prime(n, a) for a in FIRST_13_PRIMES)


def band_samples(seed):
    """Random odd n, primes and semiprimes in each band [psi_(r-1), psi_r) that
    is_prime treats with its own witness count, and at the ends of the bands."""
    rng = random.Random(seed)
    ends = [2] + [bound for bound, _ in _MR_BOUNDS]
    samples = []
    for lo, hi in zip(ends, ends[1:]):
        samples += [lo - 1, lo, lo + 1, hi - 2, hi - 1]
        for _ in range(40):
            n = rng.randrange(lo, hi) | 1
            samples.append(n)
            while not reference_is_prime(n):
                n += 2
            if n < hi:
                samples.append(n)
        half = hi.bit_length() // 2
        for _ in range(10):
            primes = []
            while len(primes) < 2:
                n = rng.getrandbits(half) | 1
                if reference_is_prime(n):
                    primes.append(n)
            if lo <= primes[0] * primes[1] < hi:
                samples.append(primes[0] * primes[1])
    return samples


class TestJacobi:
    def test_identity_case(self):
        assert jacobi(1, 3) == 1

    def test_examples_against_square_sets(self):
        # frozen from the brute-force oracle: squares mod 7 = {1,2,4},
        # squares mod 5 = {1,4}; 3^9 = -1 mod 19
        assert jacobi(2, 7) == 1
        assert jacobi(2, 5) == -1
        assert jacobi(3, 19) == -1

    def test_rejects_even_or_nonpositive_modulus(self):
        for m in (0, -3, 4, 10):
            with pytest.raises(ValueError):
                jacobi(2, m)

    def test_matches_square_sets_for_all_odd_primes_below_200(self):
        for m in primes_in(3, 200):
            sq = squares_mod(m)
            for n in range(1, m):
                assert jacobi(n, m) == (1 if n in sq else -1), (n, m)

    def test_zero_when_not_coprime(self):
        assert jacobi(15, 9) == 0
        assert jacobi(0, 7) == 0

    def test_completely_multiplicative_in_numerator(self):
        for m in range(1, 100, 2):
            for n1 in range(-50, 51):
                for n2 in (-7, -2, 3, 10):
                    assert jacobi(n1 * n2, m) == jacobi(n1, m) * jacobi(n2, m)

    def test_multiplicative_in_denominator(self):
        for m1 in range(1, 60, 2):
            for m2 in range(1, 60, 2):
                for n in (-6, -1, 2, 5, 12):
                    assert jacobi(n, m1 * m2) == jacobi(n, m1) * jacobi(n, m2)

    def test_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(7)
        for _ in range(1000):
            m = rng.randrange(1, 10 ** rng.randint(1, 30), 2)
            n = rng.randint(-(10**30), 10**30)
            assert jacobi(n, m) == sympy.jacobi_symbol(n, m), (n, m)


class TestIsPrime:
    def test_small_cases(self):
        assert is_prime(2)
        assert not is_prime(91)  # 7 * 13
        assert not is_prime(0) and not is_prime(1)

    def test_large_prime_from_trial_division(self):
        n = 104729
        assert all(n % d for d in range(2, int(n**0.5) + 1))  # oracle
        assert is_prime(n)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_prime(-5)

    def test_agrees_with_sieve_below_10e6(self):
        limit = 10**6
        flags = bytearray([1]) * limit
        flags[0] = flags[1] = 0
        for i in range(2, int(limit**0.5) + 1):
            if flags[i]:
                flags[i * i :: i] = bytearray(len(range(i * i, limit, i)))
        for n in range(limit):
            assert is_prime(n) == bool(flags[n]), n

    def test_prime_sieve_consistency(self):
        assert primes_in(2, 30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
        assert primes_in(10, 30) == [11, 13, 17, 19, 23, 29]
        assert [n for n in range(2000) if is_prime(n)] == primes_in(0, 2000)

    def test_agrees_with_all_13_witnesses_in_every_band(self):
        for n in band_samples(seed=1):
            assert is_prime(n) == reference_is_prime(n), n

    def test_agrees_with_sympy_in_every_band(self):
        sympy = pytest.importorskip("sympy")
        for n in band_samples(seed=2):
            assert is_prime(n) == sympy.isprime(n), n

    def test_every_psi_is_composite(self):
        for r, psi in PSI.items():
            assert all(strong_probable_prime(psi, a) for a in FIRST_13_PRIMES[:r]), r
            if r < 13:
                assert not is_prime(psi), r
        assert 399165290221 * 798330580441 == PSI[12]
        assert [(r, psi) for psi, r in _MR_BOUNDS] == [(r, PSI[r]) for r in (2, 3, 4, 5, 6, 7, 9, 12, 13)]

    def test_agrees_with_all_13_witnesses_around_the_trial_division_bound(self):
        # below 10^6 = 1000^2 a number with no prime factor under 1000 is prime
        window = range(10**6 - 3000, 10**6 + 3000)
        assert [n for n in window if is_prime(n)] == primes_in(window.start, window.stop)
        for n in window:
            assert is_prime(n) == reference_is_prime(n), n

    def test_composites_with_least_factor_between_41_and_1000(self):
        # trial division by the 13 witnesses misses these; the gcd with the
        # primes below 1000 does not
        small = primes_in(42, 1000)
        sieved = set(primes_in(0, 1009 * 1000))
        for r in small:
            for n in (r * r, r * 1009):
                assert not is_prime(n) and n not in sieved, n
            for n in (r * 1_000_003, r * 1_000_000_007, r * 1_000_000_000_000_000_003):
                assert not is_prime(n) and not reference_is_prime(n), n

    def test_refuses_past_psi_13_unless_a_witness_divides(self):
        for n in [*range(PSI[13], PSI[13] + 100), 10**40 + 1]:
            if any(n % a == 0 for a in FIRST_13_PRIMES):
                assert not is_prime(n), n
            else:
                with pytest.raises(FactorizationError):
                    is_prime(n)


def reference_primes_in(lo, hi):
    return [n for n in range(max(lo, 0), hi) if is_prime(n)]


class TestPrimesIn:
    def test_edge_windows(self):
        edges = {-3, 0, 1, 2, 3, 4}
        edges |= {r * r + d for r in (2, 3, 5, 7, 11, 13, 31) for d in (-1, 0, 1)}
        for lo in edges:
            for hi in edges:
                assert primes_in(lo, hi) == reference_primes_in(lo, hi), (lo, hi)

    def test_windows_from_2(self):
        for limit in range(-2, 200):
            assert primes_in(2, limit) == reference_primes_in(2, limit), limit

    def test_narrow_windows_test_each_number(self):
        # windows narrower than about pi(sqrt(hi)) skip the sieve; a wide
        # window around them is sieved
        rng = random.Random(5)
        for _ in range(20):
            lo = rng.randrange(10**6, 10**10)
            width = rng.randrange(1, 60)
            wide = primes_in(lo - 5000, lo + 5000)
            assert primes_in(lo, lo + width) == [n for n in wide if lo <= n < lo + width], (lo, width)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-10, 10**6), st.integers(-10, 5000))
    def test_random_windows_below_10e6(self, lo, width):
        assert primes_in(lo, lo + width) == reference_primes_in(lo, lo + width)


class TestFactorSmall:
    def test_examples(self):
        f = factor_small(-96)
        assert (f.sign, f.factors) == (-1, {2: 5, 3: 1})
        f = factor_small(1)
        assert (f.sign, f.factors) == (1, {})
        f = factor_small(24)
        assert (f.sign, f.factors) == (1, {2: 3, 3: 1})

    def test_value_round_trip(self):
        for n in list(range(-300, 0)) + list(range(1, 300)):
            assert factored_value(factor_small(n)) == n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            factor_small(0)

    def test_fails_hard_beyond_bound(self, monkeypatch):
        # 10007 * 10009 has no factor below 100 and exceeds 100^2
        monkeypatch.setattr("fermatsym.ntkernel.TRIAL_DIVISION_BOUND", 100)
        with pytest.raises(FactorizationError):
            factor_small(10007 * 10009)

    def test_prime_cofactor_within_bound_squared_is_accepted(self, monkeypatch):
        monkeypatch.setattr("fermatsym.ntkernel.TRIAL_DIVISION_BOUND", 100)
        f = factor_small(2 * 9973)
        assert f.factors == {2: 1, 9973: 1}

    def test_str(self):
        assert factored_str(factor_small(-2160)) == "-2^4 * 3^3 * 5"
        assert factored_str(factor_small(1)) == "1"

    def test_agrees_with_sympy(self):
        # products of primes up to the bound, some times a prime cofactor past it
        sympy = pytest.importorskip("sympy")
        rng = random.Random(8)
        for i in range(120):
            n = rng.choice((1, -1))
            for _ in range(rng.randint(0, 4)):
                n *= sympy.randprime(2, 10 ** rng.randint(1, 6)) ** rng.randint(1, 3)
            if i % 3 == 0:
                n *= sympy.randprime(10**6, 10 ** (12 if i % 40 == 0 else 9))
            f = factor_small(n)
            assert (f.sign, f.factors) == ((1 if n > 0 else -1), sympy.factorint(abs(n))), n


class TestSquarefreePart:
    def test_examples(self):
        assert squarefree_part(8) == 2
        assert squarefree_part(-96) == -6
        assert squarefree_part(1) == 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            squarefree_part(0)

    def test_cofactor_is_perfect_square_up_to_10e4(self):
        from math import isqrt

        for n in range(1, 10**4 + 1):
            for signed in (n, -n):
                s = squarefree_part(signed)
                t2, rem = divmod(signed, s)
                assert rem == 0
                assert isqrt(t2) ** 2 == t2, signed


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-45, 3) == 2
    assert valuation(7, 5) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)
