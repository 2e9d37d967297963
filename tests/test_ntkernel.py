import random
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatsym.ntkernel import (
    _MR_BOUNDS,
    FactorizationError,
    _is_prime,
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

    def test_refuses_past_psi_13_unless_a_prime_below_1000_divides(self):
        for n in [*range(PSI[13], PSI[13] + 100), 10**40 + 1, 43 * (10**23 + 3)]:
            if any(n % a == 0 for a in primes_in(2, 1000)):
                assert not is_prime(n), n
            else:
                with pytest.raises(FactorizationError):
                    is_prime(n)


# The 113 base-2 Fermat pseudoprimes n in (10^6, 10^7) for which n - 1 has a
# prime factor f with f^2 > n, found by testing 2^(n-1) = 1 mod n on every
# n = r mod r*ord_r(2) (the form each prime r | n forces) for primes r < sqrt(10^7)
FERMAT_PSEUDOPRIMES_WITH_A_LARGE_FACTOR = (
    1018921, 1050985, 1064053, 1073021, 1093417, 1104349, 1132657, 1157689, 1394185, 1485177,
    1507963, 1509709, 1530787, 1533961, 1549411, 1620385, 1711381, 1719601, 1773289, 1809697,
    1815465, 1826203, 1892185, 1969417, 1993537, 1994689, 2008597, 2077545, 2121301, 2134277,
    2162721, 2232865, 2304167, 2434651, 2503501, 2528921, 2617451, 2722681, 2748023, 2780731,
    2882265, 2921161, 2940337, 2977217, 2987167, 3116107, 3165961, 3224065, 3235699, 3336319,
    3345773, 3375487, 3471071, 3898129, 3916261, 4025905, 4038673, 4072729, 4097791, 4314967,
    4360621, 4361389, 4463641, 4513841, 4670029, 4806061, 4868701, 4869313, 4895065, 4917331,
    5034601, 5095177, 5131589, 5187637, 5258701, 5351537, 5529745, 5599765, 5672041, 6054985,
    6183601, 6236473, 6242685, 6474691, 6631549, 6658669, 6733693, 6749021, 6836233, 6886321,
    6973057, 6973063, 7233265, 7259161, 7428421, 7429117, 7803769, 7883731, 8012845, 8095447,
    8180461, 8812273, 9037729, 9084223, 9106141, 9224391, 9480461, 9591661, 9692453, 9774181,
    9834781, 9890881, 9995671,
)


def pocklington_steps(n, f):
    """The two steps of _is_prime's Pocklington test, without its checks on f:
    False (composite), True (prime) or None (left to Miller-Rabin)."""
    x = pow(2, (n - 1) // f, n)
    if pow(x, f, n) != 1:
        return False
    return True if gcd(x - 1, n) == 1 else None


class TestPocklington:
    def test_agrees_with_miller_rabin_on_q_equal_kp_plus_one(self):
        # what the q-scan asks: p prime, k even and k < p, so p^2 > q = kp + 1;
        # every k below p = 1009..1399 (q up to 1.4e6), k <= 300 at p near
        # 1e5, and seeded k < 2000 at p from 1e6 to 1e12
        rng = random.Random(24)
        pairs = [(p, k) for p in primes_in(1009, 1400) for k in range(2, p, 2)]
        pairs += [(p, k) for p in primes_in(10**5, 10**5 + 1000) for k in range(2, 301, 2)]
        for e in range(6, 13):
            for _ in range(300):
                p = rng.randrange(10**e, 10 ** (e + 1))
                while not is_prime(p):
                    p += 1
                pairs.append((p, rng.randrange(2, 2000, 2)))
        primes = large = 0
        for p, k in pairs:
            q = k * p + 1
            assert _is_prime(q, p) == is_prime(q), (p, k)
            primes += is_prime(q)
            large += q >= 10**6
        assert len(pairs) > 40000 and primes > 5000 and large > 20000

    def test_fermat_pseudoprimes_fail_at_the_gcd_step(self):
        # 2^(n-1) = 1 mod n passes, so only the gcd step stands between each n
        # and a wrong "prime": it finds a factor, as every prime r | n has
        # ord_r(2) | k = (n - 1)/f, and Miller-Rabin then says composite.  The
        # 18 with no prime factor below 1000 get past trial division to it.
        assert FERMAT_PSEUDOPRIMES_WITH_A_LARGE_FACTOR[0] == 1018921 == 840 * 1213 + 1
        assert len(FERMAT_PSEUDOPRIMES_WITH_A_LARGE_FACTOR) == 113
        past_trial_division = 0
        for n in FERMAT_PSEUDOPRIMES_WITH_A_LARGE_FACTOR:
            factors = factor_small(n).factors
            assert sum(factors.values()) > 1 and pow(2, n - 1, n) == 1, n
            f = max(factor_small(n - 1).factors)
            assert f * f > n, n
            assert pocklington_steps(n, f) is None and pow(2, (n - 1) // f, n) == 1, n
            assert not _is_prime(n, f), n
            past_trial_division += min(factors) > 1000
        assert past_trial_division == 18

    def test_ignores_a_factor_that_is_too_small(self):
        # f | n - 1 but f^2 <= n: on these pseudoprimes, with no prime factor
        # below 1000, the gcd step would wrongly say "prime"
        for n, f in ((1678541, 2), (2134277, 149), (6955541, 761), (9006401, 433)):
            assert (n - 1) % f == 0 and f * f <= n and pocklington_steps(n, f) is True, n
            assert min(factor_small(n).factors) > 1000, n
            assert not _is_prime(n, f) and not reference_is_prime(n), n

    def test_ignores_a_factor_that_does_not_divide_n_minus_1(self):
        # f^2 > n but f does not divide n - 1: on a prime n the Fermat step
        # would wrongly say "composite"
        for n, f in ((1000003, 1009), (1000003, 1013), (10**12 + 39, 10**6 + 3)):
            assert (n - 1) % f and f * f > n and pocklington_steps(n, f) is False, n
            assert _is_prime(n, f) and reference_is_prime(n), n


def trial_division_is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


# every base-2 Fermat pseudoprime below 10^5 (odd composites n with
# 2^(n-1) = 1 mod n), the 113 above and four below 10^7 on which Pocklington's
# gcd step says "prime" for a composite f = (n - 1)/2 or a small prime f
BASE_2_PSEUDOPRIMES = (
    *(n for n in range(3, 10**5, 2) if pow(2, n - 1, n) == 1 and not trial_division_is_prime(n)),
    *FERMAT_PSEUDOPRIMES_WITH_A_LARGE_FACTOR,
    1678541, 2134277, 6955541, 9006401,
)


class TestPublicIsPrime:
    def test_takes_no_factor_of_n_minus_1(self):
        # the composite f = (n - 1)/2 makes Pocklington's gcd step call
        # 1678541 = 1013 * 1657 prime, so the public test takes no f
        assert 1678541 == 1013 * 1657 and pocklington_steps(1678541, 839270) is True
        with pytest.raises(TypeError):
            is_prime(1678541, 839270)
        assert not is_prime(1678541)

    def test_rejects_every_listed_base_2_pseudoprime(self):
        assert len(BASE_2_PSEUDOPRIMES) > 150 and BASE_2_PSEUDOPRIMES[:3] == (341, 561, 645)
        for n in BASE_2_PSEUDOPRIMES:
            assert pow(2, n - 1, n) == 1 and not trial_division_is_prime(n), n
            assert not is_prime(n), n

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.integers(0, 10**7 - 1), st.sampled_from(BASE_2_PSEUDOPRIMES)))
    @example(1678541)
    @example(10**7 - 1)
    def test_agrees_with_trial_division_below_ten_million(self, n):
        assert is_prime(n) == trial_division_is_prime(n)


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
