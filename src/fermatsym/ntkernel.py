"""Exact integer arithmetic shared by every other module.

Everything here is plain ``int`` arithmetic: Jacobi symbols, deterministic
primality, trial-division factorization and squarefree kernels.  No floats,
no probabilistic answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from math import gcd, isqrt, prod

from . import FermatsymError

TRIAL_DIVISION_BOUND = 10**6

# Deterministic Miller-Rabin: the first r primes as witnesses decide every n
# below psi_r, the least strong pseudoprime to all of them (psi_2 to psi_4:
# Pomerance-Selfridge-Wagstaff 1980; psi_5 to psi_7: Jaeschke 1993; psi_9,
# psi_12, psi_13: Sorenson-Webster 2015).  is_prime takes the shortest proven
# prefix and refuses n >= psi_13 rather than guess.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUNDS = (  # (psi_r, r); psi_8 = psi_7 and psi_10 = psi_11 = psi_9
    (1_373_653, 2), (25_326_001, 3), (3_215_031_751, 4), (2_152_302_898_747, 5),
    (3_474_749_660_383, 6), (341_550_071_728_321, 7), (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12), (3_317_044_064_679_887_385_961_981, 13),
)
_MR_LIMIT = _MR_BOUNDS[-1][0]

# is_prime trial-divides by 3 to 13 one at a time, which rejects most odd
# composites before the gcd with the product of the primes below _TRIAL_LIMIT
# (set after primes_in); a survivor below _TRIAL_LIMIT**2 is prime.
_TRIAL_LIMIT = 1000


class FactorizationError(FermatsymError):
    """Raised when an input is out of reach of trial division."""


@dataclass(frozen=True)
class FactoredInt:
    """A nonzero integer as sign times a product of prime powers."""

    sign: int
    factors: dict[int, int] = field(default_factory=dict)


def brief(n: int) -> str:
    """n for a message, written as its bit length past about 100 digits: str()
    refuses an int of more than 4,300 digits, and no reader needs them all."""
    return str(n) if n.bit_length() <= 332 else f"<{n.bit_length()}-bit integer>"


def jacobi(n: int, m: int) -> int:
    """Jacobi symbol (n/m) for odd positive m; the Legendre symbol when m is prime."""
    if m <= 0 or m % 2 == 0:
        raise ValueError(f"jacobi: modulus must be odd and positive, got {m}")
    n %= m
    result = 1
    while n != 0:
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                result = -result
        n, m = m, n
        if n % 4 == 3 and m % 4 == 3:
            result = -result
        n %= m
    return result if m == 1 else 0


def is_prime(n: int) -> bool:
    """Exact for 0 <= n < psi_13 (3.3e24); FactorizationError past it unless a prime below 1000 divides n."""
    return _is_prime(n, 0)


def _is_prime(n: int, f: int) -> bool:
    """is_prime(n), by Pocklington's test first where f | n - 1 and f^2 > n:
    2^(n-1) != 1 mod n shows n composite, gcd(2^((n-1)/f) - 1, n) = 1 prime, as
    each prime r | n then has f | ord_r(2) | r - 1, so r > sqrt(n).  That needs
    a prime f: only the q-scan passes one, the p of q = kp + 1."""
    if n < 0:
        raise ValueError("is_prime expects a non-negative integer")
    if not (n % 3 and n % 5 and n % 7 and n % 11 and n % 13):  # cheaper than the gcd
        return n in (3, 5, 7, 11, 13)
    if gcd(n, _TRIAL_PRODUCT) > 1:
        return n in _TRIAL_PRIMES
    if n >= _MR_LIMIT:
        raise FactorizationError(f"{brief(n)} is past the proven Miller-Rabin bound {_MR_LIMIT}")
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        return n > 1
    if f and f * f > n and (n - 1) % f == 0:
        x = pow(2, (n - 1) // f, n)
        if pow(x, f, n) != 1:
            return False
        if gcd(x - 1, n) == 1:
            return True
    for bound, r in _MR_BOUNDS:
        if n < bound:
            break
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES[:r]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p < hi: a sieve of hi - lo bytes by the primes up to
    sqrt(hi), or is_prime on each n when the window is narrower than (about)
    the count of those primes."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    root = isqrt(hi - 1)
    if hi - lo < root // root.bit_length():  # root / log2(root) is about 0.7 pi(root)
        return [n for n in range(lo, hi) if is_prime(n)]
    flags = bytearray([1]) * (hi - lo)
    for r in primes_in(2, root + 1):
        start = max(r * r, -(-lo // r) * r) - lo
        flags[start::r] = bytearray(len(range(start, hi - lo, r)))
    return list(compress(range(lo, hi), flags))


_TRIAL_PRIMES = frozenset(primes_in(2, _TRIAL_LIMIT))  # 168 primes: a 1000-byte sieve
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)


def factor_small(n: int) -> FactoredInt:
    """Factor a nonzero integer by trial division up to ``TRIAL_DIVISION_BOUND``.

    A cofactor surviving all divisors up to the bound is prime whenever it is
    at most bound**2; anything larger raises ``FactorizationError`` rather
    than returning a partial answer.
    """
    bound = TRIAL_DIVISION_BOUND
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = 1 if n > 0 else -1
    n = abs(n)
    factors: dict[int, int] = {}

    def strip(m: int, p: int) -> int:
        while m % p == 0:
            factors[p] = factors.get(p, 0) + 1
            m //= p
        return m

    n = strip(n, 2)
    n = strip(n, 3)
    d = 5
    while d <= bound and d * d <= n:
        n = strip(n, d)
        n = strip(n, d + 2)
        d += 6
    if n > 1:
        if n > bound * bound:
            raise FactorizationError(f"cofactor {brief(n)} exceeds trial-division bound {bound}")
        factors[n] = factors.get(n, 0) + 1
    return FactoredInt(sign, factors)


def squarefree_part(n: int) -> int:
    """The squarefree s with n = s * t**2 and sign(s) = sign(n), for nonzero n."""
    fac = factor_small(n)
    s = fac.sign
    for p, e in fac.factors.items():
        if e % 2 == 1:
            s *= p
    return s


def valuation(n: int, p: int) -> int:
    """v_p(n) for nonzero n and p >= 2."""
    if n == 0 or p < 2:
        raise ValueError(f"valuation of {brief(n)} at {brief(p)} is undefined")
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v
