"""Local solvability of a x^p + b y^p + c z^p = 0 over Q_ell.

Where the prime sits:

* good primes ell prime to p*a*b*c, among them every q = kp + 1 of the
  scan: every F_ell point lifts to Q_ell (smoothness), so level 1 decides.
  The p-th powers in F_ell* are mu_k, so membership is one pow test: three
  find the points with a zero coordinate, and one per step of a walk over
  mu_k the others (chart x = 1), stopping at the first point.  The walk
  needs no factoring of k: it runs over the powers of t^p for t = 2, 3, ...
  and drops each t whose powers return to 1 before k steps.  A p-th root
  is u^(1/p mod k), or, when p | k, Adleman-Manders-Miller's: one discrete
  log in the Sylow p-subgroup, whatever the size of k.
* bad primes ell | p*a*b*c: one engine searches the images of x -> x^p
  mod ell^k, level by level, for a solution that lifts by Hensel's lemma,
  up to a depth cap; "undecided" is a first-class outcome when the cap or
  IMAGE_BOUND is hit, never a silent wrong answer.
* large good primes: a smooth plane curve of genus (p-1)(p-2)/2 over F_q
  has points once q + 1 > (p-1)(p-2)*sqrt(q), so primes above the cutoff
  ((p-1)(p-2))^2 can never obstruct, which turns "no obstruction" into a
  finite, certifiable check.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from dataclasses import dataclass
from math import gcd, isqrt

from .ntkernel import factor_small, is_prime, primes_in, valuation

# The most unit p-th powers a level may hold (p^(k-1) mod p^k): deeper
# levels at large ell = p are "undecided" instead of running for minutes.
# `obstruct` on the paper equations for p <= 29 needs at most 29 * 28.
IMAGE_BOUND = 200_000

# The widest window [p_min, p_max), and largest sqrt(p_max), that sweep sieves.
SWEEP_BOUND = 10**7

# The largest k_max, the last k of the scan over q = kp + 1.
KMAX_BOUND = 10**5


class PreconditionError(Exception):
    pass


@dataclass(frozen=True)
class Witness:
    """Certificate for a Q_ell point: a triple mod ell^level at which some
    partial derivative has small enough valuation for Hensel lifting."""

    triple: tuple[int, int, int]
    level: int
    coordinate: int  # index of the variable that lifts
    derivative_valuation: int


@dataclass(frozen=True)
class LocalResult:
    status: str  # "solvable" | "unsolvable" | "undecided"
    ell: int
    witness: Witness | None = None
    levels_explored: int = 0


@dataclass(frozen=True)
class ObstructionSearch:
    equation: tuple[int, int, int]
    p: int
    obstruction: int | None
    method: str | None  # "hensel_descent" | "fast_subgroup"
    k: int | None  # obstruction = k*p + 1 when found at a good prime q
    certified: bool  # "no obstruction" proved up to the Weil cutoff
    cutoff: int
    undecided: tuple[int, ...] = ()


@dataclass(frozen=True)
class SweepEntry:
    p: int
    obstruction: int | None
    k: int | None
    elapsed_ms: int


def weil_cutoff(p: int) -> int:
    """Primes above this can never obstruct (Hasse-Weil plus smoothness)."""
    g2 = (p - 1) * (p - 2)
    return g2 * g2


def _check_exponent(p: int) -> None:
    if p < 3 or not is_prime(p):
        raise PreconditionError(f"exponent must be an odd prime, got {p}")


def _check_k_max(k_max: int) -> None:
    if not 2 <= k_max <= KMAX_BOUND:
        raise PreconditionError(f"k_max must be between 2 and KMAX_BOUND = {KMAX_BOUND}, got {k_max}")


def _unit_power_count(p: int, ell: int, m: int) -> int:
    # the units mod ell^m are cyclic for odd ell, and x -> x^p permutes them
    # for ell = 2 (p is odd), so phi/gcd(p, phi) of them are p-th powers
    phi = ell**m - ell ** (m - 1)
    return phi // gcd(p, phi)


def _unit_powers(p: int, ell: int, m: int) -> dict[int, int]:
    """{x^p mod ell^m: x} over the units x, closing the subgroup under t^p."""
    modulus = ell**m
    size = _unit_power_count(p, ell, m)
    powers = {1: 1}
    t = 1
    while len(powers) < size:
        t += 1
        if t % ell == 0:
            continue
        g = pow(t, p, modulus)
        coset, root, new = g, t, {}
        while coset not in powers:
            for x, r in powers.items():
                new[x * coset % modulus] = r * root % modulus
            coset, root = coset * g % modulus, root * t % modulus
        powers.update(new)
    return powers


def _image(p: int, ell: int, k: int) -> dict[int, tuple[int, int]]:
    """{x^p mod ell^k: (x, v(x))}.  At 0, (0, k) stands for every x with
    ell^k | x^p; none of them can certify (2 (p - 1) ceil(k/p) > k), and
    the stand-in valuation k keeps that so for c x^p mod ell^(k + v(c))."""
    image = {0: (0, k)}
    for j in range((k - 1) // p + 1):  # j p < k
        scale, lift = ell ** (j * p), ell**j
        for u, r in _unit_powers(p, ell, k - j * p).items():
            image[scale * u] = (lift * r, j)
    return image


def _chart_level(coeffs, p, ell, chart, level, image):
    """Solutions mod ell^level with coordinate `chart` set to 1: a certified
    Witness, True if none is certified, None if there are none.  Each image
    s leaves c t = -a - b s, one lookup in the image mod ell^(level - v(c))."""
    i, j = [n for n in range(3) if n != chart]
    a, b, c = coeffs[chart], coeffs[i], coeffs[j]
    modulus = ell**level
    vc = min(valuation(c, ell), level)
    shift, low = ell**vc, ell ** (level - vc)
    inverse = pow(c // shift, -1, low)
    targets = image(level - vc)
    derivative = [valuation(p * n, ell) for n in coeffs]
    found = None
    for s, (x, vx) in image(level).items():
        r = (-a - b * s) % modulus
        if r % shift:
            continue
        hit = targets.get(r // shift * inverse % low)
        if hit is None:
            continue
        triple, vals = [1, 1, 1], [0, 0, 0]
        (triple[i], vals[i]), (triple[j], vals[j]) = (x, vx), hit
        # Hensel: the point lifts along coordinate n once 2 v(dF/dx_n) < level
        for n in range(3):
            e = derivative[n] + (p - 1) * vals[n]
            if 2 * e < level:
                return Witness(tuple(triple), level, n, e)
        found = True
    return found


def _search(coeffs, p: int, ell: int, max_level: int) -> LocalResult:
    """Charts 0, 1, 2 in turn, each level by level: "unsolvable" at its
    first level without solutions, "solvable" at its first certified level,
    "undecided" at max_level or where the image would pass IMAGE_BOUND."""
    cap = 0
    while cap < max_level and _unit_power_count(p, ell, cap + 1) <= IMAGE_BOUND:
        cap += 1
    image = functools.cache(functools.partial(_image, p, ell))  # this call only
    undecided, best_levels = False, 0
    for chart in range(3):
        levels, found = 0, True
        while found is True and levels < cap:
            levels += 1
            found = _chart_level(coeffs, p, ell, chart, levels, image)
        best_levels = max(best_levels, levels)
        if isinstance(found, Witness):
            return LocalResult("solvable", ell, _checked(coeffs, p, ell, found), levels)
        undecided = undecided or found is True
    return LocalResult("undecided" if undecided else "unsolvable", ell, None, best_levels)


def solvable_mod_q_fast(a: int, b: int, c: int, p: int, q: int) -> bool:
    """Projective solvability over F_q for q = kp + 1 prime to p*a*b*c.

    By smoothness every F_q point lifts to Q_q, so this decides local
    solvability at q.
    """
    if not is_prime(q):
        raise PreconditionError(f"{q} is not prime")
    if q % p != 1:
        raise PreconditionError(f"{q} is not 1 mod {p}")
    if (p * a * b * c) % q == 0:
        raise PreconditionError(f"{q} divides p*a*b*c")
    if (q - 1) // p > IMAGE_BOUND:
        raise PreconditionError(f"the {(q - 1) // p} p-th powers in F_{q}* pass IMAGE_BOUND")
    return _level_one((a, b, c), p, q) is not None


def _pth_root(u: int, p: int, q: int) -> int:
    """x with x^p = u, for a p-th power u in F_q* with p^2 | q - 1
    (Adleman-Manders-Miller): with q - 1 = p^e m and p prime to m, u^(1/p mod m)
    is a root up to an error in the Sylow p-subgroup, removed by one discrete
    log there, digit by digit in base p with baby and giant steps of sqrt(p)."""
    m, e = q - 1, 0
    while m % p == 0:
        m, e = m // p, e + 1
    x = pow(u, pow(p, -1, m), q)
    error = pow(x, p, q) * pow(u, -1, q) % q  # = g^L with p | L
    rho = next(r for r in itertools.count(2) if pow(r, (q - 1) // p, q) != 1)
    g = pow(rho, m, q)  # order p^e, since rho is no p-th power
    gamma = pow(g, p ** (e - 1), q)  # order p
    steps = isqrt(p - 1) + 1
    baby = {pow(gamma, j, q): j for j in range(steps)}
    giant = pow(gamma, -steps, q)
    log = 0
    for j in range(1, e):  # the digit at p^0 is 0
        h = pow(error * pow(g, -log, q) % q, p ** (e - 1 - j), q)
        i = 0
        while h not in baby:
            h, i = h * giant % q, i + 1
        log += (i * steps + baby[h]) * p**j
    return x * pow(g, -(log // p), q) % q


def _level_one(coeffs, p: int, q: int) -> Witness | None:
    """A checked level-1 witness at a prime q prime to p*a*b*c, or None when
    there is no F_q point."""
    k = (q - 1) // gcd(p, q - 1)

    def root(u):  # x with x^p = u, for u in mu_k
        return pow(u, pow(p, -1, k), q) if k % p else _pth_root(u, p, q)

    # points with a zero coordinate: x_i^p = -c_j/c_i at x_j = 1, which is in
    # mu_k iff c_i^k = c_j^k, since -1 = (-1)^p is
    powers = [pow(n, k, q) for n in coeffs]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if powers[i] == powers[j]:
            triple = [0, 0, 0]
            triple[i], triple[j] = root(-coeffs[j] * pow(coeffs[i], -1, q) % q), 1
            return _checked(coeffs, p, q, Witness(tuple(triple), 1, j, 0))
    # the chart x = 1: s = y^p runs over the powers of t^p for t = 2, 3, ...;
    # a t whose powers return to 1 before k steps spans less than mu_k
    a, b, c = coeffs
    for t in itertools.count(2):
        w, s = pow(t, p, q), 1
        for i in range(k):
            if s == 1 and i:
                break  # t^p has order i < k: drop t
            if pow(a + b * s, k, q) == powers[2]:  # z^p = -(a + b s)/c is in mu_k
                z = root(-(a + b * s) * pow(c, -1, q) % q)
                return _checked(coeffs, p, q, Witness((1, pow(t, i, q), z), 1, 0, 0))
            s = s * w % q
        else:
            return None


def _checked(coeffs, p: int, ell: int, witness: Witness) -> Witness:
    if not check_witness(*coeffs, p, ell, witness):
        raise RuntimeError(f"witness {witness} fails check_witness")
    return witness


def check_witness(a: int, b: int, c: int, p: int, ell: int, witness: Witness) -> bool:
    """Independent re-check of a solvability certificate."""
    modulus = ell**witness.level
    x, y, z = witness.triple
    if (a * pow(x, p, modulus) + b * pow(y, p, modulus) + c * pow(z, p, modulus)) % modulus:
        return False
    w = witness.triple[witness.coordinate] % modulus
    if w == 0:
        return False
    coeff = (a, b, c)[witness.coordinate]
    e = valuation(p * coeff, ell) + (p - 1) * valuation(w, ell)
    return e == witness.derivative_valuation and 2 * e < witness.level


def default_depth_cap(a: int, b: int, c: int, p: int, ell: int) -> int:
    # deep enough for the certificate at a unit coordinate: e <= v(p*a*b*c),
    # and the certificate needs level > 2e
    return 2 * (valuation(p * a * b * c, ell) + 1) + 1


def solvable_over_Ql(
    a: int, b: int, c: int, p: int, ell: int, max_level: int | None = None
) -> LocalResult:
    """Decide existence of a nontrivial Q_ell point on a x^p + b y^p + c z^p = 0."""
    _check_exponent(p)
    if ell < 2 or not is_prime(ell):
        raise PreconditionError(f"{ell} is not prime")
    if a == 0 or b == 0 or c == 0:
        raise PreconditionError("coefficients must be nonzero")
    if max_level is None:
        max_level = default_depth_cap(a, b, c, p, ell)
    elif max_level < 1:
        raise PreconditionError(f"max_level must be at least 1, got {max_level}")
    if (p * a * b * c) % ell:
        witness = _level_one((a, b, c), p, ell)
        return LocalResult("solvable" if witness else "unsolvable", ell, witness, 1)
    return _search((a, b, c), p, ell, max_level)


def bad_primes(a: int, b: int, c: int, p: int) -> list[int]:
    """The primes dividing p*a*b*c; FactorizationError past trial division."""
    return sorted(factor_small(p * a * b * c).factors)


def has_local_obstruction(a: int, b: int, c: int, p: int, k_max: int = 200) -> ObstructionSearch:
    """First local obstruction: bad primes first, then q = kp + 1.

    When nothing is found, the result is certified provided the search
    covered every prime q = 1 mod p below the Weil cutoff and no bad prime
    came back undecided.
    """
    _check_exponent(p)
    _check_k_max(k_max)
    eq = (a, b, c)
    cutoff = weil_cutoff(p)
    undecided = []
    for ell in bad_primes(a, b, c, p):
        res = solvable_over_Ql(a, b, c, p, ell)
        if res.status == "unsolvable":
            return ObstructionSearch(eq, p, ell, "hensel_descent", None, False, cutoff)
        if res.status == "undecided":
            undecided.append(ell)
    q, k = _scan_q(a, b, c, p, k_max)
    if q is not None:
        return ObstructionSearch(eq, p, q, "fast_subgroup", k, False, cutoff)
    certified = k_max * p + 1 >= cutoff and not undecided
    return ObstructionSearch(eq, p, None, None, None, certified, cutoff, tuple(undecided))


def _scan_q(a: int, b: int, c: int, p: int, k_max: int) -> tuple[int | None, int | None]:
    """(q, k) for the first q = kp + 1 (k even, k <= k_max) prime to abc that
    has no F_q point, or (None, None).  The scan stops at the Weil
    cutoff, above which no q can fail."""
    cutoff = weil_cutoff(p)
    for k in range(2, k_max + 1, 2):
        q = k * p + 1
        if not is_prime(q) or (a * b * c) % q == 0:
            continue
        if q > cutoff:
            break
        if _level_one((a, b, c), p, q) is None:
            return q, k
    return None, None


def _sweep_one(args) -> SweepEntry:
    a, b, c, p, k_max = args
    started = time.monotonic_ns()
    q, k = _scan_q(a, b, c, p, k_max)
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    return SweepEntry(p, q, k, elapsed_ms)


def sweep(
    a: int, b: int, c: int, p_min: int, p_max: int, k_max: int = 200, jobs: int = 1
) -> list[SweepEntry]:
    """First obstruction prime of the form kp + 1 for each prime p in range.

    Only the F_q test at q = kp + 1 is used here (the fast mode matching the
    large-exponent claims); per-prime Q_ell analysis is has_local_obstruction's
    job.  Deterministic for fixed k_max, including under parallel execution.
    """
    _check_k_max(k_max)
    if jobs < 1:
        raise PreconditionError(f"jobs must be at least 1, got {jobs}")
    if p_min > p_max:
        raise PreconditionError(f"p_min {p_min} is above p_max {p_max}")
    if p_max - p_min > SWEEP_BOUND or p_max > SWEEP_BOUND**2:
        raise PreconditionError(f"[{p_min}, {p_max}) is wider than SWEEP_BOUND or ends past its square")
    tasks = [(a, b, c, p, k_max) for p in primes_in(p_min, p_max) if p > 2]
    workers = min(jobs, os.cpu_count() or 1, len(tasks))
    if workers <= 1:
        return [_sweep_one(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # its import costs 2 MB; only a pool pays it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_sweep_one, tasks, chunksize=16))
