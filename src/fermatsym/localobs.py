"""Local solvability of a x^p + b y^p + c z^p = 0 over Q_ell.

Where the prime sits:

* good primes ell prime to p*a*b*c, among them every q = kp + 1 of the scan
  (k on a wheel that skips the q divisible by 3 or 5, then proved prime by
  Pocklington's test with the prime p | q - 1, as p > k gives p^2 > q): every
  F_ell point lifts to Q_ell (smoothness), so level 1 decides, by one rule in
  _level_one.  The p-th powers in F_ell* are mu_k, so membership is one pow
  test: three find the points with a zero coordinate.  The others (chart
  x = 1) come from a walk over the powers of t^p for t = 2, 3, ..., which
  drops each t whose powers return to 1 before k steps, so k is never
  factored.  About k/p chart points exist, so where k < p one set test over
  mu_k, the powers of the first t^p that is no square (k is even, so a square
  cannot span mu_k), decides, with set lookups only if there is a point;
  elsewhere each step is one pow test, and a walk over a mu_k past
  IMAGE_BOUND stops after IMAGE_BOUND steps.  A p-th root is u^(1/p mod m)
  for q - 1 = p^e m with p prime to m, and when p^2 | q - 1 it also takes
  one discrete log in the Sylow p-subgroup (Adleman-Manders-Miller).  sweep
  decides most of its q without mu_k: for even k, F_q has a point iff
  q | D_k = (a^k - b^k)(a^k - c^k)(b^k - c^k) prod_{zeta^k = 1}
  ((a + b zeta)^k - c^k), an integer free of p (q splits in Q(zeta_k), and
  zeta goes to a generator of mu_k).  A sweep call builds D_k, by
  root-squaring and a Bareiss determinant, at k's first q, where D_k has at
  most about TABLE_BITS bits; a q dividing D_k still goes to _level_one.
* bad primes ell | p*a*b*c: exact, by valuation cases.  Write c_i =
  ell^V_i u_i and v_i = V_i mod p (scaling x_i by ell adds p to V_i).  P,
  the unit p-th powers of Z_ell, is read mod ell^kappa (kappa = 2 at
  ell = p, else 1) by one pow.  A point exists iff (1) some v_i = v_j with
  -u_j/u_i in P, (2) ell = p, v_i = v_j and v_k = v_i + 1 mod p, or (3) all
  v_i agree and the unit equation has a point mod ell^kappa (at ell = p by
  one set test over the p - 1 units t^p mod p^2, built the same way).  Only
  a mu_k past IMAGE_BOUND gives "undecided".
* large good primes: a smooth plane curve of genus (p-1)(p-2)/2 over F_q
  has points once q + 1 > (p-1)(p-2)*sqrt(q), so primes above the cutoff
  ((p-1)(p-2))^2 can never obstruct, which turns "no obstruction" into a
  finite, certifiable check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, gcd, isqrt

from . import FermatsymError
from .ntkernel import _is_prime, brief, factor_small, is_prime, jacobi, primes_in, valuation

# The most unit p-th powers (mu_k in F_q*, or the p - 1 units t^p mod p^2 at
# ell = p) one call may walk or build: past it a bad prime is "undecided" at
# once and solvable_mod_q_fast refuses q, and a good-prime walk over more
# stops after this many steps, summed over all t, with "undecided".
IMAGE_BOUND = 200_000

# The widest window [p_min, p_max), and largest sqrt(p_max), that sweep sieves.
SWEEP_BOUND = 10**7

# The largest k_max, the last k of the scan over q = kp + 1.
KMAX_BOUND = 10**5

# The largest D_k, in estimated bits k^2 * bitlen(|a| + |b| + |c|), that sweep
# builds to decide q = kp + 1 by D_k mod q (k <= 16 for 3,8,21, k <= 18 for
# 3,4,5).  A larger one costs more than a window of 10^4 exponents repays.
TABLE_BITS = 1536


class PreconditionError(FermatsymError):
    pass


class _WalkBudgetError(Exception):
    """A good-prime walk passed its budget: the verdict is "undecided"."""


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


def weil_cutoff(p: int) -> int:
    """Primes above this can never obstruct (Hasse-Weil plus smoothness)."""
    g2 = (p - 1) * (p - 2)
    return g2 * g2


def _check_equation(a: int, b: int, c: int, p: int = 3) -> None:
    """Nonzero coefficients, and an odd prime exponent p where the call takes one."""
    if a == 0 or b == 0 or c == 0:
        raise PreconditionError("coefficients must be nonzero")
    if p < 3 or not is_prime(p):
        raise PreconditionError(f"exponent must be an odd prime, got {brief(p)}")


def _check_k_max(k_max: int) -> None:
    if not 2 <= k_max <= KMAX_BOUND:
        raise PreconditionError(f"k_max must be between 2 and KMAX_BOUND = {KMAX_BOUND}, got {brief(k_max)}")


def _bad_prime(coeffs, p: int, ell: int) -> LocalResult:
    """The valuation cases of the module docstring at ell | p*a*b*c."""
    vals = [valuation(n, ell) for n in coeffs]
    units = [n // ell**v for n, v in zip(coeffs, vals)]
    kappa = 2 if ell == p else 1  # also 1 + v_ell(p)
    mod = ell**kappa
    k = (mod - mod // ell) // gcd(p, mod - mod // ell)  # the unit p-th powers mod ell^kappa are mu_k

    def witness(X, shift=(0, 0, 0)):
        # X_m times ell^g_m puts the terms at valuations W + shift_m, and for
        # each n at W makes -(the other terms)/(c_n ell^(p g_n)) a unit in P;
        # the n of least e becomes ell^g_n times its p-th root, lifted until
        # the point certifies at level 2e + 1
        W = max(v - s for v, s, x in zip(vals, shift, X) if x)
        g = [(W + s - v) // p for v, s in zip(vals, shift)]
        x = [ell**a * b if b else 0 for a, b in zip(g, X)]
        e, n = min((kappa - 1 + vals[m] + (p - 1) * g[m], m) for m in range(3) if X[m] and not shift[m])
        level = 2 * e + 1
        modulus, low = ell**level, ell ** (level - W)
        rest = -sum(coeffs[m] * pow(x[m], p, modulus) for m in range(3) if m != n) % modulus
        x[n] = ell ** g[n] * _lift_root(rest // ell**W * pow(units[n], -1, low) % low, p, ell, level - W)
        return _checked(coeffs, p, ell, Witness(tuple(t % modulus for t in x), level, n, e))

    found = []
    for i, j, n in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        if (vals[i] - vals[j]) % p:
            continue
        ratio = -units[j] * pow(units[i], -1, mod) % mod  # x_i^p at x_j = 1, x_n = 0
        X, shift = [1, 1, 1], [0, 0, 0]
        X[n] = 0
        if pow(ratio, k, mod) == 1:  # rule 1
            found.append(witness(X))
        elif ell == p and (vals[n] - vals[i] - 1) % p == 0:  # rule 2
            # x_i = ratio makes x_i^p = ratio^p, the lift of ratio in P, and
            # the term of x_n, one valuation higher, cancels the rest mod p^2
            X[i], shift[n] = ratio, 1
            X[n] = -(units[i] * pow(ratio, p, mod) + units[j]) // p * pow(units[n], -1, p) % p
            found.append(witness(X, shift))
    if not found and (vals[0] - vals[1]) % p == (vals[0] - vals[2]) % p == 0:  # rule 3
        if k > IMAGE_BOUND:
            return LocalResult("undecided", ell)
        if ell != p:
            point = _level_one(units, p, ell)
            found = [witness(point.triple)] if point else []
        else:  # y^p = t^p runs over mu_(p-1) mod p^2, t^p = t mod p, and z^p = z for z in P
            inverse, P = pow(-units[2], -1, mod), _mu(p, mod, k)
            hits = sorted((s % p, z) for s in P if (z := (units[0] + units[1] * s) * inverse % mod) in P)
            found = [witness((1, *hits[0]))] if hits else []
    best = min(found, key=lambda w: w.level, default=None)
    level = best.level if best else kappa + max(vals)
    return LocalResult("solvable" if best else "unsolvable", ell, best, level)


def _lift_root(w: int, p: int, ell: int, level: int) -> int:
    """r with r^p = w mod ell^level, for a unit w that is a p-th power in
    Z_ell: a root mod ell (mod p^3 at ell = p), then Newton's steps
    r -> r - (r^p - w)/(p r^(p-1)), each of which about doubles the precision."""
    if ell == p:  # w^p = w mod p^2 for w in P, and (1 + pt)^p = 1 + p^2 t mod p^3
        r, s = w * (1 + (pow(w, 1 - p, p**3) - 1) // p), p
    else:
        r, s = _root(w % ell, p, ell), 1
    modulus = ell**level
    while (pow(r, p, modulus) - w) % modulus:
        f = (pow(r, p, s * modulus) - w) % (s * modulus) // s  # (r^p - w)/s; v(p/s) = 0
        r = (r - f * pow(p // s * pow(r, p - 1, modulus), -1, modulus)) % modulus
    return r


def solvable_mod_q_fast(a: int, b: int, c: int, p: int, q: int) -> bool:
    """Projective solvability over F_q for q = kp + 1 prime to p*a*b*c.

    By smoothness every F_q point lifts to Q_q, so this decides local
    solvability at q.
    """
    _check_equation(a, b, c, p)
    if not is_prime(q):
        raise PreconditionError(f"{brief(q)} is not prime")
    if q % p != 1:
        raise PreconditionError(f"{q} is not 1 mod {p}")
    if (p * a * b * c) % q == 0:
        raise PreconditionError(f"{q} divides p*a*b*c")
    if (q - 1) // p > IMAGE_BOUND:
        raise PreconditionError(f"the {(q - 1) // p} p-th powers in F_{q}* pass IMAGE_BOUND")
    return _level_one((a, b, c), p, q) is not None


def _root(u: int, p: int, q: int) -> int:
    """x with x^p = u mod the prime q, for a p-th power u prime to q
    (Adleman-Manders-Miller): with q - 1 = p^e m and p prime to m,
    x = u^(1/p mod m) is a root when e < 2, and else one up to an error in the
    Sylow p-subgroup, removed by one discrete log there, digit by digit in
    base p with baby and giant steps of sqrt(p)."""
    m, e = q - 1, 0
    while m % p == 0:
        m, e = m // p, e + 1
    x = pow(u, pow(p, -1, m), q)
    if e < 2:
        return x
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


def _chart(p: int, q: int, k: int):
    """(t, i, s = t^(p i) mod q) in walk order, over the powers of t^p for t = 2, 3, ...:
    a t whose powers return to 1 before k steps is dropped, and one that spans mu_k ends it."""
    for t in itertools.count(2):
        w, s, i = pow(t, p, q), 1, 0
        while s != 1 or not i:
            yield t, i, s
            s, i = s * w % q, i + 1
        if i == k:
            return


def _mu(p: int, q: int, k: int) -> set[int]:
    """mu_k mod q: the powers of the first t^p that is no square, (t^p)^(k/2) != 1,
    which by Euler's criterion is (t/ell) != 1 for the prime ell under q."""
    ell = q if q % p else p  # q is a prime, or p^2 at ell = p
    for t in itertools.count(2):
        if jacobi(t, ell) == 1:
            continue
        mu, s, w = {1}, 1, pow(t, p, q)
        while (s := s * w % q) != 1:
            mu.add(s)
        if len(mu) == k:
            return mu


def _level_one(coeffs, p: int, q: int) -> Witness | None:
    """A checked level-1 witness at a prime q prime to p*a*b*c, or None when
    there is no F_q point (the good-prime rule of the module docstring).  The
    chart point is (1, t^i, z) at the first step (t, i, s) of _chart where
    a1 + b1 s is in mu_k, with a1 = a/c and b1 = b/c (-1 is in mu_k); a walk
    past IMAGE_BOUND raises _WalkBudgetError."""
    k = (q - 1) // gcd(p, q - 1)
    # points with a zero coordinate: x_i^p = -c_j/c_i at x_j = 1, which is in
    # mu_k iff c_i^k = c_j^k, since -1 = (-1)^p is
    powers = [pow(n, k, q) for n in coeffs]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if powers[i] == powers[j]:
            triple = [0, 0, 0]
            triple[i], triple[j] = _root(-coeffs[j] * pow(coeffs[i], -1, q) % q, p, q), 1
            return _checked(coeffs, p, q, Witness(tuple(triple), 1, j, 0))
    inverse = pow(coeffs[2], -1, q)
    a1, b1 = coeffs[0] * inverse % q, coeffs[1] * inverse % q
    mu = _mu(p, q, k) if k < p and k <= IMAGE_BOUND else None
    if mu and mu.isdisjoint([(a1 + b1 * s) % q for s in mu]):
        return None
    for step, (t, i, s) in enumerate(_chart(p, q, k)):
        if step == IMAGE_BOUND < k:
            raise _WalkBudgetError(f"the walk over mu_{k} in F_{q}* passes IMAGE_BOUND")
        if (a1 + b1 * s) % q in mu if mu else pow(a1 + b1 * s, k, q) == 1:
            return _checked(coeffs, p, q, Witness((1, pow(t, i, q), _root(-(a1 + b1 * s) % q, p, q)), 1, 0, 0))
    return None


def _obstruction_integer(a: int, b: int, c: int, k: int) -> int:
    """D_k = (a^k - b^k)(a^k - c^k)(b^k - c^k) prod_{zeta^k = 1} h(zeta), with
    h(x) = (a + b x)^k - c^k, exactly.  While k is even, prod over zeta^(2n) = 1
    of h is prod over zeta^n = 1 of H(y) = h(sqrt y) h(-sqrt y) = E(y)^2 - y O(y)^2
    (h = E(x^2) + x O(x^2)), reduced mod y^n - 1; the odd rest is the
    determinant of the circulant of multiplication by h, by Bareiss."""
    h = [0] * k
    for i in range(k + 1):
        h[i % k] += comb(k, i) * a ** (k - i) * b**i
    h[0] -= c**k
    while len(h) % 2 == 0:
        E, O, n = h[0::2], h[1::2], len(h) // 2
        h = [0] * n
        for i, j in itertools.product(range(n), repeat=2):
            h[(i + j) % n] += E[i] * E[j]
            h[(i + j + 1) % n] -= O[i] * O[j]
    n = len(h)
    m, sign, previous = [[h[(i - j) % n] for j in range(n)] for i in range(n)], 1, 1
    for i in range(n - 1):
        pivot = next((r for r in range(i, n) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot], sign = m[pivot], m[i], -sign
        for r in range(i + 1, n):
            m[r][i + 1 :] = [(m[r][j] * m[i][i] - m[r][i] * m[i][j]) // previous for j in range(i + 1, n)]
        previous = m[i][i]
    return (a**k - b**k) * (a**k - c**k) * (b**k - c**k) * sign * m[-1][-1]


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


def solvable_over_Ql(a: int, b: int, c: int, p: int, ell: int) -> LocalResult:
    """Decide existence of a nontrivial Q_ell point on a x^p + b y^p + c z^p = 0.

    levels_explored is the level the verdict rests on: the witness level, or
    kappa + max v_ell(c_i) for "unsolvable" (1 at a good prime).  A mu_k past
    IMAGE_BOUND gives "undecided" instead."""
    _check_equation(a, b, c, p)
    if ell < 2 or not is_prime(ell):
        raise PreconditionError(f"{brief(ell)} is not prime")
    if (p * a * b * c) % ell:
        try:
            witness = _level_one((a, b, c), p, ell)
        except _WalkBudgetError:
            return LocalResult("undecided", ell)
        return LocalResult("solvable" if witness else "unsolvable", ell, witness, 1)
    return _bad_prime((a, b, c), p, ell)


def bad_primes(a: int, b: int, c: int, p: int) -> list[int]:
    """The primes dividing p*a*b*c; FactorizationError past trial division."""
    return sorted(factor_small(p * a * b * c).factors)


def has_local_obstruction(a: int, b: int, c: int, p: int, k_max: int = 200) -> ObstructionSearch:
    """First local obstruction: bad primes first, then q = kp + 1.

    When nothing is found, the result is certified provided the search
    covered every prime q = 1 mod p below the Weil cutoff and no bad prime
    came back undecided.
    """
    _check_equation(a, b, c, p)
    _check_k_max(k_max)
    eq, cutoff, undecided = (a, b, c), weil_cutoff(p), []
    for ell in bad_primes(a, b, c, p):
        res = solvable_over_Ql(a, b, c, p, ell)
        if res.status == "unsolvable":
            return ObstructionSearch(eq, p, ell, "hensel_descent", None, False, cutoff)
        if res.status == "undecided":
            undecided.append(ell)
    q, k = _scan_q(a, b, c, p, _wheel(p, k_max))
    if q is not None:
        return ObstructionSearch(eq, p, q, "fast_subgroup", k, False, cutoff)
    certified = k_max * p + 1 >= cutoff and not undecided
    return ObstructionSearch(eq, p, None, None, None, certified, cutoff, tuple(undecided))


def _wheel(p: int, k_max: int):
    """The even k <= k_max with kp + 1 prime to 15 (any other kp + 1 >= 7 is composite), lazily."""
    return (k for k in range(2, k_max + 1, 2) if (k * p + 1) % 3 and (k * p + 1) % 5)


def _scan_q(
    a: int, b: int, c: int, p: int, ks, tables: dict | None = None
) -> tuple[int | None, int | None]:
    """(q, k) for the first q = kp + 1 (k in ks, a _wheel) prime to abc that
    has no F_q point, or (None, None).  The scan stops at the Weil
    cutoff, above which no q can fail.  sweep's tables, k -> D_k or None for
    the k it allows, build D_k at k's first q.  Then q not dividing D_k means
    "no point"; where it divides D_k, _level_one must find the point."""
    cutoff, abc = weil_cutoff(p), a * b * c
    for k in ks:
        q = k * p + 1
        if not _is_prime(q, p) or abc % q == 0:
            continue
        if q > cutoff:
            break
        D = None
        if tables and k in tables:
            D = tables[k]
            if D is None:
                D = tables[k] = _obstruction_integer(a, b, c, k)
        if D is not None and D % q:
            return q, k
        if _level_one((a, b, c), p, q) is None:
            if D is not None:
                raise RuntimeError(f"{q} divides D_{k} of {(a, b, c)} but F_{q} has no point")
            return q, k
    return None, None


def sweep(a: int, b: int, c: int, p_min: int, p_max: int, k_max: int = 200) -> list[tuple]:
    """(p, q, k) for each odd prime p in [p_min, p_max), in order: the first
    obstruction prime q = kp + 1, or (p, None, None).

    Only the F_q test at q = kp + 1 is used here (the fast mode matching the
    large-exponent claims); per-prime Q_ell analysis is has_local_obstruction's
    job.  Deterministic for fixed k_max.  One table of D_k serves the whole
    call, for the k with k^2 bitlen(|a| + |b| + |c|) <= TABLE_BITS, and one
    _wheel for each p mod 15 that occurs (see _scan_q).
    """
    _check_equation(a, b, c)
    _check_k_max(k_max)
    if p_min > p_max:
        raise PreconditionError(f"p_min {brief(p_min)} is above p_max {brief(p_max)}")
    if p_max - p_min > SWEEP_BOUND or p_max > SWEEP_BOUND**2:
        raise PreconditionError(f"[{brief(p_min)}, {brief(p_max)}) is wider than SWEEP_BOUND or ends past its square")
    k_table = isqrt(TABLE_BITS // ((abs(a) + abs(b) + abs(c)).bit_length() or 1))
    primes = primes_in(p_min, p_max)
    tables = dict.fromkeys(range(2, k_table + 1, 2))
    wheels = {r: list(_wheel(r, k_max)) for r in {p % 15 for p in primes}}
    return [(p, *_scan_q(a, b, c, p, wheels[p % 15], tables)) for p in primes if p > 2]
