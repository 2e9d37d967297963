"""Local solvability of a x^p + b y^p + c z^p = 0 over Q_ell.

Three mechanisms, corresponding to where the prime sits:

* q = kp + 1 with q coprime to p*a*b*c: the p-th powers in F_q* form a
  subgroup of size k, so solvability over F_q (equivalently over Q_q, by
  smoothness) is a k^2-sized search.
* bad primes ell | p*a*b*c: bounded search over primitive triples modulo
  ell^k with a Hensel lifting certificate; "undecided" is a first-class
  outcome when the depth cap is hit, never a silent wrong answer.
* large good primes: a smooth plane curve of genus (p-1)(p-2)/2 over F_q
  has points once q + 1 > (p-1)(p-2)*sqrt(q), so primes above the cutoff
  ((p-1)(p-2))^2 can never obstruct, which turns "no obstruction" into a
  finite, certifiable check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .ntkernel import factor_small, is_prime, primes_in, valuation


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
    k: int | None  # obstruction = k*p + 1 when found by the subgroup test
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


def _pth_power_subgroup(p: int, q: int) -> set[int]:
    # the image of x -> x^p on F_q*, built by closing under a few generators
    k = (q - 1) // p
    subgroup = {1}
    for t in range(2, q):
        if len(subgroup) == k:
            break
        g = pow(t, p, q)
        if g in subgroup:
            continue
        power = g
        extended = set(subgroup)
        while power not in subgroup:
            extended.update(x * power % q for x in subgroup)
            power = power * g % q
        subgroup = extended
    return subgroup


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
    subgroup = _pth_power_subgroup(p, q)
    a_vals = [0] + [a * s % q for s in subgroup]
    b_vals = [0] + [b * s % q for s in subgroup]
    c_vals = {0} | {c * s % q for s in subgroup}
    for av in a_vals:
        for bv in b_vals:
            need = (-av - bv) % q
            if need == 0 and av == 0 and bv == 0:
                continue  # all-zero is not a projective point
            if need in c_vals:
                return True
    return False


# ---------------------------------------------------------------------------
# p-adic search
# ---------------------------------------------------------------------------


def _form(coeffs, triple, p, modulus):
    a, b, c = coeffs
    x, y, z = triple
    return (a * pow(x, p, modulus) + b * pow(y, p, modulus) + c * pow(z, p, modulus)) % modulus


def _certificate(coeffs, triple, p, ell, level, modulus) -> tuple[int, int] | None:
    # Hensel: F(P) = 0 mod ell^level lifts along coordinate i as soon as
    # 2*v(dF/dx_i) < level.  The derivative valuation is exact whenever the
    # coordinate is nonzero mod ell^level.
    for i in range(3):
        w = triple[i] % modulus
        if w == 0:
            continue
        e = valuation(p * coeffs[i], ell) + (p - 1) * valuation(w, ell)
        if 2 * e < level:
            return i, e
    return None


def check_witness(a: int, b: int, c: int, p: int, ell: int, witness: Witness) -> bool:
    """Independent re-check of a solvability certificate."""
    modulus = ell**witness.level
    if _form((a, b, c), witness.triple, p, modulus) != 0:
        return False
    w = witness.triple[witness.coordinate] % modulus
    if w == 0:
        return False
    coeff = (a, b, c)[witness.coordinate]
    e = valuation(p * coeff, ell) + (p - 1) * valuation(w, ell)
    return e == witness.derivative_valuation and 2 * e < witness.level


def _chart_search(coeffs, p, ell, chart, max_level):
    """Search one affine chart (coordinate `chart` set to 1).

    Returns ("solvable", witness), ("unsolvable", None) or ("undecided", None).
    """

    def make_triple(u, v):
        t = [0, 0, 0]
        t[chart] = 1
        free = [i for i in range(3) if i != chart]
        t[free[0]], t[free[1]] = u, v
        return tuple(t)

    survivors = [
        (u, v)
        for u in range(ell)
        for v in range(ell)
        if _form(coeffs, make_triple(u, v), p, ell) == 0
    ]
    modulus = ell
    for level in range(1, max_level + 1):
        if not survivors:
            return "unsolvable", None, level
        for u, v in survivors:
            triple = make_triple(u, v)
            cert = _certificate(coeffs, triple, p, ell, level, modulus)
            if cert is not None:
                i, e = cert
                return "solvable", Witness(triple, level, i, e), level
        if level == max_level:
            return "undecided", None, level
        next_modulus = modulus * ell
        lifted = []
        for u, v in survivors:
            for du in range(ell):
                for dv in range(ell):
                    u2, v2 = u + du * modulus, v + dv * modulus
                    if _form(coeffs, make_triple(u2, v2), p, next_modulus) == 0:
                        lifted.append((u2, v2))
        survivors = lifted
        modulus = next_modulus
    return "undecided", None, max_level


def default_depth_cap(a: int, b: int, c: int, p: int, ell: int) -> int:
    # deep enough for the certificate at a unit coordinate: e <= v(p*a*b*c),
    # and the certificate needs level > 2e
    return 2 * (valuation(p * a * b * c, ell) + 1) + 1


def solvable_over_Ql(
    a: int, b: int, c: int, p: int, ell: int, max_level: int | None = None
) -> LocalResult:
    """Decide existence of a nontrivial Q_ell point on a x^p + b y^p + c z^p = 0."""
    if not is_prime(ell):
        raise PreconditionError(f"{ell} is not prime")
    if a == 0 or b == 0 or c == 0:
        raise PreconditionError("coefficients must be nonzero")
    if max_level is None:
        max_level = default_depth_cap(a, b, c, p, ell)
    coeffs = (a, b, c)
    undecided = False
    best_levels = 0
    for chart in range(3):
        status, witness, levels = _chart_search(coeffs, p, ell, chart, max_level)
        best_levels = max(best_levels, levels)
        if status == "solvable":
            return LocalResult("solvable", ell, witness, levels)
        if status == "undecided":
            undecided = True
    return LocalResult("undecided" if undecided else "unsolvable", ell, None, best_levels)


# ---------------------------------------------------------------------------
# obstruction search and sweep
# ---------------------------------------------------------------------------


def bad_primes(a: int, b: int, c: int, p: int) -> list[int]:
    """The primes dividing p*a*b*c; FactorizationError past trial division."""
    return sorted(factor_small(p * a * b * c).factors)


def has_local_obstruction(
    a: int, b: int, c: int, p: int, k_max: int = 200
) -> ObstructionSearch:
    """First local obstruction: bad primes first, then q = kp + 1.

    When nothing is found, the result is certified provided the search
    covered every prime q = 1 mod p below the Weil cutoff and no bad prime
    came back undecided.
    """
    if not is_prime(p) or p == 2:
        raise PreconditionError(f"exponent must be an odd prime, got {p}")
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
    fails the subgroup test, or (None, None).  The scan stops at the Weil
    cutoff, above which no q can fail."""
    cutoff = weil_cutoff(p)
    for k in range(2, k_max + 1, 2):
        q = k * p + 1
        if not is_prime(q) or (a * b * c) % q == 0:
            continue
        if q > cutoff:
            break
        if not solvable_mod_q_fast(a, b, c, p, q):
            return q, k
    return None, None


def _sweep_one(args) -> SweepEntry:
    a, b, c, p, k_max = args
    started = time.monotonic_ns()
    q, k = _scan_q(a, b, c, p, k_max)
    elapsed_ms = (time.monotonic_ns() - started) // 1_000_000
    return SweepEntry(p, q, k, elapsed_ms)


def sweep(
    a: int,
    b: int,
    c: int,
    p_min: int,
    p_max: int,
    k_max: int = 200,
    jobs: int = 1,
) -> list[SweepEntry]:
    """First obstruction prime of the form kp + 1 for each prime p in range.

    Only the subgroup test is used here (this is the fast mode matching the
    large-exponent claims); per-prime Q_ell analysis is has_local_obstruction's
    job.  Deterministic for fixed k_max, including under parallel execution.
    """
    tasks = [(a, b, c, p, k_max) for p in primes_in(p_min, p_max) if p > 2]
    if jobs <= 1:
        return [_sweep_one(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor  # its import costs 2 MB; only jobs > 1 pays it

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(_sweep_one, tasks, chunksize=16))
