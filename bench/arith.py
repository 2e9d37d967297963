"""Independent arithmetic for checking fermatsym's answers.

Nothing here imports fermatsym.  Each routine is written the plain way
(trial division, Euler's criterion, primitive roots, direct enumeration)
so that an error in the library's faster machinery cannot hide in a check
that shares its code.
"""

from __future__ import annotations

import re
from math import gcd, isqrt


def prime_factors(n: int) -> dict[int, int]:
    """Factor |n| by trial division; n must be nonzero."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for b in (2, 3, 5, 7):
        if n % b == 0:
            return n == b
    if n >= 3_215_031_751:
        return list(prime_factors(n)) == [n]
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in (2, 3, 5, 7):
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_below(limit: int) -> list[int]:
    """Primes p < limit by the sieve of Eratosthenes."""
    if limit <= 2:
        return []
    flags = bytearray([1]) * limit
    flags[0] = flags[1] = 0
    for i in range(2, isqrt(limit - 1) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit, i)))
    return [i for i, f in enumerate(flags) if f]


def valuation(n: int, ell: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def legendre(n: int, p: int) -> int:
    """(n/p) for an odd prime p not dividing n, by Euler's criterion."""
    r = pow(n % p, (p - 1) // 2, p)
    if r == 1:
        return 1
    if r == p - 1:
        return -1
    raise ValueError(f"{p} divides {n}")


def least_prime_in_class(r: int, m: int, above: int) -> int:
    """Least prime p > above with p = r (mod m); gcd(r, m) must be 1."""
    p = r % m
    if p <= above:
        p += ((above - p) // m + 1) * m
    while not is_prime(p):
        p += m
    return p


def euler_phi(m: int) -> int:
    out = m
    for p in prime_factors(m):
        out -= out // p
    return out


# ---------------------------------------------------------------------------
# a x^p + b y^p + c z^p = 0 over finite fields and modulo prime powers
# ---------------------------------------------------------------------------


def primitive_root(q: int) -> int:
    order = q - 1
    factors = list(prime_factors(order)) if order > 1 else []
    for g in range(2 if q > 2 else 1, q):
        if all(pow(g, order // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root mod {q}")


def _pth_powers_fq(p: int, q: int) -> set[int]:
    """Nonzero p-th powers in F_q, as the powers of g^p for a primitive root g."""
    k = (q - 1) // gcd(p, q - 1)
    h = pow(primitive_root(q), p, q)
    out, x = set(), 1
    for _ in range(k):
        out.add(x)
        x = x * h % q
    return out


def fq_has_point(a: int, b: int, c: int, p: int, q: int) -> bool:
    """Whether a X + b Y + c Z = 0 has a solution over F_q with X, Y, Z
    p-th powers, not all zero: a projective point of a x^p + b y^p + c z^p."""
    values = [0, *_pth_powers_fq(p, q)]
    c_targets = {c * z % q for z in values}
    for x in values:
        for y in values:
            if (x or y) and (-a * x - b * y) % q in c_targets:
                return True
    return c % q == 0  # (0 : 0 : 1)


def _pth_power_values(p: int, ell: int, m: int) -> tuple[set[int], set[int]]:
    """x^p mod m for x prime to ell, and for x divisible by ell."""
    units = {pow(x, p, m) for x in range(m) if x % ell}
    nonunits = {pow(x, p, m) for x in range(0, m, ell)}
    return units, nonunits


def _sumset(left: set[int], right: set[int], m: int) -> bytes:
    """Flags of {x + y mod m : x in left, y in right}, one byte per residue.

    The flags are held as one integer with a byte per residue, so that each
    shift by y is a single big-integer operation.
    """
    if len(left) < len(right):
        left, right = right, left
    flags = bytearray(m)
    for x in left:
        flags[x] = 1
    row, width = int.from_bytes(flags, "little"), 8 * m
    full = (1 << width) - 1
    out = 0
    for y in right:
        out |= ((row << 8 * y) & full) | (row >> (width - 8 * y))
    return out.to_bytes(m, "little")


def primitive_solution_mod(a: int, b: int, c: int, p: int, ell: int, j: int) -> bool:
    """Whether a x^p + b y^p + c z^p = 0 (mod ell^j) has a solution with
    some coordinate prime to ell, from the sets of p-th power values."""
    m = ell**j
    units, nonunits = _pth_power_values(p, ell, m)
    every = units | nonunits

    def scaled(k, values):
        return {k * v % m for v in values}

    # b y^p + c z^p over all (y, z), and over (y, z) with a unit among them
    yz_any = _sumset(scaled(b, every), scaled(c, every), m)
    yz_unit = bytes(
        u | v
        for u, v in zip(
            _sumset(scaled(b, units), scaled(c, every), m),
            _sumset(scaled(b, nonunits), scaled(c, units), m),
        )
    )
    return any(yz_any[-a * x % m] for x in units) or any(yz_unit[-a * x % m] for x in nonunits)


def unsolvable_level(a: int, b: int, c: int, p: int, ell: int, max_modulus: int = 100_000):
    """Least j with no primitive solution mod ell^j, or None if there is one
    mod every ell^j up to max_modulus."""
    j = 1
    while ell**j <= max_modulus:
        if not primitive_solution_mod(a, b, c, p, ell, j):
            return j
        j += 1
    return None


def witness_holds(coeffs, p: int, ell: int, witness: dict) -> bool:
    """Re-check a Hensel witness: the triple solves the form mod ell^level,
    is primitive, and the lifting coordinate's derivative valuation e
    satisfies 2e < level."""
    triple, level, i = witness["triple"], witness["level"], witness["coordinate"]
    m = ell**level
    if sum(co * pow(t, p, m) for co, t in zip(coeffs, triple)) % m:
        return False
    if all(t % ell == 0 for t in triple) or triple[i] % m == 0:
        return False
    e = valuation(p * coeffs[i], ell) + (p - 1) * valuation(triple[i], ell)
    return e == witness["derivative_valuation"] and 2 * e < level


# ---------------------------------------------------------------------------
# elliptic curves and congruence text
# ---------------------------------------------------------------------------


def discriminant(a1: int, a2: int, a3: int, a4: int, a6: int) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


_CLASS = re.compile(r"p ≡ (\d+) \(mod (\d+)\)")


def expand_congruences(text: str, modulus: int) -> set[int] | None:
    """Residues mod `modulus` (coprime to it) described by a text such as
    'p ≡ 5 (mod 8) or p ≡ 23 (mod 24)'; None if the text does not parse."""
    coprime = [r for r in range(modulus) if gcd(r, modulus) == 1] if modulus > 1 else [0]
    if text == "all p":
        return set(coprime)
    if text == "no classes (empty set)":
        return set()
    parts = text.split(" or ")
    out: set[int] = set()
    for part in parts:
        match = _CLASS.fullmatch(part)
        if match is None:
            return None
        r, m = int(match.group(1)), int(match.group(2))
        if modulus % m:
            return None
        out.update(x for x in coprime if x % m == r)
    return out
