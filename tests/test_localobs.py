import functools
import itertools
import random
import time
from fractions import Fraction
from math import comb, gcd, isqrt

import pytest

from fermatsym import localobs
from fermatsym.localobs import (
    IMAGE_BOUND,
    KMAX_BOUND,
    SWEEP_BOUND,
    TABLE_BITS,
    LocalResult,
    PreconditionError,
    Witness,
    _chart,
    _checked,
    _WalkBudgetError,
    _level_one,
    _lift_root,
    _mu,
    _obstruction_integer,
    _root,
    _scan_q,
    _wheel,
    bad_primes,
    check_witness,
    has_local_obstruction,
    solvable_mod_q_fast,
    solvable_over_Ql,
    sweep,
    weil_cutoff,
)
from fermatsym.ntkernel import FactorizationError, factor_small, is_prime, primes_in, valuation


def projective_points_exist(a, b, c, p, q):
    """Brute-force oracle: any [x:y:z] != 0 over F_q with a x^p+b y^p+c z^p = 0.

    Projective points are normalized as (x, y, 1), (x, 1, 0) or (1, 0, 0).
    """
    for x in range(q):
        for y in range(q):
            if (a * pow(x, p, q) + b * pow(y, p, q) + c) % q == 0:
                return True
    for x in range(q):
        if (a * pow(x, p, q) + b) % q == 0:
            return True
    return a % q == 0


# ---------------------------------------------------------------------------
# Reference deciders that the image engine replaced: the subgroup closure
# over F_q with its search over pairs, and the survivor-lifting Hensel
# search, which enumerates roots digit by digit instead of p-th powers.
# ---------------------------------------------------------------------------


class ReferenceTooSlow(Exception):
    pass


def reference_subgroup(p, q):
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


def reference_mod_q(a, b, c, p, q):
    subgroup = reference_subgroup(p, q)
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


def reference_level_one(coeffs, p, q):
    # the chart walk without a budget, kept as it stood before the budget
    k = (q - 1) // gcd(p, q - 1)
    powers = [pow(n, k, q) for n in coeffs]
    for i, j in ((0, 1), (0, 2), (1, 2)):
        if powers[i] == powers[j]:
            triple = [0, 0, 0]
            triple[i], triple[j] = _root(-coeffs[j] * pow(coeffs[i], -1, q) % q, p, q), 1
            return _checked(coeffs, p, q, Witness(tuple(triple), 1, j, 0))
    a, b, c = coeffs
    for t in range(2, q):
        w, s = pow(t, p, q), 1
        for i in range(k):
            if s == 1 and i:
                break
            if pow(a + b * s, k, q) == powers[2]:
                z = _root(-(a + b * s) * pow(c, -1, q) % q, p, q)
                return _checked(coeffs, p, q, Witness((1, pow(t, i, q), z), 1, 0, 0))
            s = s * w % q
        else:
            return None


def reference_rule_three(units, p):
    # (t, z) of the first unit t^p mod p^2, t = 1, ..., p - 1, with a point
    # (1 : t : z) mod p^2 at ell = p, z^p = z in P; two pow calls per t, as
    # rule 3 ran before its set test
    mod = p * p
    inverse = pow(units[2], -1, mod)
    for t in range(1, p):
        z = -(units[0] + units[1] * pow(t, p, mod)) * inverse % mod
        if z % p and pow(z, p - 1, mod) == 1:
            return t, z
    return None


def exact_det(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return 0
        if pivot != i:
            m[i], m[pivot], det = m[pivot], m[i], -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            for col in range(i, len(m)):
                m[r][col] -= f * m[i][col]
    return int(det)


def obstruction_integer(a, b, c, k):
    """D_k = (a^k - b^k)(a^k - c^k)(b^k - c^k) Res(x^k - 1, (a + b x)^k - c^k),
    exactly.  For even k and a prime q = 1 mod k prime to k*abc, F_q has a
    point on a x^p + b y^p + c z^p = 0 (p = (q - 1)/k) iff q | D_k.  The
    resultant is the product of g(zeta) over the k-th roots of unity, the
    determinant of multiplication by g in Z[x]/(x^k - 1), a circulant."""
    g = [0] * k  # (a + b x)^k - c^k, reduced by x^k = 1
    for i in range(k + 1):
        g[i % k] += comb(k, i) * a ** (k - i) * b**i
    g[0] -= c**k
    resultant = exact_det([[g[(i - j) % k] for j in range(k)] for i in range(k)])
    return (a**k - b**k) * (a**k - c**k) * (b**k - c**k) * resultant


def reference_form(coeffs, triple, p, modulus):
    return sum(k * pow(x, p, modulus) for k, x in zip(coeffs, triple)) % modulus


def reference_certified(coeffs, triple, p, ell, level, modulus):
    # Hensel: F(P) = 0 mod ell^level lifts along coordinate i as soon as
    # 2*v(dF/dx_i) < level
    for i in range(3):
        w = triple[i] % modulus
        if w and 2 * (valuation(p * coeffs[i], ell) + (p - 1) * valuation(w, ell)) < level:
            return True
    return False


def reference_chart(coeffs, p, ell, chart, max_level, budget):
    """(status, level) of one chart: the solutions mod ell^level, lifted one
    level at a time; ReferenceTooSlow once more than `budget` lifts are tried."""

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
        if reference_form(coeffs, make_triple(u, v), p, ell) == 0
    ]
    modulus = ell
    for level in range(1, max_level + 1):
        if not survivors:
            return "unsolvable", level
        if any(
            reference_certified(coeffs, make_triple(u, v), p, ell, level, modulus)
            for u, v in survivors
        ):
            return "solvable", level
        if level == max_level:
            return "undecided", level
        budget -= len(survivors) * ell * ell
        if budget < 0:
            raise ReferenceTooSlow
        next_modulus = modulus * ell
        survivors = [
            (u + du * modulus, v + dv * modulus)
            for u, v in survivors
            for du in range(ell)
            for dv in range(ell)
            if reference_form(
                coeffs, make_triple(u + du * modulus, v + dv * modulus), p, next_modulus
            )
            == 0
        ]
        modulus = next_modulus
    return "undecided", max_level


def reference_solvable_over_Ql(a, b, c, p, ell, max_level, budget=5_000):
    """(status, levels_explored) as solvable_over_Ql reports them."""
    undecided, best_levels = False, 0
    for chart in range(3):
        status, levels = reference_chart((a, b, c), p, ell, chart, max_level, budget)
        best_levels = max(best_levels, levels)
        if status == "solvable":
            return status, levels
        undecided = undecided or status == "undecided"
    return ("undecided" if undecided else "unsolvable"), best_levels


# ---------------------------------------------------------------------------
# The image engine that the valuation cases replaced at bad primes: the
# images of x -> x^p mod ell^k, searched level by level up to a depth cap.
# ---------------------------------------------------------------------------


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

def default_depth_cap(a: int, b: int, c: int, p: int, ell: int) -> int:
    # deep enough for the certificate at a unit coordinate: e <= v(p*a*b*c),
    # and the certificate needs level > 2e
    return 2 * (valuation(p * a * b * c, ell) + 1) + 1


def seeded_bad_prime_cases(seed, count):
    """(a, b, c, p, ell) at every bad prime of seeded equations for p <= 13,
    each coefficient a signed product of 2, 3, 5, 7 and p to exponents up to
    p + 1."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        p = rng.choice((3, 5, 7, 11, 13))
        eq = []
        for _ in range(3):
            n = rng.choice((1, -1, 11, -13))
            for q in rng.sample((2, 3, 5, 7, p), 2):
                n *= q ** rng.choice((0, 1, 2, 3, p - 1, p, p + 1))
            eq.append(n)
        cases += [(*eq, p, ell) for ell in bad_primes(*eq, p)]
    return cases


def capped(res: LocalResult, cap: int) -> str:
    """res.status as read under a depth cap: a verdict resting on a level past
    cap would be "undecided"."""
    return res.status if res.levels_explored <= cap else "undecided"


def seeded_local_cases(seed, count):
    """(a, b, c, p, ell, cap) at the bad primes of seeded equations for
    p in {3, 5, 7}, with coefficients divisible by p and by squares; every
    fourth case also at a depth cap below the default."""
    rng = random.Random(seed)
    pool = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 18, 20, 21, 25, 27, 28, 49, 50, 121)
    cases = []
    for n in range(count):
        p = rng.choice((3, 5, 7))
        eq = [rng.choice(pool + (p, 2 * p, p * p)) * rng.choice((1, -1)) for _ in range(3)]
        for ell in bad_primes(*eq, p):
            cap = default_depth_cap(*eq, p, ell)
            cases.append((*eq, p, ell, rng.randint(1, cap) if n % 4 == 0 else cap))
    return cases


class TestSolvableModQFast:
    def test_known_obstruction_primes(self):
        assert not solvable_mod_q_fast(3, 4, 5, 5, 11)
        assert not solvable_mod_q_fast(3, 4, 5, 7, 29)
        assert not solvable_mod_q_fast(3, 4, 5, 7, 43)
        assert solvable_mod_q_fast(3, 8, 21, 5, 11)

    def test_trivially_solvable(self):
        assert solvable_mod_q_fast(1, 1, 1, 3, 7)
        assert solvable_mod_q_fast(1, 1, 1, 5, 11)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            solvable_mod_q_fast(3, 4, 5, 5, 10)  # not prime
        with pytest.raises(PreconditionError):
            solvable_mod_q_fast(3, 4, 5, 5, 13)  # 13 != 1 mod 5
        with pytest.raises(PreconditionError):
            solvable_mod_q_fast(3, 4, 11, 5, 11)  # divides abc
        q = next(q for q in range(3 * IMAGE_BOUND + 2, 10**7) if q % 6 == 1 and is_prime(q))
        with pytest.raises(PreconditionError):
            solvable_mod_q_fast(1, 1, 1, 3, q)  # (q - 1)/3 p-th powers pass the bound

    @pytest.mark.parametrize("p, q", [(1, 3), (2, 3), (4, 5), (9, 19)])
    def test_exponent_must_be_an_odd_prime(self, p, q):
        with pytest.raises(PreconditionError, match="odd prime"):
            solvable_mod_q_fast(1, 1, 1, p, q)

    def test_agrees_with_subgroup_closure(self):
        rng = random.Random(4)
        for _ in range(40):
            p = rng.choice((3, 5, 7, 11, 13))
            a, b, c = (rng.randint(1, 60) * rng.choice((1, -1)) for _ in range(3))
            for q in primes_in(3, 700):
                if q % p == 1 and (p * a * b * c) % q:
                    assert solvable_mod_q_fast(a, b, c, p, q) == reference_mod_q(a, b, c, p, q), (
                        a, b, c, p, q,
                    )

    def test_level_one_witnesses_agree_with_references(self):
        # q = 1 mod p^2 puts p | k, where roots come from the walk instead of
        # an inverse of p mod k; brute force confirms those q as well
        rng = random.Random(6)
        kinds = set()
        for _ in range(40):
            p = rng.choice((3, 5, 7, 13))
            a, b, c = (rng.randint(1, 60) * rng.choice((1, -1)) for _ in range(3))
            for q in primes_in(3, 700):
                if q % p != 1 or (p * a * b * c) % q == 0:
                    continue
                witness = _level_one((a, b, c), p, q)
                assert (witness is not None) == reference_mod_q(a, b, c, p, q), (a, b, c, p, q)
                if witness is not None:
                    assert witness.level == 1
                    assert check_witness(a, b, c, p, q, witness), (a, b, c, p, q, witness)
                if q % (p * p) == 1:
                    assert (witness is not None) == projective_points_exist(a, b, c, p, q)
                    if witness is not None:
                        kinds.add("zero coordinate" if 0 in witness.triple else "chart")
        assert kinds == {"zero coordinate", "chart"}

    def test_pth_roots_by_amm_against_brute_force(self):
        # every q < 10^4 with p^2 | q - 1, and the first three q with p prime
        # to q - 1 and with p || q - 1; all p-th powers for q < 1000, and a
        # seeded sample of them above
        rng = random.Random(9)
        primes = primes_in(3, 100)
        count, seen = 0, dict.fromkeys(itertools.product(primes, (0, 1)), 0)
        for p in primes:
            for q in primes_in(3, 10**4):
                e = valuation(q - 1, p)
                if e < 2 and seen[p, e] == 3:
                    continue
                roots = {}
                for x in range(1, q):
                    roots.setdefault(pow(x, p, q), set()).add(x)
                powers = sorted(roots) if q < 1000 else rng.sample(sorted(roots), 10)
                for u in powers:
                    assert _root(u, p, q) in roots[u], (u, p, q)
                if e < 2:
                    seen[p, e] += 1
                else:
                    count += 1
        assert count > 200
        assert set(seen.values()) == {3}

    def test_walk_drops_t_whose_powers_close_early(self):
        # at q = 7, p = 3 the walk from t = 2 closes at once (2^3 = 1), and
        # the only points have y^3 = -1, so only t = 3 finds one
        assert pow(2, 3, 7) == 1
        assert not any(pow(n, 2, 7) == pow(m, 2, 7) for n, m in ((1, 3), (1, 2), (3, 2)))
        witness = _level_one((1, 3, 2), 3, 7)
        assert witness == Witness((1, 3, 1), 1, 0, 0)
        assert projective_points_exist(1, 3, 2, 3, 7)

    def test_walk_agrees_with_the_reference_walk(self):
        # same verdict, and the same first hit with the same witness triple,
        # by set tests at k = (q - 1)/p < p and by pow tests at k >= p
        rng = random.Random(10)
        for _ in range(40):
            a, b, c = (rng.randint(1, 60) * rng.choice((1, -1)) for _ in range(3))
            for p in (3, 5, 7, 11, 13, 101, 211, 307):
                for q in primes_in(3, 3000):
                    if q % p == 1 and (p * a * b * c) % q:
                        expected = reference_level_one((a, b, c), p, q)
                        assert _level_one((a, b, c), p, q) == expected, (a, b, c, p, q)

    def test_mu_is_the_set_of_pth_powers(self):
        # in F_q*, and the p - 1 Teichmuller units t^p mod p^2 of rule 3
        for p in (3, 5, 7, 11, 13):
            for q in primes_in(3, 2000):
                if q % p == 1:
                    assert _mu(p, q, (q - 1) // p) == {pow(x, p, q) for x in range(1, q)}, (p, q)
        for p in primes_in(3, 1000):
            assert _mu(p, p * p, p - 1) == {pow(t, p, p * p) for t in range(1, p)}, p

    def test_set_test_agrees_with_the_obstruction_integer(self):
        # a second oracle, independent of any walk: for even k <= 12, F_q has
        # no point iff q does not divide D_k
        rng = random.Random(13)
        triples = [(3, 8, 21), (3, 4, 5)]
        triples += [tuple(rng.randint(1, 99) * rng.choice((1, -1)) for _ in range(3)) for _ in range(4)]
        primes = primes_in(5, 3000)
        kinds = set()
        for a, b, c in triples:
            D = {k: obstruction_integer(a, b, c, k) for k in range(2, 13, 2)}
            for p in primes:
                for k, Dk in D.items():
                    q = k * p + 1
                    if not is_prime(q) or (p * a * b * c) % q == 0:
                        continue
                    no_point = Dk % q != 0
                    assert (_level_one((a, b, c), p, q) is None) == no_point, (a, b, c, p, q)
                    if q < 200:
                        assert projective_points_exist(a, b, c, p, q) != no_point, (a, b, c, p, q)
                    kinds.add(no_point)
                # the scan stops at the first such q, or at the Weil cutoff
                expected_scan = next(
                    (
                        (k * p + 1, k) for k in range(2, 13, 2)
                        if is_prime(k * p + 1) and (a * b * c) % (k * p + 1) and k * p + 1 <= weil_cutoff(p)
                        and D[k] % (k * p + 1)
                    ),
                    (None, None),
                )
                assert _scan_q(a, b, c, p, _wheel(p, 12)) == expected_scan, (a, b, c, p)
        assert kinds == {True, False}

    def test_obstruction_integer_equals_the_circulant_oracle(self):
        rng = random.Random(13)
        triples = [(3, 8, 21), (3, 4, 5)]
        triples += [tuple(rng.randint(1, 99) * rng.choice((1, -1)) for _ in range(3)) for _ in range(4)]
        for a, b, c in triples:
            for k in range(2, 13, 2):
                assert _obstruction_integer(a, b, c, k) == obstruction_integer(a, b, c, k), (a, b, c, k)

    def test_obstruction_integer_decides_the_scanned_q_up_to_the_table_bound(self):
        # every even k that sweep may build a table for, for any equation
        # (|a| + |b| + |c| >= 3 has at least 2 bits): q does not divide D_k iff
        # _level_one finds no point, on both paper equations and four seeded
        # triples with a negative coefficient
        rng = random.Random(14)
        triples = [(3, 8, 21), (3, 4, 5)]
        while len(triples) < 6:
            triple = tuple(rng.randint(1, 99) * rng.choice((1, -1)) for _ in range(3))
            if min(triple) < 0:
                triples.append(triple)
        primes = primes_in(5, 3000)
        for a, b, c in triples:
            for k in range(2, isqrt(TABLE_BITS // 2) + 1, 2):
                D = _obstruction_integer(a, b, c, k)
                assert D != 0
                for p in primes:
                    q = k * p + 1
                    if is_prime(q) and (p * a * b * c) % q:
                        assert (D % q != 0) == (_level_one((a, b, c), p, q) is None), (a, b, c, p, q)

    def test_obstruction_integer_is_zero_with_a_point_for_every_p(self):
        # (1 : -1 : -1) is a point of 2,-3,5 and (1 : -1 : 0) one of 5,5,7 for
        # every odd p, so every q divides D_k
        for a, b, c in ((2, -3, 5), (5, 5, 7)):
            for k in range(2, 25, 2):
                assert _obstruction_integer(a, b, c, k) == 0, (a, b, c, k)

    def test_rule_three_at_ell_equal_p_agrees_with_the_reference_walk(self):
        # units with no pair ratio in P, so that rule 3 decides: the same
        # verdict, and the witness keeps the reference's first t and its z
        rng = random.Random(14)
        kinds = set()
        for p in primes_in(3, 1000):
            mod = p * p
            for _ in range(3):
                units = [rng.randrange(1, mod) * rng.choice((1, -1)) for _ in range(3)]
                if any(u % p == 0 for u in units) or any(
                    pow(-units[j] * pow(units[i], -1, mod), p - 1, mod) == 1 for i, j in ((0, 1), (0, 2), (1, 2))
                ):
                    continue
                expected = reference_rule_three(units, p)
                res = solvable_over_Ql(*units, p, p)
                if expected is None:
                    assert res == LocalResult("unsolvable", p, None, 2), (units, p)
                else:
                    assert res.status == "solvable" and res.witness.triple[1:] == expected, (units, p)
                    assert check_witness(*units, p, p, res.witness)
                kinds.add(res.status)
        assert kinds == {"solvable", "unsolvable"}

    def test_walk_drops_three_t_before_its_hit(self):
        # at q = 73, p = 3 (k = 24) the walks from t = 2, 3, 4 close after 3,
        # 4 and 3 steps, and t = 5 hits at its step 1
        k = 24
        orders = [next(d for d in range(1, k + 1) if pow(t, 3 * d, 73) == 1) for t in (2, 3, 4, 5)]
        assert orders == [3, 4, 3, k]
        witness = _level_one((1, 2, 4), 3, 73)
        assert witness == reference_level_one((1, 2, 4), 3, 73) == Witness((1, 5, 71), 1, 0, 0)

    def test_walk_budget_counts_the_steps_of_every_t(self, monkeypatch):
        # the walk above takes 3 + 4 + 3 steps before t = 5 hits at its step
        # 1, index 11 of the walk; a lowered IMAGE_BOUND below k = 24 caps it
        monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", 12)
        assert _level_one((1, 2, 4), 3, 73) == Witness((1, 5, 71), 1, 0, 0)
        monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", 11)
        with pytest.raises(_WalkBudgetError):
            _level_one((1, 2, 4), 3, 73)

    def test_walk_budget_below_p_past_a_lowered_image_bound(self, monkeypatch):
        # at q = 461, p = 23 (k = 20 < p) the first chart point of 3,8,21 is
        # at index 10 of the walk; with mu_k past IMAGE_BOUND the set test
        # gives way to the budgeted walk, which never builds mu_k
        def refuse(*args):
            raise AssertionError("mu_k built past IMAGE_BOUND")

        monkeypatch.setattr(localobs, "_mu", refuse)
        expected = reference_level_one((3, 8, 21), 23, 461)
        hits = (n for n, (t, i, s) in enumerate(_chart(23, 461, 20)) if pow(3 + 8 * s, 20, 461) == pow(21, 20, 461))
        assert next(hits) == 10
        for bound in (11, 19):
            monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", bound)
            assert solvable_over_Ql(3, 8, 21, 23, 461) == LocalResult("solvable", 461, expected, 1)
        monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", 10)
        assert solvable_over_Ql(3, 8, 21, 23, 461) == LocalResult("undecided", 461)
        # no point at q = 137, p = 17 (k = 8): the walk covers at least k steps
        assert reference_level_one((3, 4, 5), 17, 137) is None
        monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", 7)
        assert solvable_over_Ql(3, 4, 5, 17, 137) == LocalResult("undecided", 137)

    def test_image_bound_caps_only_walks_over_more_powers(self, monkeypatch):
        # at q = 43, p = 7 (k = 6) t = 2 closes after 2 steps and there is no
        # point, so the walk takes more than k steps in all; it is stopped
        # only when mu_k has more than IMAGE_BOUND elements
        assert pow(2, 7 * 2, 43) == 1
        assert reference_level_one((1, 3, 5), 7, 43) is None
        monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", 6)
        assert solvable_over_Ql(1, 3, 5, 7, 43).status == "unsolvable"
        monkeypatch.setattr("fermatsym.localobs.IMAGE_BOUND", 5)
        assert solvable_over_Ql(1, 3, 5, 7, 43).status == "undecided"

    def test_good_primes_do_not_factor(self, monkeypatch):
        def refuse(n, *args):
            raise AssertionError(f"factor_small({n}) at a good prime")

        monkeypatch.setattr("fermatsym.localobs.factor_small", refuse)
        assert _scan_q(3, 4, 5, 101, _wheel(101, 200)) == (607, 6)
        for ell in (7, 13, 19, 37, 1000000009):
            assert solvable_over_Ql(1, 1, 1, 3, ell).status == "solvable"

    def test_oracle_equivalence_up_to_200(self):
        # full projective enumeration vs the subgroup test
        mismatches = []
        for a, b, c in ((3, 8, 21), (3, 4, 5)):
            for p in (3, 5, 7, 11, 13):
                for q in primes_in(3, 200):
                    if q % p != 1 or (p * a * b * c) % q == 0:
                        continue
                    fast = solvable_mod_q_fast(a, b, c, p, q)
                    slow = projective_points_exist(a, b, c, p, q)
                    if fast != slow:
                        mismatches.append((a, b, c, p, q, fast, slow))
        assert mismatches == []

    def test_scaling_invariance(self):
        # multiplying the coefficients by a common p-th power unit mod q
        # cannot change solvability
        for p, q in ((3, 13), (5, 31), (7, 29)):
            base = solvable_mod_q_fast(3, 4, 5, p, q)
            for u in (2, 3, 5):
                scale = pow(u, p, q)
                a2, b2, c2 = 3 * scale % q, 4 * scale % q, 5 * scale % q
                if 0 in (a2, b2, c2):
                    continue
                assert solvable_mod_q_fast(a2, b2, c2, p, q) == base

    def test_permutation_invariance(self):
        import itertools

        for p, q in ((5, 11), (7, 29), (3, 13)):
            results = {
                solvable_mod_q_fast(a, b, c, p, q)
                for a, b, c in itertools.permutations((3, 4, 5))
            }
            assert len(results) == 1


class TestSolvableOverQl:
    def test_eq1_unsolvable_at_7(self):
        res = solvable_over_Ql(3, 8, 21, 3, 7)
        assert res.status == "unsolvable"

    def test_eq1_unsolvable_at_3(self):
        res = solvable_over_Ql(3, 8, 21, 3, 3)
        assert res.status == "unsolvable"

    def test_eq2_solvable_at_3(self):
        res = solvable_over_Ql(3, 4, 5, 3, 3)
        assert res.status == "solvable"
        assert res.witness is not None
        assert check_witness(3, 4, 5, 3, 3, res.witness)

    def test_all_solvable_verdicts_carry_checkable_witnesses(self):
        cases = [
            (3, 4, 5, 3, 2), (3, 4, 5, 3, 5), (3, 4, 5, 5, 2), (3, 4, 5, 5, 3),
            (3, 4, 5, 5, 5), (3, 8, 21, 5, 2), (3, 8, 21, 5, 3), (3, 8, 21, 5, 7),
            (3, 8, 21, 7, 2), (3, 8, 21, 7, 3), (3, 8, 21, 7, 7), (1, 1, 1, 3, 3),
        ]
        for a, b, c, p, ell in cases:
            res = solvable_over_Ql(a, b, c, p, ell)
            if res.status == "solvable":
                assert check_witness(a, b, c, p, ell, res.witness), (a, b, c, p, ell)

    def test_corrupted_witness_fails_check(self):
        res = solvable_over_Ql(3, 4, 5, 3, 3)
        w = res.witness
        bad = Witness((w.triple[0] + 1, w.triple[1], w.triple[2]), w.level, w.coordinate, w.derivative_valuation)
        changed = check_witness(3, 4, 5, 3, 3, bad)
        # shifting one coordinate must break either the congruence or the
        # certificate (it may accidentally still be a witness only if the
        # form still vanishes, which it does not here)
        assert not changed

    def test_depth_cap_gives_undecided_not_wrong(self):
        # (1 : -1 : 0) certifies only at level 3, so a cap of 1 could not read it
        res = solvable_over_Ql(1, 1, 1, 3, 3)
        assert res.status == "solvable"
        assert capped(res, 1) == "undecided"
        assert capped(res, 3) == "solvable"

    def test_levels_explored_is_the_level_the_verdict_rests_on(self):
        # unsolvable: kappa + max v(c_i), kappa = 2 at ell = p and 1 otherwise;
        # solvable: the witness level; under a lower cap: undecided
        for a, b, c, p, ell, level in ((3, 8, 21, 3, 3, 3), (3, 8, 21, 3, 7, 2)):
            res = solvable_over_Ql(a, b, c, p, ell)
            assert res == LocalResult("unsolvable", ell, None, level)
            assert capped(res, level) == "unsolvable"
            assert capped(res, level - 1) == "undecided"
        res = solvable_over_Ql(1, 1, 1, 3, 3)
        assert res.levels_explored == res.witness.level == 3
        assert capped(res, 3) == "solvable"

    def test_rejects_composite_ell(self):
        with pytest.raises(PreconditionError):
            solvable_over_Ql(3, 4, 5, 3, 6)

    def test_equations_with_global_solutions_are_locally_solvable(self):
        # (1,1,1) has (1,-1,0); (2,3,-5) has (1,1,1): local solvability must
        # hold at every prime
        for a, b, c in ((1, 1, 1), (2, 3, -5)):
            for p in (3, 5):
                for ell in (2, 3, 5, 7, 11):
                    res = solvable_over_Ql(a, b, c, p, ell)
                    assert res.status == "solvable", (a, b, c, p, ell)
                    assert check_witness(a, b, c, p, ell, res.witness)

    def test_padic_search_agrees_with_point_enumeration_at_good_primes(self):
        # at q prime to p*a*b*c, Q_q-solvability is F_q-solvability
        for a, b, c in ((3, 8, 21), (3, 4, 5)):
            for p in (3, 5):
                for q in primes_in(3, 60):
                    if q % p != 1 or (p * a * b * c) % q == 0:
                        continue
                    points = projective_points_exist(a, b, c, p, q)
                    deep = solvable_over_Ql(a, b, c, p, q)
                    assert deep.status == ("solvable" if points else "unsolvable"), (a, b, c, p, q)

    def test_good_primes_not_one_mod_p_are_solvable_at_level_one(self):
        # x -> x^p permutes F_ell*, so a point with a zero coordinate exists;
        # 600011 is far past what the image engine could hold
        for a, b, c, p, ell in ((3, 4, 5, 3, 11), (3, 8, 21, 5, 13), (1, 1, 2, 3, 600011), (3, 5, 7, 7, 2)):
            started = time.perf_counter()
            res = solvable_over_Ql(a, b, c, p, ell)
            assert time.perf_counter() - started < 1
            assert (res.status, res.levels_explored) == ("solvable", 1)
            assert check_witness(a, b, c, p, ell, res.witness)

    def test_agrees_with_survivor_search(self):
        # the survivor search finds every witness of level <= cap, and the
        # valuation cases read the coefficients no deeper than its levels, so
        # read under the same cap the status is the reference's or "undecided"
        compared, kinds = 0, set()
        for a, b, c, p, ell, cap in seeded_local_cases(11, 300):
            try:
                expected, _ = reference_solvable_over_Ql(a, b, c, p, ell, cap)
            except ReferenceTooSlow:
                continue
            res = solvable_over_Ql(a, b, c, p, ell)
            status = capped(res, cap)
            assert status in (expected, "undecided"), (a, b, c, p, ell, cap)
            if expected == "undecided":
                assert status == "undecided", (a, b, c, p, ell, cap)
            else:
                assert res.status == expected, (a, b, c, p, ell)
            if status != "undecided":
                assert 1 <= res.levels_explored <= cap
            if res.status == "solvable":
                assert check_witness(a, b, c, p, ell, res.witness)
            compared += 1
            kinds.add(status)
            if (a * b * c) % p == 0:
                kinds.add("p | abc")
            if any(valuation(x, ell) >= 2 for x in (a, b, c)):
                kinds.add("ell^2 | coefficient")
        assert compared >= 800
        assert kinds == {"solvable", "unsolvable", "undecided", "p | abc", "ell^2 | coefficient"}

    def test_agrees_with_image_engine(self):
        # every case the old engine decides by level 4, over coefficients with
        # valuations at and past p; its deeper levels cost up to a second a
        # case at ell = 2, 3 and p
        compared, kinds = 0, set()
        for a, b, c, p, ell in seeded_bad_prime_cases(12, 400):
            expected = _search((a, b, c), p, ell, min(4, default_depth_cap(a, b, c, p, ell)))
            res = solvable_over_Ql(a, b, c, p, ell)
            assert res.status != "undecided", (a, b, c, p, ell)
            if res.status == "solvable":
                assert check_witness(a, b, c, p, ell, res.witness), (a, b, c, p, ell)
            if expected.status == "undecided":
                continue
            assert res.status == expected.status, (a, b, c, p, ell)
            compared += 1
            kinds.add(res.status)
            kinds.add("ell = 2" if ell == 2 else "ell = p" if ell == p else "odd ell != p")
            if (a * b * c) % p == 0:
                kinds.add("p | abc")
            if any(valuation(x, ell) >= 2 for x in (a, b, c)):
                kinds.add("ell^2 | coefficient")
            if any(valuation(x, ell) >= p for x in (a, b, c)):
                kinds.add("v >= p")
        assert compared >= 800
        assert kinds == {
            "solvable", "unsolvable", "ell = 2", "ell = p", "odd ell != p", "p | abc",
            "ell^2 | coefficient", "v >= p",
        }

    def test_lifted_roots_against_brute_force(self):
        # ell = 2, ell = p, p prime to ell - 1, p || ell - 1, and p^2 | ell - 1
        # (roots mod ell by Adleman-Manders-Miller), every ell^level <= 10^4
        pairs = [(3, 2), (3, 3), (3, 5), (3, 7), (3, 19), (5, 5), (5, 11), (5, 101), (7, 7), (7, 29), (13, 13)]
        count = 0
        for p, ell in pairs:
            level = 2 if ell == p else 1
            while ell**level <= 10**4:
                modulus = ell**level
                for w in {pow(x, p, modulus) for x in range(modulus) if x % ell}:
                    assert pow(_lift_root(w, p, ell, level), p, modulus) == w, (w, p, ell, level)
                    count += 1
                level += 1
        assert count > 10**4

    def test_valuation_heavy_case_is_fast(self):
        # (0 : 1 : -1) is a rational point; the survivor search took 27 s here
        started = time.perf_counter()
        res = solvable_over_Ql(1, 50, 50, 5, 5)
        assert time.perf_counter() - started < 1
        assert res.status == "solvable"
        assert check_witness(1, 50, 50, 5, 5, res.witness)

    def test_rejects_bad_exponent_place_and_depth(self):
        for p, ell in ((0, 3), (-3, 3), (2, 3), (9, 3), (3, -3), (3, 1)):
            with pytest.raises(PreconditionError):
                solvable_over_Ql(1, 1, 1, p, ell)
        # the verdict is exact, so no depth cap is taken
        with pytest.raises(TypeError):
            solvable_over_Ql(1, 1, 1, 3, 3, 1)


class TestHasLocalObstruction:
    def test_eq2_p5_finds_11(self):
        res = has_local_obstruction(3, 4, 5, 5)
        assert res.obstruction == 11
        assert res.method == "fast_subgroup"
        assert res.k == 2

    def test_eq2_p3_certified_none(self):
        res = has_local_obstruction(3, 4, 5, 3)
        assert res.obstruction is None
        assert res.certified
        assert res.cutoff == weil_cutoff(3) == 4

    def test_eq1_p3_finds_bad_prime(self):
        res = has_local_obstruction(3, 8, 21, 3)
        assert res.obstruction == 3
        assert res.method == "hensel_descent"

    def test_eq1_p7_certified_none(self):
        res = has_local_obstruction(3, 8, 21, 7)
        assert res.obstruction is None
        assert res.certified
        assert res.cutoff == 900

    def test_eq1_p11_finds_23(self):
        res = has_local_obstruction(3, 8, 21, 11)
        assert res.obstruction == 23
        assert res.k == 2

    def test_rejects_non_prime_exponent(self):
        for p in (9, 2, 0, -3):
            with pytest.raises(PreconditionError):
                has_local_obstruction(3, 4, 5, p)

    def test_rejects_k_max_below_2(self):
        with pytest.raises(PreconditionError):
            has_local_obstruction(3, 4, 5, 5, k_max=1)

    def test_refuses_k_max_past_the_bound_at_once(self):
        started = time.perf_counter()
        with pytest.raises(PreconditionError):
            has_local_obstruction(1, 1, 1, 10007, k_max=KMAX_BOUND + 1)
        assert time.perf_counter() - started < 1

    def test_weil_cutoff_values(self):
        assert weil_cutoff(3) == 4
        assert weil_cutoff(5) == 144
        assert weil_cutoff(7) == 900

    def test_bad_primes(self):
        assert bad_primes(3, 8, 21, 5) == [2, 3, 5, 7]
        assert bad_primes(3, 4, 5, 7) == [2, 3, 5, 7]

    def test_bad_primes_refuses_unfactorable_input_at_once(self):
        started = time.perf_counter()
        with pytest.raises(FactorizationError):
            bad_primes(999999937, 999999929, 1, 3)
        assert time.perf_counter() - started < 5


def reference_scan_q(a, b, c, p, k_max):
    # the q-scan with each q decided by the image engine: three charts at level 1
    cutoff = weil_cutoff(p)
    for k in range(2, k_max + 1, 2):
        q = k * p + 1
        if not is_prime(q) or (a * b * c) % q == 0:
            continue
        if q > cutoff:
            break
        if _search((a, b, c), p, q, 1).status != "solvable":
            return q, k
    return None, None


class TestScanQ:
    def test_agrees_with_reference_scan(self):
        rng = random.Random(5)
        triples = [(3, 8, 21), (3, 4, 5)]
        triples += [tuple(rng.randint(1, 99) * rng.choice((1, -1)) for _ in range(3)) for _ in range(3)]
        for eq in triples:
            for p in primes_in(3, 3000):
                assert _scan_q(*eq, p, _wheel(p, 200)) == reference_scan_q(*eq, p, 200), (eq, p)

    def test_agrees_with_reference_scan_without_obstructions(self):
        # (1 : -1 : 0) is a point mod every q, so each scan runs to k_max or the cutoff
        for p in primes_in(3, 600):
            assert _scan_q(1, 1, 1, p, _wheel(p, 200)) == reference_scan_q(1, 1, 1, p, 200) == (None, None)

    def test_the_wheel_skips_only_composite_q(self):
        # the wheel drops the k with 3 or 5 dividing kp + 1; the scan over it,
        # alone and in sweep with its D_k tables, finds what the scan over every
        # even k finds, on 40 seeded triples and three with D_k = 0, at
        # p = 3, 5, 7, 11, 13 and in two windows past 10^5, for each k_max from
        # 2 to 12 (k_max = 2 leaves some wheels empty)
        rng = random.Random(27)
        triples = [(1, 1, 1), (1, 2, 3), (2, -3, 5)]
        triples += [tuple(rng.randint(1, 99) * rng.choice((1, -1)) for _ in range(3)) for _ in range(40)]
        empty = found = 0
        for lo, hi in ((3, 14), (10**5, 10**5 + 100), (10**6, 10**6 + 100)):
            primes = primes_in(lo, hi)
            for k_max in range(2, 13):
                for p in primes:
                    ks = list(_wheel(p, k_max))
                    assert set(ks) <= set(range(2, k_max + 1, 2)) and ks == sorted(ks)
                    assert not any(is_prime(k * p + 1) for k in range(2, k_max + 1, 2) if k not in ks), (p, k_max)
                    empty += not ks
                for eq in triples:
                    expected = [(p, *reference_scan_q(*eq, p, k_max)) for p in primes]
                    assert [(p, *_scan_q(*eq, p, _wheel(p, k_max))) for p in primes] == expected, (eq, k_max)
                    assert sweep(*eq, lo, hi, k_max) == expected, (eq, lo, k_max)
                    found += sum(q is not None for _, q, _ in expected)
        assert empty and found > 1000


class TestSweep:
    def test_desk_scale_eq2(self):
        rows = sweep(3, 4, 5, 11, 100)
        assert rows
        assert all(q is not None for _, q, _ in rows)
        assert [p for p, _, _ in rows] == primes_in(11, 100)

    def test_desk_scale_eq1_two_p_plus_one(self):
        rows = sweep(3, 8, 21, 11, 100)
        assert all(q is not None for _, q, _ in rows)
        for p, q, _ in rows:
            if is_prime(2 * p + 1):
                assert q == 2 * p + 1
            else:
                assert q > 2 * p + 1

    def test_empty_range(self):
        assert sweep(3, 4, 5, 40, 40) == []

    def test_deterministic(self):
        assert sweep(3, 4, 5, 11, 60) == sweep(3, 4, 5, 11, 60)

    def test_rejects_bad_k_max(self):
        for k_max in (1, KMAX_BOUND + 1):
            with pytest.raises(PreconditionError):
                sweep(3, 4, 5, 11, 40, k_max)

    def test_rejects_reversed_window(self):
        with pytest.raises(PreconditionError):
            sweep(3, 4, 5, 41, 40)

    def test_zero_coefficients_are_refused(self):
        # by sweep, has_local_obstruction and solvable_over_Ql alike, as by the CLI
        for eq in ((0, 0, 0), (0, 1, 1), (3, 0, 5), (3, 4, 0)):
            for call in (lambda: sweep(*eq, 11, 60), lambda: has_local_obstruction(*eq, 5),
                         lambda: solvable_over_Ql(*eq, 5, 7)):
                with pytest.raises(PreconditionError, match="nonzero"):
                    call()

    def test_refuses_windows_past_the_bound_at_once(self):
        # never allocated: a sieve of 10^12 bytes, or base primes up to 10^15
        started = time.perf_counter()
        for lo, hi in ((11, 10**12), (0, SWEEP_BOUND + 1), (10**30, 10**30 + 10)):
            with pytest.raises(PreconditionError):
                sweep(3, 4, 5, lo, hi)
        assert time.perf_counter() - started < 1

    def test_narrow_window_below_the_bound_squared_at_once(self):
        # 60 numbers, not a sieve of the 664 579 base primes below 10^7
        started = time.perf_counter()
        rows = sweep(3, 4, 5, 10**14 - 60, 10**14)
        assert time.perf_counter() - started < 0.5
        assert rows == [
            (99999999999959, 4799999999998033, 48),
            (99999999999971, 799999999999769, 8),
            (99999999999973, 2199999999999407, 22),
        ]


def exceptional_exponents(a, b, c):
    """(E, K): for each even k <= K, E_k is the set of primes p with kp + 1 a
    prime factor of D_k, the p at which q = kp + 1 has an F_q point; K is the
    last k whose D_k (the Fraction circulant) factor_small can factor."""
    E = {}
    for k in itertools.count(2, 2):
        try:
            factors = factor_small(obstruction_integer(a, b, c, k)).factors
        except FactorizationError:
            return E, k - 2
        E[k] = {(r - 1) // k for r in factors if r % k == 1 and is_prime((r - 1) // k)}


class TestSweepOracle:
    @pytest.mark.parametrize("eq, K", [((3, 4, 5), 18), ((3, 8, 21), 12)])
    def test_first_k_outside_the_exceptional_exponents(self, eq, K):
        # sweep's k is the first even k <= K with kp + 1 prime, kp + 1 not
        # dividing abc and p not in E_k (the Weil cutoff is past 200p + 1 from
        # p = 11 on), or past K when there is none; E_k comes from factoring
        # D_k alone, with no walk, set test or Pocklington step
        E, k_stop = exceptional_exponents(*eq)
        assert k_stop == K
        abc = eq[0] * eq[1] * eq[2]
        skipped, decided, past_a_million = set(), 0, 0
        for p_min, p_max in ((11, 3000), (99000, 101000)):
            for p, q, k_found in sweep(*eq, p_min, p_max):
                rule = None
                for k in range(2, K + 1, 2):
                    if is_prime(k * p + 1) and abc % (k * p + 1):
                        if p not in E[k]:
                            rule = k
                            break
                        skipped.add(p)
                if rule is None:
                    assert k_found is None or k_found > K, (p, q, k_found)
                else:
                    assert (q, k_found) == (rule * p + 1, rule), (p, q, k_found)
                    decided += 1
                    past_a_million += q > 10**6
        assert skipped and decided > 400 and past_a_million > 20


class TestSweepTables:
    @staticmethod
    def table_free(a, b, c, p_min, p_max):
        return [(p, *_scan_q(a, b, c, p, _wheel(p, 200))) for p in primes_in(p_min, p_max) if p > 2]

    @staticmethod
    def counting_builds(monkeypatch):
        built = []

        def build(a, b, c, k):
            built.append(k)
            return _obstruction_integer(a, b, c, k)

        monkeypatch.setattr(localobs, "_obstruction_integer", build)
        return built

    @staticmethod
    def first_scans(a, b, c, p_min, p_max, k_table):
        # (k, p) for each k <= k_table at the first p whose scan tests a
        # q = kp + 1, read off the table-free scans
        first = {}
        for p, _, k_end in TestSweepTables.table_free(a, b, c, p_min, p_max):
            for k in range(2, min(k_end or 200, k_table) + 1, 2):
                q = k * p + 1
                if is_prime(q) and (a * b * c) % q and q <= weil_cutoff(p):
                    first.setdefault(k, p)
        return sorted(first.items(), key=lambda item: (item[1], item[0]))

    @pytest.mark.parametrize("eq", [(3, 8, 21), (3, 4, 5)])
    def test_same_entries_with_and_without_tables(self, monkeypatch, eq):
        # each allowed k's D_k is built at most once, at k's first q
        built, scans = [], []
        scan_q = localobs._scan_q

        def scan(a, b, c, p, *args):
            scans.append(p)
            return scan_q(a, b, c, p, *args)

        def build(a, b, c, k):
            built.append((k, scans[-1]))
            return _obstruction_integer(a, b, c, k)

        monkeypatch.setattr(localobs, "_scan_q", scan)
        monkeypatch.setattr(localobs, "_obstruction_integer", build)
        k_table = isqrt(TABLE_BITS // (abs(eq[0]) + abs(eq[1]) + abs(eq[2])).bit_length())
        for p_min, p_max in ((11, 20), (11, 20000)):
            built.clear()
            assert sweep(*eq, p_min, p_max) == self.table_free(*eq, p_min, p_max)
            assert built == self.first_scans(*eq, p_min, p_max, k_table)
        # over the wide window, every table the size bound allows
        assert sorted(k for k, p in built) == list(range(2, k_table + 1, 2))

    @pytest.mark.parametrize("eq", [(2, -3, 5), (5, 5, 7)])
    def test_zero_tables_fall_back_to_the_set_test(self, monkeypatch, eq):
        built = self.counting_builds(monkeypatch)
        assert sweep(*eq, 11, 400) == self.table_free(*eq, 11, 400)
        assert built

    def test_huge_coefficients_build_no_table(self, monkeypatch):
        built = self.counting_builds(monkeypatch)
        eq = (10**200 + 1, 3 * 10**199 + 7, -(7 * 10**198 + 3))
        assert sweep(*eq, 11, 3000) == self.table_free(*eq, 11, 3000)
        assert built == []

    def test_a_point_verdict_still_goes_through_the_set_test(self, monkeypatch):
        # a wrong table that says "q divides D_k" at every q: the first q with
        # no point shows the contradiction instead of passing as a point
        monkeypatch.setattr(localobs, "_obstruction_integer", lambda a, b, c, k: 0)
        with pytest.raises(RuntimeError, match="divides D_"):
            sweep(3, 4, 5, 11, 1000)


class TestUnitPowers:
    @pytest.mark.parametrize(
        "p, ell, m", [(3, 2, 5), (3, 3, 4), (3, 5, 3), (3, 7, 3), (5, 5, 3), (5, 11, 2), (7, 29, 2)]
    )
    def test_match_enumeration(self, p, ell, m):
        modulus = ell**m
        powers = _unit_powers(p, ell, m)
        assert set(powers) == {pow(x, p, modulus) for x in range(modulus) if x % ell}
        assert all(pow(root, p, modulus) == power for power, root in powers.items())
