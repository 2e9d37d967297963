"""Seeded inputs for the three workloads.

Each workload is a fixed batch of CLI operations.  The seed chooses the
inputs inside a fixed make-up, so that every seed gives a batch of about
the same cost; what varies between seeds is listed in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd

from arith import prime_factors

PAPER_EQUATIONS = ((3, 8, 21), (3, 4, 5))
CURVE_LABELS = ("30a1", "42a1", "120a1", "120b1", "168a1", "168b1")

# Odd-prime sets of the density expressions, one expression per entry.  The
# cost of `density` grows faster than M^2 in the modulus M = 8 * (product of
# the odd primes), so the sets are fixed and the seed varies the rest.  The
# one-prime sets keep to q <= 7 so that the batch's median operation sits
# among many of about the same cost, and (5, 7) repeats for the same reason
# at the 11th-slowest operation, which op_tail_ms reports.
DENSITY_PRIME_SETS = (
    ((),) * 8
    + tuple((q,) for q in (3, 5, 7, 3, 5, 7, 3, 5, 7, 3))
    + ((3, 5), (3, 7), (5, 7), (5, 7), (5, 7), (3, 13), (5, 11), (5, 13), (7, 11), (11, 13))
    + ((3, 5, 7), (3, 5, 11), (3, 5, 13), (3, 7, 11))
)

OBSTRUCT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29)
# Below 11 the Weil cutoff ((p-1)(p-2))^2 is under 200p + 1, so `obstruct`
# can certify "no obstruction"; the batch carries a `local` call at each bad
# prime there, whose witness the check re-derives.
CERTIFIABLE_PRIMES = (3, 5, 7)
SEEDED_TRIPLES = 4

SWEEP_P_MIN, SWEEP_P_MAX, SWEEP_WINDOWS = 11, 200_000, 20
K_MAX = 200  # largest k in q = kp + 1, for obstruct and sweep


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    expr: tuple | None = field(default=None, compare=False)  # density only


def eq_arg(eq) -> str:
    # one token, so that a negative first coefficient is not read as an option
    return "--eq=" + ",".join(str(x) for x in eq)


# ---------------------------------------------------------------------------
# constraint expressions: ("atom", n, sign) | ("not", e) | ("and"|"or", [e...])
# ---------------------------------------------------------------------------


def render(expr) -> str:
    kind = expr[0]
    if kind == "atom":
        return f"({expr[1]})={'+1' if expr[2] > 0 else '-1'}"
    if kind == "not":
        return "!" + render(expr[1])
    body = (" & " if kind == "and" else " | ").join(render(e) for e in expr[1])
    return f"({body})"


def evaluate(expr, symbol) -> bool:
    """Truth of the expression, given symbol(n) = the value of (n/p)."""
    kind = expr[0]
    if kind == "atom":
        return symbol(expr[1]) == expr[2]
    if kind == "not":
        return not evaluate(expr[1], symbol)
    results = (evaluate(e, symbol) for e in expr[1])
    return all(results) if kind == "and" else any(results)


def atoms(expr):
    if expr[0] == "atom":
        yield expr
    elif expr[0] == "not":
        yield from atoms(expr[1])
    else:
        for e in expr[1]:
            yield from atoms(e)


def _random_expression(rng: random.Random, odd_primes) -> tuple:
    # One atom per odd prime, at most one atom (-1), and exactly one atom
    # whose kernel is even.  The atoms' characters are then independent, a
    # read-once formula over them depends on every atom, and the modulus of
    # the answer is always the full 8 * prod(odd_primes).
    kernels = [rng.choice((1, -1)) * q for q in odd_primes]
    if not kernels or rng.random() < 0.3:
        kernels.append(rng.choice((2, -2)))
    else:
        i = rng.randrange(len(kernels))
        kernels[i] *= 2
    if rng.random() < 0.4:
        kernels.append(-1)
    # square factors are reduced away by the program
    kernels = [n * rng.choice((1, 1, 1, 4, 9)) for n in kernels]
    nodes = [("atom", n, rng.choice((1, -1))) for n in kernels]
    nodes = [("not", e) if rng.random() < 0.2 else e for e in nodes]
    rng.shuffle(nodes)
    while len(nodes) > 1:
        take = rng.randint(2, min(3, len(nodes)))
        i = rng.randrange(len(nodes) - take + 1)
        group = (rng.choice(("and", "or")), nodes[i : i + take])
        if rng.random() < 0.2:
            group = ("not", group)
        nodes[i : i + take] = [group]
    return nodes[0]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _probes(*present: str) -> list[Op]:
    """One small operation of each command not among `present`: with them
    every layer runs in every batch, so every per-layer time is measured on
    every workload (they add a few milliseconds to a batch)."""
    expr = ("and", [("atom", -2, -1), ("atom", 2, -1)])
    eq = eq_arg((3, 4, 5))
    probes = {
        "analyze": Op(("analyze", eq)),
        "curve": Op(("curve", "30a1")),
        "density": Op(("density", render(expr)), expr),
        "obstruct": Op(("obstruct", eq, "--p", "5", "--kmax", str(K_MAX))),
        "sweep": Op(("sweep", eq, "--pmin", "11", "--pmax", "100", "--kmax", str(K_MAX), "--jobs", "1")),
    }
    return [op for name, op in probes.items() if name not in present]


def eliminate(seed: int) -> list[Op]:
    rng = random.Random(f"eliminate/{seed}")
    ops = [Op(("analyze", eq_arg(eq))) for eq in PAPER_EQUATIONS]
    ops += [Op(("curve", label)) for label in CURVE_LABELS]
    for odd_primes in DENSITY_PRIME_SETS:
        expr = _random_expression(rng, odd_primes)
        ops.append(Op(("density", render(expr)), expr))
    return ops + _probes("analyze", "curve", "density")


def _seeded_triple(rng: random.Random) -> tuple[int, int, int]:
    # a, b, c are +-2^i, with q | exactly one of them for one odd q <= 7.
    # Then abc has exactly the prime factors 2 and q, so every triple has the
    # same number of bad primes at each p in CERTIFIABLE_PRIMES.  A q^2, or q
    # in two coefficients, makes the ell = p = q search take seconds (see
    # CHANGES.md); such triples would swamp the batch, so they are not drawn.
    q = rng.choice((3, 5, 7))
    while True:
        coeffs = [rng.choice((1, -1)) * 2 ** rng.randint(0, 3) for _ in range(3)]
        if all(c % 2 == 0 for c in coeffs) or all(c % 2 for c in coeffs):
            continue
        coeffs[rng.randrange(3)] *= q
        return tuple(coeffs)


def obstruct(seed: int) -> list[Op]:
    rng = random.Random(f"obstruct/{seed}")
    ops = []
    for eq in PAPER_EQUATIONS:
        ops += [Op(("obstruct", eq_arg(eq), "--p", str(p), "--kmax", str(K_MAX))) for p in OBSTRUCT_PRIMES]
    triples = [_seeded_triple(rng) for _ in range(SEEDED_TRIPLES)]
    for eq in triples:
        ops += [Op(("obstruct", eq_arg(eq), "--p", str(p), "--kmax", str(K_MAX))) for p in CERTIFIABLE_PRIMES]
    for eq in PAPER_EQUATIONS + tuple(triples):
        for p in CERTIFIABLE_PRIMES:
            for ell in sorted(prime_factors(p * eq[0] * eq[1] * eq[2])):
                ops.append(Op(("local", eq_arg(eq), "--p", str(p), "--ell", str(ell))))
    return ops + _probes("obstruct")


def sweep(seed: int) -> list[Op]:
    rng = random.Random(f"sweep/{seed}")
    width = (SWEEP_P_MAX - SWEEP_P_MIN) // SWEEP_WINDOWS
    ops = []
    for eq in PAPER_EQUATIONS:
        cuts = [SWEEP_P_MIN + i * width + rng.randint(-width // 5, width // 5) for i in range(1, SWEEP_WINDOWS)]
        bounds = [SWEEP_P_MIN, *cuts, SWEEP_P_MAX]
        for lo, hi in zip(bounds, bounds[1:]):
            ops.append(
                Op(
                    (
                        "sweep", eq_arg(eq), "--pmin", str(lo), "--pmax", str(hi),
                        "--kmax", str(K_MAX), "--jobs", "1",
                    )
                )
            )
    return ops + _probes("sweep")


WORKLOADS = {"eliminate": eliminate, "obstruct": obstruct, "sweep": sweep}
