"""Weierstrass models over Z: invariants, coordinate changes, minimal models.

This module is the oracle layer: curve-database entries and valuation
profiles are validated against it.  Minimization takes one prime u, and one
step of scale factor u, at a time.  Three linear congruences fix the change
of coordinates, up to the at most 4 solutions they have at 2 and 3, which are
tried in turn: this stands in for Tate's algorithm, easy to argue, and the
inputs are tiny.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

from . import FermatsymError
from .ntkernel import brief, factor_small, valuation


class DegenerateModelError(FermatsymError, ValueError):
    """The coefficients define a singular cubic (discriminant zero)."""


class NonIntegralTransformError(Exception):
    """A coordinate change produced a non-integral coefficient."""


@dataclass(frozen=True)
class WeierstrassModel:
    """Integral model y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int

    def coefficients(self) -> tuple[int, int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def __str__(self) -> str:
        return "[" + ",".join(map(brief, self.coefficients())) + "]"


@dataclass(frozen=True)
class Invariants:
    b2: int
    b4: int
    b6: int
    b8: int
    c4: int
    c6: int
    delta: int
    j_num: int
    j_den: int


class ReductionKind(Enum):
    GOOD = "good"
    MULTIPLICATIVE = "multiplicative"
    ADDITIVE = "additive"


@dataclass(frozen=True)
class ReductionType:
    kind: ReductionKind
    potentially_good: bool


def invariants(model: WeierstrassModel) -> Invariants:
    """Standard b-, c- and discriminant invariants, plus j in lowest terms."""
    a1, a2, a3, a4, a6 = model.coefficients()
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -b2**3 + 36 * b2 * b4 - 216 * b6
    delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    if delta == 0:
        raise DegenerateModelError(f"model {model} has discriminant 0")
    num, den = c4**3, delta
    g = gcd(num, den)
    if g:
        num, den = num // g, den // g
    if den < 0:
        num, den = -num, -den
    return Invariants(b2, b4, b6, b8, c4, c6, delta, num, den)


def transform(model: WeierstrassModel, u: int, r: int, s: int, t: int) -> WeierstrassModel:
    """Coordinate change x = u^2 x' + r, y = u^3 y' + u^2 s x' + t.

    Divides the discriminant by u^12; raises if any new coefficient is not
    an integer.
    """
    if u == 0:
        raise ValueError("transform requires u != 0")
    a1, a2, a3, a4, a6 = model.coefficients()
    numerators = (
        (a1 + 2 * s, u),
        (a2 - s * a1 + 3 * r - s * s, u * u),
        (a3 + r * a1 + 2 * t, u**3),
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t, u**4),
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1, u**6),
    )
    coeffs = []
    for i, (num, den) in enumerate(numerators):
        q, rem = divmod(num, den)
        if rem != 0:
            raise NonIntegralTransformError(
                f"a{(1, 2, 3, 4, 6)[i]} not integral under (u,r,s,t)=({u},{r},{s},{t})"
            )
        coeffs.append(q)
    return WeierstrassModel(*coeffs)


def _solutions(c: int, rhs: int, m: int) -> range:
    """The x mod m with c*x = rhs mod m, in increasing order."""
    g = gcd(c, m)
    if rhs % g:
        return range(0)
    step = m // g
    x = rhs // g * pow(c // g, -1, step) % step
    return range(x, m, step)


def _reduction_step(model: WeierstrassModel, u: int) -> WeierstrassModel | None:
    """An integral model with delta/u^12 for the prime u, if one exists.

    Takes s mod u, r mod u^2, t mod u^3 that make a1', a2', a3' integral;
    modulo post-composition with integral unimodular changes this covers
    every candidate change of coordinates with scale factor u.
    """
    a1, a2, a3 = model.a1, model.a2, model.a3
    for s in _solutions(2, -a1, u):
        for r in _solutions(3, s * s + s * a1 - a2, u * u):
            for t in _solutions(2, -(a3 + r * a1), u**3):
                try:
                    return transform(model, u, r, s, t)
                except NonIntegralTransformError:
                    continue
    return None


def _reduce_unimodular(model: WeierstrassModel) -> WeierstrassModel:
    """Normalize to a1, a3 in {0,1} and a2 in {-1,0,1} (u = 1 changes only)."""
    s = -((model.a1 - model.a1 % 2) // 2)
    m = transform(model, 1, 0, s, 0)
    r = -((m.a2 - ((m.a2 + 1) % 3 - 1)) // 3)
    m = transform(m, 1, r, 0, 0)
    t = -((m.a3 - m.a3 % 2) // 2)
    return transform(m, 1, 0, 0, t)


def _minimal_at(model: WeierstrassModel, ell: int, e: int) -> tuple[WeierstrassModel, int]:
    """The model made minimal at the prime ell, given e = v_ell(delta), and its new v_ell."""
    while e >= 12 and (smaller := _reduction_step(model, ell)) is not None:
        model, e = smaller, e - 12
    return model, e


def minimal_model(model: WeierstrassModel) -> tuple[WeierstrassModel, dict[int, int]]:
    """A global minimal model and the valuations of its discriminant.

    Factors delta once and minimizes at each of its primes.  The result is
    put in the standard reduced form (a1, a3 in {0,1}, a2 in {-1,0,1}),
    which makes the operation idempotent.
    """
    vals = {}
    for ell, e in factor_small(invariants(model).delta).factors.items():
        model, e = _minimal_at(model, ell, e)
        if e:
            vals[ell] = e
    return _reduce_unimodular(model), vals


def reduction_type(model: WeierstrassModel, ell: int) -> ReductionType:
    """Classify reduction at ell for a model that is minimal at ell."""
    inv = invariants(model)
    v_delta = valuation(inv.delta, ell)
    if v_delta == 0:
        return ReductionType(ReductionKind.GOOD, potentially_good=True)
    v_c4 = valuation(inv.c4, ell) if inv.c4 != 0 else None
    pot_good = inv.j_den % ell != 0
    if v_c4 == 0:
        return ReductionType(ReductionKind.MULTIPLICATIVE, potentially_good=pot_good)
    return ReductionType(ReductionKind.ADDITIVE, potentially_good=pot_good)
