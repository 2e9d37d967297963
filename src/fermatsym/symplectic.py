"""The two symplectic criteria as decision procedures.

Outputs are a symplectic type or a quadratic-residue constraint on the
exponent prime p, of which (1)=-1 is a hard contradiction.  Everything is
symbolic in p: valuations enter as exact integers or as integer
representatives of residues mod p, and "is a square mod p" becomes a
Legendre-symbol constraint on the squarefree kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from . import FermatsymError
from .ntkernel import squarefree_part


class CriterionError(FermatsymError):
    """A criterion was invoked outside its hypotheses."""


class SymplecticType(Enum):
    SYMPLECTIC = "symplectic"
    ANTI_SYMPLECTIC = "anti-symplectic"
    UNKNOWN = "unknown"


@dataclass(frozen=True, order=True)
class QRConstraint:
    """The condition (n/p) = sign for the exponent prime p; n is stored as its
    squarefree part, which has the same Legendre symbol for p prime to n."""

    n: int
    sign: int

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("constraint kernel must be nonzero")
        object.__setattr__(self, "n", squarefree_part(self.n))
        if self.sign not in (1, -1):
            raise ValueError(f"constraint sign must be +-1, got {self.sign}")

    def negated(self) -> "QRConstraint":
        return QRConstraint(self.n, -self.sign)

    def __str__(self) -> str:
        return f"({self.n})={'+1' if self.sign == 1 else '-1'}"


def criterion_at_two(v2_frey: int, v2_candidate: int, legendre_2_p: int) -> SymplecticType:
    """Symplectic type of an isomorphism of p-torsion, decided at 2.

    Applies to two curves over Q_2 with potentially good reduction whose
    p-torsion is trivialized over the same SL2(F3)-extension of Q_2^un.  The
    two discriminant exponents must be exact integers, not residues mod p:
    only their difference mod 3 matters, which a mod-p residue cannot supply.
    """
    if legendre_2_p not in (1, -1):
        raise CriterionError(f"legendre_2_p must be +-1, got {legendre_2_p}")
    if legendre_2_p == 1:
        return SymplecticType.SYMPLECTIC
    if (v2_frey - v2_candidate) % 3 == 0:
        return SymplecticType.SYMPLECTIC
    return SymplecticType.ANTI_SYMPLECTIC


def criterion_multiplicative(v: int, v_candidate: int, sym_type: SymplecticType) -> QRConstraint:
    """Consistency of a symplectic type with valuations at a shared
    multiplicative prime.

    v and v_candidate are integer representatives of the two discriminant
    exponents mod p (both nonzero mod p).  The type forces their ratio to be
    a square (symplectic) or a non-square (anti-symplectic) mod p, which is
    a constraint on the squarefree kernel of the product: (1)=+1 always
    holds and (1)=-1 never does.  An unknown type has no per-prime
    constraint; use pairwise_consistency instead.
    """
    if v == 0 or v_candidate == 0:
        raise CriterionError("criterion needs valuations nonzero mod p")
    if sym_type is SymplecticType.UNKNOWN:
        raise CriterionError("criterion needs a known symplectic type; use pairwise_consistency")
    sign = 1 if sym_type is SymplecticType.SYMPLECTIC else -1
    return QRConstraint(v * v_candidate, sign)


def pairwise_consistency(
    profile: list[tuple[int, int]], candidate: list[tuple[int, int]]
) -> list[QRConstraint]:
    """Constraints forced by an isomorphism when the symplectic type is unknown.

    Both curves must be multiplicative at every listed prime.  Whatever the
    type is, it is the same at every prime, so for each pair of primes the
    product of the valuation ratios must be a square mod p.  Redundant
    constraints are kept; minimization is the solver's job.
    """
    prof = dict(profile)
    cand = dict(candidate)
    if len(prof) != len(list(profile)) or len(cand) != len(list(candidate)):
        raise CriterionError("duplicate primes in a valuation list")
    shared = sorted(set(prof) & set(cand))
    if len(shared) < 2:
        raise CriterionError("pairwise consistency needs at least two shared primes")
    for ell in shared:
        if prof[ell] == 0 or cand[ell] == 0:
            raise CriterionError(f"valuation at {ell} is zero mod p")
    out = []
    for i, l1 in enumerate(shared):
        for l2 in shared[i + 1 :]:
            out.append(QRConstraint(prof[l1] * prof[l2] * cand[l1] * cand[l2], 1))
    return out
