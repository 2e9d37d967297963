"""Legendre-symbol constraint solving.

Boolean combinations of conditions (n/p) = +-1 are converted into congruence
classes of the prime p with exact Dirichlet densities.  Includes the small
text DSL for constraint expressions, e.g. ``(-2)=-1 & ((2)=+1 | !(3)=-1)``.

Every kernel n is an F_2 vector over one basis of characters of p: (-1/p),
(2/p) and (q*/p) = (p/q) for odd primes q, where q* = (-1)^((q-1)/2) q.
``simplify`` does linear algebra on these vectors; ``to_classes`` evaluates
an expression once, as a truth table over the sign patterns of the basis,
and reads the modulus and the residues off that table.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd, prod
from operator import and_, or_

from .ntkernel import factor_small, jacobi, squarefree_part
from .symplectic import QRConstraint


class ParseError(Exception):
    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
        self.column = column


# ---------------------------------------------------------------------------
# expression trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SignExpr:
    def __and__(self, other: "SignExpr") -> "SignExpr":
        return And((self, other))

    def __or__(self, other: "SignExpr") -> "SignExpr":
        return Or((self, other))

    def __invert__(self) -> "SignExpr":
        return Not(self)


@dataclass(frozen=True)
class Atom(SignExpr):
    constraint: QRConstraint


@dataclass(frozen=True)
class Not(SignExpr):
    operand: SignExpr


@dataclass(frozen=True)
class And(SignExpr):
    operands: tuple[SignExpr, ...]


@dataclass(frozen=True)
class Or(SignExpr):
    operands: tuple[SignExpr, ...]


TRUE = Atom(QRConstraint(1, 1))
FALSE = Atom(QRConstraint(1, -1))


def atom(n: int, sign: int) -> Atom:
    """Atom (n/p) = sign with n reduced to its squarefree part."""
    return Atom(QRConstraint(squarefree_part(n), sign))


def all_of(exprs) -> SignExpr:
    exprs = tuple(exprs)
    if not exprs:
        return TRUE
    return exprs[0] if len(exprs) == 1 else And(exprs)


def any_of(exprs) -> SignExpr:
    exprs = tuple(exprs)
    if not exprs:
        return FALSE
    return exprs[0] if len(exprs) == 1 else Or(exprs)


def atoms_of(expr: SignExpr):
    if isinstance(expr, Atom):
        yield expr.constraint
    elif isinstance(expr, Not):
        yield from atoms_of(expr.operand)
    elif isinstance(expr, (And, Or)):
        for sub in expr.operands:
            yield from atoms_of(sub)
    else:
        raise TypeError(f"not a SignExpr node: {expr!r}")


def pretty(expr: SignExpr) -> str:
    """Canonical text form; parse(pretty(e)) evaluates identically to e."""

    def go(e: SignExpr, parent_prec: int) -> str:
        if isinstance(e, Atom):
            return str(e.constraint)
        if isinstance(e, Not):
            return "!" + go(e.operand, 3)
        if isinstance(e, And):
            body = " & ".join(go(sub, 2) for sub in e.operands)
            return f"({body})" if parent_prec > 1 else body
        body = " | ".join(go(sub, 1) for sub in e.operands)
        return f"({body})" if parent_prec > 0 else body

    return go(expr, 0)


# ---------------------------------------------------------------------------
# parser:  expr := term ('|' term)*;  term := factor ('&' factor)*
#          factor := '!' factor | '(' ... either grouped expr or atom
#          atom  := '(' integer ')' '=' ('+1' | '-1')
# ---------------------------------------------------------------------------

# The most '!' and grouping '(' open at once; deeper input is a ParseError,
# so parse, pretty and to_classes stay inside Python's recursion limit.
NESTING_BOUND = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str):
        raise ParseError(message, self.pos + 1)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected '{ch}'")
        self.pos += 1

    def parse_expr(self) -> SignExpr:
        terms = [self.parse_term()]
        while self.peek() == "|":
            self.pos += 1
            terms.append(self.parse_term())
        return terms[0] if len(terms) == 1 else Or(tuple(terms))

    def parse_term(self) -> SignExpr:
        factors = [self.parse_factor()]
        while self.peek() == "&":
            self.pos += 1
            factors.append(self.parse_factor())
        return factors[0] if len(factors) == 1 else And(tuple(factors))

    def parse_factor(self) -> SignExpr:
        ch = self.peek()
        if ch == "!":
            self.pos += 1
            return Not(self.nested(self.parse_factor))
        if ch != "(":
            self.error("expected '(' or '!'")
        # '(' opens either an atom "(n)=s" or a grouped expression
        save = self.pos
        self.pos += 1
        n = self._try_integer()
        if n is not None:
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == ")":
                self.pos += 1
                if self.peek() == "=":
                    self.pos += 1
                    sign = self._parse_sign()
                    if n == 0:
                        self.pos = save
                        self.error("constraint kernel must be nonzero")
                    return atom(n, sign)
        # not an atom: grouped expression
        self.pos = save + 1
        inner = self.nested(self.parse_expr)
        self.expect(")")
        return inner

    def nested(self, parse) -> SignExpr:
        # the '!' or '(' just read opens one more level
        if self.depth == NESTING_BOUND:
            raise ParseError(f"more than NESTING_BOUND = {NESTING_BOUND} nested '(' and '!'", self.pos)
        self.depth += 1
        expr = parse()
        self.depth -= 1
        return expr

    def _try_integer(self) -> int | None:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            return None
        return int(self.text[start : self.pos])

    def _parse_sign(self) -> int:
        self.skip_ws()
        for token, value in (("+1", 1), ("-1", -1), ("1", 1)):
            if self.text.startswith(token, self.pos):
                self.pos += len(token)
                return value
        self.error("expected '+1' or '-1'")

    def parse_complete(self) -> SignExpr:
        expr = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error(f"unexpected '{self.text[self.pos]}'")
        return expr


def parse(text: str) -> SignExpr:
    return _Parser(text).parse_complete()


# ---------------------------------------------------------------------------
# characters and congruence classes
# ---------------------------------------------------------------------------

# Largest canonical modulus, and largest number 2^r of sign patterns of r
# basis characters, that to_classes enumerates; beyond it, ClassBoundError.
CLASS_BOUND = 10**6


class ClassBoundError(Exception):
    """The answer needs more residues or sign patterns than CLASS_BOUND."""


def _support(n: int) -> frozenset[int]:
    """Squarefree n as a set of basis characters: -1, 2 or an odd prime q.

    (n/p) is the product of the characters in the set.  Since
    (q/p) = (q*/p) (-1/p)^((q-1)/2), each q = 3 (mod 4) also flips -1.
    """
    places = {-1} if n < 0 else set()
    for q in factor_small(abs(n)).factors:
        places ^= {q, -1} if q % 4 == 3 else {q}
    return frozenset(places)


def character(base: int, r: int) -> int:
    """The basis character of ``base`` at primes p = r: (-1/p), (2/p) or (p/q)."""
    if base == -1:
        return 1 if r % 4 == 1 else -1
    if base == 2:
        return 1 if r % 8 in (1, 7) else -1
    return jacobi(r, base)


def euler_phi(m: int) -> int:
    out = m
    for p in factor_small(m).factors:
        out -= out // p
    return out


@dataclass(frozen=True)
class CongruenceClassSet:
    """Residues mod M (coprime to M) containing the primes in question."""

    modulus: int
    residues: frozenset[int]

    def __post_init__(self):
        for r in self.residues:
            if not (0 < r < self.modulus or (self.modulus == 1 and r == 0)):
                raise ValueError(f"residue {r} out of range for modulus {self.modulus}")
            if gcd(r, self.modulus) != 1:
                raise ValueError(f"residue {r} not coprime to {self.modulus}")

    def sorted_residues(self) -> list[int]:
        return sorted(self.residues)

    def __str__(self) -> str:
        parts = decompose(self)
        if not parts:
            return "no classes (empty set)"
        if parts == [(1, 1)]:
            return "all p"
        return " or ".join(f"p ≡ {r} (mod {m})" for r, m in parts)


def to_classes(expr: SignExpr) -> CongruenceClassSet:
    """All classes p ≡ r (mod M) on which the expression holds, M minimal.

    Bit x of the truth table is the expression's value where the basis
    characters in x are -1 and the others +1.  Each pattern holds on the
    same share of primes, and M is the product of the moduli of the
    characters the table depends on: 8 for (2/p), else 4 for (-1/p), and q.
    """
    basis = sorted(set().union(*(_support(c.n) for c in atoms_of(expr))))
    size = 1 << len(basis)
    if size > CLASS_BOUND:
        raise ClassBoundError(f"2^{len(basis)} sign patterns exceed the bound {CLASS_BOUND}")
    full = (1 << size) - 1
    # column of character i: the patterns x with bit i set
    columns = {b: full // ((1 << (2 << i)) - 1) * (((1 << (1 << i)) - 1) << (1 << i))
               for i, b in enumerate(basis)}

    def table(e: SignExpr) -> int:
        if isinstance(e, Atom):
            odd = reduce(lambda t, b: t ^ columns[b], _support(e.constraint.n), 0)
            return odd if e.constraint.sign < 0 else full ^ odd
        if isinstance(e, Not):
            return full ^ table(e.operand)
        tables = (table(sub) for sub in e.operands)
        return reduce(and_, tables, full) if isinstance(e, And) else reduce(or_, tables, 0)

    truth = table(expr)
    # the characters it depends on: flipping one changes some entry
    used = [b for i, b in enumerate(basis)
            if truth & (full ^ columns[b]) != (truth & columns[b]) >> (1 << i)]
    two = 8 if 2 in used else 4 if -1 in used else 1
    parts = ([two] if two > 1 else []) + [q for q in used if q > 2]
    modulus = prod(parts)
    if modulus > CLASS_BOUND:
        raise ClassBoundError(f"modulus {modulus} exceeds the bound {CLASS_BOUND}")
    # per prime-power part m of the modulus: its residues by the pattern they
    # give the part's characters, times the CRT idempotent for m, so that one
    # residue from each part sums to a residue mod the modulus
    fibres = []
    for m in parts:
        bits = [(1 << basis.index(b), b) for b in used if (b == m if m % 2 else b < 3)]
        idempotent = modulus // m * pow(modulus // m, -1, m)
        fibre: dict[int, list[int]] = {}
        for r in range(1, m):
            if gcd(r, m) == 1:
                x = sum(bit for bit, b in bits if character(b, r) < 0)
                fibre.setdefault(x, []).append(r * idempotent % modulus)
        fibres.append((sum(bit for bit, _ in bits), fibre))
    unused = sum(1 << i for i, b in enumerate(basis) if b not in used)
    holds = format(truth, f"0{size}b")[::-1]
    residues: set[int] = set()
    for x in range(size):
        if holds[x] == "1" and not x & unused:
            combined = [0]
            for mask, fibre in fibres:
                combined = [(s + t) % modulus for s in combined for t in fibre[x & mask]]
            residues.update(combined)
    return CongruenceClassSet(modulus, frozenset(residues))


def density(classes: CongruenceClassSet) -> Fraction:
    """Dirichlet density of the primes in the class set."""
    if classes.modulus == 1:
        return Fraction(1) if classes.residues else Fraction(0)
    return Fraction(len(classes.residues), euler_phi(classes.modulus))


def _divisors(m: int) -> list[int]:
    out = [1]
    for q, e in factor_small(m).factors.items():
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def canonicalize(classes: CongruenceClassSet) -> CongruenceClassSet:
    """Smallest modulus expressing the same set of primes.

    The divisors d of M at which the set is a union of classes mod d are
    closed under gcd, so dividing M by one prime at a time, for as long as
    the set stays such a union, reaches the smallest.
    """
    m, residues, phi = classes.modulus, classes.residues, euler_phi(classes.modulus)
    d = m
    for q in factor_small(m).factors:
        while d % q == 0:
            # a union of classes mod d // q iff its image there lifts to no more
            image = {r % (d // q) for r in residues}
            if len(image) * phi != len(residues) * euler_phi(d // q):
                break
            d //= q
    return CongruenceClassSet(d, frozenset(r % d for r in residues))


def decompose(classes: CongruenceClassSet) -> list[tuple[int, int]]:
    """Greedy cover by single classes of the smallest possible moduli.

    Returns (residue, modulus) pairs; e.g. {5,13,23} mod 24 comes out as
    [(5, 8), (23, 24)].  For each divisor d of M in turn, the class rd mod d
    is taken iff all phi(M)/phi(d) of its residues mod M are still uncovered.
    """
    m = classes.modulus
    if m <= 1:
        return [(1, 1)] if classes.residues else []
    remaining, out, phi = set(classes.residues), [], euler_phi(m)
    for d in _divisors(m):
        fibre = phi // euler_phi(d)
        whole = {rd for rd, n in Counter(r % d for r in remaining).items() if n == fibre}
        if whole:
            out.extend((rd, d) for rd in whole)
            remaining = {r for r in remaining if r % d not in whole}
            if not remaining:
                break
    return sorted(out, key=lambda rm: (rm[1], rm[0]))


# ---------------------------------------------------------------------------
# constraint-set simplification over F_2
# ---------------------------------------------------------------------------


def simplify(constraints: list[QRConstraint]) -> list[QRConstraint] | None:
    """Minimal equivalent constraint set, or None when it is unsatisfiable.

    Constraints are F_2-linear in the character vectors of their kernels
    (``_support``), so multiplicatively implied members are exactly the
    linearly dependent ones.  Kept constraints are chosen smallest-kernel-first.
    """
    ordered = sorted(constraints, key=lambda c: (abs(c.n), c.n < 0, -c.sign))
    pivots: dict[int, tuple[frozenset[int], int]] = {}
    kept: list[QRConstraint] = []
    for c in ordered:
        vec = _support(c.n)
        sign = 1
        while vec:
            piv = min(vec)
            if piv not in pivots:
                break
            bvec, bsign = pivots[piv]
            vec = vec ^ bvec
            sign *= bsign
        if not vec:
            # c's kernel is a product of kept kernels (times a square), whose
            # symbols multiply to `sign`
            if sign != c.sign:
                return None
            continue
        pivots[min(vec)] = (vec, c.sign * sign)
        kept.append(c)
    return kept
