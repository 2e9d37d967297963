"""Legendre-symbol constraint solving.

Boolean combinations of conditions (n/p) = +-1 are converted into congruence
classes of the prime p with exact Dirichlet densities.  Includes the small
text DSL for constraint expressions, e.g. ``(-2)=-1 & ((2)=+1 | !(3)=-1)``.

Every kernel n is an F_2 vector over one basis of characters of p: (-1/p),
(2/p) and (q*/p) = (p/q) for odd primes q, where q* = (-1)^((q-1)/2) q.
``simplify`` does linear algebra on these vectors; ``to_classes`` evaluates
an expression once, as a truth table over the sign patterns of the basis.
A class set is the patterns it holds on, over the characters it depends
on; density and the cover by congruence classes are read off the patterns,
and residues are expanded only for output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from math import lcm
from operator import and_, or_

from . import FermatsymError
from .ntkernel import factor_small, jacobi
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
    """A node of a constraint expression: Atom, Not, And or Or."""


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
                    return Atom(QRConstraint(n, sign))
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
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            return None
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past Python's limit on the digits of an int
            count, self.pos = self.pos - digits, start
            self.error(f"integer of {count} digits is too long")

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

# Largest canonical modulus that to_classes and canonicalize return, and
# largest number 2^r of sign patterns of r basis characters that to_classes
# enumerates; beyond it, ClassBoundError.
CLASS_BOUND = 10**6


class ClassBoundError(FermatsymError):
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


def _modulus(base: int) -> int:
    return 4 if base == -1 else 8 if base == 2 else base


@dataclass(frozen=True)
class CongruenceClassSet:
    """The primes p at which the basis characters take one of the patterns.

    Bit i of a pattern is set where characters[i] is -1.  Each pattern holds
    on a share 2^-len(characters) of the primes, and on residues mod the lcm
    of the characters' moduli: 4 for (-1/p), 8 for (2/p) and q for (p/q).
    """

    characters: tuple[int, ...]
    patterns: frozenset[int]

    @property
    def modulus(self) -> int:
        return lcm(*map(_modulus, self.characters))

    @cached_property
    def residues(self) -> frozenset[int]:
        """Residues mod the modulus of the primes in the set (0 mod 1 for all p)."""
        return _residues(self.characters, self.patterns, self.modulus)

    def __str__(self) -> str:
        parts = decompose(self)
        if not parts:
            return "no classes (empty set)"
        if parts == [(1, 1)]:
            return "all p"
        return " or ".join(f"p ≡ {r} (mod {m})" for r, m in parts)


def _residues(characters, patterns, d: int) -> frozenset[int]:
    """Residues mod d of the primes where the characters whose moduli divide
    d take one of the patterns (which set no other bit).  Per prime-power
    part m of d: its residues by the pattern they give the part's characters,
    times the CRT idempotent for m, so that one from each part sums to one mod d.
    """
    shown = [(1 << i, b) for i, b in enumerate(characters) if d % _modulus(b) == 0]
    fibres = []
    for m in ([d & -d] if d % 2 == 0 else []) + [b for _, b in shown if b > 2]:
        bits = [(bit, b) for bit, b in shown if (b == m if m % 2 else b < 3)]
        idempotent = d // m * pow(d // m, -1, m)
        fibre: dict[int, list[int]] = {}
        for r in range(1, m, 2 - m % 2):  # the residues prime to m
            x = sum(bit for bit, b in bits if character(b, r) < 0)
            fibre.setdefault(x, []).append(r * idempotent % d)
        fibres.append((sum(bit for bit, _ in bits), fibre))
    residues: set[int] = set()
    for x in patterns:
        combined = [0]
        for mask, fibre in fibres:
            combined = [(s + t) % d for s in combined for t in fibre[x & mask]]
        residues.update(combined)
    return frozenset(residues)


def _columns(r: int) -> list[int]:
    """Per character i < r, the truth table of its being -1: bit x is set iff bit i of x is."""
    columns = [((1 << (1 << r - 1)) - 1) << (1 << r - 1)] if r else []
    for i in reversed(range(r - 1)):
        # bit x of the shift is bit i + 1 of x + 2^i: bit i + 1 of x xor bit i of x
        columns.insert(0, columns[0] ^ columns[0] >> (1 << i))
    return columns


def _restrict(characters, truth: int, columns: list[int]) -> CongruenceClassSet:
    """The class set with truth table ``truth`` over the characters' patterns,
    on only the characters it depends on: those whose flip changes an entry."""
    used = [i for i, column in enumerate(columns)
            if truth & ~column != (truth & column) >> (1 << i)]
    modulus = lcm(*(_modulus(characters[i]) for i in used))
    if modulus > CLASS_BOUND:
        raise ClassBoundError(f"modulus {modulus} exceeds the bound {CLASS_BOUND}")
    spread = [0]  # spread[y]: the pattern that sets the used characters as y does, the others +1
    for i in used:
        spread += [x | 1 << i for x in spread]
    holds = format(truth, f"0{1 << len(characters)}b")[::-1]
    patterns = frozenset(y for y, x in enumerate(spread) if holds[x] == "1")
    return CongruenceClassSet(tuple(characters[i] for i in used), patterns)


def to_classes(expr: SignExpr) -> CongruenceClassSet:
    """The class set on which the expression holds, on the fewest characters.

    Bit x of the truth table is the expression's value where the basis
    characters in x are -1 and the others +1.
    """
    basis = sorted(set().union(*(_support(c.n) for c in atoms_of(expr))))
    size = 1 << len(basis)
    if size > CLASS_BOUND:
        raise ClassBoundError(f"2^{len(basis)} sign patterns exceed the bound {CLASS_BOUND}")
    full = (1 << size) - 1
    columns = _columns(len(basis))
    column = dict(zip(basis, columns))

    def table(e: SignExpr) -> int:
        if isinstance(e, Atom):
            odd = reduce(lambda t, b: t ^ column[b], _support(e.constraint.n), 0)
            return odd if e.constraint.sign < 0 else full ^ odd
        if isinstance(e, Not):
            return full ^ table(e.operand)
        tables = (table(sub) for sub in e.operands)
        return reduce(and_, tables, full) if isinstance(e, And) else reduce(or_, tables, 0)

    return _restrict(basis, table(expr), columns)


def density(classes: CongruenceClassSet) -> Fraction:
    """Dirichlet density of the primes in the class set."""
    return Fraction(len(classes.patterns), 1 << len(classes.characters))


def canonicalize(classes: CongruenceClassSet) -> CongruenceClassSet:
    """The same primes on only the characters they depend on, at the least modulus."""
    holds = "".join("01"[x in classes.patterns] for x in reversed(range(1 << len(classes.characters))))
    return _restrict(classes.characters, int(holds, 2), _columns(len(classes.characters)))


def decompose(classes: CongruenceClassSet) -> list[tuple[int, int]]:
    """Greedy cover by single classes of the smallest possible moduli.

    Returns (residue, modulus) pairs; e.g. {5,13,23} mod 24 comes out as
    [(5, 8), (23, 24)], and every pattern, whatever the characters, as
    [(1, 1)].  A class mod d fixes the characters whose moduli divide d and
    leaves the others free, and a class set is a union of patterns.  So for
    each d that is the lcm of some characters' moduli, in increasing order,
    a class mod d is taken iff every pattern extending it is still uncovered.
    """
    moduli = [_modulus(b) for b in classes.characters]
    if len(classes.patterns) == 1 << len(moduli):
        return [(1, 1)]
    least = {1}
    for m in moduli:
        least |= {lcm(d, m) for d in least}
    remaining, out = set(classes.patterns), []
    for d in sorted(least):
        fixed = sum(1 << i for i, m in enumerate(moduli) if d % m == 0)
        extensions = 1 << (len(moduli) - fixed.bit_count())
        whole = {v for v, n in Counter(x & fixed for x in remaining).items() if n == extensions}
        if whole:
            out.extend((r, d) for r in _residues(classes.characters, whole, d))
            remaining = {x for x in remaining if x & fixed not in whole}
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
