import random
import time
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatsym.ntkernel import factor_small, jacobi, primes_in
from fermatsym.qrsolver import (
    CLASS_BOUND,
    FALSE,
    TRUE,
    And,
    Atom,
    ClassBoundError,
    CongruenceClassSet,
    Not,
    Or,
    ParseError,
    _support,
    all_of,
    atoms_of,
    canonicalize,
    character,
    decompose,
    density,
    parse,
    pretty,
    simplify,
    to_classes,
)
from fermatsym.symplectic import QRConstraint


def atom(n: int, sign: int) -> Atom:
    return Atom(QRConstraint(n, sign))


# ---------------------------------------------------------------------------
# reference: classes as (modulus, residues) pairs, by enumerating every
# residue mod M = 8 * (odd primes), reading each Legendre symbol off the
# residue by reciprocity, then scanning every divisor of M.  Slow, and
# independent of the character truth tables and sign patterns.
# ---------------------------------------------------------------------------


def ref_symbol(n, r):
    """(n/p) for squarefree n on the class of p = r mod 8 * (odd primes of n)."""
    value = 1 if n > 0 or r % 4 == 1 else -1
    for q in factor_small(abs(n)).factors:
        if q == 2:
            value *= 1 if r % 8 in (1, 7) else -1
        else:
            value *= jacobi(r % q, q) * (-1 if q % 4 == 3 and r % 4 == 3 else 1)
    return value


def ref_evaluate(expr, r):
    if isinstance(expr, Atom):
        return ref_symbol(expr.constraint.n, r) == expr.constraint.sign
    if isinstance(expr, Not):
        return not ref_evaluate(expr.operand, r)
    results = (ref_evaluate(sub, r) for sub in expr.operands)
    return all(results) if isinstance(expr, And) else any(results)


def ref_raw_classes(expr):
    """The satisfied residues mod 8 * (every odd prime in the kernels)."""
    odd = {q for c in atoms_of(expr) for q in factor_small(abs(c.n)).factors if q != 2}
    m = 8 * prod(odd)
    return m, frozenset(r for r in range(1, m) if gcd(r, m) == 1 and ref_evaluate(expr, r))


def ref_coprime(m):
    return [r for r in range(m) if gcd(r, m) == 1] or [0]


def ref_fibres(m, d):
    fibres = {}
    for r in ref_coprime(m):
        fibres.setdefault(r % d, set()).add(r)
    return fibres


def ref_canonicalize(classes):
    m, residues = classes
    for d in (d for d in range(1, m + 1) if m % d == 0):
        fibres = ref_fibres(m, d)
        if all(f <= residues or not f & residues for f in fibres.values()):
            return d, frozenset(rd for rd, f in fibres.items() if f <= residues)


def ref_decompose(classes):
    m, residues = classes
    if residues == set(ref_coprime(m)):
        return [(1, 1)]
    remaining, out = set(residues), []
    for d in (d for d in range(1, m + 1) if m % d == 0):
        for rd, fibre in sorted(ref_fibres(m, d).items()):
            if fibre <= remaining:
                out.append((rd, d))
                remaining -= fibre
    return sorted(out, key=lambda rm: (rm[1], rm[0]))


def ref_str(classes):
    parts = ref_decompose(classes)
    if not parts:
        return "no classes (empty set)"
    return "all p" if parts == [(1, 1)] else " or ".join(f"p ≡ {r} (mod {m})" for r, m in parts)


def in_classes(p, classes):
    return p % classes.modulus in classes.residues


def as_pair(classes):
    return classes.modulus, classes.residues


def pattern(characters, r):
    """The sign pattern of the characters at primes p = r: bit i set where characters[i] is -1."""
    return sum(1 << i for i, b in enumerate(characters) if character(b, r) < 0)


def cells(m, residues):
    """The class set of the residues mod m, which must be a union of sign-pattern cells
    of the basis characters whose moduli make up m."""
    twos = {1: (), 2: (), 4: (-1,), 8: (-1, 2)}[m & -m]
    characters = twos + tuple(q for q in factor_small(m).factors if q > 2)
    patterns = frozenset(pattern(characters, r) for r in residues)
    assert {r for r in ref_coprime(m) if pattern(characters, r) in patterns} == set(residues)
    return CongruenceClassSet(characters, patterns)


class TestSymbolSign:
    # (n/p) is the product of the basis characters in _support(n)
    def test_two_mod_8(self):
        # Euler criterion at p = 5, 13, 29: 2 is a non-residue
        assert character(2, 5) == -1
        for p in (5, 13, 29):
            assert jacobi(2, p) == -1

    def test_minus_one_mod_4(self):
        assert character(-1, 1) == 1
        assert character(-1, 3) == -1

    def test_three_at_19_mod_24(self):
        assert _support(3) == {-1, 3}  # (3/p) = (-1/p) (-3/p)
        assert character(-1, 19) * character(3, 19) == -1
        assert jacobi(3, 19) == -1  # brute-force-backed oracle value

    def test_matches_jacobi_for_all_primes_below_1000(self):
        # exhaustive oracle check for n in {-1, +-2, +-3, +-6, +-5, +-7, 15, 21}
        for p in primes_in(11, 1000):
            for n in (-1, 2, -2, 3, -3, 6, -6, 5, -5, 7, -7, 15, 21):
                predicted = 1
                for base in _support(n):
                    predicted *= character(base, p)
                assert predicted == jacobi(n, p), (n, p)


class TestParse:
    def test_conjunction(self):
        expr = parse("(-2)=-1 & (2)=-1")
        assert expr == And((atom(-2, -1), atom(2, -1)))

    def test_squarefree_reduction(self):
        assert parse("((8)=+1)") == atom(2, 1)
        assert parse("(8)=+1") == atom(2, 1)

    def test_sign_folded_into_kernel(self):
        assert parse("(-8)=+1") == Atom(QRConstraint(-2, 1))

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse("(2)=")
        assert exc.value.column == 5

    def test_error_on_zero_kernel(self):
        with pytest.raises(ParseError):
            parse("(0)=+1")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("(2)=+1 extra")

    def test_precedence_and_grouping(self):
        expr = parse("(2)=+1 | (3)=+1 & (5)=+1")
        assert isinstance(expr, Or)
        grouped = parse("((2)=+1 | (3)=+1) & (5)=+1")
        assert isinstance(grouped, And)

    def test_negation(self):
        assert parse("!(2)=+1") == Not(atom(2, 1))

    def test_whitespace_insensitive(self):
        assert parse(" ( -2 ) = -1 &(2)=-1 ") == parse("(-2)=-1&(2)=-1")


def random_expr(rng, depth=3):
    kernels = [-6, -3, -2, -1, 2, 3, 5, 6, 10]
    if depth == 0 or rng.random() < 0.35:
        return atom(rng.choice(kernels), rng.choice([1, -1]))
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(random_expr(rng, depth - 1))
    parts = tuple(random_expr(rng, depth - 1) for _ in range(rng.randint(2, 3)))
    return And(parts) if kind == "and" else Or(parts)


class TestPretty:
    def test_round_trip_on_randomized_expressions(self):
        rng = random.Random(20240501)
        for _ in range(100):
            expr = random_expr(rng)
            assert to_classes(parse(pretty(expr))) == to_classes(expr)

    def test_examples(self):
        assert pretty(parse("(-2)=-1 & (2)=-1")) == "(-2)=-1 & (2)=-1"
        assert pretty(parse("!((2)=+1 | (3)=-1)")) == "!((2)=+1 | (3)=-1)"


class TestToClasses:
    def test_five_mod_eight(self):
        classes = to_classes(parse("(-2)=-1 & (2)=-1"))
        assert as_pair(classes) == (8, frozenset({5}))

    def test_twenty_three_mod_twenty_four(self):
        classes = to_classes(parse("(-2)=-1 & (2)=+1 & (3)=+1"))
        assert as_pair(classes) == (24, frozenset({23}))

    def test_constant_true_covers_everything(self):
        classes = to_classes(TRUE)
        assert density(classes) == 1
        assert as_pair(classes) == (1, frozenset({0}))
        assert str(classes) == "all p"
        assert all(in_classes(p, classes) for p in primes_in(3, 200))

    def test_constant_false_empty(self):
        classes = to_classes(FALSE)
        assert density(classes) == 0
        assert classes.residues == frozenset()

    def test_union_is_lifted_union(self):
        e1 = parse("(2)=-1 & (-1)=+1")
        e2 = parse("(3)=-1")
        c1, c2, both = to_classes(e1), to_classes(e2), to_classes(Or((e1, e2)))
        assert (c1.modulus, c2.modulus, both.modulus) == (8, 12, 24)
        for p in primes_in(5, 1000):
            assert in_classes(p, both) == (in_classes(p, c1) or in_classes(p, c2)), p

    def test_past_the_bound(self):
        with pytest.raises(ClassBoundError):  # modulus 4 * 10007 * 10009
            to_classes(parse("(10007)=1 & (10009)=1"))
        many = prod(primes_in(3, 100))  # 24 odd primes: 2^24 sign patterns
        assert 1 << len(_support(many)) > CLASS_BOUND
        with pytest.raises(ClassBoundError):
            to_classes(atom(many, 1))
        assert str(to_classes(parse("(1000003)=1 | (1000003)=-1"))) == "all p"

    def test_large_basis_read_on_the_characters_used(self):
        # 2^19 sign patterns of -1, 3 and 17 primes from 5, of which the set
        # depends on two: it is stored and expanded on those two alone
        big = prod(primes_in(5, 68))
        assert len(_support(3 * big) | _support(big)) == 19
        expr = parse(f"(3)=1 & (({big})=1 | ({big})=-1)")
        started = time.perf_counter()
        classes = to_classes(expr)
        assert time.perf_counter() - started < 0.2  # no pass over the 2^19 patterns
        assert classes == CongruenceClassSet((-1, 3), frozenset({0b00, 0b11}))
        assert as_pair(classes) == (12, frozenset({1, 11}))

    def test_fields_are_the_characters_and_patterns(self):
        assert [f.name for f in fields(CongruenceClassSet)] == ["characters", "patterns"]
        classes = CongruenceClassSet((-1, 2), frozenset({0b10}))
        assert (classes.modulus, classes.residues, str(classes)) == (8, frozenset({5}), "p ≡ 5 (mod 8)")

    def test_density_subadditive_with_equality_when_disjoint(self):
        e1 = parse("(2)=+1")
        e2 = parse("(2)=-1 & (3)=+1")
        d_union = density(to_classes(Or((e1, e2))))
        assert d_union == density(to_classes(e1)) + density(to_classes(e2))
        overlapping = parse("(2)=+1 | (-1)=+1")
        assert density(to_classes(overlapping)) <= Fraction(1, 2) + Fraction(1, 2)


class TestDensity:
    def test_one_quarter(self):
        assert density(cells(8, {5})) == Fraction(1, 4)

    def test_three_eighths_set(self):
        assert density(cells(24, {5, 13, 23})) == Fraction(3, 8)

    def test_empty(self):
        assert density(cells(24, set())) == 0

    def test_single_odd_prime_atom_has_density_one_half(self):
        for q in (3, 5, 7, 11):
            assert density(to_classes(atom(q, 1))) == Fraction(1, 2)


class TestCanonicalize:
    def test_spec_example(self):
        canonical = canonicalize(cells(24, {5, 13}))
        assert as_pair(canonical) == (8, frozenset({5}))

    def test_not_collapsible(self):
        classes = cells(24, {5, 13, 23})
        assert canonicalize(classes) == classes

    def test_decompose_minimal_moduli(self):
        assert decompose(cells(24, {5, 13, 23})) == [(5, 8), (23, 24)]
        assert decompose(cells(24, {5, 13, 19})) == [(5, 8), (19, 24)]

    def test_decompose_on_unused_characters(self):
        # every pattern is all p, whatever the characters
        for characters in [(), (-1,), (-1, 2, 3)]:
            classes = CongruenceClassSet(characters, frozenset(range(1 << len(characters))))
            assert decompose(classes) == [(1, 1)]
            assert str(classes) == "all p"
        # (-1/p) = -1 whatever (2/p) is
        classes = CongruenceClassSet((-1, 2), frozenset({1, 3}))
        assert decompose(classes) == [(3, 4)]
        assert str(classes) == "p ≡ 3 (mod 4)"

    def test_str_format(self):
        classes = cells(24, {5, 13, 23})
        assert str(classes) == "p ≡ 5 (mod 8) or p ≡ 23 (mod 24)"


class TestSimplify:
    def test_drops_multiplicatively_implied(self):
        out = simplify([QRConstraint(-6, 1), QRConstraint(-1, 1), QRConstraint(6, 1)])
        assert out == [QRConstraint(-1, 1), QRConstraint(6, 1)]

    def test_direct_contradiction(self):
        assert simplify([QRConstraint(2, 1), QRConstraint(2, -1)]) is None

    def test_empty(self):
        assert simplify([]) == []

    def test_product_contradiction(self):
        out = simplify([QRConstraint(2, 1), QRConstraint(3, 1), QRConstraint(6, -1)])
        assert out is None

    def test_kernel_one_constraints(self):
        assert simplify([QRConstraint(1, 1)]) == []
        assert simplify([QRConstraint(1, -1)]) is None

    def test_consistent_set_kept_in_canonical_order(self):
        out = simplify([QRConstraint(15, 1), QRConstraint(3, -1)])
        assert out == [QRConstraint(3, -1), QRConstraint(15, 1)]


@st.composite
def sign_exprs(draw, max_depth=3):
    if max_depth == 0:
        n = draw(st.sampled_from([-6, -3, -2, -1, 2, 3, 5, 6]))
        return atom(n, draw(st.sampled_from([1, -1])))
    kind = draw(st.sampled_from(["atom", "atom", "not", "and", "or"]))
    if kind == "atom":
        n = draw(st.sampled_from([-6, -3, -2, -1, 2, 3, 5, 6]))
        return atom(n, draw(st.sampled_from([1, -1])))
    if kind == "not":
        return Not(draw(sign_exprs(max_depth=max_depth - 1)))
    parts = draw(st.lists(sign_exprs(max_depth=max_depth - 1), min_size=2, max_size=3))
    return And(tuple(parts)) if kind == "and" else Or(tuple(parts))


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(sign_exprs())
    def test_parse_pretty_round_trip(self, expr):
        assert to_classes(parse(pretty(expr))) == to_classes(expr)

    @settings(max_examples=60, deadline=None)
    @given(sign_exprs())
    def test_negation_complements_density(self, expr):
        assert density(to_classes(expr)) + density(to_classes(Not(expr))) == 1

    @settings(max_examples=40, deadline=None)
    @given(sign_exprs(), sign_exprs())
    def test_de_morgan(self, e1, e2):
        lhs = to_classes(Not(And((e1, e2))))
        rhs = to_classes(Or((Not(e1), Not(e2))))
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(sign_exprs())
    def test_evaluation_matches_actual_primes(self, expr):
        # the class evaluation must agree with honest Jacobi symbols at
        # genuine primes in each class
        classes = to_classes(expr)
        for p in primes_in(7, 1000):
            assert _eval_at_prime(expr, p) == in_classes(p, classes), (p, pretty(expr))


# the squarefree kernels over -1, 2, 3, 5, 7
SMALL_KERNELS = [s * prod(sub) for s in (1, -1) for k in range(5) for sub in combinations((2, 3, 5, 7), k)]


@st.composite
def kernel_exprs(draw, max_depth=3):
    """Expressions whose kernels are products over -1, 2 and at most three
    of 3, 5, 7, 11 (so M <= 8 * 5 * 7 * 11), times a square."""
    places = [-1, 2] + draw(st.lists(st.sampled_from([3, 5, 7, 11]), max_size=3, unique=True))

    def expr(depth):
        kind = draw(st.sampled_from(["atom", "atom", "not", "and", "or"])) if depth else "atom"
        if kind == "atom":
            kernel = prod(draw(st.lists(st.sampled_from(places), unique=True)))
            return atom(kernel * draw(st.sampled_from([1, 4, 9])), draw(st.sampled_from([1, -1])))
        if kind == "not":
            return Not(expr(depth - 1))
        parts = tuple(expr(depth - 1) for _ in range(draw(st.integers(2, 3))))
        return And(parts) if kind == "and" else Or(parts)

    return expr(max_depth)


@st.composite
def pattern_sets(draw):
    """Any pattern set over up to four basis characters, which it need not
    depend on all of: it is closed under flipping the characters in `free`."""
    characters = tuple(sorted(draw(st.sets(st.sampled_from([-1, 2, 3, 5, 7, 11, 13]), max_size=4))))
    every = range(1 << len(characters))
    free = draw(st.sampled_from(every))
    drawn = draw(st.sets(st.sampled_from(every)))
    patterns = frozenset(x & ~free | y for x in drawn for y in every if y & ~free == 0)
    return CongruenceClassSet(characters, patterns)


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(kernel_exprs())
    def test_to_classes_str_and_density(self, expr):
        raw = ref_raw_classes(expr)
        want = ref_canonicalize(raw)
        got = to_classes(expr)
        assert as_pair(got) == want, pretty(expr)
        assert str(got) == ref_str(want)
        assert density(got) == Fraction(len(raw[1]), len(ref_coprime(raw[0])))
        assert canonicalize(cells(*raw)) == got

    @settings(max_examples=150, deadline=None)
    @given(pattern_sets())
    def test_residues_decompose_canonicalize_and_density_on_pattern_sets(self, classes):
        m, characters = classes.modulus, classes.characters
        assert classes.residues == {r for r in ref_coprime(m) if pattern(characters, r) in classes.patterns}
        assert decompose(classes) == ref_decompose(as_pair(classes))
        assert as_pair(canonicalize(classes)) == ref_canonicalize(as_pair(classes))
        assert density(classes) == Fraction(len(classes.residues), len(ref_coprime(m)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(SMALL_KERNELS), st.sampled_from([1, -1])), max_size=5))
    def test_simplify_keeps_what_the_classes_do_not_imply(self, pairs):
        # smallest kernel first, a constraint is kept iff the kept ones do not
        # decide it, and the set is contradictory iff they decide it wrongly
        def classes(cs):
            return ref_canonicalize(ref_raw_classes(all_of(Atom(c) for c in cs)))

        constraints = [QRConstraint(n, s) for n, s in pairs]
        expected, current = [], classes([])
        for c in sorted(constraints, key=lambda c: (abs(c.n), c.n < 0, -c.sign)):
            narrowed = classes(expected + [c])
            if not narrowed[1]:
                expected = None
                break
            if narrowed != current:
                expected.append(c)
                current = narrowed
        assert simplify(constraints) == expected


def _eval_at_prime(expr, p):
    if isinstance(expr, Atom):
        return jacobi(expr.constraint.n, p) == expr.constraint.sign
    if isinstance(expr, Not):
        return not _eval_at_prime(expr.operand, p)
    if isinstance(expr, And):
        return all(_eval_at_prime(e, p) for e in expr.operands)
    return any(_eval_at_prime(e, p) for e in expr.operands)
