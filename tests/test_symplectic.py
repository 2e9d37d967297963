import random
from math import gcd

import pytest

from fermatsym.ecmodel import ReductionKind, WeierstrassModel, minimal_model, reduction_type
from fermatsym.ntkernel import factor_small, jacobi, primes_in, squarefree_part
from fermatsym.symplectic import (
    CriterionError,
    QRConstraint,
    SymplecticType,
    criterion_at_two,
    criterion_multiplicative,
    pairwise_consistency,
)


class TestQRConstraint:
    def test_validation(self):
        with pytest.raises(ValueError):
            QRConstraint(0, 1)
        with pytest.raises(ValueError):
            QRConstraint(2, 0)

    def test_kernel_is_stored_squarefree(self):
        # (12/p) = (3/p) for p > 3: the constraint keeps the squarefree part
        assert QRConstraint(12, 1) == QRConstraint(3, 1)
        assert QRConstraint(12, 1).n == 3
        assert QRConstraint(-8, -1) == QRConstraint(-2, -1)
        assert QRConstraint(49, 1).n == 1
        assert str(QRConstraint(-75, 1)) == "(-3)=+1"

    def test_negated(self):
        assert QRConstraint(-6, 1).negated() == QRConstraint(-6, -1)

    def test_str(self):
        assert str(QRConstraint(2, 1)) == "(2)=+1"
        assert str(QRConstraint(-3, -1)) == "(-3)=-1"


class TestCriterionAtTwo:
    def test_frey_168a1_case(self):
        # v2 = 10 vs 4: congruent mod 3, so symplectic under (2/p) = -1
        assert criterion_at_two(10, 4, -1) is SymplecticType.SYMPLECTIC

    def test_frey_120a1_case(self):
        # v2 = 8 vs 4: 2 vs 1 mod 3, anti-symplectic under (2/p) = -1
        assert criterion_at_two(8, 4, -1) is SymplecticType.ANTI_SYMPLECTIC

    def test_plus_branch_always_symplectic(self):
        assert criterion_at_two(8, 4, 1) is SymplecticType.SYMPLECTIC

    def test_rejects_bad_legendre_value(self):
        with pytest.raises(CriterionError):
            criterion_at_two(10, 4, 0)

    def test_never_unknown_and_flip_changes_only_when_mod3_differs(self):
        for v1 in range(0, 15):
            for v2 in range(0, 15):
                plus = criterion_at_two(v1, v2, 1)
                minus = criterion_at_two(v1, v2, -1)
                assert SymplecticType.UNKNOWN not in (plus, minus)
                if (v1 - v2) % 3 == 0:
                    assert plus is minus is SymplecticType.SYMPLECTIC
                else:
                    assert plus is not minus


class TestCriterionMultiplicative:
    def test_ratio_2_symplectic(self):
        assert criterion_multiplicative(2, 1, SymplecticType.SYMPLECTIC) == QRConstraint(2, 1)

    def test_squarefree_kernel_of_ratio(self):
        # 2 * 4 = 8 has squarefree part 2
        assert criterion_multiplicative(2, 4, SymplecticType.SYMPLECTIC) == QRConstraint(2, 1)

    def test_square_ratio_anti_symplectic_contradicts(self):
        # (1)=-1 holds for no p
        assert criterion_multiplicative(2, 2, SymplecticType.ANTI_SYMPLECTIC) == QRConstraint(1, -1)

    def test_negative_residue(self):
        assert criterion_multiplicative(-2, 3, SymplecticType.SYMPLECTIC) == QRConstraint(-6, 1)

    def test_square_ratio_symplectic_always_consistent(self):
        # (1)=+1 holds for every p
        for v in range(1, 11):
            assert criterion_multiplicative(v, v, SymplecticType.SYMPLECTIC) == QRConstraint(1, 1)

    def test_unknown_type_has_no_verdict(self):
        with pytest.raises(CriterionError, match="pairwise_consistency"):
            criterion_multiplicative(2, 1, SymplecticType.UNKNOWN)

    def test_rejects_zero_residue(self):
        with pytest.raises(CriterionError):
            criterion_multiplicative(0, 1, SymplecticType.SYMPLECTIC)
        with pytest.raises(CriterionError):
            criterion_multiplicative(2, 0, SymplecticType.ANTI_SYMPLECTIC)


class TestPairwiseConsistency:
    def test_three_prime_profile(self):
        constraints = pairwise_consistency(
            [(2, -4), (3, 2), (5, 2)], [(2, 4), (3, 3), (5, 1)]
        )
        # pairs (2,3), (2,5), (3,5)
        assert constraints == [QRConstraint(-6, 1), QRConstraint(-2, 1), QRConstraint(3, 1)]

    def test_identical_profiles_vacuous(self):
        constraints = pairwise_consistency([(2, -2), (3, 5)], [(2, -2), (3, 5)])
        assert all(c == QRConstraint(1, 1) for c in constraints)

    def test_square_product(self):
        assert pairwise_consistency([(3, 2), (7, 2)], [(3, 1), (7, 1)]) == [QRConstraint(1, 1)]

    def test_symmetric_under_swapping_curves(self):
        a = [(2, -4), (3, 2), (5, 2)]
        b = [(2, 4), (3, 3), (5, 1)]
        assert pairwise_consistency(a, b) == pairwise_consistency(b, a)

    def test_symmetric_under_prime_permutation(self):
        a = [(2, -4), (3, 2), (5, 2)]
        b = [(2, 4), (3, 3), (5, 1)]
        assert pairwise_consistency(list(reversed(a)), list(reversed(b))) == pairwise_consistency(
            a, b
        )

    def test_needs_two_shared_primes(self):
        with pytest.raises(CriterionError):
            pairwise_consistency([(2, 1)], [(2, 1)])
        with pytest.raises(CriterionError):
            pairwise_consistency([(2, 1), (3, 1)], [(5, 1), (7, 1)])

    def test_rejects_zero_residue(self):
        with pytest.raises(CriterionError):
            pairwise_consistency([(2, 0), (3, 1)], [(2, 1), (3, 1)])

    def test_rejects_duplicate_primes(self):
        with pytest.raises(CriterionError):
            pairwise_consistency([(2, 1), (2, 3), (3, 1)], [(2, 1), (3, 1)])

    def test_pairwise_detects_forced_type_conflicts_exhaustively(self):
        # At p = 13, whenever the per-prime criteria at two primes force
        # opposite symplectic types, the pairwise constraint must fail.
        p = 13
        for v1 in range(1, 11):
            for w1 in range(1, 11):
                for v2 in range(1, 11):
                    for w2 in range(1, 11):
                        ratio1_square = jacobi(v1 * w1, p)
                        ratio2_square = jacobi(v2 * w2, p)
                        kernel = squarefree_part(v1 * v2 * w1 * w2)
                        (constraint,) = pairwise_consistency([(3, v1), (5, v2)], [(3, w1), (5, w2)])
                        assert constraint == QRConstraint(kernel, 1)
                        assert jacobi(kernel, p) == ratio1_square * ratio2_square


class TestIsogenyOracle:
    """A 2-isogeny E -> E' maps E[p] onto E'[p] for odd p and multiplies the
    Weil pairing by 2, so the isomorphism is symplectic exactly when
    (2/p) = 1: a type known without the criteria."""

    def test_two_isogenous_frey_curves(self):
        rng = random.Random(2016)
        types = {1: SymplecticType.SYMPLECTIC, -1: SymplecticType.ANTI_SYMPLECTIC}
        criterion_checks = flipped_failures = pairwise_checks = curves = 0
        while curves < 80:
            a, b = rng.randint(-2999, 2999), rng.randint(-2999, 2999)
            if a * b * (a + b) == 0 or gcd(a, b) != 1:
                continue
            curves += 1
            # E: Y^2 = X(X - A)(X + B), and E' = E/<(0,0)> by Velu's formula
            e, vals = minimal_model(WeierstrassModel(0, b - a, 0, -a * b, 0))
            e2, vals2 = minimal_model(WeierstrassModel(0, -2 * (b - a), 0, (a + b) ** 2, 0))
            shared = [
                ell
                for ell in factor_small(a * b * (a + b)).factors
                if ell > 2
                and reduction_type(e, ell).kind is ReductionKind.MULTIPLICATIVE
                and reduction_type(e2, ell).kind is ReductionKind.MULTIPLICATIVE
            ]
            for p in primes_in(5, 200):
                at_p = [ell for ell in shared if vals[ell] * vals2[ell] % p]
                sym, flipped = types[jacobi(2, p)], types[-jacobi(2, p)]
                for ell in at_p:
                    held = criterion_multiplicative(vals[ell], vals2[ell], sym)
                    assert jacobi(held.n, p) == held.sign, (a, b, ell, p)
                    failed = criterion_multiplicative(vals[ell], vals2[ell], flipped)
                    flipped_failures += jacobi(failed.n, p) != failed.sign
                    criterion_checks += 1
                if len(at_p) >= 2:
                    profile = [(ell, vals[ell]) for ell in at_p]
                    candidate = [(ell, vals2[ell]) for ell in at_p]
                    for c in pairwise_consistency(profile, candidate):
                        assert jacobi(c.n, p) == c.sign, (a, b, c, p)
                        pairwise_checks += 1
        assert flipped_failures == criterion_checks > 15000
        assert pairwise_checks > 30000
