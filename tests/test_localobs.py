import time

import pytest

from fermatsym.localobs import (
    PreconditionError,
    Witness,
    bad_primes,
    check_witness,
    default_depth_cap,
    has_local_obstruction,
    solvable_mod_q_fast,
    solvable_over_Ql,
    sweep,
    weil_cutoff,
)
from fermatsym.ntkernel import FactorizationError, is_prime, primes_in


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
        res = solvable_over_Ql(1, 1, 1, 3, 3, max_level=1)
        assert res.status == "undecided"
        full = solvable_over_Ql(1, 1, 1, 3, 3)
        assert full.status == "solvable"

    def test_default_cap_depends_on_bad_valuation(self):
        assert default_depth_cap(3, 8, 21, 3, 3) == 2 * (3 + 1) + 1
        assert default_depth_cap(3, 4, 5, 5, 11) == 3

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

    def test_padic_search_agrees_with_subgroup_test_at_good_primes(self):
        # two independent deciders for Q_q-solvability must agree
        for a, b, c in ((3, 8, 21), (3, 4, 5)):
            for p in (3, 5):
                for q in primes_in(3, 60):
                    if q % p != 1 or (p * a * b * c) % q == 0:
                        continue
                    fast = solvable_mod_q_fast(a, b, c, p, q)
                    deep = solvable_over_Ql(a, b, c, p, q)
                    assert deep.status == ("solvable" if fast else "unsolvable"), (a, b, c, p, q)


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
        with pytest.raises(PreconditionError):
            has_local_obstruction(3, 4, 5, 9)

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


class TestSweep:
    def test_desk_scale_eq2(self):
        entries = sweep(3, 4, 5, 11, 100)
        assert entries
        assert all(e.obstruction is not None for e in entries)
        assert [e.p for e in entries] == primes_in(11, 100)

    def test_desk_scale_eq1_two_p_plus_one(self):
        entries = sweep(3, 8, 21, 11, 100)
        assert all(e.obstruction is not None for e in entries)
        for e in entries:
            if is_prime(2 * e.p + 1):
                assert e.obstruction == 2 * e.p + 1
            else:
                assert e.obstruction > 2 * e.p + 1

    def test_empty_range(self):
        assert sweep(3, 4, 5, 40, 40) == []

    def test_deterministic(self):
        a = [(e.p, e.obstruction, e.k) for e in sweep(3, 4, 5, 11, 60)]
        b = [(e.p, e.obstruction, e.k) for e in sweep(3, 4, 5, 11, 60)]
        assert a == b

    def test_parallel_matches_serial(self):
        serial = [(e.p, e.obstruction, e.k) for e in sweep(3, 8, 21, 11, 80)]
        parallel = [(e.p, e.obstruction, e.k) for e in sweep(3, 8, 21, 11, 80, jobs=2)]
        assert serial == parallel
