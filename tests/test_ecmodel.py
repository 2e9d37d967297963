import random
import time

import pytest

from fermatsym.curvedb import _EMBEDDED
from fermatsym.ecmodel import (
    DegenerateModelError,
    NonIntegralTransformError,
    ReductionKind,
    WeierstrassModel,
    _minimal_at,
    _reduce_unimodular,
    _reduction_step,
    invariants,
    minimal_model,
    reduction_type,
    transform,
)
from fermatsym.ntkernel import FactorizationError, factor_small, is_prime, valuation


def inverse_transform(model, u, r, s, t):
    """Undo ``transform`` with the same parameters (multiplies delta by u^12).

    Always integral for integral inputs, so this is how the tests build
    non-minimal models.
    """
    if u == 0:
        raise ValueError("inverse_transform requires u != 0")
    a1p, a2p, a3p, a4p, a6p = model.coefficients()
    a1 = u * a1p - 2 * s
    a2 = u * u * a2p + s * a1 - 3 * r + s * s
    a3 = u**3 * a3p - r * a1 - 2 * t
    a4 = u**4 * a4p + s * a3 - 2 * r * a2 + (t + r * s) * a1 - 3 * r * r + 2 * s * t
    a6 = u**6 * a6p - r * a4 - r * r * a2 - r**3 + t * a3 + t * t + r * t * a1
    return WeierstrassModel(a1, a2, a3, a4, a6)


def reference_reduction_step(model, u):
    # the exhaustive search over s mod u, r mod u^2, t mod u^3, the
    # reference for _reduction_step's congruence solutions at every prime
    a1, a2, a3 = model.a1, model.a2, model.a3
    for s in range(u):
        if (a1 + 2 * s) % u != 0:
            continue
        for r in range(u * u):
            if (a2 - s * a1 + 3 * r - s * s) % (u * u) != 0:
                continue
            for t in range(u**3):
                if (a3 + r * a1 + 2 * t) % u**3 != 0:
                    continue
                try:
                    return transform(model, u, r, s, t)
                except NonIntegralTransformError:
                    continue
    return None


def reference_minimal_model(model):
    # the whole-discriminant loop that minimal_model replaced, kept only as a
    # reference: reduce at the first prime ell that allows a step of scale
    # ell^k, then factor the new discriminant again, until no prime reduces
    current = model
    delta = invariants(model).delta
    while True:
        reduced = False
        for ell, e in factor_small(delta).factors.items():
            k = 1
            while 12 * k <= e and not reduced:
                smaller = _reduction_step(current, ell**k)
                if smaller is not None:
                    current = smaller
                    delta = invariants(current).delta
                    reduced = True
                k += 1
            if reduced:
                break
        if not reduced:
            break
    current = _reduce_unimodular(current)
    return current, dict(factor_small(invariants(current).delta).factors)


def random_models(count, seed=20240817, span=20):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = WeierstrassModel(*(rng.randint(-span, span) for _ in range(5)))
        try:
            invariants(m)
        except DegenerateModelError:
            continue
        out.append(m)
    return out


class TestInvariants:
    def test_direct_substitution_examples(self):
        # computed by direct substitution in the b/c/delta formulas
        assert invariants(WeierstrassModel(0, 0, 0, 0, 1)).delta == -432
        iv = invariants(WeierstrassModel(0, 0, 0, -1, 0))
        assert iv.delta == 64
        assert iv.c4 == 48

    def test_degenerate_model_rejected(self):
        with pytest.raises(DegenerateModelError):
            invariants(WeierstrassModel(0, 0, 0, 0, 0))

    def test_c4_c6_delta_identity_on_random_models(self):
        for m in random_models(1000):
            iv = invariants(m)
            assert iv.c4**3 - iv.c6**2 == 1728 * iv.delta

    def test_b8_identity_on_random_models(self):
        for m in random_models(200, seed=7):
            iv = invariants(m)
            assert 4 * iv.b8 == iv.b2 * iv.b6 - iv.b4**2

    def test_j_invariant_lowest_terms(self):
        from math import gcd

        for m in random_models(200, seed=11):
            iv = invariants(m)
            assert iv.j_num * iv.delta == iv.c4**3 * iv.j_den
            assert gcd(iv.j_num, iv.j_den) == 1
            assert iv.j_den > 0


class TestTransform:
    def test_identity(self):
        m = WeierstrassModel(1, -2, 3, -4, 5)
        assert transform(m, 1, 0, 0, 0) == m

    def test_inverse_transform_scales_delta_up(self):
        m = WeierstrassModel(0, 0, 0, -1, 0)
        big = inverse_transform(m, 2, 0, 0, 0)
        assert invariants(big).delta == 64 * 2**12
        assert transform(big, 2, 0, 0, 0) == m

    def test_round_trip_random(self):
        rng = random.Random(3)
        for m in random_models(100, seed=5):
            u = rng.choice([1, -1, 2, 3])
            r, s, t = (rng.randint(-4, 4) for _ in range(3))
            big = inverse_transform(m, u, r, s, t)
            assert transform(big, u, r, s, t) == m

    def test_composition_law_for_scaling(self):
        m = WeierstrassModel(0, 0, 0, -1, 0)
        twice = inverse_transform(inverse_transform(m, 2, 0, 0, 0), 2, 0, 0, 0)
        assert invariants(twice).delta == 64 * 2**24

    def test_non_integral_result_rejected(self):
        with pytest.raises(NonIntegralTransformError):
            transform(WeierstrassModel(0, 0, 0, -1, 0), 2, 0, 0, 0)

    def test_u_zero_rejected(self):
        m = WeierstrassModel(0, 0, 0, -1, 0)
        with pytest.raises(ValueError):
            transform(m, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            inverse_transform(m, 0, 0, 0, 0)


class TestMinimalModel:
    def test_already_minimal(self):
        mm, vals = minimal_model(WeierstrassModel(0, 0, 0, -1, 0))
        assert invariants(mm).delta == 64
        assert vals == {2: 6}

    def test_recovers_scaled_model(self):
        big = inverse_transform(WeierstrassModel(0, 0, 0, -1, 0), 2, 0, 0, 0)
        mm, vals = minimal_model(big)
        assert invariants(mm).delta == 64
        assert vals == {2: 6}

    def test_idempotent(self):
        for m in random_models(50, seed=13, span=8):
            mm, vals = minimal_model(m)
            mm2, vals2 = minimal_model(mm)
            assert mm2 == mm
            assert vals2 == vals

    def test_valuations_invariant_under_unimodular_transforms(self):
        rng = random.Random(17)
        for m in random_models(50, seed=19, span=8):
            _, vals = minimal_model(m)
            u = rng.choice([1, -1])
            r, s, t = (rng.randint(-5, 5) for _ in range(3))
            moved = inverse_transform(m, u, r, s, t)
            _, vals2 = minimal_model(moved)
            assert vals2 == vals

    @pytest.mark.parametrize("ell", [2, 3, 5, 7, 11, 13])
    def test_reduction_step_agrees_with_exhaustive_search(self, ell):
        # scaled models reduce, unscaled ones mostly do not; both must agree
        rng = random.Random(ell)
        reduced = 0
        for m in random_models(12, seed=200 + ell, span=6):
            r, s, t = (rng.randint(-50, 50) for _ in range(3))
            for model in (m, inverse_transform(m, ell, r, s, t), inverse_transform(m, -ell, r, s, t)):
                expected = reference_reduction_step(model, ell)
                assert _reduction_step(model, ell) == expected, (model, ell)
                reduced += expected is not None
        assert reduced >= 24

    def test_large_prime_minimal_model_is_fast(self):
        # y^2 = x (x - 401^6)(x + 1): v_401(delta) = 12, yet already minimal at 401;
        # the exhaustive search over s, r, t mod 401^k took 9.6 s here
        n = 401**6
        started = time.perf_counter()
        mm, vals = minimal_model(WeierstrassModel(0, 1 - n, 0, -n, 0))
        assert time.perf_counter() - started < 1
        assert mm == WeierstrassModel(
            0, 0, 0, -5762503692994869928197124322401, -5324329676593617025239156297507389786626720800
        )
        assert vals == {2: 6, 13: 2, 37: 2, 41: 2, 53: 2, 401: 12, 30637: 2, 64921: 2}

    def test_agrees_with_whole_discriminant_loop(self):
        # same model and same valuations, key order included: curvedb.verify
        # prints the dict in its mismatch text
        rng = random.Random(31)
        models = [rec.model for rec in _EMBEDDED.values() if rec.model is not None]
        assert len(models) == 6
        compared = 0
        for m in models + random_models(1050, seed=29, span=30):
            u = rng.choice([1, -1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 25])
            r, s, t = (rng.randint(-50, 50) for _ in range(3))
            scaled = inverse_transform(m, u, r, s, t)
            try:
                expected, expected_vals = reference_minimal_model(scaled)
            except FactorizationError:
                with pytest.raises(FactorizationError):
                    minimal_model(scaled)
                continue
            mm, vals = minimal_model(scaled)
            assert (mm, list(vals.items())) == (expected, list(expected_vals.items())), (m, u, r, s, t)
            compared += 1
        assert compared >= 1000

    def test_factors_the_discriminant_once(self, monkeypatch):
        import fermatsym.ecmodel as ecmodel

        calls = []
        monkeypatch.setattr(ecmodel, "factor_small", lambda n: calls.append(n) or factor_small(n))
        base = WeierstrassModel(0, 0, 0, -1, 0)
        mm, vals = minimal_model(inverse_transform(inverse_transform(base, 2, 1, 1, 1), 15, 2, 3, 4))
        assert (mm, vals) == (base, {2: 6})
        assert len(calls) == 1

    @pytest.mark.parametrize("ell", [3, 5, 7])
    def test_minimal_at_past_trial_division(self, ell):
        # Y^2 = X(X - A)(X + B) with A a prime past trial division: minimal_model
        # cannot factor its discriminant, but the step at one prime needs no factoring
        a = next(n for n in range(10**13 + 1, 10**13 + 1000, 2) if is_prime(n))
        b = ell**3
        frey = WeierstrassModel(0, b - a, 0, -a * b, 0)
        with pytest.raises(FactorizationError):
            minimal_model(frey)
        delta = invariants(frey).delta
        scaled = inverse_transform(frey, ell, 7, -3, 11)
        mm, e = _minimal_at(scaled, ell, valuation(invariants(scaled).delta, ell))
        assert e == valuation(delta, ell) == 6
        assert invariants(mm).delta == delta

    @pytest.mark.parametrize("ell", [2, 3, 5, 7])
    def test_minimization_undoes_prime_scaling(self, ell):
        for m in random_models(12, seed=100 + ell, span=6):
            base, base_vals = minimal_model(m)
            scaled = inverse_transform(base, ell, 0, 0, 0)
            mm, vals = minimal_model(scaled)
            assert vals == base_vals
            assert mm == base


class TestReductionType:
    def test_good_reduction(self):
        red = reduction_type(WeierstrassModel(0, 0, 0, -1, 0), 7)
        assert red.kind is ReductionKind.GOOD
        assert red.potentially_good

    def test_additive_potentially_good(self):
        # v2(delta) = 6, v2(c4) = 4; j = 48^3 / 64 is 2-integral
        red = reduction_type(WeierstrassModel(0, 0, 0, -1, 0), 2)
        assert red.kind is ReductionKind.ADDITIVE
        assert red.potentially_good

    def test_multiplicative_by_definition(self):
        mm, _ = minimal_model(WeierstrassModel(1, 1, 1, -4, 5))
        iv = invariants(mm)
        for ell in (2, 3, 7):
            assert valuation(iv.delta, ell) > 0
            assert valuation(iv.c4, ell) == 0
            red = reduction_type(mm, ell)
            assert red.kind is ReductionKind.MULTIPLICATIVE
            assert not red.potentially_good
