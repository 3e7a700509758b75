import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi_integrals.coefficients import K_MINUS_1_OVER_4, KPoly
from bianchi_integrals.engine import _integer_multiple
from bianchi_integrals.multipoly import MultiPoly
from bianchi_integrals.vectorfields import (
    BIANCHI_TABLE,
    BianchiModel,
    DivisibilityError,
    WeightedPowerIntegral,
    build_F,
    build_bianchi,
    hamiltonian_energy,
    hamiltonian_integral,
    hamiltonian_to_state,
    lie_derivative,
    polynomial_integrals,
    restricted_field,
    state_to_hamiltonian,
    verify_weighted_power_integral,
)

from conftest import random_poly
from oracle import product_rule_image

X6 = [MultiPoly.variable(6, i) for i in range(6)]
TAIL_QUADRATIC = (
    X6[3] ** 2 + X6[4] ** 2 + X6[5] ** 2
    - 2 * X6[3] * X6[4] - 2 * X6[4] * X6[5] - 2 * X6[3] * X6[5]
)


class TestBuildF:
    def test_type_I(self):
        assert build_F(0, 0, 0) == TAIL_QUADRATIC

    def test_type_II(self):
        assert build_F(1, 0, 0) == X6[0] ** 2 + TAIL_QUADRATIC

    def test_sign_pattern_distinguishes_VIII_from_IX(self):
        F_ix = build_F(1, 1, 1)
        F_viii = build_F(1, 1, -1)
        assert F_ix != F_viii
        diff = F_viii - F_ix
        assert diff == 4 * X6[0] * X6[2] + 4 * X6[1] * X6[2]

    def test_vi0_vii0_cross_term_signs(self):
        F_vii = build_F(1, 1, 0)
        F_vi = build_F(1, -1, 0)
        assert F_vii != F_vi
        assert F_vi - F_vii == 4 * X6[0] * X6[1]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            build_F(2, 0, 0)


class TestBianchiModel:
    def test_table(self):
        assert BIANCHI_TABLE == {
            "I": (0, 0, 0),
            "II": (1, 0, 0),
            "VI0": (1, -1, 0),
            "VII0": (1, 1, 0),
            "VIII": (1, 1, -1),
            "IX": (1, 1, 1),
        }

    def test_k_range(self):
        BianchiModel.from_tag("I", Fraction(0))
        with pytest.raises(ValueError):
            BianchiModel.from_tag("I", Fraction(1))
        with pytest.raises(ValueError):
            BianchiModel.from_tag("bogus", Fraction(1, 2))


class TestBuildBianchi:
    def test_type_I_tail_components_coincide(self):
        X = build_bianchi(BianchiModel.from_tag("I", Fraction(1, 3)))
        cf = (Fraction(1, 3) - 1) / 4
        expected = cf * build_F(0, 0, 0)
        assert X.components[3] == expected
        assert X.components[4] == expected
        assert X.components[5] == expected

    def test_type_II_x4_minus_x5(self):
        X = build_bianchi(BianchiModel.from_tag("II", Fraction(1, 2)))
        assert X.components[3] - X.components[4] == X6[0] ** 2

    def test_type_IX_component_six(self):
        X = build_bianchi(BianchiModel.from_tag("IX", Fraction(1, 2)))
        cf = (Fraction(1, 2) - 1) / 4
        expected = X6[2] * (-X6[0] - X6[1] + X6[2]) + cf * build_F(1, 1, 1)
        assert X.components[5] == expected

    def test_all_components_homogeneous_degree_two(self):
        for tag in BIANCHI_TABLE:
            X = build_bianchi(BianchiModel.from_tag(tag, Fraction(1, 2)))
            for comp in X.components:
                assert comp.is_homogeneous()
                assert comp.total_degree() == 2

    def test_coordinate_hyperplanes_invariant(self):
        # components 1..3 vanish on their own hyperplane
        for tag in BIANCHI_TABLE:
            X = build_bianchi(BianchiModel.from_tag(tag, Fraction(2, 3)))
            for i in range(3):
                assert X.components[i].restrict(i, Fraction(0)).is_zero()

    def test_symbolic_mode_uses_kpoly(self):
        X = build_bianchi(BianchiModel.from_tag("IX", None))
        coeffs = [c for comp in X.components for c in comp.terms.values()]
        assert all(isinstance(c, KPoly) for c in coeffs)
        assert any(c.degree == 1 for c in coeffs)


class TestLieDerivative:
    def test_type_II_linear_integral(self):
        X = build_bianchi(BianchiModel.from_tag("II", Fraction(1, 2)))
        assert lie_derivative(X, X6[4] - X6[5]).is_zero()

    def test_type_I_linear_integrals(self):
        for k in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            X = build_bianchi(BianchiModel.from_tag("I", k))
            assert lie_derivative(X, X6[3] - X6[4]).is_zero()
            assert lie_derivative(X, X6[3] - X6[5]).is_zero()

    def test_type_IX_x4_image(self):
        k = Fraction(1, 2)
        X = build_bianchi(BianchiModel.from_tag("IX", k))
        expected = X6[0] * (X6[0] - X6[1] - X6[2]) + (k - 1) / 4 * build_F(1, 1, 1)
        image = lie_derivative(X, X6[3])
        assert image == expected
        assert not image.is_zero()

    def test_homogeneity_preserved(self, rng):
        for tag in BIANCHI_TABLE:
            X = build_bianchi(BianchiModel.from_tag(tag, Fraction(1, 2)))
            for _ in range(10):
                p = random_poly(rng, 6, max_degree=5)
                for comp in p.homogeneous_components():
                    image = lie_derivative(X, comp)
                    if image:
                        assert image.is_homogeneous()
                        assert image.total_degree() == comp.total_degree() + 1

    def test_analytic_integral_iff_components_are(self, rng):
        # degree-wise decomposition: the Lie derivative of the whole
        # vanishes iff it vanishes on every homogeneous component
        X = build_bianchi(BianchiModel.from_tag("I", Fraction(1, 2)))
        p = (X6[3] - X6[4]) + (X6[3] - X6[5]) ** 2
        assert lie_derivative(X, p).is_zero()
        for comp in p.homogeneous_components():
            assert lie_derivative(X, comp).is_zero()
        q = p + X6[0] ** 3
        assert not lie_derivative(X, q).is_zero()
        assert any(
            not lie_derivative(X, comp).is_zero()
            for comp in q.homogeneous_components()
        )


_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _field_and_poly(draw):
    """A Bianchi field (fixed k, symbolic k or integer multiple) and a p.

    p is random terms plus c * g * q, with g one of the model's known
    integrals (or F), so that many products in X(p) cancel.
    """
    tag = draw(st.sampled_from(sorted(BIANCHI_TABLE)))
    mode = draw(st.sampled_from(["fixed", "symbolic", "integer"]))
    k = None if mode == "symbolic" else Fraction(draw(st.integers(0, 8)), 9)
    X = build_bianchi(BianchiModel.from_tag(tag, k))
    if mode == "integer":
        X = _integer_multiple(X)
    monos = st.tuples(*[st.integers(0, 3)] * 6)
    p = MultiPoly(6, draw(st.dictionaries(monos, _fractions, max_size=5)))
    g = draw(st.sampled_from(polynomial_integrals(tag) + (build_F(*BIANCHI_TABLE[tag]),)))
    q = MultiPoly(6, draw(st.dictionaries(monos, _fractions, min_size=1, max_size=3)))
    return X, p + draw(_fractions) * g * q


class TestLieDerivativeProductRule:
    @settings(max_examples=150, deadline=None)
    @given(_field_and_poly())
    def test_equals_sum_of_component_times_partial(self, field_and_poly):
        X, p = field_and_poly
        image = lie_derivative(X, p)
        assert image == product_rule_image(X, p)
        assert all(image.terms.values())  # no zero coefficient is kept

    def test_cancellation_to_zero(self):
        for k in (Fraction(1, 2), None):
            X = build_bianchi(BianchiModel.from_tag("I", k))
            p = (X6[3] - X6[4]) ** 3 * (X6[3] - X6[5]) ** 2
            assert lie_derivative(X, p).is_zero()
            assert lie_derivative(_integer_multiple(X), p).is_zero()


class TestWeightedPowerIntegral:
    def test_all_models_symbolic(self):
        for tag in BIANCHI_TABLE:
            model = BianchiModel.from_tag(tag, None)
            X = build_bianchi(model)
            ok, witness = verify_weighted_power_integral(X, hamiltonian_integral(model))
            assert ok, "energy integral fails for %s: %s" % (tag, witness)
            assert witness.is_zero()

    def test_fixed_k_samples(self):
        for tag in ("II", "IX"):
            for k in (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
                model = BianchiModel.from_tag(tag, k)
                X = build_bianchi(model)
                ok, _ = verify_weighted_power_integral(X, hamiltonian_integral(model))
                assert ok

    def test_zero_weights_give_nonzero_witness(self):
        model = BianchiModel.from_tag("IX", Fraction(1, 2))
        X = build_bianchi(model)
        G = WeightedPowerIntegral((Fraction(0),) * 6, build_F(1, 1, 1))
        ok, witness = verify_weighted_power_integral(X, G)
        assert not ok
        assert witness == lie_derivative(X, build_F(1, 1, 1))

    def test_divisibility_failure_is_an_error_not_false(self):
        model = BianchiModel.from_tag("IX", Fraction(1, 2))
        X = build_bianchi(model)
        w = Fraction(1)
        # weight on x4: component 4 is not divisible by x4
        G = WeightedPowerIntegral(
            (Fraction(0),) * 3 + (w, Fraction(0), Fraction(0)), build_F(1, 1, 1)
        )
        with pytest.raises(DivisibilityError):
            verify_weighted_power_integral(X, G)


class TestRestrictedField:
    def test_bianchi_II_restriction_keeps_two_linear_integrals(self):
        X = build_bianchi(BianchiModel.from_tag("II", Fraction(1, 2)))
        Xr = restricted_field(X, 0)
        assert Xr.components[0].is_zero()
        assert lie_derivative(Xr, X6[3] - X6[4]).is_zero()
        assert lie_derivative(Xr, X6[4] - X6[5]).is_zero()


class TestHamiltonianMap:
    def test_direct(self):
        assert hamiltonian_to_state((1, 1, 1), (1, 1, 1)) == (1, 1, 1, 2, 2, 2)

    def test_roundtrip(self, rng):
        for _ in range(100):
            q = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 5)) for _ in range(3))
            p = tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3))
            x = hamiltonian_to_state(q, p)
            assert state_to_hamiltonian(x) == (q, p)

    def test_inverse_rejects_zero_q(self):
        with pytest.raises(ZeroDivisionError):
            state_to_hamiltonian((0, 1, 1, 1, 1, 1))

    def test_energy_matches_state_integral_up_to_factor(self, rng):
        # T + V_G/4 maps to -F/4, so the phase-space energy is -1/4 of the
        # weighted-power integral in state coordinates.
        k = 0.5
        n = (1, 1, 1)
        F = build_F(*n)
        for _ in range(20):
            q = [rng.uniform(0.5, 2.0) for _ in range(3)]
            p = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            x = hamiltonian_to_state(q, p)
            hx = (x[0] * x[1] * x[2]) ** ((k - 1) / 2) * float(
                F.evaluate([float(v) for v in x])
            )
            h = hamiltonian_energy(q, p, n, k)
            assert abs(hx - (-4.0) * h) <= 1e-12 * max(1.0, abs(hx))


def test_polynomial_integrals_catalog():
    assert [p.to_text() for p in polynomial_integrals("I")] == ["x4 - x5", "x4 - x6"]
    assert [p.to_text() for p in polynomial_integrals("II")] == ["x5 - x6"]
    assert polynomial_integrals("IX") == ()
