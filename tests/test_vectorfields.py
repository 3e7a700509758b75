from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bianchi_integrals.coefficients import SYMBOLIC_K
from bianchi_integrals.multipoly import W, MultiPoly
from bianchi_integrals.vectorfields import (
    BIANCHI_TABLE,
    BianchiModel,
    build_F,
    build_bianchi,
    lie_derivative,
    polynomial_integrals,
    text_at,
    verify_weighted_power_integral,
)

from conftest import exponent_terms, homogeneous_parts, random_poly
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
        BianchiModel("I", Fraction(0))
        with pytest.raises(ValueError):
            BianchiModel("I", Fraction(1))
        with pytest.raises(ValueError):
            BianchiModel("bogus", Fraction(1, 2))

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    def test_fields_are_the_builds_at_its_ks(self, tag):
        for k in (Fraction(0), Fraction(3, 7), Fraction(9, 10)):
            assert BianchiModel(tag, k).fields == (build_bianchi(tag, k),)
        assert BianchiModel(tag, None).fields == tuple(build_bianchi(tag, s) for s in SYMBOLIC_K)


class TestBuildBianchi:
    def test_type_I_tail_components_coincide(self):
        X = build_bianchi("I", Fraction(1, 3))
        cf = (Fraction(1, 3) - 1) / 4
        expected = cf * build_F(0, 0, 0)
        assert X[3] == expected
        assert X[4] == expected
        assert X[5] == expected

    def test_type_II_x4_minus_x5(self):
        X = build_bianchi("II", Fraction(1, 2))
        assert X[3] - X[4] == X6[0] ** 2

    def test_type_IX_component_six(self):
        X = build_bianchi("IX", Fraction(1, 2))
        cf = (Fraction(1, 2) - 1) / 4
        expected = X6[2] * (-X6[0] - X6[1] + X6[2]) + cf * build_F(1, 1, 1)
        assert X[5] == expected

    def test_all_components_homogeneous_degree_two(self):
        for tag in BIANCHI_TABLE:
            X = build_bianchi(tag, Fraction(1, 2))
            for comp in X:
                assert {sum(mono) for mono in exponent_terms(comp)} == {2}

    def test_coordinate_hyperplanes_invariant(self):
        # X_i = x_i * l_i for i <= 3, so each x_i = 0 is invariant.  The
        # energy residual and the split X = X0 + X2 of the field rest on this.
        ells = (-X6[3] + X6[4] + X6[5], X6[3] - X6[4] + X6[5], X6[3] + X6[4] - X6[5])
        for tag in BIANCHI_TABLE:
            for k in SYMBOLIC_K:
                X = build_bianchi(tag, k)
                for i, ell in enumerate(ells):
                    assert X[i] == X6[i] * ell, (tag, k, i)


class TestAffineInK:
    """Symbolic k is the model at SYMBOLIC_K because the field is affine in k."""

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    @pytest.mark.parametrize("k", [Fraction(1, 3), Fraction(9, 10)])
    def test_field_is_its_values_at_0_and_1_extended(self, tag, k):
        assert SYMBOLIC_K == (Fraction(0), Fraction(1))
        at_0, at_1 = (build_bianchi(tag, s) for s in SYMBOLIC_K)
        for comp, v0, v1 in zip(build_bianchi(tag, k), at_0, at_1):
            assert comp == v0 + k * (v1 - v0)
        assert at_0[:3] == at_1[:3]

    def test_text_at_symbolic_k(self):
        v0, v1 = (build_bianchi("IX", s)[3] for s in SYMBOLIC_K)
        assert text_at([v0, v1]).startswith("(3/4 + 1/4*k)*x1^2 + (-1/2 + -1/2*k)*x1*x2")
        assert text_at([v0]) == v0.to_text()
        assert text_at([MultiPoly(6), MultiPoly(6)]) == "0"

    def test_a_float_k_never_reaches_a_build(self):
        with pytest.raises(TypeError):
            build_bianchi("IX", 0.5)


class TestLieDerivative:
    def test_type_II_linear_integral(self):
        X = build_bianchi("II", Fraction(1, 2))
        assert not lie_derivative(X, X6[4] - X6[5])

    def test_type_I_linear_integrals(self):
        for k in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            X = build_bianchi("I", k)
            assert not lie_derivative(X, X6[3] - X6[4])
            assert not lie_derivative(X, X6[3] - X6[5])

    def test_type_IX_x4_image(self):
        k = Fraction(1, 2)
        X = build_bianchi("IX", k)
        expected = X6[0] * (X6[0] - X6[1] - X6[2]) + (k - 1) / 4 * build_F(1, 1, 1)
        image = lie_derivative(X, X6[3])
        assert image == expected
        assert image

    def test_homogeneity_preserved(self, rng):
        for tag in BIANCHI_TABLE:
            X = build_bianchi(tag, Fraction(1, 2))
            for _ in range(10):
                p = random_poly(rng, 6, max_degree=5)
                for d, comp in homogeneous_parts(p).items():
                    image = lie_derivative(X, comp)
                    assert {sum(mono) for mono in exponent_terms(image)} <= {d + 1}

    def test_analytic_integral_iff_components_are(self, rng):
        # degree-wise decomposition: the Lie derivative of the whole
        # vanishes iff it vanishes on every homogeneous component
        X = build_bianchi("I", Fraction(1, 2))
        p = (X6[3] - X6[4]) + (X6[3] - X6[5]) ** 2
        assert not lie_derivative(X, p)
        for comp in homogeneous_parts(p).values():
            assert not lie_derivative(X, comp)
        q = p + X6[0] ** 3
        assert lie_derivative(X, q)
        assert any(
            lie_derivative(X, comp)
            for comp in homogeneous_parts(q).values()
        )

    def test_an_image_of_degree_2_to_the_W_overflows(self):
        # x1^2 d/dx1 raises the degree by one: x1^(2^W - 1) maps to a
        # monomial that does not fit, and one degree lower still fits.
        x = MultiPoly.variable(2, 0)
        X = (x * x, MultiPoly(2))
        assert lie_derivative(X, x ** (2**W - 2)) == (2**W - 2) * x ** (2**W - 1)
        with pytest.raises(OverflowError):
            lie_derivative(X, x ** (2**W - 1))


_fractions = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _field_and_poly(draw):
    """A Bianchi field at a k in {0, 1/9, ..., 8/9}, or 36 times it, and a p.

    36 clears the denominator of (k-1)/4, so the scaled field has the int
    coefficients the engine assembles from.  p is random terms plus
    c * g * q, with g one of the model's known integrals (or F), so that
    many products in X(p) cancel.
    """
    tag = draw(st.sampled_from(sorted(BIANCHI_TABLE)))
    k = Fraction(draw(st.integers(0, 8)), 9)
    X = build_bianchi(tag, k)
    if draw(st.booleans()):
        X = tuple(c.map_coefficients(lambda v: int(36 * v)) for c in X)
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
        for k in SYMBOLIC_K:
            X = build_bianchi("I", k)
            p = (X6[3] - X6[4]) ** 3 * (X6[3] - X6[5]) ** 2
            assert not lie_derivative(X, p)
            assert not lie_derivative(tuple(c.map_coefficients(lambda v: int(8 * v)) for c in X), p)


class TestWeightedPowerIntegral:
    def test_all_models_at_both_symbolic_k(self):
        for tag in BIANCHI_TABLE:
            for k in SYMBOLIC_K:
                witness = verify_weighted_power_integral(build_bianchi(tag, k), tag, k)
                assert not witness, "energy integral fails for %s at k = %s: %s" % (tag, k, witness)

    def test_fixed_k_samples(self):
        for tag in ("II", "IX"):
            for k in (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
                assert not verify_weighted_power_integral(build_bianchi(tag, k), tag, k)

    def test_field_at_another_k_gives_nonzero_witness(self):
        X = build_bianchi("IX", Fraction(1, 2))
        assert verify_weighted_power_integral(X, "IX", Fraction(0))

    def test_non_divisible_component_gives_a_nonzero_witness(self):
        X = build_bianchi("IX", Fraction(1, 2))
        # x2^2 in the first component is not divisible by x1
        bad = (X[0] + X6[1] * X6[1],) + X[1:]
        assert verify_weighted_power_integral(bad, "IX", Fraction(1, 2))


class TestRestrictedField:
    def test_bianchi_II_restriction_keeps_two_linear_integrals(self):
        X = build_bianchi("II", Fraction(1, 2))
        on_x1_zero = [MultiPoly(6)] + X6[1:]
        Xr = tuple(c.evaluate(on_x1_zero) for c in X)
        assert not Xr[0]
        assert not lie_derivative(Xr, X6[3] - X6[4])
        assert not lie_derivative(Xr, X6[4] - X6[5])


PAIRS = ((0, 1), (0, 2), (1, 2))


def state_of(q, p):
    """The state x = (q1, q2, q3, 2 p1 q1, 2 p2 q2, 2 p3 q3) of (q, p)."""
    return list(q) + [2 * pi * qi for pi, qi in zip(p, q)]


def energy_terms(q, p, n):
    """T + V_G/4 of the Hamiltonian in (q, p) for structure constants n."""
    T = sum(2 * p[i] * p[j] * q[i] * q[j] for i, j in PAIRS) - sum(
        (p[i] * q[i]) ** 2 for i in range(3)
    )
    VG = sum(2 * n[i] * n[j] * q[i] * q[j] for i, j in PAIRS) - sum(
        (n[i] * q[i]) ** 2 for i in range(3)
    )
    return T + VG * Fraction(1, 4)


class TestHamiltonianMap:
    def test_direct(self):
        # by hand at q = p = (1, 1, 1), type IX: T = 6 - 3, V_G = 6 - 3
        x = state_of((1, 1, 1), (1, 1, 1))
        assert x == [1, 1, 1, 2, 2, 2]
        assert energy_terms((1, 1, 1), (1, 1, 1), (1, 1, 1)) == Fraction(15, 4)
        assert build_F(1, 1, 1).evaluate(x) == -15

    def test_energy_matches_state_integral_up_to_factor(self):
        # Under x = state_of(q, p) the phase-space energy
        # (q1 q2 q3)^((k-1)/2) (T + V_G/4) is -1/4 of the weighted power
        # integral (x1 x2 x3)^((k-1)/2) F: the prefactors agree, and
        # T + V_G/4 = -F/4 holds as a polynomial identity in (q, p).
        q = X6[:3]
        p = X6[3:]
        x = state_of(q, p)
        for n in BIANCHI_TABLE.values():
            assert energy_terms(q, p, n) == -build_F(*n).evaluate(x) / 4, n


def test_polynomial_integrals_catalog():
    assert [p.to_text() for p in polynomial_integrals("I")] == ["x4 - x5", "x4 - x6"]
    assert [p.to_text() for p in polynomial_integrals("II")] == ["x5 - x6"]
    assert polynomial_integrals("IX") == ()
