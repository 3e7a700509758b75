import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bianchi_integrals.multipoly import W, MultiPoly, leading_exponents, monomials, pack, unpack

from conftest import exponent_terms, homogeneous_parts, random_poly


def xvars(n=6):
    return [MultiPoly.variable(n, i) for i in range(n)]


def restrict(p, i, c):
    """p with x_i set to c, by evaluate at a point of MultiPoly variables."""
    point = xvars(p.nvars)
    point[i] = MultiPoly.constant(p.nvars, c)
    return MultiPoly(p.nvars) + p.evaluate(point)


def f123():
    x = xvars()
    return (
        x[3] ** 2 + x[4] ** 2 + x[5] ** 2
        - 2 * (x[3] * x[4] + x[3] * x[5] + x[4] * x[5])
    )


def delta():
    x = xvars()
    return (
        x[3] ** 2 + x[4] ** 2 + x[5] ** 2
        - x[3] * x[4] - x[3] * x[5] - x[4] * x[5]
    )


class TestArithmetic:
    def test_difference_of_squares(self):
        x = xvars()
        assert (x[3] - x[4]) * (x[3] + x[4]) == x[3] ** 2 - x[4] ** 2

    def test_f123_expansion(self):
        x = xvars()
        expected = (
            x[3] ** 2 + x[4] ** 2 + x[5] ** 2
            - 2 * x[3] * x[4] - 2 * x[3] * x[5] - 2 * x[4] * x[5]
        )
        assert f123() == expected

    def test_additive_inverse_gives_empty_terms(self, rng):
        p = random_poly(rng, 6)
        assert not (p + (-p)).terms

    def test_large_exponents_are_exact(self):
        assert exponent_terms(MultiPoly.variable(2, 0) ** 300) == {(300, 0): 1}


class TestPartialDerivative:
    def test_simple(self):
        x = xvars()
        p = x[3] ** 2 - 2 * x[3] * x[4]
        assert p.partial_derivative(3) == 2 * x[3] - 2 * x[4]

    def test_sum_of_partials_of_f123(self):
        # expand by hand: each partial is 2xi - 2(sum of the others)
        x = xvars()
        total = sum(
            (f123().partial_derivative(i) for i in (3, 4, 5)),
            MultiPoly(6),
        )
        assert total == -2 * (x[3] + x[4] + x[5])

    def test_derivative_of_missing_variable(self):
        x = xvars()
        assert not (x[4] - x[5]).partial_derivative(0)


class TestRestrict:
    def test_identity_when_variable_absent(self):
        x = xvars()
        p = x[4] - x[5]
        assert restrict(p, 0, Fraction(0)) == p

    def test_drops_terms(self):
        x = xvars()
        p = x[0] ** 2 + x[0] * x[1] + x[1] ** 2
        assert restrict(p, 0, Fraction(0)) == x[1] ** 2

    def test_commutes_with_add_and_mul(self, rng):
        for _ in range(50):
            p = random_poly(rng, 4)
            q = random_poly(rng, 4)
            i = rng.randrange(4)
            c = Fraction(rng.randint(-3, 3))
            assert restrict(p + q, i, c) == restrict(p, i, c) + restrict(q, i, c)
            assert restrict(p * q, i, c) == restrict(p, i, c) * restrict(q, i, c)


class TestHomogeneousComponents:
    def test_mixed(self):
        x = xvars()
        p = x[0] + x[0] * x[1]
        assert homogeneous_parts(p) == {1: x[0], 2: x[0] * x[1]}

    def test_homogeneous_input(self):
        x = xvars()
        p = x[0] * x[1]
        assert homogeneous_parts(p) == {2: p}

    def test_zero(self):
        assert homogeneous_parts(MultiPoly(6)) == {}

    def test_reconstruction_random(self, rng):
        for _ in range(200):
            p = random_poly(rng, 5)
            parts = homogeneous_parts(p)
            for d, part in parts.items():
                assert {sum(mono) for mono in exponent_terms(part)} == {d}
            assert sum(parts.values(), MultiPoly(5)) == p


class TestEvaluate:
    def test_f123_at_ones(self):
        # 3 - 2*3 by hand
        assert f123().evaluate([Fraction(0)] * 3 + [Fraction(1)] * 3) == -3

    def test_linear_at_equal_entries(self):
        x = xvars()
        point = [Fraction(9), Fraction(9), Fraction(9), Fraction(9), Fraction(2), Fraction(2)]
        assert (x[4] - x[5]).evaluate(point) == 0

    def test_delta_unit(self):
        point = [Fraction(0)] * 3 + [Fraction(1), Fraction(0), Fraction(0)]
        assert delta().evaluate(point) == 1


class TestMonomialOrder:
    def test_trichotomy_and_transitivity(self, rng):
        monos = [
            tuple(rng.randint(0, 5) for _ in range(6)) for _ in range(110)
        ]
        seen = 0
        for a in monos:
            for b in monos:
                ka, kb = pack(a), pack(b)
                assert (ka < kb) + (ka > kb) + (ka == kb) == 1
                assert (ka == kb) == (a == b)
                for c in monos[:20]:
                    kc = pack(c)
                    if ka < kb and kb < kc:
                        assert ka < kc
                seen += 1
        assert seen >= 10_000

    def test_monotone_under_multiplication(self, rng):
        for _ in range(500):
            a = tuple(rng.randint(0, 5) for _ in range(6))
            b = tuple(rng.randint(0, 5) for _ in range(6))
            m = tuple(rng.randint(0, 5) for _ in range(6))
            if pack(a) < pack(b):
                assert pack([i + j for i, j in zip(a, m)]) < pack([i + j for i, j in zip(b, m)])

    def test_x1_beats_x2(self):
        assert pack((1, 0, 0, 0, 0, 0)) > pack((0, 1, 0, 0, 0, 0))


class TestMonomials:
    def test_count_is_binomial(self):
        for n, d in ((6, 1), (6, 2), (6, 3), (6, 4), (3, 5)):
            keys = monomials(n, d)
            assert len(keys) == math.comb(n + d - 1, d)
            assert all(sum(unpack(key, n)) == d for key in keys)
            assert len(set(keys)) == len(keys)

    def test_ordered_descending(self):
        keys = monomials(6, 3)
        assert keys == sorted(keys, reverse=True)
        assert unpack(keys[0], 6) == (3, 0, 0, 0, 0, 0)
        assert unpack(keys[-1], 6) == (0, 0, 0, 0, 0, 3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            monomials(0, 2)
        with pytest.raises(ValueError):
            monomials(6, -1)


# Exponents small enough that n of them, and the sum of two such tuples,
# stay below degree 2^W; the small ones make equal sums and ties common.
EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, 2 ** (W - 4)))


def exponent_tuples(n):
    return st.tuples(*[EXPONENT] * n)


def exponent_pairs():
    return st.sampled_from((2, 3, 6)).flatmap(lambda n: st.tuples(exponent_tuples(n), exponent_tuples(n)))


class TestPackedFormat:
    """The packed key of a monomial: int order, addition and decoding."""

    @given(exponent_pairs())
    def test_key_order_is_the_degree_then_exponent_order(self, pair):
        a, b = pair
        assert (pack(a) < pack(b)) == ((sum(a), a) < (sum(b), b))
        assert (pack(a) == pack(b)) == (a == b)

    @given(exponent_pairs())
    def test_key_of_a_product_is_the_sum_of_the_keys(self, pair):
        a, b = pair
        assert pack([i + j for i, j in zip(a, b)]) == pack(a) + pack(b)

    @given(exponent_pairs())
    def test_unpack_inverts_pack(self, pair):
        for mono in pair:
            assert unpack(pack(mono), len(mono)) == mono
        a, b = pair
        for count in range(1, len(a) + 1):
            assert leading_exponents([pack(a), pack(b), pack(a)], len(a), count) == [a[:count], b[:count], a[:count]]

    @pytest.mark.parametrize("mono", [(-1, 0), (0.5, 0)])
    def test_an_exponent_that_cannot_be_packed_is_rejected(self, mono):
        with pytest.raises(ValueError, match=r"monomial \(%s, 0\)" % mono[0]):
            MultiPoly(2, {mono: 1})

    def test_a_degree_of_2_to_the_W_overflows(self):
        x = MultiPoly.variable(2, 0)
        assert exponent_terms(x ** (2**W - 1)) == {(2**W - 1, 0): 1}
        with pytest.raises(OverflowError):
            x ** 2**W
        with pytest.raises(OverflowError):
            MultiPoly(2, {(2**W - 1, 1): 1})

    def test_terms_is_one_dict_keyed_by_packed_monomial(self):
        x = xvars(2)
        p = 3 * x[0] ** 2 - x[1]
        assert p.terms == {pack((2, 0)): 3, pack((0, 1)): -1}
        assert sorted(p.terms, reverse=True) == [pack((2, 0)), pack((0, 1))]
        assert p.to_text() == "3*x1^2 - x2"
        q = x[1] - x[0] * x[1] + 5
        assert list(q.terms) != sorted(q.terms, reverse=True)  # so to_text has to sort
        assert q.to_text() == "-x1*x2 + x2 + 5"


def test_delta_is_sum_of_squares_identity():
    x = xvars()
    half = Fraction(1, 2)
    expansion = half * (
        (x[3] - x[4]) ** 2 + (x[3] - x[5]) ** 2 + (x[4] - x[5]) ** 2
    )
    assert delta() == expansion


class TestTextForm:
    def test_canonical_printing(self):
        x = xvars()
        p = Fraction(5, 2) * x[0] ** 2 * x[3] - x[4] * x[5]
        assert p.to_text() == "5/2*x1^2*x4 - x5*x6"

    def test_zero(self):
        assert MultiPoly(6).to_text() == "0"
