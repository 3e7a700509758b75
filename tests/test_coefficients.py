import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bianchi_integrals.coefficients import K_MINUS_1_OVER_2, K_MINUS_1_OVER_4, KPoly

rationals = st.fractions(
    min_value=-(1 << 30), max_value=1 << 30, max_denominator=1 << 20
)


def kpolys(max_degree=4):
    return st.lists(rationals, max_size=max_degree + 1).map(KPoly)


def test_exact_fraction_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


def test_canonical_form():
    q = Fraction(2, 4)
    assert q.numerator == 1 and q.denominator == 2


def test_k_minus_one_over_four_substitution():
    assert K_MINUS_1_OVER_4(Fraction(1, 2)) == Fraction(-1, 8)
    assert K_MINUS_1_OVER_4(Fraction(0)) == Fraction(-1, 4)
    # k = 1 is the excluded endpoint; only used as a degeneracy probe
    assert K_MINUS_1_OVER_4(Fraction(1)) == 0
    assert K_MINUS_1_OVER_2(Fraction(2, 3)) == Fraction(-1, 6)


def test_a_float_k_is_refused():
    for coefficient in (K_MINUS_1_OVER_4, K_MINUS_1_OVER_2):
        assert type(coefficient(1)) is Fraction
        with pytest.raises(TypeError):
            coefficient(0.5)


def test_division_by_zero_is_distinct_error():
    with pytest.raises(ZeroDivisionError):
        Fraction(1, 2) / Fraction(0)


def test_estrella_delta1_closed_form():
    # 2(a1+a2+a3)/(3(k-1)) at a_i = -1/4, k = 1/2, evaluated by hand: 1
    a = Fraction(-1, 4)
    k = Fraction(1, 2)
    assert 2 * (a + a + a) / (3 * (k - 1)) == 1


def test_field_axioms_on_random_rationals():
    rng = random.Random(7)
    for _ in range(1000):
        a = Fraction(rng.randint(-(1 << 63), 1 << 63), rng.randint(1, 1 << 63))
        b = Fraction(rng.randint(-(1 << 63), 1 << 63), rng.randint(1, 1 << 63))
        c = Fraction(rng.randint(-(1 << 63), 1 << 63), rng.randint(1, 1 << 63))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if a:
            assert a * (1 / a) == 1


def test_kpoly_text_form():
    p = KPoly((Fraction(-1, 4), Fraction(1, 4)))
    assert str(p) == "-1/4 + 1/4*k"
    assert str(KPoly()) == "0"
    assert str(KPoly((0, 0, Fraction(3)))) == "3*k^2"


def test_kpoly_canonical_degree():
    assert len(KPoly((1, 2, 0, 0)).coeffs) - 1 == 1
    assert len(KPoly((0,)).coeffs) - 1 == -1
    assert KPoly((0, 0)).coeffs == ()


@given(kpolys(), kpolys())
def test_kpoly_degree_additivity(p, q):
    if p.coeffs and q.coeffs:
        assert len((p * q).coeffs) == len(p.coeffs) + len(q.coeffs) - 1
    else:
        assert (p * q).coeffs == ()
