from fractions import Fraction

import pytest

from bianchi_integrals.engine import (
    _f123,
    lemma_dificil_solve,
    lemma_estrella_solve,
    sn_recursion_check,
)
from bianchi_integrals.multipoly import MultiPoly

K_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


def tail_vars():
    return [MultiPoly.variable(3, i) for i in range(3)]


class TestEstrella:
    """(a1 x4 + a2 x5 + a3 x6) g + (k-1)/4 F123 (g_4+g_5+g_6) = 0."""

    def test_generic_weights_have_no_solutions(self):
        # hypothesis (a1-a2)^2 + (a1-a3)^2 != 0 forces dimension 0
        cases = [
            (Fraction(1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(2), Fraction(3)),
            (Fraction(0), Fraction(1), Fraction(0)),
            (Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 2)),
        ]
        for a1, a2, a3 in cases:
            assert (a1 - a2) ** 2 + (a1 - a3) ** 2 != 0
            for k in (Fraction(0), Fraction(1, 2)):
                for m in (0, 1, 2, 3, 4):
                    basis = lemma_estrella_solve(a1, a2, a3, k, m)
                    assert basis.dimension == 0, (a1, a2, a3, k, m)

    def test_equal_weights_resonance_contains_f123_power(self):
        # a1 = a2 = a3 = m(k-1)/2 at even degree 2m admits F123^m
        F = _f123()
        for k in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            for m in (1, 2, 3):
                a = m * (k - 1) / 2
                basis = lemma_estrella_solve(a, a, a, k, 2 * m)
                target = F ** m
                target = target / target.leading_coefficient()
                assert any(p == target for p in basis.polynomials), (k, m)

    def test_equal_weights_off_resonance_empty(self):
        k = Fraction(1, 2)
        a = Fraction(7)  # not m(k-1)/2 for m = 1
        basis = lemma_estrella_solve(a, a, a, k, 2)
        assert basis.dimension == 0

    def test_degree_zero(self):
        # constants solve the equation only when the linear factor is zero
        basis = lemma_estrella_solve(Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2), 0)
        assert basis.dimension == 1
        basis = lemma_estrella_solve(Fraction(1), Fraction(0), Fraction(0), Fraction(1, 2), 0)
        assert basis.dimension == 0

    def test_solutions_satisfy_pde(self):
        y = tail_vars()
        F = _f123()
        k = Fraction(1, 2)
        m = 2
        a = m * (k - 1) / 2
        basis = lemma_estrella_solve(a, a, a, k, 2 * m)
        linear = a * (y[0] + y[1] + y[2])
        cf = (k - 1) / 4
        for g in basis.polynomials:
            sigma = sum(
                (g.partial_derivative(i) for i in range(3)), MultiPoly.zero(3)
            )
            assert (linear * g + cf * (F * sigma)).is_zero()

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            lemma_estrella_solve(Fraction(1), Fraction(0), Fraction(0), Fraction(1, 2), -1)


class TestDificil:
    """2(x4-x5+x6) g + (k-1)/4 F123 (g_4+g_5+g_6) + h_x5 = 0 with
    h an (x4-x5)/(x4-x6) binomial combination of degree n."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", K_SAMPLES)
    def test_only_trivial_solution(self, n, k):
        sol = lemma_dificil_solve(k, n)
        assert sol.dimension == 1
        assert sol.conforms
        g = sol.g_basis[0]
        a = sol.h_coefficients[0]
        assert g.is_zero()
        assert a[0] != 0
        assert all(c == 0 for c in a[1:])

    def test_solution_satisfies_pde(self):
        k = Fraction(1, 2)
        n = 3
        sol = lemma_dificil_solve(k, n)
        y = tail_vars()
        u, v = y[0] - y[1], y[0] - y[2]
        a = sol.h_coefficients[0]
        h = sum(
            (a[i] * (u ** i) * (v ** (n - i)) for i in range(n + 1)),
            MultiPoly.zero(3),
        )
        # g = 0, so only the h_x5 term remains and it must vanish
        assert h.partial_derivative(1).is_zero()

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lemma_dificil_solve(Fraction(1, 2), 1)

    def test_to_dict(self):
        d = lemma_dificil_solve(Fraction(1, 2), 2).to_dict()
        assert d["dimension"] == 1
        assert d["conforms"] is True
        assert d["g_basis"] == ["0"]


class TestSnRecursion:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 40])
    def test_identity_holds(self, n):
        assert sn_recursion_check(n)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            sn_recursion_check(1)
