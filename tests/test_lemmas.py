import json
from argparse import Namespace
from fractions import Fraction

import pytest

from bianchi_integrals import engine
from bianchi_integrals.cli import _lemma_dificil, main
from bianchi_integrals.engine import (
    lemma_dificil_solve,
    lemma_estrella_solve,
    sn_recursion_check,
)
from bianchi_integrals.multipoly import MultiPoly
from bianchi_integrals.vectorfields import build_F

from conftest import exponent_terms

K_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


def tail_vars():
    """x4, x5, x6 in the fields' six-variable ring, where the lemmas are built."""
    return [MultiPoly.variable(6, i) for i in range(3, 6)]


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
                    assert len(basis) == 0, (a1, a2, a3, k, m)

    def test_equal_weights_resonance_contains_f123_power(self):
        # a1 = a2 = a3 = m(k-1)/2 at even degree 2m admits F123^m
        F = build_F(0, 0, 0)
        for k in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            for m in (1, 2, 3):
                a = m * (k - 1) / 2
                basis = lemma_estrella_solve(a, a, a, k, 2 * m)
                target = F ** m
                target = target / target.leading_coefficient()
                assert any(p == target for p in basis), (k, m)

    def test_equal_weights_off_resonance_empty(self):
        k = Fraction(1, 2)
        a = Fraction(7)  # not m(k-1)/2 for m = 1
        basis = lemma_estrella_solve(a, a, a, k, 2)
        assert len(basis) == 0

    def test_degree_zero(self):
        # constants solve the equation only when the linear factor is zero
        basis = lemma_estrella_solve(Fraction(0), Fraction(0), Fraction(0), Fraction(1, 2), 0)
        assert len(basis) == 1
        basis = lemma_estrella_solve(Fraction(1), Fraction(0), Fraction(0), Fraction(1, 2), 0)
        assert len(basis) == 0

    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(3, 7), Fraction(5, 9)])
    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_solutions_satisfy_pde(self, k, m, extra):
        # a = (j, j, j) with j = m(k-1)/2: the solutions are G(u, v)(s^2 - 4 Delta)^m,
        # so degree 2m + extra has dimension extra + 1.  The columns are scaled by d, the
        # lcm of the denominators of (k-1)/4 and of j: 8, 7 and 9 at these k.
        y = tail_vars()
        F = build_F(0, 0, 0)
        a = m * (k - 1) / 2
        degree = 2 * m + extra
        basis = lemma_estrella_solve(a, a, a, k, degree)
        assert len(basis) == degree - 2 * m + 1
        linear = a * (y[0] + y[1] + y[2])
        cf = (k - 1) / 4
        for g in basis:
            sigma = sum(
                (g.partial_derivative(i) for i in range(3, 6)), MultiPoly(6)
            )
            assert not (linear * g + cf * (F * sigma))

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            lemma_estrella_solve(Fraction(1), Fraction(0), Fraction(0), Fraction(1, 2), -1)


class TestDificil:
    """2(x4-x5+x6) g + (k-1)/4 F123 (g_4+g_5+g_6) + h_x5 = 0 with
    h an (x4-x5)/(x4-x6) binomial combination of degree n."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("k", K_SAMPLES)
    def test_only_trivial_solution(self, n, k):
        g_basis, h_coefficients = lemma_dificil_solve(k, n)
        assert len(g_basis) == len(h_coefficients) == 1
        g = g_basis[0]
        a = h_coefficients[0]
        assert not g
        assert a[0] != 0
        assert all(c == 0 for c in a[1:])

    def test_solution_satisfies_pde(self):
        k = Fraction(1, 2)
        n = 3
        _, h_coefficients = lemma_dificil_solve(k, n)
        y = tail_vars()
        u, v = y[0] - y[1], y[0] - y[2]
        a = h_coefficients[0]
        h = sum(
            (a[i] * (u ** i) * (v ** (n - i)) for i in range(n + 1)),
            MultiPoly(6),
        )
        # g = 0, so only the h_x5 term remains and it must vanish
        assert not h.partial_derivative(4)

    def test_solutions_with_nonzero_g_satisfy_pde(self):
        # At k = 7/3, outside [0, 1), some solutions have g != 0.  The g
        # columns are scaled by d; the h columns must be scaled by the same
        # d, or the reported g would be off by that factor.
        k, n = Fraction(7, 3), 4
        g_basis, h_coefficients = lemma_dificil_solve(k, n)
        assert len(g_basis) == 2
        y = tail_vars()
        u, v = y[0] - y[1], y[0] - y[2]
        F = build_F(0, 0, 0)
        for g, a in zip(g_basis, h_coefficients):
            h = sum((a[i] * u ** i * v ** (n - i) for i in range(n + 1)), MultiPoly(6))
            sigma = sum((g.partial_derivative(i) for i in range(3, 6)), MultiPoly(6))
            lhs = 2 * (y[0] - y[1] + y[2]) * g + (k - 1) / 4 * (F * sigma) + h.partial_derivative(4)
            assert not lhs
        assert any(g_basis)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            lemma_dificil_solve(Fraction(1, 2), 1)

    def test_payload(self):
        payload = _lemma_dificil(Namespace(k=Fraction(1, 2), n=2))
        d = payload["solution"]
        assert d["dimension"] == 1
        assert d["conforms"] is True and payload["pass"] is True
        assert d["g_basis"] == ["0"]
        # At k = 7/3 (outside [0, 1)) the kernel has two solutions, some with g != 0.
        payload = _lemma_dificil(Namespace(k=Fraction(7, 3), n=4))
        assert payload["solution"]["dimension"] == 2
        assert payload["solution"]["conforms"] is False and payload["pass"] is False


@pytest.mark.parametrize("basis", [
    lambda: lemma_estrella_solve(Fraction(-1), Fraction(-1), Fraction(-1), Fraction(1, 2), 9),
    lambda: lemma_estrella_solve(Fraction(0), Fraction(0), Fraction(0), Fraction(3, 7), 2),
    lambda: lemma_dificil_solve(Fraction(7, 3), 4)[0],
])
def test_lemma_polynomials_lie_in_x4_x5_x6_of_the_six_variable_ring(basis):
    polys = basis()
    assert any(polys)
    for p in polys:
        assert p.nvars == 6
        assert all(mono[:3] == (0, 0, 0) for mono in exponent_terms(p))


@pytest.mark.parametrize("solve", [
    lambda: lemma_estrella_solve(Fraction(1, 3), Fraction(2, 5), Fraction(7), Fraction(5, 9), 3),
    lambda: lemma_estrella_solve(Fraction(0), Fraction(0), Fraction(0), Fraction(3, 7), 2),
    lambda: lemma_dificil_solve(Fraction(5, 9), 4),
])
def test_lemma_rows_are_ints(solve, monkeypatch):
    # Each builder scales its images by d itself; nullspace takes int rows only.
    seen, real = [], engine.sparse_kernel_basis

    def capture(rows, ncols, levels=None):
        seen.extend(rows)
        return real(rows, ncols, levels)

    monkeypatch.setattr(engine, "sparse_kernel_basis", capture)
    solve()
    assert seen and all(type(v) is int for row in seen for v in row.values())


A1, A2 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
P = (3 * A1 - A2) * (A1 + A2)
Q = (3 * A1 + A2) * (A1 - A2)


def sn_coefficient(n, i):
    """c_(n,i) = i P^(n-i) Q^(i-1), the a_i coefficient of S_n, by repeated multiplication."""
    c = MultiPoly.constant(2, i)
    for _ in range(n - i):
        c = c * P
    for _ in range(i - 1):
        c = c * Q
    return c


class TestSnRecursion:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 40, 129, 100000])
    def test_identity_holds(self, n):
        assert sn_recursion_check(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_expanded_coefficients_obey_the_recursion_and_specialization(self, n):
        # The reference for the two evaluations the check makes: expand every
        # c_(n,i) and check S_n = P S_(n-1) + n Q^(n-1) a_n and its value at A1 = -A2.
        at = (-A2, A2)
        for i in range(1, n):
            c_ni = sn_coefficient(n, i)
            assert c_ni == P * sn_coefficient(n - 1, i)
            assert not c_ni.evaluate(at)
        c_nn = sn_coefficient(n, n)
        assert c_nn == n * Q ** (n - 1)
        assert c_nn.evaluate(at) == n * 4 ** (n - 1) * A2 ** (2 * n - 2)

    @pytest.mark.parametrize("a1_as", [
        lambda A1, A2: 2 * A1,  # P(-A2, A2) = 7 A2^2 and Q(-A2, A2) = 15 A2^2
        lambda A1, A2: A1 + Fraction(8, 3) * A2,  # P(-A2, A2) = 32/3 A2^2, Q right
        lambda A1, A2: A1 + Fraction(4, 3) * A2,  # P right, Q(-A2, A2) = -4/3 A2^2
    ], ids=["P_and_Q_wrong", "P_wrong", "Q_wrong"])
    def test_a_wrong_evaluation_fails(self, monkeypatch, capsys, a1_as):
        class SubstitutedA1(MultiPoly):
            @classmethod
            def variable(cls, nvars, index):
                x = MultiPoly.variable(nvars, index)
                return a1_as(x, MultiPoly.variable(nvars, 1)) if index == 0 else x

        monkeypatch.setattr(engine, "MultiPoly", SubstitutedA1)
        assert not sn_recursion_check(5)
        assert main(["lemma", "sn", "--n", "5"]) == 2
        assert json.loads(capsys.readouterr().out)["identity_holds"] is False

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            sn_recursion_check(1)
