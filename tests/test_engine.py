import math
from fractions import Fraction

import numpy as np
import pytest

from bianchi_integrals import dynamics, engine
from bianchi_integrals.coefficients import SYMBOLIC_K
from bianchi_integrals.engine import (
    RANK_POINT,
    SoundnessError,
    _gradient_rows,
    _products,
    _rank,
    assemble_system,
    degree_sweep,
    enumerate_monomials,
    independence_rank,
    kernel_basis,
)
from bianchi_integrals.multipoly import MultiPoly, pack
from bianchi_integrals.nullspace import sparse_kernel_basis
from bianchi_integrals.vectorfields import (
    BIANCHI_TABLE,
    BianchiModel,
    build_F,
    build_bianchi,
    lie_derivative,
    polynomial_integrals,
)

import oracle
from conftest import connected_blocks, exponent_terms, kernel_vectors, model_fields

K_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


class TestEnumerateMonomials:
    def test_count_is_binomial(self):
        for n, d in ((6, 1), (6, 2), (6, 3), (6, 4), (3, 5)):
            monos = enumerate_monomials(n, d)
            assert len(monos) == math.comb(n + d - 1, d)
            assert all(sum(m) == d for m in monos)
            assert len(set(monos)) == len(monos)

    def test_ordered_descending(self):
        monos = enumerate_monomials(6, 3)
        keys = [pack(m) for m in monos]
        assert keys == sorted(keys, reverse=True)
        assert monos[0] == (3, 0, 0, 0, 0, 0)
        assert monos[-1] == (0, 0, 0, 0, 0, 3)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            enumerate_monomials(0, 2)
        with pytest.raises(ValueError):
            enumerate_monomials(6, -1)


class TestAssembleSystem:
    def test_shape_small(self):
        fields = model_fields("IX", Fraction(1, 2))
        system = assemble_system(fields, 1)
        assert system.ncols == 6
        # Two equal fields have a zero difference, so their rows are the field's.
        assert assemble_system(fields * 2, 1) == system
        rows, keys = _part_rows(fields, system.columns)
        assert all(sum(mono) == 2 and f == 0 for mono, f in keys)
        assert system.outputs == [pack(mono) for mono, _ in keys]
        assert _row_multiples(system.rows, rows) == {8}  # d clears (1/2 - 1)/4

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    def test_symbolic_model_stacks_the_field_at_1_and_d4_d5_d6(self, tag):
        fields = model_fields(tag, None)
        for m in (1, 2, 3):
            system = assemble_system(fields, m)
            # X(1) - X(0) = (1/4) F (0, 0, 0, 1, 1, 1) gives d/dx4 + d/dx5 + d/dx6,
            # and X(1) has no (k - 1)/4 terms: both have int coefficients, so d = 1.
            rows, keys = _part_rows(_expected_parts(tag, None), system.columns)
            assert {f for _, f in keys} == {0, 1}
            assert system.outputs == [pack(mono) for mono, _ in keys]
            assert _row_multiples(system.rows, rows) == {1}
            assert all(len(row) <= 3 for row, (_, f) in zip(rows, keys) if f == 1)
            assert all(type(v) is int for row in system.rows for v in row.values())
            # Far sparser than X(0) stacked with X(1) - X(0).
            X0, X1 = fields
            stacked, _ = _part_rows([X0, tuple(b - a for a, b in zip(X0, X1))], system.columns)
            assert sum(map(len, system.rows)) < sum(map(len, stacked))

    def test_a_difference_that_is_not_G_times_a_constant_field_raises(self):
        # Type II at k = 0 and at k = 1/2 with x4^2 added to X_4: the
        # difference is (0, 0, 0, F/8 + x4^2, F/8, F/8), no multiple of one
        # polynomial.  Three fields are no model's fields either.
        X0 = build_bianchi("II", Fraction(0))
        x4 = MultiPoly.variable(6, 3)
        X1 = tuple(comp + x4 * x4 if i == 3 else comp
                   for i, comp in enumerate(build_bianchi("II", Fraction(1, 2))))
        # Types II and IX at SYMBOLIC_K with (k - 1)/3 F in X_6 in place of
        # (k - 1)/4 F: the difference (0, 0, 0, F/4, F/4, F/3) is F/4 times
        # the constant field (0, 0, 0, 1, 1, 4/3), not times d/dx4 + d/dx5 + d/dx6.
        thirds = []
        for tag in ("II", "IX"):
            F = build_F(*BIANCHI_TABLE[tag])
            thirds.append([tuple(comp + Fraction(k - 1, 12) * F if i == 5 else comp
                                 for i, comp in enumerate(build_bianchi(tag, k)))
                           for k in SYMBOLIC_K])
        for Y0, Y1 in [(X0, X1)] + thirds:
            with pytest.raises(ValueError):
                engine._direction(tuple(b - a for a, b in zip(Y0, Y1)))
        three = list(model_fields("I", None)) + [build_bianchi("I", Fraction(1, 2))]
        for fields in [[X0, X1], three] + thirds:
            for build in (assemble_system, kernel_basis):
                with pytest.raises(ValueError):
                    build(fields, 2)

    def test_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            assemble_system(model_fields("I", Fraction(1, 2)), 0)

    @pytest.mark.parametrize("tag", ["VIII", "IX"])
    def test_blocks_are_the_parity_classes_of_the_x1_x3_degree(self, tag):
        # The sign flip of (x1, x2, x3) is a symmetry of X, so every
        # connected block lies in one parity class of the x1+x2+x3 degree;
        # from m = 2 on each class is connected.
        X = build_bianchi(tag, Fraction(1, 2))
        for m in range(1, 7):
            system = assemble_system([X], m)
            blocks = sorted(sorted(cols) for cols, _ in connected_blocks(system.rows, system.ncols))
            classes = {}
            for j, mono in enumerate(system.columns):
                classes.setdefault(sum(mono[:3]) % 2, []).append(j)
            if m == 1:  # X(x_i) = x_i * (linear in x4..x6) for i <= 3
                assert blocks == [[0], [1], [2], [3, 4, 5]]
            else:
                assert blocks == sorted(classes.values())
        assert sorted(map(len, blocks)) == [226, 236]


def _part_rows(parts, columns):
    """Rows of the systems of the parts: their Lie derivative images, keyed
    by output monomial and part index."""
    rowmap = {}
    for j, mono in enumerate(columns):
        for f, X in enumerate(parts):
            for out, c in exponent_terms(lie_derivative(X, MultiPoly(6, {mono: 1}))).items():
                rowmap.setdefault((out, f), {})[j] = c
    keys = sorted(rowmap, key=lambda mk: (pack(mk[0]), mk[1]), reverse=True)
    return [rowmap[key] for key in keys], keys


def _expected_parts(tag, k):
    """The field at a fixed k; at symbolic k (None), X(1) and d/dx4 + d/dx5 + d/dx6."""
    if k is not None:
        return [build_bianchi(tag, k)]
    zero, one = MultiPoly(6), MultiPoly.constant(6, 1)
    return [build_bianchi(tag, Fraction(1)), (zero,) * 3 + (one,) * 3]


def _row_multiples(int_rows, rows):
    """{int_rows[i][c] / rows[i][c]} over every entry, once both lists have the same row supports."""
    assert [row.keys() for row in int_rows] == [row.keys() for row in rows]
    return {Fraction(v) / rows[i][c] for i, row in enumerate(int_rows) for c, v in row.items()}


class TestIntegerAssembly:
    """The system is assembled in integer arithmetic from its parts times d:
    the field at a fixed k, X(1) and d/dx4 + d/dx5 + d/dx6 at symbolic k."""

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(3, 7), Fraction(0), None])
    def test_integer_rows_with_the_kernel_of_the_rational_rows(self, tag, k):
        fields = model_fields(tag, k)
        # d clears (k - 1)/4; the symbolic parts have int coefficients.
        d = {Fraction(1, 2): 8, Fraction(3, 7): 7, Fraction(0): 4, None: 1}[k]
        for m in (1, 2, 3, 4):
            system = assemble_system(fields, m)
            assert all(type(v) is int for row in system.rows for v in row.values())
            # The rows of the parts themselves, in the same row order: each
            # integer row is d times its row.
            rows, _ = _part_rows(_expected_parts(tag, k), system.columns)
            assert any(v.denominator > 1 for row in rows for v in row.values()) == (k is not None)
            assert _row_multiples(system.rows, rows) == {d}
            if m < 4:  # the dense oracle takes seconds at m = 4
                basis, _ = sparse_kernel_basis(system.rows, system.ncols)
                dense = [[row.get(c, 0) for c in range(system.ncols)] for row in rows]
                assert [list(v) for v in basis] == oracle.dense_kernel(dense, system.ncols)


class TestSymbolicKernelIsStackedKernel:
    """k enters X affinely, so the rows at any two distinct k span the same
    space as those at the two k of SYMBOLIC_K."""

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    def test_symbolic_kernel_equals_the_kernel_at_one_third_and_nine_tenths_stacked(self, tag):
        at_third, at_nine_tenths = (build_bianchi(tag, k) for k in (Fraction(1, 3), Fraction(9, 10)))
        for m in range(1, 5):
            system = assemble_system(model_fields(tag, None), m)
            stacked = assemble_system([at_third], m).rows + assemble_system([at_nine_tenths], m).rows
            assert (sparse_kernel_basis(stacked, system.ncols)
                    == sparse_kernel_basis(system.rows, system.ncols))


class TestKernelVsOracle:
    """The optimized sparse path must agree with the naive dense oracle."""

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_same_kernel_subspace(self, tag, m):
        fields = [build_bianchi(tag, Fraction(1, 2))]
        oracle_vectors, columns = oracle.kernel_oracle(fields, m)
        assert columns == list(assemble_system(fields, m).columns)
        # Both give the canonical basis: one vector per free column.
        assert kernel_vectors(fields, m) == oracle_vectors
        assert kernel_basis(fields, m) == [engine._vector_to_poly(v, columns) for v in oracle_vectors]

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    def test_symbolic_k_canonical_basis(self, tag):
        samples = [build_bianchi(tag, k) for k in oracle.SYMBOLIC_SAMPLES]
        for m in (1, 2, 3):
            oracle_vectors, _ = oracle.kernel_oracle(samples, m)
            assert kernel_vectors(model_fields(tag, None), m) == oracle_vectors

    def test_k_sample_grid_degree_two(self):
        for tag in ("I", "II", "VIII"):
            for k in K_SAMPLES:
                fields = [build_bianchi(tag, k)]
                oracle_vectors, _ = oracle.kernel_oracle(fields, 2)
                assert oracle.same_subspace(kernel_vectors(fields, 2), oracle_vectors)


class TestKernelContents:
    def test_every_kernel_polynomial_annihilates(self):
        for tag in sorted(BIANCHI_TABLE):
            X = build_bianchi(tag, Fraction(2, 3))
            for m in (1, 2, 3):
                for p in kernel_basis([X], m):
                    assert not lie_derivative(X, p)
                    assert {sum(mono) for mono in exponent_terms(p)} == {m}
                    assert p.leading_coefficient() == 1

    def test_type_II_powers(self):
        x = [MultiPoly.variable(6, i) for i in range(6)]
        X = build_bianchi("II", Fraction(1, 2))
        for m in range(1, 5):
            assert kernel_basis([X], m) == [(x[4] - x[5]) ** m]

    def test_type_I_dimension_growth(self):
        X = build_bianchi("I", Fraction(1, 2))
        dims = [len(kernel_basis([X], m)) for m in range(1, 5)]
        assert dims == [2, 3, 4, 5]

    def test_nonintegrable_models_have_empty_kernels(self):
        for tag in ("VI0", "VII0", "VIII", "IX"):
            for k in K_SAMPLES:
                X = build_bianchi(tag, k)
                for m in (1, 2, 3):
                    assert len(kernel_basis([X], m)) == 0

    def test_symbolic_mode_matches_fixed_k_for_integrable_models(self):
        for tag in ("I", "II"):
            fields = model_fields(tag, None)
            for m in (1, 2, 3):
                assert kernel_basis(fields, m) == kernel_basis(model_fields(tag, Fraction(1, 2)), m)

    def test_soundness_recheck_path(self, monkeypatch):
        # the re-check runs on every call: silent on a correct kernel ...
        X = build_bianchi("II", Fraction(1, 2))
        kernel_basis([X], 3)

        # ... and raises on a vector that is not in it
        def wrong_kernel(rows, ncols, levels=None):
            return [tuple(Fraction(int(j == 0)) for j in range(ncols))], ncols - 1

        monkeypatch.setattr(engine, "sparse_kernel_basis", wrong_kernel)
        with pytest.raises(SoundnessError):
            kernel_basis([X], 3)

    def test_soundness_recheck_reads_every_field(self, monkeypatch):
        # x4 annihilates type I's field at k = 1 but not at k = 0, where X(x4) = -F/4.
        X0, X1 = fields = model_fields("I", None)
        columns = enumerate_monomials(6, 1)
        x4 = tuple(Fraction(int(j == 3)) for j in range(len(columns)))
        poly = engine._vector_to_poly(x4, columns)
        assert not lie_derivative(X1, poly)
        assert lie_derivative(X0, poly) == Fraction(-1, 4) * build_F(*BIANCHI_TABLE["I"])
        monkeypatch.setattr(engine, "sparse_kernel_basis", lambda rows, ncols, levels=None: ([x4], 5))
        with pytest.raises(SoundnessError):
            kernel_basis(fields, 1)


class TestDegreeSweep:
    def test_report_shape_and_pass(self):
        d = degree_sweep(BianchiModel("II", Fraction(1, 2)), m_max=4)
        assert d["model"] == "II"
        assert d["mode"] == "fixed-k"
        assert d["pass"] is True
        assert d["engine"]["pivot_rule"] == "first-nonzero"
        assert d["engine"]["m_max"] == 4
        assert "verified up to degree 4" in d["note"]
        assert [rec["dim"] for rec in d["degrees"]] == [1, 1, 1, 1]

    def test_symbolic_sweep_IX(self):
        d = degree_sweep(BianchiModel("IX", None), m_max=3)
        assert d["pass"] is True
        assert d["mode"] == "symbolic-k"
        assert [rec["dim"] for rec in d["degrees"]] == [0, 0, 0]

    def test_expected_tables(self):
        # The expected kernel is the span of the products of the known
        # integrals: its rank is m + 1 for I, 1 for II and 0 for the others.
        hand = {"I": [2, 3, 4, 5, 6, 7, 8, 9], "II": [1] * 8}
        for tag in BIANCHI_TABLE:
            ranks = [_rank(_products(polynomial_integrals(tag), m)) for m in range(1, 9)]
            assert ranks == hand.get(tag, [0] * 8), tag
        x = [MultiPoly.variable(6, i) for i in range(6)]
        for m in range(1, 9):
            assert _products(polynomial_integrals("II"), m) == [(x[4] - x[5]) ** m]


def _sqrt_D_and_log_R():
    """sqrt D and log R at RANK_POINT; D must be a perfect square there."""
    x = RANK_POINT
    D = x[3] ** 2 + x[4] ** 2 + x[5] ** 2 - x[3] * x[4] - x[3] * x[5] - x[4] * x[5]
    root = math.isqrt(D)
    assert root * root == D
    s = sum(x[3:])
    return root, math.log(Fraction(s - 2 * root, s + 2 * root))


def _dropped_term(i, j):
    """grad(a/sqrt D) at RANK_POINT, exactly, for a = x_(i+3) - x_(j+3)."""
    x = RANK_POINT
    root, _ = _sqrt_D_and_log_R()
    a = x[i + 3] - x[j + 3]
    grad_D = [0, 0, 0] + [3 * x[c] - sum(x[3:]) for c in (3, 4, 5)]
    grad_a = [int(c == i + 3) - int(c == j + 3) for c in range(6)]
    return [Fraction(ga, root) - Fraction(a * gD, 2 * root ** 3) for ga, gD in zip(grad_a, grad_D)]


def _det(matrix):
    """Exact determinant of a square Fraction matrix by Gaussian elimination."""
    m = [list(row) for row in matrix]
    det = Fraction(1)
    for c in range(len(m)):
        pivot = next((r for r in range(c, len(m)) if m[r][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, len(m)):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


class TestIndependenceRank:
    """The exact rows against the float invariants they stand for."""

    @pytest.mark.parametrize("k", [Fraction(0), Fraction(1, 2), Fraction(9, 10)])
    @pytest.mark.parametrize("tag", ["I", "II"])
    def test_rows_match_central_differences(self, tag, k):
        x = RANK_POINT
        rows = _gradient_rows(tag, k)
        linear = list(polynomial_integrals(tag))
        kf = float(k)
        weight = (x[0] * x[1] * x[2]) ** ((kf - 1) / 2)
        expected = oracle.float_jacobian(linear, x).tolist()
        expected.append(oracle.float_jacobian(
            [dynamics.energy_invariant(BIANCHI_TABLE[tag], kf)], x)[0] / weight)
        if tag == "I":
            _, log_R = _sqrt_D_and_log_R()
            for i, j in ((0, 1), (1, 2)):
                T = dynamics.transcendental_invariant(kf, i, j)
                grad_log_T = oracle.float_jacobian([T], x)[0] / T([float(v) for v in x])
                expected.append(grad_log_T - log_R * np.array(_dropped_term(i, j), float))
        assert len(rows) == len(expected)
        for row, want in zip(rows, expected):
            # Central differences with step 1e-6 agree to about 1e-9 of the row's scale.
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(np.array(row, float) - want)) < 1e-8 * scale

    def test_dropped_terms_lie_in_the_span_of_the_linear_rows(self):
        linear = _gradient_rows("I", Fraction(1, 2))[:2]
        dropped = [_dropped_term(i, j) for i, j in ((0, 1), (1, 2))]
        assert oracle.dense_rank(linear + dropped) == 2

    @pytest.mark.parametrize("k", ["0", "1/10", "1/2", "2/3", "9/10", "999999/1000000"])
    def test_full_rank_up_to_k_near_one(self, k):
        assert independence_rank("I", Fraction(k)) == (5, 5)
        assert independence_rank("II", Fraction(k)) == (2, 2)

    @pytest.mark.parametrize("tag, columns, minor", [
        ("I", (0, 1, 2, 3, 4), lambda k: -10 * (k - 1) ** 3),
        ("I", (0, 2, 3, 4, 5), lambda k: 5 * (k - 1) ** 2),
        ("I", (1, 2, 3, 4, 5), lambda k: -4 * (k - 1) ** 2),
        ("II", (3, 4), lambda k: MultiPoly.constant(1, 32)),
    ])
    def test_maximal_minors_exactly_in_k(self, tag, columns, minor):
        # Each entry of the rows is affine in k, so a maximal minor of at most
        # five rows has degree <= 5 in k, and six samples interpolate it
        # exactly.  None of the minors vanishes for k != 1, so the ranks 5 and
        # 2 hold for every k in [0, 1), not only at the sampled k.
        ks = [Fraction(v) for v in ("0", "1/7", "1/3", "1/2", "2/3", "9/10")]
        rows = [_gradient_rows(tag, k) for k in ks]
        for i in range(2, len(ks)):
            t = (ks[i] - ks[0]) / (ks[1] - ks[0])
            for r0, r1, ri in zip(rows[0], rows[1], rows[i]):
                assert ri == [a + t * (b - a) for a, b in zip(r0, r1)]
        values = [_det([[row[c] for c in columns] for row in at_k]) for at_k in rows]
        k = MultiPoly.variable(1, 0)
        interpolated = MultiPoly(1)
        for i, (k_i, value) in enumerate(zip(ks, values)):
            lagrange = MultiPoly.constant(1, value)
            for j, k_j in enumerate(ks):
                if j != i:
                    lagrange = lagrange * (k - k_j) * (1 / (k_i - k_j))
            interpolated = interpolated + lagrange
        assert interpolated == minor(k)

    def test_dependent_rows_lose_rank(self, monkeypatch):
        rows = _gradient_rows("I", Fraction(1, 2))
        monkeypatch.setattr(engine, "_gradient_rows", lambda tag, k: rows[:4] + [rows[3]])
        assert independence_rank("I", Fraction(1, 2)) == (4, 5)
