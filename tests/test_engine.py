import math
from fractions import Fraction

import pytest

from bianchi_integrals import engine
from bianchi_integrals.engine import (
    PRIMARY_RANK_POINT,
    RETRY_RANK_POINT,
    SoundnessError,
    assemble_system,
    degree_sweep,
    enumerate_monomials,
    expected_basis,
    expected_dimension,
    independence_rank,
    kernel_basis,
)
from bianchi_integrals.multipoly import MultiPoly, monomial_key
from bianchi_integrals.nullspace import _blocks, sparse_kernel_basis
from bianchi_integrals.vectorfields import (
    BIANCHI_TABLE,
    BianchiModel,
    build_bianchi,
    lie_derivative,
)

import oracle

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
        keys = [monomial_key(m) for m in monos]
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
        X = build_bianchi(BianchiModel.from_tag("IX", Fraction(1, 2)))
        system = assemble_system(X, 1)
        assert system.ncols == 6
        assert all(sum(key[0]) == 2 for key in system.row_keys)
        assert all(key[1] == 0 for key in system.row_keys)

    def test_symbolic_mode_adds_k_power_rows(self):
        X = build_bianchi(BianchiModel.from_tag("IX", None))
        system = assemble_system(X, 1)
        powers = {key[1] for key in system.row_keys}
        assert powers == {0, 1}
        assert all(type(v) is int for row in system.rows for v in row.values())

    def test_rejects_degree_zero(self):
        X = build_bianchi(BianchiModel.from_tag("I", Fraction(1, 2)))
        with pytest.raises(ValueError):
            assemble_system(X, 0)

    @pytest.mark.parametrize("tag", ["VIII", "IX"])
    def test_blocks_are_the_parity_classes_of_the_x1_x3_degree(self, tag):
        # The sign flip of (x1, x2, x3) is a symmetry of X, so every
        # connected block lies in one parity class of the x1+x2+x3 degree;
        # from m = 2 on each class is connected.
        X = build_bianchi(BianchiModel.from_tag(tag, Fraction(1, 2)))
        for m in range(1, 7):
            system = assemble_system(X, m)
            blocks = sorted(sorted(cols) for cols, _ in _blocks(system.rows, system.ncols))
            classes = {}
            for j, mono in enumerate(system.columns):
                classes.setdefault(sum(mono[:3]) % 2, []).append(j)
            if m == 1:  # X(x_i) = x_i * (linear in x4..x6) for i <= 3
                assert blocks == [[0], [1], [2], [3, 4, 5]]
            else:
                assert blocks == sorted(classes.values())
        assert sorted(map(len, blocks)) == [226, 236]


def _k_power_rows(X, columns):
    """Rows of X's own system: its Lie derivative images, split by k-power."""
    rowmap = {}
    for j, mono in enumerate(columns):
        for out, c in lie_derivative(X, MultiPoly.from_monomial(6, mono)).terms.items():
            for power, v in enumerate(oracle.k_powers(c)):
                if v:
                    rowmap.setdefault((out, power), {})[j] = v
    keys = sorted(rowmap, key=lambda mk: (monomial_key(mk[0]), mk[1]), reverse=True)
    return [rowmap[key] for key in keys], keys


class TestIntegerAssembly:
    """The system is assembled from the integer parts d*X_p in integer arithmetic."""

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    @pytest.mark.parametrize("k", [Fraction(1, 2), Fraction(3, 7), Fraction(0), None])
    def test_integer_rows_with_the_kernel_of_the_rational_rows(self, tag, k):
        X = build_bianchi(BianchiModel.from_tag(tag, k))
        for m in (1, 2, 3, 4):
            system = assemble_system(X, m)
            assert all(type(v) is int for row in system.rows for v in row.values())
            # The rows of X itself, in the same row order.
            rows, keys = _k_power_rows(X, system.columns)
            assert keys == system.row_keys
            assert any(v.denominator > 1 for row in rows for v in row.values())
            # Each integer row is one common positive multiple d of its row.
            ratios = {
                Fraction(v) / rows[i][c] for i, row in enumerate(system.rows)
                for c, v in row.items()
            }
            assert [row.keys() for row in system.rows] == [row.keys() for row in rows]
            assert len(ratios) == 1 and ratios.pop() > 0
            if m < 4:  # the dense oracle takes seconds at m = 4
                basis, _ = sparse_kernel_basis(system.rows, system.ncols)
                dense = [[row.get(c, 0) for c in range(system.ncols)] for row in rows]
                assert [list(v) for v in basis] == oracle.dense_kernel(dense, system.ncols)

    def test_one_part_per_power_of_k(self):
        fixed = build_bianchi(BianchiModel.from_tag("IX", Fraction(1, 2)))
        assert len(engine._integer_parts(fixed)) == 1
        # 4X = 4X_0 + k*4X_1, and k enters only X_4..X_6 through (k-1)/4.
        X = build_bianchi(BianchiModel.from_tag("IX", None))
        parts = engine._integer_parts(X)
        assert len(parts) == 2
        for comp, part0, part1 in zip(X.components, parts[0].components, parts[1].components):
            assert part0 == comp.map_coefficients(lambda c: 4 * c(0))
            assert part1 == comp.map_coefficients(lambda c: 4 * (c(1) - c(0)))


class TestKernelVsOracle:
    """The optimized sparse path must agree with the naive dense oracle."""

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_same_kernel_subspace(self, tag, m):
        X = build_bianchi(BianchiModel.from_tag(tag, Fraction(1, 2)))
        basis = kernel_basis(X, m)
        oracle_vectors, columns = oracle.kernel_oracle(X, m)
        assert columns == list(assemble_system(X, m).columns)
        # Both give the canonical basis: one vector per free column.
        assert [list(v) for v in basis.vectors] == oracle_vectors

    @pytest.mark.parametrize("tag", sorted(BIANCHI_TABLE))
    def test_symbolic_k_canonical_basis(self, tag):
        X = build_bianchi(BianchiModel.from_tag(tag, None))
        for m in (1, 2, 3):
            oracle_vectors, _ = oracle.kernel_oracle(X, m)
            assert [list(v) for v in kernel_basis(X, m).vectors] == oracle_vectors

    def test_k_sample_grid_degree_two(self):
        for tag in ("I", "II", "VIII"):
            for k in K_SAMPLES:
                X = build_bianchi(BianchiModel.from_tag(tag, k))
                basis = kernel_basis(X, 2)
                oracle_vectors, _ = oracle.kernel_oracle(X, 2)
                assert oracle.same_subspace(
                    [list(v) for v in basis.vectors], oracle_vectors
                )


class TestKernelContents:
    def test_every_kernel_polynomial_annihilates(self):
        for tag in sorted(BIANCHI_TABLE):
            X = build_bianchi(BianchiModel.from_tag(tag, Fraction(2, 3)))
            for m in (1, 2, 3):
                basis = kernel_basis(X, m)
                for p in basis.polynomials:
                    assert lie_derivative(X, p).is_zero()
                    assert p.is_homogeneous() and p.total_degree() == m
                    assert p.leading_coefficient() == 1

    def test_type_II_powers(self):
        x = [MultiPoly.variable(6, i) for i in range(6)]
        X = build_bianchi(BianchiModel.from_tag("II", Fraction(1, 2)))
        for m in range(1, 5):
            basis = kernel_basis(X, m)
            assert basis.dimension == 1
            assert basis.polynomials[0] == (x[4] - x[5]) ** m

    def test_type_I_dimension_growth(self):
        X = build_bianchi(BianchiModel.from_tag("I", Fraction(1, 2)))
        dims = [kernel_basis(X, m).dimension for m in range(1, 5)]
        assert dims == [2, 3, 4, 5]

    def test_nonintegrable_models_have_empty_kernels(self):
        for tag in ("VI0", "VII0", "VIII", "IX"):
            for k in K_SAMPLES:
                X = build_bianchi(BianchiModel.from_tag(tag, k))
                for m in (1, 2, 3):
                    assert kernel_basis(X, m).dimension == 0

    def test_symbolic_mode_matches_fixed_k_for_integrable_models(self):
        for tag in ("I", "II"):
            Xs = build_bianchi(BianchiModel.from_tag(tag, None))
            for m in (1, 2, 3):
                assert kernel_basis(Xs, m).dimension == expected_dimension(tag, m)

    def test_soundness_recheck_path(self, monkeypatch):
        # the re-check runs on every call: silent on a correct kernel ...
        X = build_bianchi(BianchiModel.from_tag("II", Fraction(1, 2)))
        kernel_basis(X, 3)

        # ... and raises on a vector that is not in it
        def wrong_kernel(rows, ncols):
            return [tuple(Fraction(int(j == 0)) for j in range(ncols))], ncols - 1

        monkeypatch.setattr(engine, "sparse_kernel_basis", wrong_kernel)
        with pytest.raises(SoundnessError):
            kernel_basis(X, 3)


class TestDegreeSweep:
    def test_report_shape_and_pass(self):
        report = degree_sweep(BianchiModel.from_tag("II", Fraction(1, 2)), m_max=4)
        assert report.passed
        assert report.dimensions == [1, 1, 1, 1]
        d = report.to_dict()
        assert d["model"] == "II"
        assert d["mode"] == "fixed-k"
        assert d["pass"] is True
        assert d["engine"]["pivot_rule"] == "first-nonzero"
        assert d["engine"]["m_max"] == 4
        assert "verified up to degree 4" in d["note"]
        assert [rec["dim"] for rec in d["degrees"]] == [1, 1, 1, 1]

    def test_symbolic_sweep_IX(self):
        report = degree_sweep(BianchiModel.from_tag("IX", None), m_max=3)
        assert report.passed
        assert report.mode == "symbolic-k"
        assert report.dimensions == [0, 0, 0]

    def test_expected_tables(self):
        hand = {"I": [2, 3, 4, 5, 6, 7, 8, 9], "II": [1] * 8}
        for tag in BIANCHI_TABLE:
            assert [expected_dimension(tag, m) for m in range(1, 9)] == hand.get(tag, [0] * 8), tag
        x = [MultiPoly.variable(6, i) for i in range(6)]
        assert expected_basis("II", 3) == [(x[4] - x[5]) ** 3]
        assert expected_basis("I", 1) == [x[3] - x[4], x[3] - x[5]]
        assert expected_basis("IX", 2) is None


class TestIndependenceRank:
    def test_constants(self):
        assert PRIMARY_RANK_POINT == (1, 2, 3, 5, 7, 11)
        assert RETRY_RANK_POINT == (2, 3, 5, 7, 11, 13)

    def test_exact_gradients_full_rank(self):
        x = [MultiPoly.variable(6, i) for i in range(6)]
        fields = [x[3] - x[4], x[3] - x[5]]
        result = independence_rank(fields)
        assert result.rank == 2
        assert not result.retried
        assert result.smallest_retained_sv > 1e-6

    def test_dependent_fields_trigger_retry_and_stay_deficient(self):
        x = [MultiPoly.variable(6, i) for i in range(6)]
        fields = [x[3] - x[4], 2 * (x[3] - x[4])]
        result = independence_rank(fields)
        assert result.rank == 1
        assert result.retried

    def test_callable_fields_central_difference(self):
        fields = [
            lambda v: v[3] - v[4],
            lambda v: (v[3] - v[5]) ** 2,
        ]
        result = independence_rank(fields)
        assert result.rank == 2

    def test_point_dependent_degeneracy_recovers_on_retry(self):
        # vanishing gradient at the primary point only
        x = [MultiPoly.variable(6, i) for i in range(6)]
        p = (x[0] - 1) ** 2  # gradient 0 at x1=1 (primary), nonzero at x1=2
        result = independence_rank([p])
        assert result.retried
        assert result.rank == 1
        assert result.point == RETRY_RANK_POINT

    def test_to_dict(self):
        x = [MultiPoly.variable(6, i) for i in range(6)]
        d = independence_rank([x[3] - x[4]]).to_dict()
        assert d["rank"] == 1
        assert d["sv_tol"] == 1e-6
        assert d["point"] == ["1", "2", "3", "5", "7", "11"]
