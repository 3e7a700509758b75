import io
import math
from fractions import Fraction

import numpy as np
import pytest

from bianchi_integrals import dynamics
from bianchi_integrals.dynamics import (
    DomainError,
    coefficient_matrix,
    IntegratorConfig,
    drift_report,
    energy_invariant,
    integrate,
    monitor_invariant,
    poly_invariant,
    rhs,
    standard_invariants,
    transcendental_invariant,
    write_trajectory_csv,
)
from bianchi_integrals.multipoly import MultiPoly
from bianchi_integrals.vectorfields import MODEL_TAGS, BianchiModel, build_bianchi

from conftest import drift_entry

X0_IX = (1.0, 1.0, 1.0, 1.0, 2.0, 3.0)
X0_GENERIC = (1.0, 2.0, 3.0, 1.0, 2.0, 4.0)


class TestRhs:
    def test_hand_value_type_IX(self):
        # at x = (1,1,1,1,2,3), k = 1/2:
        # F = 1+1+1-2-2-2 + 1+4+9-4-6-12 = -11; q = -1/8 * -11 = 11/8
        C = coefficient_matrix("IX", 0.5)
        v = rhs(C, np.array(X0_IX))
        assert v[0] == pytest.approx(1.0 * (-1 + 2 + 3))
        assert v[1] == pytest.approx(1.0 * (1 - 2 + 3))
        assert v[2] == pytest.approx(1.0 * (1 + 2 - 3))
        assert v[3] == pytest.approx(1 * (1 - 1 - 1) + 11 / 8)
        assert v[4] == pytest.approx(1 * (-1 + 1 - 1) + 11 / 8)
        assert v[5] == pytest.approx(1 * (-1 - 1 + 1) + 11 / 8)

    def test_matches_exact_vector_field(self):
        points = (
            [Fraction(1), Fraction(2), Fraction(3), Fraction(1), Fraction(2), Fraction(4)],
            [Fraction(3, 2), Fraction(-1, 3), Fraction(5, 7),
             Fraction(2), Fraction(-3, 4), Fraction(9, 5)],
        )
        for tag in MODEL_TAGS:
            for k in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
                X = build_bianchi(tag, k)
                for point in points:
                    exact = [float(c.evaluate(point)) for c in X]
                    x = np.array([float(v) for v in point])
                    approx = rhs(coefficient_matrix(tag, float(k)), x)
                    assert np.allclose(approx, exact, rtol=1e-14, atol=0), (tag, k, point)

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_entries_are_float_c1_times_k_plus_float_c0(self, tag):
        # Each coefficient is c(k) = c0 + c1*k exactly, with c0 = c(0) and
        # c1 = 2*(c(1/2) - c(0)).  C holds float(c1)*k + float(c0), which can
        # differ from float(c(k)) in the last bit; simulate's CSV depends on it.
        at_0, at_half = (build_bianchi(tag, k) for k in (Fraction(0), Fraction(1, 2)))
        for k in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 7),
                  Fraction(2, 3), Fraction(9, 10)):
            C = coefficient_matrix(tag, float(k))
            for col, (i, j) in enumerate(dynamics._PAIRS):
                mono = tuple((v == i) + (v == j) for v in range(6))
                for row in range(6):
                    c0 = at_0[row].terms.get(mono, 0)
                    c1 = 2 * (at_half[row].terms.get(mono, 0) - c0)
                    assert C[row, col] == float(c1) * float(k) + float(c0), (k, row, mono)
        # (k - 1)/4 at k = 9/10, against float(-1/40) = -0.025.
        c = coefficient_matrix(tag, 0.9)[3, dynamics._PAIRS.index((3, 3))]
        assert c == -0.024999999999999994 and c != float(Fraction(-1, 40))


class TestIntegrate:
    def test_completes_with_defaults(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX)
        assert traj.ok
        assert traj.status == "completed"
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(1.0)
        assert traj.x.shape == (len(traj.t), 6)
        assert traj.n_accepted == len(traj.t) - 1
        assert np.all(np.diff(traj.t) > 0)

    def test_deterministic(self):
        model = BianchiModel("IX", Fraction(1, 2))
        t1 = integrate(model, X0_IX)
        t2 = integrate(model, X0_IX)
        assert np.array_equal(t1.t, t2.t)
        assert np.array_equal(t1.x, t2.x)

    def test_max_steps_returns_partial_trajectory(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX)
        assert traj.status == "max_steps"
        assert not traj.ok
        assert traj.t[-1] < 1.0
        assert len(traj.t) >= 1

    def test_symbolic_model_requires_explicit_k(self):
        model = BianchiModel("IX", None)
        with pytest.raises(ValueError):
            integrate(model, X0_IX)

    def test_config_validation(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                IntegratorConfig(tol=bad)
            with pytest.raises(ValueError):
                IntegratorConfig(t_end=bad)

    def test_tighter_tolerance_takes_more_steps(self):
        model = BianchiModel("IX", Fraction(1, 2))
        loose = integrate(model, X0_IX, IntegratorConfig(tol=1e-6))
        tight = integrate(model, X0_IX, IntegratorConfig(tol=1e-12))
        assert tight.n_accepted > loose.n_accepted

    def test_accuracy_against_tight_reference(self):
        model = BianchiModel("IX", Fraction(1, 2))
        ref = integrate(model, X0_IX, IntegratorConfig(tol=1e-13))
        coarse = integrate(model, X0_IX, IntegratorConfig(tol=1e-8))
        assert np.allclose(coarse.x[-1], ref.x[-1], rtol=1e-6, atol=1e-6)


class TestInvariants:
    def test_linear_drift_model_I(self):
        model = BianchiModel("I", Fraction(1, 2))
        traj = integrate(model, X0_GENERIC)
        assert traj.ok
        report = drift_report(traj, standard_invariants(model))
        for name in ("x4-x5", "x4-x6"):
            entry = drift_entry(report, name)
            assert not entry["domain_violation"]
            assert entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-10

    def test_linear_drift_model_II(self):
        model = BianchiModel("II", Fraction(1, 2))
        traj = integrate(model, X0_GENERIC)
        report = drift_report(traj, standard_invariants(model))
        assert drift_entry(report, "x5-x6")["max_relative_drift"] < 1e-10

    def test_energy_drift_all_models(self):
        # t_end short of 1 because the VIII orbit from this start blows up
        # in finite time near t = 0.585
        cfg = IntegratorConfig(t_end=0.5)
        for tag in ("I", "II", "VI0", "VII0", "VIII", "IX"):
            model = BianchiModel(tag, Fraction(1, 2))
            x0 = X0_IX if tag == "IX" else X0_GENERIC
            traj = integrate(model, x0, cfg)
            assert traj.ok
            report = drift_report(traj, standard_invariants(model))
            entry = drift_entry(report, "H")
            assert not entry["domain_violation"]
            assert entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-8, (tag, entry["max_relative_drift"])

    def test_transcendental_drift_model_I(self):
        model = BianchiModel("I", Fraction(1, 2))
        traj = integrate(model, X0_GENERIC)
        report = drift_report(traj, standard_invariants(model))
        for name in ("trans(x1/x2)", "trans(x2/x3)"):
            entry = drift_entry(report, name)
            assert not entry["domain_violation"]
            assert entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-6

    def test_energy_domain_error(self):
        inv = energy_invariant((1, 1, 1), 0.5)
        with pytest.raises(DomainError):
            inv((-1.0, 1.0, 1.0, 0.0, 0.0, 0.0))

    def test_transcendental_domain_error(self):
        inv = transcendental_invariant(0.5, 0, 1)
        with pytest.raises(DomainError):
            inv((-1.0, 1.0, 1.0, 1.0, 2.0, 3.0))
        with pytest.raises(DomainError):
            inv((1.0, 1.0, 1.0, 2.0, 2.0, 2.0))  # degenerate discriminant

    @pytest.mark.filterwarnings("error")
    def test_transcendental_on_the_x2_hyperplane_is_flagged_without_warning(self):
        # x2 = 0 is invariant: x1/x2 divides by zero and x2/x3 is 0.
        model = BianchiModel("I", Fraction(1, 2))
        traj = integrate(model, (1.0, 0.0, 3.0, 1.0, 2.0, 4.0), IntegratorConfig(t_end=0.1))
        assert traj.ok and not traj.x[:, 1].any()
        report = drift_report(traj, standard_invariants(model))
        for name in ("trans(x1/x2)", "trans(x2/x3)"):
            entry = drift_entry(report, name)
            assert entry["domain_violation"] and entry["initial_value"] is None
        assert not drift_entry(report, "x4-x5")["domain_violation"]
        with pytest.raises(DomainError):
            transcendental_invariant(0.5, 0, 1)((1.0, 0.0, 3.0, 1.0, 2.0, 4.0))

    def test_monitor_flags_domain_violations_without_crashing(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, IntegratorConfig(t_end=0.1))

        def bad(x):
            raise DomainError("always out of domain")

        entry = monitor_invariant(traj, bad, "bad")
        assert entry["domain_violation"]
        assert entry["initial_value"] is None
        assert entry["max_relative_drift"] is None

    def test_monitor_skips_non_finite(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, IntegratorConfig(t_end=0.05))
        calls = {"n": 0}

        def flaky(x):
            calls["n"] += 1
            return math.inf if calls["n"] == 2 else 1.0

        entry = monitor_invariant(traj, flaky, "flaky")
        assert entry["domain_violation"]
        assert entry["max_relative_drift"] == 0.0

    def test_standard_invariant_names(self):
        assert list(standard_invariants(BianchiModel("I", Fraction(1, 2)))) == [
            "x4-x5", "x4-x6", "trans(x1/x2)", "trans(x2/x3)", "H",
        ]
        assert list(standard_invariants(BianchiModel("II", Fraction(1, 2)))) == [
            "x5-x6", "H",
        ]
        assert list(standard_invariants(BianchiModel("IX", Fraction(1, 2)))) == ["H"]

    def test_poly_invariant_symbolic_k(self):
        x = [MultiPoly.variable(6, i) for i in range(6)]
        inv = poly_invariant(x[3] - x[4])
        assert inv((0, 0, 0, 5.0, 2.0, 0)) == 3.0


class TestCsv:
    def test_header_and_precision(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, IntegratorConfig(t_end=0.01))
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4,x5,x6"
        assert len(lines) == len(traj.t) + 1
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert [float(v) for v in first[1:]] == list(X0_IX)
        # roundtrip of the final state at full precision
        last = [float(v) for v in lines[-1].split(",")]
        assert last[1:] == list(traj.x[-1])
