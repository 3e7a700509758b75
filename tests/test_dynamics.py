import io
import math
from fractions import Fraction

import numpy as np
import pytest

from bianchi_integrals import dynamics
from bianchi_integrals.dynamics import (
    coefficient_matrix,
    drift_report,
    energy_invariant,
    integrate,
    monitor_invariant,
    rhs,
    standard_invariants,
    transcendental_invariant,
    write_trajectory_csv,
)
from bianchi_integrals.cli import DEFAULT_X0, DEFAULT_X0_GENERIC
from bianchi_integrals.vectorfields import (
    MODEL_TAGS,
    BianchiModel,
    build_bianchi,
    build_F,
    polynomial_integrals,
)

from conftest import drift_entry, exponent_terms

EPS = np.finfo(float).eps
X0_IX = (1.0, 1.0, 1.0, 1.0, 2.0, 3.0)
X0_GENERIC = (1.0, 2.0, 3.0, 1.0, 2.0, 4.0)


class TestRhs:
    def test_hand_value_type_IX(self):
        # at x = (1,1,1,1,2,3), k = 1/2:
        # F = 1+1+1-2-2-2 + 1+4+9-4-6-12 = -11; q = -1/8 * -11 = 11/8
        C = coefficient_matrix(BianchiModel("IX", Fraction(1, 2)))
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
                    approx = rhs(coefficient_matrix(BianchiModel(tag, k)), x)
                    assert np.allclose(approx, exact, rtol=1e-14, atol=0), (tag, k, point)

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_entries_are_the_floats_of_the_exact_coefficients(self, tag):
        # C is read off the model's own exact field: each entry is the
        # correctly rounded float of its rational coefficient.
        for k in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(4, 7),
                  Fraction(2, 3), Fraction(9, 10)):
            X = build_bianchi(tag, k)
            C = coefficient_matrix(BianchiModel(tag, k))
            for col, (i, j) in enumerate(dynamics._PAIRS):
                mono = tuple((v == i) + (v == j) for v in range(6))
                for row in range(6):
                    assert C[row, col] == float(exponent_terms(X[row]).get(mono, 0)), (k, row, mono)
        # (k - 1)/4 at k = 9/10 is float(-1/40) = -0.025.
        c = coefficient_matrix(BianchiModel(tag, Fraction(9, 10)))[3, dynamics._PAIRS.index((3, 3))]
        assert c == -0.025


class TestIntegrate:
    def test_completes_with_defaults(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, 1.0, 1e-12)
        assert traj.ok
        assert traj.status == "completed"
        assert traj.t[0] == 0.0
        assert traj.t[-1] == pytest.approx(1.0)
        assert traj.x.shape == (len(traj.t), 6)
        assert traj.n_accepted == len(traj.t) - 1
        assert np.all(np.diff(traj.t) > 0)

    def test_deterministic(self):
        model = BianchiModel("IX", Fraction(1, 2))
        t1 = integrate(model, X0_IX, 1.0, 1e-12)
        t2 = integrate(model, X0_IX, 1.0, 1e-12)
        assert np.array_equal(t1.t, t2.t)
        assert np.array_equal(t1.x, t2.x)

    def test_max_steps_returns_partial_trajectory(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, 1.0, 1e-12)
        assert traj.status == "max_steps"
        assert not traj.ok
        assert traj.t[-1] < 1.0
        assert len(traj.t) >= 1

    def test_symbolic_model_requires_explicit_k(self):
        model = BianchiModel("IX", None)
        with pytest.raises(ValueError):
            integrate(model, X0_IX, 1.0, 1e-12)

    def test_config_validation(self):
        model = BianchiModel("IX", Fraction(1, 2))
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol must be a finite positive number"):
                integrate(model, X0_IX, 1.0, bad)
            with pytest.raises(ValueError, match="t_end must be a finite positive number"):
                integrate(model, X0_IX, bad, 1e-12)

    def test_tighter_tolerance_takes_more_steps(self):
        model = BianchiModel("IX", Fraction(1, 2))
        loose = integrate(model, X0_IX, 1.0, 1e-6)
        tight = integrate(model, X0_IX, 1.0, 1e-12)
        assert tight.n_accepted > loose.n_accepted

    def test_accuracy_against_tight_reference(self):
        model = BianchiModel("IX", Fraction(1, 2))
        ref = integrate(model, X0_IX, 1.0, 1e-13)
        coarse = integrate(model, X0_IX, 1.0, 1e-8)
        assert np.allclose(coarse.x[-1], ref.x[-1], rtol=1e-6, atol=1e-6)

    def test_first_step_is_the_stage_sums(self):
        # The stacked stages against the textbook sums, one stage at a time:
        # only the order of the float additions differs.
        traj = integrate(BianchiModel("IX", Fraction(1, 2)), X0_IX, 1.0, 1e-12)
        C = coefficient_matrix(BianchiModel("IX", Fraction(1, 2)))
        h = traj.t[1]
        stages = []
        for row in dynamics._A:  # the input of the last stage is y5
            yi = np.array(X0_IX) + h * sum(a * ki for a, ki in zip(row, stages))
            stages.append(rhs(C, yi))
        assert np.allclose(traj.x[1], yi, rtol=1e-14, atol=0)

    def test_rejected_steps_keep_the_first_stage(self, monkeypatch):
        # VI0 at tol 1e-6 rejects trial steps.  A rejected step must leave
        # the first stage at the current state: the retry costs six rhs
        # calls, like every step, and lands on the tight orbit.
        model = BianchiModel("VI0", Fraction(1, 2))
        calls = []

        def counting_rhs(C, x):
            calls.append(None)
            return rhs(C, x)

        monkeypatch.setattr(dynamics, "rhs", counting_rhs)
        traj = integrate(model, X0_GENERIC, 1.0, 1e-6)
        assert traj.ok and traj.n_rejected >= 1
        assert len(calls) == 6 * (traj.n_accepted + traj.n_rejected) + 1
        ref = integrate(model, X0_GENERIC, 1.0, 1e-12)
        assert ref.ok
        assert np.linalg.norm(traj.x[-1] - ref.x[-1]) <= 1e-4 * np.linalg.norm(ref.x[-1])


def _type_I_constants(x0):
    """u = x4 - x5, v = x4 - x6, s0 = x4 + x5 + x6 and Delta = u^2 - uv + v^2 at x0."""
    x4, x5, x6 = x0[3:]
    u, v = x4 - x5, x4 - x6
    return u, v, x4 + x5 + x6, u * u - u * v + v * v


def _type_I_orbit(x0, k, t):
    """Type I's exact orbit at time t.  u and v are constant, and
    s = x4 + x5 + x6 solves s' = (1 - k)/4 (s^2 - 4 Delta).  For i <= 3,
    x_i = x_i(0) e^(lambda_i t) |(s^2 - 4 Delta)/(s0^2 - 4 Delta)|^(2/(3(1 - k)))."""
    u, v, s0, delta = _type_I_constants(x0)
    a = 2 * math.sqrt(delta)
    e = (s0 - a) / (s0 + a) * math.exp((1 - k) * a / 2 * t)
    s = a * (1 + e) / (1 - e)
    scale = abs((s * s - 4 * delta) / (s0 * s0 - 4 * delta)) ** (2 / (3 * (1 - k)))
    lam = (-2 * (u + v) / 3, (4 * u - 2 * v) / 3, (4 * v - 2 * u) / 3)
    head = [xi * math.exp(li * t) * scale for xi, li in zip(x0[:3], lam)]
    return np.array(head + [(s + u + v) / 3, (s - 2 * u + v) / 3, (s + u - 2 * v) / 3])


def _type_I_blowup_time(x0, k):
    """t* = log((s0 + 2 sqrt Delta)/(s0 - 2 sqrt Delta))/((1 - k) sqrt Delta), for s0 > 2 sqrt Delta."""
    _, _, s0, delta = _type_I_constants(x0)
    r = math.sqrt(delta)
    return math.log((s0 + 2 * r) / (s0 - 2 * r)) / ((1 - k) * r)


class TestTypeIExactOrbit:
    """integrate against type I's closed-form orbit from X0_GENERIC at
    k = 1/2, which blows up at t* = 1.4917: the true global error, not an
    invariant's drift."""

    MODEL = BianchiModel("I", Fraction(1, 2))

    def global_error(self, tol):
        """max over the coordinates of |error|/(1 + |x|) at t = 1."""
        traj = integrate(self.MODEL, X0_GENERIC, 1.0, tol)
        assert traj.ok
        exact = _type_I_orbit(X0_GENERIC, 0.5, traj.t[-1])
        return np.max(np.abs(traj.x[-1] - exact) / (1 + np.abs(exact)))

    def test_closed_form_solves_the_field(self):
        C, h = coefficient_matrix(self.MODEL), 1e-6
        for t in (0.0, 0.7, 1.4):
            x = _type_I_orbit(X0_GENERIC, 0.5, t)
            slope = (_type_I_orbit(X0_GENERIC, 0.5, t + h) - _type_I_orbit(X0_GENERIC, 0.5, t - h)) / (2 * h)
            assert np.allclose(slope, rhs(C, x), rtol=1e-6, atol=1e-6)
        assert np.array_equal(_type_I_orbit(X0_GENERIC, 0.5, 0.0), np.array(X0_GENERIC))

    @pytest.mark.parametrize("tol", [1e-8, 1e-10, 1e-12])
    def test_global_error_is_within_twice_the_tolerance(self, tol):
        assert self.global_error(tol) <= 2 * tol

    def test_halving_the_tolerance_lowers_the_global_error(self):
        # Criterion 7's rule, on the true error rather than on a drift.
        assert 1.5 * self.global_error(5e-13) <= self.global_error(1e-12)

    def test_an_orbit_past_the_blowup_stops_at_it(self):
        t_star = _type_I_blowup_time(X0_GENERIC, 0.5)
        assert t_star == pytest.approx(1.491669994709865, rel=1e-14)
        traj = integrate(self.MODEL, X0_GENERIC, 2.0, 1e-12)
        assert traj.status == "step_underflow"
        assert abs(traj.t[-1] - t_star) <= 1e-9 * t_star


class TestTableau:
    """The float Dormand-Prince tableau against its exact rationals, which are
    read back from the floats (every denominator is below 10^6)."""

    NODES = [Fraction(n, d) for n, d in ((0, 1), (1, 5), (3, 10), (4, 5), (8, 9), (1, 1), (1, 1))]

    @staticmethod
    def exact(values):
        out = [Fraction(v).limit_denominator(10**6) for v in values]
        assert [float(q) for q in out] == list(values)
        return out

    def test_rows_are_strictly_lower_and_sum_to_the_nodes(self):
        assert dynamics._A.shape == (7, 7)
        assert not np.triu(dynamics._A).any()
        assert [sum(self.exact(row)) for row in dynamics._A] == self.NODES

    def test_b5_is_the_last_row_and_has_order_5(self):
        assert np.array_equal(dynamics._B5, dynamics._A[6])
        b5 = self.exact(dynamics._B5)
        for q in range(1, 6):
            assert sum(b * c ** (q - 1) for b, c in zip(b5, self.NODES)) == Fraction(1, q)

    def test_error_weights_are_b5_minus_b4_and_sum_to_zero(self):
        assert np.array_equal(dynamics._E, dynamics._B5 - dynamics._B4)
        b4 = self.exact(dynamics._B4)
        assert sum(b - d for b, d in zip(self.exact(dynamics._B5), b4)) == 0
        for q in range(1, 5):
            assert sum(b * c ** (q - 1) for b, c in zip(b4, self.NODES)) == Fraction(1, q)


class TestInvariants:
    def test_linear_drift_model_I(self):
        model = BianchiModel("I", Fraction(1, 2))
        traj = integrate(model, X0_GENERIC, 1.0, 1e-12)
        assert traj.ok
        report = drift_report(traj, standard_invariants(model))
        for name in ("x4-x5", "x4-x6"):
            entry = drift_entry(report, name)
            assert not entry["domain_violation"]
            assert entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-10

    def test_linear_drift_model_II(self):
        model = BianchiModel("II", Fraction(1, 2))
        traj = integrate(model, X0_GENERIC, 1.0, 1e-12)
        report = drift_report(traj, standard_invariants(model))
        assert drift_entry(report, "x5-x6")["max_relative_drift"] < 1e-10

    def test_energy_drift_all_models(self):
        # t_end short of 1 because the VIII orbit from this start blows up
        # in finite time near t = 0.585
        for tag in ("I", "II", "VI0", "VII0", "VIII", "IX"):
            model = BianchiModel(tag, Fraction(1, 2))
            x0 = X0_IX if tag == "IX" else X0_GENERIC
            traj = integrate(model, x0, 0.5, 1e-12)
            assert traj.ok
            report = drift_report(traj, standard_invariants(model))
            entry = drift_entry(report, "H")
            assert not entry["domain_violation"]
            assert entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-8, (tag, entry["max_relative_drift"])

    def test_transcendental_drift_model_I(self):
        model = BianchiModel("I", Fraction(1, 2))
        traj = integrate(model, X0_GENERIC, 1.0, 1e-12)
        report = drift_report(traj, standard_invariants(model))
        for name in ("trans(x1/x2)", "trans(x2/x3)"):
            entry = drift_entry(report, name)
            assert not entry["domain_violation"]
            assert entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-6

    def test_energy_domain_error(self):
        inv = energy_invariant((1, 1, 1), 0.5)
        assert math.isnan(inv((-1.0, 1.0, 1.0, 0.0, 0.0, 0.0)))
        values = inv(list(np.array([(-1.0, 1.0, 1.0, 1.0, 2.0, 3.0), (1.0, 0.0, 1.0, 1.0, 2.0, 3.0),
                                    X0_IX]).T))
        assert np.isnan(values[:2]).all() and values[2] == pytest.approx(inv(X0_IX), rel=1e-15)

    def test_transcendental_domain_error(self):
        inv = transcendental_invariant(0.5, 0, 1)
        assert math.isnan(inv((-1.0, 1.0, 1.0, 1.0, 2.0, 3.0)))
        assert math.isnan(inv((1.0, 1.0, 1.0, 2.0, 2.0, 2.0)))  # degenerate discriminant
        # s -+ 2 sqrt(D) both negative: R > 0, but the point is out of the domain.
        assert math.isnan(inv((1.0, 1.0, 1.0, -1.0, -2.0, -4.0)))
        # The same points as columns, with one point inside the domain, and no warning.
        points = [(-1.0, 1.0, 1.0, 1.0, 2.0, 3.0), (1.0, 1.0, 1.0, 2.0, 2.0, 2.0),
                  (1.0, 1.0, 1.0, -1.0, -2.0, -4.0), (1.0, 0.0, 3.0, 1.0, 2.0, 4.0), X0_GENERIC]
        values = inv(list(np.array(points).T))
        assert np.isnan(values[:4]).all() and values[4] == pytest.approx(inv(X0_GENERIC), rel=1e-15)

    @pytest.mark.filterwarnings("error")
    def test_transcendental_on_the_x2_hyperplane_is_flagged_without_warning(self):
        # x2 = 0 is invariant: x1/x2 divides by zero and x2/x3 is 0.
        model = BianchiModel("I", Fraction(1, 2))
        traj = integrate(model, (1.0, 0.0, 3.0, 1.0, 2.0, 4.0), 0.1, 1e-12)
        assert traj.ok and not traj.x[:, 1].any()
        report = drift_report(traj, standard_invariants(model))
        for name in ("trans(x1/x2)", "trans(x2/x3)"):
            entry = drift_entry(report, name)
            assert entry["domain_violation"] and entry["initial_value"] is None
        assert not drift_entry(report, "x4-x5")["domain_violation"]
        assert math.isnan(transcendental_invariant(0.5, 0, 1)((1.0, 0.0, 3.0, 1.0, 2.0, 4.0)))

    def test_monitor_flags_domain_violations_without_crashing(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, 0.1, 1e-12)

        def bad(x):
            return math.nan  # always out of domain

        entry = monitor_invariant(traj, bad, "bad")
        assert entry["domain_violation"]
        assert entry["initial_value"] is None
        assert entry["max_relative_drift"] is None

    def test_monitor_skips_non_finite(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, 0.05, 1e-12)

        def flaky(x):
            values = np.ones(len(x[0]))
            values[1] = math.inf
            return values

        entry = monitor_invariant(traj, flaky, "flaky")
        assert entry["domain_violation"]
        assert entry["max_relative_drift"] == 0.0

    @staticmethod
    def _rows_then(values):
        """A trajectory of len(values) rows and a column invariant that gives,
        on row i, values[i]: nan outside its domain, inf for an overflow."""
        n = len(values)
        traj = dynamics.Trajectory(np.arange(float(n)), np.arange(6.0 * n).reshape(n, 6),
                                   "completed", n - 1, 0)

        def inv(x):
            return np.array(values)[(x[0] // 6).astype(int)]

        return traj, inv

    def test_monitor_starts_at_the_first_defined_value_and_takes_the_largest_drift(self):
        traj, inv = self._rows_then([math.nan, math.nan, -4.0, 1.0, -10.0, -3.0])
        entry = monitor_invariant(traj, inv, "late")
        assert entry["initial_value"] == -4.0
        # |v - v0| / max(1, |v0|) over 1.0, -10.0, -3.0: 5/4, 6/4, 1/4.
        assert entry["max_relative_drift"] == 1.5
        assert entry["domain_violation"]
        # Below |v0| = 1 the drift is absolute.
        traj, inv = self._rows_then([0.5, 0.25, 0.875])
        entry = monitor_invariant(traj, inv, "small")
        assert entry == {"name": "small", "initial_value": 0.5, "max_relative_drift": 0.375,
                         "domain_violation": False}

    def test_monitor_skips_overflow_and_nan_rows(self):
        for bad in (math.inf, -math.inf, math.nan):
            traj, inv = self._rows_then([2.0, bad, 2.5, bad, 1.75])
            entry = monitor_invariant(traj, inv, "flagged")
            assert entry["initial_value"] == 2.0
            assert entry["max_relative_drift"] == 0.25
            assert entry["domain_violation"]

    def test_standard_invariant_names(self):
        assert list(standard_invariants(BianchiModel("I", Fraction(1, 2)))) == [
            "x4-x5", "x4-x6", "trans(x1/x2)", "trans(x2/x3)", "H",
        ]
        assert list(standard_invariants(BianchiModel("II", Fraction(1, 2)))) == [
            "x5-x6", "H",
        ]
        assert list(standard_invariants(BianchiModel("IX", Fraction(1, 2)))) == ["H"]


def _energy_row(n, k):
    """H on one row of Python floats, by the per-row rule: nan off x1 x2 x3 > 0."""
    F = build_F(*n).evaluate

    def fn(x):
        w = x[0] * x[1] * x[2]
        return w ** ((k - 1) / 2) * F(x) if w > 0 else math.nan

    return fn


def _transcendental_row(k, i, j):
    """T_ij on one row of Python floats, with math and an if for each domain test."""

    def fn(x):
        x4, x5, x6 = x[3:]
        base = x[i] / x[j] if x[j] else math.nan
        d = x4 * x4 + x5 * x5 + x6 * x6 - x4 * x5 - x4 * x6 - x5 * x6
        if not (base > 0 and d > 0):
            return math.nan
        root = math.sqrt(d)
        s = x4 + x5 + x6
        num, den = s - 2 * root, s + 2 * root
        if num <= 0 or den <= 0:
            return math.nan
        return base ** ((1 - k) / 2) * (num / den) ** ((x[i + 3] - x[j + 3]) / root)

    return fn


def _magnitude(p):
    """The sum of the absolute values of p's terms on a row of floats."""
    q = p.map_coefficients(abs)
    return lambda x: q.evaluate([abs(v) for v in x])


def _per_row(fn, traj):
    """fn on each trajectory row in turn; a float power out of range is nan."""
    values = []
    for row in traj.x.tolist():
        try:
            values.append(fn(row))
        except OverflowError:
            values.append(math.nan)
    return np.array(values)


class TestColumnsAgainstRows:
    """The whole-trajectory invariants and CSV rows against the per-row loops
    they replace, along each model's default orbit (the CLI's start, t_end 1,
    tol 1e-12), cut at 5000 steps so that the orbits which run into their step
    budget stay cheap."""

    @pytest.fixture(params=[Fraction(0), Fraction(1, 2), Fraction(9, 10)], ids=str)
    def k(self, request):
        return request.param

    @pytest.fixture(params=MODEL_TAGS)
    def orbit(self, request, k, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 5000)
        model = BianchiModel(request.param, k)
        start = DEFAULT_X0.get(model.tag, DEFAULT_X0_GENERIC)
        return model, integrate(model, [float(Fraction(v)) for v in start.split(",")], 1.0, 1e-12)

    def test_invariants_match_the_row_loop(self, orbit):
        # The error bound is relative to the sum of the absolute values of the
        # terms: F and the linear integrals cancel, and the per-row loop's
        # x ** 2 (libm pow) and the columns' square may differ in the last bit.
        model, traj = orbit
        kf = float(model.k)
        rows = {}  # name -> (value on a row, the scale of its rounding error)
        for p in polynomial_integrals(model.tag):
            rows[p.to_text().replace(" ", "")] = (p.evaluate, _magnitude(p))
        if model.tag == "I":
            for i, j in ((0, 1), (1, 2)):
                T = _transcendental_row(kf, i, j)
                rows["trans(x%d/x%d)" % (i + 1, j + 1)] = (T, lambda x, T=T: abs(T(x)))
        F = _magnitude(build_F(*model.n))
        rows["H"] = (_energy_row(model.n, kf),
                     lambda x: (x[0] * x[1] * x[2]) ** ((kf - 1) / 2) * F(x))
        columns = standard_invariants(model)
        assert list(columns) == list(rows)
        for name, inv in columns.items():
            value, scale = rows[name]
            with np.errstate(all="ignore"):
                got = inv(list(traj.x.T))
            want = _per_row(value, traj)
            assert got.shape == want.shape
            assert np.array_equal(np.isnan(got), np.isnan(want)), name
            for g, w, row in zip(got.tolist(), want.tolist(), traj.x.tolist()):
                if not math.isnan(w):
                    assert abs(g - w) <= 16 * EPS * scale(row), (name, row)

    def test_csv_bytes_match_the_row_join(self, orbit):
        _, traj = orbit
        buf = io.StringIO()
        write_trajectory_csv(traj, buf)
        want = "t,x1,x2,x3,x4,x5,x6\n" + "".join(
            "%.17g,%s\n" % (t, ",".join("%.17g" % v for v in row)) for t, row in zip(traj.t, traj.x))
        assert buf.getvalue().encode() == want.encode()


class TestCsv:
    def test_header_and_precision(self):
        model = BianchiModel("IX", Fraction(1, 2))
        traj = integrate(model, X0_IX, 0.01, 1e-12)
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
