"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Criterion 7's tolerance-halving subcheck checks each invariant against what
DOPRI5 promises.  Global error is roughly proportional to the tolerance
(Hairer-Norsett-Wanner I, section II.4), so halving the tolerance about
halves the drift of the energy integral H, which the method does not
conserve by construction.  Every Runge-Kutta method preserves linear
invariants exactly (Hairer-Lubich-Wanner, Geometric Numerical Integration,
section IV.1), so the drift of x5-x6 stays at roundoff whatever the
tolerance.
"""

import time
from argparse import Namespace
from fractions import Fraction

from bianchi_integrals.cli import _lemma_dificil
from bianchi_integrals.coefficients import SYMBOLIC_K
from bianchi_integrals.dynamics import (
    IntegratorConfig,
    drift_report,
    integrate,
    standard_invariants,
)
from bianchi_integrals.engine import (
    _f123,
    independence_rank,
    kernel_basis,
    lemma_estrella_solve,
    sn_recursion_check,
)
from bianchi_integrals.multipoly import MultiPoly
from bianchi_integrals.vectorfields import (
    BianchiModel,
    build_bianchi,
    lie_derivative,
    verify_weighted_power_integral,
)

import oracle
from conftest import drift_entry, kernel_vectors, model_fields

K_SAMPLES = (Fraction(0), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))
ALL_TAGS = ("I", "II", "VI0", "VII0", "VIII", "IX")


def emit(capsys, num, ok, detail):
    with capsys.disabled():
        print("[criterion %d] %s: %s" % (num, "PASS" if ok else "FAIL", detail))


def test_criterion_1_bianchi_II_kernel(capsys):
    """Dimension exactly 1 with basis (x5-x6)^m, k samples, degrees 1-4, <60s."""
    x = [MultiPoly.variable(6, i) for i in range(6)]
    start = time.monotonic()
    ok = True
    for k in K_SAMPLES:
        X = build_bianchi("II", k)
        for m in range(1, 5):
            basis = kernel_basis([X], m)
            ok &= basis == [(x[4] - x[5]) ** m]
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    emit(capsys, 1, ok, "dim 1 with basis (x5-x6)^m for 4 k-values, degrees 1-4 "
         "(%.1fs)" % elapsed)
    assert ok


def test_criterion_2_no_integrals_bounded_degree(capsys):
    """VI0/VII0/VIII/IX: dimension 0 at degrees 1-4, fixed and symbolic k, <10min."""
    start = time.monotonic()
    ok = True
    for tag in ("VI0", "VII0", "VIII", "IX"):
        for k in list(K_SAMPLES) + [None]:
            fields = model_fields(tag, k)
            for m in range(1, 5):
                ok &= len(kernel_basis(fields, m)) == 0
    elapsed = time.monotonic() - start
    ok &= elapsed < 600.0
    emit(capsys, 2, ok, "dimension 0 at degrees 1-4 for VI0/VII0/VIII/IX, "
         "4 k-values plus symbolic (%.1fs)" % elapsed)
    assert ok


def test_criterion_3_bianchi_I_kernel_and_rank(capsys):
    """Degree-1 basis exact; dim m+1 oracle-confirmed for m<=3; rank 5, exact and float."""
    from bianchi_integrals import dynamics

    x = [MultiPoly.variable(6, i) for i in range(6)]
    ok = True
    fields = [build_bianchi("I", Fraction(1, 2))]
    basis1 = kernel_basis(fields, 1)
    ok &= basis1 == [x[3] - x[4], x[3] - x[5]]
    for m in (1, 2, 3):
        oracle_vectors, _ = oracle.kernel_oracle(fields, m)
        ok &= len(oracle_vectors) == m + 1  # oracle confirms before asserting
        ok &= len(kernel_basis(fields, m)) == m + 1
    k = 0.5
    fields = [
        x[3] - x[4],
        x[3] - x[5],
        dynamics.energy_invariant((0, 0, 0), k),
        dynamics.transcendental_invariant(k, 0, 1),
        dynamics.transcendental_invariant(k, 1, 2),
    ]
    float_rank, smallest = oracle.float_rank(fields, (1, 2, 3, 5, 7, 11))
    ok &= float_rank == 5 and smallest > 1e-6
    ok &= independence_rank("I", Fraction(1, 2)) == (5, 5)
    emit(capsys, 3, ok, "degree-1 basis {x4-x5, x4-x6}, dim m+1 for m<=3 "
         "(oracle-confirmed), independence rank 5 exact and in floats "
         "(smallest sv %.3g)" % smallest)
    assert ok


def test_criterion_4_energy_identity_symbolic(capsys):
    """Weighted-power energy integral verified as an identity in Q[k], all models.

    The residual is affine in k, so it is zero in Q[k] when it is zero at
    both k of SYMBOLIC_K.
    """
    ok = True
    for tag in ALL_TAGS:
        for k in SYMBOLIC_K:
            passed, witness = verify_weighted_power_integral(build_bianchi(tag, k), tag, k)
            ok &= passed and not witness
    emit(capsys, 4, ok, "energy integral identity holds symbolically in k "
         "for all six models with zero witness")
    assert ok


def test_criterion_5_lemma_suites(capsys):
    """Three-variable PDE analyzers and the recursion identity."""
    ok = True
    # 20 triples satisfying (a1-a2)^2 + (a1-a3)^2 != 0: dimension 0, degrees <= 4
    triples = []
    vals = [Fraction(v) for v in (-2, -1, 0, 1, 2, 3)]
    for a1 in vals:
        for a2 in vals:
            for a3 in vals:
                if (a1 - a2) ** 2 + (a1 - a3) ** 2 != 0:
                    triples.append((a1, a2, a3))
    triples = triples[:20]
    assert len(triples) == 20
    for a1, a2, a3 in triples:
        for m in range(1, 5):
            ok &= len(lemma_estrella_solve(a1, a2, a3, Fraction(1, 2), m)) == 0
    # resonant containment: a = m(k-1)/2 admits F123^m at degree 2m
    F = _f123()
    for k in (Fraction(0), Fraction(1, 2)):
        for m in (1, 2, 3):
            a = m * (k - 1) / 2
            basis = lemma_estrella_solve(a, a, a, k, 2 * m)
            target = F ** m
            target = target / target.leading_coefficient()
            ok &= any(p == target for p in basis)
    # hard PDE: only g = 0, h = c (x4-x6)^n
    for n in (2, 3, 4, 5):
        for k in (Fraction(0), Fraction(1, 2), Fraction(9, 10)):
            sol = _lemma_dificil(Namespace(k=k, n=n))["solution"]
            ok &= sol["dimension"] == 1 and sol["conforms"]
    # recursion identity
    for n in range(2, 7):
        ok &= sn_recursion_check(n)
    emit(capsys, 5, ok, "20 generic triples dim 0 (degrees 1-4), resonant "
         "F123^m containment (m<=3), hard PDE trivial kernel (n<=5), "
         "recursion identity (n=2..6)")
    assert ok


def test_criterion_6_oracle_equivalence(capsys):
    """Sparse engine vs naive dense elimination: same dimensions, same subspaces."""
    ok = True
    for tag in ALL_TAGS:
        for k in (Fraction(0), Fraction(1, 2)):
            fields = [build_bianchi(tag, k)]
            for m in (1, 2, 3):
                oracle_vectors, _ = oracle.kernel_oracle(fields, m)
                ok &= len(kernel_basis(fields, m)) == len(oracle_vectors)
                ok &= oracle.same_subspace(kernel_vectors(fields, m), oracle_vectors)
    emit(capsys, 6, ok, "kernels agree with the independent dense oracle "
         "(dimension and mutual membership) for 6 models x 2 k x degrees 1-3")
    assert ok


def test_criterion_7_dynamics_conservation(capsys):
    """Drift bounds at defaults, plus the tolerance-halving subcheck.

    The subcheck integrates the type II orbit at the default tolerance and
    at half of it, and checks each invariant against what DOPRI5 promises:

    (a) The energy integral H is not conserved by construction, and the
        global error of DOPRI5 is roughly proportional to the tolerance
        (Hairer-Norsett-Wanner I, section II.4).  Halving the tolerance
        should cut the H drift about 2x; a tolerance with no effect gives
        1x.  Required: H drift at the base tolerance >= 1.5 times the H
        drift at half of it.
    (b) Every Runge-Kutta method preserves linear invariants exactly
        (Hairer-Lubich-Wanner, Geometric Numerical Integration, section
        IV.1), so the drift of x5-x6 is roundoff and does not depend on
        the tolerance.  Required: x5-x6 drift < 1e-13 in both runs, below
        the ~3.6e-13 that the base tolerance itself allows for H.
    """
    ok = True
    details = []
    cfg = IntegratorConfig()  # t in [0,1], tol 1e-12
    x0_of = {
        "I": (1.0, 2.0, 3.0, 1.0, 2.0, 4.0),
        "II": (1.0, 2.0, 3.0, 1.0, 2.0, 4.0),
        "VI0": (1.0, 2.0, 3.0, 1.0, 2.0, 4.0),
        "VII0": (1.0, 2.0, 3.0, 1.0, 2.0, 4.0),
        # scaled start: the VIII orbit from the generic start blows up
        # in finite time before t = 1
        "VIII": (0.25, 0.5, 0.75, 0.25, 0.5, 1.0),
        "IX": (1.0, 1.0, 1.0, 1.0, 2.0, 3.0),
    }
    reports = {}
    for tag in ALL_TAGS:
        model = BianchiModel(tag, Fraction(1, 2))
        traj = integrate(model, x0_of[tag], cfg)
        ok &= traj.ok
        reports[tag] = drift_report(traj, standard_invariants(model))
    # polynomial invariants < 1e-10
    for tag, names in (("I", ("x4-x5", "x4-x6")), ("II", ("x5-x6",))):
        for name in names:
            entry = drift_entry(reports[tag], name)
            ok &= entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-10
    # energy integral < 1e-8
    for tag in ALL_TAGS:
        entry = drift_entry(reports[tag], "H")
        ok &= entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-8
    # transcendental invariants < 1e-6
    for name in ("trans(x1/x2)", "trans(x2/x3)"):
        entry = drift_entry(reports["I"], name)
        ok &= not entry["domain_violation"]
        ok &= entry["max_relative_drift"] is not None and entry["max_relative_drift"] < 1e-6
    details.append("drift bounds at defaults %s" % ("hold" if ok else "fail"))
    # tolerance-halving subcheck on the type II orbit: (a) H drift halves,
    # (b) the linear invariant x5-x6 stays at roundoff in both runs
    model = BianchiModel("II", Fraction(1, 2))
    base = integrate(model, x0_of["II"], cfg)
    half = integrate(
        model,
        x0_of["II"],
        IntegratorConfig(tol=cfg.tol / 2),
    )
    ok &= base.ok and half.ok
    inv = standard_invariants(model)
    r_base = drift_report(base, inv)
    r_half = drift_report(half, inv)
    h_base = drift_entry(r_base, "H")["max_relative_drift"]
    h_half = drift_entry(r_half, "H")["max_relative_drift"]
    halving_ok = h_half > 0 and h_base >= 1.5 * h_half
    ok &= halving_ok
    details.append(
        "tolerance halving %s (H drift %.3g -> %.3g, ratio %.2f, need >= 1.5)"
        % (
            "holds" if halving_ok else "fails",
            h_base,
            h_half,
            h_base / h_half if h_half else float("inf"),
        )
    )
    l_base = drift_entry(r_base, "x5-x6")["max_relative_drift"]
    l_half = drift_entry(r_half, "x5-x6")["max_relative_drift"]
    roundoff_ok = l_base < 1e-13 and l_half < 1e-13
    ok &= roundoff_ok
    details.append(
        "linear invariant at roundoff %s (x5-x6 drift %.3g, %.3g, need < 1e-13)"
        % ("holds" if roundoff_ok else "fails", l_base, l_half)
    )
    emit(capsys, 7, ok, "; ".join(details))
    assert ok


def test_criterion_8_soundness_recheck(capsys):
    """Every kernel polynomial across all runs re-verifies exactly."""
    total = 0
    good = 0
    for tag in ALL_TAGS:
        for k in list(K_SAMPLES) + [None]:
            fields = model_fields(tag, k)
            for m in range(1, 5):
                for p in kernel_basis(fields, m):
                    total += 1
                    if not any(lie_derivative(X, p) for X in fields):
                        good += 1
    ok = total > 0 and good == total
    emit(capsys, 8, ok, "%d/%d kernel polynomials satisfy the annihilation "
         "identity on independent re-evaluation" % (good, total))
    assert ok
