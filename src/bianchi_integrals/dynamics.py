"""Floating-point trajectory integration with invariant-drift monitoring.

The stepper is an embedded Dormand-Prince 5(4) pair with PI step-size
control.  Integration failures (step underflow, step budget exhaustion)
return the partial trajectory with a status instead of raising.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from .multipoly import unpack
from .vectorfields import NVARS, BianchiModel, build_F, polynomial_integrals


# Accepted plus rejected steps after which an orbit stops with "max_steps".
MAX_STEPS = 1_000_000


@dataclass
class Trajectory:
    t: np.ndarray  # accepted step times, shape (N,)
    x: np.ndarray  # states, shape (N, 6)
    status: str  # "completed" | "max_steps" | "step_underflow"
    n_accepted: int
    n_rejected: int

    @property
    def ok(self) -> bool:
        return self.status == "completed"


# Index pairs (i, j), i <= j, of the 21 quadratic monomials x_i * x_j.
_PAIRS = [(i, j) for i in range(NVARS) for j in range(i, NVARS)]
_I, _J = np.array(_PAIRS).T


def coefficient_matrix(model: BianchiModel) -> np.ndarray:
    """The 6x21 float matrix C with X(x) = C @ (x_i * x_j for i <= j): the
    float of each exact coefficient of the model's field at its fixed k.
    A symbolic-k model raises ValueError."""
    _float_k(model)
    C = np.zeros((NVARS, len(_PAIRS)))
    for row, comp in enumerate(model.fields[0]):
        for key, coeff in comp.terms.items():
            pair = tuple(v for v, e in enumerate(unpack(key, NVARS)) for _ in range(e))
            C[row, _PAIRS.index(pair)] = float(coeff)
    return C


def rhs(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Float evaluation of the quadratic system with coefficient matrix C."""
    return C.dot(x[_I] * x[_J])


# Dormand-Prince 5(4) tableau.  Row s of _A weighs the earlier stages in the
# input of stage s; the seventh stage is evaluated at the 5th-order solution
# (FSAL), so _B5 is the last row, and _E = _B5 - _B4 gives y5 - y4.
_A = np.array([
    [0, 0, 0, 0, 0, 0, 0],
    [1 / 5, 0, 0, 0, 0, 0, 0],
    [3 / 40, 9 / 40, 0, 0, 0, 0, 0],
    [44 / 45, -56 / 15, 32 / 9, 0, 0, 0, 0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0, 0, 0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0, 0],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0],
])
_B5 = _A[6]
_B4 = np.array([5179 / 57600, 0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

_INITIAL_STEP = 1e-4
_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
# PI controller exponents for a 5th-order error estimate.
_ALPHA = 0.7 / 5.0
_BETA = 0.4 / 5.0


def _float_k(model: BianchiModel) -> float:
    if model.k is None:
        raise ValueError("float evaluation needs a fixed-k model")
    return float(model.k)


def integrate(model: BianchiModel, x0: Sequence[float], t_end: float, tol: float) -> Trajectory:
    """Adaptive RK5(4) orbit from t=0 to t_end, with tol as both the relative
    and the absolute error tolerance; keeps every accepted step."""
    for name, value in (("t_end", t_end), ("tol", tol)):
        if not 0 < value < math.inf:
            raise ValueError("%s must be a finite positive number" % name)
    C = coefficient_matrix(model)
    t = 0.0
    y = np.array([float(v) for v in x0])
    ts = [t]
    ys = [y]
    h = min(_INITIAL_STEP, t_end)
    err_prev = 1.0
    accepted = 0
    rejected = 0
    status = "completed"
    K = np.empty((7, NVARS))  # the stages, one row each
    # A trial step that overflows is rejected: its err is not <= 1.
    with np.errstate(over="ignore", invalid="ignore"):
        K[0] = rhs(C, y)
        while t < t_end:
            if accepted + rejected >= MAX_STEPS:
                status = "max_steps"
                break
            # The last step may be as small as what is left of [0, t_end];
            # only a step that stops short of t_end can underflow.
            if h < 1e-15 * max(1.0, abs(t)) and h < t_end - t:
                status = "step_underflow"
                break
            h = min(h, t_end - t)
            hA = h * _A
            # The input of the last stage is y5, the 5th-order solution (FSAL).
            for s in range(1, 7):
                y5 = y + hA[s, :s].dot(K[:s])
                K[s] = rhs(C, y5)
            # The RMS of (y5 - y4) / (tol * (1 + max(|y|, |y5|))).
            scale = np.maximum(np.abs(y), np.abs(y5))
            scale += 1.0
            r = _E.dot(K) / scale
            err = h / tol * math.sqrt(r.dot(r) / NVARS)
            if err <= 1.0:
                t += h
                y = y5
                K[0] = K[6]  # FSAL
                ts.append(t)
                ys.append(y)
                accepted += 1
                err = max(err, 1e-10)
                factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
                err_prev = err
                h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            else:
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
    return Trajectory(np.array(ts), np.array(ys), status, accepted, rejected)


# -- Invariants ----------------------------------------------------------------


# An invariant maps the six coordinates, as floats or as equal-length float
# arrays, to its value, or to nan outside its domain.  A point out of the
# domain is made nan before any power or division, so it raises no warning.
Invariant = Callable[[Sequence], object]


def energy_invariant(n: Tuple[int, int, int], k: float) -> Invariant:
    """(x1 x2 x3)^((k-1)/2) * F for k < 1; defined where x1 x2 x3 > 0."""
    F = build_F(*n).evaluate

    def fn(x):
        w = x[0] * x[1] * x[2]
        return np.where(w > 0, w, np.nan) ** ((k - 1) / 2) * F(x)

    return fn


def transcendental_invariant(k: float, i: int, j: int) -> Invariant:
    """(x_i/x_j)^((1-k)/2) * R^((x_{i+3}-x_{j+3})/sqrt(D)) for the type I
    system at k < 1, with 0-based coordinate indices i, j in {0, 1, 2}.
    Here D = x4^2+x5^2+x6^2-x4x5-x4x6-x5x6, s = x4+x5+x6 and
    R = (s - 2 sqrt(D)) / (s + 2 sqrt(D)); defined where x_i/x_j, D and
    both s -+ 2 sqrt(D) are positive."""

    def fn(x):
        x4, x5, x6 = x[3:]
        d = x4 * x4 + x5 * x5 + x6 * x6 - x4 * x5 - x4 * x6 - x5 * x6
        root = np.sqrt(np.where(d > 0, d, np.nan))
        s = x4 + x5 + x6
        base = x[i] / np.where(x[j] != 0, x[j], np.nan)
        ok = (base > 0) & (s > 2 * root)  # so s + 2 sqrt(D) > 0 too
        base, s = np.where(ok, base, np.nan), np.where(ok, s, np.nan)
        ratio = (s - 2 * root) / (s + 2 * root)
        return base ** ((1 - k) / 2) * ratio ** ((x[i + 3] - x[j + 3]) / root)

    return fn


def standard_invariants(model: BianchiModel) -> Dict[str, Invariant]:
    """The monitored invariants for a model, in report order."""
    k = _float_k(model)
    out: Dict[str, Invariant] = {
        p.to_text().replace(" ", ""): p.evaluate for p in polynomial_integrals(model.tag)
    }
    if model.tag == "I":
        for i, j in ((0, 1), (1, 2)):
            out["trans(x%d/x%d)" % (i + 1, j + 1)] = transcendental_invariant(k, i, j)
    out["H"] = energy_invariant(model.n, k)
    return out


def monitor_invariant(traj: Trajectory, inv: Invariant, name: str) -> dict:
    """Max relative drift of one invariant along the trajectory.

    The invariant is evaluated once, on the whole trajectory's columns.  The
    drift is max |v(t)-v(0)| / max(1, |v(0)|), taken over the points where
    the invariant is finite.  A nan (outside the domain), an overflow (inf)
    and any other non-finite value are flagged as a domain violation.
    """
    with np.errstate(all="ignore"):
        values = np.asarray(inv(list(traj.x.T)))
    finite = values[np.isfinite(values)]
    value0 = float(finite[0]) if finite.size else None
    return {
        "name": name,
        "initial_value": value0,
        "max_relative_drift": (float(np.abs(finite - value0).max()) / max(1.0, abs(value0))
                               if finite.size else None),
        "domain_violation": finite.size < values.size,
    }


def drift_report(traj: Trajectory, invariants: Dict[str, Invariant]) -> dict:
    """The orbit's status and the drift of each invariant, in the order given."""
    return {
        "status": traj.status,
        "invariants": [monitor_invariant(traj, inv, name) for name, inv in invariants.items()],
    }


def write_trajectory_csv(traj: Trajectory, stream) -> None:
    """CSV with 17 significant digits, one row per accepted step."""
    stream.write("t,x1,x2,x3,x4,x5,x6\n")
    row_format = ",".join(["%.17g"] * 7) + "\n"
    # Row by row: all of traj.x.tolist() at once holds ~250 bytes per row.
    for t, row in zip(traj.t.tolist(), map(np.ndarray.tolist, traj.x)):
        stream.write(row_format % (t, *row))
