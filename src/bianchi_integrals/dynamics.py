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

from .coefficients import SYMBOLIC_K
from .multipoly import MultiPoly
from .vectorfields import NVARS, BianchiModel, build_bianchi, build_F, k_parts, polynomial_integrals


class DomainError(ValueError):
    """An invariant was evaluated outside its domain of definition."""


# Accepted plus rejected steps after which an orbit stops with "max_steps".
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class IntegratorConfig:
    t_end: float = 1.0
    tol: float = 1e-12  # both the relative and the absolute error tolerance

    def __post_init__(self):
        for name in ("t_end", "tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError("%s must be a finite positive number" % name)


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


def coefficient_matrix(tag: str, k: float) -> np.ndarray:
    """The 6x21 float matrix C with X(x) = C @ (x_i * x_j for i <= j).

    X is affine in k, so C = C1*k + C0, with C0 and C1 the float k^0 and
    k^1 parts of the exact builds at SYMBOLIC_K: each entry is
    float(c1)*k + float(c0).
    """
    C0, C1 = np.zeros((2, NVARS, len(_PAIRS)))
    for row, values in enumerate(zip(*(build_bianchi(tag, s) for s in SYMBOLIC_K))):
        for C, part in zip((C0, C1), k_parts(*values)):
            for mono, coeff in part.terms.items():
                pair = tuple(v for v, e in enumerate(mono) for _ in range(e))
                C[row, _PAIRS.index(pair)] = float(coeff)
    return C1 * k + C0


def rhs(C: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Float evaluation of the quadratic system with coefficient matrix C."""
    return C @ (x[_I] * x[_J])


# Dormand-Prince 5(4) tableau.
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)

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


def integrate(
    model: BianchiModel, x0: Sequence[float], cfg: IntegratorConfig = IntegratorConfig()
) -> Trajectory:
    """Adaptive RK5(4) orbit from t=0 to cfg.t_end; keeps every accepted step."""
    C = coefficient_matrix(model.tag, _float_k(model))
    t = 0.0
    y = np.array([float(v) for v in x0])
    ts = [t]
    ys = [y.copy()]
    h = min(_INITIAL_STEP, cfg.t_end)
    err_prev = 1.0
    accepted = 0
    rejected = 0
    status = "completed"
    # A trial step that overflows is rejected: its err is not <= 1.
    with np.errstate(over="ignore", invalid="ignore"):
        k1 = rhs(C, y)
        while t < cfg.t_end:
            if accepted + rejected >= MAX_STEPS:
                status = "max_steps"
                break
            # The last step may be as small as what is left of [0, t_end];
            # only a step that stops short of t_end can underflow.
            if h < 1e-15 * max(1.0, abs(t)) and h < cfg.t_end - t:
                status = "step_underflow"
                break
            h = min(h, cfg.t_end - t)
            stages = [k1]
            for s in range(1, 7):
                yi = y + h * sum(a * ki for a, ki in zip(_A[s], stages))
                stages.append(rhs(C, yi))
            y5 = y + h * sum(b * ki for b, ki in zip(_B5, stages))
            y4 = y + h * sum(b * ki for b, ki in zip(_B4, stages))
            scale = cfg.tol + cfg.tol * np.maximum(np.abs(y), np.abs(y5))
            err = float(np.sqrt(np.mean(((y5 - y4) / scale) ** 2)))
            if err <= 1.0:
                t += h
                y = y5
                k1 = stages[6]  # FSAL
                ts.append(t)
                ys.append(y.copy())
                accepted += 1
                err = max(err, 1e-10)
                factor = _SAFETY * err ** (-_ALPHA) * err_prev ** _BETA
                err_prev = err
                h *= min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
            else:
                rejected += 1
                h *= max(_MIN_FACTOR, _SAFETY * err ** (-0.2))
    return Trajectory(np.array(ts), np.vstack(ys), status, accepted, rejected)


# -- Invariants ----------------------------------------------------------------


Invariant = Callable[[Sequence[float]], float]


def poly_invariant(p: MultiPoly) -> Invariant:
    def fn(x):
        return float(p.evaluate([float(v) for v in x]))

    return fn


def energy_invariant(n: Tuple[int, int, int], k: float) -> Invariant:
    """(x1 x2 x3)^((k-1)/2) * F; defined where x1 x2 x3 > 0."""
    Ffn = poly_invariant(build_F(*n))

    def fn(x):
        w = x[0] * x[1] * x[2]
        if w <= 0:
            raise DomainError("x1*x2*x3 <= 0")
        return w ** ((k - 1) / 2) * Ffn(x)

    return fn


def _delta(x) -> float:
    x4, x5, x6 = x[3], x[4], x[5]
    return x4 * x4 + x5 * x5 + x6 * x6 - x4 * x5 - x4 * x6 - x5 * x6


def _ratio(x, d: float) -> float:
    s = x[3] + x[4] + x[5]
    root = math.sqrt(d)
    num = s - 2 * root
    den = s + 2 * root
    if num <= 0 or den <= 0:
        raise DomainError("ratio argument not positive")
    return num / den


def transcendental_invariant(k: float, i: int, j: int) -> Invariant:
    """(x_i/x_j)^((1-k)/2) * R^((x_{i+3}-x_{j+3})/sqrt(D)) for the type I
    system, with 0-based coordinate indices i, j in {0, 1, 2}."""

    def fn(x):
        if x[j] == 0:
            raise DomainError("x%d = 0" % (j + 1))
        base = x[i] / x[j]
        if base <= 0:
            raise DomainError("x%d/x%d <= 0" % (i + 1, j + 1))
        d = _delta(x)
        if d <= 0:
            raise DomainError("degenerate discriminant")
        return base ** ((1 - k) / 2) * _ratio(x, d) ** ((x[i + 3] - x[j + 3]) / math.sqrt(d))

    return fn


def standard_invariants(model: BianchiModel) -> Dict[str, Invariant]:
    """The monitored invariants for a model, in report order."""
    k = _float_k(model)
    out: Dict[str, Invariant] = {
        p.to_text().replace(" ", ""): poly_invariant(p) for p in polynomial_integrals(model.tag)
    }
    if model.tag == "I":
        for i, j in ((0, 1), (1, 2)):
            out["trans(x%d/x%d)" % (i + 1, j + 1)] = transcendental_invariant(k, i, j)
    out["H"] = energy_invariant(model.n, k)
    return out


def monitor_invariant(traj: Trajectory, inv: Invariant, name: str) -> dict:
    """Max relative drift of one invariant along the trajectory.

    The drift is max |v(t)-v(0)| / max(1, |v(0)|), taken over the points
    where the invariant is defined and finite.  Domain failures, overflows
    and non-finite values are flagged as a domain violation.
    """
    violated = False
    value0 = None
    drift = None
    for row in traj.x:
        try:
            v = inv(row)
        except (DomainError, OverflowError):
            violated = True
            continue
        if not math.isfinite(v):
            violated = True
            continue
        if value0 is None:
            value0 = v
            drift = 0.0
        else:
            drift = max(drift, abs(v - value0) / max(1.0, abs(value0)))
    return {
        "name": name,
        "initial_value": value0,
        "max_relative_drift": drift,
        "domain_violation": violated,
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
    for t, row in zip(traj.t, traj.x):
        stream.write(
            "%.17g,%s\n" % (t, ",".join("%.17g" % v for v in row))
        )
