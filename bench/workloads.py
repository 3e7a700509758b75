"""Seeded workload inputs, the CLI commands each workload sends, and the
correctness gates applied to every command's output.

Nothing here imports the program: inputs are pure functions of the seed,
and the gates judge the program's output text against values derived
independently (the classification table and the binomial expansion of
(x5-x6)^m), so they can be tested on falsified outputs without running it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import List, Optional

MODELS = ("I", "II", "VI0", "VII0", "VIII", "IX")
NONINTEGRABLE = ("VI0", "VII0", "VIII", "IX")
WORKLOADS = ("nonintegrable-fixedk", "integrable-symbolic", "orbits")

# k is drawn from {1 - 4/q : q = 7..10} = {3/7, 1/2, 5/9, 3/5}.  The only
# k-dependent coefficient of the systems, (k-1)/4 = -1/q, then has
# numerator 1 on every seed.  The fixed-k elimination's cost grows with the
# height of that coefficient (numerators 3 to 5 ran ~25% slower at degree
# 6), and orbits from the default starts blow up or exhaust the step budget
# for k < 3/8, so a wider draw would measure the seed, not the program.
K_CHOICES = tuple(1 - Fraction(4, q) for q in range(7, 11))

# Orbit starts: the CLI defaults, except VIII, whose default start runs into
# the step budget (10^6 steps, ~2 min); its scaled start is the one
# scripts/run_simulations.py uses.  Each seed scales every coordinate by
# (JITTER_DEN + j) / JITTER_DEN with j uniform in [-JITTER_STEPS, JITTER_STEPS].
BASE_STARTS = {
    "IX": "1,1,1,1,2,3",
    "VIII": "1/4,1/2,3/4,1/4,1/2,1",
}
GENERIC_START = "1,2,3,1,2,4"
STARTS_PER_MODEL = 3
JITTER_DEN = 50
JITTER_STEPS = 2
ORBIT_T_END = "1"
ORBIT_TOL = "1e-12"

FIXEDK_MAX_DEGREE = 6
INTEGRABLE_FIXEDK_MAX_DEGREE = 8
INTEGRABLE_SYMBOLIC_MAX_DEGREE = 7

# Drift gates.  Runge-Kutta methods preserve linear invariants exactly, so
# their drift is rounding error only.  H is a non-polynomial invariant; the
# worst drift seen over these starts is ~1e-10 at tol 1e-12.
LINEAR_DRIFT_MAX = 1e-11
H_DRIFT_MAX = 1e-8


def draw_inputs(seed: int) -> dict:
    """Every input a workload uses, as a pure function of the seed."""
    rng = random.Random(seed)
    k = rng.choice(K_CHOICES)
    starts = {}
    for tag in MODELS:
        base = [Fraction(v) for v in BASE_STARTS.get(tag, GENERIC_START).split(",")]
        starts[tag] = [
            ",".join(
                str(c * (JITTER_DEN + rng.randint(-JITTER_STEPS, JITTER_STEPS)) / JITTER_DEN)
                for c in base
            )
            for _ in range(STARTS_PER_MODEL)
        ]
    return {"k": str(k), "starts": starts}


# -- commands -------------------------------------------------------------------


@dataclass
class Command:
    """One CLI invocation and what its output must satisfy."""

    argv: List[str]
    kind: str  # find | verify | lemma | simulate
    model: Optional[str] = None
    max_degree: int = 0
    out: Optional[str] = None  # simulate's CSV path

    @property
    def columns(self) -> int:
        """Ansatz columns over the degree sweep (monomials of degree m in 6 vars)."""
        if self.kind != "find":
            return 0
        return sum(comb(m + 5, 5) for m in range(1, self.max_degree + 1))


def _find(tag: str, k: str, m: int) -> Command:
    argv = ["find", "--model", tag, "--k", k, "--max-degree", str(m)]
    return Command(argv, "find", tag, m)


def build_commands(workload: str, inputs: dict, out_dir: str) -> List[Command]:
    """The ordered commands of one repetition of the workload."""
    k = inputs["k"]
    if workload == "nonintegrable-fixedk":
        return [_find(tag, k, FIXEDK_MAX_DEGREE) for tag in NONINTEGRABLE]
    if workload == "integrable-symbolic":
        cmds = [_find(tag, k, INTEGRABLE_FIXEDK_MAX_DEGREE) for tag in ("I", "II")]
        cmds += [_find(tag, "symbolic", INTEGRABLE_SYMBOLIC_MAX_DEGREE) for tag in ("I", "II")]
        cmds += [Command(["verify", "--model", tag, "--k", "symbolic"], "verify", tag)
                 for tag in MODELS]
        cmds += [
            Command(["lemma", "estrella", "--k", k], "lemma"),
            Command(["lemma", "dificil", "--k", k], "lemma"),
            Command(["lemma", "sn"], "lemma"),
        ]
        return cmds
    if workload == "orbits":
        cmds = []
        for tag in MODELS:
            for i, x0 in enumerate(inputs["starts"][tag]):
                out = "%s/%s-%d.csv" % (out_dir, tag, i)
                argv = ["simulate", "--model", tag, "--k", k, "--x0", x0,
                        "--t-end", ORBIT_T_END, "--tol", ORBIT_TOL, "--out", out]
                cmds.append(Command(argv, "simulate", tag, out=out))
        return cmds
    raise ValueError("unknown workload %r" % (workload,))


# -- gates ----------------------------------------------------------------------


def expected_dims(tag: str, m_max: int) -> List[int]:
    """Kernel dimension per degree from the classification table."""
    if tag == "I":
        return [m + 1 for m in range(1, m_max + 1)]
    if tag == "II":
        return [1] * m_max
    return [0] * m_max


def power_x5_minus_x6(m: int) -> str:
    """Canonical text of (x5-x6)^m: graded lex, largest monomial first."""
    pieces = []
    for j in range(m + 1):
        mono = "*".join(
            name if e == 1 else "%s^%d" % (name, e)
            for name, e in (("x5", m - j), ("x6", j))
            if e
        )
        c = comb(m, j)
        body = mono if c == 1 else "%d*%s" % (c, mono)
        pieces.append((j % 2, body))
    text = pieces[0][1]
    for negative, body in pieces[1:]:
        text += (" - " if negative else " + ") + body
    return text


def _report(rc: int, stdout: str):
    """(problems, payload) of a JSON-reporting command: exit 0 and "pass" true."""
    problems = [] if rc == 0 else ["exit code %s" % rc]
    try:
        payload = json.loads(stdout)
    except ValueError:
        payload = None
    if not isinstance(payload, dict):
        return problems + ["stdout is not a JSON object"], {}
    if payload.get("pass") is not True:
        problems.append("pass is not true")
    return problems, payload


def check_find(cmd: Command, rc: int, stdout: str) -> List[str]:
    problems, payload = _report(rc, stdout)
    degrees = payload.get("degrees", [])
    dims = [d.get("dim") for d in degrees]
    want = expected_dims(cmd.model, cmd.max_degree)
    if dims != want:
        problems.append("dims %s, expected %s" % (dims, want))
    if cmd.model == "II":
        for d in degrees:
            m = d.get("m")
            if not isinstance(m, int) or d.get("basis") != [power_x5_minus_x6(m)]:
                problems.append("II basis at m=%s is %s" % (m, d.get("basis")))
    return problems


def check_verify(rc: int, stdout: str) -> List[str]:
    problems, payload = _report(rc, stdout)
    checks = payload.get("checks") or []
    if not checks:
        problems.append("no checks reported")
    for c in checks:
        if c.get("pass") is not True:
            problems.append("check %s failed" % c.get("integral"))
    return problems


def check_lemma(rc: int, stdout: str) -> List[str]:
    return _report(rc, stdout)[0]


def check_orbit(rc: int, sidecar_text: Optional[str]) -> List[str]:
    """Judge the drift sidecar; simulate exits 0 even when the run stopped early."""
    problems = [] if rc == 0 else ["exit code %s" % rc]
    if sidecar_text is None:
        return problems + ["no sidecar written"]
    try:
        drift = json.loads(sidecar_text)["drift"]
    except (ValueError, KeyError, TypeError):
        return problems + ["sidecar is not a drift report"]
    if drift.get("status") != "completed":
        problems.append("status %r" % drift.get("status"))
    names = set()
    for inv in drift.get("invariants", []):
        name = inv.get("name")
        names.add(name)
        value = inv.get("max_relative_drift")
        if name == "H":
            if inv.get("domain_violation") or value is None or not value <= H_DRIFT_MAX:
                problems.append("H drift %s exceeds %g" % (value, H_DRIFT_MAX))
        elif not name.startswith("trans"):
            if value is None or not value <= LINEAR_DRIFT_MAX:
                problems.append("%s drift %s exceeds %g" % (name, value, LINEAR_DRIFT_MAX))
    if "H" not in names:
        problems.append("H not monitored")
    return problems


def check_command(cmd: Command, rc: int, stdout: str, sidecar_text: Optional[str] = None) -> List[str]:
    """Problems with one command's result; an empty list means it passed."""
    if cmd.kind == "find":
        return check_find(cmd, rc, stdout)
    if cmd.kind == "verify":
        return check_verify(rc, stdout)
    if cmd.kind == "lemma":
        return check_lemma(rc, stdout)
    return check_orbit(rc, sidecar_text)
