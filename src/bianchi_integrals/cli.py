"""Command-line surface: catalog, find, verify, simulate, lemma, report.

Outputs are byte-stable: canonical orderings everywhere and no timestamps.
Exit codes: 0 success/pass, 1 usage error, 2 expectation mismatch (for
simulate: the orbit stopped before t_end) or a kernel vector that failed
the exact soundness re-check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction
from typing import Callable, List, Optional

from . import dynamics, engine
from .multipoly import W
from .vectorfields import (
    MODEL_TAGS,
    BianchiModel,
    lie_derivative,
    polynomial_integrals,
    text_at,
    verify_weighted_power_integral,
)

DEFAULT_K_SAMPLES = "0,1/2,2/3,9/10"
# The VIII orbit from the generic start blows up before t = 1; the system is
# quadratic homogeneous, so the scaled start slows its clock.
DEFAULT_X0 = {"IX": "1,1,1,1,2,3", "VIII": "1/4,1/2,3/4,1/4,1/2,1"}
DEFAULT_X0_GENERIC = "1,2,3,1,2,4"

# Theorem statement labels used in the consolidated report.
STATEMENT_OF_MODEL = {
    "I": "(a) completely integrable",
    "II": "(b) polynomial first integral x5-x6, and no additional one",
    "VI0": "(c) no polynomial first integrals",
    "VII0": "(c) no polynomial first integrals",
    "VIII": "(d) no polynomial first integrals",
    "IX": "(d) no polynomial first integrals",
}


class CliParser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))

    def parse_known_args(self, args=None, namespace=None):
        # argparse hands a sub-command's unknown flags up to the root parser,
        # which would report them with the root usage; report them here.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: %s" % " ".join(extras))
        return namespace, extras


def _checked(cast: Callable, holds: Callable, need: str) -> Callable:
    """An argparse type: cast the text, then require holds(value)."""

    def parse(text: str):
        try:
            value = cast(text)
            if holds(value):
                return value
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
        raise argparse.ArgumentTypeError("expected %s, got %r" % (need, text))

    return parse


def _fractions(text: str) -> List[Fraction]:
    return [Fraction(v) for v in text.split(",")]


_parse_k = _checked(
    lambda t: None if t == "symbolic" else Fraction(t),
    lambda k: k is None or 0 <= k < 1,
    'a rational k with 0 <= k < 1, or "symbolic"',
)
_fixed_k = _checked(Fraction, lambda k: 0 <= k < 1, "a fixed rational k with 0 <= k < 1")
_k_samples = _checked(_fractions, lambda ks: len(set(ks)) == len(ks) and all(0 <= k < 1 for k in ks),
                      "distinct comma-separated rationals k with 0 <= k < 1")
_six_rationals = _checked(
    _fractions,
    lambda v: len(v) == 6 and all(math.isfinite(float(x)) for x in v),
    "six comma-separated rationals within float range",
)
_three_rationals = _checked(_fractions, lambda v: len(v) == 3, "three comma-separated rationals")
_finite_positive = _checked(float, lambda v: 0 < v < math.inf, "a finite positive number")


def _int_at_least(low: int, below: float = math.inf) -> Callable:
    need = "an integer >= %d" % low + (" and below %d" % below if below < math.inf else "")
    return _checked(int, lambda n: low <= n < below, need)


def _emit(payload, out: Optional[str]) -> int:
    """Write a JSON payload, or a text payload as it is, to out or stdout, and
    return the exit code: 2 if the payload has "pass": false, else 0."""
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if isinstance(payload, str) or payload.get("pass", True) else 2


# -- subcommands ---------------------------------------------------------------


def cmd_catalog(args) -> int:
    models = []
    for tag in MODEL_TAGS:
        model = BianchiModel(tag, args.k)
        models.append(
            {
                "model": tag,
                "n": list(model.n),
                "k": model.k_text(),
                "components": [text_at(values) for values in zip(*model.fields)],
            }
        )
    if args.format == "text":
        lines = []
        for entry in models:
            lines.append("Bianchi %s  (n=%s, k=%s)" % (entry["model"], entry["n"], entry["k"]))
            for i, comp in enumerate(entry["components"]):
                lines.append("  dx%d/dt = %s" % (i + 1, comp))
        return _emit("\n".join(lines) + "\n", args.out)
    return _emit({"models": models}, args.out)


def cmd_find(args) -> int:
    return _emit(engine.degree_sweep(BianchiModel(args.model, args.k), args.max_degree), args.out)


def _energy_residuals(model: BianchiModel) -> list:
    """The energy integral's residual on each of the model's fields."""
    return [verify_weighted_power_integral(X, model.tag, k) for X, k in zip(model.fields, model.ks)]


def cmd_verify(args) -> int:
    model = BianchiModel(args.model, args.k)
    # Each witness is affine in k, so at symbolic k it vanishes in Q[k]
    # exactly when it vanishes at both k the model is built at.
    witnesses = [("(x1*x2*x3)^((k-1)/2) * F", "weighted-power", _energy_residuals(model))]
    witnesses += [(p.to_text(), "polynomial", [lie_derivative(X, p) for X in model.fields])
                  for p in polynomial_integrals(model.tag)]
    checks = [{"integral": integral, "kind": kind, "pass": not any(values),
               "witness": text_at(values)} for integral, kind, values in witnesses]
    return _emit({"model": model.tag, "k": model.k_text(), "checks": checks,
                  "pass": all(check["pass"] for check in checks)}, args.out)


def cmd_simulate(args) -> int:
    model = BianchiModel(args.model, args.k)
    x0 = args.x0 or _six_rationals(DEFAULT_X0.get(args.model, DEFAULT_X0_GENERIC))
    # Open --out and its sidecar first, so an unwritable path fails before the
    # integration.  Mode "a" truncates neither file until both are open.
    with contextlib.ExitStack() as files:
        csv, drift = sys.stdout, sys.stdout
        if args.out:
            stem = args.out[:-4] if args.out.endswith(".csv") else args.out
            csv, drift = [files.enter_context(open(path, "a"))
                          for path in (args.out, stem + ".drift.json")]
            for fh in (csv, drift):
                fh.seek(0)
                fh.truncate()
        traj = dynamics.integrate(model, x0, args.t_end, args.tol)
        dynamics.write_trajectory_csv(traj, csv)
        payload = {
            "model": model.tag,
            "k": model.k_text(),
            "x0": ",".join(str(v) for v in x0),
            "t_end": args.t_end,
            "tol": args.tol,
            "drift": dynamics.drift_report(traj, dynamics.standard_invariants(model)),
        }
        drift.write(json.dumps(payload, indent=2) + "\n")
    return 0 if traj.ok else 2


def cmd_lemma(args) -> int:
    return _emit(args.lemma(args), args.out)


def _lemma_estrella(args) -> dict:
    a1, a2, a3 = args.a
    basis = engine.lemma_estrella_solve(a1, a2, a3, args.k, args.degree)
    hypothesis = (a1 - a2) ** 2 + (a1 - a3) ** 2 != 0
    return {
        "lemma": "estrella",
        "a": [str(v) for v in (a1, a2, a3)],
        "k": str(args.k),
        "degree": args.degree,
        "hypothesis_holds": hypothesis,
        "dimension": len(basis),
        "basis": [p.to_text() for p in basis],
        "pass": not basis or not hypothesis,
    }


def _lemma_dificil(args) -> dict:
    g_basis, h_coefficients = engine.lemma_dificil_solve(args.k, args.n)
    # The lemma: the only solution is g = 0 and h = c*(x4-x6)^n.
    conforms = len(g_basis) == 1 and not g_basis[0] and not any(h_coefficients[0][1:])
    solution = {
        "dimension": len(g_basis),
        "g_basis": [g.to_text() for g in g_basis],
        "h_coefficients": [[str(c) for c in a] for a in h_coefficients],
        "conforms": conforms,
    }
    return {"lemma": "dificil", "k": str(args.k), "n": args.n, "solution": solution,
            "pass": conforms}


def _lemma_sn(args) -> dict:
    passed = engine.sn_recursion_check(args.n)
    return {"lemma": "sn", "n": args.n, "identity_holds": passed, "pass": passed}


def cmd_report(args) -> int:
    cells = []
    for tag in MODEL_TAGS:
        for k in args.k_samples + [None]:
            model = BianchiModel(tag, k)
            sweep = engine.degree_sweep(model, args.max_degree)
            hx_ok = not any(_energy_residuals(model))
            cell = {
                "model": tag,
                "statement": STATEMENT_OF_MODEL[tag],
                "k": model.k_text(),
                "mode": sweep["mode"],
                "dimensions": [d["dim"] for d in sweep["degrees"]],
                "energy_integral_identity": hx_ok,
                "scope": (
                    "proved in the source for all degrees; "
                    "machine-verified up to degree %d" % args.max_degree
                ),
                "pass": sweep["pass"] and hx_ok,
            }
            if polynomial_integrals(tag) and k is not None:
                rank, count = engine.independence_rank(tag, k)
                cell["independence"] = {"rank": rank, "point": list(engine.RANK_POINT)}
                cell["pass"] = cell["pass"] and rank == count
            cells.append(cell)
    return _emit({
        "m_max": args.max_degree,
        "k_samples": [str(k) for k in args.k_samples],
        "cells": cells,
        "pass": all(cell["pass"] for cell in cells),
    }, args.out)


# -- entry point ---------------------------------------------------------------


def build_parser() -> CliParser:
    parser = CliParser(prog="bianchi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="output path (default: stdout)")

    p = sub.add_parser("catalog", help="dump the six systems in canonical text")
    p.add_argument("--k", type=_parse_k, default=Fraction(1, 2))
    p.add_argument("--format", choices=["json", "text"], default="json")
    add_common(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("find", help="degree sweep for polynomial first integrals")
    p.add_argument("--model", required=True, choices=MODEL_TAGS)
    p.add_argument("--k", type=_parse_k, default=Fraction(1, 2))
    p.add_argument("--max-degree", type=_int_at_least(1), default=4)
    add_common(p)
    p.set_defaults(fn=cmd_find)

    p = sub.add_parser("verify", help="exact verification of the known integrals")
    p.add_argument("--model", required=True, choices=MODEL_TAGS)
    p.add_argument("--k", type=_parse_k, default=None,
                   help='rational text or "symbolic" (default: symbolic)')
    add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("simulate", help="integrate an orbit and monitor drift")
    p.add_argument("--model", required=True, choices=MODEL_TAGS)
    p.add_argument("--k", type=_fixed_k, default=Fraction(1, 2))
    p.add_argument("--x0", type=_six_rationals, default=None,
                   help="six comma-separated rationals"
                        " (--x0=-1,2,3,1,2,4 if the first is negative)")
    p.add_argument("--t-end", type=_finite_positive, default=1.0)
    p.add_argument("--tol", type=_finite_positive, default=1e-12)
    add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("lemma", help="PDE lemma analyzers")
    p.set_defaults(fn=cmd_lemma)
    lemmas = p.add_subparsers(dest="which", required=True)
    p = lemmas.add_parser("estrella", help="degree-m solutions g of the linear transport PDE")
    p.add_argument("--a", type=_three_rationals, default="1,0,0",
                   help="three comma-separated rationals (--a=-1,0,0 if the first is negative)")
    p.add_argument("--k", type=_fixed_k, default=Fraction(1, 2))
    p.add_argument("--degree", type=_int_at_least(0, 1 << W), default=3)
    add_common(p)
    p.set_defaults(lemma=_lemma_estrella)
    p = lemmas.add_parser("dificil", help="joint g/h solutions of the hard PDE")
    p.add_argument("--k", type=_fixed_k, default=Fraction(1, 2))
    p.add_argument("--n", type=_int_at_least(2, 1 << W), default=3)
    add_common(p)
    p.set_defaults(lemma=_lemma_dificil)
    p = lemmas.add_parser("sn", help="exact check of the S_n recursion")
    # A2^(2n-2) fits the monomial key while 2n - 2 < 2^W.
    p.add_argument("--n", type=_int_at_least(2, (1 << W - 1) + 1), default=3)
    add_common(p)
    p.set_defaults(lemma=_lemma_sn)

    p = sub.add_parser("report", help="consolidated classification report")
    p.add_argument("--max-degree", type=_int_at_least(1), default=4)
    p.add_argument("--k-samples", type=_k_samples, default=DEFAULT_K_SAMPLES)
    add_common(p)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except OSError as exc:  # an --out path that cannot be written
        parser.exit(1, "%s: error: %s\n" % (parser.prog, exc))
    except engine.SoundnessError as exc:  # a kernel vector failed the re-check
        parser.exit(2, "%s: error: %s\n" % (parser.prog, exc))


if __name__ == "__main__":
    sys.exit(main())
