#!/usr/bin/env python3
"""Benchmark of the exact first-integral engine and the orbit monitor.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  Load model: one client in a closed loop.  This process sends the
workload's CLI commands to `bianchi_integrals.cli.main` one after another,
each only after the previous one returned, and repeats the whole command
set while the time budget allows.  Every command's output is checked.

With --trace 0 the end-to-end metrics are printed.  With --trace 1,
untraced repetitions (the tracing-overhead reference) alternate with
repetitions inside the outside-in tracer, which give the per-layer metrics.
The last line of stdout is the JSON result; the lines before it are a
human-readable summary and the run's provenance.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as W
from tracer import EXACT_COUNTS, Tracer, unit_of

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "bianchi_integrals"
LAYER_MODULES = ("cli", "engine", "nullspace", "vectorfields", "multipoly", "coefficients", "dynamics")

# Set-up time is the CPU time of a fresh interpreter's main thread from its
# start to having the CLI module imported.  It is sampled once before the
# first repetition and once after each, at least SETUP_SAMPLES times, so the
# samples spread over the run.  It is CPU time of the main thread, not wall
# time, because importing numpy starts BLAS threads: whether they overlap
# the rest of start-up depends on whether the second core is free, and that
# moved the wall-clock median by 45% between two sets of runs of one commit.
SETUP_SAMPLES = 7
SETUP_PROBE = "import time, %s.cli; print(repr(time.thread_time()))" % PACKAGE
CHILD_TIMEOUT_S = 60

# The end-to-end metrics of BENCHMARK.json, with their units.
UNITS = {"setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, a broken import)."""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# -- the program ------------------------------------------------------------------


def import_program():
    """Import the package from ./src and refuse any other copy."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise BenchError("no %s/%s/cli.py under %s" % (SRC.name, PACKAGE, ROOT))
    sys.path.insert(0, str(SRC))
    mods = {name: importlib.import_module("%s.%s" % (PACKAGE, name)) for name in LAYER_MODULES}
    where = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise BenchError("imported %s from %s, not from %s" % (PACKAGE, where, SRC))
    return mods


def measure_setup() -> float:
    """Main-thread CPU seconds a fresh interpreter spends to import the CLI."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError("set-up probe failed: %s" % proc.stderr.strip()[-500:])
    return float(proc.stdout.strip())


def git_revision() -> str:
    """HEAD's commit from .git, read without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / PACKAGE).glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# -- one repetition ---------------------------------------------------------------


@contextlib.contextmanager
def step_counter(dynamics, counts: list):
    """Record RK steps per orbit from the integrator's result; no clock reads."""
    integrate = dynamics.integrate

    def counted(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        counts.append(traj.n_accepted + traj.n_rejected)
        return traj

    dynamics.integrate = counted
    try:
        yield
    finally:
        dynamics.integrate = integrate


def run_command(cli, cmd):
    """Send one command; returns (seconds, exit code, stdout, error text)."""
    buf = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(cmd.argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed command, not a failed benchmark
        rc, error = -1, "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - start, rc, buf.getvalue(), error


def read_outputs(cmd):
    """simulate's sidecar text and CSV bytes, or (None, b"") when missing."""
    if cmd.out is None:
        return None, b""
    try:
        with open(cmd.out[:-4] + ".drift.json") as fh:
            sidecar = fh.read()
        with open(cmd.out, "rb") as fh:
            csv = fh.read()
    except OSError:
        return None, b""
    return sidecar, csv


def run_repetition(mods, commands, tracer=None):
    """Run every command once; returns the repetition's record."""
    steps = []
    rep = {"wall": 0.0, "problems": [], "fingerprints": [], "stdout_bytes": 0, "units": 0}
    with step_counter(mods["dynamics"], steps), (tracer or contextlib.nullcontext()):
        for cmd in commands:
            seconds, rc, stdout, error = run_command(mods["cli"], cmd)
            rep["wall"] += seconds
            sidecar, csv = read_outputs(cmd)
            problems = ["crashed: %s" % error] if error else []
            problems += W.check_command(cmd, rc, stdout, sidecar)
            rep["problems"].append(problems)
            digest = hashlib.sha256(stdout.encode() + (sidecar or "").encode() + csv).hexdigest()
            rep["fingerprints"].append(digest)
            rep["stdout_bytes"] += len(stdout.encode())
            rep["units"] += cmd.columns
    rep["units"] += sum(steps)
    return rep


# -- the run ----------------------------------------------------------------------


def run(args) -> dict:
    mods = import_program()
    inputs = W.draw_inputs(args.seed)
    setup = [measure_setup()]
    reps = []
    tracers = []
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as out_dir:
        commands = W.build_commands(args.workload, inputs, out_dir)
        start = time.perf_counter()
        while True:
            # With --trace 1, untraced and traced repetitions alternate; the
            # untraced ones are the reference for the tracing overhead.
            tracer = Tracer(mods) if args.trace and len(reps) % 2 else None
            rep_start = time.perf_counter()
            reps.append(run_repetition(mods, commands, tracer))
            if tracer is not None:
                tracers.append(tracer)
            setup.append(measure_setup())
            last = time.perf_counter() - rep_start
            if args.trace and not tracers:
                continue
            if time.perf_counter() - start + last > args.seconds:
                break
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup())
    return {
        "inputs": inputs,
        "setup": setup,
        "reps": reps,
        "tracers": tracers,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def judge(reps):
    """(attempted, failed, messages): a command fails on any gate problem or
    when its output differs from the first repetition's."""
    attempted = failed = 0
    messages = []
    first = reps[0]["fingerprints"]
    for r, rep in enumerate(reps):
        for i, problems in enumerate(rep["problems"]):
            attempted += 1
            if rep["fingerprints"][i] != first[i]:
                problems = problems + ["output differs from repetition 0"]
            if problems:
                failed += 1
                messages.append("rep %d command %d: %s" % (r, i, "; ".join(problems)))
    return attempted, failed, messages


def exact_count_mismatches(layer_runs) -> list:
    """Counts that did not repeat exactly across the traced repetitions."""
    return [
        "%s: %s" % (name, [m[name] for m in layer_runs])
        for name in EXACT_COUNTS
        if len({m[name] for m in layer_runs}) > 1
    ]


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        sys.stderr.write("bench: %s\n" % exc)
        return 2
    reps = result["reps"]
    attempted, failed, messages = judge(reps)
    for line in messages:
        sys.stderr.write("bench: FAILED %s\n" % line)

    untraced = [r for r in range(len(reps)) if not (args.trace and r % 2)]
    wall = statistics.median(reps[r]["wall"] for r in untraced)
    if args.trace:
        layer_runs = [t.layer_metrics() for t in result["tracers"]]
        mismatches = exact_count_mismatches(layer_runs)
        for line in mismatches:
            sys.stderr.write("bench: count not exact across repetitions: %s\n" % line)
        metrics = {
            name: statistics.median(m[name] for m in layer_runs) for name in layer_runs[0]
        }
        metrics["cli.stdout_bytes"] = reps[-1]["stdout_bytes"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        units = {name: unit_of(name) for name in metrics}
    else:
        mismatches = []
        metrics = {
            "setup_s": statistics.median(result["setup"]),
            "work_per_s": statistics.median(reps[r]["units"] / reps[r]["wall"] for r in untraced),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = UNITS

    work_name = "steps_per_s" if args.workload == "orbits" else "columns_per_s"
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": result["inputs"],
        "repetitions": len(reps),
        "repetition_walls_s": [rep["wall"] for rep in reps],
        "setup_samples_s": result["setup"],
        "traced_repetitions": len(result["tracers"]),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    shown = {name: (value, units[name]) for name, value in metrics.items()}
    if not args.trace:
        # Printed for people; BENCHMARK.json gates on work_per_s instead,
        # which on exact workloads carries the same information and on
        # orbits does not move with the seed's step count.
        shown["wall_s"] = (wall, "s")
        shown[work_name] = (metrics["work_per_s"], "1/s")
    shown["fail_ratio"] = (failed / attempted, "failed/attempted")
    for name, (value, unit) in shown.items():
        print("%-48s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
