"""Tests of the benchmark itself: seeded inputs, gates, tracing, contract.

    python3 -m pytest -q bench
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads as W
from tracer import EXACT_COUNTS, Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def mods():
    return run.import_program()


def cli_output(mods, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = mods["cli"].main(argv)
    return rc, buf.getvalue()


def test_inputs_are_a_function_of_the_seed():
    for seed in (0, 1, 7, 2**40):
        assert W.draw_inputs(seed) == W.draw_inputs(seed)
    drawn = [W.draw_inputs(seed) for seed in range(20)]
    assert len({json.dumps(d, sort_keys=True) for d in drawn}) == 20
    for d in drawn:
        assert d["k"] in {str(k) for k in W.K_CHOICES}
        for tag in W.MODELS:
            assert len(d["starts"][tag]) == W.STARTS_PER_MODEL
            assert all(len(x0.split(",")) == 6 for x0 in d["starts"][tag])


def test_commands_depend_only_on_inputs():
    inputs = W.draw_inputs(3)
    for workload in W.WORKLOADS:
        a = [c.argv for c in W.build_commands(workload, inputs, "out")]
        assert a == [c.argv for c in W.build_commands(workload, inputs, "out")]
    columns = sum(c.columns for c in W.build_commands("nonintegrable-fixedk", inputs, "out"))
    assert columns == 3692


def test_find_gate_passes_real_output_and_fails_an_off_by_one_dim(mods):
    cmd = W.Command(["find", "--model", "II", "--k", "1/2", "--max-degree", "3"], "find", "II", 3)
    rc, stdout = cli_output(mods, cmd.argv)
    assert W.check_find(cmd, rc, stdout) == []
    payload = json.loads(stdout)
    payload["degrees"][1]["dim"] += 1
    assert W.check_find(cmd, rc, json.dumps(payload))
    payload = json.loads(stdout)
    payload["degrees"][2]["basis"] = ["x5^3 - x6^3"]
    assert W.check_find(cmd, rc, json.dumps(payload))
    assert W.check_find(cmd, 2, stdout)


def test_find_gate_fails_a_nonzero_dim_for_a_nonintegrable_model(mods):
    cmd = W.Command(["find", "--model", "IX", "--k", "1/2", "--max-degree", "2"], "find", "IX", 2)
    rc, stdout = cli_output(mods, cmd.argv)
    assert W.check_find(cmd, rc, stdout) == []
    payload = json.loads(stdout)
    payload["degrees"][0]["dim"] = 1
    assert W.check_find(cmd, rc, json.dumps(payload))


def test_power_text_matches_the_program(mods):
    MultiPoly = mods["multipoly"].MultiPoly
    x5, x6 = MultiPoly.variable(6, 4), MultiPoly.variable(6, 5)
    for m in range(1, 9):
        assert W.power_x5_minus_x6(m) == ((x5 - x6) ** m).to_text()


def test_verify_and_lemma_gates(mods):
    rc, stdout = cli_output(mods, ["verify", "--model", "II", "--k", "symbolic"])
    assert W.check_verify(rc, stdout) == []
    payload = json.loads(stdout)
    payload["checks"][0]["pass"] = False
    assert W.check_verify(rc, json.dumps(payload))
    rc, stdout = cli_output(mods, ["lemma", "sn"])
    assert W.check_lemma(rc, stdout) == []
    assert W.check_lemma(rc, stdout.replace('"pass": true', '"pass": false'))


def test_orbit_gate_fails_max_steps_and_large_drift(mods, tmp_path):
    out = str(tmp_path / "o.csv")
    rc, _ = cli_output(mods, ["simulate", "--model", "II", "--t-end", "0.05", "--out", out])
    sidecar = (tmp_path / "o.drift.json").read_text()
    assert W.check_orbit(rc, sidecar) == []
    payload = json.loads(sidecar)
    payload["drift"]["status"] = "max_steps"
    assert W.check_orbit(0, json.dumps(payload))
    payload = json.loads(sidecar)
    payload["drift"]["invariants"][-1]["max_relative_drift"] = 10 * W.H_DRIFT_MAX
    assert W.check_orbit(0, json.dumps(payload))
    payload = json.loads(sidecar)
    payload["drift"]["invariants"][0]["max_relative_drift"] = 1e-6  # x5-x6
    assert W.check_orbit(0, json.dumps(payload))
    assert W.check_orbit(0, None)


def test_gate_problems_and_changed_outputs_count_as_failed():
    rep = {"problems": [[], []], "fingerprints": ["a", "b"]}
    assert run.judge([rep, rep]) == (4, 0, [])
    changed = {"problems": [[], []], "fingerprints": ["a", "c"]}
    attempted, failed, _ = run.judge([rep, changed])
    assert (attempted, failed) == (4, 1)
    gated = {"problems": [["status 'max_steps'"], []], "fingerprints": ["a", "b"]}
    attempted, failed, _ = run.judge([rep, gated])
    assert (attempted, failed) == (4, 1)


def test_exact_counts_mismatch_is_flagged():
    same = {name: 5 for name in EXACT_COUNTS}
    assert run.exact_count_mismatches([same, dict(same)]) == []
    other = dict(same, **{"multipoly.mul.calls": 6})
    assert run.exact_count_mismatches([same, other]) == ["multipoly.mul.calls: [5, 6]"]


def test_tracer_reports_the_layers_and_restores_the_program(mods):
    engine = mods["engine"]
    originals = (engine.lie_derivative, engine.sparse_kernel_basis, mods["multipoly"].MultiPoly.__mul__)
    with Tracer(mods) as tracer:
        rc, stdout = cli_output(mods, ["find", "--model", "IX", "--k", "1/2", "--max-degree", "3"])
    assert (engine.lie_derivative, engine.sparse_kernel_basis,
            mods["multipoly"].MultiPoly.__mul__) == originals
    assert rc == 0
    m = tracer.layer_metrics()
    assert m["engine.cols"] == 6 + 21 + 56
    assert m["nullspace.rank"] == m["engine.cols"]  # every kernel of IX is empty
    assert m["nullspace.sparse_kernel_basis.calls"] == 3
    assert m["nullspace.sparse_kernel_basis.self_s"] > 0
    assert m["vectorfields.lie_derivative.calls"] == 6 + 21 + 56
    assert sum(m["share." + layer] for layer in ("cli", "engine", "nullspace", "vectorfields",
                                                   "multipoly", "dynamics")) == pytest.approx(1.0)


def test_benchmark_json_names_every_metric_printed(mods):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.UNITS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    with Tracer(mods) as tracer:
        cli_output(mods, ["lemma", "sn"])
    names = set(tracer.layer_metrics()) | {"cli.stdout_bytes", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "orbits", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
