import json
from fractions import Fraction

import pytest

from bianchi_integrals import dynamics, engine, nullspace, vectorfields
from bianchi_integrals.cli import main
from bianchi_integrals.multipoly import MultiPoly


def run(capsys, argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestCatalog:
    def test_json_lists_six_models(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--k", "1/2"])
        assert code == 0
        payload = json.loads(out)
        assert [m["model"] for m in payload["models"]] == [
            "I", "II", "VI0", "VII0", "VIII", "IX",
        ]
        entry = payload["models"][5]
        assert entry["n"] == [1, 1, 1]
        assert entry["k"] == "1/2"
        assert len(entry["components"]) == 6
        assert entry["components"][0] == "-x1*x4 + x1*x5 + x1*x6"

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, ["catalog", "--format", "text"])
        assert code == 0
        assert out.startswith("Bianchi I ")
        assert "dx1/dt = " in out

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, ["catalog"])
        _, out2, _ = run(capsys, ["catalog"])
        assert out1 == out2


class TestFind:
    def test_model_II_passes(self, capsys):
        code, out, _ = run(capsys, ["find", "--model", "II", "--k", "1/2", "--max-degree", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert [d["dim"] for d in payload["degrees"]] == [1, 1, 1]
        assert payload["degrees"][0]["basis"] == ["x5 - x6"]
        assert payload["engine"]["pivot_rule"] == "first-nonzero"

    def test_model_IX_symbolic(self, capsys):
        code, out, _ = run(capsys, ["find", "--model", "IX", "--k", "symbolic", "--max-degree", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "symbolic-k"
        assert [d["dim"] for d in payload["degrees"]] == [0, 0]

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "find.json"
        code, out, _ = run(
            capsys,
            ["find", "--model", "I", "--max-degree", "2", "--out", str(path)],
        )
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["model"] == "I"

    def test_format_flag_is_rejected(self, capsys):
        code, _, err = run(capsys, ["find", "--model", "II", "--format", "text"])
        assert code == 1
        assert "--format" in err

    def test_failed_soundness_recheck_is_one_error_line(self, capsys, monkeypatch):
        # A kernel vector outside the kernel is a wrong answer, not a usage error.
        def wrong_kernel(rows, ncols, levels=None):
            return [tuple(Fraction(int(j == 0)) for j in range(ncols))], ncols - 1

        monkeypatch.setattr(engine, "sparse_kernel_basis", wrong_kernel)
        code, out, err = run(capsys, ["find", "--model", "II", "--max-degree", "3"])
        assert (code, out) == (2, "")
        assert err.startswith("bianchi: error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_dropping_the_direction_part_fails_the_recheck(self, capsys, monkeypatch):
        # Without d/dx4 + d/dx5 + d/dx6 the system is that of X(1) alone, whose
        # degree-2 kernel holds F.  F is no first integral of X(0), so the
        # re-check against the model's own fields must stop find.
        monkeypatch.setattr(engine, "_direction", lambda D: tuple(MultiPoly(len(D)) for _ in D))
        code, out, err = run(capsys, ["find", "--model", "IX", "--k", "symbolic", "--max-degree", "2"])
        assert (code, out) == (2, "")
        F = vectorfields.build_F(1, 1, 1)
        assert err == "bianchi: error: kernel polynomial fails annihilation re-check: %s\n" % F


class TestVerify:
    @pytest.mark.parametrize("tag", ["I", "II", "VI0", "VII0", "VIII", "IX"])
    def test_all_models_symbolic_default(self, capsys, tag):
        code, out, _ = run(capsys, ["verify", "--model", tag])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == "symbolic"
        assert payload["pass"] is True
        kinds = [c["kind"] for c in payload["checks"]]
        assert kinds[0] == "weighted-power"
        assert all(c["witness"] == "0" for c in payload["checks"])

    def test_fixed_k(self, capsys):
        code, out, _ = run(capsys, ["verify", "--model", "II", "--k", "2/3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == "2/3"
        assert any(c["integral"] == "x5 - x6" for c in payload["checks"])

    def test_energy_check_fails_on_a_field_without_the_x1_factor(self, capsys, monkeypatch):
        # X1 = -x4 + x5 + x6 in place of x1 * (-x4 + x5 + x6): the residual is
        # nonzero, and verify says so instead of raising.
        build = vectorfields.build_bianchi
        x = [MultiPoly.variable(6, i) for i in range(6)]
        monkeypatch.setattr(vectorfields, "build_bianchi",
                            lambda tag, k: (-x[3] + x[4] + x[5],) + build(tag, k)[1:])
        code, out, err = run(capsys, ["verify", "--model", "IX"])
        assert (code, err) == (2, "")
        payload = json.loads(out)
        (check,) = payload["checks"]
        assert check["kind"] == "weighted-power"
        assert check["pass"] is False and check["witness"] != "0"
        assert payload["pass"] is False


class TestSimulate:
    def test_csv_and_sidecar(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, _, _ = run(
            capsys,
            [
                "simulate", "--model", "IX", "--k", "1/2",
                "--t-end", "0.2", "--tol", "1e-10", "--out", str(path),
            ],
        )
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x1,x2,x3,x4,x5,x6"
        assert len(lines) > 2
        sidecar = json.loads((tmp_path / "orbit.drift.json").read_text())
        assert sidecar["model"] == "IX"
        assert sidecar["x0"] == "1,1,1,1,2,3"
        assert sidecar["drift"]["status"] == "completed"
        names = [e["name"] for e in sidecar["drift"]["invariants"]]
        assert names == ["H"]
        assert sidecar["drift"]["invariants"][0]["max_relative_drift"] < 1e-6

    def test_stopped_orbit_exits_two_after_writing_outputs(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, _, _ = run(
            capsys,
            ["simulate", "--model", "I", "--x0", "1,2,3,10,10,10", "--out", str(path)],
        )
        assert code == 2
        assert len(path.read_text().splitlines()) > 2
        sidecar = json.loads((tmp_path / "orbit.drift.json").read_text())
        assert sidecar["drift"]["status"] == "step_underflow"

    def test_default_start_VIII_completes(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, _, _ = run(capsys, ["simulate", "--model", "VIII", "--out", str(path)])
        assert code == 0
        sidecar = json.loads((tmp_path / "orbit.drift.json").read_text())
        assert sidecar["x0"] == "1/4,1/2,3/4,1/4,1/2,1"
        assert sidecar["drift"]["status"] == "completed"
        assert len(path.read_text().splitlines()) < 1000  # ~131 steps

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, code, status, linear", [
        # The start is finite, but H = (x1 x2 x3)^(-1/4) F overflows in F,
        # and so do the trial steps, which the integrator rejects silently.
        (["--model", "II", "--x0", "1,2,3,1,2,1e200", "--t-end", "0.01"],
         2, "step_underflow", [("x5-x6", -1e200)]),
        # (x1 x2 x3)^(-1/2) = 1e150 and F = -7e200 are finite; their product is not.
        (["--model", "IX", "--k", "0", "--x0", "1e-100,1e-100,1e-100,1e100,2e100,4e100",
          "--t-end", "1e-250"], 0, "completed", []),
    ])
    def test_invariant_overflow_is_flagged_not_raised(self, capsys, tmp_path, argv, code,
                                                      status, linear):
        path = tmp_path / "orbit.csv"
        got, _, err = run(capsys, ["simulate", *argv, "--out", str(path)])
        assert (got, err) == (code, "")
        sidecar = json.loads((tmp_path / "orbit.drift.json").read_text())
        assert sidecar["drift"]["status"] == status
        *entries, H = sidecar["drift"]["invariants"]
        assert [(e["name"], e["initial_value"]) for e in entries] == linear
        assert not any(e["domain_violation"] for e in entries)
        assert H["name"] == "H" and H["domain_violation"]
        assert H["initial_value"] is None

    def test_tiny_t_end_takes_its_one_step(self, capsys, tmp_path):
        # The one step left reaches t_end, however small: it is no underflow.
        path = tmp_path / "orbit.csv"
        code, _, _ = run(capsys, ["simulate", "--model", "IX", "--t-end", "1e-16",
                                  "--out", str(path)])
        assert code == 0
        rows = path.read_text().splitlines()[1:]
        assert len(rows) == 2 and float(rows[-1].split(",")[0]) == 1e-16
        sidecar = json.loads((tmp_path / "orbit.drift.json").read_text())
        assert sidecar["drift"]["status"] == "completed"

    @pytest.mark.parametrize("tag, names", [
        ("I", ["x4-x5", "x4-x6", "trans(x1/x2)", "trans(x2/x3)", "H"]),
        ("II", ["x5-x6", "H"]),
        ("IX", ["H"]),
    ])
    def test_payload_layout(self, capsys, tmp_path, tag, names):
        argv = ["simulate", "--model", tag, "--t-end", "0.01"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        stdout = json.loads(out[out.index("{"):])
        path = tmp_path / "orbit.csv"
        assert run(capsys, argv + ["--out", str(path)])[0] == 0
        sidecar = json.loads((tmp_path / "orbit.drift.json").read_text())
        assert sidecar == stdout
        for payload in (stdout, sidecar):
            assert list(payload) == ["model", "k", "x0", "t_end", "tol", "drift"]
            assert list(payload["drift"]) == ["status", "invariants"]
            invariants = payload["drift"]["invariants"]
            assert [e["name"] for e in invariants] == names
            for entry in invariants:
                assert list(entry) == [
                    "name", "initial_value", "max_relative_drift", "domain_violation"]

    def test_symbolic_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["simulate", "--model", "IX", "--k", "symbolic"])
        assert code == 1
        assert "fixed rational k" in err

    def test_bad_x0_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, ["simulate", "--model", "IX", "--x0", "1,2,3", "--t-end", "0.1"]
        )
        assert code == 1
        assert "six" in err


class TestLemma:
    def test_estrella_pass(self, capsys):
        code, out, _ = run(
            capsys, ["lemma", "estrella", "--a", "1,0,0", "--k", "1/2", "--degree", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hypothesis_holds"] is True
        assert payload["dimension"] == 0
        assert payload["pass"] is True

    def test_estrella_resonant_case_reports_basis(self, capsys):
        # equal weights a = m(k-1)/2 with m=1, k=1/2 -> a = -1/4, degree 2
        code, out, _ = run(
            capsys,
            ["lemma", "estrella", "--a=-1/4,-1/4,-1/4", "--k", "1/2", "--degree", "2"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hypothesis_holds"] is False
        assert payload["dimension"] >= 1
        assert payload["pass"] is True

    def test_dificil(self, capsys):
        code, out, _ = run(capsys, ["lemma", "dificil", "--k", "1/2", "--n", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["solution"]["dimension"] == 1
        assert payload["solution"]["conforms"] is True

    def test_sn(self, capsys):
        code, out, _ = run(capsys, ["lemma", "sn", "--n", "5"])
        assert code == 0
        assert json.loads(out)["identity_holds"] is True

    def test_bad_n_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["lemma", "sn", "--n", "1"])
        assert code == 1


class TestReport:
    def test_full_report_passes(self, capsys):
        code, out, _ = run(capsys, ["report", "--max-degree", "3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["m_max"] == 3
        assert payload["k_samples"] == ["0", "1/2", "2/3", "9/10"]
        # 6 models x (4 fixed k + symbolic)
        assert len(payload["cells"]) == 30
        by_model = {}
        for cell in payload["cells"]:
            by_model.setdefault(cell["model"], []).append(cell)
        assert set(by_model) == {"I", "II", "VI0", "VII0", "VIII", "IX"}
        for cells in by_model.values():
            assert [c["k"] for c in cells] == ["0", "1/2", "2/3", "9/10", "symbolic"]
        for cell in by_model["I"]:
            assert cell["dimensions"] == [2, 3, 4]
            assert cell["statement"].startswith("(a)")
        for cell in by_model["II"]:
            assert cell["dimensions"] == [1, 1, 1]
        for tag in ("VI0", "VII0", "VIII", "IX"):
            for cell in by_model[tag]:
                assert cell["dimensions"] == [0, 0, 0]
        # independence ranks only at fixed k for the integrable models
        for cell in by_model["I"][:4]:
            assert cell["independence"]["rank"] == 5
        for cell in by_model["II"][:4]:
            assert cell["independence"]["rank"] == 2
        assert "independence" not in by_model["IX"][0]
        assert all(c["energy_integral_identity"] for c in payload["cells"])

    def test_exact_rank_holds_near_k_one(self, capsys):
        code, out, _ = run(capsys, ["report", "--max-degree", "1", "--k-samples", "999999/1000000"])
        assert code == 0
        cells = {c["model"]: c for c in json.loads(out)["cells"] if c["k"] != "symbolic"}
        assert cells["I"]["independence"] == {"rank": 5, "point": [1, 2, 3, 5, 8, 13]}
        assert cells["II"]["independence"]["rank"] == 2

    def test_each_model_is_built_once(self, capsys, monkeypatch):
        # 30 cells, six of them at symbolic k with two fields each.
        build = vectorfields.build_bianchi
        calls = []
        monkeypatch.setattr(vectorfields, "build_bianchi",
                            lambda tag, k: calls.append((tag, k)) or build(tag, k))
        assert run(capsys, ["report", "--max-degree", "1"])[0] == 0
        assert len(calls) == 36
        model = vectorfields.BianchiModel("IX", None)
        assert model.fields is model.fields

    def test_byte_stable(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, ["report", "--max-degree", "2", "--out", str(a)])
        run(capsys, ["report", "--max-degree", "2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestBrokenModularCertificate:
    # A mod-p test that calls every piece full rank empties every kernel, on the
    # filtration's diagonal pieces and on the unlabelled rank comparisons alike.
    # Types I and II have integrals at each degree, so their runs must then exit
    # 2; IX has none, so its run still passes and the cases stay told apart.
    @pytest.mark.parametrize("argv, code", [
        (["find", "--model", "I", "--max-degree", "3"], 2),
        (["find", "--model", "II", "--max-degree", "3"], 2),
        (["find", "--model", "II", "--k", "symbolic", "--max-degree", "3"], 2),
        (["report", "--max-degree", "2"], 2),
        (["find", "--model", "IX", "--max-degree", "3"], 0),
    ])
    def test_cannot_hide_a_kernel(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(nullspace, "_stacked_full_rank", lambda pieces: [True] * len(pieces))
        assert run(capsys, argv)[0] == code


class TestRepeatedKernelVector:
    # A kernel whose second vector repeats the first has the right length, and
    # each copy passes the soundness re-check; only the rank against the span
    # of the known integrals' products tells it apart.  Type I's kernel has
    # three vectors from degree 2 on.
    @pytest.mark.parametrize("argv", [
        ["find", "--model", "I", "--max-degree", "3"],
        ["report", "--max-degree", "3"],
    ])
    def test_is_a_mismatch(self, capsys, monkeypatch, argv):
        kernel = engine.sparse_kernel_basis

        def repeating(rows, ncols, levels=None):
            vectors, rank = kernel(rows, ncols, levels)
            if len(vectors) >= 3:
                vectors[1] = vectors[0]
            return vectors, rank

        monkeypatch.setattr(engine, "sparse_kernel_basis", repeating)
        code, out, err = run(capsys, argv)
        assert (code, err) == (2, "")
        assert json.loads(out)["pass"] is False


class TestUsageErrors:
    def test_unknown_model_exits_one(self, capsys):
        code, _, err = run(capsys, ["find", "--model", "X"])
        assert code == 1
        assert "error" in err

    def test_missing_subcommand_exits_one(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_bad_k_exits_one(self, capsys):
        code, _, _ = run(capsys, ["find", "--model", "I", "--k", "zebra"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["find", "--model", "II", "--max-degree", "0"],
            ["simulate", "--model", "IX", "--x0", "1,2,a"],
            ["simulate", "--model", "IX", "--tol", "0"],
            ["simulate", "--model", "IX", "--tol", "inf"],
            ["simulate", "--model", "IX", "--t-end", "-1"],
            ["simulate", "--model", "IX", "--t-end", "0"],
            ["simulate", "--model", "IX", "--t-end", "nan"],
            ["lemma", "estrella", "--degree", "-1"],
            ["find", "--model", "II", "--k", "1"],
            ["report", "--k-samples", "1/2,x"],
            # each lemma takes only the flags it reads
            ["lemma", "sn", "--a", "9,9,9"],
            ["lemma", "sn", "--k", "1/2"],
            ["lemma", "sn", "--degree", "7"],
            ["lemma", "estrella", "--n", "3"],
            ["lemma", "dificil", "--a", "1,0,0"],
            ["lemma", "dificil", "--degree", "3"],
            # every start coordinate must convert to a finite float
            ["simulate", "--model", "IX", "--x0", "1,2,3,1,2,1e400"],
            # a repeated k would be reported twice
            ["report", "--k-samples", "1/2,1/2"],
            ["report", "--k-samples", "1/2,0.5"],
            # a degree of 2^32 or more does not fit a monomial key
            ["lemma", "estrella", "--degree", "4294967296"],
            ["lemma", "dificil", "--n", "4294967296"],
            # A2^(2n-2) needs 2n - 2 < 2^32
            ["lemma", "sn", "--n", "2147483649"],
            ["lemma", "sn", "--n", "4294967296"],
        ],
    )
    def test_bad_value_exits_one_with_one_line_message(self, capsys, argv):
        code, out, err = run(capsys, argv)  # any other exception fails the test
        assert code == 1
        assert out == ""
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["lemma", "sn"], ["simulate", "--model", "I", "--t-end", "0.1"]],
    )
    def test_unwritable_out_path_exits_one_with_one_line_message(
        self, capsys, monkeypatch, tmp_path, argv
    ):
        def integrate(*args):
            raise AssertionError("integrated before the --out path was opened")

        monkeypatch.setattr(dynamics, "integrate", integrate)
        path = str(tmp_path / "missing" / "out.json")
        code, out, err = run(capsys, argv + ["--out", path])
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1 and path in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_sidecar_path_that_is_a_directory_exits_one_before_integrating(
        self, capsys, monkeypatch, tmp_path
    ):
        def integrate(*args):
            raise AssertionError("integrated before the drift sidecar was opened")

        monkeypatch.setattr(dynamics, "integrate", integrate)
        (tmp_path / "o.drift.json").mkdir()
        path = str(tmp_path / "o.csv")
        code, out, err = run(capsys, ["simulate", "--model", "IX", "--out", path])
        assert code == 1
        assert out == ""
        assert err.count("error:") == 1 and "o.drift.json" in err.splitlines()[-1]
        assert "Traceback" not in err

    def test_an_unopenable_sidecar_leaves_the_old_csv_as_it_was(
        self, capsys, monkeypatch, tmp_path
    ):
        def integrate(*args):
            raise AssertionError("integrated before the drift sidecar was opened")

        monkeypatch.setattr(dynamics, "integrate", integrate)
        (tmp_path / "o.csv").write_bytes(b"precious\n")
        (tmp_path / "o.drift.json").mkdir()
        code, out, _ = run(capsys, ["simulate", "--model", "IX", "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert out == ""
        assert (tmp_path / "o.csv").read_bytes() == b"precious\n"

    def test_rewriting_a_longer_old_output_leaves_only_the_new_text(self, capsys, tmp_path):
        path = tmp_path / "o.csv"
        argv = ["simulate", "--model", "IX", "--t-end", "0.01", "--out", str(path)]
        assert run(capsys, argv)[0] == 0
        fresh = path.read_bytes(), (tmp_path / "o.drift.json").read_bytes()
        for p in (path, tmp_path / "o.drift.json"):
            p.write_bytes(b"x" * 100000)
        assert run(capsys, argv)[0] == 0
        assert (path.read_bytes(), (tmp_path / "o.drift.json").read_bytes()) == fresh

    @pytest.mark.parametrize(
        "argv, usage",
        [
            (["lemma", "sn", "--k", "1/2"], "usage: bianchi lemma sn "),
            (["find", "--model", "IX", "--bogus", "1"], "usage: bianchi find "),
        ],
        ids=["lemma-sn", "find"],
    )
    def test_unknown_flag_reports_the_subcommand_usage(self, capsys, argv, usage):
        code, out, err = run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith(usage)
        assert [line for line in err.splitlines() if "error:" in line] == [err.splitlines()[-1]]

    @pytest.mark.parametrize(
        "argv, key, echoed",
        [
            (["simulate", "--model", "I", "--x0=-1,2,3,1,2,4", "--t-end", "0.01"],
             "x0", "-1,2,3,1,2,4"),
            (["lemma", "estrella", "--a=-1,0,0", "--degree", "1"], "a", ["-1", "0", "0"]),
        ],
        ids=["x0", "a"],
    )
    def test_negative_first_value_parses_in_the_equals_form(self, capsys, argv, key, echoed):
        # argparse takes "-1,2,..." after a space for a flag, not a value
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert json.loads(out[out.index("{"):])[key] == echoed
