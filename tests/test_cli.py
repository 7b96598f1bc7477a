import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cdspack import coloring, pipeline, spectral
from cdspack.cli import EXIT_CODES, main
from cdspack.errors import (EigenConvergenceError, PostconditionViolation,
                            ResampleBudgetExhausted)
from cdspack.graph import load_graph

REPO = Path(__file__).resolve().parents[1]


def test_gen_writes_loadable_graph(tmp_path):
    out = tmp_path / "g.txt"
    code = main(["gen", "--kind", "regular", "--n", "50", "--d", "4",
                 "--seed", "3", "--out", str(out)])
    assert code == 0
    g = load_graph(out)
    assert g.n == 50 and set(g.degrees.tolist()) == {4}


def test_gen_petersen_and_bad_params(tmp_path):
    out = tmp_path / "p.txt"
    assert main(["gen", "--kind", "petersen", "--out", str(out)]) == 0
    code = main(["gen", "--kind", "regular", "--n", "5", "--d", "3",
                 "--out", str(tmp_path / "x.txt")])
    assert code == EXIT_CODES["usage"]


def test_spectrum_report_keys(tmp_path, capsys):
    gpath = tmp_path / "p.txt"
    main(["gen", "--kind", "petersen", "--out", str(gpath)])
    capsys.readouterr()
    code = main(["spectrum", "--input", str(gpath)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    prof = report["spectral"]
    assert set(prof) == {"lambda2", "lambda_n", "lambda", "ratio", "tol", "method",
                         "lambda2_residual", "lambda_n_residual"}
    assert abs(prof["lambda"] - 2.0) < 1e-9
    assert prof["method"] == "dense"


def test_pack_small_practice_run(tmp_path):
    rep_path = tmp_path / "rep.json"
    pack_path = tmp_path / "packing.json"
    code = main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4",
                 "--mode", "practice", "--seed", "1",
                 "--report", str(rep_path), "--packing-out", str(pack_path)])
    assert code == 0
    report = json.loads(rep_path.read_text())
    assert report["verification"]["failures"] == []
    assert report["verification"]["target_met"]
    assert report["params"]["mode"] == "practice"
    # practice mode derives no m, D or s, and reports them as null
    assert [report["params"][k] for k in ("m", "D", "s")] == [None, None, None]
    assert "coloring" in report["timings"]
    assert report["seed"] == 1
    packing = json.loads(pack_path.read_text())
    assert set(packing) == {"params", "sets", "certificates", "paths"}
    resamples = report["coloring_resamples"]
    assert isinstance(resamples, int) and resamples >= 0
    again_path = tmp_path / "again.json"
    assert main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4",
                 "--mode", "practice", "--seed", "1",
                 "--report", str(again_path)]) == 0
    assert json.loads(again_path.read_text())["coloring_resamples"] == resamples


def test_pack_theory_infeasible_exit(tmp_path):
    rep_path = tmp_path / "rep.json"
    code = main(["pack", "--n", "1000", "--d", "20", "--epsilon", "0.1",
                 "--mode", "theory", "--seed", "3", "--report", str(rep_path)])
    assert code == EXIT_CODES["infeasible"]
    report = json.loads(rep_path.read_text())
    assert report["error"]["type"] == "InfeasibleParameters"


def test_pack_theory_fails_fast_at_the_stage_two_gate(tmp_path):
    # K_200 at epsilon 0.9 has D = 3, but d_star = 4156 classes cannot each
    # appear five times among 199 neighbours: the gate rejects it before
    # coloring, where Moser-Tardos resampling used to spin
    gpath, rep_path = tmp_path / "k200.txt", tmp_path / "rep.json"
    assert main(["gen", "--kind", "complete", "--n", "200", "--out", str(gpath)]) == 0
    code = main(["pack", "--input", str(gpath), "--mode", "theory",
                 "--epsilon", "0.9", "--report", str(rep_path)])
    assert code == EXIT_CODES["infeasible"]
    error = json.loads(rep_path.read_text())["error"]
    assert error["phase"] == "params"
    assert error["type"] == "InfeasibleParameters"
    assert "class band: d = 199 < d_star * (floor(eps^2 ln d) + 1)" in error["message"]


def test_verify_roundtrip_and_tamper(tmp_path):
    gpath = tmp_path / "g.txt"
    pack_path = tmp_path / "packing.json"
    main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4", "--seed", "1",
          "--packing-out", str(pack_path), "--report", str(tmp_path / "r.json")])
    # reuse the same generated graph
    main(["gen", "--kind", "regular", "--n", "600", "--d", "16", "--seed", "1",
          "--out", str(gpath)])
    assert main(["verify", "--input", str(gpath), "--packing", str(pack_path),
                 "--target", "1"]) == 0
    blob = json.loads(pack_path.read_text())
    blob["sets"][0] = blob["sets"][0][1:]  # drop a vertex
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(blob))
    assert main(["verify", "--input", str(gpath), "--packing", str(tampered)]) \
        == EXIT_CODES["verification"]


def _without_timings(body):
    return {k: v for k, v in body.items() if k not in ("timings", "config")}


def test_pack_trials(tmp_path):
    gpath = tmp_path / "g.txt"
    main(["gen", "--kind", "regular", "--n", "400", "--d", "12", "--seed", "2",
          "--out", str(gpath)])
    rep_path = tmp_path / "rep.json"
    pack_path = tmp_path / "packing.json"
    code = main(["pack", "--input", str(gpath), "--epsilon", "0.4",
                 "--seed", "2", "--trials", "2", "--report", str(rep_path),
                 "--packing-out", str(pack_path)])
    assert code == 0
    report = json.loads(rep_path.read_text())
    assert len(report["trials"]) == 2
    assert [t["seed"] for t in report["trials"]] == [2, 3]
    # --packing-out holds the largest packing, the lowest seed's on a tie
    best = max(report["trials"], key=lambda t: len(t["packing"]["sets"]))
    assert json.loads(pack_path.read_text()) == best["packing"]
    # load and spectrum are shared, so their timings appear once, at the top
    assert set(report["timings"]) == {"generate", "spectral"}
    assert all("graph" in t and "spectral" in t for t in report["trials"])
    # a trial is the same run as packing its seed alone
    single_path = tmp_path / "single.json"
    assert main(["pack", "--input", str(gpath), "--epsilon", "0.4",
                 "--seed", "3", "--report", str(single_path)]) == 0
    single = json.loads(single_path.read_text())
    assert _without_timings(report["trials"][1]) == _without_timings(single)


def test_pack_unreadable_input_is_an_input_error(tmp_path):
    rep_path = tmp_path / "rep.json"
    code = main(["pack", "--input", str(tmp_path / "missing.txt"),
                 "--trials", "2", "--report", str(rep_path)])
    assert code == EXIT_CODES["input"]
    trials = json.loads(rep_path.read_text())["trials"]
    assert [t["error"]["phase"] for t in trials] == ["generate", "generate"]


def assert_argument_error(capsys, message):
    """The usage message on stderr, and one JSON report naming it on stdout."""
    out, err = capsys.readouterr()
    assert message in err
    assert out.count("\n") == 1
    error = json.loads(out)["error"]
    assert error["phase"] == "arguments" and error["type"] == "ArgumentError"
    assert message in error["message"]


def test_pack_rejects_fewer_than_one_trial(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pack", "--n", "400", "--d", "12", "--trials", "0"])
    assert exc.value.code == EXIT_CODES["usage"]
    assert_argument_error(capsys, "argument --trials: must be at least 1")


@pytest.mark.parametrize("argv, message", [
    (["pack", "--n", "400", "--d", "12", "--max-sets", "-1"],
     "argument --max-sets: must be at least 0"),
    (["pack", "--n", "400", "--d", "12", "--target", "-2"],
     "argument --target: must be at least 0"),
    (["verify", "--input", "g.txt", "--packing", "p.json", "--target", "-1"],
     "argument --target: must be at least 0"),
    (["pack", "--n", "abc", "--d", "12"], "argument --n: invalid int value: 'abc'"),
    # a non-finite float would be echoed as NaN or Infinity, which is not JSON
    (["spectrum", "--input", "g.txt", "--tol", "nan"],
     "argument --tol: must be finite, got nan"),
    (["spectrum", "--input", "g.txt", "--tol", "inf"],
     "argument --tol: must be finite, got inf"),
    (["pack", "--n", "600", "--d", "16", "--epsilon", "nan"],
     "argument --epsilon: must be finite, got nan"),
    (["gen", "--kind", "binomial", "--n", "100", "--p", "nan", "--out", "x.txt"],
     "argument --p: must be finite, got nan"),
    # pack's lambda bound has no tolerance to set
    (["pack", "--n", "600", "--d", "16", "--tol", "nan"],
     "unrecognized arguments: --tol nan"),
    (["pack", "--n", "600", "--d", "16", "--tol", "inf"],
     "unrecognized arguments: --tol inf"),
    # pack derives no m or D in practice mode and takes no overrides of them
    (["pack", "--n", "600", "--d", "16", "--override-D", "4"],
     "unrecognized arguments: --override-D 4"),
    (["pack", "--n", "600", "--d", "16", "--override-m", "3"],
     "unrecognized arguments: --override-m 3"),
], ids=["pack-max-sets", "pack-target", "verify-target", "pack-n-word",
        "spectrum-tol-nan", "spectrum-tol-inf", "pack-epsilon-nan", "gen-p-nan",
        "pack-tol-nan", "pack-tol-inf", "pack-override-D-4", "pack-override-m-3"])
def test_negative_counts_are_usage_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_CODES["usage"]
    assert_argument_error(capsys, message)


def test_help_prints_no_report(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pack", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cdspack pack")


def test_edgeless_spectrum_report_is_strict_json(tmp_path, capsys):
    gpath = tmp_path / "e.txt"
    main(["gen", "--kind", "binomial", "--n", "10", "--p", "0", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["spectrum", "--input", str(gpath)]) == 0

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    prof = json.loads(capsys.readouterr().out, parse_constant=reject)["spectral"]
    assert prof["lambda"] == 0.0 and prof["ratio"] is None


def test_report_is_one_line_of_json(tmp_path, capsys):
    gpath = tmp_path / "p.txt"
    rep_path = tmp_path / "rep.json"
    main(["gen", "--kind", "petersen", "--out", str(gpath)])
    capsys.readouterr()
    assert main(["spectrum", "--input", str(gpath), "--report", str(rep_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and out.endswith("\n")  # no indentation
    assert rep_path.read_text() == out
    assert json.loads(out)["spectral"]["lambda"] == pytest.approx(2.0)


@pytest.mark.parametrize("trials", [1, 2])
def test_report_reuses_the_packing_encoding(tmp_path, capsys, trials):
    """The packing is encoded once: its file's text sits in the report,
    which is byte for byte the encoding of the whole report in one call."""
    rep_path, pack_path = tmp_path / "rep.json", tmp_path / "packing.json"
    assert main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4",
                 "--seed", "1", "--trials", str(trials), "--report", str(rep_path),
                 "--packing-out", str(pack_path)]) == 0
    out = capsys.readouterr().out
    assert rep_path.read_text() == out
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert out.count(pack_path.read_text()) == 1


def test_tracing_sees_every_layer_once_per_use(tmp_path):
    """The benchmark's tracer wraps module attributes; each layer must be
    called through them, and load must run once per invocation."""
    gpath = tmp_path / "g.txt"
    main(["gen", "--kind", "regular", "--n", "400", "--d", "12", "--seed", "2",
          "--out", str(gpath)])
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "trace_pack.py"), str(spans_path),
         "pack", "--input", str(gpath), "--epsilon", "0.4", "--seed", "2",
         "--trials", "2"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    calls = Counter(span[0] for span in json.loads(spans_path.read_text())["spans"])
    assert calls["graph.load_graph"] == 1
    # pack bounds lambda with spectral.lambda_bound, which the tracer does not wrap
    assert calls["spectral.extremal_eigenvalues"] == 0
    assert calls["params.derive_params"] == 2
    assert calls["verifier.verify_packing"] == 2  # the connector's, once per trial
    assert calls["cli.emit"] == 1
    assert calls["coloring.stage_one"] > 0
    assert calls["connector.connect_family"] > 0
    # build_family and the verification each label all their sets in one
    # label_components call, so the one-set components_of is never called
    trials = json.loads(proc.stdout)["trials"]
    assert all("error" not in t and t["coloring_attempts"] == 1 for t in trials)
    assert calls["graph.components_of"] == 0


def test_pack_bounds_lambda_once_per_invocation(tmp_path, capsys, monkeypatch):
    """The bound runs in a forked child, so each call leaves a line in a file."""
    real, calls = spectral.lambda_bound, tmp_path / "bounds.jsonl"

    def counted(g):
        bound = real(g)
        with open(calls, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(bound.to_json()) + "\n")
        return bound

    monkeypatch.setattr(spectral, "lambda_bound", counted)
    assert main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4",
                 "--seed", "1", "--trials", "2"]) == 0
    bound, = map(json.loads, calls.read_text().splitlines())
    for trial in json.loads(capsys.readouterr().out)["trials"]:
        assert trial["spectral"] == bound
        assert trial["spectral"]["method"] == "lanczos"
        # practice params read no lambda: it lives in the spectral block only
        assert trial["params"]["lambda_used"] is None
    assert_no_child_left()


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_bound_leaves_no_child_and_matches_the_inline_one(capsys, monkeypatch):
    argv = ["pack", "--n", "600", "--d", "16", "--epsilon", "0.4", "--seed", "1"]
    assert main(argv) == 0
    assert_no_child_left()
    forked = json.loads(capsys.readouterr().out)
    monkeypatch.delattr(os, "fork")  # where there is no fork the bound runs inline
    assert main(argv) == 0
    inline = json.loads(capsys.readouterr().out)
    assert forked["timings"]["spectral"] > 0
    assert {**forked, "timings": None} == {**inline, "timings": None}


def test_failing_trial_kills_the_bound(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("trial failed")

    monkeypatch.setattr(pipeline, "run", fail)
    with pytest.raises(RuntimeError, match="trial failed"):
        main(["pack", "--n", "20000", "--d", "16", "--seed", "1"])
    assert_no_child_left()


@pytest.mark.parametrize("mode", ["practice", "theory"])
def test_failed_bound_fails_every_trial(capsys, monkeypatch, mode):
    def fail(g):
        raise EigenConvergenceError("stubbed")

    runs = []
    real_run = pipeline.run
    monkeypatch.setattr(spectral, "lambda_bound", fail)
    monkeypatch.setattr(pipeline, "run", lambda *a, **k: runs.append(1) or real_run(*a, **k))
    assert main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4", "--mode", mode,
                 "--seed", "1", "--trials", "2"]) == EXIT_CODES["spectral"]
    assert_no_child_left()
    report = json.loads(capsys.readouterr().out)
    for trial in report["trials"]:
        assert trial["error"] == {"phase": "spectral", "type": "EigenConvergenceError",
                                  "message": "stubbed"}
        assert "spectral" not in trial and "params" not in trial
    assert "spectral" not in report["timings"]
    # theory mode waits for lambda before params; practice trials ran beside it
    assert len(runs) == (2 if mode == "practice" else 0)


def test_pack_never_imports_scipy(tmp_path):
    """pack bounds lambda with numpy alone; spectrum above the dense size
    still loads SciPy for its Lanczos call."""
    script = (
        "import sys\n"
        "from cdspack.cli import main\n"
        "main(['pack', '--n', '600', '--d', '16', '--seed', '1'])\n"
        "assert 'scipy' not in sys.modules\n"
        "main(['gen', '--kind', 'regular', '--n', '600', '--d', '16', '--out', 'g.txt'])\n"
        "main(['spectrum', '--input', 'g.txt'])\n"
        "assert 'scipy' in sys.modules\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv, code, phase", [
    (["pack", "--n", "101", "--d", "3"], "usage", "generate"),
    # pack takes no --tol: argparse rejects it before any phase runs
    (["pack", "--n", "600", "--d", "16", "--tol", "0"], "usage", "arguments"),
    (["pack", "--n", "600", "--d", "16", "--epsilon", "1.5"], "usage", "params"),
    (["spectrum", "--input", "{tmp}/missing.txt"], "input", "load"),
    (["spectrum", "--input", "{graph}", "--tol", "0"], "usage", "spectral"),
    (["gen", "--kind", "petersen", "--out", "{tmp}/missing/x.txt"], "input",
     "generate"),
    (["spectrum", "--input", "{tmp}/word.txt"], "input", "load"),
    (["pack", "--input", "{tmp}/word.txt"], "input", "generate"),
    (["verify", "--input", "{graph}", "--packing", "{tmp}/list.json"], "input",
     "load"),
    (["verify", "--input", "{graph}", "--packing", "{tmp}/strings.json"],
     "input", "load"),
    # regularity is checked before the bound's child is forked and any trial runs
    (["pack", "--input", "{tmp}/glued.txt"], "spectral", "spectral"),
    # the empty graph is regular, and params need n > d >= 3
    (["pack", "--input", "{tmp}/empty.txt"], "infeasible", "params"),
], ids=["pack-odd-degree-sum", "pack-tol-0",
        "pack-epsilon-1.5", "spectrum-missing-input", "spectrum-tol-0", "gen-missing-dir",
        "spectrum-word-token", "pack-word-token", "verify-packing-list",
        "verify-packing-string-ids", "pack-non-regular", "pack-empty-graph"])
def test_every_subcommand_reports_its_failure(tmp_path, capsys, monkeypatch, argv,
                                              code, phase):
    graph = tmp_path / "p.txt"
    main(["gen", "--kind", "petersen", "--out", str(graph)])
    main(["gen", "--kind", "glued_cliques", "--k", "5", "--out", str(tmp_path / "glued.txt")])
    main(["gen", "--kind", "binomial", "--n", "600", "--p", "0",
          "--out", str(tmp_path / "empty.txt")])
    capsys.readouterr()

    def never(*args, **kwargs):
        raise AssertionError("a failed pack reached coloring")

    monkeypatch.setattr(coloring, "stage_one", never)
    (tmp_path / "word.txt").write_text("3 1\n0 x\n")
    (tmp_path / "list.json").write_text("[]")
    (tmp_path / "strings.json").write_text('{"sets": [["a"]]}')
    argv = [a.format(tmp=tmp_path, graph=graph) for a in argv]
    try:
        status = main(argv)
    except SystemExit as exc:  # an argument argparse rejects
        status = exc.code
    assert status == EXIT_CODES[code]
    assert_no_child_left()
    error = json.loads(capsys.readouterr().out)["error"]  # one report, nothing else
    assert error["phase"] == phase
    assert error["type"] and error["message"]


def test_pack_with_no_sets_is_verified_and_misses_its_target(capsys):
    code = main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4",
                 "--seed", "1", "--max-sets", "0"])
    assert code == EXIT_CODES["verification"]
    report = json.loads(capsys.readouterr().out)
    assert report["verification"]["packing_size"] == 0
    assert report["verification"]["failures"] == []
    assert report["verification"]["target_met"] is False
    assert "verify" not in report["timings"]


@pytest.mark.parametrize("flag", ["--report", "--packing-out"])
def test_unwritable_output_is_reported_as_an_input_error(tmp_path, capsys, flag):
    code = main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4",
                 "--seed", "1", flag, str(tmp_path / "missing" / "out.json")])
    assert code == EXIT_CODES["input"]
    report = json.loads(capsys.readouterr().out)  # printed all the same
    assert report["error"]["phase"] == "emit"
    assert report["error"]["type"] == "FileNotFoundError"
    assert report["verification"]["failures"] == []


@pytest.mark.parametrize("name, exc, code, attempts", [
    ("stage_one", ResampleBudgetExhausted("budget spent"), "resample", 3),
    ("build_family", PostconditionViolation("P1", detail="stubbed"),
     "postcondition", 1),
], ids=["resample-budget", "postcondition"])
def test_failed_coloring_reports_its_attempts(capsys, monkeypatch, name, exc,
                                              code, attempts):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(coloring, name, fail)
    assert main(["pack", "--n", "600", "--d", "16", "--epsilon", "0.4",
                 "--seed", "1"]) == EXIT_CODES[code]
    report = json.loads(capsys.readouterr().out)
    assert report["error"]["phase"] == "coloring"
    assert report["error"]["type"] == type(exc).__name__
    assert report["coloring_attempts"] == attempts


def test_readme_exit_code_table_matches_exit_codes():
    lines = (REPO / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| code | meaning |")
    codes = set()
    for line in lines[start + 2:]:  # past the header and its rule
        if not line.startswith("|"):
            break
        codes.add(int(line.split("|")[1]))
    assert codes == set(EXIT_CODES.values())
