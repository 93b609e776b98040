"""Command-line front-end tests: generators, entropy queries, experiment
runs, exit codes, and report reproducibility."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qdecouple import decoupling, linalg
from qdecouple import entropy as ent
from qdecouple.cli import main
from qdecouple.linalg import state_from_json


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_state_entangled(tmp_path, capsys):
    path = tmp_path / "ent.json"
    code, _, _ = run_cli(capsys, "gen-state", "entangled", "--k", "1",
                         "--out", str(path))
    assert code == 0
    state = state_from_json(json.loads(path.read_text()))
    assert state.dims.pairs == (("A", 2), ("E", 2))
    res = ent.h_min(state, ("A",), ("E",))
    assert res.value == pytest.approx(-1.0, abs=1e-6)


def test_gen_state_independent_defaults(tmp_path, capsys):
    path = tmp_path / "ind.json"
    code, _, _ = run_cli(capsys, "gen-state", "independent", "--k", "2",
                         "--out", str(path))
    assert code == 0
    state = state_from_json(json.loads(path.read_text()))
    np.testing.assert_allclose(state.matrix, np.eye(16) / 16, atol=1e-12)


def test_gen_state_trivial_classical(tmp_path, capsys):
    path = tmp_path / "triv.json"
    code, _, _ = run_cli(capsys, "gen-state", "classical", "--k", "0",
                         "--out", str(path))
    assert code == 0
    state = state_from_json(json.loads(path.read_text()))
    assert state.dims.total == 1
    assert ent.h_min(state, ("A",), ("E",)).value == pytest.approx(0.0, abs=1e-6)


def test_entropy_subcommand_classical_row(tmp_path, capsys):
    path = tmp_path / "cls.json"
    run_cli(capsys, "gen-state", "classical", "--k", "2", "--out", str(path))
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "entropy", "--state", str(path),
                         "--kind", "hmin", "--target", "A",
                         "--condition", "E", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["result"]["value"] == pytest.approx(0.0, abs=1e-6)
    assert report["result"]["kind"] == "hmin"
    assert report["result"]["certificate_gap"] <= 1e-6
    assert "duration_s" in report and "version" in report


def test_entropy_subcommand_hmax_of_entangled_state(tmp_path, capsys):
    path = tmp_path / "ent.json"
    run_cli(capsys, "gen-state", "entangled", "--k", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "entropy", "--state", str(path), "--kind", "hmax",
                           "--target", "A", "--condition", "E")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "hmax"
    assert result["value"] == pytest.approx(-1.0, abs=1e-6)
    assert result["certificate_gap"] <= 1e-6


def test_entropy_subcommand_h2_is_the_library_lower_bound(tmp_path, capsys):
    path = tmp_path / "mixed.json"
    run_cli(capsys, "gen-state", "random-mixed", "--dims", "A:2,E:3", "--seed", "5",
            "--out", str(path))
    state = state_from_json(json.loads(path.read_text()))
    assert state.dims.pairs == (("A", 2), ("E", 3))
    code, out, _ = run_cli(capsys, "entropy", "--state", str(path), "--kind", "h2",
                           "--target", "A", "--condition", "E")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["note"] == "lower bound on the conditioning supremum"
    assert result["value"] == ent.h2(state, ("A",), ("E",)).value


@pytest.mark.parametrize("kind", ["vn", "h2"])
def test_entropy_epsilon_on_an_unsmoothed_kind_exits_two(tmp_path, capsys, kind):
    # the report said "epsilon": 0.3 next to an unsmoothed value
    path = tmp_path / "ent.json"
    run_cli(capsys, "gen-state", "entangled", "--k", "1", "--out", str(path))
    out_path = tmp_path / "report.json"
    code, _, err = run_cli(capsys, "entropy", "--state", str(path), "--kind", kind,
                           "--target", "A", "--condition", "E", "--epsilon", "0.3",
                           "--out", str(out_path))
    assert code == 2 and "hmin and hmax only" in err
    assert not out_path.exists()
    code, _, _ = run_cli(capsys, "entropy", "--state", str(path), "--kind", kind,
                         "--target", "A", "--condition", "E", "--epsilon", "0",
                         "--out", str(out_path))
    assert code == 0


def test_lemmas_check_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "lem.json"
    code, _, _ = run_cli(capsys, "lemmas", "check", "--trials", "100",
                         "--seed", "7", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert all(entry["passed"] for entry in report["result"].values())
    assert report["seed"] == {"seed": 7, "stream": "default"}


def test_lemmas_check_with_a_violation_exits_one_after_the_report(
        tmp_path, capsys, monkeypatch):
    violated = {"swap_trick": decoupling.LemmaReport("swap_trick", 5, 1, 0.5)}
    monkeypatch.setattr(decoupling, "verify_proof_lemmas", lambda *a, **k: violated)
    out_path = tmp_path / "lem.json"
    code, out, err = run_cli(capsys, "lemmas", "check", "--trials", "5",
                             "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: lemma property suite reported violations\n"
    assert json.loads(out_path.read_text())["result"] == {
        "swap_trick": {"trials": 5, "failures": 1, "worst_slack": 0.5, "passed": False}}


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lemmas", "check", "--bogus"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--num-seeds", "0"],
    ["lemmas", "check", "--trials", "-3"],
    ["decouple", "run", "--state", "s.json", "--channel", "id:1", "--workers", "0"],
    # a qubit count below 0, and a dimension or sample count below 1, are
    # usage errors rather than tracebacks or invariant failures
    ["gen-state", "classical", "--k", "-1"],
    ["gen-state", "independent", "--k", "-1"],
    ["gen-state", "entangled", "--k", "-1"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--K", "0", "--L", "1"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--K", "8", "--L", "0"],
    ["decouple", "run", "--state", "s.json", "--channel", "id:1", "--samples", "0"],
    # so are a dimension below 1, a malformed label:dim list and an epsilon
    # outside [0, 1), where they exited 1 as invariant failures
    ["gen-state", "independent", "--dE", "0"],
    ["gen-state", "independent", "--dE", "-1"],
    ["gen-state", "random-mixed", "--dims", "A:0,E:2"],
    ["gen-state", "random-mixed", "--dims", "A2,E:2"],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--epsilon", "1.5"],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--epsilon", "-0.1"],
    ["decouple", "run", "--state", "s.json", "--channel", "id:1", "--epsilon", "1.5"],
    ["entropy", "--state", "s.json", "--kind", "h2", "--target", "A",
     "--optimize-sigma"],
    # the tolerances are constants, so no value of a --tol-* flag is accepted
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--tol-herm", "nan"],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--tol-psd", "nan"],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--tol-psd", "-1"],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--tol-trace", "inf"],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--tol-trace", "-0.5"],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--tol-psd", "0.5"],
    # merge run's epsilon lies in (0, 1): 1.5 ran with an error parameter
    # above 1, and 0 and -1 exited 1
    ["merge", "run", "--state", "s.json", "--epsilon", "1.5"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0"],
    ["merge", "run", "--state", "s.json", "--epsilon", "-1"],
    # a seed outside [0, 2^64) exited 1 from haar.RngSeed
    ["decouple", "run", "--state", "s.json", "--channel", "id:1", "--seed", "-1"],
    ["lemmas", "check", "--seed", "-1"],
    ["gen-state", "random-mixed", "--dims", "A:2,E:2", "--seed", "-1"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--seed", "-1"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3",
     "--seed", str(2 ** 64)],
    # an empty label list and a label given twice exited 1 from the library
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", ","],
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--condition", ","],
    ["gen-state", "random-mixed", "--dims", "A:2,A:2"],
    # a cap below 1 exited 1 as "total dimension 4 exceeds cap 0"
    ["gen-state", "classical", "--k", "1", "--cap", "0"],
    ["gen-state", "classical", "--k", "1", "--cap", "-1"],
    # the roles of the systems are fixed: the channel acts on A, merging
    # moves A to B with reference E, gen-state's reference is maximally
    # mixed of dimension 2^k, and every seed draws from the default stream
    ["gen-state", "independent", "--rhoE", "pure0"],
    ["gen-state", "independent", "--dE", "2"],
    ["decouple", "run", "--state", "s.json", "--channel", "id:1", "--on", "A"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--a-labels", "A"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--stream", "x"],
    ["lemmas", "check", "--stream", "x"],
])
def test_unknown_flag_exits_two(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["entropy", "--state", "s.json", "--kind", "hmin", "--target", "A",
     "--workers", "2"],
    ["gen-channel", "id:1", "--seed", "3"],
    ["gen-state", "classical", "--stream", "other"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--workers", "2"],
    ["lemmas", "check", "--cap", "8"],
])
def test_flags_a_subcommand_does_not_read_exit_two(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2


@pytest.mark.parametrize("kind", ["independent", "classical", "entangled"])
def test_gen_state_seed_without_randomness_exits_two(capsys, kind):
    # only random-mixed and random-pure draw from --seed
    code, _, err = run_cli(capsys, "gen-state", kind, "--k", "1", "--seed", "5")
    assert code == 2
    assert "--seed" in err


@pytest.mark.parametrize("argv, needle", [
    (["classical", "--k", "1", "--dims", "A:3,E:3"], "--dims"),
    (["entangled", "--dims", "A:2,E:2"], "--dims"),
    (["random-mixed"], "needs --dims"),
    (["random-pure", "--seed", "3"], "needs --dims"),
    (["random-mixed", "--dims", "A:2,E:2", "--k", "5"], "--k"),
    (["random-pure", "--dims", "A:2,E:2", "--k", "0"], "--k"),
])
def test_gen_state_dims_and_kind_mismatch_exits_two(capsys, tmp_path, argv, needle):
    # --dims was ignored by the fixed kinds, a random kind without it
    # exited 1 from the library, and --k was ignored by the random kinds
    out = tmp_path / "s.json"
    code, _, err = run_cli(capsys, "gen-state", *argv, "--out", str(out))
    assert code == 2
    assert needle in err
    assert not out.exists()


def _state_defects():
    good = linalg.state_to_json(linalg.maximally_mixed((("A", 2),)))
    dims, matrix = good["dims"], good["matrix"]
    return {
        "no matrix": {"dims": dims},
        "top-level list": [good],
        "float dim": {"dims": [{"label": "A", "dim": 2.5}], "matrix": matrix},
        "string dim": {"dims": [{"label": "A", "dim": "2"}], "matrix": matrix},
        "bool dim": {"dims": [{"label": "A", "dim": True}], "matrix": matrix},
        "broadcast im": {"dims": dims, "matrix": {"re": matrix["re"], "im": [[0, 0]]}},
    }


@pytest.mark.parametrize("defect", list(_state_defects()))
def test_malformed_state_file_exits_one_with_an_error_line(tmp_path, capsys, defect):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_state_defects()[defect]))
    code, out, err = run_cli(capsys, "entropy", "--state", str(path), "--kind", "vn",
                             "--target", "A")
    assert code == 1
    assert err.startswith("error: ") and "Traceback" not in err
    assert out == ""


def test_malformed_channel_file_exits_one_with_an_error_line(tmp_path, capsys):
    state_path, chan_path = tmp_path / "s.json", tmp_path / "ch.json"
    run_cli(capsys, "gen-state", "classical", "--k", "1", "--out", str(state_path))
    run_cli(capsys, "gen-channel", "id:1", "--out", str(chan_path))
    obj = json.loads(chan_path.read_text())
    obj["dim_in"] = "2"
    chan_path.write_text(json.dumps(obj))
    code, _, err = run_cli(capsys, "decouple", "run", "--state", str(state_path),
                           "--channel", str(chan_path), "--samples", "2")
    assert code == 1
    assert err.startswith("error: ") and "dim_in" in err


def test_missing_file_exits_one(capsys):
    code, _, err = run_cli(capsys, "entropy", "--state", "/no/such/file.json",
                           "--kind", "hmin", "--target", "A")
    assert code == 1
    assert "error" in err


def test_decouple_run_and_reproducibility(tmp_path, capsys):
    state_path = tmp_path / "cls.json"
    run_cli(capsys, "gen-state", "classical", "--k", "1", "--out", str(state_path))
    reports = []
    for run_idx, workers in enumerate((1, 4)):
        out_path = tmp_path / f"rep{run_idx}.json"
        csv_path = tmp_path / f"samples{run_idx}.csv"
        code, _, _ = run_cli(capsys, "decouple", "run",
                             "--state", str(state_path), "--channel", "id+trace:1,0",
                             "--samples", "200", "--seed", "5",
                             "--workers", str(workers),
                             "--csv", str(csv_path), "--out", str(out_path))
        assert code == 0
        reports.append(json.loads(out_path.read_text()))
    a, b = reports
    a.pop("duration_s"), b.pop("duration_s")
    a["config"].pop("workers"), b["config"].pop("workers")
    assert a == b  # byte-identical numeric fields at workers 1 and 4
    assert a["result"]["kernel"] == "blocks:2"  # classical_state(1)
    csv0 = (tmp_path / "samples0.csv").read_text()
    csv1 = (tmp_path / "samples1.csv").read_text()
    assert csv0 == csv1
    assert csv0.splitlines()[0] == "sample,distance"


def test_decouple_run_reads_both_state_encodings_to_the_same_report(tmp_path, capsys):
    # the sparse coordinate form and the dense nested lists of an older file,
    # written in turn to one path so that the configurations match
    state = decoupling.classical_state(4)
    dense = {"dims": [{"label": lab, "dim": d} for lab, d in state.dims.pairs],
             "matrix": {"re": state.matrix.real.tolist(),
                        "im": state.matrix.imag.tolist()}}
    state_path = tmp_path / "c5.json"
    reports = []
    for obj in (linalg.state_to_json(state), dense):
        state_path.write_text(json.dumps(obj))
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "decouple", "run", "--state", str(state_path),
                             "--channel", "id+trace:4,3", "--samples", "50",
                             "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        report.pop("duration_s")
        reports.append(json.dumps(report, sort_keys=True))
    assert "rows" in linalg.state_to_json(state)["matrix"]
    assert reports[0] == reports[1]


def test_main_builds_its_parser_once_and_carries_no_value_over(tmp_path, capsys):
    from qdecouple.cli import build_parser

    assert build_parser() is build_parser()
    state_path, small_path = tmp_path / "cls.json", tmp_path / "small.json"
    assert run_cli(capsys, "gen-state", "classical", "--k", "2", "--cap", "64",
                   "--out", str(state_path))[0] == 0
    configs = []
    for extra in (["--seed", "9", "--workers", "2", "--epsilon", "0.1"], []):
        out_path = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, "decouple", "run", "--state", str(state_path),
                             "--channel", "id:2", "--samples", "3", *extra,
                             "--out", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        configs.append((report["config"], report["seed"]["seed"]))
    (first, first_seed), (second, second_seed) = configs
    assert (first["workers"], first["epsilon"], first_seed) == (2, 0.1, 9)
    assert (second["workers"], second["epsilon"], second_seed) == (1, 0.0, 0)
    # --k and --out of the first gen-state do not carry over either
    assert run_cli(capsys, "gen-state", "classical", "--out", str(small_path))[0] == 0
    assert state_from_json(json.loads(small_path.read_text())).dims.total == 4
    with pytest.raises(SystemExit) as err:
        main(["decouple", "run", "--state", str(state_path)])
    assert err.value.code == 2


def test_gen_state_and_decouple_run_do_not_import_scipy(tmp_path):
    # importing scipy costs every start-up about 0.3 s and only an SDP solve
    # needs it; a fresh interpreter generates a state and runs a non-smooth
    # decoupling experiment, neither of which solves one
    state, out = str(tmp_path / "cls.json"), str(tmp_path / "rep.json")
    code = textwrap.dedent(f"""
        import sys
        from qdecouple import cli
        assert cli.main(["gen-state", "classical", "--k", "1", "--out", {state!r}]) == 0
        assert cli.main(["decouple", "run", "--state", {state!r}, "--channel",
                         "id+trace:1,0", "--samples", "20", "--out", {out!r}]) == 0
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """)
    src = str(Path(decoupling.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
    assert json.loads(Path(out).read_text())["result"]["kernel"] == "blocks:2"


def test_decouple_config_round_trip(tmp_path, capsys):
    state_path = tmp_path / "cls.json"
    run_cli(capsys, "gen-state", "classical", "--k", "1", "--out", str(state_path))
    out_path = tmp_path / "rep.json"
    args = ["decouple", "run", "--state", str(state_path),
            "--channel", "meas:1", "--samples", "50", "--seed", "9",
            "--out", str(out_path)]
    run_cli(capsys, *args)
    first = json.loads(out_path.read_text())
    # re-running from the embedded config reproduces every numeric field
    cfg = first["config"]
    rerun_args = ["decouple", "run", "--state", cfg["state"],
                  "--channel", cfg["channel"], "--samples", str(cfg["samples"]),
                  "--seed", "9", "--out", str(out_path)]
    run_cli(capsys, *rerun_args)
    second = json.loads(out_path.read_text())
    assert first["config"] == second["config"]
    assert first["result"] == second["result"]


def test_gen_channel_and_file_input(tmp_path, capsys):
    ch_path = tmp_path / "chan.json"
    code, _, _ = run_cli(capsys, "gen-channel", "erase:1", "--out", str(ch_path))
    assert code == 0
    st_path = tmp_path / "st.json"
    run_cli(capsys, "gen-state", "classical", "--k", "1", "--out", str(st_path))
    out_path = tmp_path / "rep.json"
    code, _, _ = run_cli(capsys, "decouple", "run", "--state", str(st_path),
                         "--channel", str(ch_path), "--samples", "20",
                         "--seed", "1", "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["result"]["empirical_mean"] <= 1e-10


def test_merge_run_cli(tmp_path, capsys):
    import math
    from qdecouple.linalg import PureState, dims_of, state_to_json

    amps = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        amps[i, i, i] = 1 / math.sqrt(2)
    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 2)), amps.reshape(-1))
    st_path = tmp_path / "psi.json"
    st_path.write_text(json.dumps(state_to_json(psi.to_operator(validate=True))))
    out_path = tmp_path / "merge.json"
    code, _, _ = run_cli(capsys, "merge", "run", "--state", str(st_path),
                         "--epsilon", "0.3", "--K", "8", "--L", "1",
                         "--num-seeds", "2", "--seed", "3",
                         "--out", str(out_path))
    assert code == 0
    rep = json.loads(out_path.read_text())
    assert rep["result"]["K"] == 8
    assert 0.9 <= rep["result"]["mean_fidelity"] <= 1.0
    assert len(rep["result"]["per_outcome"][0]) == 16


def test_merge_run_solves_the_bounds_once(tmp_path, capsys, monkeypatch):
    # cost_achievable and cost_converse depend on the state and epsilon only:
    # one h_max_smooth each for all seeds
    import math
    from qdecouple import merging
    from qdecouple.linalg import PureState, dims_of, state_to_json

    amps = np.zeros((2, 2, 2), dtype=complex)
    for i in range(2):
        amps[i, i, i] = 1 / math.sqrt(2)
    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 2)), amps.reshape(-1))
    st_path = tmp_path / "psi.json"
    st_path.write_text(json.dumps(state_to_json(psi.to_operator(validate=True))))
    out_path = tmp_path / "merge.json"
    calls = []
    solve = ent.h_max_smooth
    monkeypatch.setattr(ent, "h_max_smooth",
                        lambda *a, **k: calls.append(a) or solve(*a, **k))
    code, _, _ = run_cli(capsys, "merge", "run", "--state", str(st_path),
                         "--epsilon", "0.05", "--K", "8", "--L", "1",
                         "--num-seeds", "3", "--seed", "3",
                         "--out", str(out_path))
    assert code == 0
    assert len(calls) == 2
    rep = json.loads(out_path.read_text())["result"]
    assert len(rep["fidelities"]) == 3
    bound_ach, bound_con = merging.cost_bounds(psi, ("A",), ("B",), 0.05)
    assert rep["bound_achievable"] == pytest.approx(bound_ach, abs=1e-6)
    assert rep["bound_converse"] == pytest.approx(bound_con, abs=1e-6)


@pytest.mark.parametrize("flag", [("--K", "8"), ("--L", "1")], ids=["K-only", "L-only"])
def test_merge_run_lone_k_or_l_exits_two(tmp_path, capsys, monkeypatch, flag):
    import math
    from qdecouple import merging
    from qdecouple.linalg import PureState, dims_of, state_to_json

    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 2)),
                    np.full(8, 1 / math.sqrt(8), dtype=complex))
    st_path = tmp_path / "psi.json"
    st_path.write_text(json.dumps(state_to_json(psi.to_operator(validate=True))))

    def no_bound(*args, **kwargs):
        raise AssertionError("cost bound computed")
    monkeypatch.setattr(merging, "cost_achievable", no_bound)
    out_path = tmp_path / "merge.json"
    code, _, err = run_cli(capsys, "merge", "run", "--state", str(st_path),
                           "--epsilon", "0.5", *flag, "--out", str(out_path))
    assert code == 2 and "--K and --L" in err
    assert not out_path.exists()


def test_merge_run_realises_the_achievable_cost(tmp_path, capsys):
    # without --K and --L, merge run realises the achievable cost of
    # |Phi>_AB (x) |0>_E as power-of-two registers
    import math
    from qdecouple import merging
    from qdecouple.linalg import PureState, dims_of, state_to_json

    amps = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 1)), amps)
    st_path = tmp_path / "psi.json"
    st_path.write_text(json.dumps(state_to_json(psi.to_operator(validate=True))))
    code, out, _ = run_cli(capsys, "merge", "run", "--state", str(st_path),
                           "--epsilon", "0.95")
    assert code == 0
    rep = json.loads(out)["result"]
    raw = merging.cost_achievable(psi, ("A",), ("B",), 0.95, realize=False)
    assert (rep["K"], rep["L"]) == merging.realize_cost(raw, 2) == (128, 1)
    assert rep["cost_bits"] == rep["bound_achievable"]


def test_merge_run_without_registers_smooths_once(tmp_path, capsys, monkeypatch):
    # merge run without --K and --L takes its registers from the achievable
    # bound it reports: one h_max_smooth at eps^2/13, not one for the
    # registers and another for the bound (4 sqrt(0.95) >= 1, so no converse)
    import math
    from qdecouple import merging
    from qdecouple.linalg import PureState, dims_of, state_to_json

    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 2)),
                    np.full(8, 1 / math.sqrt(8), dtype=complex))
    st_path = tmp_path / "psi.json"
    st_path.write_text(json.dumps(state_to_json(psi.to_operator(validate=True))))
    raw = merging.cost_achievable(psi, ("A",), ("B",), 0.95, realize=False)
    epsilons = []
    h_max_smooth = ent.h_max_smooth
    monkeypatch.setattr(ent, "h_max_smooth",
                        lambda *a: epsilons.append(a[3]) or h_max_smooth(*a))
    code, out, _ = run_cli(capsys, "merge", "run", "--state", str(st_path),
                           "--epsilon", "0.95")
    assert code == 0
    assert epsilons == [0.95 * 0.95 / 13.0]
    rep = json.loads(out)["result"]
    assert (rep["K"], rep["L"]) == merging.realize_cost(raw, 2)
    assert rep["cost_bits"] == rep["bound_achievable"]
    assert rep["bound_converse"] is None


def test_merge_run_seed_range_covers_every_seed(tmp_path, capsys):
    import math
    from qdecouple.linalg import PureState, dims_of, state_to_json

    psi = PureState(dims_of(("A", 2), ("B", 2), ("E", 2)),
                    np.full(8, 1 / math.sqrt(8), dtype=complex))
    st_path = tmp_path / "psi.json"
    st_path.write_text(json.dumps(state_to_json(psi.to_operator(validate=True))))
    out_path = tmp_path / "merge.json"
    last = str(2 ** 64 - 1)
    # the run's last seed would be 2^64, past haar.RngSeed's range
    code, _, err = run_cli(capsys, "merge", "run", "--state", str(st_path),
                           "--epsilon", "0.3", "--K", "2", "--L", "1",
                           "--seed", last, "--num-seeds", "2", "--out", str(out_path))
    assert code == 2 and "--num-seeds" in err
    assert not out_path.exists()
    code, _, _ = run_cli(capsys, "merge", "run", "--state", str(st_path),
                         "--epsilon", "0.3", "--K", "2", "--L", "1",
                         "--seed", last, "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["result"]["seeds"] == [2 ** 64 - 1]


def test_dimension_cap_flag(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen-state", "classical", "--k", "2",
                           "--cap", "8", "--out", str(tmp_path / "x.json"))
    assert code == 1 and "cap 8" in err
    code, _, _ = run_cli(capsys, "gen-state", "classical", "--k", "2",
                         "--cap", "64", "--out", str(tmp_path / "x.json"))
    assert code == 0


def test_decouple_csv_over_retention_limit_fails_before_sampling(
        tmp_path, capsys, monkeypatch):
    state_path = tmp_path / "cls.json"
    run_cli(capsys, "gen-state", "classical", "--k", "1", "--out", str(state_path))

    def no_run(*args, **kwargs):
        raise AssertionError("sampling started")
    monkeypatch.setattr(decoupling, "run", no_run)
    csv_path, out_path = tmp_path / "s.csv", tmp_path / "rep.json"
    code, _, err = run_cli(capsys, "decouple", "run", "--state", str(state_path),
                           "--channel", "id+trace:1,0",
                           "--samples", str(decoupling.MAX_RETAINED_SAMPLES + 1),
                           "--csv", str(csv_path), "--out", str(out_path))
    assert code == 2 and "--csv" in err
    assert not csv_path.exists() and not out_path.exists()


def test_decouple_run_above_the_bound_exits_one_after_the_report(
        tmp_path, capsys, monkeypatch):
    state_path = tmp_path / "cls.json"
    run_cli(capsys, "gen-state", "classical", "--k", "1", "--out", str(state_path))

    def above_bound(exp, workers):
        return decoupling.DecouplingReport(1.0, 0.0, 0.5, None, 0.0, exp.num_samples,
                                           exp.seed, "dense", [1.0] * exp.num_samples)
    monkeypatch.setattr(decoupling, "run", above_bound)
    out_path = tmp_path / "rep.json"
    code, out, err = run_cli(capsys, "decouple", "run", "--state", str(state_path),
                             "--channel", "id:1", "--samples", "2",
                             "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: empirical mean exceeds the non-smooth bound\n"
    result = json.loads(out_path.read_text())["result"]
    assert (result["empirical_mean"], result["bound_nonsmooth"]) == (1.0, 0.5)


def test_merge_run_on_a_mixed_state_exits_one_without_a_report(tmp_path, capsys):
    state_path, out_path = tmp_path / "mixed.json", tmp_path / "merge.json"
    run_cli(capsys, "gen-state", "random-mixed", "--dims", "A:2,B:2,E:2",
            "--out", str(state_path))
    code, out, err = run_cli(capsys, "merge", "run", "--state", str(state_path),
                             "--epsilon", "0.3", "--K", "2", "--L", "1",
                             "--out", str(out_path))
    assert code == 1 and out == ""
    assert err == "error: merge run needs a pure input state\n"
    assert not out_path.exists()
