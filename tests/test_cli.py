"""Command-line front-end tests: generators, entropy queries, experiment
runs, exit codes, and report reproducibility."""

import json

import numpy as np
import pytest

from qdecouple import decoupling
from qdecouple import entropy as ent
from qdecouple import linalg
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


def test_lemmas_check_exit_zero(tmp_path, capsys):
    out_path = tmp_path / "lem.json"
    code, _, _ = run_cli(capsys, "lemmas", "check", "--trials", "100",
                         "--seed", "7", "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert all(entry["passed"] for entry in report["result"].values())
    assert report["seed"] == {"seed": 7, "stream": "default"}


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lemmas", "check", "--bogus"],
    ["merge", "run", "--state", "s.json", "--epsilon", "0.3", "--num-seeds", "0"],
    ["lemmas", "check", "--trials", "-3"],
    ["decouple", "run", "--state", "s.json", "--channel", "id:1", "--workers", "0"],
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


def test_dimension_cap_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QDECOUPLE_DIM_CAP", "8")
    code, _, err = run_cli(capsys, "gen-state", "classical", "--k", "2",
                           "--out", str(tmp_path / "x.json"))
    assert code == 1 and "cap" in err
    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "gen-state", "classical", "--k", "2",
                         "--cap", "64", "--out", str(tmp_path / "x.json"))
    assert code == 0


def test_tolerance_flags_do_not_outlive_the_call(tmp_path, capsys):
    saved = (linalg.TOL_HERM, linalg.TOL_PSD, linalg.TOL_TRACE)
    code, _, _ = run_cli(capsys, "gen-state", "classical", "--k", "1",
                         "--tol-herm", "0.25", "--tol-psd", "0.5",
                         "--tol-trace", "0.75", "--out", str(tmp_path / "s.json"))
    assert code == 0
    assert (linalg.TOL_HERM, linalg.TOL_PSD, linalg.TOL_TRACE) == saved
    # also when the command fails
    code, _, _ = run_cli(capsys, "entropy", "--state", str(tmp_path / "none.json"),
                         "--kind", "hmin", "--target", "A", "--tol-psd", "0.5")
    assert code == 1
    assert (linalg.TOL_HERM, linalg.TOL_PSD, linalg.TOL_TRACE) == saved


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
