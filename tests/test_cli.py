import json

import numpy as np
import pytest

from zoneinvest import policy
from zoneinvest.cli import main
from zoneinvest.scenario import (generate_synthetic_scenario, load_scenario,
                                 save_scenario)
from zoneinvest.stochastic import load_paths


def strip_volatile(text: str) -> str:
    doc = json.loads(text)
    doc.get("run_info", {}).pop("timestamp", None)
    if "policy" in doc:
        doc["policy"].pop("wall_time", None)
    doc.get("config", {}).pop("out", None)
    doc.get("config", {}).pop("workers", None)
    return json.dumps(doc, sort_keys=True)


@pytest.fixture()
def scen3(tmp_path):
    scen = generate_synthetic_scenario(8, 3, 2, 90.0)
    path = tmp_path / "scen" / "scenario.json"
    save_scenario(scen, path)
    return path


def test_no_subcommand_prints_usage_exit_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["cr", "--does-not-exist"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    (["simulate"], ["--workers", "2"]),
    (["simulate"], ["--j", "5"]),
    (["valuate", "--sequence", "z01,z02,z03"], ["--workers", "2"]),
    (["valuate", "--sequence", "z01,z02,z03"], ["--j", "3"]),
    (["cr"], ["--j", "3"]),
    (["cr-rnn"], ["--j", "3"]),
])
def test_flags_a_subcommand_does_not_read_exit_2(tmp_path, scen3, command,
                                                 flag):
    argv = command + ["--scenario", str(scen3), "--paths", "3",
                      "--out", str(tmp_path / "r.json")]
    assert main(argv) == 0
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2


def test_failure_emits_machine_readable_error(tmp_path, capsys):
    code = main(["cr", "--scenario", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "r.json")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()[-1]
    block = json.loads(err)
    assert block["error"]["type"]
    assert "missing.json" in block["error"]["message"]


@pytest.mark.parametrize("command, seed", [
    (["simulate", "--paths", "3"], "-1"),
    (["rollout", "--outer-paths", "2", "--epochs", "1", "--policy", "cr",
      "--inner-paths", "10"], "-3"),
])
def test_negative_seed_named_in_error(tmp_path, scen3, capsys, command, seed):
    code = main(command + ["--scenario", str(scen3), "--seed", seed,
                           "--out", str(tmp_path / "r.json")])
    assert code == 1
    block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert block["error"]["message"] == \
        f"seed must be a non-negative integer, got {seed}"


def test_scenario_gen_round_trips(tmp_path, capsys):
    out = tmp_path / "gen" / "scenario.json"
    assert main(["scenario", "gen", "--seed", "4", "--zones", "3",
                 "--subzones-per-zone", "2", "--demand-scale", "80",
                 "--out", str(out)]) == 0
    scen = load_scenario(out)
    assert len(scen.zones) == 3
    assert scen == generate_synthetic_scenario(4, 3, 2, 80.0)


def test_simulate_writes_tensor(tmp_path, scen3):
    out = tmp_path / "paths.csv"
    assert main(["simulate", "--scenario", str(scen3), "--paths", "5",
                 "--seed", "2", "--out", str(out)]) == 0
    values = load_paths(out)
    assert values.shape == (5, 5, 6, 6)


def test_valuate_single_sequence(tmp_path, scen3):
    out = tmp_path / "val.json"
    scen = load_scenario(scen3)
    seq = ",".join(scen.zones)
    assert main(["valuate", "--scenario", str(scen3), "--sequence", seq,
                 "--paths", "60", "--seed", "3", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["sequence"] == seq
    assert doc["policy_value"] >= 0.0
    assert len(doc["decisions_t0"]) == 3
    assert len(doc["stopping_times"]) == 3
    assert doc["rank_deficient_fits"] >= 0


def test_cr_report_contains_all_sequences(tmp_path, scen3):
    out = tmp_path / "cr.json"
    assert main(["cr", "--scenario", str(scen3), "--paths", "60",
                 "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["tables"]["all"]) == 6
    assert doc["policy"]["mode"] == "CR"
    assert doc["config"]["seed"] == 7
    csv_rows = (tmp_path / "cr.csv").read_text().strip().splitlines()
    assert len(csv_rows) == 1 + 6


def test_cr_byte_identical_reruns_and_worker_invariance(tmp_path, scen3):
    outs = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"{name}.json"
        assert main(["cr", "--scenario", str(scen3), "--paths", "50",
                     "--seed", "7", "--workers", workers,
                     "--out", str(out)]) == 0
        outs.append(out.read_text())
    norm = [strip_volatile(t) for t in outs]
    assert norm[0] == norm[1] == norm[2]


def test_cr_rnn_pipeline_and_artifacts(tmp_path, scen3, monkeypatch):
    monkeypatch.setattr(policy, "SMALL_H_FALLBACK", 2)
    out = tmp_path / "rnn.json"
    model_out = tmp_path / "model.json"
    labeled_out = tmp_path / "labeled.csv"
    assert main(["cr-rnn", "--scenario", str(scen3), "--paths", "50",
                 "--seed", "5", "--frac-seq", "0.5", "--pnr-max", "0.5",
                 "--k", "2", "--max-epochs", "15",
                 "--model-out", str(model_out), "--labeled-out",
                 str(labeled_out), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["policy"]["mode"] == "CR-RNN"
    assert doc["policy"]["evaluated_count"] == 3 + 2
    assert len(doc["tables"]["sampled"]) == 3
    assert len(doc["tables"]["top_k"]) == 2
    assert model_out.exists() and labeled_out.exists()


def test_label_train_evaluate_chain(tmp_path, scen3):
    cr_out = tmp_path / "cr.json"
    main(["cr", "--scenario", str(scen3), "--paths", "50", "--seed", "7",
          "--out", str(cr_out)])
    rows = (tmp_path / "cr.csv").read_text().strip().splitlines()
    sampled = tmp_path / "sampled.csv"  # train on 4 of 6, hold 2 out
    sampled.write_text("\n".join(rows[:5]) + "\n")
    labeled = tmp_path / "labeled.csv"
    assert main(["label", "--values", str(sampled),
                 "--population", "6", "--thr-fact", "0.5",
                 "--pnr-max", "0.5", "--out", str(labeled)]) == 0
    model = tmp_path / "model.json"
    assert main(["train", "--labeled", str(labeled), "--out", str(model),
                 "--emb-size", "8", "--epochs", "10",
                 "--validation-fraction", "0"]) == 0
    metrics = tmp_path / "metrics.csv"
    assert main(["evaluate", "--model", str(model),
                 "--values", str(tmp_path / "cr.csv"),
                 "--labeled", str(labeled), "--k", "2",
                 "--out", str(metrics)]) == 0
    rows = metrics.read_text().strip().splitlines()
    assert rows[0] == "k,gap_at_k,auc,eta_true,eta_pred"
    assert len(rows) == 2


def test_evaluate_needs_test_pool(tmp_path, scen3):
    cr_out = tmp_path / "cr.json"
    main(["cr", "--scenario", str(scen3), "--paths", "50", "--seed", "7",
          "--out", str(cr_out)])
    labeled = tmp_path / "labeled.csv"
    main(["label", "--values", str(tmp_path / "cr.csv"), "--population", "6",
          "--pnr-max", "0.5", "--out", str(labeled)])
    model = tmp_path / "model.json"
    main(["train", "--labeled", str(labeled), "--out", str(model),
          "--emb-size", "8", "--epochs", "5", "--validation-fraction", "0"])
    code = main(["evaluate", "--model", str(model),
                 "--values", str(labeled),  # same set: no held-out pool
                 "--labeled", str(labeled), "--k", "2",
                 "--out", str(tmp_path / "m.csv")])
    assert code == 1


def test_rollout_with_benchmark(tmp_path, scen3):
    out = tmp_path / "roll.json"
    assert main(["rollout", "--scenario", str(scen3), "--outer-paths", "2",
                 "--epochs", "2", "--seed", "3", "--policy", "cr",
                 "--inner-paths", "40", "--benchmark",
                 "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["policy_kind"] == "CR"
    assert doc["diff_stats"]["benchmark"] == "invest-all"
    assert len(doc["npv_per_path"]) == 2
    assert len(doc["records"]) == 4


def test_workers_env_override(tmp_path, scen3, monkeypatch):
    monkeypatch.setenv("ZONEINVEST_WORKERS", "2")
    out = tmp_path / "cr_env.json"
    assert main(["cr", "--scenario", str(scen3), "--paths", "40",
                 "--seed", "1", "--out", str(out)]) == 0
    assert out.exists()


def test_workers_below_one_exits_1_without_report(tmp_path, scen3, capsys):
    out = tmp_path / "cr.json"
    assert main(["cr", "--scenario", str(scen3), "--paths", "10",
                 "--workers", "-3", "--out", str(out)]) == 1
    block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert block["error"] == {"type": "ValueError",
                              "message": "workers must be >= 1, got -3"}
    assert list(tmp_path.glob("cr.*")) == []


def test_invest_all_rollout_workers_below_one_exits_1_without_report(
        tmp_path, scen3, capsys):
    out = tmp_path / "roll.json"
    assert main(["rollout", "--scenario", str(scen3), "--outer-paths", "2",
                 "--epochs", "1", "--policy", "invest-all",
                 "--workers", "-3", "--out", str(out)]) == 1
    block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert block["error"] == {"type": "ValueError",
                              "message": "workers must be >= 1, got -3"}
    assert list(tmp_path.glob("roll.*")) == []


def test_invest_all_rollout_bad_pnr_max_exits_1_without_report(
        tmp_path, scen3, capsys):
    out = tmp_path / "roll.json"
    assert main(["rollout", "--scenario", str(scen3), "--outer-paths", "2",
                 "--epochs", "1", "--policy", "invest-all",
                 "--pnr-max", "-1", "--out", str(out)]) == 1
    block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert block["error"] == {"type": "ValueError",
                              "message": "pnr_max must be in (0, 1], got -1.0"}
    assert list(tmp_path.glob("roll.*")) == []


@pytest.mark.parametrize("fraction", ["-0.2", "1.5"])
def test_train_validation_fraction_outside_unit_interval_exits_1(
        chain_inputs, tmp_path, capsys, fraction):
    out = tmp_path / "model.json"
    assert main(["train", "--labeled", str(chain_inputs / "labeled.csv"),
                 "--out", str(out), "--emb-size", "4", "--epochs", "2",
                 "--validation-fraction", fraction]) == 1
    block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert block["error"] == {
        "type": "ValueError",
        "message": f"validation_fraction must be in [0, 1), got {fraction}"}
    assert list(tmp_path.glob("model.*")) == []


def test_cr_rnn_bad_setting_exits_1_without_report(tmp_path, capsys):
    scen = tmp_path / "scenario.json"
    save_scenario(generate_synthetic_scenario(5, 5, 3, 100.0), scen)
    out = tmp_path / "r.json"
    assert main(["cr-rnn", "--scenario", str(scen), "--paths", "10",
                 "--pnr-max", "-1", "--out", str(out)]) == 1
    block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert block["error"] == {"type": "ValueError",
                              "message": "pnr_max must be in (0, 1], got -1.0"}
    assert list(tmp_path.glob("r.*")) == []


def test_label_population_below_sample_exits_1_without_files(
        tmp_path, chain_inputs, capsys):
    out = tmp_path / "l.csv"
    assert main(["label", "--values", str(chain_inputs / "cr.csv"),
                 "--population", "5", "--out", str(out)]) == 1
    block = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert block["error"] == {
        "type": "ValueError",
        "message": "population_size 5 is smaller than the 6 sampled values"}
    assert list(tmp_path.glob("l.*")) == []


@pytest.fixture(scope="module")
def chain_inputs(tmp_path_factory):
    """Scenario, cr value table, labeled sample and model to feed commands."""
    d = tmp_path_factory.mktemp("inputs")
    scen = d / "scenario.json"
    save_scenario(generate_synthetic_scenario(8, 3, 2, 90.0), scen)
    assert main(["cr", "--scenario", str(scen), "--paths", "40", "--seed", "7",
                 "--out", str(d / "cr.json")]) == 0
    rows = (d / "cr.csv").read_text().strip().splitlines()
    (d / "sampled.csv").write_text("\n".join(rows[:5]) + "\n")
    assert main(["label", "--values", str(d / "sampled.csv"),
                 "--population", "6", "--thr-fact", "0.5", "--pnr-max", "0.5",
                 "--out", str(d / "labeled.csv")]) == 0
    assert main(["train", "--labeled", str(d / "labeled.csv"),
                 "--out", str(d / "model.json"), "--emb-size", "4",
                 "--epochs", "2", "--validation-fraction", "0"]) == 0
    return d


def _nested_run(command, inputs, out):
    """argv for ``command`` writing under the missing directory ``out``, and
    the files it must create there."""
    scen = ["--scenario", str(inputs / "scenario.json")]
    if command == "scenario gen":
        return (["scenario", "gen", "--seed", "4", "--zones", "3",
                 "--subzones-per-zone", "2", "--out", str(out / "s.json")],
                ["s.json"])
    if command == "simulate":
        return ["simulate", *scen, "--paths", "3",
                "--out", str(out / "p.csv")], ["p.csv"]
    if command == "valuate":
        return ["valuate", *scen, "--sequence", "z01,z02,z03", "--paths", "20",
                "--out", str(out / "v.json")], ["v.json"]
    if command == "cr":
        return ["cr", *scen, "--paths", "20",
                "--out", str(out / "r.json")], ["r.json", "r.csv"]
    if command == "cr-rnn":
        return (["cr-rnn", *scen, "--paths", "20", "--frac-seq", "0.5",
                 "--pnr-max", "0.5", "--k", "2", "--max-epochs", "2",
                 "--out", str(out / "a" / "r.json"),
                 "--model-out", str(out / "b" / "m.json"),
                 "--labeled-out", str(out / "c" / "l.csv")],
                ["a/r.json", "a/r.csv", "b/m.json", "c/l.csv", "c/l.json"])
    if command == "label":
        return (["label", "--values", str(inputs / "cr.csv"), "--population",
                 "6", "--pnr-max", "0.5", "--out", str(out / "l.csv")],
                ["l.csv", "l.json"])
    if command == "train":
        return (["train", "--labeled", str(inputs / "labeled.csv"),
                 "--emb-size", "4", "--epochs", "2", "--validation-fraction",
                 "0", "--out", str(out / "m.json")], ["m.json"])
    if command == "evaluate":
        return (["evaluate", "--model", str(inputs / "model.json"),
                 "--values", str(inputs / "cr.csv"),
                 "--labeled", str(inputs / "labeled.csv"), "--k", "1",
                 "--out", str(out / "e.csv")], ["e.csv"])
    assert command == "rollout"
    return (["rollout", *scen, "--outer-paths", "1", "--epochs", "1",
             "--policy", "invest-all", "--out", str(out / "r.json")],
            ["r.json", "r.csv"])


@pytest.mark.parametrize("command", ["scenario gen", "simulate", "valuate",
                                     "cr", "cr-rnn", "label", "train",
                                     "evaluate", "rollout"])
def test_outputs_create_missing_parent_directories(tmp_path, chain_inputs,
                                                   command, monkeypatch):
    monkeypatch.setattr(policy, "SMALL_H_FALLBACK", 2)  # cr-rnn trains
    out = tmp_path / "not" / "yet"
    argv, files = _nested_run(command, chain_inputs, out)
    assert main(argv) == 0
    for name in files:
        assert (out / name).is_file(), name


@pytest.mark.parametrize("values, ks", [
    ("cr.csv", ["-5"]),
    ("cr.csv", ["1", "-5"]),      # a good k before the rejected one
    ("labeled.csv", ["1"]),       # every ordering trained on: no test pool
])
def test_failed_evaluate_leaves_no_metrics_file(tmp_path, chain_inputs,
                                                values, ks):
    out = tmp_path / "m.csv"
    assert main(["evaluate", "--model", str(chain_inputs / "model.json"),
                 "--values", str(chain_inputs / values),
                 "--labeled", str(chain_inputs / "labeled.csv"),
                 "--k", *ks, "--out", str(out)]) == 1
    assert not out.exists()
