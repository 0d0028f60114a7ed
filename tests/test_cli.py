import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fdia_lab import akf, cli, evaluation, fusion, io_utils, nn, passive_detect
from fdia_lab.cli import main
from fdia_lab.data_pipeline import apply_standardizer, read_dataset_csv, window
from fdia_lab.errors import DataError

BASE_CONFIG = {
    "signal": {"omega": 2 * math.pi / 20, "sigma_process": 1e-3,
               "sigma_meas": 0.002, "seed": 7, "n": 1600,
               "initial": [1.0, 0.0]},
    "attack": {"kind": "fraction_scale", "fraction": 0.05,
               "onset": 1100, "duration": 400, "sensors": [True]},
    "filter": {"variant": "improved", "forgetting": 0.98},
    "thresholds": {"k": 3.0, "warmup": 500},
    "network": {"window_len": 8, "hidden": 8, "conv1_kernels": 2,
                "conv1_size": 3, "conv2_kernels": 4, "conv2_size": 2,
                "pool": 2, "dropout": 0.2,
                "train": {"lr": 1e-3, "epochs": 2, "batch": 32, "seed": 3}},
    "pipeline": {"k_clusters": 3, "train_fraction": 0.8, "order": "oversample_first",
                 "seed": 11},
}


def write_config(tmp_path, out_name="run", **overrides):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["outputs"] = str(tmp_path / out_name)
    for key, value in overrides.items():
        cfg[key] = value
    path = tmp_path / f"config_{out_name}.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["outputs"])


def test_simulate_writes_expected_artifacts(tmp_path):
    cfg_path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    for name in ("trace.csv", "labels.csv", "dataset.csv", "manifest.json"):
        assert (out / name).exists()
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert len(trace_lines) == 1601
    labels = [int(line.split(",")[1])
              for line in (out / "labels.csv").read_text().splitlines()[1:]]
    assert sum(labels) == 400
    assert labels[1100] == 1 and labels[1099] == 0


def test_simulate_zero_effect_attack_has_no_labels_outside_window(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="short",
                                 attack={"kind": "fraction_scale",
                                         "fraction": 0.05, "onset": 1590,
                                         "duration": 1, "sensors": [True]})
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    labels = [int(line.split(",")[1])
              for line in (out / "labels.csv").read_text().splitlines()[1:]]
    assert sum(labels) == 1


def test_simulate_deterministic(tmp_path):
    cfg_a, out_a = write_config(tmp_path, out_name="a")
    cfg_b, out_b = write_config(tmp_path, out_name="b")
    assert main(["simulate", "--config", str(cfg_a)]) == 0
    assert main(["simulate", "--config", str(cfg_b)]) == 0
    for name in ("trace.csv", "labels.csv", "dataset.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_full_pipeline_and_report(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="full")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "checkpoint.json").exists()
    assert (out / "history.csv").exists()
    assert main(["detect", "--config", str(cfg_path)]) == 0
    for name in ("verdicts_passive.csv", "verdicts_active.csv",
                 "verdicts_fused.csv", "metrics.json"):
        assert (out / name).exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert set(metrics) >= {"improved_akf", "classic_akf", "gru_cnn", "fused",
                            "gru_cnn_holdout"}
    # union fusion can only add detections and never flags later
    assert metrics["fused"]["recall"] >= metrics["improved_akf"]["recall"] - 1e-12
    if "recall" in metrics["gru_cnn"]:
        assert metrics["fused"]["recall"] >= metrics["gru_cnn"]["recall"] - 1e-12
    passive_latency = metrics["improved_akf"]["latency_ticks"]
    fused_latency = metrics["fused"]["latency_ticks"]
    if passive_latency is not None:
        assert fused_latency is not None and fused_latency <= passive_latency

    assert main(["report", "--config", str(cfg_path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["table"]) == {"improved_akf", "classic_akf", "gru_cnn",
                                    "fused"}


def test_detect_passive_only(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="passive")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "gru_cnn" not in metrics
    assert "fused" in metrics
    # without the classifier the fused stream mirrors the residual channel
    fused_lines = (out / "verdicts_fused.csv").read_text().splitlines()[1:]
    for line in fused_lines:
        _, _, flag_n, flag_gc, flag_fused = line.split(",")
        assert flag_gc == "0"
        assert flag_fused == flag_n
    # report refuses the incomplete run and names the missing entry
    assert main(["report", "--config", str(cfg_path)]) == 3


# traces on which a filter fails: the classic filter at forgetting 0.9, by a
# state whose norm overflows (it turns non-finite a tick later) and, without
# measurement noise, by a singular innovation variance; the improved filter at
# forgetting 0.7, by a state whose norm overflows (non-finite from tick 1660)
CLASSIC_NON_FINITE = {"signal": dict(BASE_CONFIG["signal"], seed=6, n=5000),
                      "attack": dict(BASE_CONFIG["attack"], onset=4800, duration=200),
                      "filter": dict(BASE_CONFIG["filter"], forgetting=0.9)}
CLASSIC_SINGULAR = {"signal": dict(BASE_CONFIG["signal"], seed=1, n=3254, sigma_meas=0.0),
                    "attack": dict(BASE_CONFIG["attack"], onset=3100, duration=154),
                    "filter": dict(BASE_CONFIG["filter"], forgetting=0.9)}
IMPROVED_NON_FINITE = dict(CLASSIC_SINGULAR, signal=dict(CLASSIC_SINGULAR["signal"],
                                                         sigma_meas=0.002),
                           filter=dict(BASE_CONFIG["filter"], forgetting=0.7))


@pytest.mark.parametrize("overrides, error", [
    (CLASSIC_NON_FINITE, "filter state norm overflows at tick 4588"),
    (CLASSIC_SINGULAR, "at tick 2636")], ids=["non-finite", "singular"])
def test_detect_records_other_variant_divergence(tmp_path, capsys, overrides, error):
    cfg_path, out = write_config(tmp_path, out_name="diverged", **overrides)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["classic_akf"]["diverged"] is True
    assert metrics["classic_akf"]["error"].endswith(error)
    assert "recall" in metrics["improved_akf"]
    assert not (out / "verdicts_passive_classic.csv").exists()
    # the manifest lists only the files detect wrote
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]["detect"]
    assert listed == ["metrics.json", "verdicts_active.csv", "verdicts_fused.csv",
                      "verdicts_passive.csv"]
    assert all((out / name).exists() for name in listed)
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    assert main(["detect", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert re.search(r"^classic_akf +diverged$", capsys.readouterr().out, re.MULTILINE)


def test_detect_configured_variant_failure_is_numerical_error(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="failed", **IMPROVED_NON_FINITE)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: filter state norm overflows at tick 1652 (improved filter)\n")
    assert list(out.glob("verdicts_*.csv")) == []


# the improved filter at forgetting 0.7 fails on other traces by a state whose
# norm overflows (its entries stay finite) and by an infinite innovation variance
@pytest.mark.parametrize("overrides, cause", [
    ({"signal": dict(BASE_CONFIG["signal"], seed=9),
      "filter": dict(BASE_CONFIG["filter"], forgetting=0.7)},
     "filter state norm overflows at tick 1597"),
    ({"signal": dict(BASE_CONFIG["signal"], n=3254),
      "attack": dict(BASE_CONFIG["attack"], onset=2310, duration=944),
      "filter": dict(BASE_CONFIG["filter"], forgetting=0.7)},
     "innovation variance is +inf at tick 1571"),
], ids=["norm-overflow", "infinite-variance"])
def test_a_diverging_improved_filter_names_the_cause(tmp_path, capsys, overrides, cause):
    cfg_path, out = write_config(tmp_path, out_name="diverging", **overrides)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 4
    assert capsys.readouterr().err == f"numerical failure: {cause} (improved filter)\n"
    assert list(out.glob("verdicts_*.csv")) == []


def test_a_singular_filter_step_names_the_filter_and_the_tick(tmp_path, capsys):
    # with no process or measurement noise the improved filter's innovation
    # variance vanishes, as does that of akf.step, the oracle
    signal = {key: value for key, value in BASE_CONFIG["signal"].items()
              if key not in ("sigma_process", "sigma_meas")}
    cfg_path, out = write_config(tmp_path, out_name="noiseless", signal=signal)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 4
    assert capsys.readouterr().err == (
        "numerical failure: matrix is singular to working tolerance: reciprocal condition "
        "number 0.000e+00 at tick 3 (improved filter)\n")


def test_detect_clean_trace_low_false_alarm(tmp_path):
    cfg_path, out = write_config(
        tmp_path, out_name="clean",
        attack={"kind": "fraction_scale", "fraction": 0.05, "onset": 1599,
                "duration": 1, "sensors": [True]})
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 0
    fused_lines = (out / "verdicts_fused.csv").read_text().splitlines()[1:]
    flags = [line.split(",")[4] == "1" for line in fused_lines[:1599]]
    assert np.mean(flags) <= 0.005


def test_detect_missing_checkpoint_is_data_error(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="nocp")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["detect", "--config", str(cfg_path)]) == 3


SHORT_RUN = {"signal": dict(BASE_CONFIG["signal"], n=120),
             "attack": dict(BASE_CONFIG["attack"], onset=60, duration=60)}


def test_a_trace_shorter_than_the_warm_up_is_named(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="shortwarm", **SHORT_RUN,
                                 thresholds={"k": 3.0, "warmup": 130})
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    assert capsys.readouterr().err == (f"data error: {out / 'trace.csv'}: warm-up window 130 "
                                       "exceeds run length 120\n")


def test_a_trace_shorter_than_the_window_is_named(tmp_path, capsys):
    network = dict(BASE_CONFIG["network"], window_len=128)
    long_path, long_out = write_config(tmp_path, out_name="longwin", network=network)
    assert main(["simulate", "--config", str(long_path)]) == 0
    assert main(["train", "--config", str(long_path), "--epochs", "0"]) == 0
    cfg_path, out = write_config(tmp_path, out_name="shortwin", **SHORT_RUN, network=network,
                                 thresholds={"k": 3.0, "warmup": 110})
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path),
                 "--checkpoint", str(long_out / "checkpoint.json")]) == 3
    assert capsys.readouterr().err == (f"data error: {out / 'trace.csv'}: trace of 120 ticks "
                                       "is shorter than window 128\n")


@pytest.mark.parametrize("onset", [499, 500])
def test_a_label_inside_the_warm_up_is_data_error(tmp_path, capsys, onset):
    # the thresholds are fitted on the ticks before thresholds.warmup (500)
    cfg_path, out = write_config(tmp_path, attack=dict(BASE_CONFIG["attack"], onset=onset))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    status = main(["detect", "--config", str(cfg_path), "--passive-only"])
    assert (status, capsys.readouterr().err) == (
        (3, f"data error: {out / 'labels.csv'}: tick 499 is labelled attacked, inside the "
            "500-tick warm-up the thresholds are fitted on\n") if onset == 499 else (0, ""))


def test_labels_of_another_length_than_the_trace_is_data_error(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    labels = out / "labels.csv"
    labels.write_text("".join(labels.read_text().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    assert capsys.readouterr().err == (f"data error: {labels} has 1599 rows, "
                                       f"{out / 'trace.csv'} 1600\n")


def test_detect_on_a_json_file_that_is_not_a_checkpoint_is_data_error(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    path = out / "manifest.json"
    assert main(["detect", "--config", str(cfg_path), "--checkpoint", str(path)]) == 3
    assert capsys.readouterr().err == f"data error: not a checkpoint file: {path}\n"


def test_missing_config_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2


def test_report_without_config_or_run_dir_is_config_error(capsys):
    assert main(["report"]) == 2
    assert capsys.readouterr().err == "config error: report needs --config or --run-dir\n"


def test_a_conv_kernel_larger_than_its_feature_map_is_config_error(tmp_path, capsys):
    # window 8 by hidden 8: conv1 (3x3) and pool 2 leave a 3x3 map for conv2
    cfg_path, _ = write_config(tmp_path, network=dict(BASE_CONFIG["network"], conv2_size=4))
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == ("config error: feature map (3, 3) is smaller than a "
                                       "4x4 kernel\n")


def test_report_on_empty_dir_is_data_error(tmp_path):
    assert main(["report", "--run-dir", str(tmp_path / "empty")]) == 3


def test_report_before_detect_asks_for_detect(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="nodetect")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "lacks entries for: improved_akf, classic_akf, gru_cnn, fused (run detect)" in err
    assert "--passive-only" not in err


GOOD_ROW = {"accuracy": 0.5, "precision": 0.25, "recall": 1.0, "f1": 0.4,
            "degenerate": False, "latency_ticks": 3}


@pytest.mark.parametrize("entry,row,problem", [
    ("improved_akf", {}, "'accuracy'"),
    ("gru_cnn", [0.5], "JSON object"),
    ("fused", dict(GOOD_ROW, f1="0.4"), "'f1'"),
    ("classic_akf", dict(GOOD_ROW, precision=None), "'precision'"),
    ("fused", dict(GOOD_ROW, recall=True), "'recall'"),
    ("gru_cnn", dict(GOOD_ROW, latency_ticks=[3]), "'latency_ticks'"),
    ("improved_akf", dict(GOOD_ROW, latency_ticks=2.5), "'latency_ticks'"),
    ("improved_akf", dict(GOOD_ROW, latency_ticks=-1), "'latency_ticks'"),
    ("fused", dict(GOOD_ROW, accuracy=math.nan), "'accuracy'"),
    ("gru_cnn", dict(GOOD_ROW, precision=math.inf), "'precision'"),
    ("classic_akf", dict(GOOD_ROW, f1=-math.inf), "'f1'"),
])
def test_report_on_malformed_metrics_entry_is_data_error(tmp_path, capsys, entry, row,
                                                         problem):
    run_dir = tmp_path / "malformed"
    run_dir.mkdir()
    metrics = {key: GOOD_ROW for key in cli.DETECTORS}
    metrics["classic_akf"] = {"diverged": True, "error": "singular"}
    io_utils.write_json(run_dir / "metrics.json", metrics)
    assert main(["report", "--run-dir", str(run_dir)]) == 0
    capsys.readouterr()
    io_utils.write_json(run_dir / "metrics.json", dict(metrics, **{entry: row}))
    assert main(["report", "--run-dir", str(run_dir)]) == 3
    err = capsys.readouterr().err
    assert str(run_dir / "metrics.json") in err and f"'{entry}'" in err and problem in err
    assert "Traceback" not in err
    assert not (run_dir / "report.json").exists()


@pytest.mark.parametrize("text", ["[1, 2]", "5", '"improved_akf classic_akf gru_cnn fused"'])
def test_report_on_metrics_that_are_not_an_object_is_data_error(tmp_path, capsys, text):
    (tmp_path / "metrics.json").write_text(text + "\n")
    assert main(["report", "--run-dir", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(tmp_path / "metrics.json") in err
    assert "Traceback" not in err and "--passive-only" not in err


@pytest.mark.parametrize("name", ["manifest.json", "metrics.json"])
def test_stage_on_json_artifact_that_is_not_an_object_is_data_error(tmp_path, capsys, name):
    cfg_path, out = write_config(tmp_path, out_name="notobject")
    stages = (["simulate"], ["train", "--epochs", "0"], ["detect", "--passive-only"])
    for stage, *flags in stages:
        assert main([stage, "--config", str(cfg_path), *flags]) == 0
    (out / name).write_text("[1, 2]\n")
    # a refused stage removes none of an earlier run's results
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    for stage, *flags in stages:
        if stage == "simulate" and name == "metrics.json":
            continue  # simulate does not touch metrics.json
        capsys.readouterr()
        assert main([stage, "--config", str(cfg_path), *flags]) == 3, stage
        err = capsys.readouterr().err
        assert f"{out / name}: the root must be a JSON object" in err and "Traceback" not in err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("entry", ["seeds", "artifacts"])
@pytest.mark.parametrize("value", [[1], None])
@pytest.mark.parametrize("stage", [["simulate"], ["train", "--epochs", "0"],
                                   ["detect", "--passive-only"], ["detect"]])
def test_stage_checks_manifest_entries_before_writing(tmp_path, capsys, stage, entry, value):
    cfg_path, out = write_config(tmp_path, out_name="entries")
    for earlier in (["simulate"], ["train", "--epochs", "0"]):
        assert main([earlier[0], "--config", str(cfg_path), *earlier[1:]]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps(dict(manifest, **{entry: value})))
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    assert main([stage[0], "--config", str(cfg_path), *stage[1:]]) == 3
    err = capsys.readouterr().err
    assert f"{out / 'manifest.json'}: entry '{entry}' must be a JSON object" in err
    assert "Traceback" not in err
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.parametrize("bad", ["non-UTF-8 byte", "directory"])
@pytest.mark.parametrize("target", ["dataset", "trace", "labels", "checkpoint",
                                    "metrics.json", "manifest.json", "config"])
def test_an_unreadable_file_is_a_named_error(tmp_path, capsys, bad, target):
    cfg_path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    stage = next((name for name, (inputs, _, _) in cli.STAGES.items() if target in inputs), None)
    if stage:  # the option names a spoiled copy of the input
        path, original = tmp_path / target, (out / cli.STAGES[stage][0][target]).read_bytes()
        argv = [stage, "--config", str(cfg_path), f"--{target}", str(path)]
    elif target == "config":
        path, original = tmp_path / target, cfg_path.read_bytes()
        argv = ["simulate", "--config", str(path)]
    else:  # spoiled where the run directory holds it
        path, original = out / target, (out / target).read_bytes()
        path.unlink()
        argv = (["report", "--run-dir", str(out)] if target == "metrics.json"
                else ["simulate", "--config", str(cfg_path)])
    if bad == "directory":
        path.mkdir()
    else:
        path.write_bytes(original + b"\xff")
    capsys.readouterr()
    assert main(argv) == (2 if target == "config" else 3)
    err = capsys.readouterr().err
    assert f"{path} cannot be read: " in err and "Traceback" not in err


@pytest.mark.parametrize("below", [False, True])
def test_an_outputs_path_through_a_file_is_config_error(tmp_path, capsys, below):
    cfg_path, _ = write_config(tmp_path)
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "run" if below else blocker
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert f"config error: outputs {out}: {blocker} is not a directory" in capsys.readouterr().err
    assert sorted(path.name for path in tmp_path.iterdir()) == [cfg_path.name, "file"]
    assert blocker.read_text() == "kept\n"


def test_train_epochs_override_and_determinism(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="t1")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history == ["epoch,train_loss,val_loss"]
    first = (out / "checkpoint.json").read_bytes()
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    assert (out / "checkpoint.json").read_bytes() == first


@pytest.mark.parametrize("section,changes,argv", [
    ("signal", {"signal": [1, 2]}, ["simulate", "--seed", "3"]),
    ("network", {"network": 5}, ["train", "--epochs", "1"]),
    ("network.train", {"network": dict(BASE_CONFIG["network"], train="x")},
     ["train", "--seed", "1"]),
])
def test_an_override_into_a_section_that_is_not_an_object_is_config_error(
        tmp_path, capsys, section, changes, argv):
    # the option changes nothing: parse_config refuses the section as without it
    path, _ = write_config(tmp_path, **changes)
    for options in ([], argv[1:]):
        assert main([argv[0], "--config", str(path), *options]) == 2
        assert capsys.readouterr().err == (f"config error: config section '{section}' must be "
                                           "a JSON object\n")


def test_train_reuses_last_validation_pass_for_holdout(tmp_path, monkeypatch):
    cfg_path, out = write_config(tmp_path, out_name="holdout")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    calls = []

    def counted(net, windows):
        calls.append(len(windows))
        return nn.predict_proba(net, windows)

    monkeypatch.setattr(cli, "predict_proba", counted)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert calls == []
    holdout = json.loads((out / "metrics.json").read_text())["gru_cnn_holdout"]
    # the same numbers as scoring the holdout again with the saved network
    cfg = cli.parse_config(json.loads(cfg_path.read_text()))
    _, _, _, test_w, test_y = cli._prepared_splits(
        cfg, read_dataset_csv(out / "dataset.csv"))
    probs = nn.predict_proba(nn.load_checkpoint(out / "checkpoint.json")[0], test_w)
    assert holdout == evaluation.score(probs[:, 1] > probs[:, 0], test_y.astype(bool))
    # without epochs there is no validation pass to reuse
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    assert calls == [len(test_w)]


def test_detect_builds_no_per_tick_objects(tmp_path, monkeypatch):
    cfg_path, out = write_config(tmp_path, out_name="columns")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"detect built a {type(self).__name__}")

    for cls in (akf.StepOutput, passive_detect.PassiveVerdict, fusion.FusionVerdict):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert main(["detect", "--config", str(cfg_path)]) == 0
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 0


def csv_column(path, name) -> list[str]:
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return [row[header.index(name)] for row in rows]


@pytest.mark.parametrize("passive_only", [False, True])
def test_stages_format_each_column_once(tmp_path, monkeypatch, passive_only):
    cfg_path, out = write_config(tmp_path, out_name="once")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    formatted, fmt_column = [], io_utils.fmt_column

    def counting(values):
        cells = fmt_column(values)
        formatted.append(len(cells))
        return cells

    for module in (io_utils, cli):
        monkeypatch.setattr(module, "fmt_column", counting)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    # t, x1, x2, z and label, though t goes into three files and z and label two
    assert formatted == [1600] * 5
    # the simulate rerun removed the network made from the earlier dataset
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    formatted.clear()
    extra = ["--passive-only"] if passive_only else []
    assert main(["detect", "--config", str(cfg_path), *extra]) == 0
    # t; euclidean_d, residual_r and flag of both filters; p_attack (all NaN
    # in a passive-only run, so its cells are empty), the classifier flag, the
    # improved filter's residual flag and the fused flag
    assert formatted == [1600] * 11
    p_attack = csv_column(out / "verdicts_active.csv", "p_attack")
    assert (p_attack == [""] * 1600) == passive_only
    assert csv_column(out / "dataset.csv", "z") == csv_column(out / "trace.csv", "z")
    assert (csv_column(out / "verdicts_fused.csv", "r_N")
            == csv_column(out / "verdicts_passive.csv", "residual_r"))
    assert (csv_column(out / "verdicts_fused.csv", "flag_GC")
            == csv_column(out / "verdicts_active.csv", "flag"))


def test_main_parses_after_an_argparse_exit(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="reparse")
    with pytest.raises(SystemExit) as info:
        main(["simulate"])  # --config missing
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["detect", "--help"])
    assert info.value.code == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg_path), "--seed", "8"]) == 0
    assert json.loads((out / "manifest.json").read_text())["seeds"]["signal"] == 8
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 0
    assert cli.build_parser() is cli.build_parser()


def test_detect_empty_trace_is_data_error(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="empty")
    out.mkdir()
    (out / "labels.csv").write_text("t,label\n")
    (out / "trace.csv").write_text("")
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    assert capsys.readouterr().err == f"data error: empty CSV file: {out / 'trace.csv'}\n"
    (out / "trace.csv").write_text("t,x1,x2,z\n")
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    err = capsys.readouterr().err
    assert f"{out / 'trace.csv'} has a header but no data rows" in err
    assert "Traceback" not in err
    (out / "trace.csv").write_text("t,x1,x2,z\n0,1.0,0.0,1.0\n")
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    err = capsys.readouterr().err
    assert f"{out / 'labels.csv'} has a header but no data rows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cell", ["", "nan"])
def test_detect_bad_trace_cell_is_data_error(tmp_path, capsys, cell):
    cfg_path, out = write_config(tmp_path, out_name="badcell")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    t, x1, x2, _ = lines[42].split(",")
    lines[42] = ",".join([t, x1, x2, cell])
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    assert "trace.csv: row 42, column 'z'" in capsys.readouterr().err


@pytest.mark.parametrize("name,column", [("trace.csv", 0), ("labels.csv", 0),
                                         ("labels.csv", 1)])
def test_detect_integer_cell_beyond_int64_is_data_error(tmp_path, capsys, name, column):
    cfg_path, out = write_config(tmp_path, out_name="int64")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = (out / name).read_text().splitlines()
    cells = lines[42].split(",")
    cells[column] = "99999999999999999999"
    lines[42] = ",".join(cells)
    (out / name).write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    err = capsys.readouterr().err
    header = lines[0].split(",")
    assert (f"{out / name}: row 42, column '{header[column]}' is beyond the int64 range: "
            "'99999999999999999999'") in err
    assert "Traceback" not in err


@pytest.mark.parametrize("column,cell,problem", [
    (0, "abc", "column 't' is not a number: 'abc'"),
    (0, "", "column 't' is empty"),
    (0, "2.5", "column 't' is not a number: '2.5'"),
    (2, "yes", "column 'label' is not a number: 'yes'"),
    (2, "0.9", "column 'label' is not a number: '0.9'"),
    (2, "2", "column 'label' is not 0 or 1: '2'"),
    (1, "abc", "column 'z' is not a number: 'abc'"),
    (1, "inf", "column 'z' is not finite: 'inf'"),
    (1, "-inf", "column 'z' is not finite: '-inf'"),
    (0, "99999999999999999999", "column 't' is beyond the int64 range: '99999999999999999999'"),
    (2, "-99999999999999999999",
     "column 'label' is beyond the int64 range: '-99999999999999999999'"),
])
def test_train_bad_dataset_cell_is_data_error(tmp_path, capsys, column, cell, problem):
    cfg_path, out = write_config(tmp_path, out_name="baddata")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    cells = lines[7].split(",")
    cells[column] = cell
    lines[7] = ",".join(cells)
    (out / "dataset.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 3
    assert f"dataset.csv: row 7, {problem}" in capsys.readouterr().err


def test_train_misordered_dataset_ticks_are_data_error(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="misordered")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    lines[7], lines[8] = lines[8], lines[7]
    (out / "dataset.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 3
    err = capsys.readouterr().err
    assert f"{out / 'dataset.csv'}: row 7 has tick 7, expected 6" in err
    assert "Traceback" not in err


def test_train_header_only_dataset_is_data_error(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="nodata")
    out.mkdir()
    (out / "dataset.csv").write_text("t,z,label\n")
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 3
    err = capsys.readouterr().err
    assert f"{out / 'dataset.csv'} has a header but no data rows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("attack,problem", [
    ({"onset": 10_000}, "oversampling needs both classes present"),
    ({"duration": 2}, "minority class has 2 rows, fewer than 3 clusters"),
])
def test_a_pipeline_data_error_names_the_dataset(tmp_path, capsys, attack, problem):
    cfg_path, out = write_config(tmp_path, attack=dict(BASE_CONFIG["attack"], **attack))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 3
    assert capsys.readouterr().err == f"data error: {out / 'dataset.csv'}: {problem}\n"


def test_train_reads_empty_feature_cell_as_missing(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="missing")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    t, _, label = lines[7].split(",")
    lines[7] = ",".join([t, "", label])
    (out / "dataset.csv").write_text("\n".join(lines) + "\n")
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0


@pytest.mark.parametrize("section,key,value", [
    ("signal", "omega", "abc"),
    ("signal", "n", "ten"),
    ("signal", "seed", None),
    ("signal", "initial", 5),
    ("thresholds", "k", "x"),
    ("filter", "forgetting", "x"),
    ("pipeline", "seed", "s"),
    ("network", "hidden", "many"),
    # attack values are typed like every other section
    ("attack", "amplitude", "x"),
    ("attack", "sinusoid_omega", [0.2]),
    ("attack", "fraction", "big"),
    ("attack", "period", 2.5),
    ("attack", "duty", 0.5),
    ("attack", "onset", 1100.5),
    # integer keys take integral numbers only, never truncating
    ("signal", "n", 3254.9),
    ("thresholds", "warmup", 500.5),
    ("pipeline", "k_clusters", True),
    ("network", "conv1_size", 2.5),
    # float keys take finite JSON numbers only: no bools, strings, inf or NaN
    ("thresholds", "k", True),
    ("filter", "forgetting", "0.98"),
    ("signal", "omega", math.inf),
    ("signal", "initial", [1.0, math.nan]),
    ("attack", "fraction", -math.inf),
    ("network", "dropout", math.nan),
    # one training-data order, and two attack kinds: no stealthy ac = H d
    ("pipeline", "order", "split_first"),
    ("attack", "kind", "stealthy"),
    # integer keys are counts, sizes, ticks or seeds: never negative, and a
    # count or size of zero is no count at all
    ("signal", "seed", -1),
    ("pipeline", "seed", -1),
    ("pipeline", "k_clusters", 0),
    ("pipeline", "k_clusters", -2),
    ("network", "pool", 0),
    ("network", "conv1_size", 0),
    ("network", "conv1_kernels", 0),
    ("network", "conv2_kernels", -1),
    ("network", "conv2_size", -3),
    ("thresholds", "warmup", -5),
    # one boolean per trace sensor, and the trace has one
    ("attack", "sensors", "yes"),
    ("attack", "sensors", [True, True]),
    ("attack", "sensors", []),
    ("attack", "sensors", [1]),
    # values every stage would accept that fail in a later one: the improved
    # filter always drives detect, the thresholds need 10 settle ticks and 100
    # calibration samples, and both the filter weight and the split are fractions
    ("filter", "variant", "classic"),
    ("thresholds", "warmup", 5),
    ("filter", "forgetting", 1.5),
    ("thresholds", "k", -1),
    ("pipeline", "train_fraction", 1.5),
    # Adam's step size and moment decays, and a batch that holds windows;
    # epsilon 0 divides 0 by 0 and trains a NaN checkpoint
    ("network.train", "lr", -1.0),
    ("network.train", "lr", 0.0),
    ("network.train", "beta1", 1.0),
    ("network.train", "beta2", 0.0),
    ("network.train", "epsilon", 0.0),
    ("network.train", "epsilon", -1e-8),
    ("network.train", "batch", 0),
    ("network", "dropout", 1.5),
    # numpy holds every integer key in an int64
    ("attack", "onset", 2**70),
    ("attack", "period", 2**70),
    ("attack", "duration", 2**63),
    ("signal", "n", 2**64),
    ("signal", "seed", 2**63),
    # akf.config_for_sinusoid squares each sigma
    ("signal", "sigma_meas", 1e200),
    ("signal", "sigma_process", 1e200),
])
def test_wrongly_typed_config_value_is_config_error(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["outputs"] = str(tmp_path / "typed")
    target = cfg
    for name in section.split("."):
        target = target[name]
    target[key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"'{section}.{key}'" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("name,changes", [
    ("signal.omega", {"omega": -1.0}),
    ("signal.sigma_meas", {"sigma_meas": -0.1}),
    ("signal.sigma_process", {"sigma_process": -1e-3}),
    ("signal.n", {"n": 0}),
    ("attack.duration", {"duration": 0}),
    ("attack.fraction", {"fraction": 0.0}),
    ("attack.duty", {"period": 10}),
    ("attack.duty", {"period": 10, "duty": 0}),
    ("attack.amplitude", {"kind": "random_sinusoid", "fraction": None}),
    ("attack.fraction", {"fraction": None}),
])
def test_out_of_range_signal_or_attack_value_names_its_key(tmp_path, capsys, name, changes):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["outputs"] = str(tmp_path / "range")
    cfg[name.split(".")[0]].update(changes)
    path = tmp_path / "range.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"'{name}'" in err
    assert "Traceback" not in err


# one value outside each SCHEMA rule
OUT_OF_RULE = {
    "signal.omega": 0.0, "signal.sigma_process": -1e-3, "signal.sigma_meas": 1e300,
    "signal.initial": [1.0, 0.0, 0.0], "signal.n": 0,
    "attack.duration": 0, "attack.fraction": -0.05, "attack.sensors": [False, True],
    "filter.variant": "classic", "filter.forgetting": 1.0, "thresholds.k": 0.0,
    "thresholds.warmup": 109, "network.train.lr": 0.0, "network.train.beta1": 1.0,
    "network.train.beta2": 0.0, "network.train.epsilon": -1.0, "network.train.batch": 0,
    "pipeline.k_clusters": 0, "pipeline.train_fraction": 1.0,
    "pipeline.order": "split_first",
    "network.window_len": 0, "network.hidden": 0, "network.conv1_kernels": 0,
    "network.conv1_size": 0, "network.conv2_kernels": 0, "network.conv2_size": 0,
    "network.pool": 0, "network.dropout": 1.0,
}


@pytest.mark.parametrize("name", [name for name, (_, _, rule) in cli.SCHEMA.items() if rule])
def test_each_schema_rule_rejects_a_value_outside_it(tmp_path, capsys, name):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["outputs"] = str(tmp_path / "rule")
    *sections, key = name.split(".")
    target = cfg
    for section in sections:
        target = target[section]
    target[key] = OUT_OF_RULE[name]
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config key '{name}' {cli.SCHEMA[name][2][1]}" in err
    assert "Traceback" not in err


SINUSOID_ATTACK = {"kind": "random_sinusoid", "amplitude": 0.1, "onset": 1100,
                   "duration": 400, "sensors": [True]}


@pytest.mark.parametrize("name, overrides", [
    # the phase omega * t overflows to inf within the trace's 1600 ticks
    ("attack.sinusoid_omega", {"attack": dict(SINUSOID_ATTACK, sinusoid_omega=1e306)}),
    ("signal.omega", {"signal": dict(BASE_CONFIG["signal"], omega=2e305)}),
])
def test_overflowing_phase_is_config_error(tmp_path, capsys, name, overrides):
    cfg_path, _ = write_config(tmp_path, **overrides)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"config key '{name}' is " in err and "phase over 1600 ticks" in err
    assert "Traceback" not in err


def test_detect_refuses_a_phase_that_overflows_on_its_trace(tmp_path, capsys):
    # one tick of phase is finite for the config, not over the longer trace
    cfg_path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    short_path, _ = write_config(tmp_path, out_name="short",
                                 signal=dict(BASE_CONFIG["signal"], omega=1e306, n=1))
    assert main(["detect", "--config", str(short_path), "--trace", str(out / "trace.csv"),
                 "--labels", str(out / "labels.csv"), "--passive-only"]) == 2
    err = capsys.readouterr().err
    assert "config key 'signal.omega' is 1e+306: its phase over 1600 ticks" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("initial", [[1.0], [1.0, 2.0, 3.0]])
def test_initial_state_of_the_wrong_length_is_config_error(tmp_path, capsys, initial):
    signal = dict(BASE_CONFIG["signal"], initial=initial)
    cfg_path, _ = write_config(tmp_path, signal=signal)
    assert main(["simulate", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config key 'signal.initial' must list two finite numbers" in err
    assert "__init__" not in err


def test_readme_config_schema_names_every_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Config schema", 1)[1].split("```jsonc\n", 1)[1].split("```")[0]
    example = json.loads(re.sub(r"//.*", "", block))

    def names(section, prefix=""):
        return [name for key, value in section.items()
                for name in (names(value, f"{prefix}{key}.") if isinstance(value, dict)
                             else [prefix + key])]

    assert sorted(names(example)) == sorted(cli.SCHEMA)
    cli.parse_config(example)


def test_readme_run_directory_lists_every_stage_file_and_csv_header():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Run directory layout", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| (.*) \|$", section, re.MULTILINE)
    files = {name: fields for _, own, _ in cli.STAGES.values() for name, fields in own.items()}
    assert sorted(name for name, _ in rows) == sorted(
        [*files, "manifest.json", "metrics.json", "report.json"])
    for name, contents in rows:
        headers = [code for code in re.findall(r"`([^`]*)`", contents) if "," in code]
        assert headers == ([",".join(files[name])] if files.get(name) else []), name


@pytest.mark.parametrize("key,value", [("seed", -1), ("epochs", -1)])
def test_negative_training_value_is_config_error(tmp_path, capsys, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["outputs"] = str(tmp_path / "negative")
    cfg["network"]["train"][key] = value
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"'network.train.{key}'" in err
    assert "Traceback" not in err


def test_unselected_sensor_leaves_trace_and_labels_clean(tmp_path):
    attack = dict(BASE_CONFIG["attack"], sensors=[False])
    cfg_path, out = write_config(tmp_path, out_name="unselected", attack=attack)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert set(csv_column(out / "labels.csv", "label")) == {"0"}
    clean_path, clean = write_config(tmp_path, out_name="clean",
                                     attack=dict(attack, onset=1600, duration=1))
    assert main(["simulate", "--config", str(clean_path)]) == 0
    assert csv_column(out / "trace.csv", "z") == csv_column(clean / "trace.csv", "z")


@pytest.mark.parametrize("keys", [
    ("outptus",), ("signal", "omgea"), ("attack", "onest"), ("filter", "forgeting"),
    ("thresholds", "kk"), ("pipeline", "sed"), ("network", "hiden"),
    ("network", "train", "epcohs"),
    # the trace is one feature wide, and the CLI has no constant-bias attack
    ("attack", "d"), ("network", "input_dim"),
])
def test_unknown_config_key_is_config_error(tmp_path, capsys, keys):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["outputs"] = str(tmp_path / "unknown")
    section = cfg
    for name in keys[:-1]:
        section = section[name]
    section[keys[-1]] = 0.5
    path = tmp_path / "unknown.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"unknown config key '{'.'.join(keys)}'" in err
    assert "Traceback" not in err


def test_train_takes_the_input_width_from_the_dataset(tmp_path, capsys):
    cfg_path, out = write_config(tmp_path, out_name="wide")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    lines = (out / "dataset.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    wide = tmp_path / "wide.csv"
    wide.write_text("t,z,w,label\n" + "".join(
        f"{t},{z},{-2.0 * float(z)!r},{label}\n" for t, z, label in rows))
    assert main(["train", "--config", str(cfg_path), "--dataset", str(wide),
                 "--epochs", "1"]) == 0
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["config"]["input_dim"] == 2
    capsys.readouterr()
    # the scalar trace cannot feed a two-feature network
    assert main(["detect", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "checkpoint expects 2 features; trace detection provides 1" in err
    assert "Traceback" not in err


def test_passive_only_detect_drops_an_earlier_classifier_entry(tmp_path, capsys):
    cfg_path, out = run_to_report(tmp_path, "stale")
    assert "gru_cnn" in json.loads((out / "metrics.json").read_text())
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "gru_cnn" not in metrics
    assert {"improved_akf", "classic_akf", "fused", "gru_cnn_holdout"} <= set(metrics)
    capsys.readouterr()
    assert main(["report", "--config", str(cfg_path)]) == 3
    assert "run detect without --passive-only" in capsys.readouterr().err


def test_detect_removes_verdict_files_it_did_not_write(tmp_path):
    cfg_path, out = run_to_report(tmp_path, "rerun", filter=CLASSIC_NON_FINITE["filter"])

    def detect_lists_its_files(*flags):
        if flags:
            assert main(["detect", "--config", str(cfg_path), *flags]) == 0
        artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
        listed = set().union(*artifacts.values()) | {"manifest.json"}
        assert sorted(path.name for path in out.iterdir()) == sorted(listed)
        return [name for name in artifacts["detect"] if name != "metrics.json"]

    verdicts = ["verdicts_active.csv", "verdicts_fused.csv", "verdicts_passive.csv"]
    assert detect_lists_its_files() == [*verdicts, "verdicts_passive_classic.csv"]
    assert detect_lists_its_files("--passive-only") == [*verdicts,
                                                        "verdicts_passive_classic.csv"]
    # and a classic filter that diverges takes its file from an earlier run
    diverging, other = write_config(tmp_path, out_name="diverged", **CLASSIC_NON_FINITE)
    assert main(["simulate", "--config", str(diverging)]) == 0
    assert detect_lists_its_files("--passive-only", "--trace", str(other / "trace.csv"),
                                  "--labels", str(other / "labels.csv")) == verdicts


@pytest.mark.parametrize("name,row", [("labels.csv", 1), ("trace.csv", 43)])
def test_detect_misaligned_ticks_are_data_error(tmp_path, capsys, name, row):
    # every tick from the given row on is one too high: labels.csv holds 1..n,
    # trace.csv skips tick 42
    cfg_path, out = write_config(tmp_path, out_name="ticks")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    path = out / name
    lines = path.read_text().splitlines()
    for i in range(row, len(lines)):
        t, rest = lines[i].split(",", 1)
        lines[i] = f"{int(t) + 1},{rest}"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 3
    err = capsys.readouterr().err
    assert f"{path}: row {row} has tick {row}, expected {row - 1}" in err
    assert "Traceback" not in err


def test_integral_float_is_an_integer_config_value():
    raw = json.loads(json.dumps(BASE_CONFIG))
    raw["outputs"] = "unused"
    raw["signal"]["n"] = 1600.0
    raw["attack"].update(period=40.0, duty=10)
    cfg = cli.parse_config(raw)
    assert type(cfg.n) is int and cfg.n == 1600
    assert type(cfg.scenario.period) is int and cfg.scenario.period == 40


def run_to_report(tmp_path, name, **overrides):
    cfg_path, out = write_config(tmp_path, out_name=name, **overrides)
    for stage in ("simulate", "train", "detect"):
        args = [stage, "--config", str(cfg_path)]
        assert main(args + (["--epochs", "0"] if stage == "train" else [])) == 0
    return cfg_path, out


def test_active_flags_are_the_classifier_decision(tmp_path):
    _, out = run_to_report(tmp_path, "active")
    net, std = nn.load_checkpoint(out / "checkpoint.json")
    z = np.array(csv_column(out / "trace.csv", "z"), dtype=float)
    length = net.config.window_len
    windows, _ = window(apply_standardizer(std, z[:, None]), np.zeros(len(z), dtype=int),
                        length)
    probs = nn.predict_proba(net, windows)
    expected = np.zeros(len(z), dtype=bool)
    expected[length - 1:] = probs[:, 1] > probs[:, 0]
    assert expected.any()
    assert csv_column(out / "verdicts_active.csv", "flag") == [str(int(f)) for f in expected]


def test_diverging_training_is_numerical_error_and_saves_no_checkpoint(tmp_path, capsys):
    network = dict(BASE_CONFIG["network"], train=dict(BASE_CONFIG["network"]["train"],
                                                      lr=1e308))
    cfg_path, out = write_config(tmp_path, out_name="diverge", network=network)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--epochs", "1"]) == 4
    err = capsys.readouterr().err
    assert "training diverged in epoch 0" in err
    assert "Warning" not in err and "Traceback" not in err
    assert not (out / "checkpoint.json").exists()


def test_failed_train_leaves_no_earlier_network(tmp_path, capsys):
    cfg_path, out = run_to_report(tmp_path, "retrain")
    assert "gru_cnn_holdout" in json.loads((out / "metrics.json").read_text())
    network = dict(BASE_CONFIG["network"], train=dict(BASE_CONFIG["network"]["train"],
                                                      lr=1e308))
    diverge_path, _ = write_config(tmp_path, out_name="retrain", network=network)
    assert main(["train", "--config", str(diverge_path), "--epochs", "1"]) == 4
    assert not (out / "checkpoint.json").exists() and not (out / "history.csv").exists()
    # and the verdicts made from the earlier network
    assert json.loads((out / "metrics.json").read_text()) == {}
    assert list(out.glob("verdicts_*.csv")) == []
    assert list(json.loads((out / "manifest.json").read_text())["artifacts"]) == ["simulate"]
    capsys.readouterr()
    assert main(["detect", "--config", str(diverge_path)]) == 3
    assert (f"missing network checkpoint {out / 'checkpoint.json'}; train first"
            in capsys.readouterr().err)
    assert main(["report", "--run-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "(run detect)" in err and "--passive-only" not in err


def test_failed_simulate_leaves_no_earlier_results(tmp_path, monkeypatch):
    cfg_path, out = run_to_report(tmp_path, "resimulated")
    assert main(["report", "--config", str(cfg_path)]) == 0

    def refuse(*args):
        raise DataError("refused")

    monkeypatch.setattr(cli, "simulate", refuse)
    assert main(["simulate", "--config", str(cfg_path)]) == 3
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json", "metrics.json"]
    assert json.loads((out / "manifest.json").read_text())["artifacts"] == {}
    assert json.loads((out / "metrics.json").read_text()) == {}
    assert main(["report", "--config", str(cfg_path)]) == 3


def test_failed_detect_leaves_no_earlier_results(tmp_path):
    cfg_path, out = run_to_report(tmp_path, "refused")
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert main(["detect", "--config", str(cfg_path),
                 "--checkpoint", str(tmp_path / "nowhere.json")]) == 3
    assert list(out.glob("verdicts_*.csv")) == []
    assert set(json.loads((out / "metrics.json").read_text())) == {"gru_cnn_holdout"}
    listed = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert set(listed) == {"simulate", "train"}
    assert main(["report", "--config", str(cfg_path)]) == 3
    assert not (out / "report.json").exists()


STAGE_FILES = {"simulate": ["dataset.csv", "labels.csv", "trace.csv"],
               "train": ["checkpoint.json", "history.csv"],
               "detect": sorted(cli.STAGES["detect"][1])}
STAGE_ENTRIES = {"simulate": [], "train": ["gru_cnn_holdout"], "detect": list(cli.DETECTORS)}


# each edge of the stage graph: simulate feeds train and detect, train feeds
# detect, and every stage feeds report through metrics.json
@pytest.mark.parametrize("rerun,kept", [
    (["simulate", "--seed", "99"], ["simulate"]),
    (["train", "--epochs", "0", "--seed", "99"], ["simulate", "train"]),
    (["detect"], ["simulate", "train", "detect"]),
])
def test_a_rerun_clears_what_was_made_from_the_files_it_replaces(tmp_path, capsys, rerun,
                                                                  kept):
    cfg_path, out = run_to_report(tmp_path, "graph")
    assert main(["report", "--run-dir", str(out)]) == 0
    assert main([rerun[0], "--config", str(cfg_path), *rerun[1:]]) == 0
    files = [name for stage in kept for name in STAGE_FILES[stage]]
    assert (sorted(path.name for path in out.iterdir())
            == sorted([*files, "manifest.json", "metrics.json"]))
    metrics = json.loads((out / "metrics.json").read_text())
    assert sorted(metrics) == sorted(key for stage in kept for key in STAGE_ENTRIES[stage])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == {
        stage: sorted(STAGE_FILES[stage] + (["metrics.json"] if STAGE_ENTRIES[stage] else []))
        for stage in kept}
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == (0 if "detect" in kept else 3)
    assert ("(run detect)" in capsys.readouterr().err) == ("detect" not in kept)
    if rerun[0] == "simulate":
        assert manifest["seeds"]["signal"] == 99
    if rerun[0] == "train":
        assert manifest["seeds"]["train"] == manifest["config"]["network"]["train"]["seed"] == 99


def test_checkpoint_config_that_cannot_be_read_is_data_error(tmp_path, capsys):
    cfg_path, out = run_to_report(tmp_path, "badcp")
    path = out / "checkpoint.json"
    saved = path.read_text()
    for edit, key in [(lambda c: c.pop("hidden"), "hidden"),
                      (lambda c: c.update(stride=1), "stride"),
                      (lambda c: c.update(pool="2"), "pool")]:
        obj = json.loads(saved)
        edit(obj["config"])
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["detect", "--config", str(cfg_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: ") and f"'config.{key}'" in err
        assert "Traceback" not in err


def test_report_reads_only_metrics_json(tmp_path, capsys):
    cfg_path, out = run_to_report(tmp_path, "full")
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 0
    table = capsys.readouterr().out
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / "metrics.json").write_bytes((out / "metrics.json").read_bytes())
    assert main(["report", "--run-dir", str(alone)]) == 0
    assert capsys.readouterr().out == table
    assert (alone / "report.json").read_bytes() == (out / "report.json").read_bytes()
    assert sorted(path.name for path in alone.iterdir()) == ["metrics.json", "report.json"]


def test_a_detector_row_is_one_table_entry(tmp_path, monkeypatch, capsys):
    names = dict(vars(cli))
    monkeypatch.setitem(cli.DETECTORS, "dummy", "flag_N")
    _, out = run_to_report(tmp_path, "dummy")
    flags = np.array(csv_column(out / "verdicts_fused.csv", "flag_N")) == "1"
    labels = np.array(csv_column(out / "labels.csv", "label")) == "1"
    expected = evaluation.score(flags, labels, int(np.argmax(labels)))
    assert json.loads((out / "metrics.json").read_text())["dummy"] == expected
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 0
    assert re.search(r"^dummy +[0-9.]+ ", capsys.readouterr().out, re.MULTILINE)
    # the one table entry is all that changed in cli
    assert vars(cli).keys() == names.keys()
    assert all(vars(cli)[name] is value for name, value in names.items())
    assert "dummy" in cli.STAGES["detect"][2]


# metamorphic relations of detect, on a run of criterion 11's length
@pytest.fixture(scope="module")
def short_run(tmp_path_factory):
    """A 1200-tick run through detect, and its verdict files."""
    tmp_path = tmp_path_factory.mktemp("metamorphic")
    cfg_path, out = write_config(tmp_path, signal=dict(BASE_CONFIG["signal"], n=1200),
                                 attack=dict(BASE_CONFIG["attack"], onset=800, duration=300))
    for stage in (["simulate"], ["train", "--epochs", "0"], ["detect"]):
        assert main([stage[0], "--config", str(cfg_path), *stage[1:]]) == 0
    return cfg_path, out, verdict_files(out)


def verdict_files(out) -> dict:
    return {path.name: path.read_bytes() for path in out.glob("verdicts_*.csv")}


def detect_into(cfg_path, run, out, *flags, **inputs):
    """``detect`` of ``run``'s checkpoint into ``out``, reading the given inputs,
    with the given flags."""
    options = [f"--{name}={path}" for name, path in inputs.items()]
    assert main(["detect", "--config", str(cfg_path), "--out", str(out),
                 "--checkpoint", str(run / "checkpoint.json"), *options, *flags]) == 0
    return verdict_files(out)


def test_detect_is_causal(tmp_path, short_run):
    # detect on the first 1000 ticks writes the whole trace's rows for them
    cfg_path, out, whole = short_run
    cut = {}
    for name in ("trace", "labels"):
        lines = (out / f"{name}.csv").read_text().splitlines(keepends=True)
        cut[name] = tmp_path / f"{name}.csv"
        cut[name].write_text("".join(lines[:1001]))
    prefix = detect_into(cfg_path, out, tmp_path / "cut", **cut)
    assert sorted(prefix) == sorted(whole) and len(whole) == 4
    for name, data in whole.items():
        assert prefix[name].splitlines() == data.splitlines()[:1001], name


def test_detect_verdicts_are_blind_to_the_labels(tmp_path, short_run):
    # labels only score: none, all or random ones after the warm-up
    cfg_path, out, whole = short_run
    after = np.random.default_rng(0).integers(0, 2, size=700)
    for i, flags in enumerate([np.zeros(700, dtype=int), np.ones(700, dtype=int), after]):
        labels = tmp_path / f"labels{i}.csv"
        labels.write_text("t,label\n" + "".join(
            f"{t},{flag}\n" for t, flag in enumerate([0] * 500 + flags.tolist())))
        assert detect_into(cfg_path, out, tmp_path / f"run{i}", trace=out / "trace.csv",
                           labels=labels) == whole


def test_detect_passive_verdicts_are_blind_to_the_classifier(tmp_path, short_run):
    # a passive-only detect writes the whole run's passive verdicts
    cfg_path, out, whole = short_run
    passive = detect_into(cfg_path, out, tmp_path / "passive", "--passive-only",
                          trace=out / "trace.csv", labels=out / "labels.csv")
    for name in ("verdicts_passive.csv", "verdicts_passive_classic.csv"):
        assert passive[name] == whole[name], name
