import json
import math
from pathlib import Path

import numpy as np
import pytest

from fdia_lab import akf, cli, evaluation, fusion, io_utils, nn, passive_detect
from fdia_lab.cli import main
from fdia_lab.data_pipeline import read_dataset_csv

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
    series = (out / "plot_series.csv").read_text().splitlines()
    assert series[0] == "t,euclidean_d,residual_r,flag_passive,p_attack,flag_active,flag_fused"
    assert len(series) == 1601


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


def test_detect_classic_variant_drives_pipeline(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="classic",
                                 filter={"variant": "classic",
                                         "forgetting": 0.98})
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["detect", "--config", str(cfg_path), "--passive-only"]) == 0
    assert (out / "verdicts_passive_improved.csv").exists()
    metrics = json.loads((out / "metrics.json").read_text())
    assert "classic_akf" in metrics and "improved_akf" in metrics


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


def test_missing_config_is_config_error(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2


def test_invalid_config_is_config_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path)]) == 2


def test_report_on_empty_dir_is_data_error(tmp_path):
    assert main(["report", "--run-dir", str(tmp_path / "empty")]) == 3


def test_train_epochs_override_and_determinism(tmp_path):
    cfg_path, out = write_config(tmp_path, out_name="t1")
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history == ["epoch,train_loss,val_loss"]
    first = (out / "checkpoint.json").read_bytes()
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    assert (out / "checkpoint.json").read_bytes() == first


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
    report = evaluation.metrics(evaluation.confusion(probs[:, 1] > probs[:, 0],
                                                     test_y.astype(bool)))
    assert holdout == evaluation.report_dict(report)
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
    assert main(["train", "--config", str(cfg_path), "--epochs", "0"]) == 0
    formatted, fmt_column = [], io_utils.fmt_column

    def counting(values):
        cells = fmt_column(values)
        if cells is not values:  # a list of cells passes through unformatted
            formatted.append(len(cells))
        return cells

    for module in (io_utils, cli):
        monkeypatch.setattr(module, "fmt_column", counting)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    # t, x1, x2, z and label, though t goes into three files and z and label two
    assert formatted == [1600] * 5
    formatted.clear()
    extra = ["--passive-only"] if passive_only else []
    assert main(["detect", "--config", str(cfg_path), *extra]) == 0
    # t; euclidean_d, residual_r and flag of both filters; p_attack, the
    # classifier flag, the configured filter's residual flag and the fused flag
    assert formatted == [1600] * 11
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
    (out / "trace.csv").write_text("t,x1,x2,z\n")
    capsys.readouterr()
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


@pytest.mark.parametrize("column,cell,problem", [
    (0, "abc", "column 't' is not a number: 'abc'"),
    (0, "", "column 't' is empty"),
    (2, "yes", "column 'label' is not a number: 'yes'"),
    (1, "abc", "column 'z' is not a number: 'abc'"),
    (1, "inf", "column 'z' is not finite: 'inf'"),
    (1, "-inf", "column 'z' is not finite: '-inf'"),
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
    ("attack", "d", [0.1, True]),
    ("network", "dropout", math.nan),
])
def test_wrongly_typed_config_value_is_config_error(tmp_path, capsys, section, key, value):
    cfg = json.loads(json.dumps(BASE_CONFIG))
    cfg["outputs"] = str(tmp_path / "typed")
    cfg[section][key] = value
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"'{section}.{key}'" in err
    assert "Traceback" not in err and "Warning" not in err


@pytest.mark.parametrize("keys", [
    ("outptus",), ("signal", "omgea"), ("attack", "onest"), ("filter", "forgeting"),
    ("thresholds", "kk"), ("pipeline", "sed"), ("network", "hiden"),
    ("network", "train", "epcohs"),
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


def run_to_report(tmp_path, name):
    cfg_path, out = write_config(tmp_path, out_name=name)
    for stage in ("simulate", "train", "detect"):
        args = [stage, "--config", str(cfg_path)]
        assert main(args + (["--epochs", "0"] if stage == "train" else [])) == 0
    return cfg_path, out


def test_report_reads_verdict_columns_by_name(tmp_path, capsys):
    cfg_path, out = run_to_report(tmp_path, "byname")
    assert main(["report", "--config", str(cfg_path)]) == 0
    series = (out / "plot_series.csv").read_bytes()
    # the same columns in another order give the same plot series
    path = out / "verdicts_active.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("".join(f"{r[2]},{r[0]},{r[1]}\n" for r in rows))
    assert main(["report", "--run-dir", str(out)]) == 0
    assert (out / "plot_series.csv").read_bytes() == series
    # a missing column is a data error naming the file and the column
    path.write_text("".join(f"{r[0]},{r[2]}\n" for r in rows))  # header t,flag
    capsys.readouterr()
    assert main(["report", "--run-dir", str(out)]) == 3
    assert f"{path}: missing column 'p_attack'" in capsys.readouterr().err
