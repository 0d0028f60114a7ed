"""Batch experiment runner: simulate, train, detect, report.

Each subcommand takes a JSON experiment config (see README for the
schema) and writes deterministic artifacts into the run directory:
``manifest.json``, ``trace.csv``, ``labels.csv``, ``dataset.csv``,
``verdicts_{passive,active,fused}.csv``, ``metrics.json``,
``checkpoint.json``, ``history.csv``, ``report.json``,
``plot_series.csv``. Identical configs produce byte-identical artifacts.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import akf, attack, evaluation, passive_detect
from .data_pipeline import (RawDataset, apply_standardizer, cks_oversample,
                            fit_standardizer, impute_mean, read_dataset_csv, split,
                            window, write_dataset_csv)
from .errors import ConfigError, DataError, NumericalError
from .io_utils import (config_dataclass, config_value as _get, finite_float, fmt_column,
                       read_csv, read_json, reject_unknown_keys, write_columns,
                       write_json)
from .nn import (NetworkConfig, TrainConfig, load_checkpoint, predict_proba,
                 save_checkpoint, train, write_history_csv)
from .signal_model import (SignalParams, SignalState, Trace, observation_rows,
                           read_labels_csv, read_trace_csv, simulate,
                           write_labels_csv, write_trace_csv)

VARIANT_KEYS = ("improved_akf", "classic_akf", "gru_cnn", "fused")
ACTIVE_HEADER = ["t", "p_attack", "flag"]
FUSED_HEADER = ["t", "r_N", "flag_N", "flag_GC", "flag_fused"]
PLOT_HEADER = ["t", "euclidean_d", "residual_r", "flag_passive", "p_attack",
               "flag_active", "flag_fused"]


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    outputs: Path
    signal: SignalParams
    initial: SignalState
    n: int
    scenario: attack.AttackScenario
    variant: akf.Variant
    forgetting: float
    threshold_k: float
    warmup: int
    network: NetworkConfig
    train: TrainConfig
    k_clusters: int
    train_fraction: float
    order: str
    pipeline_seed: int


def _section(raw: dict, name: str) -> dict:
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"config section '{name}' must be a JSON object")
    return value


def _state(value) -> SignalState:
    return SignalState(*map(finite_float, value))


def parse_config(raw: dict, outputs_override: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    reject_unknown_keys(raw, "", ("outputs", "signal", "attack", "filter", "thresholds",
                                  "network", "pipeline"))
    outputs = Path(outputs_override) if outputs_override else _get(raw, "", "outputs", Path)

    sig = _section(raw, "signal")
    reject_unknown_keys(sig, "signal", ("omega", "sigma_process", "sigma_meas", "seed",
                                        "initial", "n"))
    signal = SignalParams(
        omega=_get(sig, "signal", "omega", float),
        sigma_process=_get(sig, "signal", "sigma_process", float, 0.0),
        sigma_meas=_get(sig, "signal", "sigma_meas", float, 0.0),
        seed=_get(sig, "signal", "seed", int, 0),
    )
    initial = _get(sig, "signal", "initial", _state, [1.0, 0.0])
    n = _get(sig, "signal", "n", int)

    att = dict(_section(raw, "attack"))
    if att.get("kind") == "random_sinusoid" and "sinusoid_omega" not in att:
        att["sinusoid_omega"] = 0.7 * signal.omega
    att.setdefault("sensors", [True])
    scenario = attack.scenario_from_json(att)

    filt = _section(raw, "filter")
    reject_unknown_keys(filt, "filter", ("variant", "forgetting"))
    th = _section(raw, "thresholds")
    reject_unknown_keys(th, "thresholds", ("k", "warmup"))
    net_raw = dict(_section(raw, "network"))
    train_raw = net_raw.pop("train", {})
    if not isinstance(train_raw, dict):
        raise ConfigError("config section 'network.train' must be a JSON object")
    net_raw.setdefault("input_dim", 1)
    network = config_dataclass(net_raw, "network", NetworkConfig)
    train_cfg = config_dataclass(train_raw, "network.train", TrainConfig,
                                 window_len=network.window_len)

    pipe = _section(raw, "pipeline")
    reject_unknown_keys(pipe, "pipeline", ("k_clusters", "train_fraction", "order", "seed"))
    order = _get(pipe, "pipeline", "order", str, "oversample_first")
    if order not in ("oversample_first", "split_first"):
        raise ConfigError(
            f"pipeline order must be 'oversample_first' or 'split_first', got '{order}'")

    return ExperimentConfig(
        raw=raw, outputs=outputs, signal=signal, initial=initial, n=n,
        scenario=scenario, variant=_get(filt, "filter", "variant", akf.Variant, "improved"),
        forgetting=_get(filt, "filter", "forgetting", float, 0.98),
        threshold_k=_get(th, "thresholds", "k", float, 3.0),
        warmup=_get(th, "thresholds", "warmup", int, 500),
        network=network, train=train_cfg,
        k_clusters=_get(pipe, "pipeline", "k_clusters", int, 3),
        train_fraction=_get(pipe, "pipeline", "train_fraction", float, 0.8),
        order=order, pipeline_seed=_get(pipe, "pipeline", "seed", int, 0),
    )


def _update_manifest(cfg: ExperimentConfig, command: str, artifacts: list[str]) -> None:
    path = cfg.outputs / "manifest.json"
    manifest = read_json(path) if path.exists() else {}
    manifest["config"] = cfg.raw
    manifest.setdefault("seeds", {})
    manifest["seeds"].update({
        "signal": cfg.signal.seed,
        "train": cfg.train.seed,
        "pipeline": cfg.pipeline_seed,
    })
    manifest.setdefault("artifacts", {})[command] = sorted(artifacts)
    write_json(path, manifest)


def _merge_metrics(cfg: ExperimentConfig, entries: dict) -> None:
    path = cfg.outputs / "metrics.json"
    merged = read_json(path) if path.exists() else {}
    merged.update(entries)
    write_json(path, merged)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    cfg.outputs.mkdir(parents=True, exist_ok=True)
    trace = simulate(cfg.signal, cfg.initial, cfg.n)
    z_attacked, active = attack.inject_series(trace.z, cfg.scenario, trace.ticks)

    # the ticks, z and label columns go into several files: format each once
    ticks, z, labels = map(fmt_column, (trace.ticks, z_attacked, active))
    write_trace_csv(ticks, trace.states, z, cfg.outputs / "trace.csv")
    write_labels_csv(ticks, labels, cfg.outputs / "labels.csv")
    write_dataset_csv(ticks, {"z": z}, labels, cfg.outputs / "dataset.csv")
    _update_manifest(cfg, "simulate", ["trace.csv", "labels.csv", "dataset.csv"])
    print(f"simulate: wrote {cfg.n} samples to {cfg.outputs}")
    return 0


def _prepared_splits(cfg: ExperimentConfig, dataset: RawDataset):
    """impute -> oversample/split (per configured order) -> standardize -> window."""
    data = impute_mean(dataset)
    if cfg.order == "oversample_first":
        data = cks_oversample(data, cfg.k_clusters, cfg.pipeline_seed)
        train_d, test_d = split(data, cfg.train_fraction, cfg.pipeline_seed)
    else:
        train_d, test_d = split(data, cfg.train_fraction, cfg.pipeline_seed)
        train_d = cks_oversample(train_d, cfg.k_clusters, cfg.pipeline_seed)
    std = fit_standardizer(train_d.values)
    length = cfg.network.window_len
    train_w, train_y = window(apply_standardizer(std, train_d.values),
                              train_d.labels, length)
    test_w, test_y = window(apply_standardizer(std, test_d.values),
                            test_d.labels, length)
    return std, train_w, train_y, test_w, test_y


def cmd_train(cfg: ExperimentConfig, dataset_path) -> int:
    cfg.outputs.mkdir(parents=True, exist_ok=True)
    dataset = read_dataset_csv(dataset_path)
    if len(dataset.columns) != cfg.network.input_dim:
        raise ConfigError(
            f"dataset has {len(dataset.columns)} features but the network is "
            f"configured for input_dim={cfg.network.input_dim}"
        )
    std, train_w, train_y, test_w, test_y = _prepared_splits(cfg, dataset)
    net, history = train(train_w, train_y, cfg.network, cfg.train,
                         val_windows=test_w, val_labels=test_y)

    # the last validation pass already scored the holdout with this network
    probs = history.val_probs if history.val_probs is not None else predict_proba(net, test_w)
    preds = probs[:, 1] > probs[:, 0]
    report = evaluation.metrics(evaluation.confusion(preds, test_y.astype(bool)))

    save_checkpoint(net, cfg.outputs / "checkpoint.json", std)
    write_history_csv(history, cfg.outputs / "history.csv")
    _merge_metrics(cfg, {"gru_cnn_holdout": evaluation.report_dict(report)})
    _update_manifest(cfg, "train", ["checkpoint.json", "history.csv", "metrics.json"])
    print(f"train: {len(train_w)} train / {len(test_w)} test windows, "
          f"holdout accuracy {report.accuracy:.4f}")
    return 0


def _passive_channel(trace: Trace, cfg: ExperimentConfig, variant: akf.Variant,
                     obs_rows: np.ndarray) -> passive_detect.PassiveVerdicts:
    """Run one filter variant and compute its calibrated passive verdicts
    (both channels, armed after the warm-up; ``residual_flag`` feeds the
    fusion rule)."""
    filter_cfg = akf.config_for_sinusoid(cfg.signal, float(trace.z[0]),
                                         forgetting=cfg.forgetting)
    run = akf.run(trace, filter_cfg, variant, obs_rows)
    euclid_th, resid_th = passive_detect.calibrate_channels(
        run, trace.z, obs_rows, warmup=cfg.warmup, k=cfg.threshold_k)
    return passive_detect.evaluate_stream(run, trace.z, obs_rows, euclid_th,
                                          resid_th, armed_from=cfg.warmup)


def _metrics_entry(flags, labels, onset):
    report = evaluation.metrics(evaluation.confusion(flags, labels))
    latency = None
    if onset is not None:
        latency = evaluation.detection_latency(flags, onset)
    return evaluation.report_dict(report, latency)


def cmd_detect(cfg: ExperimentConfig, trace_path, labels_path, checkpoint_path,
               passive_only: bool) -> int:
    cfg.outputs.mkdir(parents=True, exist_ok=True)
    trace = read_trace_csv(trace_path)
    label_ticks, labels = read_labels_csv(labels_path)
    if len(labels) != len(trace):
        raise DataError(f"{labels_path} has {len(labels)} rows, {trace_path} {len(trace)}")
    # labels line up with the trace, whose ticks set the filter's observation phase
    for path, ticks in ((trace_path, trace.ticks), (labels_path, label_ticks)):
        off = np.flatnonzero(ticks != np.arange(len(ticks)))
        if len(off):
            raise DataError(f"{path}: row {off[0] + 1} has tick {ticks[off[0]]}, expected "
                            f"{off[0]}; detect needs ticks 0..n-1")
    label_flags = labels.astype(bool)
    onsets = np.flatnonzero(labels)
    onset = int(onsets[0]) if len(onsets) else None

    # the configured variant drives the passive and fused paths; the other
    # variant is run alongside for the comparison table. The table rows hold
    # exactly the streams the fusion rule consumes: each filter's
    # residual-channel decision.
    key_of = {akf.Variant.IMPROVED: "improved_akf",
              akf.Variant.CLASSIC: "classic_akf"}
    other = (akf.Variant.CLASSIC if cfg.variant is akf.Variant.IMPROVED
             else akf.Variant.IMPROVED)
    obs_rows = observation_rows(trace.ticks, cfg.signal.omega)
    verdicts = _passive_channel(trace, cfg, cfg.variant, obs_rows)
    entries = {key_of[cfg.variant]: _metrics_entry(verdicts.residual_flag,
                                                   label_flags, onset)}
    try:
        other_verdicts = _passive_channel(trace, cfg, other, obs_rows)
        entries[key_of[other]] = _metrics_entry(other_verdicts.residual_flag,
                                                label_flags, onset)
    except NumericalError as exc:
        other_verdicts = None
        entries[key_of[other]] = {"diverged": True, "error": str(exc)}

    n = len(trace)
    active_flags = np.zeros(n, dtype=bool)
    p_attack = np.full(n, np.nan)
    if not passive_only:
        checkpoint_path = Path(checkpoint_path)
        if not checkpoint_path.exists():
            raise DataError(
                f"missing network checkpoint {checkpoint_path}; train first or "
                f"pass --passive-only"
            )
        net, std = load_checkpoint(checkpoint_path)
        if net.config.input_dim != 1:
            raise ConfigError(
                f"checkpoint expects {net.config.input_dim} features; trace "
                f"detection provides 1"
            )
        length = net.config.window_len
        if n < length:
            raise DataError(f"trace of {n} ticks is shorter than window {length}")
        values = apply_standardizer(std, trace.z[:, None])
        windows_, _ = window(values, np.zeros(n, dtype=int), length)
        probs = predict_proba(net, windows_)
        p_attack[length - 1:] = probs[:, 1]
        active_flags[length - 1:] = probs[:, 1] > probs[:, 0]
        entries["gru_cnn"] = _metrics_entry(active_flags, label_flags, onset)

    # fused = residual decision OR classifier flag; the residual flags are
    # already false before the warm-up ends (the threshold does not exist
    # yet), so there only the classifier contributes
    fused_flags = verdicts.residual_flag | active_flags
    entries["fused"] = _metrics_entry(fused_flags, label_flags, onset)

    # the files are written once the classifier is done, so the cells of the
    # columns several files share (each formatted once) never live through it
    ticks, residual_r, flag_gc = map(fmt_column, (verdicts.t, verdicts.residual_r,
                                                  active_flags))
    passive_detect.write_verdicts_csv(ticks, verdicts.euclidean_d, residual_r, verdicts.flag,
                                      cfg.outputs / "verdicts_passive.csv")
    if other_verdicts is not None:
        passive_detect.write_verdicts_csv(
            ticks, other_verdicts.euclidean_d, other_verdicts.residual_r,
            other_verdicts.flag, cfg.outputs / f"verdicts_passive_{other.value}.csv")
    write_columns(cfg.outputs / "verdicts_active.csv", ACTIVE_HEADER,
                  [ticks, p_attack, flag_gc])
    write_columns(cfg.outputs / "verdicts_fused.csv", FUSED_HEADER,
                  [ticks, residual_r, verdicts.residual_flag, flag_gc, fused_flags])

    _merge_metrics(cfg, entries)
    artifacts = ["verdicts_passive.csv", f"verdicts_passive_{other.value}.csv",
                 "verdicts_active.csv", "verdicts_fused.csv", "metrics.json"]
    _update_manifest(cfg, "detect", artifacts)
    flag_rate = float(fused_flags.mean())
    print(f"detect: fused flag rate {flag_rate:.4f} over {n} ticks "
          f"({'passive-only' if passive_only else 'passive+active'})")
    return 0


def _named_columns(path, names) -> list[list[str]]:
    """The cells of the named columns of a CSV file, in the order of
    ``names``; a missing column raises DataError naming file and column."""
    header, rows = read_csv(path)
    for name in names:
        if name not in header:
            raise DataError(f"{path}: missing column '{name}'")
    return [[row[i] for row in rows] for i in map(header.index, names)]


def cmd_report(run_dir) -> int:
    run_dir = Path(run_dir)
    required = ["metrics.json", "verdicts_passive.csv", "verdicts_active.csv",
                "verdicts_fused.csv"]
    missing = [name for name in required if not (run_dir / name).exists()]
    if missing:
        raise DataError(f"incomplete run in {run_dir}; missing: {', '.join(missing)}")
    metrics_obj = read_json(run_dir / "metrics.json")
    absent = [key for key in VARIANT_KEYS if key not in metrics_obj]
    if absent:
        raise DataError(
            f"metrics.json lacks entries for: {', '.join(absent)} "
            f"(run detect without --passive-only)"
        )
    table = {key: metrics_obj[key] for key in VARIANT_KEYS}
    write_json(run_dir / "report.json", {"table": table})

    t, euclidean_d, residual_r, flag_passive = _named_columns(
        run_dir / "verdicts_passive.csv", passive_detect.VERDICTS_HEADER)
    _, p_attack, flag_active = _named_columns(run_dir / "verdicts_active.csv",
                                              ACTIVE_HEADER)
    *_, flag_fused = _named_columns(run_dir / "verdicts_fused.csv", FUSED_HEADER)
    if not (len(t) == len(p_attack) == len(flag_fused)):
        raise DataError("verdict streams have inconsistent lengths")
    write_columns(run_dir / "plot_series.csv", PLOT_HEADER,
                  [t, euclidean_d, residual_r, flag_passive, p_attack, flag_active,
                   flag_fused])

    print(f"{'variant':<14} {'accuracy':>9} {'precision':>10} {'recall':>8} "
          f"{'f1':>8} {'latency':>8}")
    for key in VARIANT_KEYS:
        row = table[key]
        if row.get("diverged"):
            print(f"{key:<14} {'diverged':>9}")
            continue
        latency = row.get("latency_ticks")
        print(f"{key:<14} {row['accuracy']:>9.4f} {row['precision']:>10.4f} "
              f"{row['recall']:>8.4f} {row['f1']:>8.4f} "
              f"{latency if latency is not None else '-':>8}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared."""
    parser = argparse.ArgumentParser(
        prog="fdia-lab",
        description="Simulate, attack, detect, and evaluate FDIA scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate an attacked trace and labels")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, help="override the signal seed")
    sim.add_argument("--out", help="override the outputs directory")

    tr = sub.add_parser("train", help="train the classifier on a labeled dataset")
    tr.add_argument("--config", required=True)
    tr.add_argument("--dataset", help="dataset CSV (default: <outputs>/dataset.csv)")
    tr.add_argument("--epochs", type=int, help="override the configured epoch count")
    tr.add_argument("--seed", type=int, help="override the training seed")
    tr.add_argument("--out", help="override the outputs directory")

    det = sub.add_parser("detect", help="run passive + active detection on a trace")
    det.add_argument("--config", required=True)
    det.add_argument("--trace", help="trace CSV (default: <outputs>/trace.csv)")
    det.add_argument("--labels", help="labels CSV (default: <outputs>/labels.csv)")
    det.add_argument("--checkpoint", help="network checkpoint "
                                          "(default: <outputs>/checkpoint.json)")
    det.add_argument("--passive-only", action="store_true",
                     help="skip the classifier path")
    det.add_argument("--out", help="override the outputs directory")

    rep = sub.add_parser("report", help="consolidate a finished run")
    rep.add_argument("--config")
    rep.add_argument("--run-dir", help="run directory (default: config outputs)")
    return parser


def _apply_overrides(raw: dict, args) -> dict:
    raw = json.loads(json.dumps(raw))  # deep copy
    if getattr(args, "seed", None) is not None:
        if args.command == "simulate":
            raw.setdefault("signal", {})["seed"] = args.seed
        elif args.command == "train":
            raw.setdefault("network", {}).setdefault("train", {})["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        raw.setdefault("network", {}).setdefault("train", {})["epochs"] = args.epochs
    return raw


def run_command(args) -> int:
    if args.command == "report" and args.run_dir:
        return cmd_report(args.run_dir)
    if not args.config:
        raise ConfigError("report needs --config or --run-dir")
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    raw = _apply_overrides(raw, args)
    cfg = parse_config(raw, getattr(args, "out", None))

    if args.command == "report":
        return cmd_report(cfg.outputs)
    if args.command == "simulate":
        return cmd_simulate(cfg)
    if args.command == "train":
        dataset = args.dataset or cfg.outputs / "dataset.csv"
        return cmd_train(cfg, dataset)
    if args.command == "detect":
        trace = args.trace or cfg.outputs / "trace.csv"
        labels = args.labels or cfg.outputs / "labels.csv"
        checkpoint = args.checkpoint or cfg.outputs / "checkpoint.json"
        return cmd_detect(cfg, trace, labels, checkpoint, args.passive_only)
    raise ConfigError(f"unknown command {args.command}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run_command(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
