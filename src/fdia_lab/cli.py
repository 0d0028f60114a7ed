"""Batch experiment runner: simulate, train, detect, report.

Each subcommand takes a JSON experiment config (see README for the
schema) and writes deterministic artifacts into the run directory: the
files (with each CSV file's header) and ``metrics.json`` entries that
``STAGES`` lists for each stage, ``manifest.json``, and ``report.json``
(built by ``report`` from ``metrics.json`` alone). A stage's ``cmd_*``
function only computes; ``run_stage`` clears, writes and records it.
Identical configs produce byte-identical artifacts.

Exit codes: 0 success, 2 config error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import akf, attack, evaluation, fusion, passive_detect
from .data_pipeline import (RawDataset, apply_standardizer, cks_oversample,
                            fit_standardizer, impute_mean, read_dataset_csv, split, window)
from .errors import ConfigError, DataError, NumericalError
from .io_utils import (REQUIRED, finite_number, fmt_column, read_csv, read_fields, read_json,
                       write_columns, write_json)
from .nn import (NETWORK_RULES, NetworkConfig, TrainConfig, load_checkpoint,
                 predict_proba, save_checkpoint, train)
from .signal_model import SignalParams, SignalState, Trace, observation_rows, simulate

# detect's named columns: t, the tick; per filter (N improved, C classic) d_
# the Euclidean deviation, r_ the residual metric, flag_ the residual
# channel's flags and union_ those of either channel; the classifier's
# p_attack and flag_GC; and flag_fused.
# metrics.json row -> the column of flags it scores
DETECTORS = {"improved_akf": "flag_N", "classic_akf": "flag_C", "gru_cnn": "flag_GC",
             "fused": "flag_fused"}
# stage -> (its input files, keyed by the option that overrides each; its own
# files, each CSV file as {header field: named column} and each JSON file as
# {}; its metrics.json entries), each stage after those whose files it reads.
# A stage writes each of its CSV files whose columns it has.
STAGES = {
    "simulate": ({}, {"trace.csv": {"t": "t", "x1": "x1", "x2": "x2", "z": "z"},
                      "labels.csv": {"t": "t", "label": "label"},
                      "dataset.csv": {"t": "t", "z": "z", "label": "label"}}, ()),
    "train": ({"dataset": "dataset.csv"},
              {"checkpoint.json": {}, "history.csv": {"epoch": "epoch", "train_loss": "train_loss",
                                                      "val_loss": "val_loss"}},
              ("gru_cnn_holdout",)),
    "detect": ({"trace": "trace.csv", "labels": "labels.csv", "checkpoint": "checkpoint.json"},
               {"verdicts_passive.csv": {"t": "t", "euclidean_d": "d_N", "residual_r": "r_N",
                                         "flag": "union_N"},
                "verdicts_active.csv": {"t": "t", "p_attack": "p_attack", "flag": "flag_GC"},
                "verdicts_fused.csv": {"t": "t", "r_N": "r_N", "flag_N": "flag_N",
                                       "flag_GC": "flag_GC", "flag_fused": "flag_fused"},
                "verdicts_passive_classic.csv": {"t": "t", "euclidean_d": "d_C",
                                                 "residual_r": "r_C", "flag": "union_C"}},
               DETECTORS)}
# stage -> {its option that sets a config key: (the key, the option's help)}
OVERRIDES = {"simulate": {"seed": ("signal.seed", "override the signal seed")},
             "train": {"epochs": ("network.train.epochs", "override the configured epoch count"),
                       "seed": ("network.train.seed", "override the training seed")}}
# metrics.json row field -> whether report accepts its value; MetricsReport's floats are finite
ROW_KINDS = {name: finite_number for name, t in get_type_hints(evaluation.MetricsReport).items()
             if t is float} | {"latency_ticks": lambda v: v is None or (type(v) is int and v >= 0)}


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    outputs: Path
    signal: SignalParams
    initial: SignalState
    n: int
    scenario: attack.AttackScenario
    forgetting: float
    threshold_k: float
    warmup: int
    network: NetworkConfig
    train: TrainConfig
    k_clusters: int
    train_fraction: float
    pipeline_seed: int


def _dataclass_rows(section: str, cls, **rules) -> dict:
    """SCHEMA rows for the fields of ``cls`` that have a default: the field's
    type and default, and the rule given for it."""
    kinds = get_type_hints(cls)
    return {f"{section}.{f.name}": (kinds[f.name], f.default, rules.get(f.name))
            for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


_POSITIVE = (lambda v: v > 0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")
_FRACTION = (lambda v: 0 < v < 1, "must lie strictly in (0, 1)")
# akf.config_for_sinusoid squares each sigma
_SIGMA = (lambda v: v >= 0 and finite_number(v * v), "must be non-negative with a finite square")
_MIN_WARMUP = passive_detect.SETTLE_TICKS + passive_detect.MIN_CALIBRATION_SAMPLES

# section.key -> (type, default, rule), each section read by
# io_utils.read_fields; a default of None leaves a key that is absent or null
# to its dataclass's own default (None). _dataclass_rows takes the signal
# noise and seed rows and the network rows from SignalParams, NetworkConfig
# and TrainConfig, and the dimension and dropout rules from NETWORK_RULES,
# which load_checkpoint applies too; the feature-map rule stays in
# NetworkConfig, and the attack's pairing rules in AttackScenario.
SCHEMA = {
    "outputs": (Path, REQUIRED, None),
    "signal.omega": (float, REQUIRED, _POSITIVE),
    **_dataclass_rows("signal", SignalParams, sigma_process=_SIGMA, sigma_meas=_SIGMA),
    "signal.initial": (list, [1.0, 0.0], (lambda v: len(v) == 2 and all(map(finite_number, v)),
                                          "must list two finite numbers")),
    "signal.n": (int, REQUIRED, _AT_LEAST_1),
    "attack.kind": (attack.AttackKind, REQUIRED, None),
    "attack.onset": (int, REQUIRED, None),
    "attack.duration": (int, REQUIRED, _AT_LEAST_1),
    "attack.amplitude": (float, None, None),
    "attack.sinusoid_omega": (float, None, None),
    "attack.fraction": (float, None, _POSITIVE),
    "attack.period": (int, None, None),
    "attack.duty": (int, None, None),
    "attack.sensors": (list, [True], (
        lambda v: len(v) == 1 and type(v[0]) is bool,
        "must list one boolean per trace sensor, and the trace has one")),
    # criterion 11's config names the variant and the order, so each key
    # stays with one value
    "filter.variant": (str, "improved", (lambda v: v == "improved", "must be 'improved'")),
    "filter.forgetting": (float, 0.98, _FRACTION),
    "thresholds.k": (float, 3.0, _POSITIVE),
    # the thresholds are fitted on the warm-up ticks after the settle ticks
    "thresholds.warmup": (int, 500, (lambda v: v >= _MIN_WARMUP, (
        f"must be at least {_MIN_WARMUP}: {passive_detect.SETTLE_TICKS} settle ticks "
        f"and {passive_detect.MIN_CALIBRATION_SAMPLES} calibration samples"))),
    **_dataclass_rows("network", NetworkConfig, **NETWORK_RULES),
    **_dataclass_rows("network.train", TrainConfig, lr=_POSITIVE, epsilon=_POSITIVE,
                      beta1=_FRACTION, beta2=_FRACTION, batch=_AT_LEAST_1),
    "pipeline.k_clusters": (int, 3, _AT_LEAST_1),
    "pipeline.train_fraction": (float, 0.8, _FRACTION),
    "pipeline.order": (str, "oversample_first", (lambda v: v == "oversample_first",
                                                 "must be 'oversample_first'")),
    "pipeline.seed": (int, 0, None),
}


def _section(raw: dict, name: str) -> dict:
    """The keys of config section ``name`` ("" for the root) that SCHEMA
    reads from it, each read and checked by its row."""
    obj = raw
    for part in name.split(".") if name else ():
        obj = obj.get(part, {})
        if not isinstance(obj, dict):
            raise ConfigError(f"config section '{name}' must be a JSON object")
    prefix = f"{name}." if name else ""
    return read_fields(obj, name, {key[len(prefix):]: row for key, row in SCHEMA.items()
                                   if key.startswith(prefix)})


def _check_phase(key: str, omega: float | None, n: int) -> None:
    """Refuse an angular rate whose phase omega * t overflows on an n-tick trace."""
    if omega is not None and not math.isfinite(omega * (n - 1)):
        raise ConfigError(f"config key '{key}' is {omega!r}: its phase over {n} ticks "
                          "is not finite")


def parse_config(raw: dict, outputs_override: str | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    root = _section(dict(raw, outputs=outputs_override) if outputs_override else raw, "")
    sig = _section(raw, "signal")
    initial = SignalState(*map(float, sig.pop("initial")))
    n = sig.pop("n")
    signal = SignalParams(**sig)
    att = _section(raw, "attack")
    if att["kind"] is attack.AttackKind.RANDOM_SINUSOID:
        att.setdefault("sinusoid_omega", 0.7 * signal.omega)
    _check_phase("signal.omega", signal.omega, n)
    _check_phase("attack.sinusoid_omega", att.get("sinusoid_omega"), n)
    selection = attack.SensorSelection(tuple(att.pop("sensors")))
    filt, th = _section(raw, "filter"), _section(raw, "thresholds")
    pipe = _section(raw, "pipeline")
    return ExperimentConfig(
        raw=raw, outputs=root["outputs"], signal=signal, initial=initial, n=n,
        scenario=attack.AttackScenario(selection=selection, **att),
        forgetting=filt["forgetting"], threshold_k=th["k"], warmup=th["warmup"],
        # the width of the trace; train reads its dataset's own
        network=NetworkConfig(input_dim=1, **_section(raw, "network")),
        train=TrainConfig(**_section(raw, "network.train")),
        k_clusters=pipe["k_clusters"], train_fraction=pipe["train_fraction"],
        pipeline_seed=pipe["seed"],
    )


def run_stage(cfg: ExperimentConfig, stage: str, compute) -> int:
    """Run ``stage`` in the outputs ``out``:
    1. check ``manifest.json``, ``metrics.json`` ({} if absent) and that ``out``
       is no path through a file, then remove ``report.json`` and the outputs
       (files, ``metrics.json`` entries, manifest listing) of ``stage`` and of
       each stage made from them;
    2. ``compute()`` gives its named columns, ``metrics.json`` entries and message;
    3. write the entries, each STAGES CSV file of ``stage`` whose columns it has
       (formatting each column once however many files hold it) and the
       manifest: the config, the seeds and the files ``stage`` wrote;
    4. print the message."""
    out = cfg.outputs
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"outputs {out}: {existing} is not a directory")
    manifest, metrics = (read_json(path) if path.exists() else {}
                         for path in (out / "manifest.json", out / "metrics.json"))
    for key in ("seeds", "artifacts"):
        if not isinstance(manifest.get(key, {}), dict):
            raise DataError(f"{out / 'manifest.json'}: entry '{key}' must be a JSON object")
    cleared, made = [], {"report.json"}
    for name, (inputs, files, _) in STAGES.items():
        if name == stage or not made.isdisjoint(inputs.values()):
            cleared.append(name)
            made.update(files)
    for name in made:
        (out / name).unlink(missing_ok=True)
    if not manifest.get("artifacts", {}).keys().isdisjoint(cleared):
        manifest["artifacts"] = {key: value for key, value in manifest["artifacts"].items()
                                 if key not in cleared}
        write_json(out / "manifest.json", manifest)
    stale = {key for name in cleared for key in STAGES[name][2]}
    if not metrics.keys().isdisjoint(stale):
        metrics = {key: value for key, value in metrics.items() if key not in stale}
        write_json(out / "metrics.json", metrics)
    out.mkdir(parents=True, exist_ok=True)

    columns, entries, message = compute()
    _, files, keys = STAGES[stage]
    if keys:
        write_json(out / "metrics.json", metrics | entries)
    written = {name: fields for name, fields in files.items()
               if fields and set(fields.values()) <= columns.keys()}
    needed = dict.fromkeys(name for fields in written.values() for name in fields.values())
    cells = {name: fmt_column(columns[name]) for name in needed}
    for file, fields in written.items():
        write_columns(out / file, list(fields), [cells[name] for name in fields.values()])
    manifest["config"] = cfg.raw
    manifest.setdefault("seeds", {}).update(
        signal=cfg.signal.seed, train=cfg.train.seed, pipeline=cfg.pipeline_seed)
    own = [name for name in files if (out / name).exists()]
    manifest.setdefault("artifacts", {})[stage] = sorted(own + (["metrics.json"] if keys else []))
    write_json(out / "manifest.json", manifest)
    print(message)
    return 0


def cmd_simulate(cfg: ExperimentConfig) -> tuple[dict, dict, str]:
    trace = simulate(cfg.signal, cfg.initial, cfg.n)
    z_attacked, active = attack.inject_series(trace.z, cfg.scenario, trace.ticks)
    return ({"t": trace.ticks, "x1": trace.states[:, 0], "x2": trace.states[:, 1],
             "z": z_attacked, "label": active}, {},
            f"simulate: wrote {cfg.n} samples to {cfg.outputs}")


def _prepared_splits(cfg: ExperimentConfig, dataset: RawDataset):
    """impute -> oversample -> split -> standardize -> window."""
    data = cks_oversample(impute_mean(dataset), cfg.k_clusters, cfg.pipeline_seed)
    train_d, test_d = split(data, cfg.train_fraction, cfg.pipeline_seed)
    std = fit_standardizer(train_d.values)
    length = cfg.network.window_len
    train_w, train_y = window(apply_standardizer(std, train_d.values),
                              train_d.labels, length)
    test_w, test_y = window(apply_standardizer(std, test_d.values),
                            test_d.labels, length)
    return std, train_w, train_y, test_w, test_y


def cmd_train(cfg: ExperimentConfig, dataset_path) -> tuple[dict, dict, str]:
    dataset = read_dataset_csv(dataset_path)
    network = dataclasses.replace(cfg.network, input_dim=len(dataset.columns))
    try:
        std, train_w, train_y, test_w, test_y = _prepared_splits(cfg, dataset)
    except DataError as exc:
        raise DataError(f"{dataset_path}: {exc}") from exc
    net, history = train(train_w, train_y, network, cfg.train,
                         val_windows=test_w, val_labels=test_y)

    # the last validation pass already scored the holdout with this network
    probs = history.val_probs if history.val_probs is not None else predict_proba(net, test_w)
    holdout = evaluation.score(probs[:, 1] > probs[:, 0], test_y.astype(bool))

    save_checkpoint(net, cfg.outputs / "checkpoint.json", std)
    # History rows are (epoch, train_loss, val_loss); zero epochs make none
    return (dict(zip(("epoch", "train_loss", "val_loss"), list(zip(*history)) or [()] * 3)),
            {"gru_cnn_holdout": holdout},
            f"train: {len(train_w)} train / {len(test_w)} test windows, "
            f"holdout accuracy {holdout['accuracy']:.4f}")


def cmd_detect(cfg: ExperimentConfig, trace_path, labels_path, checkpoint_path,
               passive_only: bool) -> tuple[dict, dict, str]:
    simulated = STAGES["simulate"][1]
    _, ticks, x1, x2, z = read_csv(trace_path, list(simulated["trace.csv"]))
    trace = Trace(ticks=ticks, states=np.column_stack([x1, x2]), z=z)
    *_, labels = read_csv(labels_path, list(simulated["labels.csv"]))
    n = len(trace)
    if len(labels) != n:
        raise DataError(f"{labels_path} has {len(labels)} rows, {trace_path} {n}")
    label_flags = labels.astype(bool)
    onsets = np.flatnonzero(labels)
    onset = int(onsets[0]) if len(onsets) else None
    if onset is not None and onset < cfg.warmup:
        raise DataError(f"{labels_path}: tick {onset} is labelled attacked, inside the "
                        f"{cfg.warmup}-tick warm-up the thresholds are fitted on")

    # the improved filter drives the passive and fused paths and must not fail
    # numerically; the classic filter, run alongside for the comparison table,
    # is recorded as diverged if it does. Each filter's row scores the stream
    # the fusion rule consumes: its residual-channel decision.
    _check_phase("signal.omega", cfg.signal.omega, n)
    obs_rows = observation_rows(trace.ticks, cfg.signal.omega)
    filter_cfg = akf.config_for_sinusoid(cfg.signal, float(trace.z[0]),
                                         forgetting=cfg.forgetting)
    columns, entries = {"t": trace.ticks}, {}
    for variant, tag in ((akf.Variant.IMPROVED, "N"), (akf.Variant.CLASSIC, "C")):
        try:
            v = passive_detect.detect_stream(akf.run(trace, filter_cfg, variant, obs_rows),
                                             cfg.warmup, cfg.threshold_k)
        except NumericalError as exc:
            if variant is akf.Variant.IMPROVED:
                raise NumericalError(f"{exc} ({variant.value} filter)") from exc
            entries["classic_akf"] = {"diverged": True, "error": str(exc)}
            continue
        except DataError as exc:
            raise DataError(f"{trace_path}: {exc}") from exc
        columns |= {f"d_{tag}": v.euclidean_d, f"r_{tag}": v.residual_r,
                    f"flag_{tag}": v.residual_flag, f"union_{tag}": v.flag}

    # the classifier scores and flags only the ticks that end one of its windows
    columns |= {"p_attack": np.full(n, np.nan), "flag_GC": np.zeros(n, dtype=bool)}
    if not passive_only:
        if not checkpoint_path.exists():
            raise DataError(f"missing network checkpoint {checkpoint_path}; train first or "
                            "pass --passive-only")
        net, std = load_checkpoint(checkpoint_path)
        if net.config.input_dim != 1:
            raise ConfigError(f"checkpoint expects {net.config.input_dim} features; trace "
                              "detection provides 1")
        length = net.config.window_len
        if n < length:
            raise DataError(f"{trace_path}: trace of {n} ticks is shorter than window {length}")
        windows_, ends = window(apply_standardizer(std, trace.z[:, None]), trace.ticks, length)
        probs = predict_proba(net, windows_)
        columns["p_attack"][ends] = probs[:, 1]
        columns["flag_GC"][ends] = probs[:, 1] > probs[:, 0]

    # the residual flags are already false before the warm-up ends (the
    # threshold does not exist yet), so there only the classifier contributes
    columns["flag_fused"] = fusion.fuse(columns["flag_N"], columns["flag_GC"])
    entries |= {key: evaluation.score(columns[name], label_flags, onset)
                for key, name in DETECTORS.items()
                if name in columns and not (passive_only and name == "flag_GC")}

    # the runner writes the files once the classifier is done, so the cells of
    # the columns several files share never live through it
    return (columns, entries,
            f"detect: fused flag rate {float(columns['flag_fused'].mean()):.4f} over {n} ticks "
            f"({'passive-only' if passive_only else 'passive+active'})")


def cmd_report(run_dir) -> int:
    path = Path(run_dir) / "metrics.json"
    path.with_name("report.json").unlink(missing_ok=True)  # an earlier run's
    metrics_obj = read_json(path)
    absent = [key for key in DETECTORS if key not in metrics_obj]
    if absent:
        hint = " without --passive-only" if absent == ["gru_cnn"] else ""
        raise DataError(f"metrics.json lacks entries for: {', '.join(absent)} "
                        f"(run detect{hint})")
    table = {key: metrics_obj[key] for key in DETECTORS}
    for key, row in table.items():
        if not isinstance(row, dict):
            raise DataError(f"{path}: entry '{key}' must be a JSON object")
        bad = [name for name, valid in ROW_KINDS.items() if not valid(row.get(name))]
        if bad and not row.get("diverged"):
            raise DataError(f"{path}: entry '{key}' has no valid '{bad[0]}'")
    write_json(path.with_name("report.json"), {"table": table})

    print(f"{'variant':<14} {'accuracy':>9} {'precision':>10} {'recall':>8} "
          f"{'f1':>8} {'latency':>8}")
    for key, row in table.items():
        if row.get("diverged"):
            print(f"{key:<14} {'diverged':>9}")
            continue
        latency = row.get("latency_ticks")
        print(f"{key:<14} {row['accuracy']:>9.4f} {row['precision']:>10.4f} "
              f"{row['recall']:>8.4f} {row['f1']:>8.4f} "
              f"{latency if latency is not None else '-':>8}")
    return 0


def _stage_parser(sub, stage: str, help: str) -> argparse.ArgumentParser:
    """``stage``'s subcommand: --config, an option per input file, --out, its OVERRIDES."""
    parser = sub.add_parser(stage, help=help)
    parser.add_argument("--config", required=True)
    for option, name in STAGES[stage][0].items():
        parser.add_argument(f"--{option}", help=f"input file (default: <outputs>/{name})")
    parser.add_argument("--out", help="override the outputs directory")
    for option, (_, text) in OVERRIDES.get(stage, {}).items():
        parser.add_argument(f"--{option}", type=int, help=text)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and then shared."""
    parser = argparse.ArgumentParser(
        prog="fdia-lab", description="Simulate, attack, detect, and evaluate FDIA scenarios.")
    sub = parser.add_subparsers(dest="command", required=True)

    _stage_parser(sub, "simulate", "generate an attacked trace and labels")
    _stage_parser(sub, "train", "train the classifier on a labeled dataset")
    det = _stage_parser(sub, "detect", "run passive + active detection on a trace")
    det.add_argument("--passive-only", action="store_true", help="skip the classifier path")

    rep = sub.add_parser("report", help="consolidate a finished run")
    rep.add_argument("--config")
    rep.add_argument("--run-dir", help="run directory (default: config outputs)")
    return parser


def _apply_overrides(raw: dict, args) -> dict:
    """``raw`` with the key of each OVERRIDES option given set. A key whose
    section is not a JSON object is left for parse_config to refuse the section."""
    for option, (key, _) in OVERRIDES.get(args.command, {}).items():
        if getattr(args, option) is None:
            continue
        *sections, field = key.split(".")
        obj = raw
        for part in sections:
            obj = obj.setdefault(part, {}) if isinstance(obj, dict) else None
        if isinstance(obj, dict):
            obj[field] = getattr(args, option)
    return raw


def run_command(args) -> int:
    if args.command == "report" and args.run_dir:
        return cmd_report(args.run_dir)
    if not args.config:
        raise ConfigError("report needs --config or --run-dir")
    raw = read_json(args.config, ConfigError)
    cfg = parse_config(_apply_overrides(raw, args), getattr(args, "out", None))

    if args.command == "report":
        return cmd_report(cfg.outputs)
    # argparse admits only the four commands; an input not given is read from
    # the run directory
    inputs = [Path(getattr(args, option) or cfg.outputs / name)
              for option, name in STAGES[args.command][0].items()]
    if args.command == "detect":
        inputs.append(args.passive_only)
    compute = {"simulate": cmd_simulate, "train": cmd_train, "detect": cmd_detect}[args.command]
    return run_stage(cfg, args.command, functools.partial(compute, cfg, *inputs))


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
