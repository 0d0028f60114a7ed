"""Workload inputs: one plan of CLI stage calls per workload, made from a seed.

A plan is a list of scenarios. A scenario is one config file, the run
directory it writes, and the CLI stage calls (``fdia_lab.cli.main`` argv
lists) that run on it in order. Paths are relative to the working
directory the worker runs in, so the artifacts (and their digest) do not
depend on where the checkout lives.

The settings start from ``configs/demo.json`` (copied here, so later edits
to that file do not move the benchmark); ``pipeline.order`` and the CLI
``stealthy`` attack kind are never used.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fdia_lab.cli import main as cli_main

DEMO_SETTINGS = {
    "signal": {"omega": 0.3141592653589793, "sigma_process": 0.001,
               "sigma_meas": 0.002, "seed": 7, "n": 3254, "initial": [1.0, 0.0]},
    "attack": {"kind": "fraction_scale", "fraction": 0.05, "onset": 2310,
               "duration": 944, "sensors": [True]},
    "filter": {"variant": "improved", "forgetting": 0.98},
    "thresholds": {"k": 3.0, "warmup": 500},
    "network": {
        "window_len": 16, "hidden": 16, "conv1_kernels": 4, "conv1_size": 3,
        "conv2_kernels": 8, "conv2_size": 3, "pool": 2, "dropout": 0.5,
        "train": {"lr": 0.001, "beta1": 0.9, "beta2": 0.999, "epsilon": 1e-08,
                  "epochs": 6, "batch": 32, "seed": 3},
    },
    "pipeline": {"k_clusters": 3, "train_fraction": 0.8, "seed": 11},
}


@dataclass(frozen=True)
class Scenario:
    config: str
    run_dir: str
    n: int
    warmup: int
    stages: tuple[tuple[str, ...], ...]


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _write_config(name: str, outputs: str, signal: dict, attack: dict,
                  warmup: int, epochs: int | None = None,
                  train_seed: int | None = None,
                  pipeline_seed: int | None = None) -> str:
    raw = copy.deepcopy(DEMO_SETTINGS)
    raw["outputs"] = outputs
    raw["signal"].update(signal)
    raw["attack"] = dict(attack, sensors=[True])
    raw["thresholds"]["warmup"] = warmup
    if epochs is not None:
        raw["network"]["train"]["epochs"] = epochs
    if train_seed is not None:
        raw["network"]["train"]["seed"] = train_seed
    if pipeline_seed is not None:
        raw["pipeline"]["seed"] = pipeline_seed
    path = f"{name}.json"
    Path(path).write_text(json.dumps(raw, indent=2, sort_keys=True) + "\n")
    return path


def demo(seed: int, n: int = 3254, epochs: int = 6, warmup: int = 500,
         onset: int = 2310) -> list[Scenario]:
    """The README flow on the demo settings; only the seeds vary."""
    rng = np.random.default_rng([seed, 0])
    attack = dict(DEMO_SETTINGS["attack"], onset=onset, duration=n - onset)
    config = _write_config("demo", "run", {"seed": _seed(rng), "n": n}, attack,
                           warmup, epochs=epochs, train_seed=_seed(rng),
                           pipeline_seed=_seed(rng))
    return [Scenario(config, "run", n, warmup, tuple(
        (cmd, "--config", config) for cmd in ("simulate", "train", "detect", "report")))]


def _duty_cycled_attack(rng: np.random.Generator, n: int, onset: int,
                        period: int | None = None, duty: int | None = None) -> dict:
    period = period or int(rng.integers(300, 501))
    return {"kind": "fraction_scale", "fraction": float(rng.uniform(0.03, 0.08)),
            "onset": onset, "duration": n - onset, "period": period,
            "duty": duty or int(rng.integers(period // 4, period // 2 + 1))}


def long_trace(seed: int) -> list[Scenario]:
    """One long duty-cycled trace; the classifier checkpoint is trained here
    (1 epoch on a short trace of the same family), outside the timed pass.
    The checkpoint trace's duty cycle is fixed, so the training work (and
    set-up time) does not depend on the seed."""
    n, train_n, warmup = 16000, 3000, 500
    rng = np.random.default_rng([seed, 1])
    train_seed, pipeline_seed = _seed(rng), _seed(rng)
    ckpt = _write_config("checkpoint", "ckpt", {"seed": _seed(rng), "n": train_n},
                         _duty_cycled_attack(rng, train_n, train_n // 3, 400, 150),
                         warmup, epochs=1, train_seed=train_seed,
                         pipeline_seed=pipeline_seed)
    shutil.rmtree("ckpt", ignore_errors=True)
    for argv in (("simulate", "--config", ckpt), ("train", "--config", ckpt)):
        _setup_call(argv)
    config = _write_config("long", "run", {"seed": _seed(rng), "n": n},
                           _duty_cycled_attack(rng, n, int(rng.integers(800, 1201))),
                           warmup)
    return [Scenario(config, "run", n, warmup, (
        ("simulate", "--config", config),
        ("detect", "--config", config, "--checkpoint", "ckpt/checkpoint.json"),
        ("report", "--config", config),
    ))]


def sweep(seed: int) -> list[Scenario]:
    """Many short passive-only scenarios with varied attacks and seeds; each
    trace is twice the warm-up long."""
    scenarios, n, warmup = 50, 1000, 500
    rng = np.random.default_rng([seed, 2])
    plan = []
    for i in range(scenarios):
        onset = int(rng.integers(warmup + 50, warmup + 201))
        if i % 2 == 0:
            attack = {"kind": "fraction_scale",
                      "fraction": float(rng.uniform(0.02, 0.1))}
        else:
            attack = {"kind": "random_sinusoid",
                      "amplitude": float(rng.uniform(0.02, 0.1))}
        attack.update(onset=onset, duration=n - onset)
        if i % 3 != 0:
            period = int(rng.integers(40, 121))
            attack.update(period=period,
                          duty=int(rng.integers(period // 4, 3 * period // 4 + 1)))
        name = f"s{i:03d}"
        config = _write_config(name, f"runs/{name}", {"seed": _seed(rng), "n": n},
                               attack, warmup)
        plan.append(Scenario(config, f"runs/{name}", n, warmup, (
            ("simulate", "--config", config),
            ("detect", "--config", config, "--passive-only"),
        )))
    return plan


def _setup_call(argv: tuple[str, ...]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(list(argv))
    if code != 0:
        raise RuntimeError(f"set-up stage {' '.join(argv)} exited {code}")


WORKLOADS = {"demo": demo, "long-trace": long_trace, "sweep": sweep}
