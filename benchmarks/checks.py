"""Output invariants of each CLI stage, and the digest of a pass's artifacts.

The checks test invariants, not golden values, so that intended changes to
the numbers (for example an honest classifier) do not count as failures.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

VARIANT_KEYS = ("improved_akf", "classic_akf", "gru_cnn", "fused")
PASSIVE_KEYS = ("improved_akf", "classic_akf", "fused")


def _columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="") as f:
        header, *rows = list(csv.reader(f))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _check_simulate(run: Path, n: int, warmup: int, full: bool) -> list[str]:
    problems = []
    for name in ("trace.csv", "labels.csv"):
        rows = len(_columns(run / name)["t"])
        if rows != n:
            problems.append(f"{name} has {rows} ticks, configured n is {n}")
    return problems


def _check_train(run: Path, n: int, warmup: int, full: bool) -> list[str]:
    params = json.loads((run / "checkpoint.json").read_text()).get("params")
    return [] if params else ["checkpoint.json holds no parameters"]


def _check_detect(run: Path, n: int, warmup: int, full: bool) -> list[str]:
    problems = []
    fused = _columns(run / "verdicts_fused.csv")
    active = _columns(run / "verdicts_active.csv")
    if len(fused["t"]) != n or fused["t"] != active["t"]:
        problems.append("fused and active verdicts do not cover the same n ticks")
    for t, residual, classifier, flag in zip(fused["t"], fused["flag_N"],
                                             active["flag"], fused["flag_fused"]):
        if (flag == "1") != (residual == "1" or classifier == "1"):
            problems.append(f"tick {t}: fused flag {flag} is not residual "
                            f"{residual} OR classifier {classifier}")
            break
    streams = [("verdicts_fused.csv flag_N", fused["t"], fused["flag_N"])]
    for path in sorted(run.glob("verdicts_passive*.csv")):
        cols = _columns(path)
        streams.append((path.name, cols["t"], cols["flag"]))
    for name, ticks, flags in streams:
        early = [t for t, f in zip(ticks, flags) if f == "1" and int(t) < warmup]
        if early:
            problems.append(f"{name}: passive flag at tick {early[0]} inside "
                            f"the {warmup}-tick warm-up")
    metrics = json.loads((run / "metrics.json").read_text())
    missing = [k for k in (VARIANT_KEYS if full else PASSIVE_KEYS) if k not in metrics]
    if missing:
        problems.append(f"metrics.json lacks {', '.join(missing)}")
    return problems


def _check_report(run: Path, n: int, warmup: int, full: bool) -> list[str]:
    table = json.loads((run / "report.json").read_text())["table"]
    missing = [k for k in VARIANT_KEYS if k not in table]
    return [f"report.json lacks {', '.join(missing)}"] if missing else []


CHECKS = {"simulate": _check_simulate, "train": _check_train,
          "detect": _check_detect, "report": _check_report}


def check_stage(argv, run_dir, n: int, warmup: int) -> list[str]:
    """Problems with the artifacts one CLI stage call left in ``run_dir``."""
    check = CHECKS[argv[0]]
    try:
        return check(Path(run_dir), n, warmup, "--passive-only" not in argv)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"{argv[0]} artifacts unreadable: {type(exc).__name__}: {exc}"]


def digest(run_dirs) -> str:
    """SHA-256 over every file of the run directories, in a fixed order."""
    h = hashlib.sha256()
    for run_dir in run_dirs:
        root = Path(run_dir)
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            data = path.read_bytes()
            h.update(f"{run_dir}/{path.relative_to(root)}\0{len(data)}\0".encode())
            h.update(data)
    return h.hexdigest()
