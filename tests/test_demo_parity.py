"""The README flow on configs/demo.json against configs/demo.expected.json.

The artifacts that do not depend on the BLAS kernel numpy selects are
pinned by their sha256; the network's values (its parameters, the loss
history and ``p_attack``) are pinned within ``ATOL``, with every flag and
every other checkpoint entry matched exactly.

A change that moves an output on purpose rewrites the file from a fresh run:

    PYTHONPATH=src python -m fdia_lab.cli simulate --config configs/demo.json --out RUN
    (then train and detect the same way, and report --run-dir RUN)
    PYTHONPATH=src python tests/test_demo_parity.py RUN
"""

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CONFIG = ROOT / "configs" / "demo.json"
EXPECTED = ROOT / "configs" / "demo.expected.json"
ATOL = 1e-12
HASHED = ("trace.csv", "labels.csv", "dataset.csv", "verdicts_passive.csv",
          "verdicts_passive_classic.csv", "verdicts_fused.csv", "metrics.json",
          "manifest.json", "report.json")


def csv_cells(path) -> dict:
    """Each column's cells by name, split as written."""
    names, *rows = path.read_text().splitlines()
    return dict(zip(names.split(","), map(list, zip(*(row.split(",") for row in rows)))))


def floats(cells) -> list:
    return [float(cell) if cell else None for cell in cells]


def record(run_dir: Path) -> dict:
    """What configs/demo.expected.json holds for the run in ``run_dir``."""
    checkpoint = json.loads((run_dir / "checkpoint.json").read_text())
    history = csv_cells(run_dir / "history.csv")
    active = csv_cells(run_dir / "verdicts_active.csv")
    return {
        "sha256": {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
                   for name in HASHED},
        "atol": ATOL,
        "close": {
            "checkpoint.json": {key: checkpoint[key] for key in ("params", "standardizer")},
            "history.csv": {key: floats(history[key]) for key in ("train_loss", "val_loss")},
            "verdicts_active.csv": {"p_attack": floats(active["p_attack"])},
        },
        "exact": {
            "checkpoint.json": {key: value for key, value in checkpoint.items()
                                if key not in ("params", "standardizer")},
            "history.csv": {"epoch": history["epoch"]},
            "verdicts_active.csv": {"t": ",".join(active["t"]),
                                    "flag": "".join(active["flag"])},
        },
    }


def dump(obj) -> str:
    """JSON with sorted keys and every list on one line."""
    lists = []

    def stash(value):
        if isinstance(value, dict):
            return {key: stash(item) for key, item in value.items()}
        if isinstance(value, list):
            lists.append(json.dumps(value))
            return f"<list {len(lists) - 1}>"
        return value

    text = json.dumps(stash(obj), indent=2, sort_keys=True)
    return re.sub(r'"<list (\d+)>"', lambda m: lists[int(m[1])], text) + "\n"


def assert_close(actual, expected, where=""):
    """Nested dicts and lists of numbers equal within ``ATOL``; None is NaN."""
    if isinstance(expected, dict):
        assert sorted(actual) == sorted(expected), where
        for key in expected:
            assert_close(actual[key], expected[key], f"{where}.{key}")
        return
    actual, expected = np.array(actual, dtype=float), np.array(expected, dtype=float)
    assert actual.shape == expected.shape, where
    np.testing.assert_allclose(actual, expected, rtol=0, atol=ATOL, err_msg=where)


def test_demo_run_matches_the_committed_outputs(tmp_path):
    from fdia_lab.cli import main
    for stage in ("simulate", "train", "detect"):
        assert main([stage, "--config", str(CONFIG), "--out", str(tmp_path)]) == 0
    assert main(["report", "--run-dir", str(tmp_path)]) == 0
    expected = json.loads(EXPECTED.read_text())
    actual = record(tmp_path)
    assert actual["sha256"] == expected["sha256"]
    assert actual["exact"] == expected["exact"]
    assert expected["atol"] == ATOL
    assert_close(actual["close"], expected["close"])


if __name__ == "__main__":
    EXPECTED.write_text(dump(record(Path(sys.argv[1]))))
