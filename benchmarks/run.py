"""fdia-lab benchmark: run one workload and print its metrics.

    python3 benchmarks/run.py --workload demo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a child process
(``worker.py``) with the BLAS threads capped, so that its set-up and peak
memory are its own. Scratch files live under ``.benchwork/`` in the
checkout and are removed afterwards, except the span files of traced runs.
The last line of standard output is the result; the line before it holds
informational fields (artifact digest, machine, tail percentile, ...).
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones. Exits 2 when the checkout has no ``src/fdia_lab``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from tracing import PER_LAYER

WORKLOAD_NAMES = ("demo", "long-trace", "sweep")
ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 2
CHILD_TIMEOUT_S = 170

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("detect_ticks_per_s", "1/s"),
    ("scenario_p50_ms", "ms"),
    ("scenario_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines())
               for p in (root / "src" / "fdia_lab").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one fdia-lab benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fdia_lab" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/fdia_lab to benchmark", file=sys.stderr)
        return 2

    scratch = ROOT / ".benchwork"
    spans = scratch / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    spans.unlink(missing_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads, PYTHONHASHSEED="0")
    command = [sys.executable, str(Path(__file__).with_name("worker.py")),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        command += ["--spans", str(spans)]
    try:
        child = subprocess.run(command, cwd=work, env=env, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload {args.workload} ran past {CHILD_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if child.returncode != 0:
        print(f"error: workload {args.workload} exited {child.returncode}", file=sys.stderr)
        return 1

    report = json.loads(child.stdout.strip().splitlines()[-1])
    raw = report["metrics"]
    units = PER_LAYER if args.trace else END_TO_END
    info = dict(report["info"], nproc=len(os.sched_getaffinity(0)), blas_threads=BLAS_THREADS,
                machine=platform.machine(), git_sha=git_sha(ROOT),
                source_lines=source_lines(ROOT))
    if args.trace:
        info["spans_file"] = str(spans.relative_to(ROOT))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": raw[name], "unit": unit} for name, unit in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
