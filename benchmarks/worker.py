"""One benchmark run of one workload, in its own process.

Started by ``run.py``; prints one JSON line with the counts, the raw
metrics and informational fields. It imports the package from the
checkout's ``src``, builds the workload's inputs in the current directory
and runs an untimed warm-up (the plan's first ``WARM_SCENARIOS``
scenarios), after which it reads the peak memory. Then set-up is repeated
``SETUP_REPS`` times, timed, and timed passes run until ``--seconds`` have
elapsed. Untraced times are reference-speed
seconds (``calibrate.ReferenceClock``). Every CLI stage call is checked; a
failed call, a failed check or a pass whose artifact digest differs from
the first timed pass's counts as a failed operation. With ``--trace 1``
untraced and traced passes alternate; the per-layer metrics come from the
traced ones and the tracing overhead is the difference of the two medians.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = str(Path(__file__).resolve().parent)
SRC = str(Path(__file__).resolve().parents[1] / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from fdia_lab.cli import main as cli_main  # noqa: E402

IMPORT_S = perf_counter() - _START

import calibrate  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 7
MIN_PASSES = 2      # timed passes, at least; their digests must agree
WARM_SCENARIOS = 5  # sweep's scenarios are alike, so five show its peak memory
TAIL_PCT = 90


@dataclass
class PassResult:
    scenario_s: list = field(default_factory=list)
    stage_s: Counter = field(default_factory=Counter)
    detect_ticks: int = 0
    attempted: int = 0
    failed: int = 0
    digest: str = ""
    own_s: float = 0.0    # wall time of the stage calls, not scaled

    @property
    def wall_s(self) -> float:
        return sum(self.scenario_s)


def run_stage(argv, tracer=None, clock=None) -> tuple[int, float, float]:
    """One CLI stage call in-process: its exit code, its wall time and its
    time on ``clock`` (reference-speed seconds; wall time if none given)."""
    def call():
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    return cli_main(list(argv))
                return tracer.stage(f"stage.{argv[0]}", cli_main, list(argv))
        except Exception:  # a crash is a failed operation, not a benchmark crash
            traceback.print_exc()
            return 1

    return (clock or calibrate.WallClock()).time(call)


def run_pass(plan, tracer=None, clock=None) -> PassResult:
    result = PassResult()
    for scenario in plan:
        shutil.rmtree(scenario.run_dir, ignore_errors=True)
        elapsed_total = 0.0
        for argv in scenario.stages:
            code, own, elapsed = run_stage(argv, tracer, clock)
            problems = ([f"exit code {code}"] if code != 0 else
                        checks.check_stage(argv, scenario.run_dir, scenario.n,
                                           scenario.warmup))
            result.attempted += 1
            if problems:
                result.failed += 1
                print(f"FAILED {' '.join(argv)}: {'; '.join(problems)}", file=sys.stderr)
            elapsed_total += elapsed
            result.own_s += own
            result.stage_s[argv[0]] += elapsed
            if argv[0] == "detect":
                result.detect_ticks += scenario.n
        result.scenario_s.append(elapsed_total)
    result.digest = checks.digest([s.run_dir for s in plan])
    return result


IMPORT_PROBE = """
from time import perf_counter
import numpy
start = perf_counter()
import fdia_lab.cli
own = perf_counter() - start
import statistics, calibrate
print(own * calibrate.REF_S / statistics.fmean(calibrate.reference() for _ in range(3)))
"""


def import_probe() -> float:
    """Reference-speed seconds a fresh interpreter takes to import the
    package's CLI, numpy (its one dependency) already loaded: numpy's own
    import time drifts by a third with the host's state, not with this
    repo's code. The child scales by reference units it runs right after
    the import. The parent's clock is held off meanwhile, so that its
    samples do not share the CPU with the child."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, HERE]))
    signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
    try:
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             stdout=subprocess.PIPE, text=True, timeout=60).stdout
    finally:
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
    return float(out)


def blas_info() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def end_to_end(passes: list[PassResult]) -> tuple[dict, dict]:
    scenarios = sorted(s for p in passes for s in p.scenario_s)
    tail = statistics.quantiles(scenarios, n=100, method="inclusive")[TAIL_PCT - 1]
    metrics = {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "detect_ticks_per_s": statistics.median(
            p.detect_ticks / p.stage_s["detect"] for p in passes),
        "scenario_p50_ms": statistics.median(scenarios) * 1e3,
        "scenario_tail_ms": tail * 1e3,
    }
    info = {
        "scenario_samples": len(scenarios),
        "scenario_tail_pct": TAIL_PCT,
        "scenario_samples_beyond_tail": sum(s > tail for s in scenarios),
        "stage_median_s": {cmd: statistics.median(p.stage_s[cmd] for p in passes)
                           for cmd in passes[0].stage_s},
    }
    return metrics, info


def per_layer(untraced: list[PassResult], traced: list[tuple[PassResult, tracing.Tracer]]):
    summaries = [tracing.summarize(tracer.spans) for _, tracer in traced]
    per_pass = [dict(tracing.layer_metrics(summary), **{"trace.spans": len(tracer.spans)})
                for summary, (_, tracer) in zip(summaries, traced)]
    metrics = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_s"] = (statistics.median(p.wall_s for p, _ in traced)
                                   - statistics.median(p.wall_s for p in untraced))
    summary = summaries[-1]
    layers = sorted((n for n in summary if not n.startswith("stage.")),
                    key=lambda n: summary[n]["self_s"], reverse=True)
    info = {"largest_self_s": [[n, round(summary[n]["self_s"], 4)] for n in layers[:6]],
            "trace_overhead_frac": metrics["trace.overhead_s"]
            / statistics.median(p.wall_s for p in untraced)}
    return metrics, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="file the traced passes' spans are appended to")
    args = parser.parse_args(argv)

    # The warm-up runs before the reference clock starts, so the peak
    # memory it leaves is free of the clock's allocations, which land at
    # times that vary from run to run and so vary the heap's layout.
    plan = workloads.WORKLOADS[args.workload](args.seed)
    warm = run_pass(plan[:WARM_SCENARIOS])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    clock = calibrate.WallClock() if args.trace else calibrate.ReferenceClock()
    with clock:
        import_times, setup_times = [], []
        for _ in range(SETUP_REPS):
            import_times.append(import_probe())
            plan, _, scaled = clock.time(workloads.WORKLOADS[args.workload], args.seed)
            setup_times.append(scaled)

        untraced, traced = [], []
        start = perf_counter()
        while (len(untraced) + len(traced) < MIN_PASSES
               or perf_counter() - start < args.seconds):
            untraced.append(run_pass(plan, clock=clock))
            if args.trace:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    traced.append((run_pass(plan, tracer), tracer))

    passes = untraced + [p for p, _ in traced]
    counted = [warm] + passes
    mismatches = sum(p.digest != passes[0].digest for p in passes)
    attempted = sum(p.attempted for p in counted)
    failed = sum(p.failed for p in counted) + mismatches
    if mismatches:
        print(f"FAILED determinism: {mismatches} pass(es) differ in artifact digest",
              file=sys.stderr)
    info = {
        "workload": args.workload, "seed": args.seed, "passes": len(passes),
        "artifact_sha256": passes[0].digest, "digests_equal": not mismatches,
        "fail_frac": failed / attempted, "first_import_s": IMPORT_S,
        "import_s": import_times, "pass_s": [p.wall_s for p in passes],
        "pass_wall_s": [p.own_s for p in passes],
        "setup_reps_s": setup_times,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(),
    }
    if args.trace:
        metrics, extra = per_layer(untraced, traced)
        if args.spans:
            for _, tracer in traced:
                tracer.write(args.spans)
    else:
        metrics, extra = end_to_end(untraced)
        metrics["setup_s"] = (statistics.median(import_times)
                              + statistics.median(setup_times))
        metrics["ok_frac"] = 1.0 - failed / attempted
        metrics["peak_rss_mb"] = peak_rss_mb
    info.update(extra)
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
