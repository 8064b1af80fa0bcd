"""accesslint benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload ci-fleet --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root.  The program is imported from ./src, never
from an installed copy.  With --trace 0 the last line of stdout is a JSON
object carrying every end-to-end metric; with --trace 1 it carries every
per-layer metric instead, from ops run alternately traced and untraced,
and the spans are written to perfbench/out/.  The lines before it give
the same numbers for people, with failed_ops_ratio, sample counts, the
uncorrected figures and the set-up split.

The inputs and their answers are built in a child process from the seed
(child.py build), before anything is timed.

End-to-end metrics (untraced):
  setup_s      median, over SETUP_REPEATS fresh processes (child.py setup)
               spawned at even intervals through the run, of the
               program's set-up: importing accesslint, the workload's
               program-side preparation and its warm-up ops
  ops_per_s    timed ops / time spent inside them
  op_p50_ms    median op latency
  op_p90_ms    90th-percentile op latency
  cold_cli_ms  median wall time of COLD_SPAWNS fresh `python -m accesslint.cli`
               processes on the workload's gate command, spawned one at a
               time at even intervals through the run
  peak_rss_mb  peak resident memory of this process, which holds the
               inputs and answers but never builds them
Every time above is normalised to a reference core speed by
speed.Speedometer; the uncorrected figures are printed above the
metrics.  The process and its children run on one core.  Every op and
every spawned process is checked against answers fixed when the inputs
were built; `failed` counts those that did not match.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import program  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402

OUT = HERE / "out"
CHILD = HERE / "child.py"
SETUP_REPEATS = 5
COLD_SPAWNS = 13
CHILD_TIMEOUT_S = 60

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cold_cli_ms": "ms",
    "peak_rss_mb": "MB",
}


def run_child(argv: list[str], **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          cwd=program.ROOT, env=dict(os.environ, **env),
                          timeout=CHILD_TIMEOUT_S)


def spawn_cold(runner: Runner) -> tuple[float, float]:
    """Run the cold-CLI command in a fresh process and check it; (start, seconds)."""
    runner.attempted += 1
    start = perf_counter()
    proc = run_child(["-m", "accesslint.cli", *runner.workload.cold_argv],
                     PYTHONPATH=str(program.SRC))
    elapsed = perf_counter() - start
    problem = runner.workload.check_cold(proc.returncode, proc.stdout, proc.stderr)
    if problem:
        runner.failures.append(f"cold cli: {problem}")
    return start, elapsed


def time_setup(runner: Runner, workdir: Path) -> tuple[float, dict]:
    """One set-up in a fresh process; (start, its parts in seconds)."""
    start = perf_counter()
    proc = run_child([str(CHILD), "setup", str(workdir)])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}:\n{proc.stderr}")
    parts = json.loads(proc.stdout.splitlines()[-1])
    runner.attempted += parts.pop("attempted")
    runner.failures += [f"set-up {f}" for f in parts.pop("failures")]
    return start, parts


def measure(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    # One core for this process and the processes it spawns, so the
    # reference probes time the core the measured work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Importing here first also compiles accesslint before any child times it.
    modules = program.import_accesslint()
    build = run_child([str(CHILD), "build", name, str(seed), str(workdir)])
    if build.returncode != 0:
        raise RuntimeError(f"building the inputs failed:\n{build.stderr}")
    runner = Runner(workloads.load(workdir))
    runner.workload.attach(modules["api"])
    for _ in range(runner.workload.warmup):
        runner.op()
    meter = speed.Speedometer()
    # The inputs live for the whole run; keep the collector from rescanning them.
    gc.collect()
    gc.freeze()

    if trace:
        tracer = tracing.Tracer(modules)
        untraced = []
        deadline = perf_counter() + seconds
        # Each op runs twice, untraced and traced, in alternating order, so
        # both sides see the same inputs and the same drift.
        while perf_counter() < deadline:
            meter.maybe_probe()
            i = runner.prepare()
            for traced in ((True, False) if i % 2 else (False, True)):
                if traced:
                    with tracer:
                        elapsed = runner.attempt(i)
                    tracer.end_op(elapsed)
                else:
                    untraced.append(runner.attempt(i))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        raw_ops_per_s = len(untraced) / sum(untraced)
        table = tracer.table(raw_ops_per_s)
        table["raw.ops_per_s"] = raw_ops_per_s
        table["raw.op_p50_ms"] = statistics.median(untraced) * 1000
        table["speed.probe_ms"] = meter.median_ms()
        metrics = {key: (table[key], unit) for key, unit in tracing.PER_LAYER.items()}
        samples = tracer.ops
        counts = {"raw.ops_per_s": len(untraced), "raw.op_p50_ms": len(untraced),
                  "speed.probe_ms": len(meter.took)}
    else:
        ops, spawns, setups = [], [], []

        def spawn(kind: str) -> None:
            if kind == "cold":
                spawns.append(spawn_cold(runner))
            else:
                setups.append(time_setup(runner, workdir))
            meter.probe()

        # The fresh processes, cold CLI spawns and set-ups, are spread evenly
        # over the run, between ops, so that their medians sample all of it.
        # A spawned process evicts this one's caches, so the op after it
        # runs untimed.
        due = sorted([(k * seconds / COLD_SPAWNS, "cold") for k in range(COLD_SPAWNS)]
                     + [((k + 0.5) * seconds / SETUP_REPEATS, "setup")
                        for k in range(SETUP_REPEATS)])
        start = perf_counter()
        deadline = start + seconds
        while perf_counter() < deadline:
            meter.maybe_probe()
            if due and perf_counter() - start >= due[0][0]:
                spawn(due.pop(0)[1])
                runner.op()
            began = perf_counter()
            ops.append((began, runner.op()))
        for _, kind in due:
            spawn(kind)

        def figures(latencies, setup_times, spawn_times) -> dict:
            return {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": len(latencies) / sum(latencies),
                "op_p50_ms": statistics.median(latencies) * 1000,
                "op_p90_ms": statistics.quantiles(latencies, n=10,
                                                  method="inclusive")[8] * 1000,
                "cold_cli_ms": statistics.median(spawn_times) * 1000,
            }

        setup_totals = [(s, sum(parts.values())) for s, parts in setups]
        raw = figures([t for _, t in ops], [t for _, t in setup_totals],
                      [t for _, t in spawns])
        values = figures([meter.correct(*op) for op in ops],
                         [meter.correct(*s) for s in setup_totals],
                         [meter.correct(*s) for s in spawns])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {key: (values[key], unit) for key, unit in END_TO_END.items()}
        samples = len(ops)
        counts = {"setup_s": len(setups), "cold_cli_ms": len(spawns), "peak_rss_mb": 1}
        print("uncorrected: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f"; reference task median {meter.median_ms():.4f} ms over"
              f" {len(meter.took)} probes (normalised to {speed.REFERENCE_S * 1000:g} ms)")
        print("set-up split (uncorrected medians): " + ", ".join(
            f"{part} {statistics.median(p[part] for _, p in setups):.6g} s"
            for part in ("import_s", "prepare_s", "warmup_s")))

    failed = len(runner.failures)
    for line in runner.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"workload {name} seed {seed}: {samples} timed ops, "
          f"{runner.attempted} attempted, {failed} failed")
    print(f"  failed_ops_ratio {failed / runner.attempted:.6f} ratio")
    for key, (value, unit) in metrics.items():
        print(f"  {key} {value:.6g} {unit} (n={counts.get(key, samples)})")
    return {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def run_all(args) -> dict:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=program.ROOT, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not proc.stdout.strip():
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        result = run_all(args)
    else:
        OUT.mkdir(exist_ok=True)
        workdir = OUT / f"work-{os.getpid()}"
        workdir.mkdir()
        try:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
        except program.ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
