"""Benchmark of chemovir: three workloads, end-to-end and per-layer metrics.

Run from the root of a chemovir checkout:

    python3 bench/run.py --workload explicit-1d --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # every workload, one after another

A run repeats whole rounds of its workload for about ``--seconds`` and
checks every round's outputs.  With ``--trace 0`` it reports the
end-to-end metrics, with ``--trace 1`` the per-layer metrics taken from
spans around chemovir's public functions.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  bench/README.md describes the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import reference
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("explicit-1d", "sweep-1d", "simulate-3d")
SETUP_PROBES = 5

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "stepper.run.steps": "count",
    "stepper.run.retries": "count",
    "stepper.run.self_s": "s",
    "stepper.step.calls": "count",
    "stepper.step.self_s": "s",
    "stepper.step.us_per_call": "us",
    "discretization.helmholtz_solve.calls": "count",
    "discretization.helmholtz_solve.time_s": "s",
    "discretization.helmholtz_solve.us_per_call": "us",
    "stepper.stable_dt.us_per_call": "us",
    "discretization.laplacian_neumann.us_per_call": "us",
    "discretization.chemotaxis_divergence.us_per_call": "us",
    "monitors.compute_record.calls": "count",
    "monitors.compute_record.time_s": "s",
    "monitors.classify_boundedness.time_s": "s",
    "sweep.run_sweep.rows": "count",
    "sweep.run_sweep.worker_cpu_s": "s",
    "sweep.run_sweep.parallel_efficiency": "ratio",
    "grid.write_snapshot.calls": "count",
    "grid.write_snapshot.time_s": "s",
    "grid.write_snapshot.mb": "MB",
    "grid.read_snapshot.calls": "count",
    "grid.read_snapshot.time_s": "s",
    "monitors.write_diagnostics_csv.time_s": "s",
    "config.load_config.time_s": "s",
    "trace.overhead_s": "s",
}


def load_workloads():
    """Import bench/workloads.py against this checkout's src/chemovir."""
    package = os.path.join(ROOT, "src", "chemovir", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"bench: {package} is missing; run from a chemovir checkout")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    return workloads


def cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(records, names: list[str], workers: int, worker_cpu: float) -> dict:
    """The per-layer metrics of one traced round, derived from its spans.

    ``worker_cpu`` is the CPU time of the round's worker processes; the
    parallel efficiency divides it by ``workers`` times run_sweep's wall.
    """
    label = np.asarray(names)[records["name"]]
    duration = records["end"] - records["start"]
    own = spans.self_times(records)
    ok = records["ok"]

    def select(name):
        return label == name

    def total(values, name):
        return float(values[select(name)].sum())

    def per_call_us(name):
        calls = int(select(name).sum())
        return total(duration, name) / calls * 1e6 if calls else 0.0

    step = select("stepper.step")
    runs = select("stepper.run")
    under_sweep = np.zeros(len(records), dtype=bool)
    parents = records["parent"][runs]
    under_sweep[np.flatnonzero(runs)] = (parents >= 0) & (label[np.maximum(parents, 0)]
                                                          == "sweep.run_sweep")
    sweep_wall = total(duration, "sweep.run_sweep")
    return {
        "stepper.run.steps": int((step & ok).sum()),
        "stepper.run.retries": int((step & ~ok).sum()),
        "stepper.run.self_s": total(own, "stepper.run"),
        "stepper.step.calls": int(step.sum()),
        "stepper.step.self_s": total(own, "stepper.step"),
        "stepper.step.us_per_call": per_call_us("stepper.step"),
        "discretization.helmholtz_solve.calls": int(select("discretization.helmholtz_solve").sum()),
        "discretization.helmholtz_solve.time_s": total(duration, "discretization.helmholtz_solve"),
        "discretization.helmholtz_solve.us_per_call": per_call_us("discretization.helmholtz_solve"),
        "monitors.compute_record.calls": int(select("monitors.compute_record").sum()),
        "monitors.compute_record.time_s": total(duration, "monitors.compute_record"),
        "monitors.classify_boundedness.time_s": total(duration, "monitors.classify_boundedness"),
        "sweep.run_sweep.rows": int(under_sweep.sum()),
        "sweep.run_sweep.worker_cpu_s": worker_cpu,
        "sweep.run_sweep.parallel_efficiency": (
            worker_cpu / (workers * sweep_wall) if workers and sweep_wall else 0.0),
        "grid.write_snapshot.calls": int(select("grid.write_snapshot").sum()),
        "grid.write_snapshot.time_s": total(duration, "grid.write_snapshot"),
        "grid.read_snapshot.calls": int(select("grid.read_snapshot").sum()),
        "grid.read_snapshot.time_s": total(duration, "grid.read_snapshot"),
        "monitors.write_diagnostics_csv.time_s": total(duration, "monitors.write_diagnostics_csv"),
        "config.load_config.time_s": total(duration, "config.load_config"),
    }


def one_round(workload, workloads, tracer) -> dict:
    """Run one round: the timed calls, then the checks (and spans, if traced)."""
    workload.prepare()
    install = (tracer.installed(workloads.MODULES, workload.observers()) if tracer
               else contextlib.nullcontext())
    with install:
        cpu_self = cpu_seconds(resource.RUSAGE_SELF)
        cpu_children = cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        result = workload.execute()
        wall = time.perf_counter() - start
        worker_cpu = cpu_seconds(resource.RUSAGE_CHILDREN) - cpu_children
        cpu = cpu_seconds(resource.RUSAGE_SELF) - cpu_self + worker_cpu
    try:
        outcome = workload.check(result, traced=tracer is not None)
    except Exception as error:  # a check that cannot run is a failed check
        outcome = workloads.Outcome()
        outcome.problems.append(f"checks raised {error!r}")
    record = {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
              "failed": outcome.failed, "problems": outcome.problems,
              "warnings": outcome.warnings}
    if tracer is not None:
        records = tracer.take()
        layer = layer_metrics(records, tracer.names, workload.workers, worker_cpu)
        layer["grid.write_snapshot.mb"] = outcome.snapshot_mb
        layer.update(workloads.probe_kernels(workload.probe_inputs(result)))
        record["layer"] = layer
        record["spans"] = records
    return record


def measure_setup(args) -> list[tuple[float, float]]:
    """Set-up time of fresh processes: interpreter start, imports, inputs.

    Each probe re-runs this script with --probe-setup; it prints the
    CLOCK_MONOTONIC reading at which its inputs are built, which all
    processes share.
    """
    times, last = [], reference.seconds()
    for _ in range(SETUP_PROBES):
        begin = time.clock_gettime(time.CLOCK_MONOTONIC)
        probe = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        raw = float(probe.stdout.split()[-1]) - begin
        before, last = last, reference.seconds()
        times.append((raw, reference.at_reference_speed(raw, before, last)))
    return times


def probe_setup(args) -> int:
    workloads = load_workloads()
    workdir = os.path.join(OUT, f"probe-{os.getpid()}")
    workloads.WORKLOADS[args.workload](args.seed, workdir)
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    print(repr(ready))
    shutil.rmtree(workdir, ignore_errors=True)
    return 0


def run_workload(args) -> int:
    workloads = load_workloads()
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        tracer = None
        if args.trace:
            spool = os.path.join(workdir, "spool")
            os.makedirs(spool, exist_ok=True)
            tracer = spans.Tracer(spool)
        rounds = []
        begin = time.perf_counter()
        last = reference.seconds()
        while True:
            # the traced run alternates untraced and traced rounds, so the
            # tracing overhead is measured under the same machine speed
            traced = tracer is not None and len(rounds) % 2 == 1
            round_start = time.perf_counter()
            record = one_round(workload, workloads, tracer if traced else None)
            # times are reported at reference speed (see reference.py), but
            # only for work done in this process: the reference, timed here,
            # did not predict the speed of the sweep's two workers
            before, last = last, reference.seconds()
            for name in ("wall_s", "cpu_s"):
                record[f"raw_{name}"] = record[name]
            if not workload.workers:
                for name in ("wall_s", "cpu_s"):
                    record[name] = reference.at_reference_speed(record[name], before, last)
                for name, value in record.get("layer", {}).items():
                    if PER_LAYER[name] in ("s", "us"):
                        record["layer"][name] = reference.at_reference_speed(value, before, last)
            rounds.append(record)
            elapsed = time.perf_counter() - begin
            round_s = time.perf_counter() - round_start
            print(f"round {len(rounds)}{' traced' if traced else ''}: "
                  f"wall {record['raw_wall_s']:.4f} s, cpu {record['raw_cpu_s']:.4f} s, "
                  f"reported {record['wall_s']:.4f} s, {record['cpu_s']:.4f} s",
                  file=sys.stderr)
            enough = len(rounds) >= (2 if tracer else 1)
            if enough and elapsed + round_s > args.seconds:
                break
        # peak RSS of this process, plus each worker at the largest worker's peak
        peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    + workload.workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        setup = measure_setup(args) if not args.trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, workload, rounds, setup, peak_kib * 1024 / 1e6,
                  tracer.names if tracer else [])


def report(args, workload, rounds, setup, peak_mb, span_names) -> int:
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    samples: dict[str, list[float]] = {}
    if args.trace:
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                samples[name] = [r["layer"][name] for r in traced]
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced)]
        units = PER_LAYER
    else:
        samples = {"wall_s": [r["wall_s"] for r in untraced],
                   "cpu_s": [r["cpu_s"] for r in untraced],
                   "setup_s": [adjusted for _, adjusted in setup],
                   "peak_rss_mb": [peak_mb]}
        units = END_TO_END
    problems = [p for r in rounds for p in r["problems"]]
    for warning in sorted({w for r in rounds for w in r["warnings"]}):
        print(f"warning: {warning}", file=sys.stderr)
    for problem in sorted(set(problems)):
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds "
          f"({len(traced)} traced), {workload.attempted} operations each")
    if not args.trace:
        print("  measured medians: wall_s {:.6g} s, cpu_s {:.6g} s, setup_s {:.6g} s; "
              "reported:".format(statistics.median(r["raw_wall_s"] for r in untraced),
                                        statistics.median(r["raw_cpu_s"] for r in untraced),
                                        statistics.median(raw for raw, _ in setup)))
    metrics = {}
    for name, unit in units.items():
        q1, median, q3 = quartiles(samples[name])
        metrics[name] = {"value": median, "unit": unit}
        print(f"  {name:50s} {median:14.6g} {unit:6s} "
              f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples[name])}]")
    result = {"correct": not problems,
              "attempted": workload.attempted * len(rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    save(args, rounds, setup, result, span_names)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def save(args, rounds, setup, result, span_names):
    """Write the rounds, the result and, for a traced run, every span."""
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    traced = {f"round{k}": r.pop("spans") for k, r in enumerate(rounds) if "spans" in r}
    if traced:
        np.savez_compressed(stem + "-spans.npz", names=np.asarray(span_names), **traced)
    with open(stem + ".json", "w") as handle:
        json.dump({"args": vars(args), "rounds": rounds, "setup": setup, "result": result},
                  handle, indent=1)


def run_all(args) -> int:
    """Every workload in turn, each in a fresh process of this script.

    Set-up time and peak RSS are properties of a process, so each workload
    gets its own.
    """
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit code {child.returncode})", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        status = status or child.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
        print(f"  operations: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30,
                        help="how long a run measures, in whole seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.probe_setup:
        return probe_setup(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
