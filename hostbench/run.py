"""Host-time benchmark of the Splitwise simulator.

Usage, from the root of the repository::

    python3 hostbench/run.py --workload burst-40 --seed 0 --seconds 30 --trace 0
    python3 hostbench/run.py                  # every workload, one table

With ``--workload`` it runs one workload in this process and prints, as its
last line, one JSON object: ``correct``, ``attempted`` and ``failed``
(the simulation runs of one execution of the workload, which every repeat
must reproduce) and ``metrics`` -- the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it is a ``context`` object: host CPUs, shard
workers, the calibration loop's time, the output digest and the run failure
rate.  Without ``--workload`` it runs each workload in its own process (so one
workload's peak memory cannot leak into another's) and prints a table.

Each iteration builds the workload's inputs (timed as set-up), then runs its
timed region once; iterations repeat until ``--seconds`` is used up.  Timed
seconds and work are totalled over the iterations; set-up is a median of its
repeats.  A traced run spends half its time untraced and half traced, and
reports the per-layer split of the traced half (medians over its iterations).
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".hostbench"

#: Pure-Python loop timed beside every iteration: host context, not a metric.
CALIBRATION_STEPS = 200_000


def calibrate() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_STEPS):
        total += i * i % 7
    return time.perf_counter() - start


def rusage() -> tuple[float, float]:
    """(CPU seconds of this process, CPU seconds of its reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def peak_rss_mb(workers: int) -> float:
    """Peak RSS of this process, plus the largest shard worker's if it has workers."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def import_seconds(probes: int = 5) -> float:
    """Median time for a fresh interpreter to import the workloads' modules."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads"
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def median(values):
    return statistics.median(values) if values else 0.0


def iterate(workload, seed: int, budget_s: float, observer, tracer=None) -> list[dict]:
    """Run build + timed region until ``budget_s`` is used up (at least once)."""
    from workloads import output_digest

    from tracer import delta

    iterations: list[dict] = []
    began = time.perf_counter()
    while True:
        calibration_s = calibrate()
        gc.collect()
        if tracer is not None:
            tracer.run_id = len(iterations)
            before_build = tracer.tally()
        start = time.perf_counter()
        state = workload.build(seed)
        build_s = time.perf_counter() - start
        gc.collect()
        if tracer is not None:
            before_run = tracer.tally()
        cpu0, kids0 = rusage()
        start = time.perf_counter()
        with observer:
            output = workload.execute(state)
        wall_s = time.perf_counter() - start - observer.oracle_s
        cpu1, kids1 = rusage()
        records = observer.records
        iteration = {
            "build_s": build_s,
            "wall_s": wall_s,
            "cpu_s": cpu1 - cpu0 + kids1 - kids0 - observer.oracle_s,
            "child_cpu_s": kids1 - kids0,
            "calibration_s": calibration_s,
            "records": records,
            "digest": output_digest(output, records),
            "problems": workload.check(seed, output, records),
            "probe_yield": workload.probe_yield(output, records),
        }
        if tracer is not None:
            after = tracer.tally()
            iteration["setup_tally"] = delta(before_run, before_build)
            iteration["run_tally"] = delta(after, before_run)
        iterations.append(iteration)
        del state, output
        spent = time.perf_counter() - began
        typical = median([it["build_s"] + it["wall_s"] for it in iterations])
        if spent + typical > budget_s:
            return iterations


def end_to_end(iterations: list[dict], import_s: float, workers: int) -> dict[str, float]:
    """Timed-region seconds per iteration and work per timed second, over the whole run.

    Totals over every iteration, not a median of a few long iterations: the
    host's speed drifts on the scale of one iteration, and the whole run's
    work averages more of that drift out.
    """
    wall = sum(it["wall_s"] for it in iterations)
    return {
        "wall_s": wall / len(iterations),
        "cpu_s": sum(it["cpu_s"] for it in iterations) / len(iterations),
        "setup_s": import_s + median([it["build_s"] for it in iterations]),
        "peak_rss_mb": peak_rss_mb(workers),
        "sim_events_per_s": sum(r.events + r.events_coalesced for it in iterations for r in it["records"]) / wall,
        "sim_requests_per_s": sum(r.accounted for it in iterations for r in it["records"]) / wall,
    }


def per_layer(traced: list[dict], untraced: list[dict], tracer) -> dict[str, float]:
    """Per-layer metrics of the traced iterations (median over them)."""
    import numpy as np

    from tracer import LAYERS

    ids = {name: index for index, name in enumerate(tracer.names)}
    untraced_walls = [r.wall_s for it in untraced for r in it["records"]]

    def one(it: dict) -> dict[str, float]:
        run, setup, records = it["run_tally"], it["setup_tally"], it["records"]

        def calls(name, tally=run):
            return tally["calls"][ids[name]]

        def self_s(name, tally=run):
            return tally["self_s"][ids[name]]

        out: dict[str, float] = {
            "engine.events": sum(r.events for r in records),
            "engine.events_coalesced": sum(r.events_coalesced for r in records),
            "engine.events_cancelled": sum(r.events_cancelled for r in records),
            "engine.heap_compactions": sum(r.heap_compactions for r in records),
            "engine.dispatch_self_s": self_s("engine.run") + self_s("engine.step"),
        }
        for kind in ("start", "finish", "macro", "rotate"):
            out[f"machine.step_calls.{kind}"] = calls(f"machine.{kind}")
            out[f"machine.step_self_s.{kind}"] = self_s(f"machine.{kind}")
        for name in (
            "batching.plan_iteration",
            "rotation.select",
            "rotation.commit_aging",
            "rotation.insert",
            "perf_model.prompt_latency",
            "perf_model.token_latency_series",
            "scheduler.submit",
            "metrics.evaluate_slo",
            "metrics.slo_report",
            "router.route",
            "reliability.deadline",
            "reliability.hedge",
            "reliability.retry",
            "faults.callback",
        ):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        out["perf_model.token_latency_calls"] = run["counts"].get("perf_model.token_latency", 0)
        for name in ("fail_machine", "cancel_request", "evacuate"):
            out[f"scheduler.{name}.calls"] = calls(f"scheduler.{name}")
        out["kv.transfers"] = calls("kv.transfer")
        out["kv.transfer_self_s"] = self_s("kv.transfer")
        out["kv.bytes_moved"] = run["kv_bytes"]
        out["metrics.finish_self_s"] = self_s("metrics.finish")
        out["token_log.boundaries"] = sum(r.token_boundaries for r in records)
        out["token_log.run_blocks"] = sum(r.token_run_blocks for r in records)
        for name in ("workload.generate_trace", "workload.build_trace"):
            out[f"{name}.calls"] = calls(name) + calls(name, setup)
            out[f"{name}.self_s"] = self_s(name) + self_s(name, setup)
        out["router.bans_issued"] = sum(r.bans for r in records)
        out["fleet.shed"] = sum(r.shed for r in records)
        out["fleet.expired"] = sum(r.expired for r in records)
        out["fleet.degraded"] = sum(r.degraded for r in records)
        out["reliability.hedges_launched"] = sum(r.hedges for r in records)
        out["reliability.retries_fired"] = sum(r.retries for r in records)
        out["provisioner.ticks"] = calls("provisioner.tick") + calls("provisioner.cluster_start")
        out["provisioner.self_s"] = self_s("provisioner.tick") + self_s("provisioner.cluster_start")
        out["autoscaler.ticks"] = calls("autoscaler.tick")
        out["autoscaler.self_s"] = self_s("autoscaler.tick")
        execute_s = run["incl_s"][ids["sharding.execute"]]
        sharded_wall = sum(r.wall_s for r in records if r.workers)
        out["sharding.plan_self_s"] = self_s("sharding.plan")
        out["sharding.execute_s"] = execute_s
        out["sharding.coordinator_s"] = sharded_wall - execute_s if sharded_wall else 0.0
        out["sharding.workers"] = max((r.workers for r in records), default=0)
        out["sharding.child_cpu_s"] = it["child_cpu_s"]
        out["experiments.simulations"] = len(records)
        out["experiments.sim_wall_p50_s"] = float(np.percentile(untraced_walls or [0.0], 50))
        out["experiments.sim_wall_p80_s"] = float(np.percentile(untraced_walls or [0.0], 80))
        out["experiments.probe_yield"] = it["probe_yield"]
        attributed = 0.0
        for layer in LAYERS:
            layer_self = sum(
                run["self_s"][index] for index, owner in enumerate(tracer.layer_of) if owner == layer
            )
            out[f"layer.{layer}.self_s"] = layer_self
            attributed += layer_self
        out["unattributed_s"] = it["wall_s"] - attributed
        out["trace.wall_s"] = it["wall_s"]
        out["trace.overhead_s"] = it["wall_s"] - median([u["wall_s"] for u in untraced])
        return out

    rows = [one(it) for it in traced]
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def run_workload(args, spec: dict) -> int:
    import_s = 0.0 if args.trace else import_seconds()
    sys.path.insert(0, str(SRC))
    from workloads import HOST_CPUS, WORKLOADS, RunObserver

    workload = WORKLOADS[args.workload]
    observer = RunObserver()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = iterate(workload, args.seed, budget, observer)
    iterations = list(untraced)
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        with tracer:
            traced = iterate(workload, args.seed, budget, observer, tracer)
        iterations += traced
        metrics = per_layer(traced, untraced, tracer)
        wanted = spec["per_layer"]
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
    else:
        metrics = end_to_end(untraced, import_s, workload.workers)
        wanted = spec["end_to_end"]

    problems = [p for it in iterations for p in it["problems"]]
    problems += [p for it in iterations for r in it["records"] for p in r.problems]
    # Every iteration -- untraced or traced -- must give the same outputs: a
    # tracer that changed which code path runs would be measuring another program.
    digests = sorted({it["digest"] for it in iterations})
    if len(digests) != 1:
        problems.append(f"output digest differs between iterations: {digests}")
    # The runs of one execution are the operations: every later iteration
    # repeats them, and the digest check above makes each repeat reproduce
    # them (failure messages included), so the counts depend on neither the
    # run's length nor how many repeats fit in it.
    attempted = len(iterations[0]["records"])
    failed = sum(1 for r in iterations[0]["records"] if r.failed)
    errors = sorted({r.error for it in iterations for r in it["records"] if r.error})
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_cpus": HOST_CPUS,
        "workers": workload.workers,
        "iterations": len(iterations),
        "runs_total": sum(len(it["records"]) for it in iterations),
        "calibration_s": median([it["calibration_s"] for it in iterations]),
        "iteration_wall_s": [it["wall_s"] for it in iterations],
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "traced_digest_matches": len(digests) == 1 if args.trace else None,
        "run_failure_rate": failed / attempted if attempted else 0.0,
        "errors": errors,
        "problems": problems[:20],
    }
    print(json.dumps({"context": context}))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; one table of end-to-end metrics."""

    def invoke(name: str, trace: int) -> tuple[dict, dict]:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace),
        ]
        lines = subprocess.run(command, check=True, capture_output=True, text=True).stdout.splitlines()
        return json.loads(lines[-2])["context"], json.loads(lines[-1])

    rows = []
    for workload in spec["workloads"]:
        name = workload["name"]
        context, result = invoke(name, 0)
        if args.trace:
            traced_context, traced = invoke(name, 1)
            context["traced_digest"] = traced_context["output_digest"]
            result["per_layer"] = traced["metrics"]
            result["correct"] = result["correct"] and traced["correct"]
        rows.append((name, context, result))
    for name, context, result in rows:
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(
            f"\n== {name}  ({verdict}; runs {result['attempted']}, failed {result['failed']}; "
            f"host_cpus {context['host_cpus']}, workers {context['workers']}, "
            f"calibration {context['calibration_s'] * 1e3:.1f} ms)"
        )
        print(f"   output_digest {context['output_digest']}")
        if "traced_digest" in context:
            same = context["traced_digest"] == context["output_digest"]
            print(f"   traced digest {'equals' if same else 'DIFFERS FROM'} the untraced one")
            if not same:
                result["correct"] = False
        for key, metric in result["metrics"].items():
            print(f"   {key:<22} {metric['value']:>14.4f} {metric['unit']}")
        print(f"   {'run_failure_rate':<22} {context['run_failure_rate']:>14.4f} ratio")
        for error in context["errors"]:
            print(f"   failure: {error}")
        for key, metric in result.get("per_layer", {}).items():
            value = metric["value"]
            text = f"{value:,}" if isinstance(value, int) else f"{value:.6f}"
            print(f"   {key:<40} {text:>20} {metric['unit']}")
    return 0 if all(result["correct"] for _, _, result in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all, as a table)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"hostbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is None:
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    # Byte-compile the sources first so the first run in a fresh checkout
    # does not charge compilation to setup_s.
    compileall.compile_dir(str(SRC), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2)
    return run_workload(args, spec)


if __name__ == "__main__":
    raise SystemExit(main())
