#!/usr/bin/env python3
"""lpvol benchmark: whole CLI processes per workload, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A pass runs every command of the
workload once, as `python -m lpvol.cli ...` with PYTHONPATH=src, one
process after another (a closed loop from this one process),
and is timed from the first spawn to the last exit.  Passes repeat until
the next one would end after S seconds; at least one always runs.

--trace 0 prints the end-to-end metrics: wall_s (median pass time),
setup_s (median time of a process that only imports lpvol.cli) and
peak_rss_mb (largest ru_maxrss of a pass's processes, median over
passes).  --trace 1 prints the per-layer metrics: the same untraced
passes give the rusage figures, and one more pass runs each command in
process under bench/tracer.py.  --workload all runs every workload and
prints one summary line each.

Every output row is checked (bench/checks.py).  The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it carry the environment, sample counts, quartiles and
the failure rate.  LPVOL_THREADS is removed from the children's
environment, so the CLI runs with its default thread cap.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

RUN_LIMIT_S = 170.0     # every child is killed once a run reaches this age
SETUP_RUNS = 5          # timed import-only processes, after one warm-up

LAYER_COUNTERS = (
    "specfun.table_calls", "specfun.cells", "specfun.core_builds",
    "specfun.tail_cutoff_calls", "specfun.tail_cutoff_s",
    "quadrature.gk_calls", "quadrature.gk_intervals",
    "quadrature.theta_integrals", "quadrature.theta_nodes",
    "quadrature.failures", "logspace.logsumexp_calls",
    "symfun.loo_calls", "symfun.loo_cells", "symfun.bytes_computed",
    "asymptotics.phase_solves", "maxwell.rows", "oracles.mc_draws",
    "oracles.projection_s",
)
LAYER_PEAKS = ("quadrature.budget_peak", "exactvol.max_est_rel_error")
SELF_TIME_LAYERS = ("specfun", "quadrature", "logspace", "symfun",
                    "exactvol", "asymptotics", "maxwell", "oracles", "cli")


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str


@dataclass
class Pass:
    procs: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(p.wall for p in self.procs)


class Runner:
    """Spawns children one at a time and enforces the run's deadline."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        self.env.pop("LPVOL_THREADS", None)

    def spawn(self, argv) -> Proc:
        """Run argv to completion; wall time is spawn to exit."""
        out_path = os.path.join(self.workdir, "stdout.txt")
        with open(out_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out,
                                    stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return Proc(wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode, stdout)

    def cli(self, command) -> Proc:
        return self.spawn([sys.executable, "-m", "lpvol.cli", *command.argv])

    def traced(self, command, trace_path: str) -> Proc:
        return self.spawn([sys.executable, os.path.join(HERE, "tracer.py"),
                           trace_path, *command.argv])


def run_pass(runner: Runner, commands, refs, seed, outcome,
             traced=False) -> Pass:
    result = Pass()
    for i, command in enumerate(commands):
        if traced:
            trace_path = os.path.join(runner.workdir, f"trace_{i}.json")
            proc = runner.traced(command, trace_path)
            if os.path.exists(trace_path):
                with open(trace_path) as fh:
                    result.traces.append(json.load(fh))
                os.remove(trace_path)
        else:
            proc = runner.cli(command)
        result.procs.append(proc)
        outcome.add(checks.check(command, proc.code, proc.stdout, refs, seed))
    return result


def measure_setup(runner: Runner) -> list:
    argv = [sys.executable, "-c", "import lpvol.cli"]
    runner.spawn(argv)          # warm-up: byte-compiles the package once
    times = []
    for _ in range(SETUP_RUNS):
        proc = runner.spawn(argv)
        if proc.code != 0:
            raise RuntimeError(f"import lpvol.cli exited {proc.code}")
        times.append(proc.wall)
    return times


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def layer_metrics(traced: Pass, untraced: list) -> dict:
    """Per-layer metrics of one traced pass, plus untraced rusage."""
    counts = {name: 0.0 for name in LAYER_COUNTERS}
    peaks = {name: 0.0 for name in LAYER_PEAKS}
    self_s = {layer: 0.0 for layer in SELF_TIME_LAYERS}
    span_count = {layer: 0 for layer in SELF_TIME_LAYERS}
    pool_wall = import_s = mc_s = rows = repeat_rows = 0.0
    spans = 0
    for doc in traced.traces:
        for name, value in doc["counts"].items():
            if name in counts:
                counts[name] += value
        for name, value in doc["peaks"].items():
            peaks[name] = max(peaks.get(name, 0.0), value)
        rows += doc["counts"].get("specfun.rows", 0.0)
        repeat_rows += doc["counts"].get("specfun.repeat_rows", 0.0)
        mc_s += doc["counts"].get("oracles.mc_s", 0.0)
        import_s += doc["import_s"]
        child = {}
        for sid, parent, _, _, _, t0, t1 in doc["spans"]:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (t1 - t0)
        for sid, _, _, layer, _, t0, t1 in doc["spans"]:
            spans += 1
            if layer == "pool":
                pool_wall += t1 - t0
            else:
                self_s[layer] += (t1 - t0) - child.get(sid, 0.0)
                span_count[layer] += 1
    walls = [p.wall for p in untraced]
    cpus = [sum(pr.cpu for pr in p.procs) for p in untraced]
    metrics = dict(counts)
    metrics.update(peaks)
    metrics.update({f"{layer}.self_s": v for layer, v in self_s.items()})
    metrics.update({
        "specfun.repeat_share": repeat_rows / rows if rows else 0.0,
        "exactvol.calls": span_count["exactvol"],
        "oracles.draws_per_s": (counts["oracles.mc_draws"] / mc_s
                                if mc_s else 0.0),
        "cli.processes": len(untraced[0].procs),
        "cli.cpu_s": statistics.median(cpus),
        "cli.cpu_per_wall": statistics.median(
            c / w for c, w in zip(cpus, walls)),
        "cli.import_s": import_s,
        "cli.pool_wall_s": pool_wall,
        "trace.overhead_s": traced.wall - statistics.median(walls),
        "trace.spans": spans,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool,
                 refs: dict, log) -> tuple:
    """One run of one workload -> (Outcome, metrics)."""
    with tempfile.TemporaryDirectory(prefix=".bench_work_",
                                     dir=ROOT) as workdir:
        runner = Runner(workdir)
        inputs = workloads.make_inputs(seed)
        commands = workloads.build(name, inputs, workdir)
        setup = measure_setup(runner)
        outcome = checks.Outcome()
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(runner, commands, refs, seed, outcome))
            elapsed = time.monotonic() - start
            typical = statistics.median(p.wall for p in passes)
            if elapsed + typical > seconds:
                break
        traced = (run_pass(runner, commands, refs, seed, outcome, True)
                  if trace else None)
    walls = [p.wall for p in passes]
    peaks = [max(pr.rss_mb for pr in p.procs) for p in passes]
    q1, med, q3 = quartiles(walls)
    s1, smed, s3 = quartiles(setup)
    log(f"# {name}: mc_seed={inputs.mc_seed} processes/pass={len(commands)} "
        f"passes={len(passes)} pass walls="
        + " ".join(f"{w:.3f}" for w in walls)
        + " setup walls=" + " ".join(f"{w:.3f}" for w in setup))
    log(f"# {name}: wall_s median={med:.4f} q1={q1:.4f} q3={q3:.4f} "
        f"samples={len(walls)}; setup_s median={smed:.4f} q1={s1:.4f} "
        f"q3={s3:.4f} samples={len(setup)}; peak_rss_mb "
        f"median={statistics.median(peaks):.1f} samples={len(peaks)}")
    log(f"# {name}: fail_rate={outcome.failed / outcome.attempted:.6g} "
        f"({outcome.failed}/{outcome.attempted} operations); "
        f"validate 3-sigma FAIL lines={outcome.mc_3sigma_fails}")
    for problem in outcome.problems[:20]:
        log(f"# {name}: FAILED {problem}")
    if trace:
        metrics = layer_metrics(traced, passes)
        total = sum(metrics[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
        shares = ", ".join(
            f"{layer} {metrics[f'{layer}.self_s'] / total:.0%}"
            for layer in SELF_TIME_LAYERS) if total else "none"
        log(f"# {name}: traced pass wall={traced.wall:.4f} s, "
            f"self-time shares: {shares}")
        log(f"# {name}: traffic: specfun.repeat_share="
            f"{metrics['specfun.repeat_share']:.4f} specfun.cells="
            f"{metrics['specfun.cells']:.0f} symfun.loo_cells="
            f"{metrics['symfun.loo_cells']:.0f} oracles.mc_draws="
            f"{metrics['oracles.mc_draws']:.0f}")
    else:
        metrics = {"wall_s": med, "setup_s": smed,
                   "peak_rss_mb": statistics.median(peaks)}
    return outcome, metrics


def _units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "lpvol", "cli.py")):
        print(f"error: no lpvol sources under {ROOT}/src", file=sys.stderr)
        return 2
    units = _units()
    refs = checks.load_references()

    def log(line):
        print(line, flush=True)

    env = {"seed": args.seed, "nproc": os.cpu_count(),
           "python": platform.python_version(),
           "numpy": metadata.version("numpy"),
           "scipy": metadata.version("scipy"),
           "trace": args.trace, "seconds": args.seconds}
    log("# env " + json.dumps(env, sort_keys=True))
    total = checks.Outcome()
    metrics = {}
    chosen = names if args.workload == "all" else [args.workload]
    for name in chosen:
        outcome, values = run_workload(name, args.seed, args.seconds,
                                       bool(args.trace), refs, log)
        total.add(outcome)
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in values.items():
            metrics[prefix + metric] = {"value": value,
                                        "unit": units[metric]}
        if args.workload == "all" and not args.trace:
            log(f"{name}: " + " ".join(
                f"{m}={v:.4f} {units[m]}" for m, v in values.items())
                + f" fail_rate={outcome.failed / outcome.attempted:.6g}")
    print(json.dumps({"correct": total.failed == 0,
                      "attempted": total.attempted,
                      "failed": total.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
