"""Benchmark entry point for the RevNIC reproduction.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload port-cold --seed 1 --seconds 20 \\
        --trace 0 [--record results.jsonl]

Workloads (declared in ``BENCHMARK.json``): ``port-cold``,
``validate-warm`` and ``fleet-256``; see :mod:`workloads`.

``--trace 0`` reports the end-to-end metrics, the same set for every
workload: ``op_s`` is the workload's timed operation (the cold port, the
matrix verdict, fleet boot plus run loop).  Every step runs in a fresh
interpreter (:mod:`session`) with a private artifact store under
``.bench_work/`` that is removed afterwards: an untimed preparation, four
set-up-only starts, then the measuring process, which sets up once more
and repeats the workload's timed operation for ``--seconds`` seconds.
The warm workloads' preparation copies a filled store that is computed
once per checkout and source digest (``.bench_work/filled-*``).
Timings are medians over the repetitions (``setup_s``: over the five
starts); every output is checked and counted into ``success_ratio``.

``--trace 1`` reports the per-layer metrics: one untraced repetition with
the program's default fan-out (pool figures), then one serial pass of the
whole sequence untraced and one under the span tracer, each in its own
interpreter.  It prints the per-layer self-time table, the unattributed
remainder and the tracing overhead.  Every declared per-layer metric is
reported; a layer the workload never calls reads zero.

Every run prints each metric with its unit, the host state (core count,
load average at start and end, Python version, commit) and a full
``record`` line; the last line is the JSON result.  ``--record FILE``
appends the record to a JSON-lines file for ``compare.py`` and
``summarize.py``.  ``--drivers`` and ``--endpoints`` shrink the inputs
(used by ``selfcheck.py``).
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from common import ROOT, host_state, load_spec, loadavg, speed_probe
from summarize import layer_table
from tracer import ROOT_SPAN
from workloads import CACHE_ENV

SESSION = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "session.py")
WORK_DIR = ".bench_work"
#: Everything a run does must end within this many seconds.
BUDGET_S = 170.0
#: Set-up-only interpreter starts per run (the measuring process adds
#: one more sample).
SETUP_STARTS = 4


class StepFailed(Exception):
    """A benchmark step crashed, timed out or printed no result."""


class Runner:
    """Runs the steps of one benchmark invocation in fresh interpreters."""

    def __init__(self, args, workdir, deadline):
        self.deadline = deadline
        store = os.path.join(workdir, "store")
        scratch = os.path.join(workdir, "scratch")
        tmp = os.path.join(workdir, "tmp")
        for path in (scratch, tmp):
            os.makedirs(path)
        self.config = {"workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "drivers": args.drivers,
                       "endpoints": args.endpoints, "store": store,
                       "scratch": scratch, "workdir": workdir,
                       "shared": os.path.dirname(workdir)}
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REVNIC_")}
        env["PYTHONPATH"] = os.path.join(ROOT, "src")
        env[CACHE_ENV] = store
        env["TMPDIR"] = tmp
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def step(self, name, **overrides):
        """Run one session step; returns its JSON result."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise StepFailed("time budget exhausted before %s" % name)
        config = dict(self.config, **overrides)
        config["spawned_at"] = time.monotonic()
        process = subprocess.Popen(
            [sys.executable, SESSION, name, json.dumps(config)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = process.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise StepFailed("%s step timed out" % name)
        finally:
            _kill_group(process)
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise StepFailed("%s step failed (exit %s):\n%s"
                             % (name, process.returncode, stderr[-4000:]))
        out = json.loads(lines[-1])
        checks = out["checks"]
        self.attempted += checks["attempted"]
        self.failed += checks["failed"]
        self.failures.extend(checks["failures"])
        return out

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    # ------------------------------------------------------------------

    def untraced(self, workload):
        """End-to-end metrics and the samples behind them."""
        self.step("prepare")
        setup = [self.step("setup")["setup_s"] for _ in range(SETUP_STARTS)]
        measure = self.step("measure")
        setup.append(measure["setup_s"])
        samples = {"setup_s": setup,
                   "op_s": [rep["op_s"] for rep in measure["reps"]]}
        metrics = {name: statistics.median(values)
                   for name, values in samples.items()}
        metrics["coverage_min"] = measure["coverage_min"]
        metrics["peak_rss_mb"] = measure["peak_rss_mb"]
        metrics["success_ratio"] = 1.0 - self.failed / max(self.attempted, 1)
        return metrics, {"samples": samples,
                         "repetitions": measure["reps"]}

    def traced(self, workload):
        """Per-layer metrics from a traced serial pass."""
        self.step("prepare")
        measure = self.step("measure", seconds=0)
        plain = self.step("pass")
        traced = self.step("trace")
        layers = traced["layers"]
        metrics = {}
        for name, row in layers.items():
            if name != ROOT_SPAN:
                metrics["%s_s" % name] = row["self_s"]
        metrics.update(traced["counts"])
        rep = measure["reps"][-1]
        metrics.update(rep.get("pool", {}))
        wall = layers[ROOT_SPAN]["total_s"]
        metrics["trace.wall_s"] = wall
        metrics["trace.unattributed_s"] = layers[ROOT_SPAN]["self_s"]
        metrics["trace.untraced_wall_s"] = plain["wall_s"]
        metrics["trace.overhead_s"] = wall - plain["wall_s"]
        metrics["trace.spans"] = traced["spans"]
        metrics["trace.overhead_est_s"] = traced["spans"] \
            * traced["span_cost_s"]
        self_sum = sum(row["self_s"] for row in layers.values())
        self.check(abs(self_sum - wall) <= 1e-6 * max(wall, 1.0),
                   "self times add up to %.6f s of %.6f s wall"
                   % (self_sum, wall))
        if workload == "port-cold":
            # Serial, traced and pooled ports must agree byte for byte.
            self.check(plain["info"]["digests"]
                       == traced["info"]["digests"] == rep["digests"],
                       "canonical artifacts differ between serial, traced "
                       "and pooled ports")
        return metrics, {"layers": layers}


def _kill_group(process):
    """Stop the step and every process it started, then reap it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    process.wait()


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record to this "
                        "JSON-lines file")
    parser.add_argument("--drivers", type=lambda text: text.split(","),
                        help="comma-separated driver subset (reduced size)")
    parser.add_argument("--endpoints", type=int,
                        help="fleet size (reduced size)")
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program source at src/repro under %s"
              % ROOT, file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {entry["name"] for entry in spec["workloads"]}:
        print("perfbench: undeclared workload %r" % args.workload,
              file=sys.stderr)
        return 2
    started = time.monotonic()
    host = host_state()
    host["loadavg_start"] = loadavg()
    host["probe_ms_start"] = speed_probe()
    workdir = os.path.join(ROOT, WORK_DIR, "%s-%d-%d"
                           % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir)
    try:
        runner = Runner(args, workdir, started + BUDGET_S)
        if args.trace:
            metrics, detail = runner.traced(args.workload)
        else:
            metrics, detail = runner.untraced(args.workload)
    except StepFailed as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, WORK_DIR))
        except OSError:
            pass
    host["loadavg_end"] = loadavg()
    host["probe_ms_end"] = speed_probe()
    # More runnable work than cores at either end: the run had fewer free
    # cores than it asked for, so a slower reading may not be the code.
    host["oversubscribed"] = max(host["loadavg_start"][0],
                                 host["loadavg_end"][0]) > host["nproc"]
    host["wall_s"] = time.monotonic() - started

    # Every declared metric of the section, in declaration order.  A
    # layer the workload never calls has zero self time and zero counts.
    result_metrics = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        value = metrics.pop(entry["name"], 0.0 if entry["unit"] == "s"
                            else 0)
        result_metrics[entry["name"]] = {"value": value,
                                         "unit": entry["unit"]}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "correct": runner.failed == 0, "attempted": runner.attempted,
              "failed": runner.failed, "failures": runner.failures[:20],
              "metrics": result_metrics, "undeclared": sorted(metrics)}
    record.update(detail)

    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                             args.trace))
    print("host: nproc %(nproc)d  load %(loadavg_start)s -> "
          "%(loadavg_end)s  oversubscribed %(oversubscribed)s  "
          "probe %(probe_ms_start).1f -> %(probe_ms_end).1f ms  "
          "python %(python)s  commit %(commit)s  source %(source_digest)s"
          % host)
    print("checks: %d attempted, %d failed %s"
          % (runner.attempted, runner.failed, runner.failures[:5]))
    for name, entry in result_metrics.items():
        print("  %-32s %16.6f %s" % (name, entry["value"], entry["unit"]))
    if args.trace:
        print(layer_table(record))
    print("record " + json.dumps(record, sort_keys=True))
    if args.record:
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": record["correct"],
                      "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
